//! The repository benchmark: workloads at `ACM_THREADS=2`, each in its
//! own process, driven only through the crates' public entry points.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <paper|mega|routed|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures for `--seconds` and prints the
//! end-to-end metrics; with `--trace 1` it runs a fixed amount of work
//! untraced, traced and untraced again, and prints the per-layer metrics
//! and a self-time table. The last line of standard output is one JSON
//! object (`correct`, `attempted`, `failed`, `metrics`); the exit code is
//! 1 when any correctness check failed and 2 on bad arguments. See
//! `benchmark/README.md` for the workloads and the metric map.

mod checks;
mod instruments;
mod layers;
mod mega;
mod paper;
mod report;
mod routed;
mod stats;
mod trace;

use std::process::{Command, ExitCode};

/// Every workload, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["paper", "mega", "routed"];
/// Exec-pool width every workload runs at.
const THREADS: usize = 2;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name, or `all`.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measuring time of an end-to-end run.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 120),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or all, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// Runs every workload in a child process of its own, one after
/// another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            failed.push(w);
        }
    }
    if failed.is_empty() {
        println!("all workloads correct");
        ExitCode::SUCCESS
    } else {
        println!("workloads with failed checks: {failed:?}");
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <paper|mega|routed|all> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    acm_exec::configure_threads(THREADS);
    if args.workload == "all" {
        return run_all(&args);
    }
    let header = report::header(&args.workload, args.seed, args.seconds, args.trace);
    println!("{header}");
    let out = match (args.workload.as_str(), args.trace) {
        ("paper", false) => paper::run(&args),
        ("paper", true) => paper::run_traced(&args, &header),
        ("mega", false) => mega::run(&args),
        ("mega", true) => mega::run_traced(&args, &header),
        ("routed", false) => routed::run(&args),
        ("routed", true) => routed::run_traced(&args, &header),
        _ => unreachable!("workload validated by parse"),
    };
    for line in &out.lines {
        println!("{line}");
    }
    print!("{}", out.metric_table());
    println!(
        "correct={} attempted={} failed={}",
        out.correct(),
        out.attempted,
        out.failed
    );
    println!("{}", out.json_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&argv("--workload mega --seed 7 --seconds 10 --trace 1")).expect("ok");
        assert_eq!(
            a,
            Args {
                workload: "mega".into(),
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--workload paper --trace 2")).is_err());
        assert!(parse(&argv("--workload paper --seed x")).is_err());
        assert!(parse(&argv("--workload paper --bogus 1")).is_err());
        assert!(parse(&argv("--workload paper --seed")).is_err());
        assert!(parse(&argv("--seed 3")).is_err());
    }
}
