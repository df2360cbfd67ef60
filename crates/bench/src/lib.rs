//! Shared harness code for the figure-regeneration binaries.
//!
//! Every evaluation artefact of the paper has a binary here (see
//! `DESIGN.md` §4 for the index):
//!
//! * `fig3` — 2-region hybrid, all three policies (paper Figure 3),
//! * `fig4` — 3-region hybrid (paper Figure 4),
//! * `model_selection` — the F2PM model ranking behind the REP-Tree choice,
//! * `ablation_beta` / `ablation_k` / `ablation_heterogeneity` /
//!   `ablation_rejuvenation` — design-choice sweeps.
//!
//! Binaries write CSVs under `results/` and print a qualitative-claim
//! scorecard comparing the run against the paper's reported shape. The
//! gated `*_report` binaries and `chaos_sweep` record their numbers in
//! one [`Report`].

pub mod plot;

use acm_core::config::ExperimentConfig;
use acm_core::framework::run_experiment;
use acm_core::telemetry::ExperimentTelemetry;
use std::fs;
use std::path::{Path, PathBuf};

/// Where the regenerated figure data lands.
pub const RESULTS_DIR: &str = "results";

/// Runs one experiment and writes its telemetry CSV to
/// `results/<name>.csv`. Returns the telemetry for claim checking.
pub fn run_and_dump(cfg: &ExperimentConfig) -> ExperimentTelemetry {
    let tel = run_experiment(cfg);
    let dir = Path::new(RESULTS_DIR);
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {RESULTS_DIR}: {e}");
        return tel;
    }
    let path: PathBuf = dir.join(format!("{}.csv", cfg.name));
    match fs::write(&path, tel.to_csv()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
    tel
}

/// One pass/fail line of the qualitative scorecard.
pub struct Claim {
    /// Claim id (e.g. "C2").
    pub id: &'static str,
    /// What the paper reports.
    pub statement: String,
    /// Whether this run reproduced it.
    pub holds: bool,
    /// The measured quantity backing the verdict.
    pub evidence: String,
}

impl Claim {
    /// Formats the scorecard line.
    pub fn line(&self) -> String {
        format!(
            "[{}] {} — {} ({})",
            if self.holds { "PASS" } else { "FAIL" },
            self.id,
            self.statement,
            self.evidence
        )
    }
}

/// Prints a scorecard and returns how many claims failed.
pub fn print_scorecard(claims: &[Claim]) -> usize {
    println!("\n--- qualitative claims vs paper ---");
    let mut failures = 0;
    for c in claims {
        println!("{}", c.line());
        if !c.holds {
            failures += 1;
        }
    }
    failures
}

/// Tail window used for steady-state statistics (last third of the run).
pub fn tail_window(tel: &ExperimentTelemetry) -> usize {
    (tel.eras() / 3).max(1)
}

/// The numbers and gates of one report binary (`chaos_report`,
/// `trace_report`, `chaos_sweep`, `mega_report`, `router_report`,
/// `model_report`): each value is printed as it is pushed, and the whole
/// report becomes one JSON object — keys in push order, values rounded
/// to 3 decimals, then `gate_violations`.
pub struct Report {
    /// Print width of the value column.
    width: usize,
    entries: Vec<(String, f64)>,
    failures: Vec<String>,
}

impl Report {
    /// An empty report whose printed values are `width` columns wide.
    pub fn new(width: usize) -> Self {
        Report {
            width,
            entries: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Records and prints one named value.
    pub fn push(&mut self, name: &str, value: f64) {
        println!("{name:<52} {value:>w$.3}", w = self.width);
        self.entries.push((name.to_string(), value));
    }

    /// Records a gate violation (and prints it) unless `ok`.
    pub fn gate(&mut self, ok: bool, what: String) {
        if !ok {
            println!("  GATE VIOLATION: {what}");
            self.failures.push(what);
        }
    }

    /// The report as one JSON line.
    pub fn to_json(&self) -> String {
        let mut o = acm_obs::json::JsonObject::new();
        for (name, value) in &self.entries {
            o.field_f64(name, (value * 1000.0).round() / 1000.0);
        }
        o.field_u64("gate_violations", self.failures.len() as u64);
        let mut s = o.finish();
        s.push('\n');
        s
    }

    /// Writes the JSON to `path` in the current directory, then prints
    /// `all_hold` or every violation; with violations and
    /// `exit_on_violation` the process exits with status 1.
    pub fn finish(&self, path: &str, all_hold: &str, exit_on_violation: bool) {
        match fs::write(path, self.to_json()) {
            Ok(()) => println!("\nwrote {path}"),
            Err(e) => eprintln!("\nwarning: cannot write {path}: {e}"),
        }
        if self.failures.is_empty() {
            println!("{all_hold}");
            return;
        }
        eprintln!("\n{} gate violation(s):", self.failures.len());
        for f in &self.failures {
            eprintln!("  FAIL: {f}");
        }
        if exit_on_violation {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_keeps_push_order_rounds_and_counts_violations() {
        let mut r = Report::new(14);
        r.push("b", 1.23456);
        r.push("a", 2.0);
        r.gate(true, "holds".into());
        r.gate(false, "broken".into());
        assert_eq!(r.to_json(), "{\"b\":1.235,\"a\":2,\"gate_violations\":1}\n");
    }

    #[test]
    fn claim_line_formats() {
        let c = Claim {
            id: "C1",
            statement: "x".into(),
            holds: true,
            evidence: "y".into(),
        };
        assert_eq!(c.line(), "[PASS] C1 — x (y)");
        let c = Claim { holds: false, ..c };
        assert!(c.line().starts_with("[FAIL]"));
    }
}
