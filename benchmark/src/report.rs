//! Result shapes, the run header and the output formats.

use acm_obs::json::JsonObject;
use std::fmt::Write as _;
use std::path::Path;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `MB`, `count`, `ratio`, `%`).
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units of work attempted (experiments, eras, requests, plans).
    pub attempted: u64,
    /// Attempted units whose correctness check failed.
    pub failed: u64,
    /// Failed whole-run checks (digest identity, cross-checks, ...).
    pub run_failures: Vec<String>,
    /// Metrics for the final JSON line.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Records a unit-level failure with its reason.
    pub fn fail_unit(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 20 {
            self.lines.push(format!("CHECK FAILED: {why}"));
        }
    }

    /// Records a whole-run failure.
    pub fn fail_run(&mut self, why: String) {
        self.lines.push(format!("CHECK FAILED: {why}"));
        self.run_failures.push(why);
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.run_failures.is_empty() && self.attempted > 0
    }

    /// The final output line.
    pub fn json_line(&self) -> String {
        let mut metrics = JsonObject::new();
        for m in &self.metrics {
            let mut v = JsonObject::new();
            v.field_f64("value", m.value).field_str("unit", m.unit);
            metrics.field_raw(m.name, &v.finish());
        }
        let mut o = JsonObject::new();
        o.field_bool("correct", self.correct())
            .field_u64("attempted", self.attempted)
            .field_u64("failed", self.failed)
            .field_raw("metrics", &metrics.finish());
        o.finish()
    }

    /// `name value unit` table of the metrics.
    pub fn metric_table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "{:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        out
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Commit of the checkout in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Header lines stamped on every output and artifact.
pub fn header(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "# acm-benchmark workload={workload} seed={seed} seconds={seconds} trace={} \
         cores={cores} ACM_THREADS={} profile={profile} git_rev={}",
        u8::from(trace),
        acm_exec::current_threads(),
        git_rev()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("setup_s", 0.25, "s");
        let line = o.json_line();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
        o.fail_unit("x".into());
        assert!(!o.correct());
        assert!(o
            .json_line()
            .starts_with(r#"{"correct":false,"attempted":3,"failed":1"#));
    }

    #[test]
    fn nothing_attempted_is_not_correct() {
        assert!(!Outcome::default().correct());
    }
}
