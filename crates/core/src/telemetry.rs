//! Per-era experiment telemetry.
//!
//! The paper's figures are time series of (a) each region's RMTTF, (b) each
//! region's workload fraction `f_i`, and (c) the mean response time
//! measured by the clients. [`ExperimentTelemetry`] records exactly those
//! signals per control era, plus the operational counters (rejuvenations,
//! reactive failures, plan churn) the text discusses, and computes the
//! convergence/stability statistics the assessment in Sec. VI-B is based
//! on.

use acm_sim::series::{SeriesTable, TimeSeries};
use acm_sim::stats::OnlineStats;
use acm_sim::time::SimTime;

/// Everything one region reported in one era.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionEraRecord {
    /// Leader-side (EWMA) RMTTF estimate, seconds.
    pub rmttf: f64,
    /// Installed workload fraction.
    pub fraction: f64,
    /// Region mean response time, seconds.
    pub response_s: f64,
    /// ACTIVE VM count.
    pub active_vms: usize,
    /// Proactive rejuvenations this era.
    pub proactive: u32,
    /// Reactive failures this era.
    pub reactive: u32,
    /// Requests completed this era.
    pub completed: u64,
}

/// Full telemetry of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentTelemetry {
    region_names: Vec<String>,
    /// Per-region series, index-aligned with `region_names`.
    rmttf: Vec<TimeSeries>,
    fraction: Vec<TimeSeries>,
    response: Vec<TimeSeries>,
    active_vms: Vec<TimeSeries>,
    /// Global client-side mean response time.
    global_response: TimeSeries,
    /// Global offered rate λ.
    global_lambda: TimeSeries,
    /// Forward-plan churn per era.
    plan_churn: TimeSeries,
    /// Remote-forwarding fraction per era.
    remote_fraction: TimeSeries,
    /// Lifetime counters.
    total_proactive: u64,
    total_reactive: u64,
    total_completed: u64,
    eras: usize,
}

impl ExperimentTelemetry {
    /// Creates empty telemetry for the named regions.
    pub fn new(region_names: Vec<String>) -> Self {
        let mk = |suffix: &str| -> Vec<TimeSeries> {
            region_names
                .iter()
                .map(|n| TimeSeries::new(format!("{n}_{suffix}")))
                .collect()
        };
        ExperimentTelemetry {
            rmttf: mk("rmttf"),
            fraction: mk("f"),
            response: mk("resp"),
            active_vms: mk("active"),
            global_response: TimeSeries::new("global_resp"),
            global_lambda: TimeSeries::new("lambda"),
            plan_churn: TimeSeries::new("plan_churn"),
            remote_fraction: TimeSeries::new("remote_frac"),
            region_names,
            total_proactive: 0,
            total_reactive: 0,
            total_completed: 0,
            eras: 0,
        }
    }

    /// Region names.
    pub fn region_names(&self) -> &[String] {
        &self.region_names
    }

    /// Number of recorded eras.
    pub fn eras(&self) -> usize {
        self.eras
    }

    /// Appends one era of records (one per region, index-aligned).
    pub fn record_era(
        &mut self,
        t: SimTime,
        regions: &[RegionEraRecord],
        global_response_s: f64,
        global_lambda: f64,
        plan_churn: f64,
        remote_fraction: f64,
    ) {
        assert_eq!(
            regions.len(),
            self.region_names.len(),
            "one record per region"
        );
        for (i, r) in regions.iter().enumerate() {
            self.rmttf[i].push(t, r.rmttf);
            self.fraction[i].push(t, r.fraction);
            self.response[i].push(t, r.response_s);
            self.active_vms[i].push(t, r.active_vms as f64);
            self.total_proactive += r.proactive as u64;
            self.total_reactive += r.reactive as u64;
            self.total_completed += r.completed;
        }
        self.global_response.push(t, global_response_s);
        self.global_lambda.push(t, global_lambda);
        self.plan_churn.push(t, plan_churn);
        self.remote_fraction.push(t, remote_fraction);
        self.eras += 1;
    }

    /// RMTTF series of region `i`.
    pub fn rmttf(&self, i: usize) -> &TimeSeries {
        &self.rmttf[i]
    }

    /// Fraction series of region `i`.
    pub fn fraction(&self, i: usize) -> &TimeSeries {
        &self.fraction[i]
    }

    /// Response-time series of region `i`.
    pub fn response(&self, i: usize) -> &TimeSeries {
        &self.response[i]
    }

    /// ACTIVE-VM-count series of region `i`.
    pub fn active_vms(&self, i: usize) -> &TimeSeries {
        &self.active_vms[i]
    }

    /// Global client response time series (figure row 3).
    pub fn global_response(&self) -> &TimeSeries {
        &self.global_response
    }

    /// Global offered rate series.
    pub fn global_lambda(&self) -> &TimeSeries {
        &self.global_lambda
    }

    /// Plan churn series.
    pub fn plan_churn(&self) -> &TimeSeries {
        &self.plan_churn
    }

    /// Lifetime proactive rejuvenations.
    pub fn total_proactive(&self) -> u64 {
        self.total_proactive
    }

    /// Lifetime reactive failures.
    pub fn total_reactive(&self) -> u64 {
        self.total_reactive
    }

    /// Lifetime completed requests.
    pub fn total_completed(&self) -> u64 {
        self.total_completed
    }

    // ----- convergence & stability statistics (Sec. VI-B assessment) ------

    /// RMTTF convergence over the final `window` eras: the ratio of the
    /// largest to the smallest region-mean RMTTF (1.0 = perfectly
    /// converged). Policy 2 should score near 1; Policy 1 should not.
    pub fn rmttf_spread(&self, window: usize) -> f64 {
        let means: Vec<f64> = self
            .rmttf
            .iter()
            .map(|s| s.tail_stats(window).mean())
            .collect();
        let max = means.iter().fold(0.0_f64, |a, b| a.max(*b));
        let min = means.iter().fold(f64::INFINITY, |a, b| a.min(*b));
        if min <= 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }

    /// Mean fraction oscillation over the final `window` eras: the average
    /// (across regions) coefficient of variation of `f_i` — the stability
    /// metric behind "the values of f_i are subject to oscillations".
    pub fn fraction_oscillation(&self, window: usize) -> f64 {
        let mut s = OnlineStats::new();
        for series in &self.fraction {
            s.push(series.tail_cv(window));
        }
        s.mean()
    }

    /// Largest single-era jump of any region's fraction in the final
    /// `window` eras (plan-redirection severity).
    pub fn fraction_max_step(&self, window: usize) -> f64 {
        self.fraction
            .iter()
            .map(|s| s.tail_max_step(window))
            .fold(0.0, f64::max)
    }

    /// Mean global response time over the final `window` eras.
    pub fn tail_response(&self, window: usize) -> f64 {
        self.global_response.tail_stats(window).mean()
    }

    /// First era at which the (5-era smoothed) RMTTF spread *reaches* the
    /// `bound` band — the "how fast does it get there" metric (no
    /// persistence requirement; see [`Self::convergence_era`] for the
    /// stay-there variant).
    pub fn first_reach_era(&self, bound: f64) -> Option<usize> {
        let n = self.eras;
        (0..n).find(|&e| self.smoothed_spread_at(e) <= bound)
    }

    /// The 5-era-smoothed max/min RMTTF ratio at era `e`.
    fn smoothed_spread_at(&self, e: usize) -> f64 {
        const SMOOTH: usize = 5;
        let n = self.eras;
        let smoothed = |series: &TimeSeries| -> f64 {
            let lo = e.saturating_sub(SMOOTH / 2);
            let hi = (e + SMOOTH / 2 + 1).min(n);
            let pts = &series.points()[lo..hi];
            pts.iter().map(|p| p.value).sum::<f64>() / pts.len() as f64
        };
        let vals: Vec<f64> = self.rmttf.iter().map(smoothed).collect();
        let max = vals.iter().fold(0.0_f64, |a, b| a.max(*b));
        let min = vals.iter().fold(f64::INFINITY, |a, b| a.min(*b));
        if min <= 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }

    /// First era index after which the RMTTF spread stays below `bound` —
    /// tolerating transient blips (at most 5 % of the remaining eras, and
    /// never the final era) — or `None` if the run never settles. The
    /// tolerance matters with trained predictors: a rejuvenation wave can
    /// inflate one region's estimate for a single era without the system
    /// actually diverging.
    pub fn convergence_era(&self, bound: f64) -> Option<usize> {
        let n = self.eras;
        if n == 0 {
            return None;
        }
        // Spread per era, measured on 5-era centred moving averages of each
        // region's RMTTF: convergence is a statement about the trend lines
        // in the figure, not about single-era estimation noise (trained
        // predictors jitter each era's estimate by the tree's leaf
        // granularity).
        let spread_at = |e: usize| -> f64 { self.smoothed_spread_at(e) };
        if spread_at(n - 1) > bound {
            return None; // still diverged at the end
        }
        // Suffix violation counts, scanned backward.
        let mut violations = 0usize;
        let mut best = None;
        for e in (0..n).rev() {
            if spread_at(e) > bound {
                violations += 1;
            }
            let suffix = n - e;
            let allowed = suffix / 20; // 5 % transient tolerance
            if violations <= allowed && spread_at(e) <= bound {
                best = Some(e);
            }
        }
        best
    }

    /// Renders the full telemetry as one CSV table (figure regeneration).
    pub fn to_csv(&self) -> String {
        let mut names: Vec<String> = Vec::new();
        for group in [
            &self.rmttf,
            &self.fraction,
            &self.response,
            &self.active_vms,
        ] {
            for s in group.iter() {
                names.push(s.name().to_string());
            }
        }
        names.push("global_resp".into());
        names.push("lambda".into());
        names.push("plan_churn".into());
        names.push("remote_frac".into());
        let mut table = SeriesTable::new(names);
        for e in 0..self.eras {
            let t = self.global_response.points()[e].t;
            let mut row = Vec::new();
            for group in [
                &self.rmttf,
                &self.fraction,
                &self.response,
                &self.active_vms,
            ] {
                for s in group.iter() {
                    row.push(s.points()[e].value);
                }
            }
            row.push(self.global_response.points()[e].value);
            row.push(self.global_lambda.points()[e].value);
            row.push(self.plan_churn.points()[e].value);
            row.push(self.remote_fraction.points()[e].value);
            table.push_row(t, &row);
        }
        table.to_csv()
    }

    /// Renders the telemetry as JSON Lines, one object per era. Shares the
    /// JSON writer with the observability decision log, so the two streams
    /// can be concatenated and post-processed by the same tooling.
    pub fn to_jsonl(&self) -> String {
        use acm_obs::json::{self, JsonObject};
        let mut out = String::new();
        for e in 0..self.eras {
            let regions = json::array((0..self.region_names.len()).map(|i| {
                let mut o = JsonObject::new();
                o.field_str("name", &self.region_names[i])
                    .field_f64("rmttf_s", self.rmttf[i].points()[e].value)
                    .field_f64("fraction", self.fraction[i].points()[e].value)
                    .field_f64("response_s", self.response[i].points()[e].value)
                    .field_u64("active_vms", self.active_vms[i].points()[e].value as u64);
                o.finish()
            }));
            let mut o = JsonObject::new();
            o.field_u64("era", e as u64)
                .field_u64("t_us", self.global_response.points()[e].t.as_micros())
                .field_raw("regions", &regions)
                .field_f64("global_response_s", self.global_response.points()[e].value)
                .field_f64("lambda", self.global_lambda.points()[e].value)
                .field_f64("plan_churn", self.plan_churn.points()[e].value)
                .field_f64("remote_fraction", self.remote_fraction.points()[e].value);
            out.push_str(&o.finish());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(rmttf: f64, fraction: f64) -> RegionEraRecord {
        RegionEraRecord {
            rmttf,
            fraction,
            response_s: 0.1,
            active_vms: 4,
            proactive: 1,
            reactive: 0,
            completed: 100,
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn two_region() -> ExperimentTelemetry {
        ExperimentTelemetry::new(vec!["r1".into(), "r3".into()])
    }

    #[test]
    fn records_accumulate() {
        let mut tel = two_region();
        tel.record_era(
            t(30),
            &[record(500.0, 0.7), record(480.0, 0.3)],
            0.12,
            60.0,
            0.0,
            0.1,
        );
        tel.record_era(
            t(60),
            &[record(510.0, 0.72), record(490.0, 0.28)],
            0.11,
            61.0,
            0.05,
            0.1,
        );
        assert_eq!(tel.eras(), 2);
        assert_eq!(tel.total_proactive(), 4);
        assert_eq!(tel.total_completed(), 400);
        assert_eq!(tel.rmttf(0).last(), Some(510.0));
        assert_eq!(tel.fraction(1).last(), Some(0.28));
    }

    #[test]
    fn spread_detects_convergence() {
        let mut converged = two_region();
        let mut diverged = two_region();
        for e in 1..=20 {
            converged.record_era(
                t(e * 30),
                &[record(500.0, 0.7), record(505.0, 0.3)],
                0.1,
                60.0,
                0.0,
                0.1,
            );
            diverged.record_era(
                t(e * 30),
                &[record(650.0, 0.7), record(310.0, 0.3)],
                0.1,
                60.0,
                0.0,
                0.1,
            );
        }
        assert!(converged.rmttf_spread(10) < 1.05);
        assert!(diverged.rmttf_spread(10) > 1.9);
    }

    #[test]
    fn oscillation_metric_separates_stable_from_jumpy() {
        let mut stable = two_region();
        let mut jumpy = two_region();
        for e in 1..=20u64 {
            stable.record_era(
                t(e * 30),
                &[record(500.0, 0.7), record(500.0, 0.3)],
                0.1,
                60.0,
                0.0,
                0.1,
            );
            let f = if e % 2 == 0 { 0.8 } else { 0.4 };
            jumpy.record_era(
                t(e * 30),
                &[record(500.0, f), record(500.0, 1.0 - f)],
                0.1,
                60.0,
                0.0,
                0.1,
            );
        }
        assert!(jumpy.fraction_oscillation(16) > 5.0 * stable.fraction_oscillation(16));
        assert!(jumpy.fraction_max_step(16) >= 0.39);
        assert_eq!(stable.fraction_max_step(16), 0.0);
    }

    #[test]
    fn convergence_era_finds_settle_point() {
        let mut tel = two_region();
        // Diverged for 5 eras, then settled.
        for e in 1..=5u64 {
            tel.record_era(
                t(e * 30),
                &[record(800.0, 0.5), record(300.0, 0.5)],
                0.1,
                60.0,
                0.0,
                0.1,
            );
        }
        for e in 6..=15u64 {
            tel.record_era(
                t(e * 30),
                &[record(510.0, 0.7), record(500.0, 0.3)],
                0.1,
                60.0,
                0.0,
                0.1,
            );
        }
        // The 5-era smoothing window blurs the regime boundary by a couple
        // of eras.
        let conv = tel.convergence_era(1.2).expect("settles");
        assert!((5..=8).contains(&conv), "settle point {conv}");
        let reach = tel.first_reach_era(1.2).expect("reaches");
        assert!(reach <= conv, "reach {reach} after settle {conv}");
        // A never-settling run reports None.
        let mut never = two_region();
        for e in 1..=10u64 {
            never.record_era(
                t(e * 30),
                &[record(800.0, 0.5), record(300.0, 0.5)],
                0.1,
                60.0,
                0.0,
                0.1,
            );
        }
        assert_eq!(never.convergence_era(1.2), None);
    }

    #[test]
    fn csv_contains_all_columns_and_rows() {
        let mut tel = two_region();
        tel.record_era(
            t(30),
            &[record(500.0, 0.7), record(480.0, 0.3)],
            0.12,
            60.0,
            0.0,
            0.1,
        );
        let csv = tel.to_csv();
        let header = csv.lines().next().unwrap();
        for col in [
            "r1_rmttf",
            "r3_f",
            "r1_resp",
            "r3_active",
            "global_resp",
            "lambda",
        ] {
            assert!(header.contains(col), "missing {col} in {header}");
        }
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn jsonl_emits_one_valid_object_per_era() {
        let mut tel = two_region();
        tel.record_era(
            t(30),
            &[record(500.0, 0.7), record(480.0, 0.3)],
            0.12,
            60.0,
            0.0,
            0.1,
        );
        tel.record_era(
            t(60),
            &[record(510.0, 0.72), record(490.0, 0.28)],
            0.11,
            61.0,
            0.05,
            0.1,
        );
        let jsonl = tel.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(r#"{"era":0,"t_us":30000000,"#));
        assert!(lines[0].contains(r#""name":"r1","rmttf_s":500"#));
        assert!(lines[1].contains(r#""era":1"#));
        assert!(lines[1].contains(r#""plan_churn":0.05"#));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    #[should_panic(expected = "one record per region")]
    fn wrong_region_count_panics() {
        let mut tel = two_region();
        tel.record_era(t(30), &[record(1.0, 1.0)], 0.1, 60.0, 0.0, 0.1);
    }
}
