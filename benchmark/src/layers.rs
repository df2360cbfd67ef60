//! Per-layer metrics of a traced run, the spans derived from the
//! program's own phase timers, and the trace artifacts.

use crate::instruments::{hist_sum_prefix, total, ExecWindow};
use crate::report::Outcome;
use crate::trace::{self_time_table, spans_jsonl, SpanId, SpanRec, Tracer};
use acm_obs::Obs;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The control loop's timers, read around every era: era, the four MAPE
/// phases, and the two PCAM timers that run inside MONITOR.
pub const ERA_TIMERS: [&str; 7] = [
    "acm.core.control_loop.era_ns",
    "acm.core.control_loop.monitor_ns",
    "acm.core.control_loop.analyze_ns",
    "acm.core.control_loop.plan_ns",
    "acm.core.control_loop.execute_ns",
    "acm.pcam.vmc.rejuvenation_scan_ns",
    "acm.pcam.balancer.shares_ns",
];

/// Self-time rows renamed to the layer metric they stand for: what is
/// left of an era outside its four phases, of training outside the
/// toolchain's timers (the F2PM harvest), and of the routed plane outside
/// the isolated layers.
pub const RENAME: [(&str, &str); 3] = [
    ("core.era", "core.outside_phases"),
    ("ml.train", "ml.harvest"),
    ("routed.plane", "routed.unattributed"),
];

/// Lays the MAPE phases (deltas of [`ERA_TIMERS`] over one era) inside
/// `era`, and the PCAM timers inside MONITOR.
pub fn derive_phases(tr: &Tracer, era: SpanId, run: u64, d: &[u64]) {
    let monitor = tr.derive(era, run, "core.monitor", d[1]);
    tr.derive(monitor, run, "pcam.rejuvenation_scan", d[5]);
    tr.derive(monitor, run, "pcam.balancer", d[6]);
    tr.derive(era, run, "core.analyze", d[2]);
    tr.derive(era, run, "core.plan", d[3]);
    tr.derive(era, run, "core.execute", d[4]);
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("core.monitor_ms", "ms"),
    ("core.analyze_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("core.execute_ms", "ms"),
    ("core.outside_phases_ms", "ms"),
    ("core.report_retries", "count"),
    ("pcam.rejuvenation_scan_ms", "ms"),
    ("pcam.balancer_ms", "ms"),
    ("pcam.proactive_share", "ratio"),
    ("ml.train_ms", "ms"),
    ("ml.harvest_ms", "ms"),
    ("ml.lasso_ms", "ms"),
    ("ml.score_ms", "ms"),
    ("ml.fit_ms", "ms"),
    ("overlay.route_ms", "ms"),
    ("overlay.sent", "count"),
    ("overlay.dropped", "count"),
    ("overlay.chaos_drops", "count"),
    ("exec.busy_ms", "ms"),
    ("exec.idle_ms", "ms"),
    ("exec.steals", "count"),
    ("exec.items", "count"),
    ("obs.events_retained", "count"),
    ("obs.events_dropped", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("router.decisions", "count"),
    ("router.route_ms_isolated", "ms"),
    ("sim.events", "count"),
    ("sim.arena_reuse", "count"),
    ("sim.queue_ms_isolated", "ms"),
    ("workload.arrivals_ms_isolated", "ms"),
    ("routed.unattributed_ms", "ms"),
];

/// Per-layer values of a traced run; layers a workload does not
/// exercise stay 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl Layers {
    /// Sets one metric of [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Fills the layers the `acm.*` registry of `obs` measures, with
    /// `train_ms` the benchmark's own time around predictor training.
    pub fn from_registry(obs: &Obs, train_ms: f64) -> Self {
        let mut l = Layers::default();
        let timer = |name: &str| ms(total(obs, name));
        let count = |name: &str| total(obs, name) as f64;
        let phases: Vec<f64> = ERA_TIMERS[1..5].iter().map(|t| timer(t)).collect();
        for (name, v) in [
            "core.monitor_ms",
            "core.analyze_ms",
            "core.plan_ms",
            "core.execute_ms",
        ]
        .into_iter()
        .zip(&phases)
        {
            l.set(name, *v);
        }
        let outside = timer(ERA_TIMERS[0]) - phases.iter().sum::<f64>();
        l.set("core.outside_phases_ms", outside.max(0.0));
        l.set("core.report_retries", count("acm.core.report.retries"));
        l.set("pcam.rejuvenation_scan_ms", timer(ERA_TIMERS[5]));
        l.set("pcam.balancer_ms", timer(ERA_TIMERS[6]));
        let lasso = timer("acm.ml.toolchain.lasso_ns");
        let score = timer("acm.ml.toolchain.score_ns");
        let fit = ms(hist_sum_prefix(obs, "acm.ml.toolchain.fit_ns."));
        l.set("ml.train_ms", train_ms);
        if train_ms > 0.0 {
            l.set("ml.harvest_ms", (train_ms - lasso - score - fit).max(0.0));
        }
        l.set("ml.lasso_ms", lasso);
        l.set("ml.score_ms", score);
        l.set("ml.fit_ms", fit);
        l.set("overlay.route_ms", timer("acm.overlay.transport.route_ns"));
        l.set("overlay.sent", count("acm.overlay.transport.sent"));
        l.set("overlay.dropped", count("acm.overlay.transport.dropped"));
        l.set("overlay.chaos_drops", count("acm.overlay.chaos.msg_drops"));
        l.set("router.decisions", count("acm.router.decisions"));
        l.set("sim.events", count("acm.sim.queue.pop"));
        l.set("sim.arena_reuse", count("acm.sim.queue.arena_reuse"));
        l
    }

    /// Copies the pool's activity over the traced window.
    pub fn set_exec(&mut self, w: &ExecWindow) {
        self.set("exec.busy_ms", w.busy_ms());
        self.set("exec.idle_ms", w.idle_ms());
        self.set("exec.steals", w.delta.steals as f64);
        self.set("exec.items", w.delta.items as f64);
    }

    /// Pushes every per-layer metric, in `BENCHMARK.json` order.
    pub fn push_into(&self, out: &mut Outcome) {
        for (name, unit) in PER_LAYER {
            out.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// Sum of the durations of every span called `name`, ms.
pub fn span_ms(spans: &[SpanRec], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .sum()
}

/// Traced-run results shared by every workload: the self-time table over
/// the traced window `[t0, t1]`, printed and written to
/// `.bench_out/<workload>/` with the spans, the registry snapshot and the
/// exec-pool delta.
pub fn finish_trace(
    out: &mut Outcome,
    workload: &str,
    header: &str,
    spans: &[SpanRec],
    window: (u64, u64),
    registry_jsonl: &str,
    exec: &ExecWindow,
) {
    let (t0, t1) = window;
    let (table, rows) = self_time_table(spans, t0, t1, &RENAME);
    out.line(format!("self time of the traced {workload} run:"));
    for l in table.lines() {
        out.line(l.to_string());
    }
    let largest = rows
        .iter()
        .filter(|r| r.0 != "unattributed")
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("-", |r| r.0.as_str());
    out.line(format!("largest self-time row: {largest}"));
    let dir = PathBuf::from(".bench_out").join(workload);
    let exec_txt = format!("{header}\nwall_s {:.6}\n{:?}\n", exec.wall_s, exec.delta);
    let files = [
        ("spans.jsonl", spans_jsonl(spans)),
        ("self_time.txt", format!("{header}\n{table}")),
        ("registry.jsonl", registry_jsonl.to_string()),
        ("exec.txt", exec_txt),
    ];
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        for (name, body) in &files {
            std::fs::write(dir.join(name), body)?;
        }
        Ok(())
    });
    match written {
        Ok(()) => out.line(format!("trace artifacts in {}", dir.display())),
        Err(e) => out.fail_run(format!(
            "cannot write trace artifacts to {}: {e}",
            dir.display()
        )),
    }
}
