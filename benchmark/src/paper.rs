//! `paper`: the paper's own experiment. The fig-3 (2 regions) and fig-4
//! (3 regions) deployments × the three policies, trained REP-Tree
//! predictors, 120 eras × 30 s, one experiment after another over a
//! range of seeds.

use crate::checks::paper_claim;
use crate::instruments::{delta, hist_sum_prefix, process_cpu_ms, total, ExecWindow, Timers};
use crate::layers::{derive_phases, finish_trace, span_ms, Layers, ERA_TIMERS};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{Best, Digest, Timings};
use crate::trace::Tracer;
use crate::Args;
use acm_core::config::ExperimentConfig;
use acm_core::framework::build_vmcs_with_obs;
use acm_core::policy::PolicyKind;
use acm_core::ControlLoop;
use acm_obs::{Obs, ObsHandle};
use acm_sim::rng::SimRng;
use std::time::Instant;

/// Distinct experiments of an end-to-end run, each on its own seed: the
/// F2PM harvest, and with it an experiment's cost, varies several-fold
/// between seeds, so a run averages over many of them.
const DISTINCT: usize = 120;
/// Least repetitions of each distinct experiment in an end-to-end run.
const MIN_REPEATS: usize = 3;
/// Experiments in a traced run (each run untraced, traced, untraced).
const TRACED_EXPERIMENTS: usize = 120;

/// Experiment `i` of the run seeded `seed`: the policies cycle, then the
/// deployments; every experiment has a seed of its own.
fn config(seed: u64, i: usize) -> ExperimentConfig {
    let policy = PolicyKind::ALL[i % 3];
    let s = acm_obs::trace::mix(seed, i as u64);
    if (i / 3).is_multiple_of(2) {
        ExperimentConfig::two_region_fig3(policy, s)
    } else {
        ExperimentConfig::three_region_fig4(policy, s)
    }
}

struct Experiment {
    setup_s: f64,
    total_s: f64,
    cpu_ms: f64,
    claim: Result<(), String>,
    csv: String,
    proactive: u64,
    reactive: u64,
    obs: ObsHandle,
}

/// Runs experiment `i`: predictor training and loop construction (the
/// set-up), every era, then the policy claim.
fn experiment(cfg: &ExperimentConfig, tr: &Tracer, i: usize) -> Experiment {
    let run = i as u64;
    let obs = Obs::new(cfg.obs);
    let timers = Timers::new(&obs, &ERA_TIMERS);
    let cpu0 = process_cpu_ms();
    let t0 = Instant::now();
    tr.span("paper.experiment", None, run, |exp| {
        let mut rng = SimRng::new(cfg.seed);
        let vmcs = tr.span("ml.train", exp, run, |train| {
            let vmcs = build_vmcs_with_obs(cfg, &mut rng, &obs);
            if tr.on() {
                let fit = hist_sum_prefix(&obs, "acm.ml.toolchain.fit_ns.");
                tr.derive(
                    train,
                    run,
                    "ml.lasso",
                    total(&obs, "acm.ml.toolchain.lasso_ns"),
                );
                tr.derive(
                    train,
                    run,
                    "ml.score",
                    total(&obs, "acm.ml.toolchain.score_ns"),
                );
                tr.derive(train, run, "ml.fit", fit);
            }
            vmcs
        });
        let mut cl = tr.span("core.setup", exp, run, |_| {
            ControlLoop::new_with_obs(cfg, vmcs, rng, obs.clone())
        });
        let setup_s = t0.elapsed().as_secs_f64();
        for _ in 0..cfg.eras {
            let before = tr.on().then(|| timers.sums());
            let era = tr.span("core.era", exp, run, |era| {
                cl.step_era();
                era
            });
            if let Some(before) = before {
                derive_phases(tr, era, run, &delta(&timers.sums(), &before));
            }
        }
        tr.span("paper.check", exp, run, |_| {
            let tel = cl.into_telemetry();
            let w = (tel.eras() / 3).max(1);
            Experiment {
                setup_s,
                total_s: t0.elapsed().as_secs_f64(),
                cpu_ms: process_cpu_ms() - cpu0,
                claim: paper_claim(cfg.policy, tel.rmttf_spread(w), tel.tail_response(w)),
                csv: tel.to_csv(),
                proactive: tel.total_proactive(),
                reactive: tel.total_reactive(),
                obs: obs.clone(),
            }
        })
    })
}

fn check(out: &mut Outcome, cfg: &ExperimentConfig, e: &Experiment) {
    if let Err(why) = &e.claim {
        out.fail_unit(format!("{} seed {}: {why}", cfg.name, cfg.seed));
    }
}

/// End-to-end run: the run's [`DISTINCT`] experiments in turn, again and
/// again, until `--seconds` have passed and each ran [`MIN_REPEATS`]
/// times; every repetition must reproduce the experiment's telemetry.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let off = Tracer::new(false);
    let mut outputs: Vec<Option<Digest>> = vec![None; DISTINCT];
    let mut best = Best::new(DISTINCT);
    let mut best_wall = Best::new(DISTINCT);
    let mut setup = Best::new(DISTINCT);
    let mut totals = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < args.seconds as f64 || i < DISTINCT * MIN_REPEATS {
        let slot = i % DISTINCT;
        let cfg = config(args.seed, slot);
        let e = experiment(&cfg, &off, slot);
        check(&mut out, &cfg, &e);
        let mut d = Digest::default();
        d.str(&e.csv);
        match outputs[slot] {
            None => outputs[slot] = Some(d),
            Some(first) if first != d => {
                out.fail_run(format!(
                    "experiment {slot} repeated with different telemetry"
                ));
            }
            Some(_) => {}
        }
        best.record(slot, e.cpu_ms);
        best_wall.record(slot, e.total_s * 1e3);
        setup.record(slot, e.setup_s * 1e3);
        totals.push(e.total_s * 1e3);
        i += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    out.attempted = i as u64;
    let mut digest = Digest::default();
    for d in outputs.iter().flatten() {
        digest.str(&d.hex());
    }
    let timings = Timings::new(totals);
    let rate = DISTINCT as f64 * 1e3 / best.total_ms();
    out.line(format!(
        "experiments {i} ({DISTINCT} distinct, each >= {MIN_REPEATS} times) in {wall_s:.3} s; \
         all samples: experiment {}",
        timings.describe()
    ));
    out.line(format!(
        "experiments_per_s {rate:.4} 1/s per CPU-second (best of each experiment); wall time: \
         {:.4} 1/s (best of each), {:.4} 1/s over all {i}",
        DISTINCT as f64 * 1e3 / best_wall.total_ms(),
        i as f64 / wall_s
    ));
    out.line(format!(
        "experiment_p50_ms {:.4} ms (median of the {DISTINCT} wall-time bests; {:.4} ms over all \
         {i})",
        best_wall.median_ms(),
        timings.p50()
    ));
    match timings.tail(0.9) {
        Some(v) => out.line(format!("experiment_p90_ms {v:.4} ms (all samples, n={i})")),
        None => out.line(format!("experiment_p90_ms withheld: {i} samples < 100")),
    }
    out.line(format!(
        "digest {} (telemetry CSV of the {DISTINCT} experiments)",
        digest.hex()
    ));
    out.line(format!(
        "setup_s {:.6} s (median of the {DISTINCT} experiments' fastest set-ups)",
        setup.median_ms() / 1e3
    ));
    out.metric("setup_s", setup.median_ms() / 1e3, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("throughput_per_cpu_s", rate, "1/s");
    out
}

/// Traced run: [`TRACED_EXPERIMENTS`] experiments untraced, the same ones
/// traced, then untraced again; per-layer metrics come from the traced
/// pass, the overhead compares it with the faster untraced pass.
pub fn run_traced(args: &Args, header: &str) -> Outcome {
    let mut out = Outcome::default();
    let untraced_pass = || {
        let off = Tracer::new(false);
        let mut digest = Digest::default();
        let t = Instant::now();
        for i in 0..TRACED_EXPERIMENTS {
            digest.str(&experiment(&config(args.seed, i), &off, i).csv);
        }
        (digest, t.elapsed().as_secs_f64())
    };
    let (untraced, before_s) = untraced_pass();

    let tr = Tracer::new(true);
    let rollup = Obs::new(acm_obs::ObsConfig::default());
    let mut traced = Digest::default();
    let (mut proactive, mut reactive, mut retained, mut dropped) = (0u64, 0u64, 0u64, 0u64);
    let exec0 = acm_exec::global_stats();
    let t0 = tr.now_ns();
    let t = Instant::now();
    for i in 0..TRACED_EXPERIMENTS {
        let cfg = config(args.seed, i);
        let e = experiment(&cfg, &tr, i);
        check(&mut out, &cfg, &e);
        traced.str(&e.csv);
        proactive += e.proactive;
        reactive += e.reactive;
        retained += e.obs.events_len() as u64;
        dropped += e.obs.events_dropped();
        rollup.merge_from(&e.obs);
    }
    let traced_s = t.elapsed().as_secs_f64();
    let t1 = tr.now_ns();
    let exec = ExecWindow {
        delta: acm_exec::global_stats().delta_since(&exec0),
        wall_s: traced_s,
    };
    let (_, after_s) = untraced_pass();
    let untraced_s = before_s.min(after_s);
    out.attempted = TRACED_EXPERIMENTS as u64;
    if traced != untraced {
        out.fail_run("traced and untraced experiments diverge".into());
    }
    let spans = tr.finish();
    let mut layers = Layers::from_registry(&rollup, span_ms(&spans, "ml.train"));
    layers.set_exec(&exec);
    layers.set(
        "pcam.proactive_share",
        proactive as f64 / (proactive + reactive).max(1) as f64,
    );
    layers.set("obs.events_retained", retained as f64);
    layers.set("obs.events_dropped", dropped as f64);
    layers.set(
        "obs.trace_overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );
    out.line(format!(
        "traced {TRACED_EXPERIMENTS} experiments: untraced {untraced_s:.3} s, traced {traced_s:.3} s, digest {}",
        traced.hex()
    ));
    finish_trace(
        &mut out,
        "paper",
        header,
        &spans,
        (t0, t1),
        &rollup.metrics_jsonl(),
        &exec,
    );
    layers.push_into(&mut out);
    out
}
