//! `mega`: the control plane at deployment scale. 200 regions × 2,048
//! closed-loop browsers, oracle predictors, a star overlay, the last
//! region partitioned over the middle third of each deployment, 2 %
//! message drop (≤ 10 ms delay) and graceful degradation on; MONITOR is
//! sharded on the exec pool.

use crate::checks::{era_flow, health_masks, EraFlow};
use crate::instruments::{delta, process_cpu_ms, ExecWindow, Timers};
use crate::layers::{derive_phases, finish_trace, Layers, ERA_TIMERS};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{Best, Digest, Timings};
use crate::trace::{SpanRec, Tracer};
use crate::Args;
use acm_core::config::{ExperimentConfig, PredictorChoice, RegionSpec};
use acm_core::framework::build_vmcs_with_obs;
use acm_core::policy::PolicyKind;
use acm_core::{ControlLoop, DegradationConfig};
use acm_obs::{Obs, ObsHandle};
use acm_overlay::FaultPlan;
use acm_sim::rng::SimRng;
use acm_sim::time::{Duration, SimTime};
use acm_workload::ClientSchedule;
use std::time::Instant;

const REGIONS: usize = 200;
const CLIENTS_PER_REGION: u32 = 2_048;
/// Eras per deployment.
const ERAS: usize = 30;
/// Distinct deployments of an end-to-end run, each on its own seed. How
/// often the plan spreads to new region pairs, and with it the cost of a
/// deployment, varies by up to 30 % between seeds, so a run averages
/// over several.
const DISTINCT: usize = 3;
/// Least repetitions of each distinct deployment in an end-to-end run;
/// with [`DISTINCT`] this also gives the 100 era samples a p90 needs.
const MIN_REPEATS: usize = 2;
/// Extra set-ups timed (and dropped) before each deployment. A set-up
/// takes about 1.2 ms, but a burst of them in one process can sit at
/// 1.8 ms throughout, so a burst's median changes from process to
/// process. The fastest of the set-ups spread over the whole run is
/// steady.
const SETUP_REPS: usize = 4;

/// The deployment of the run seeded `seed`.
fn config(seed: u64) -> ExperimentConfig {
    let n = REGIONS;
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, seed);
    cfg.name = format!("mega-{n}r");
    cfg.predictor = PredictorChoice::Oracle;
    cfg.eras = ERAS;
    // The three paper flavors cycled, provisioned linearly with the
    // population (the paper pools serve ~512 browsers per region).
    let factor = (CLIENTS_PER_REGION as usize).div_ceil(512);
    cfg.regions = (0..n)
        .map(|i| {
            let mut region = match i % 3 {
                0 => ExperimentConfig::region1_ireland(),
                1 => ExperimentConfig::region2_frankfurt(),
                _ => ExperimentConfig::region3_munich(),
            };
            region.name = format!("r{i:03}-{}", region.name);
            region.total_vms *= factor;
            region.target_active *= factor;
            RegionSpec {
                region,
                clients: ClientSchedule::Constant(CLIENTS_PER_REGION),
            }
        })
        .collect();
    cfg.latencies = (1..n)
        .map(|j| (0usize, j, Duration::from_millis(8 + (j as u64 * 7) % 40)))
        .collect();
    let era_s = cfg.era.as_micros() / 1_000_000;
    let fail_at = SimTime::from_secs(ERAS as u64 / 3 * era_s);
    let heal_at = SimTime::from_secs(ERAS as u64 * 2 / 3 * era_s);
    cfg.fault_plan = Some(
        FaultPlan::scripted(11, Vec::new())
            .partition_window(vec![ExperimentConfig::node_of(n - 1)], fail_at, heal_at)
            .with_message_chaos(0.02, Duration::from_millis(10)),
    );
    cfg.degradation = DegradationConfig::enabled();
    cfg
}

/// One finished deployment.
struct Deployment {
    setup_s: f64,
    era_ms: Vec<f64>,
    era_cpu_ms: Vec<f64>,
    loop_s: f64,
    completed: u64,
    digest: Digest,
    failures: Vec<String>,
    proactive: u64,
    reactive: u64,
    obs: ObsHandle,
}

/// Config to a loop ready for its first era.
fn set_up(cfg: &ExperimentConfig, obs: &ObsHandle) -> ControlLoop {
    let mut rng = SimRng::new(cfg.seed);
    let vmcs = build_vmcs_with_obs(cfg, &mut rng, obs);
    ControlLoop::new_with_obs(cfg, vmcs, rng, obs.clone())
}

fn deploy(cfg: &ExperimentConfig, tr: &Tracer, run: u64) -> Deployment {
    let obs = Obs::new(cfg.obs);
    let timers = Timers::new(&obs, &ERA_TIMERS);
    let t0 = Instant::now();
    let mut cl = tr.span("mega.setup", None, run, |_| set_up(cfg, &obs));
    let setup_s = t0.elapsed().as_secs_f64();
    let mut era_ms = Vec::with_capacity(cfg.eras);
    let mut era_cpu_ms = Vec::with_capacity(cfg.eras);
    let mut shares = Vec::with_capacity(cfg.eras);
    let loop_t = Instant::now();
    // Era spans carry the era index as their run id.
    for e in 0..cfg.eras as u64 {
        let before = tr.on().then(|| timers.sums());
        let cpu = process_cpu_ms();
        let t = Instant::now();
        let era = tr.span("core.era", None, e, |era| {
            cl.step_era();
            era
        });
        era_ms.push(t.elapsed().as_secs_f64() * 1e3);
        era_cpu_ms.push(process_cpu_ms() - cpu);
        if let Some(before) = before {
            derive_phases(tr, era, e, &delta(&timers.sums(), &before));
        }
        shares.push(cl.router().shares().to_vec());
    }
    let loop_s = loop_t.elapsed().as_secs_f64();
    tr.span("mega.check", None, run, |_| {
        let tel = cl.into_telemetry();
        let names = tel.region_names().to_vec();
        let (masks, installed) = health_masks(&obs.events_tail(usize::MAX), &names, tel.eras());
        let mut failures = Vec::new();
        for e in 0..tel.eras() {
            let fractions: Vec<f64> = (0..names.len())
                .map(|j| tel.fraction(j).points()[e].value)
                .collect();
            let flow = EraFlow {
                era: e,
                fractions: &fractions,
                router_shares: &shares[e],
                excluded: &masks[e],
                installed: installed[e],
            };
            if let Err(why) = era_flow(&flow) {
                failures.push(format!("{} seed {}: {why}", cfg.name, cfg.seed));
            }
        }
        let quarantined_eras = masks.iter().filter(|m| m[REGIONS - 1]).count();
        if quarantined_eras == 0 {
            failures.push(format!(
                "{} seed {}: the partitioned region was never quarantined",
                cfg.name, cfg.seed
            ));
        }
        let mut digest = Digest::default();
        digest.str(&tel.to_csv());
        digest.str(&obs.events_jsonl());
        Deployment {
            setup_s,
            era_ms,
            era_cpu_ms,
            loop_s,
            completed: tel.total_completed(),
            digest,
            failures,
            proactive: tel.total_proactive(),
            reactive: tel.total_reactive(),
            obs: obs.clone(),
        }
    })
}

/// End-to-end run: the run's [`DISTINCT`] deployments in turn until
/// `--seconds` have passed and each ran [`MIN_REPEATS`] times; every
/// repetition must reproduce its deployment's telemetry and decision log.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let off = Tracer::new(false);
    let cfgs: Vec<ExperimentConfig> = (0..DISTINCT as u64)
        .map(|k| config(acm_obs::trace::mix(args.seed, k)))
        .collect();
    let mut best = Best::new(DISTINCT * ERAS);
    let mut best_wall = Best::new(DISTINCT * ERAS);
    let mut setup = Best::new(1);
    let mut eras = Vec::new();
    let (mut completed, mut completed_all, mut loop_s) = (vec![0u64; DISTINCT], 0u64, 0.0);
    let mut first = vec![None; DISTINCT];
    let start = Instant::now();
    let mut d = 0;
    while start.elapsed().as_secs_f64() < args.seconds as f64 || d < DISTINCT * MIN_REPEATS {
        let k = d % DISTINCT;
        let cfg = &cfgs[k];
        for _ in 0..SETUP_REPS {
            let obs = Obs::new(cfg.obs);
            let t = Instant::now();
            let cl = set_up(cfg, &obs);
            setup.record(0, t.elapsed().as_secs_f64() * 1e3);
            drop(cl);
        }
        let dep = deploy(cfg, &off, d as u64);
        setup.record(0, dep.setup_s * 1e3);
        out.attempted += dep.era_ms.len() as u64;
        for why in dep.failures {
            out.fail_unit(why);
        }
        if *first[k].get_or_insert(dep.digest) != dep.digest {
            out.fail_run(format!("deployment {d} diverged from its first run"));
        }
        for (e, (&ms, &cpu)) in dep.era_ms.iter().zip(&dep.era_cpu_ms).enumerate() {
            best.record(k * ERAS + e, cpu);
            best_wall.record(k * ERAS + e, ms);
        }
        eras.extend(dep.era_ms);
        completed[k] = dep.completed;
        completed_all += dep.completed;
        loop_s += dep.loop_s;
        d += 1;
    }
    let n = eras.len();
    let timings = Timings::new(eras);
    let completed: u64 = completed.iter().sum();
    let rate = completed as f64 * 1e3 / best.total_ms();
    out.line(format!(
        "deployments {d} ({DISTINCT} distinct, each >= {MIN_REPEATS} times; {REGIONS} regions x \
         {CLIENTS_PER_REGION} browsers, {ERAS} eras each); all samples: era {}",
        timings.describe()
    ));
    out.line(format!(
        "sim_requests_per_s {rate:.1} 1/s per CPU-second ({completed} completed requests of the \
         {DISTINCT} deployments over the sum of per-era bests); wall time: {:.1} 1/s (per-era \
         bests), {:.1} 1/s over all {n} eras",
        completed as f64 * 1e3 / best_wall.total_ms(),
        completed_all as f64 / loop_s
    ));
    out.line(format!(
        "era_p50_ms {:.4} ms (median of the {} per-era wall-time bests; {:.4} ms over all {n})",
        best_wall.median_ms(),
        DISTINCT * ERAS,
        timings.p50()
    ));
    match timings.tail(0.9) {
        Some(v) => out.line(format!("era_p90_ms {v:.4} ms (all samples, n={n})")),
        None => out.line(format!("era_p90_ms withheld: {n} samples < 100")),
    }
    out.line(format!(
        "setup_s {:.6} s (fastest of {} set-ups, {} before each of the {d} deployments)",
        setup.total_ms() / 1e3,
        d * (SETUP_REPS + 1),
        SETUP_REPS + 1
    ));
    let mut digest = Digest::default();
    for f in first.iter().flatten() {
        digest.str(&f.hex());
    }
    out.line(format!(
        "digest {} (telemetry CSV + decision log of the {DISTINCT} deployments)",
        digest.hex()
    ));
    out.metric("setup_s", setup.total_ms() / 1e3, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("throughput_per_cpu_s", rate, "1/s");
    out
}

/// Traced run: one deployment untraced, the same one traced, then
/// untraced again; the overhead compares with the faster untraced run.
pub fn run_traced(args: &Args, header: &str) -> Outcome {
    let mut out = Outcome::default();
    let cfg = config(args.seed);
    let untraced = || {
        let t = Instant::now();
        let dep = deploy(&cfg, &Tracer::new(false), 0);
        (dep.digest, t.elapsed().as_secs_f64())
    };
    let (untraced_digest, before_s) = untraced();

    let tr = Tracer::new(true);
    let exec0 = acm_exec::global_stats();
    let t0 = tr.now_ns();
    let t = Instant::now();
    let dep = deploy(&cfg, &tr, 0);
    let traced_s = t.elapsed().as_secs_f64();
    let t1 = tr.now_ns();
    let exec = ExecWindow {
        delta: acm_exec::global_stats().delta_since(&exec0),
        wall_s: traced_s,
    };
    let (_, after_s) = untraced();
    let untraced_s = before_s.min(after_s);
    out.attempted = dep.era_ms.len() as u64;
    for why in dep.failures {
        out.fail_unit(why);
    }
    if dep.digest != untraced_digest {
        out.fail_run("traced and untraced deployments diverge".into());
    }
    let spans = tr.finish();
    let mut layers = Layers::from_registry(&dep.obs, 0.0);
    layers.set_exec(&exec);
    layers.set(
        "pcam.proactive_share",
        dep.proactive as f64 / (dep.proactive + dep.reactive).max(1) as f64,
    );
    layers.set("obs.events_retained", dep.obs.events_len() as f64);
    layers.set("obs.events_dropped", dep.obs.events_dropped() as f64);
    layers.set(
        "obs.trace_overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );
    out.line(format!(
        "traced deployment: untraced {untraced_s:.3} s, traced {traced_s:.3} s, digest {}",
        dep.digest.hex()
    ));
    if let Some(slowest) = spans
        .iter()
        .filter(|s| s.name == "core.era")
        .max_by_key(|s| s.end_ns - s.start_ns)
    {
        let ms = |s: &SpanRec| (s.end_ns - s.start_ns) as f64 / 1e6;
        let phases: Vec<String> = spans
            .iter()
            .filter(|s| s.parent == Some(slowest.id))
            .map(|s| format!("{} {:.3}", s.name, ms(s)))
            .collect();
        let inside: f64 = spans
            .iter()
            .filter(|s| s.parent == Some(slowest.id))
            .map(ms)
            .sum();
        out.line(format!(
            "slowest era {}: {:.3} ms = core.outside_phases {:.3} + {} (ms)",
            slowest.run,
            ms(slowest),
            ms(slowest) - inside,
            phases.join(" + ")
        ));
    }
    finish_trace(
        &mut out,
        "mega",
        header,
        &spans,
        (t0, t1),
        &dep.obs.metrics_jsonl(),
        &exec,
    );
    layers.push_into(&mut out);
    out
}
