//! `routed`: the per-request data plane. `run_routed_plane` over 64
//! regions and 16 shards with 2^20 emulated browsers, three 10 s eras
//! installing the plan schedule skew → skew with the last region
//! quarantined → reversed skew, chaos and latency feedback on.

use crate::checks::routed_step;
use crate::instruments::{process_cpu_ms, ExecWindow};
use crate::layers::{finish_trace, Layers};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{Best, Digest, Timings};
use crate::trace::Tracer;
use crate::Args;
use acm_overlay::{ChaosLayer, FaultPlan, MessageFate, NodeId};
use acm_router::{
    run_routed_plane, LatencyAwareness, PlanStep, PlaneOutcome, RequestRouter, RoutedPlaneConfig,
    ShardDigest,
};
use acm_sim::rng::SimRng;
use acm_sim::sim::Simulator;
use acm_sim::time::{Duration, SimTime};
use acm_workload::{OpenLoopArrivals, RateProfile, THINK_TIME_MEAN_S};
use std::hint::black_box;
use std::time::Instant;

const REGIONS: usize = 64;
const SHARDS: usize = 16;
const BROWSERS: u64 = 1 << 20;
/// One era per plan step.
const ERAS: u64 = 3;

fn plane_config(seed: u64, eras: u64) -> RoutedPlaneConfig {
    let n = REGIONS;
    let mut cfg = RoutedPlaneConfig::new(n, SHARDS, BROWSERS, eras, seed);
    cfg.era_s = 10;
    let skew: Vec<f64> = (0..n).map(|i| (3 - (i % 3)) as f64).collect();
    let mut masked_live = vec![true; n];
    masked_live[n - 1] = false;
    cfg.plans = vec![
        PlanStep::all_live(skew.clone()),
        PlanStep {
            fractions: skew.clone(),
            live: masked_live,
        },
        PlanStep::all_live(skew.into_iter().rev().collect()),
    ];
    cfg
}

fn digest(out: &PlaneOutcome) -> Digest {
    let mut d = Digest::default();
    d.str(&format!("{:?}", out.digests));
    d
}

/// Per-step checks. Requests are routed at arrival inside their era and
/// the final drain only completes requests, so a plane cut after `k`
/// eras routed exactly what a longer run routed in its first `k` eras:
/// the per-step counts are differences of one-, two- and three-era runs.
/// Returns the requests routed to a region its step quarantined.
fn check_steps(out: &mut Outcome, seed: u64, full: &PlaneOutcome) -> u64 {
    let cfg = plane_config(seed, ERAS);
    let mut prev = vec![0u64; REGIONS];
    let mut leaked = 0;
    for step in 0..ERAS as usize {
        let totals = if step + 1 == ERAS as usize {
            full.routed_totals()
        } else {
            run_routed_plane(&plane_config(seed, step as u64 + 1)).routed_totals()
        };
        let counts: Vec<u64> = totals.iter().zip(&prev).map(|(t, p)| t - p).collect();
        let plan = &cfg.plans[step % cfg.plans.len()];
        leaked += (0..REGIONS)
            .filter(|&j| !plan.live[j])
            .map(|j| counts[j])
            .sum::<u64>();
        if let Err(why) = routed_step(step, plan, &counts) {
            out.fail_run(why);
        }
        prev = totals;
    }
    leaked
}

/// End-to-end run: the same plane again and again until `--seconds`
/// have passed; every repetition must reproduce the first's digests.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cfg = plane_config(args.seed, ERAS);
    let mut setup = Best::new(1);
    let mut best = Best::new(1);
    let mut walls = Vec::new();
    let mut decisions = 0u64;
    let mut first: Option<PlaneOutcome> = None;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds as f64 || walls.len() < 3 {
        let cpu = process_cpu_ms();
        let t = Instant::now();
        let plane = run_routed_plane(&cfg);
        let total_s = t.elapsed().as_secs_f64();
        best.record(0, process_cpu_ms() - cpu);
        setup.record(0, (total_s - plane.wall_s) * 1e3);
        walls.push(plane.wall_s);
        decisions += plane.decisions();
        match &first {
            None => first = Some(plane),
            Some(f) if f.digests != plane.digests => {
                out.fail_run("a repeated plane diverged from the first".into());
            }
            Some(_) => {}
        }
    }
    let first = first.expect("at least one plane ran");
    let loop_s: f64 = walls.iter().sum();
    let n = walls.len();
    out.attempted = decisions;
    out.failed = check_steps(&mut out, args.seed, &first);
    let mut best_wall = Best::new(1);
    for w in &walls {
        best_wall.record(0, w * 1e3);
    }
    let rate = first.decisions() as f64 * 1e3 / best.total_ms();
    let timings = Timings::new(walls.iter().map(|w| w * 1e3).collect());
    out.line(format!(
        "planes {n} ({REGIONS} regions, {SHARDS} shards, {BROWSERS} browsers, {ERAS} eras); \
         all samples: plane {}",
        timings.describe()
    ));
    out.line(format!(
        "routed_requests_per_s {rate:.1} 1/s per CPU-second ({} requests over the cheapest of \
         {n} planes); wall time of the sharded run: {:.1} 1/s (best), {:.1} 1/s over all",
        first.decisions(),
        first.decisions() as f64 * 1e3 / best_wall.total_ms(),
        decisions as f64 / loop_s
    ));
    out.line(format!(
        "digest {} (ShardDigests; {} events, {} decisions per plane)",
        digest(&first).hex(),
        first.executed,
        first.decisions()
    ));
    out.line(format!(
        "setup_s {:.6} s (fastest plane set-up of {n})",
        setup.total_ms() / 1e3
    ));
    out.metric("setup_s", setup.total_ms() / 1e3, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("throughput_per_cpu_s", rate, "1/s");
    out
}

/// The plane's open-loop profile: browsers / think time arrivals per
/// second per shard, as a flash crowd.
fn profile() -> RateProfile {
    let rate = BROWSERS as f64 / THINK_TIME_MEAN_S / SHARDS as f64;
    RateProfile::Burst {
        base: rate * 0.7,
        peak: rate * 1.7,
        period: Duration::from_secs(7),
        burst_len: Duration::from_secs(2),
    }
}

/// Arrival times per era per shard, as the plane generates them.
fn arrivals(seed: u64) -> Vec<Vec<Vec<SimTime>>> {
    let mut rng = SimRng::new(seed);
    let mut gens = OpenLoopArrivals::pre_split(&profile(), SHARDS, &mut rng);
    (0..ERAS)
        .map(|e| {
            let (from, to) = (SimTime::from_secs(e * 10), SimTime::from_secs((e + 1) * 10));
            gens.iter_mut()
                .map(|g| {
                    let mut buf = Vec::new();
                    g.fill_window(from, to, &mut buf);
                    buf
                })
                .collect()
        })
        .collect()
}

/// `RequestRouter::route` alone: one router, the same plan schedule, the
/// same number of decisions per era.
fn route_alone(seed: u64, per_era: &[u64]) -> u64 {
    let cfg = plane_config(seed, ERAS);
    let mut router = RequestRouter::new(REGIONS, LatencyAwareness::default(), SimRng::new(seed));
    let mut sum = 0u64;
    for (e, &n) in per_era.iter().enumerate() {
        let step = &cfg.plans[e % cfg.plans.len()];
        router.install(&step.fractions, Some(&step.live));
        for _ in 0..n {
            sum += router.route() as u64;
        }
    }
    black_box(sum)
}

/// A request the chaos lens dropped, in a shard's list of fates.
const DROPPED: u64 = u64::MAX;

/// One shard of the plane as [`record_fates`] re-runs it.
struct ReplicaShard {
    arrivals: OpenLoopArrivals,
    chaos: ChaosLayer,
    router: RequestRouter,
    service: SimRng,
    service_mean_s: Vec<f64>,
    /// Per arrival, in execution order: its latency in µs, or [`DROPPED`].
    fates: Vec<u64>,
    completed: u64,
    chaos_delay_us: u64,
}

/// The plane re-run shard by shard on one thread, from the same public
/// pieces and seed streams as `run_routed_plane`, recording what became
/// of every request. Shards only meet at era barriers, where each gets
/// the same plan, so running them one after another changes nothing:
/// the returned digests must equal the plane's.
fn record_fates(cfg: &RoutedPlaneConfig) -> (Vec<ShardDigest>, Vec<Vec<u64>>) {
    let mut rng = SimRng::new(cfg.seed);
    let arrivals = OpenLoopArrivals::pre_split(&profile(), SHARDS, &mut rng);
    let plan = if cfg.chaos {
        FaultPlan::scripted(13, Vec::new()).with_message_chaos(0.02, Duration::from_millis(5))
    } else {
        FaultPlan::scripted(13, Vec::new())
    };
    let chaos = ChaosLayer::new(&plan).pre_split(SHARDS);
    let routers = RequestRouter::new(REGIONS, cfg.awareness, rng.split()).pre_split(SHARDS);
    let services: Vec<SimRng> = (0..SHARDS).map(|_| rng.split()).collect();
    let feedback = cfg.latency_feedback;
    let shards = arrivals.into_iter().zip(chaos).zip(routers).zip(services);
    let mut digests = Vec::with_capacity(SHARDS);
    let mut fates = Vec::with_capacity(SHARDS);
    for (index, (((arrivals, chaos), router), service)) in shards.enumerate() {
        let from = NodeId(index as u32);
        let mut sim = Simulator::new(ReplicaShard {
            arrivals,
            chaos,
            router,
            service,
            service_mean_s: cfg.service_mean_s.clone(),
            fates: Vec::new(),
            completed: 0,
            chaos_delay_us: 0,
        });
        let mut buf = Vec::new();
        for era in 0..cfg.eras {
            let step = &cfg.plans[era as usize % cfg.plans.len()];
            sim.world.router.install(&step.fractions, Some(&step.live));
            let end = SimTime::from_secs((era + 1) * cfg.era_s);
            sim.world
                .arrivals
                .fill_window(SimTime::from_secs(era * cfg.era_s), end, &mut buf);
            for &at in &buf {
                sim.schedule_at(at, move |s| {
                    let region = s.world.router.route();
                    let to = NodeId(1_000_000 + region as u32);
                    match s.world.chaos.message_fate(s.now(), from, to) {
                        MessageFate::Drop => s.world.fates.push(DROPPED),
                        MessageFate::Deliver { extra_delay } => {
                            s.world.chaos_delay_us += extra_delay.as_micros();
                            let mean = s.world.service_mean_s[region];
                            let svc =
                                Duration::from_secs_f64(s.world.service.exponential(1.0 / mean));
                            let latency = svc + extra_delay;
                            s.world.fates.push(latency.as_micros());
                            s.schedule_at(s.now() + latency, move |s| {
                                s.world.completed += 1;
                                if feedback {
                                    s.world.router.record_latency(region, latency);
                                }
                            });
                        }
                    }
                });
            }
            sim.run_until(end);
        }
        sim.run_until(SimTime::from_secs(cfg.eras * cfg.era_s) + Duration::from_secs(60));
        let w = sim.world;
        let accepted = w.fates.len() as u64;
        digests.push(ShardDigest {
            accepted,
            dropped: w.fates.iter().filter(|&&f| f == DROPPED).count() as u64,
            completed: w.completed,
            chaos_delay_us: w.chaos_delay_us,
            routed: w.router.stats().routed.clone(),
        });
        fates.push(w.fates);
    }
    (digests, fates)
}

/// `Simulator::schedule_at` / `run_until` alone on the plane's event
/// pattern: the same arrivals, and each delivered request completing
/// after the latency the plane gave it; eras run to their end, then a
/// 60 s drain. Returns the events executed, which must equal the plane's.
fn queue_alone(arrivals: &[Vec<Vec<SimTime>>], fates: Vec<Vec<u64>>) -> u64 {
    let mut sims: Vec<Simulator<(Vec<u64>, usize)>> =
        fates.into_iter().map(|f| Simulator::new((f, 0))).collect();
    for (e, era) in arrivals.iter().enumerate() {
        let end = SimTime::from_secs((e as u64 + 1) * 10);
        for (sim, times) in sims.iter_mut().zip(era) {
            for &at in times {
                sim.schedule_at(at, |s| {
                    let fate = s.world.0[s.world.1];
                    s.world.1 += 1;
                    if fate != DROPPED {
                        s.schedule_at(s.now() + Duration::from_micros(fate), |_| {});
                    }
                });
            }
            sim.run_until(end);
        }
    }
    let horizon = SimTime::from_secs(ERAS * 10 + 60);
    sims.iter_mut()
        .map(|sim| {
            sim.run_until(horizon);
            sim.executed()
        })
        .sum()
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// Traced run: the plane untraced, its layers re-driven alone, the plane
/// traced with the isolated layers laid inside it, then untraced again;
/// the overhead compares with the faster untraced plane.
pub fn run_traced(args: &Args, header: &str) -> Outcome {
    let mut out = Outcome::default();
    let cfg = plane_config(args.seed, ERAS);
    let (untraced, before_ms) = timed(|| run_routed_plane(&cfg));

    let (windows, arrivals_ms) = timed(|| arrivals(args.seed));
    let per_era: Vec<u64> = windows
        .iter()
        .map(|era| era.iter().map(|s| s.len() as u64).sum())
        .collect();
    let (_, route_ms) = timed(|| route_alone(args.seed, &per_era));
    let (replica, fates) = record_fates(&cfg);
    let (queue_events, queue_ms) = timed(|| queue_alone(&windows, fates));
    drop(windows);

    let tr = Tracer::new(true);
    let exec0 = acm_exec::global_stats();
    let t0 = tr.now_ns();
    let t = Instant::now();
    let (plane, span) = tr.span("routed.plane", None, 0, |id| (run_routed_plane(&cfg), id));
    let traced_s = t.elapsed().as_secs_f64();
    let t1 = tr.now_ns();
    let exec = ExecWindow {
        delta: acm_exec::global_stats().delta_since(&exec0),
        wall_s: traced_s,
    };
    let (_, after_ms) = timed(|| run_routed_plane(&cfg));
    let untraced_s = before_ms.min(after_ms) / 1e3;
    // Host-thread time of the sharded run: what the pool counts as busy,
    // or every participant for the whole run when it counts nothing.
    let busy_ms = if exec.busy_ms() > 0.0 {
        exec.busy_ms()
    } else {
        exec.delta.threads as f64 * plane.wall_s * 1e3
    };
    let to_wall = plane.wall_s * 1e3 / busy_ms;
    let ns = |ms: f64| (ms * 1e6) as u64;
    tr.derive(span, 0, "routed.setup", ns((traced_s - plane.wall_s) * 1e3));
    tr.derive(span, 0, "workload.arrivals", ns(arrivals_ms * to_wall));
    tr.derive(span, 0, "router.route", ns(route_ms * to_wall));
    tr.derive(span, 0, "sim.queue", ns(queue_ms * to_wall));

    let decisions = plane.decisions();
    out.attempted = decisions;
    if plane.digests != untraced.digests {
        out.fail_run("traced and untraced planes diverge".into());
    }
    if replica != plane.digests {
        out.fail_run("the single-thread replica of the plane diverges from it".into());
    }
    if queue_events != plane.executed {
        out.fail_run(format!(
            "isolated queue ran {queue_events} events, the plane {}",
            plane.executed
        ));
    }
    if per_era.iter().sum::<u64>() != decisions {
        out.fail_run(format!(
            "isolated arrivals {} != plane decisions {decisions}",
            per_era.iter().sum::<u64>()
        ));
    }
    let spans = tr.finish();
    let mut layers = Layers::default();
    layers.set_exec(&exec);
    layers.set("router.decisions", decisions as f64);
    layers.set("router.route_ms_isolated", route_ms);
    layers.set("sim.events", plane.executed as f64);
    layers.set("sim.arena_reuse", plane.arena_reuse as f64);
    layers.set("sim.queue_ms_isolated", queue_ms);
    layers.set("workload.arrivals_ms_isolated", arrivals_ms);
    layers.set(
        "routed.unattributed_ms",
        busy_ms - arrivals_ms - route_ms - queue_ms,
    );
    layers.set(
        "obs.trace_overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );
    out.line(format!(
        "plane: {decisions} decisions, {} events in {:.3} s sharded ({:.1} ms host-thread time); \
         isolated: arrivals {arrivals_ms:.1} ms, route {route_ms:.1} ms, queue {queue_ms:.1} ms \
         ({queue_events} events)",
        plane.executed, plane.wall_s, busy_ms
    ));
    out.line(format!(
        "untraced plane {untraced_s:.3} s, traced {traced_s:.3} s, digest {}",
        digest(&plane).hex()
    ));
    finish_trace(&mut out, "routed", header, &spans, (t0, t1), "", &exec);
    layers.push_into(&mut out);
    out
}
