//! Event-driven (per-request) region façade.
//!
//! [`crate::vmc::Vmc`] operates at the control-era grain the figures use;
//! [`RegionSim`] exposes the same pool management at the *request* grain
//! for discrete-event simulations: dispatch a request now, tick the
//! controller periodically, and the ACTIVE/STANDBY/rejuvenation choreography
//! is identical to the era-grain path (same [`VmPool`], same thresholds).

use crate::pool::{PoolCounts, VmPool};
use crate::vmc::{RegionConfig, RttfSource};
use acm_obs::{Counter, ObsHandle};
use acm_sim::rng::SimRng;
use acm_sim::time::SimTime;
use acm_vm::service::RequestOutcome;
use acm_vm::VmState;

/// Lifetime counters of an event-driven region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionSimStats {
    /// Requests served to completion — counted when the in-flight slot is
    /// released ([`RegionSim::finish`]), so `completed + dropped` stays
    /// consistent with the work actually in flight.
    pub completed: u64,
    /// Requests dropped (no ACTIVE VM, or the target VM failed on arrival).
    pub dropped: u64,
    /// Proactive rejuvenations triggered by the RTTF threshold.
    pub proactive: u64,
    /// Reactive rejuvenations after an un-predicted failure.
    pub reactive: u64,
}

/// Per-request driver over a PCAM-managed pool.
#[derive(Debug, Clone)]
pub struct RegionSim {
    config: RegionConfig,
    pool: VmPool,
    rttf_source: RttfSource,
    rr_next: usize,
    /// Estimated per-VM arrival rate used by the failure predicates and the
    /// RTTF predictions (req/s).
    lambda_hint: f64,
    stats: RegionSimStats,
    /// Requests begun but not yet finished (region grain, survives VM
    /// rejuvenation clearing the per-VM counters).
    inflight: u64,
    /// Drop instrumentation; inert until [`RegionSim::set_obs`].
    ctr_dropped: Counter,
}

impl RegionSim {
    /// Builds the region. `lambda_hint` is the expected per-VM arrival rate
    /// (update it via [`RegionSim::set_lambda_hint`] when the offered load
    /// changes).
    pub fn new(
        config: RegionConfig,
        rttf_source: RttfSource,
        lambda_hint: f64,
        rng: SimRng,
    ) -> Self {
        let pool = VmPool::new(
            config.flavor.clone(),
            config.anomaly.clone(),
            config.failure_spec.clone(),
            config.total_vms,
            config.target_active,
            rng,
        );
        RegionSim {
            config,
            pool,
            rttf_source,
            rr_next: 0,
            lambda_hint,
            stats: RegionSimStats::default(),
            inflight: 0,
            ctr_dropped: Counter::default(),
        }
    }

    /// Attaches observability to this region and its pool: the pool's
    /// dispatch/lifecycle counters plus `acm.pcam.region.dropped` for
    /// requests rejected at dispatch.
    pub fn set_obs(&mut self, obs: &ObsHandle) {
        self.pool.set_obs_scoped(obs, Some(&self.config.name));
        self.ctr_dropped = obs.counter("acm.pcam.region.dropped");
    }

    /// Pool census.
    pub fn counts(&self) -> PoolCounts {
        self.pool.counts()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> RegionSimStats {
        self.stats
    }

    /// The pool (read).
    pub fn pool(&self) -> &VmPool {
        &self.pool
    }

    /// Updates the per-VM arrival-rate estimate.
    pub fn set_lambda_hint(&mut self, lambda: f64) {
        assert!(lambda.is_finite() && lambda >= 0.0);
        self.lambda_hint = lambda;
    }

    /// Dispatches one request round-robin over the ACTIVE VMs without
    /// concurrency tracking (fire-and-forget grain). Returns the request
    /// outcome, or `None` if it had to be dropped.
    pub fn serve(&mut self, now: SimTime) -> Option<RequestOutcome> {
        self.begin(now).map(|(vm, out)| {
            self.finish(vm);
            out
        })
    }

    /// Dispatches one request with concurrency tracking: the serving VM's
    /// in-flight count stays raised (dilating concurrent sojourns via
    /// processor sharing) until the caller invokes [`RegionSim::finish`]
    /// with the returned VM id — typically from the scheduled completion
    /// event.
    pub fn begin(&mut self, now: SimTime) -> Option<(acm_vm::VmId, RequestOutcome)> {
        // Cached ACTIVE list: no allocation, no pool scan in steady state.
        let active = self.pool.active_ids_cached();
        if active.is_empty() {
            self.stats.dropped += 1;
            self.ctr_dropped.inc();
            return None;
        }
        let id = active[self.rr_next % active.len()];
        self.rr_next = self.rr_next.wrapping_add(1);
        let hint = self.lambda_hint;
        match self.pool.begin_request(id, now, hint) {
            Some(out) => {
                self.inflight += 1;
                Some((id, out))
            }
            None => {
                self.stats.dropped += 1;
                self.ctr_dropped.inc();
                None
            }
        }
    }

    /// Releases the in-flight slot taken by [`RegionSim::begin`] and counts
    /// the request as completed. Safe to call even if the VM has since
    /// failed or been rejuvenated; calls with no request in flight are
    /// ignored rather than inflating the counters.
    pub fn finish(&mut self, vm: acm_vm::VmId) {
        self.pool.end_request(vm);
        if self.inflight > 0 {
            self.inflight -= 1;
            self.stats.completed += 1;
        }
    }

    /// One controller tick: complete due rejuvenations, promote spares,
    /// recover failed VMs reactively, then proactively rejuvenate the worst
    /// ACTIVE VM below the RTTF threshold while spares allow.
    pub fn control_tick(&mut self, now: SimTime) {
        self.pool.poll_rejuvenations(now);
        self.pool.replenish_active(now);
        self.pool.demote_excess_active(now);

        // Reactive path.
        let failed: Vec<_> = self
            .pool
            .vms()
            .iter()
            .filter(|vm| matches!(vm.state(), VmState::Failed { .. }))
            .map(|vm| vm.id())
            .collect();
        for id in failed {
            self.pool
                .vm_mut(id)
                .expect("failed id")
                .start_rejuvenation(now, self.config.rejuvenation_time);
            self.stats.reactive += 1;
        }
        self.pool.replenish_active(now);

        // Proactive path: RTTF depends only on a VM's own state and the
        // per-VM rate hint, so each round scores the ACTIVE set once and
        // rejuvenates the below-threshold VMs in ascending-RTTF order while
        // spares last, instead of rescanning the pool after every single
        // rejuvenation. Standbys promoted during a round are scored by the
        // next round; the fixpoint is unchanged.
        let threshold = self.config.rttf_threshold.as_secs_f64();
        let hint = self.lambda_hint;
        let mut candidates: Vec<(f64, acm_vm::VmId)> = Vec::new();
        let mut rttfs: Vec<f64> = Vec::new();
        loop {
            let mut spares = self.pool.counts().standby;
            if spares == 0 {
                break;
            }
            candidates.clear();
            {
                let pairs: Vec<(&acm_vm::Vm, f64)> = self
                    .pool
                    .vms()
                    .iter()
                    .filter(|vm| vm.is_active())
                    .map(|vm| (vm, hint))
                    .collect();
                self.rttf_source.predict_many(&pairs, now, &mut rttfs);
                candidates.extend(
                    pairs
                        .iter()
                        .zip(&rttfs)
                        .filter(|(_, rttf)| **rttf < threshold)
                        .map(|((vm, _), rttf)| (*rttf, vm.id())),
                );
            }
            if candidates.is_empty() {
                break;
            }
            // Stable sort: equal RTTFs keep pool order, matching the old
            // first-on-tie rescan.
            candidates.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite RTTF"));
            for &(_, id) in &candidates {
                if spares == 0 {
                    break;
                }
                self.pool
                    .vm_mut(id)
                    .expect("candidate id")
                    .start_rejuvenation(now, self.config.rejuvenation_time);
                self.stats.proactive += 1;
                spares -= 1;
                self.pool.replenish_active(now);
            }
        }
        self.pool.publish_gauges();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acm_sim::time::Duration;
    use acm_vm::VmFlavor;

    fn mk_region(total: usize, active: usize, lambda_hint: f64) -> RegionSim {
        RegionSim::new(
            RegionConfig::new("evt", VmFlavor::m3_medium(), total, active),
            RttfSource::Oracle,
            lambda_hint,
            SimRng::new(5),
        )
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn serves_round_robin_across_active_vms() {
        let mut region = mk_region(4, 3, 5.0);
        for _ in 0..9 {
            assert!(region.serve(t(0)).is_some());
        }
        let stats = region.stats();
        assert_eq!(stats.completed, 9);
        assert_eq!(stats.dropped, 0);
        // Every active VM served exactly 3 requests.
        for vm in region.pool().vms().iter().filter(|v| v.is_active()) {
            assert_eq!(vm.total_completed(), 3, "{}", vm.id());
        }
    }

    #[test]
    fn drops_when_nothing_is_active() {
        let mut region = mk_region(2, 1, 5.0);
        let id = region.pool().active_ids()[0];
        region
            .pool
            .vm_mut(id)
            .unwrap()
            .start_rejuvenation(t(0), Duration::from_secs(60));
        assert!(region.serve(t(1)).is_none());
        assert_eq!(region.stats().dropped, 1);
        // The next control tick promotes the standby and service resumes.
        region.control_tick(t(2));
        assert!(region.serve(t(3)).is_some());
    }

    #[test]
    fn sustained_load_triggers_proactive_rejuvenation() {
        let mut region = mk_region(4, 3, 12.0);
        let mut now = t(0);
        // Serve many requests with periodic controller ticks.
        for step in 0..40_000u64 {
            let _ = region.serve(now);
            if step % 300 == 0 {
                now += Duration::from_secs(25);
                region.control_tick(now);
            }
        }
        let stats = region.stats();
        assert!(stats.proactive > 0, "no proactive rejuvenations: {stats:?}");
        assert_eq!(stats.reactive, 0, "oracle must preempt failures: {stats:?}");
        assert!(stats.completed > 35_000);
    }

    #[test]
    fn begin_finish_tracks_inflight() {
        let mut region = mk_region(3, 2, 5.0);
        let (vm_a, _) = region.begin(t(0)).expect("serves");
        let (vm_b, _) = region.begin(t(0)).expect("serves");
        assert_ne!(vm_a, vm_b, "round robin alternates");
        // Same VM again: second concurrent request on vm_a.
        let (vm_c, out_c) = region.begin(t(0)).expect("serves");
        assert_eq!(vm_c, vm_a);
        assert_eq!(region.pool().vm(vm_a).unwrap().inflight(), 2);
        // Concurrency dilates the sojourn.
        assert!(out_c.response_s > 0.0);
        region.finish(vm_a);
        region.finish(vm_a);
        region.finish(vm_b);
        assert_eq!(region.pool().vm(vm_a).unwrap().inflight(), 0);
        assert_eq!(region.pool().vm(vm_b).unwrap().inflight(), 0);
        // finish() after a rejuvenation is harmless.
        region
            .pool
            .vm_mut(vm_a)
            .unwrap()
            .start_rejuvenation(t(1), Duration::from_secs(60));
        region.finish(vm_a);
    }

    #[test]
    fn lambda_hint_validation() {
        let mut region = mk_region(2, 1, 1.0);
        region.set_lambda_hint(7.5);
        // Behavioural check: serving still works after the update.
        assert!(region.serve(t(0)).is_some());
    }

    #[test]
    fn era_grain_and_event_grain_agree_on_lifecycle_counts() {
        // Same pool shape, comparable load: both grains should rejuvenate
        // at the same order of magnitude over the same simulated horizon.
        let lambda_region = 36.0;
        let mut event = mk_region(6, 4, lambda_region / 4.0);
        let mut now = t(0);
        let horizon = 3600u64;
        let mut served = 0u64;
        // ~9 req/s/VM × 4 VMs over an hour, with 30 s ticks.
        let mut rng = SimRng::new(9);
        while now < t(horizon) {
            let n = rng.poisson(lambda_region * 30.0);
            for _ in 0..n {
                event.serve(now);
                served += 1;
            }
            now += Duration::from_secs(30);
            event.control_tick(now);
        }
        assert!(served > 100_000);
        let ev = event.stats();

        let mut era = crate::vmc::Vmc::new(
            RegionConfig::new("era", VmFlavor::m3_medium(), 6, 4),
            RttfSource::Oracle,
            SimRng::new(5),
        );
        let mut now = t(0);
        while now < t(horizon) {
            era.process_era(now, Duration::from_secs(30), lambda_region);
            now += Duration::from_secs(30);
        }
        let era_total = era.proactive_total() + era.reactive_total();
        let ev_total = ev.proactive + ev.reactive;
        assert!(ev_total > 0 && era_total > 0);
        let ratio = ev_total as f64 / era_total as f64;
        assert!(
            (0.4..2.5).contains(&ratio),
            "grains disagree: event {ev_total} vs era {era_total}"
        );
    }
}
