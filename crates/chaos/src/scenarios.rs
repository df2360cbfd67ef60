//! The named fault scenarios the report binaries replay.
//!
//! Three fixed-seed outages on the paper's deployments, each a plain
//! [`ExperimentConfig`] with a scripted [`FaultPlan`] and degradation on:
//!
//! * [`partition_heal`] — Figure 3, region 1 cut off at era
//!   [`PARTITION_ERA`] and healed at era [`HEAL_ERA`];
//! * [`leader_kill`] — Figure 4, the leader crashed for good at era
//!   [`KILL_ERA`];
//! * [`flap_storm`] — Figure 3, two single-era flaps of the 0–1 link plus
//!   10 % message drop and random extra delay, under the
//!   [`tolerant_heartbeat`] detector.
//!
//! `chaos_report` gates convergence over them and `trace_report` audits
//! their why-chains, so both measure the same runs.

use acm_core::config::{ExperimentConfig, PredictorChoice};
use acm_core::policy::PolicyKind;
use acm_core::DegradationConfig;
use acm_overlay::{FaultPlan, HeartbeatConfig, NodeId};
use acm_sim::time::{Duration, SimTime};

/// Era length of the paper deployments (seconds).
pub const ERA_S: u64 = 30;
/// Experiment seed shared by every scenario.
pub const SEED: u64 = 2025;
/// Era at which [`partition_heal`] cuts region 1 off.
pub const PARTITION_ERA: usize = 10;
/// Era at which [`partition_heal`] heals the cut.
pub const HEAL_ERA: usize = 20;
/// Era at which [`leader_kill`] crashes the leader.
pub const KILL_ERA: usize = 10;

fn at_era(era: usize) -> SimTime {
    SimTime::from_secs(era as u64 * ERA_S)
}

/// A detector that tolerates short outages: heartbeats once per era and
/// a timeout of five eras, past the staleness TTL, so report age (not
/// suspicion) is what trips a quarantine.
pub fn tolerant_heartbeat() -> HeartbeatConfig {
    HeartbeatConfig {
        period: Duration::from_secs(ERA_S),
        timeout: Duration::from_secs(5 * ERA_S),
    }
}

/// Figure 3 with oracle predictors under Policy 2, degradation on.
fn fig3(eras: usize, heartbeat: HeartbeatConfig) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, SEED);
    cfg.predictor = PredictorChoice::Oracle;
    cfg.eras = eras;
    cfg.degradation = DegradationConfig {
        heartbeat,
        ..DegradationConfig::enabled()
    };
    cfg
}

/// Partition + heal over 60 eras: region 1 loses every link from
/// [`PARTITION_ERA`] to [`HEAL_ERA`] (plan seed 1). `heartbeat` picks the
/// detector regime: the default suspects on the first missed era, the
/// [`tolerant_heartbeat`] leaves it to the staleness TTL.
pub fn partition_heal(heartbeat: HeartbeatConfig) -> ExperimentConfig {
    let mut cfg = fig3(60, heartbeat);
    cfg.fault_plan = Some(FaultPlan::scripted(1, Vec::new()).partition_window(
        vec![NodeId(1)],
        at_era(PARTITION_ERA),
        at_era(HEAL_ERA),
    ));
    cfg
}

/// Leader kill over 40 eras of the Figure-4 deployment: the initial
/// leader crashes at [`KILL_ERA`] and never recovers (plan seed 2).
pub fn leader_kill() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::three_region_fig4(PolicyKind::AvailableResources, SEED);
    cfg.predictor = PredictorChoice::Oracle;
    cfg.eras = 40;
    cfg.fault_plan = Some(FaultPlan::scripted(2, Vec::new()).kill_leader_at(at_era(KILL_ERA)));
    cfg.degradation = DegradationConfig::enabled();
    cfg
}

/// Flap storm over 60 eras: the 0–1 link flaps during eras 15 and 35,
/// and every control message has a 10 % drop chance and up to 25 ms of
/// extra delay (plan seed 7), under the [`tolerant_heartbeat`] detector.
pub fn flap_storm() -> ExperimentConfig {
    let mut cfg = fig3(60, tolerant_heartbeat());
    cfg.fault_plan = Some(
        FaultPlan::scripted(7, Vec::new())
            .link_flap(NodeId(0), NodeId(1), at_era(15), at_era(16))
            .link_flap(NodeId(0), NodeId(1), at_era(35), at_era(36))
            .with_message_chaos(0.10, Duration::from_millis(25)),
    );
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_validates() {
        for cfg in [
            partition_heal(HeartbeatConfig::default()),
            partition_heal(tolerant_heartbeat()),
            leader_kill(),
            flap_storm(),
        ] {
            cfg.validate().unwrap();
        }
    }
}
