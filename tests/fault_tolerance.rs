//! Integration: overlay fault tolerance — partitions, rerouting, leader
//! election — exercised through the whole stack.

use acm::core::config::{ExperimentConfig, PredictorChoice};
use acm::core::framework::run_experiment;
use acm::core::policy::PolicyKind;
use acm::overlay::{election, FaultPlan, NodeId, OverlayGraph, Transport};
use acm::sim::{Duration, SimTime};

fn oracle(mut cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.predictor = PredictorChoice::Oracle;
    cfg
}

/// A fault plan of link flaps `(a, b, fail_s, recover_s)`.
fn flaps(links: &[(u32, u32, u64, u64)]) -> Option<FaultPlan> {
    let plan = links
        .iter()
        .fold(FaultPlan::scripted(0, vec![]), |plan, &(a, b, at, heal)| {
            plan.link_flap(
                NodeId(a),
                NodeId(b),
                SimTime::from_secs(at),
                SimTime::from_secs(heal),
            )
        });
    Some(plan)
}

/// Figure 3 (seed 2016), 60 eras, the WAN link cut from 600 s to 1200 s.
fn mid_run_partition() -> ExperimentConfig {
    let mut cfg = oracle(ExperimentConfig::two_region_fig3(
        PolicyKind::AvailableResources,
        2016,
    ));
    cfg.eras = 60;
    cfg.fault_plan = flaps(&[(0, 1, 600, 1200)]);
    cfg
}

/// Figure 3 (seed 2016), 40 eras, the WAN link cut for good at 300 s.
fn permanent_partition() -> ExperimentConfig {
    let mut cfg = oracle(ExperimentConfig::two_region_fig3(
        PolicyKind::AvailableResources,
        2016,
    ));
    cfg.eras = 40;
    cfg.fault_plan = flaps(&[(0, 1, 300, 1_000_000)]);
    cfg
}

/// Figure 4 (seed 2016), 80 eras, two consecutive single-link faults.
fn repeated_faults() -> ExperimentConfig {
    let mut cfg = oracle(ExperimentConfig::three_region_fig4(
        PolicyKind::AvailableResources,
        2016,
    ));
    cfg.eras = 80;
    cfg.fault_plan = flaps(&[(0, 2, 300, 600), (1, 2, 900, 1200)]);
    cfg
}

/// The `failover_drill` example: Figure 3 (seed 42), 60 eras, the WAN
/// link cut from 600 s to 900 s.
fn failover_drill() -> ExperimentConfig {
    let mut cfg = oracle(ExperimentConfig::two_region_fig3(
        PolicyKind::AvailableResources,
        42,
    ));
    cfg.eras = 60;
    cfg.fault_plan = flaps(&[(0, 1, 600, 900)]);
    cfg
}

/// FNV-1a 64-bit digest.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn link_flaps_reproduce_the_pinned_telemetry() {
    // Digests of the telemetry CSVs these runs produced when link faults
    // were a separate config list applied by the control loop itself.
    // Replaying the same faults as fault-plan link flaps must not move
    // a single byte.
    let pinned: [(fn() -> ExperimentConfig, u64); 4] = [
        (mid_run_partition, 0x02aa_d201_58b3_0414),
        (permanent_partition, 0x70ac_f0ec_1091_05be),
        (repeated_faults, 0x7d6a_5522_46a5_0dd3),
        (failover_drill, 0x50d3_8459_1f5a_1ef7),
    ];
    for (i, (cfg, digest)) in pinned.into_iter().enumerate() {
        let csv = run_experiment(&cfg()).to_csv();
        assert_eq!(fnv1a64(csv.as_bytes()), digest, "pinned config {i}");
    }
}

#[test]
fn control_loop_survives_a_mid_run_partition() {
    let tel = run_experiment(&mid_run_partition());
    assert_eq!(tel.eras(), 60);
    // Clients keep being served throughout.
    assert!(tel.total_completed() > 50_000);
    // After recovery the policy regains control and RMTTFs converge again.
    assert!(
        tel.rmttf_spread(10) < 1.35,
        "spread {}",
        tel.rmttf_spread(10)
    );
    // Response time never explodes, even during the partition.
    let worst = tel.global_response().values().fold(0.0_f64, f64::max);
    assert!(worst < 1.5, "worst response {worst}");
}

#[test]
fn partition_freezes_fractions_for_the_cut_region() {
    // Permanent partition from era 10 on.
    let tel = run_experiment(&permanent_partition());
    // Fractions recorded after the cut stay frozen at the last agreed
    // value: the leader cannot install plans on the unreachable region.
    let f = tel.fraction(1);
    let frozen: Vec<f64> = f.points()[12..].iter().map(|p| p.value).collect();
    let first = frozen[0];
    assert!(
        frozen.iter().all(|v| (v - first).abs() < 1e-9),
        "fraction moved during partition: {frozen:?}"
    );
}

#[test]
fn repeated_faults_heal_repeatedly() {
    let tel = run_experiment(&repeated_faults());
    assert_eq!(tel.eras(), 80);
    // In the 3-region mesh a single link failure never partitions: the
    // overlay reroutes and the run converges as usual.
    assert!(
        tel.rmttf_spread(20) < 1.2,
        "spread {}",
        tel.rmttf_spread(20)
    );
}

#[test]
fn transport_reroutes_around_failed_link_end_to_end() {
    let mut t = Transport::new(OverlayGraph::full_mesh(&[
        (NodeId(0), NodeId(1), Duration::from_millis(25)),
        (NodeId(0), NodeId(2), Duration::from_millis(30)),
        (NodeId(1), NodeId(2), Duration::from_millis(12)),
    ]));
    assert_eq!(
        t.latency(NodeId(0), NodeId(2)),
        Some(Duration::from_millis(30))
    );
    t.fail_link(NodeId(0), NodeId(2));
    // Rerouted through Frankfurt: 25 + 12.
    assert_eq!(
        t.latency(NodeId(0), NodeId(2)),
        Some(Duration::from_millis(37))
    );
    t.recover_link(NodeId(0), NodeId(2));
    assert_eq!(
        t.latency(NodeId(0), NodeId(2)),
        Some(Duration::from_millis(30))
    );
}

#[test]
fn leader_election_recovers_from_cascading_failures() {
    let mut g = OverlayGraph::full_mesh(&[
        (NodeId(0), NodeId(1), Duration::from_millis(25)),
        (NodeId(0), NodeId(2), Duration::from_millis(30)),
        (NodeId(1), NodeId(2), Duration::from_millis(12)),
    ]);
    assert_eq!(election::elect(&g).leaders(), vec![NodeId(0)]);
    g.fail_node(NodeId(0));
    assert_eq!(election::elect(&g).leaders(), vec![NodeId(1)]);
    g.fail_node(NodeId(1));
    assert_eq!(election::elect(&g).leaders(), vec![NodeId(2)]);
    g.recover_node(NodeId(0));
    g.recover_node(NodeId(1));
    assert_eq!(election::elect(&g).leaders(), vec![NodeId(0)]);
}
