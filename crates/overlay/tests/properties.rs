//! Property-based tests for the overlay.

mod legacy;

use acm_overlay::election::elect;
use acm_overlay::graph::{NodeId, OverlayGraph};
use acm_overlay::routing::dijkstra;
use acm_overlay::{ChaosLayer, FaultPlan, LinkId, Transport};
use acm_sim::rng::SimRng;
use acm_sim::time::{Duration, SimTime};
use proptest::prelude::*;

/// Builds a random graph from a seed: `n` nodes, ring + random chords,
/// optional random failures.
fn random_graph(seed: u64, n: u32, fail_prob: f64) -> OverlayGraph {
    let mut rng = SimRng::new(seed);
    let mut g = OverlayGraph::new();
    for i in 0..n {
        g.add_node(NodeId(i));
    }
    for i in 0..n {
        g.add_link(
            NodeId(i),
            NodeId((i + 1) % n),
            Duration::from_millis(rng.index(50) as u64 + 1),
        );
    }
    for i in 0..n {
        for j in (i + 2)..n {
            if rng.bernoulli(0.3) {
                g.add_link(
                    NodeId(i),
                    NodeId(j),
                    Duration::from_millis(rng.index(80) as u64 + 1),
                );
            }
        }
    }
    for i in 0..n {
        if rng.bernoulli(fail_prob) {
            g.fail_node(NodeId(i));
        }
    }
    g
}

/// One failure-state change, as the chaos layer applies it.
#[derive(Debug, Clone, Copy)]
enum Op {
    FailLink(LinkId),
    RecoverLink(LinkId),
    FailNode(NodeId),
    RecoverNode(NodeId),
}

impl Op {
    fn apply(self, t: &mut Transport) {
        match self {
            Op::FailLink(l) => t.fail_link(l.a, l.b),
            Op::RecoverLink(l) => t.recover_link(l.a, l.b),
            Op::FailNode(n) => t.fail_node(n),
            Op::RecoverNode(n) => t.recover_node(n),
        }
    }
}

/// `steps` random fail/recover operations on the links and nodes of `g`,
/// biased towards failures so the graph partitions now and then.
fn random_ops(g: &OverlayGraph, seed: u64, steps: usize) -> Vec<Op> {
    let mut rng = SimRng::new(seed);
    let nodes: Vec<NodeId> = g.nodes().collect();
    let links: Vec<LinkId> = nodes
        .iter()
        .flat_map(|&a| {
            g.usable_neighbors(a)
                .filter(move |&(b, _)| a < b)
                .map(move |(b, _)| LinkId::new(a, b))
        })
        .collect();
    (0..steps)
        .map(|_| {
            let link = links[rng.index(links.len())];
            let node = nodes[rng.index(nodes.len())];
            match rng.index(5) {
                0 | 1 => Op::FailLink(link),
                2 => Op::RecoverLink(link),
                3 => Op::FailNode(node),
                _ => Op::RecoverNode(node),
            }
        })
        .collect()
}

/// Applies `ops` to a transport over `g` and, before the first and after
/// every operation, checks route (path and latency) and latency against
/// the per-pair reference on the current graph. The checked pairs are
/// those with an endpoint in `probes`, or every pair when `probes` is
/// empty.
fn assert_transport_matches_reference(
    g: OverlayGraph,
    ops: &[Op],
    probes: &[NodeId],
) -> Result<(), String> {
    let nodes: Vec<NodeId> = g.nodes().collect();
    let pairs: Vec<(NodeId, NodeId)> = nodes
        .iter()
        .flat_map(|&a| nodes.iter().map(move |&b| (a, b)))
        .filter(|(a, b)| probes.is_empty() || probes.contains(a) || probes.contains(b))
        .collect();
    let mut t = Transport::new(g);
    for step in 0..=ops.len() {
        if step > 0 {
            ops[step - 1].apply(&mut t);
        }
        for &(src, dst) in &pairs {
            let want = legacy::dijkstra(t.graph(), src, dst);
            let latency = t.latency(src, dst);
            let route = t.route(src, dst);
            if route != want || latency != want.as_ref().map(|r| r.latency) {
                return Err(format!(
                    "after {step} ops ({:?}): {src}->{dst} route {route:?} latency \
                     {latency:?}, reference {want:?}",
                    &ops[..step]
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn star_of_200_routes_like_the_reference_through_failures() {
    // The 200-controller star of the mega-world deployment, hub 0, with a
    // few leaf-to-leaf chords so failures have something to reroute to.
    // The per-pair reference costs ~0.5 ms a pair in a debug build, so
    // the star checks the 1,191 pairs that touch the hub or one of two
    // chord endpoints (the random graphs above check every pair).
    let mut rng = SimRng::new(200);
    let mut g = OverlayGraph::new();
    for leaf in 1..200u32 {
        g.add_link(
            NodeId(0),
            NodeId(leaf),
            Duration::from_millis(rng.index(80) as u64 + 1),
        );
    }
    for _ in 0..20 {
        let a = rng.index(199) as u32 + 1;
        let b = rng.index(199) as u32 + 1;
        if a != b {
            g.add_link(
                NodeId(a),
                NodeId(b),
                Duration::from_millis(rng.index(200) as u64 + 1),
            );
        }
    }
    let (a, b) = (NodeId(1), NodeId(2));
    g.add_link(a, b, Duration::from_millis(1));
    let mut ops = random_ops(&g, 7, 3);
    ops.push(Op::FailNode(NodeId(0))); // lose the hub: only chords remain
    ops.push(Op::RecoverNode(NodeId(0)));
    assert_transport_matches_reference(g, &ops, &[NodeId(0), a, b]).unwrap();
}

proptest! {
    #[test]
    fn transport_routes_like_the_reference_through_failures(
        seed in 0u64..2_000,
        n in 2u32..14,
        steps in 1usize..24,
    ) {
        let g = random_graph(seed, n, 0.0);
        let ops = random_ops(&g, seed ^ 0x5eed, steps);
        let checked = assert_transport_matches_reference(g, &ops, &[]);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    #[test]
    fn routes_only_traverse_usable_links(
        seed in 0u64..2_000,
        n in 3u32..12,
    ) {
        let g = random_graph(seed, n, 0.2);
        for src in 0..n {
            for dst in 0..n {
                if let Some(route) = dijkstra(&g, NodeId(src), NodeId(dst)) {
                    for hop in route.path.windows(2) {
                        prop_assert!(
                            g.link_usable(hop[0], hop[1]),
                            "route uses dead link {:?}",
                            hop
                        );
                    }
                    // Path endpoints match the query.
                    prop_assert_eq!(route.path.first(), Some(&NodeId(src)));
                    prop_assert_eq!(route.path.last(), Some(&NodeId(dst)));
                }
            }
        }
    }

    #[test]
    fn route_latency_equals_sum_of_hops(
        seed in 0u64..2_000,
        n in 3u32..10,
    ) {
        let g = random_graph(seed, n, 0.0);
        let route = dijkstra(&g, NodeId(0), NodeId(n - 1)).expect("connected ring");
        let mut total = Duration::ZERO;
        for hop in route.path.windows(2) {
            let hop_latency = g
                .usable_neighbors(hop[0])
                .find(|(m, _)| *m == hop[1])
                .map(|(_, d)| d)
                .expect("hop is a usable link");
            total += hop_latency;
        }
        prop_assert_eq!(total, route.latency);
    }

    #[test]
    fn triangle_inequality_for_routes(
        seed in 0u64..1_000,
        n in 3u32..10,
    ) {
        // Best route a->c is never worse than routing a->b->c.
        let g = random_graph(seed, n, 0.0);
        let (a, b, c) = (NodeId(0), NodeId(n / 2), NodeId(n - 1));
        let ac = dijkstra(&g, a, c).expect("connected").latency;
        let ab = dijkstra(&g, a, b).expect("connected").latency;
        let bc = dijkstra(&g, b, c).expect("connected").latency;
        prop_assert!(ac <= ab + bc);
    }

    #[test]
    fn partition_heal_round_trip_restores_all_pair_latencies(
        seed in 0u64..1_000,
        n in 3u32..10,
        k in 1u32..4,
    ) {
        // A chaos-layer partition of an arbitrary node group, later
        // healed, must leave the transport exactly where it started:
        // every pair's best-route latency is restored.
        let k = k.min(n - 1);
        let mut t = Transport::new(random_graph(seed, n, 0.0));
        let before: Vec<Option<Duration>> = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .map(|(a, b)| t.latency(NodeId(a), NodeId(b)))
            .collect();
        let group: Vec<NodeId> = (0..k).map(NodeId).collect();
        let plan = FaultPlan::scripted(seed, Vec::new()).partition_window(
            group,
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        );
        let mut chaos = ChaosLayer::new(&plan);
        chaos.apply_due(SimTime::from_secs(10), &mut t);
        // While partitioned, no route crosses the cut.
        for a in 0..k {
            for b in k..n {
                prop_assert_eq!(t.latency(NodeId(a), NodeId(b)), None);
            }
        }
        chaos.apply_due(SimTime::from_secs(20), &mut t);
        prop_assert_eq!(chaos.open_partitions(), 0);
        let after: Vec<Option<Duration>> = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .map(|(a, b)| t.latency(NodeId(a), NodeId(b)))
            .collect();
        prop_assert_eq!(before, after);
    }

    #[test]
    fn every_partition_elects_exactly_its_minimum(
        seed in 0u64..2_000,
        n in 2u32..12,
    ) {
        let g = random_graph(seed, n, 0.3);
        let outcome = elect(&g);
        // Every alive node has a leader that is alive, reachable and no
        // larger than itself... the minimum of its component.
        for node in g.alive_nodes() {
            let leader = outcome.leader(node).expect("alive node has a leader");
            prop_assert!(g.is_alive(leader));
            prop_assert!(leader <= node);
            // The leader is reachable from the node.
            prop_assert!(
                dijkstra(&g, node, leader).is_some(),
                "{node} cannot reach its leader {leader}"
            );
            // No alive node reachable from `node` is smaller than the leader.
            for other in g.alive_nodes() {
                if dijkstra(&g, node, other).is_some() {
                    prop_assert!(leader <= other, "{node}: {other} < leader {leader}");
                }
            }
        }
    }
}
