//! The per-pair routing the overlay used before shortest-path trees, kept
//! as a test-only reference model: an early-exit Dijkstra from `src` that
//! stops as soon as `dst` is popped, with `BTreeMap` distance and
//! predecessor tables. The production router (`acm_overlay::Router`)
//! runs each search to the end and keeps the whole tree per source; the
//! differential property tests in `properties.rs` pit the two against
//! each other on random graphs and random failure sequences.

use acm_overlay::graph::{NodeId, OverlayGraph};
use acm_overlay::Route;
use acm_sim::time::Duration;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Smallest-latency route from `src` to `dst` on the usable subgraph.
pub fn dijkstra(g: &OverlayGraph, src: NodeId, dst: NodeId) -> Option<Route> {
    if !g.is_alive(src) || !g.is_alive(dst) {
        return None;
    }
    if src == dst {
        return Some(Route {
            path: vec![src],
            latency: Duration::ZERO,
        });
    }
    let mut dist: BTreeMap<NodeId, Duration> = BTreeMap::new();
    let mut prev: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    // Min-heap on (latency, id): ties break on the smaller id.
    let mut heap: BinaryHeap<Reverse<(Duration, NodeId)>> = BinaryHeap::new();
    dist.insert(src, Duration::ZERO);
    heap.push(Reverse((Duration::ZERO, src)));

    while let Some(Reverse((d, u))) = heap.pop() {
        if dist.get(&u).is_some_and(|best| *best < d) {
            continue; // stale entry
        }
        if u == dst {
            break;
        }
        for (v, w) in g.usable_neighbors(u) {
            let nd = d + w;
            if dist.get(&v).is_none_or(|best| nd < *best) {
                dist.insert(v, nd);
                prev.insert(v, u);
                heap.push(Reverse((nd, v)));
            }
        }
    }

    let latency = *dist.get(&dst)?;
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = *prev.get(&cur).expect("reachable node has a predecessor");
        path.push(cur);
    }
    path.reverse();
    Some(Route { path, latency })
}
