//! Smallest-latency routing with failure-aware rerouting.
//!
//! Dijkstra over the *usable* subgraph (failed nodes and links excluded).
//! [`Router`] keeps one shortest-path tree per source. The first query
//! from `src` after an invalidation runs a single full Dijkstra from
//! `src` and keeps, for every node slot, the best latency and the
//! predecessor on the best path, in dense vectors indexed by `NodeId.0`.
//! Every later `(src, *)` query reads that tree: a latency is one
//! bounds-checked read, and a path is a walk up the predecessors.
//!
//! The trees are dropped wholesale whenever the failure state changes
//! (the owner calls [`Router::invalidate`]). A topology change therefore
//! costs at most one search per source that is queried again, instead of
//! one search per queried pair. On a 200-controller star, where the leader
//! prices every client→server forward each era, that is 200 searches
//! rather than up to 39,800, and the 200 trees take about 470 KB.
//!
//! Ties break deterministically: relaxation keeps the strict `<` and the
//! heap orders on `(latency, NodeId)`. A node's predecessor is final the
//! moment the node is popped, so a full search leaves exactly the route an
//! early-exit search to that destination would return.

use crate::graph::{NodeId, OverlayGraph};
use acm_sim::time::Duration;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A computed route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Node sequence, source first, destination last.
    pub path: Vec<NodeId>,
    /// Total end-to-end latency.
    pub latency: Duration,
}

impl Route {
    /// Number of hops (links) on the route.
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

/// Predecessor marker for a node the search never reached.
const UNREACHED: u32 = u32::MAX;

/// Shortest-path tree from one source, indexed by node slot.
#[derive(Debug, Clone)]
struct Tree {
    /// Best latency from the source; meaningful only where `prev` is set.
    dist: Vec<Duration>,
    /// Predecessor slot on the best path (the source is its own), or
    /// [`UNREACHED`].
    prev: Vec<u32>,
}

impl Tree {
    /// Full Dijkstra from the alive node `src`.
    fn build(g: &OverlayGraph, src: NodeId) -> Tree {
        let n = g.slot_count();
        let mut dist = vec![Duration::ZERO; n];
        let mut prev = vec![UNREACHED; n];
        prev[src.0 as usize] = src.0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((Duration::ZERO, src)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if dist[u.0 as usize] < d {
                continue; // stale entry
            }
            for (v, w) in g.usable_neighbors(u) {
                let nd = d + w;
                let i = v.0 as usize;
                if prev[i] == UNREACHED || nd < dist[i] {
                    dist[i] = nd;
                    prev[i] = u.0;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        Tree { dist, prev }
    }

    fn latency(&self, dst: NodeId) -> Option<Duration> {
        let i = dst.0 as usize;
        (*self.prev.get(i)? != UNREACHED).then(|| self.dist[i])
    }
}

/// Shortest-path trees, one per queried source.
#[derive(Debug, Clone, Default)]
pub struct Router {
    /// Indexed by source slot; `None` until the source is first queried
    /// after an invalidation.
    trees: Vec<Option<Tree>>,
}

impl Router {
    /// Creates an empty router.
    pub fn new() -> Self {
        Router::default()
    }

    /// The tree rooted at `src`, built on first use. `None` when `src`
    /// has no tree and is not alive.
    fn tree(&mut self, g: &OverlayGraph, src: NodeId) -> Option<&Tree> {
        let s = src.0 as usize;
        if self.trees.get(s).is_none_or(Option::is_none) {
            if !g.is_alive(src) {
                return None;
            }
            if self.trees.len() <= s {
                self.trees.resize_with(s + 1, || None);
            }
            self.trees[s] = Some(Tree::build(g, src));
        }
        self.trees[s].as_ref()
    }

    /// Latency of the best route, or `None` when the destination is
    /// unreachable (partition, failed endpoint).
    pub fn latency(&mut self, g: &OverlayGraph, src: NodeId, dst: NodeId) -> Option<Duration> {
        self.tree(g, src)?.latency(dst)
    }

    /// Walks the best route backwards, calling `hop(from, to)` once per
    /// link from the last link to the first, and returns its latency.
    /// Unreachable destinations return `None` without calling `hop`.
    pub(crate) fn walk(
        &mut self,
        g: &OverlayGraph,
        src: NodeId,
        dst: NodeId,
        mut hop: impl FnMut(NodeId, NodeId),
    ) -> Option<Duration> {
        let tree = self.tree(g, src)?;
        let latency = tree.latency(dst)?;
        let mut cur = dst.0;
        while cur != src.0 {
            let p = tree.prev[cur as usize];
            hop(NodeId(p), NodeId(cur));
            cur = p;
        }
        Some(latency)
    }

    /// Smallest-latency route between two alive nodes, or `None` when the
    /// destination is unreachable.
    pub fn route(&mut self, g: &OverlayGraph, src: NodeId, dst: NodeId) -> Option<Route> {
        let mut path = vec![dst];
        let latency = self.walk(g, src, dst, |from, _| path.push(from))?;
        path.reverse();
        Some(Route { path, latency })
    }

    /// Drops every tree. Call after any failure/recovery event.
    pub fn invalidate(&mut self) {
        self.trees.clear();
    }

    /// Number of sources with a built tree (diagnostics).
    pub fn cached_sources(&self) -> usize {
        self.trees.iter().filter(|t| t.is_some()).count()
    }
}

/// Smallest-latency route on the usable subgraph: a one-off [`Router`]
/// query.
///
/// ```
/// use acm_overlay::graph::{NodeId, OverlayGraph};
/// use acm_overlay::routing::dijkstra;
/// use acm_sim::Duration;
/// let mut g = OverlayGraph::new();
/// g.add_link(NodeId(0), NodeId(1), Duration::from_millis(10));
/// g.add_link(NodeId(1), NodeId(2), Duration::from_millis(10));
/// g.add_link(NodeId(0), NodeId(2), Duration::from_millis(50));
/// let route = dijkstra(&g, NodeId(0), NodeId(2)).unwrap();
/// assert_eq!(route.path, vec![NodeId(0), NodeId(1), NodeId(2)]);
/// ```
pub fn dijkstra(g: &OverlayGraph, src: NodeId, dst: NodeId) -> Option<Route> {
    Router::new().route(g, src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Triangle plus a pendant: 0-1 (10), 1-2 (10), 0-2 (50), 2-3 (5).
    fn diamond() -> OverlayGraph {
        let mut g = OverlayGraph::new();
        g.add_link(n(0), n(1), ms(10));
        g.add_link(n(1), n(2), ms(10));
        g.add_link(n(0), n(2), ms(50));
        g.add_link(n(2), n(3), ms(5));
        g
    }

    #[test]
    fn picks_the_smallest_latency_path() {
        let g = diamond();
        let r = dijkstra(&g, n(0), n(2)).unwrap();
        assert_eq!(r.path, vec![n(0), n(1), n(2)]);
        assert_eq!(r.latency, ms(20));
        assert_eq!(r.hops(), 2);
    }

    #[test]
    fn reroutes_around_a_failed_link() {
        let mut g = diamond();
        g.fail_link(n(0), n(1));
        let r = dijkstra(&g, n(0), n(2)).unwrap();
        assert_eq!(r.path, vec![n(0), n(2)]);
        assert_eq!(r.latency, ms(50));
    }

    #[test]
    fn reroutes_around_a_failed_node() {
        let mut g = diamond();
        g.fail_node(n(1));
        let r = dijkstra(&g, n(0), n(3)).unwrap();
        assert_eq!(r.path, vec![n(0), n(2), n(3)]);
        assert_eq!(r.latency, ms(55));
    }

    #[test]
    fn partition_is_unreachable() {
        let mut g = diamond();
        g.fail_node(n(1));
        g.fail_link(n(0), n(2));
        assert!(dijkstra(&g, n(0), n(3)).is_none());
        // But the other side of the partition still routes.
        assert!(dijkstra(&g, n(2), n(3)).is_some());
    }

    #[test]
    fn self_route_is_zero() {
        let g = diamond();
        let r = dijkstra(&g, n(2), n(2)).unwrap();
        assert_eq!(r.latency, Duration::ZERO);
        assert_eq!(r.hops(), 0);
    }

    #[test]
    fn dead_endpoints_yield_none() {
        let mut g = diamond();
        g.fail_node(n(0));
        assert!(dijkstra(&g, n(0), n(1)).is_none());
        assert!(dijkstra(&g, n(1), n(0)).is_none());
        assert!(dijkstra(&g, n(9), n(1)).is_none());
    }

    #[test]
    fn matches_bellman_ford_oracle_on_random_graphs() {
        use acm_sim::rng::SimRng;
        let mut rng = SimRng::new(99);
        for trial in 0..20 {
            // Random connected-ish graph on 8 nodes.
            let mut g = OverlayGraph::new();
            for i in 0..8 {
                g.add_node(n(i));
            }
            for i in 0..8u32 {
                for j in (i + 1)..8 {
                    if rng.bernoulli(0.45) {
                        g.add_link(n(i), n(j), ms(rng.index(100) as u64 + 1));
                    }
                }
            }
            // Bellman–Ford oracle from node 0.
            let nodes: Vec<NodeId> = g.nodes().collect();
            let mut dist: BTreeMap<NodeId, Option<Duration>> =
                nodes.iter().map(|&v| (v, None)).collect();
            dist.insert(n(0), Some(Duration::ZERO));
            for _ in 0..nodes.len() {
                for &u in &nodes {
                    let Some(du) = dist[&u] else { continue };
                    for (v, w) in g.usable_neighbors(u) {
                        let nd = du + w;
                        if dist[&v].is_none_or(|best| nd < best) {
                            dist.insert(v, Some(nd));
                        }
                    }
                }
            }
            for &v in &nodes {
                let got = dijkstra(&g, n(0), v).map(|r| r.latency);
                assert_eq!(got, dist[&v], "trial {trial} node {v}");
            }
        }
    }

    #[test]
    fn router_cache_and_invalidation() {
        let mut g = diamond();
        let mut router = Router::new();
        let r1 = router.route(&g, n(0), n(2)).unwrap();
        assert_eq!(r1.latency, ms(20));
        assert_eq!(router.cached_sources(), 1);
        // Every other destination from the same source reads that tree.
        assert_eq!(router.latency(&g, n(0), n(3)), Some(ms(25)));
        assert_eq!(router.cached_sources(), 1);
        // Failure without invalidation: stale cache by design...
        g.fail_link(n(0), n(1));
        assert_eq!(router.route(&g, n(0), n(2)).unwrap().latency, ms(20));
        // ...until the caller invalidates.
        router.invalidate();
        assert_eq!(router.cached_sources(), 0);
        assert_eq!(router.route(&g, n(0), n(2)).unwrap().latency, ms(50));
    }
}
