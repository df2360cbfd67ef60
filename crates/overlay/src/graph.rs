//! The controller topology: an undirected graph weighted by link latency,
//! with dynamic node/link failure state.

use acm_sim::time::Duration;

/// Identifier of an overlay node (a VM controller).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vmc{}", self.0)
    }
}

/// Identifier of an undirected link, normalised so `a <= b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId {
    /// Lower endpoint.
    pub a: NodeId,
    /// Upper endpoint.
    pub b: NodeId,
}

impl LinkId {
    /// Creates a normalised link id. Panics on self-loops.
    pub fn new(x: NodeId, y: NodeId) -> Self {
        assert_ne!(x, y, "self-loop links are not allowed");
        if x <= y {
            LinkId { a: x, b: y }
        } else {
            LinkId { a: y, b: x }
        }
    }
}

/// A weighted undirected overlay topology with failure state.
///
/// Per-node state lives in a dense vector indexed by `NodeId.0` (the
/// node's *slot*), so node ids should be small consecutive integers —
/// controller indices, as everywhere in this workspace. Memory grows with
/// the largest id. Neighbour lists are kept in ascending id order, so
/// every iteration is deterministic: the control loop's behaviour must not
/// depend on insertion or hash ordering.
#[derive(Debug, Clone, Default)]
pub struct OverlayGraph {
    /// Per slot: the node, or `None` for an id that was never added.
    slots: Vec<Option<Node>>,
}

#[derive(Debug, Clone, Default)]
struct Node {
    failed: bool,
    /// Incident links, ascending by neighbour id.
    edges: Vec<Edge>,
}

#[derive(Debug, Clone, Copy)]
struct Edge {
    to: NodeId,
    latency: Duration,
    /// The link itself is marked failed (endpoint failures live on the
    /// nodes). Kept on both directions of the link.
    failed: bool,
}

impl OverlayGraph {
    /// Creates an empty topology.
    pub fn new() -> Self {
        OverlayGraph::default()
    }

    /// Adds a node (idempotent).
    pub fn add_node(&mut self, n: NodeId) {
        let i = n.0 as usize;
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i].get_or_insert_with(Node::default);
    }

    /// Adds (or updates) an undirected link with the given latency. Both
    /// endpoints are created if absent.
    pub fn add_link(&mut self, x: NodeId, y: NodeId, latency: Duration) {
        assert_ne!(x, y, "self-loop links are not allowed");
        for (from, to) in [(x, y), (y, x)] {
            self.add_node(from);
            let edges = &mut self.node_mut(from).expect("just added").edges;
            match edges.binary_search_by_key(&to, |e| e.to) {
                Ok(k) => edges[k].latency = latency,
                Err(k) => edges.insert(
                    k,
                    Edge {
                        to,
                        latency,
                        failed: false,
                    },
                ),
            }
        }
    }

    fn node(&self, n: NodeId) -> Option<&Node> {
        self.slots.get(n.0 as usize)?.as_ref()
    }

    fn node_mut(&mut self, n: NodeId) -> Option<&mut Node> {
        self.slots.get_mut(n.0 as usize)?.as_mut()
    }

    fn edge(&self, x: NodeId, y: NodeId) -> Option<&Edge> {
        let edges = &self.node(x)?.edges;
        edges
            .binary_search_by_key(&y, |e| e.to)
            .ok()
            .map(|k| &edges[k])
    }

    fn edge_mut(&mut self, x: NodeId, y: NodeId) -> Option<&mut Edge> {
        let edges = &mut self.node_mut(x)?.edges;
        let k = edges.binary_search_by_key(&y, |e| e.to).ok()?;
        Some(&mut edges[k])
    }

    /// Sets the failure flag on both directions of an existing link.
    fn set_link_failed(&mut self, x: NodeId, y: NodeId, failed: bool) {
        assert_ne!(x, y, "self-loop links are not allowed");
        for (from, to) in [(x, y), (y, x)] {
            if let Some(e) = self.edge_mut(from, to) {
                e.failed = failed;
            }
        }
    }

    /// All node ids in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Number of nodes (including failed ones).
    pub fn node_count(&self) -> usize {
        self.nodes().count()
    }

    /// One past the largest slot in use: dense per-node tables (such as
    /// shortest-path trees) indexed by `NodeId.0` need this many entries.
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// True if the node exists (failed or not).
    pub fn contains(&self, n: NodeId) -> bool {
        self.node(n).is_some()
    }

    /// Marks a node as failed (its links stop carrying traffic). No-op
    /// for an unknown node.
    pub fn fail_node(&mut self, n: NodeId) {
        if let Some(node) = self.node_mut(n) {
            node.failed = true;
        }
    }

    /// Clears a node failure.
    pub fn recover_node(&mut self, n: NodeId) {
        if let Some(node) = self.node_mut(n) {
            node.failed = false;
        }
    }

    /// Marks a link as failed. No-op when no such link exists.
    pub fn fail_link(&mut self, x: NodeId, y: NodeId) {
        self.set_link_failed(x, y, true);
    }

    /// Clears a link failure.
    pub fn recover_link(&mut self, x: NodeId, y: NodeId) {
        self.set_link_failed(x, y, false);
    }

    /// True when the node exists and is not failed.
    pub fn is_alive(&self, n: NodeId) -> bool {
        self.node(n).is_some_and(|node| !node.failed)
    }

    /// True when the link exists and neither it nor its endpoints are down.
    pub fn link_usable(&self, x: NodeId, y: NodeId) -> bool {
        self.is_alive(x) && self.is_alive(y) && self.edge(x, y).is_some_and(|e| !e.failed)
    }

    /// Usable neighbours of `n` with link latencies, in ascending id
    /// order: nothing for a failed or unknown `n`, and otherwise every
    /// link that is not failed and whose far end is alive. Allocates
    /// nothing, so shortest-path searches and elections can call it per
    /// expanded node.
    pub fn usable_neighbors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, Duration)> + '_ {
        let edges = match self.node(n) {
            Some(node) if !node.failed => &node.edges[..],
            _ => &[],
        };
        edges
            .iter()
            .filter(|e| !e.failed && self.is_alive(e.to))
            .map(|e| (e.to, e.latency))
    }

    /// All alive nodes.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.nodes().filter(|n| self.is_alive(*n)).collect()
    }

    /// Raw latency of the direct link `x`–`y`, regardless of failure
    /// state, or `None` when no such link exists.
    pub fn link_latency(&self, x: NodeId, y: NodeId) -> Option<Duration> {
        self.edge(x, y).map(|e| e.latency)
    }

    /// True when the link exists and is explicitly marked failed (endpoint
    /// failures do not count).
    pub fn link_failed(&self, x: NodeId, y: NodeId) -> bool {
        self.edge(x, y).is_some_and(|e| e.failed)
    }

    /// Builds a fully-connected topology from per-node pairwise latencies —
    /// the common shape for a handful of geographically-distributed VMCs.
    pub fn full_mesh(latencies: &[(NodeId, NodeId, Duration)]) -> Self {
        let mut g = OverlayGraph::new();
        for (a, b, d) in latencies {
            g.add_link(*a, *b, *d);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn link_id_is_normalised() {
        assert_eq!(LinkId::new(n(3), n(1)), LinkId::new(n(1), n(3)));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let _ = LinkId::new(n(1), n(1));
    }

    #[test]
    fn add_link_creates_nodes_and_adjacency() {
        let mut g = OverlayGraph::new();
        g.add_link(n(0), n(1), ms(20));
        assert_eq!(g.node_count(), 2);
        assert!(g.link_usable(n(0), n(1)));
        assert!(g.link_usable(n(1), n(0)));
        assert_eq!(
            g.usable_neighbors(n(0)).collect::<Vec<_>>(),
            vec![(n(1), ms(20))]
        );
    }

    #[test]
    fn node_failure_disables_its_links() {
        let mut g = OverlayGraph::new();
        g.add_link(n(0), n(1), ms(10));
        g.add_link(n(1), n(2), ms(10));
        g.fail_node(n(1));
        assert!(!g.is_alive(n(1)));
        assert!(!g.link_usable(n(0), n(1)));
        assert_eq!(g.usable_neighbors(n(0)).count(), 0);
        assert_eq!(g.alive_nodes(), vec![n(0), n(2)]);
        g.recover_node(n(1));
        assert!(g.link_usable(n(0), n(1)));
    }

    #[test]
    fn link_failure_and_recovery() {
        let mut g = OverlayGraph::new();
        g.add_link(n(0), n(1), ms(10));
        g.fail_link(n(1), n(0)); // order-insensitive
        assert!(!g.link_usable(n(0), n(1)));
        assert!(g.is_alive(n(0)) && g.is_alive(n(1)));
        g.recover_link(n(0), n(1));
        assert!(g.link_usable(n(0), n(1)));
    }

    #[test]
    fn usable_neighbors_skip_failed_links_and_dead_peers_in_id_order() {
        let mut g = OverlayGraph::new();
        for m in [3, 1, 4, 2] {
            g.add_link(n(0), n(m), ms(10 * u64::from(m)));
        }
        g.fail_link(n(4), n(0));
        g.fail_node(n(2));
        assert_eq!(
            g.usable_neighbors(n(0)).collect::<Vec<_>>(),
            vec![(n(1), ms(10)), (n(3), ms(30))]
        );
        assert!(g.link_failed(n(0), n(4)) && !g.link_failed(n(0), n(2)));
        g.add_link(n(0), n(4), ms(5)); // a latency update keeps the failure
        assert!(g.link_failed(n(0), n(4)));
        assert_eq!(g.link_latency(n(4), n(0)), Some(ms(5)));
    }

    #[test]
    fn double_fail_is_idempotent() {
        let mut g = OverlayGraph::new();
        g.add_link(n(0), n(1), ms(10));
        g.fail_node(n(0));
        g.fail_node(n(0));
        g.recover_node(n(0));
        assert!(g.is_alive(n(0)));
    }

    #[test]
    fn full_mesh_builder() {
        let g = OverlayGraph::full_mesh(&[
            (n(0), n(1), ms(25)),
            (n(0), n(2), ms(40)),
            (n(1), n(2), ms(15)),
        ]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.usable_neighbors(n(2)).count(), 2);
    }

    #[test]
    fn nonexistent_node_queries_are_safe() {
        let g = OverlayGraph::new();
        assert!(!g.is_alive(n(9)));
        assert_eq!(g.usable_neighbors(n(9)).count(), 0);
        assert!(!g.link_usable(n(9), n(8)));
    }
}
