//! Flat-CSR adjacency for cache-conscious kernel iteration.
//!
//! [`Graph`](crate::Graph) stores one heap-allocated adjacency `Vec` per
//! node, and an overlay or a priced wrapper resolves liveness and weights
//! per entry, so a Dijkstra relaxation sweep hops between scattered
//! allocations and re-checks flags on every visit. A [`LiveLane`] packs a
//! view's *usable* adjacency once into one contiguous
//! `(neighbor, edge, weight)` array; the relaxation hot loop then walks
//! sequential triples with no per-entry checks.
//!
//! Two things are built on it. [`LaneView`] serves `neighbors` from a
//! lane packed over any view and hands every other query to that view:
//! the router packs each net's masked (and, in PathFinder, excluded and
//! tilted) view into a lane reused across nets, so every Dijkstra run of
//! the net's construction relaxes over it. [`CsrView`] is an immutable
//! snapshot of an [`OverlayBase`] graph: the *raw* adjacency (tombstones
//! included, insertion order — the [`OverlayBase`] surface) plus a lane.
//! It implements both [`GraphView`] (route directly against it) and
//! [`OverlayBase`] (bind a [`GraphOverlay`](crate::GraphOverlay) over it
//! when a worker needs the usual per-net mutations — pin masking,
//! congestion exclusion). Because the lane keeps the view's iteration
//! order and the raw entries and flags are copied verbatim, every routed
//! tree is bit-identical to iterating the source view directly.

use crate::overlay::OverlayBase;
use crate::view::GraphView;
use crate::{EdgeId, GraphError, NodeId, Weight};

/// A contiguous, immutable CSR snapshot of an [`OverlayBase`] graph.
///
/// # Example
///
/// ```
/// use route_graph::{csr::CsrView, Graph, GraphView, ShortestPaths, Weight};
///
/// # fn main() -> Result<(), route_graph::GraphError> {
/// let mut g = Graph::with_nodes(3);
/// let n: Vec<_> = g.node_ids().collect();
/// g.add_edge(n[0], n[1], Weight::from_units(2))?;
/// g.add_edge(n[1], n[2], Weight::from_units(3))?;
/// let csr = CsrView::build(&g);
/// let sp = ShortestPaths::run(&csr, n[0])?;
/// assert_eq!(sp.dist(n[2]), Some(Weight::from_units(5)));
/// assert_eq!(csr.epoch(), g.epoch());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CsrView {
    /// `adj[offsets[v]..offsets[v + 1]]` are `v`'s raw adjacency entries.
    offsets: Vec<usize>,
    /// Raw `(neighbor, edge)` pairs in base insertion order, tombstones
    /// included — the [`OverlayBase`] surface, which overlays re-filter
    /// against their own liveness deltas.
    adj: Vec<(NodeId, EdgeId)>,
    /// `v`'s *usable* `(neighbor, edge, weight)` triples, prefiltered at
    /// build time (the snapshot is immutable, so liveness cannot change
    /// underneath).
    live: LiveLane,
    node_alive: Vec<bool>,
    /// Per-edge own removal flag (endpoint liveness excluded).
    edge_alive: Vec<bool>,
    endpoints: Vec<(NodeId, NodeId)>,
    weights: Vec<Weight>,
    live_nodes: usize,
    live_edge_flags: usize,
    epoch: u64,
}

impl CsrView {
    /// Snapshots `base` into flat arrays. `O(nodes + edges)`; the
    /// pathfinder amortizes one build per iteration across every net it
    /// routes against the snapshot.
    pub fn build<B: OverlayBase>(base: &B) -> CsrView {
        let n = base.node_count();
        let m = base.edge_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adj = Vec::new();
        let mut node_alive = Vec::with_capacity(n);
        offsets.push(0);
        for i in 0..n {
            let v = NodeId::from_index(i);
            adj.extend_from_slice(base.base_adj(v));
            offsets.push(adj.len());
            node_alive.push(base.is_node_live(v));
        }
        let mut edge_alive = Vec::with_capacity(m);
        let mut endpoints = Vec::with_capacity(m);
        let mut weights = Vec::with_capacity(m);
        for i in 0..m {
            let e = EdgeId::from_index(i);
            edge_alive.push(base.base_edge_alive(e));
            endpoints.push(base.endpoints(e).expect("edge id below edge_count"));
            weights.push(base.weight(e).expect("edge id below edge_count"));
        }
        let mut live = LiveLane::new();
        live.pack(base);
        CsrView {
            offsets,
            adj,
            live,
            node_alive,
            edge_alive,
            endpoints,
            weights,
            live_nodes: base.live_node_count(),
            live_edge_flags: base.live_edge_count(),
            epoch: base.epoch(),
        }
    }

    /// The raw adjacency index range of `v` (empty for unknown nodes).
    fn adj_range(&self, v: NodeId) -> std::ops::Range<usize> {
        if v.index() < self.node_alive.len() {
            self.offsets[v.index()]..self.offsets[v.index() + 1]
        } else {
            0..0
        }
    }
}

impl GraphView for CsrView {
    fn node_count(&self) -> usize {
        self.node_alive.len()
    }

    fn edge_count(&self) -> usize {
        self.edge_alive.len()
    }

    fn live_node_count(&self) -> usize {
        self.live_nodes
    }

    fn live_edge_count(&self) -> usize {
        self.live_edge_flags
    }

    fn is_node_live(&self, v: NodeId) -> bool {
        self.node_alive.get(v.index()).copied().unwrap_or(false)
    }

    fn is_edge_usable(&self, e: EdgeId) -> bool {
        self.edge_alive.get(e.index()).is_some_and(|&alive| {
            let (a, b) = self.endpoints[e.index()];
            alive && self.node_alive[a.index()] && self.node_alive[b.index()]
        })
    }

    fn endpoints(&self, e: EdgeId) -> Result<(NodeId, NodeId), GraphError> {
        self.endpoints
            .get(e.index())
            .copied()
            .ok_or(GraphError::EdgeOutOfBounds(e))
    }

    fn weight(&self, e: EdgeId) -> Result<Weight, GraphError> {
        self.weights
            .get(e.index())
            .copied()
            .ok_or(GraphError::EdgeOutOfBounds(e))
    }

    fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId, Weight)> + '_ {
        self.live.neighbors(v)
    }

    fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_alive
            .iter()
            .enumerate()
            .filter(|(_, &alive)| alive)
            .map(|(i, _)| NodeId::from_index(i))
    }

    fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edge_alive.len())
            .map(EdgeId::from_index)
            .filter(|&e| self.is_edge_usable(e))
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl OverlayBase for CsrView {
    fn base_adj(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adj[self.adj_range(v)]
    }

    fn base_edge_alive(&self, e: EdgeId) -> bool {
        self.edge_alive.get(e.index()).copied().unwrap_or(false)
    }
}

/// A view's usable adjacency packed into one contiguous array: entries
/// `offsets[v]..offsets[v + 1]` are `v`'s `(neighbor, edge, weight)`
/// triples, in the view's own [`neighbors`](GraphView::neighbors) order.
///
/// Repacking reuses both buffers, so a lane that outlives many packs
/// (one per routed net) allocates only while it grows.
///
/// # Example
///
/// ```
/// use route_graph::{Graph, GraphView, LaneView, LiveLane, Weight};
///
/// # fn main() -> Result<(), route_graph::GraphError> {
/// let mut g = Graph::with_nodes(3);
/// let n: Vec<_> = g.node_ids().collect();
/// g.add_edge(n[0], n[1], Weight::from_units(2))?;
/// g.add_edge(n[1], n[2], Weight::from_units(3))?;
/// let mut lane = LiveLane::new();
/// lane.pack(&g);
/// let view = LaneView::new(&g, &lane);
/// assert_eq!(view.neighbors(n[1]).count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct LiveLane {
    offsets: Vec<u32>,
    entries: Vec<(NodeId, EdgeId, Weight)>,
}

impl LiveLane {
    /// An empty lane; buffers grow on the first [`pack`](Self::pack).
    #[must_use]
    pub fn new() -> LiveLane {
        LiveLane::default()
    }

    /// Replaces the lane's contents with `g`'s usable adjacency.
    /// `O(nodes + edges)`.
    ///
    /// # Panics
    ///
    /// Panics if `g` has `u32::MAX` or more adjacency entries.
    pub fn pack<G: GraphView>(&mut self, g: &G) {
        self.offsets.clear();
        self.entries.clear();
        self.offsets.push(0);
        for i in 0..g.node_count() {
            let v = NodeId::from_index(i);
            if g.is_node_live(v) {
                self.entries.extend(g.neighbors(v));
            }
            let end = u32::try_from(self.entries.len()).expect("adjacency fits u32 offsets");
            self.offsets.push(end);
        }
    }

    /// `v`'s packed triples (none for nodes beyond the packed range).
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId, Weight)> + '_ {
        let range = match (self.offsets.get(v.index()), self.offsets.get(v.index() + 1)) {
            (Some(&start), Some(&end)) => start as usize..end as usize,
            _ => 0..0,
        };
        self.entries[range].iter().copied()
    }
}

/// A view that serves [`neighbors`](GraphView::neighbors) from a
/// [`LiveLane`] and hands every other query to the view it wraps.
///
/// The lane must have been packed from `inner` in its current state;
/// then the two views are indistinguishable, and every shortest-path
/// run over this one relaxes contiguous triples instead of re-resolving
/// `inner`'s liveness, overlay deltas and weight wrappers per edge.
#[derive(Debug)]
pub struct LaneView<'a, G> {
    inner: &'a G,
    lane: &'a LiveLane,
}

impl<'a, G: GraphView> LaneView<'a, G> {
    /// Wraps `inner`, whose adjacency `lane` holds.
    #[must_use]
    pub fn new(inner: &'a G, lane: &'a LiveLane) -> LaneView<'a, G> {
        LaneView { inner, lane }
    }
}

impl<G: GraphView> GraphView for LaneView<'_, G> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn edge_count(&self) -> usize {
        self.inner.edge_count()
    }

    fn live_node_count(&self) -> usize {
        self.inner.live_node_count()
    }

    fn live_edge_count(&self) -> usize {
        self.inner.live_edge_count()
    }

    fn is_node_live(&self, v: NodeId) -> bool {
        self.inner.is_node_live(v)
    }

    fn is_edge_usable(&self, e: EdgeId) -> bool {
        self.inner.is_edge_usable(e)
    }

    fn endpoints(&self, e: EdgeId) -> Result<(NodeId, NodeId), GraphError> {
        self.inner.endpoints(e)
    }

    fn weight(&self, e: EdgeId) -> Result<Weight, GraphError> {
        self.inner.weight(e)
    }

    fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId, Weight)> + '_ {
        self.lane.neighbors(v)
    }

    fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.inner.node_ids()
    }

    fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.inner.edge_ids()
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, GraphOverlay, GraphViewMut, OverlayArena, ShortestPaths};

    /// A small graph with removed nodes, removed edges, and parallel
    /// edges — every liveness case the snapshot must preserve.
    fn mutated_graph() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::with_nodes(6);
        let n: Vec<NodeId> = g.node_ids().collect();
        let w = Weight::from_units;
        g.add_edge(n[0], n[1], w(1)).unwrap();
        g.add_edge(n[1], n[2], w(2)).unwrap();
        let dup = g.add_edge(n[1], n[2], w(1)).unwrap();
        g.add_edge(n[2], n[3], w(3)).unwrap();
        let cut = g.add_edge(n[0], n[3], w(1)).unwrap();
        g.add_edge(n[3], n[4], w(1)).unwrap();
        g.add_edge(n[4], n[5], w(2)).unwrap();
        g.remove_edge(cut).unwrap();
        g.remove_node(n[5]).unwrap();
        let _ = dup;
        (g, n)
    }

    #[test]
    fn snapshot_matches_source_view_surface() {
        let (g, _) = mutated_graph();
        let csr = CsrView::build(&g);
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        assert_eq!(csr.live_node_count(), g.live_node_count());
        assert_eq!(csr.live_edge_count(), g.live_edge_count());
        assert_eq!(csr.epoch(), g.epoch());
        assert_eq!(
            csr.node_ids().collect::<Vec<_>>(),
            g.node_ids().collect::<Vec<_>>()
        );
        assert_eq!(
            GraphView::edge_ids(&csr).collect::<Vec<_>>(),
            g.edge_ids().collect::<Vec<_>>()
        );
        for i in 0..g.edge_count() {
            let e = EdgeId::from_index(i);
            assert_eq!(csr.is_edge_usable(e), g.is_edge_usable(e), "{e}");
            assert_eq!(GraphView::weight(&csr, e).ok(), g.weight(e).ok());
            assert_eq!(GraphView::endpoints(&csr, e).ok(), g.endpoints(e).ok());
        }
        for v in (0..g.node_count()).map(NodeId::from_index) {
            assert_eq!(
                csr.neighbors(v).collect::<Vec<_>>(),
                g.neighbors(v).collect::<Vec<_>>(),
                "adjacency of {v} must match in content and order"
            );
        }
    }

    #[test]
    fn shortest_paths_agree_with_source() {
        let (g, n) = mutated_graph();
        let csr = CsrView::build(&g);
        let on_graph = ShortestPaths::run(&g, n[0]).unwrap();
        let on_csr = ShortestPaths::run(&csr, n[0]).unwrap();
        for &v in &n {
            assert_eq!(on_csr.dist(v), on_graph.dist(v));
            assert_eq!(on_csr.parent(v), on_graph.parent(v));
        }
    }

    #[test]
    fn overlay_over_csr_matches_overlay_over_graph() {
        let (g, n) = mutated_graph();
        let csr = CsrView::build(&g);
        let mut arena_g = OverlayArena::new();
        let mut arena_c = OverlayArena::new();
        let mut over_g = GraphOverlay::bind(&g, &mut arena_g);
        let mut over_c = GraphOverlay::bind(&csr, &mut arena_c);
        // The router's per-net mutations: mask a pin, price an edge up.
        let e0 = g.edge_ids().next().unwrap();
        over_g.apply(n[2], e0);
        over_c.apply(n[2], e0);
        for v in (0..g.node_count()).map(NodeId::from_index) {
            assert_eq!(
                over_c.neighbors(v).collect::<Vec<_>>(),
                over_g.neighbors(v).collect::<Vec<_>>(),
                "overlaid adjacency of {v}"
            );
        }
        let sp_g = ShortestPaths::run(&over_g, n[0]).unwrap();
        let sp_c = ShortestPaths::run(&over_c, n[0]).unwrap();
        for &v in &n {
            assert_eq!(sp_c.dist(v), sp_g.dist(v));
            assert_eq!(sp_c.parent(v), sp_g.parent(v));
        }
    }

    /// Helper trait so the test above applies identical mutations to two
    /// differently-typed overlays.
    trait FnMutProbe {
        fn apply(&mut self, mask: NodeId, price: EdgeId);
    }

    impl<B: OverlayBase> FnMutProbe for GraphOverlay<'_, B> {
        fn apply(&mut self, mask: NodeId, price: EdgeId) {
            self.remove_node(mask).unwrap();
            self.add_weight(price, Weight::from_units(7)).unwrap();
        }
    }

    #[test]
    fn unknown_ids_are_rejected_not_panicked() {
        let (g, _) = mutated_graph();
        let csr = CsrView::build(&g);
        let far_node = NodeId::from_index(99);
        let far_edge = EdgeId::from_index(99);
        assert!(!csr.is_node_live(far_node));
        assert!(!csr.is_edge_usable(far_edge));
        assert!(!csr.base_edge_alive(far_edge));
        assert_eq!(csr.neighbors(far_node).count(), 0);
        assert!(csr.base_adj(far_node).is_empty());
        assert!(matches!(
            GraphView::weight(&csr, far_edge),
            Err(GraphError::EdgeOutOfBounds(_))
        ));
    }
}
