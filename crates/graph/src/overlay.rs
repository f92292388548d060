//! Epoch-tagged copy-on-write overlays over a shared base [`Graph`].
//!
//! PathFinder's route phase routes many nets against one immutable priced
//! snapshot. Cloning the snapshot per worker per iteration costs
//! O(nodes + edges) each time; a [`GraphOverlay`] instead layers a
//! per-worker delta (weight changes, removed/restored nodes and edges)
//! over a borrowed base graph. Every delta slot is tagged with the
//! arena's current *generation*: a slot is live only while its tag equals
//! the generation, so [`GraphOverlay::reset`] — "forget everything this
//! worker scribbled" — is a single generation increment, O(1), no matter
//! how large the graph is.
//!
//! The backing [`OverlayArena`] owns the slot arrays and persists across
//! iterations: after the first [`bind`](GraphOverlay::bind)
//! sizes it, later binds cost O(1) plus the O(changed) writes the worker
//! actually performs.
//!
//! Observationally, a bound overlay behaves exactly like `base.clone()`
//! mutated the same way — including adjacency iteration order, which
//! PathFinder's thread-count bit-identity relies on. The property
//! tests in `crates/graph/tests/proptest_overlay.rs` assert this under
//! random interleavings.

use crate::view::{GraphView, GraphViewMut};
use crate::{EdgeId, Graph, GraphError, NodeId, Weight};

/// A graph an overlay can layer deltas over.
///
/// Beyond the [`GraphView`] read surface, the overlay needs two raw
/// accessors to preserve base adjacency order exactly: the unfiltered
/// adjacency list of a node (so tombstoned entries are filtered by the
/// *overlay's* liveness, never reordered) and an edge's own removal flag
/// (endpoint liveness excluded, since the overlay re-derives that from
/// its own node state).
///
/// Implemented by [`Graph`] and by [`CsrView`](crate::csr::CsrView) (the
/// flat-CSR arena the negotiated router snapshots its priced graph into
/// each iteration), so workers can bind the same overlay machinery over
/// either.
pub trait OverlayBase: GraphView {
    /// Raw adjacency entries of `v` in insertion order, including entries
    /// whose edge or neighbor is currently removed.
    fn base_adj(&self, v: NodeId) -> &[(NodeId, EdgeId)];

    /// The edge's own removal flag, ignoring endpoint liveness.
    fn base_edge_alive(&self, e: EdgeId) -> bool;
}

impl OverlayBase for Graph {
    fn base_adj(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        self.adj_entries(v)
    }

    fn base_edge_alive(&self, e: EdgeId) -> bool {
        self.edge_alive_flag(e)
    }
}

/// Reusable delta storage for [`GraphOverlay`].
///
/// One arena per worker; it holds epoch-tagged slots for node liveness,
/// edge liveness, and edge weights. All slots whose tag differs from the
/// current generation are *stale* and read through to the base graph.
#[derive(Debug, Clone, Default)]
pub struct OverlayArena {
    /// Current generation; slots are live iff tagged with this value.
    /// Starts at 0 and is bumped to ≥ 1 by the first bind, so zero-filled
    /// slot tags are always stale.
    generation: u64,
    node_epoch: Vec<u64>,
    node_alive: Vec<bool>,
    edge_epoch: Vec<u64>,
    edge_alive: Vec<bool>,
    weight_epoch: Vec<u64>,
    weights: Vec<Weight>,
}

impl OverlayArena {
    /// Creates an empty arena; the first bind sizes it to its base graph.
    #[must_use]
    pub fn new() -> OverlayArena {
        OverlayArena::default()
    }

    /// Grows the slot arrays to cover `nodes`/`edges` ids. Newly added
    /// slots carry tag 0, which is stale for every generation ≥ 1.
    fn ensure_capacity(&mut self, nodes: usize, edges: usize) {
        if self.node_epoch.len() < nodes {
            self.node_epoch.resize(nodes, 0);
            self.node_alive.resize(nodes, false);
        }
        if self.edge_epoch.len() < edges {
            self.edge_epoch.resize(edges, 0);
            self.edge_alive.resize(edges, false);
            self.weight_epoch.resize(edges, 0);
            self.weights.resize(edges, Weight::ZERO);
        }
    }
}

/// A copy-on-write view: a borrowed immutable base [`Graph`] plus this
/// worker's epoch-tagged delta.
///
/// Implements [`GraphView`] and [`GraphViewMut`], so the entire routing
/// stack (Dijkstra, distance graphs, every Steiner construction, the
/// router's net pipeline) runs against it unchanged. Restoring to the
/// pristine base after a net is [`reset`](GraphOverlay::reset) — O(1).
///
/// # Example
///
/// ```
/// use route_graph::{Graph, GraphOverlay, GraphView, GraphViewMut, OverlayArena, Weight};
///
/// # fn main() -> Result<(), route_graph::GraphError> {
/// let mut base = Graph::with_nodes(2);
/// let n: Vec<_> = base.node_ids().collect();
/// let e = base.add_edge(n[0], n[1], Weight::UNIT)?;
/// let mut arena = OverlayArena::new();
/// let mut view = GraphOverlay::bind(&base, &mut arena);
/// view.add_weight(e, Weight::UNIT)?;
/// assert_eq!(view.weight(e)?, Weight::from_units(2));
/// view.reset(); // O(1): back to the base state
/// assert_eq!(view.weight(e)?, Weight::UNIT);
/// assert_eq!(base.weight(e)?, Weight::UNIT); // base never changed
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GraphOverlay<'a, B: OverlayBase = Graph> {
    base: &'a B,
    arena: &'a mut OverlayArena,
    live_nodes: usize,
    live_edge_flags: usize,
    epoch: u64,
}

impl<'a, B: OverlayBase> GraphOverlay<'a, B> {
    /// Binds `arena` over `base`, discarding any deltas a previous bind
    /// left in the arena.
    ///
    /// The first bind against a graph of a given size allocates the slot
    /// arrays (O(nodes + edges), once per worker); every later bind is a
    /// generation bump plus two counter copies.
    pub fn bind(base: &'a B, arena: &'a mut OverlayArena) -> GraphOverlay<'a, B> {
        arena.ensure_capacity(base.node_count(), base.edge_count());
        arena.generation += 1;
        if route_trace::enabled() {
            route_trace::count(route_trace::Counter::OverlayBinds, 1);
        }
        GraphOverlay {
            live_nodes: base.live_node_count(),
            live_edge_flags: base.live_edge_count(),
            epoch: base.epoch(),
            base,
            arena,
        }
    }

    /// Discards every delta, restoring the view to the pristine base
    /// state in O(1) (a generation increment).
    pub fn reset(&mut self) {
        self.arena.generation += 1;
        self.live_nodes = self.base.live_node_count();
        self.live_edge_flags = self.base.live_edge_count();
        self.epoch += 1;
        if route_trace::enabled() {
            route_trace::count(route_trace::Counter::OverlayResets, 1);
        }
    }

    /// The borrowed base graph.
    #[must_use]
    pub fn base(&self) -> &B {
        self.base
    }

    fn node_alive(&self, v: NodeId) -> bool {
        let i = v.index();
        if i >= self.base.node_count() {
            return false;
        }
        if self.arena.node_epoch[i] == self.arena.generation {
            self.arena.node_alive[i]
        } else {
            self.base.is_node_live(v)
        }
    }

    /// The edge's own removal flag (endpoint liveness not considered).
    fn edge_alive(&self, e: EdgeId) -> bool {
        let i = e.index();
        if i >= self.base.edge_count() {
            return false;
        }
        if self.arena.edge_epoch[i] == self.arena.generation {
            self.arena.edge_alive[i]
        } else {
            self.base.base_edge_alive(e)
        }
    }

    fn weight_of(&self, e: EdgeId) -> Weight {
        let i = e.index();
        if self.arena.weight_epoch[i] == self.arena.generation {
            self.arena.weights[i]
        } else {
            // lint: allow(panic-hygiene): e comes from the base graph's own adjacency, so it is in range by construction
            self.base.weight(e).expect("in-range edge has a weight")
        }
    }

    fn set_node_alive(&mut self, v: NodeId, alive: bool) {
        let i = v.index();
        self.arena.node_epoch[i] = self.arena.generation;
        self.arena.node_alive[i] = alive;
        self.epoch += 1;
    }

    fn set_edge_alive(&mut self, e: EdgeId, alive: bool) {
        let i = e.index();
        self.arena.edge_epoch[i] = self.arena.generation;
        self.arena.edge_alive[i] = alive;
        self.epoch += 1;
    }

    fn check_edge(&self, e: EdgeId) -> Result<(), GraphError> {
        if e.index() < self.base.edge_count() {
            Ok(())
        } else {
            Err(GraphError::EdgeOutOfBounds(e))
        }
    }

    fn check_node(&self, v: NodeId) -> Result<(), GraphError> {
        if v.index() < self.base.node_count() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfBounds(v))
        }
    }
}

impl<B: OverlayBase> GraphView for GraphOverlay<'_, B> {
    fn node_count(&self) -> usize {
        self.base.node_count()
    }

    fn edge_count(&self) -> usize {
        self.base.edge_count()
    }

    fn live_node_count(&self) -> usize {
        self.live_nodes
    }

    fn live_edge_count(&self) -> usize {
        self.live_edge_flags
    }

    fn is_node_live(&self, v: NodeId) -> bool {
        self.node_alive(v)
    }

    fn is_edge_usable(&self, e: EdgeId) -> bool {
        if !self.edge_alive(e) {
            return false;
        }
        // lint: allow(panic-hygiene): e comes from the base graph's own adjacency, so it is in range by construction
        let (a, b) = self.base.endpoints(e).expect("in-range edge has endpoints");
        self.node_alive(a) && self.node_alive(b)
    }

    fn endpoints(&self, e: EdgeId) -> Result<(NodeId, NodeId), GraphError> {
        self.base.endpoints(e)
    }

    fn weight(&self, e: EdgeId) -> Result<Weight, GraphError> {
        self.check_edge(e)?;
        Ok(self.weight_of(e))
    }

    fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId, Weight)> + '_ {
        let live = self.node_alive(v);
        self.base
            .base_adj(v)
            .iter()
            .filter(move |&&(u, e)| live && self.edge_alive(e) && self.node_alive(u))
            .map(move |&(u, e)| (u, e, self.weight_of(e)))
    }

    fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.base.node_count())
            .map(NodeId::from_index)
            .filter(|&v| self.node_alive(v))
    }

    fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.base.edge_count())
            .map(EdgeId::from_index)
            .filter(|&e| self.is_edge_usable(e))
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl<B: OverlayBase> GraphViewMut for GraphOverlay<'_, B> {
    fn set_weight(&mut self, e: EdgeId, weight: Weight) -> Result<(), GraphError> {
        self.check_edge(e)?;
        let i = e.index();
        self.arena.weight_epoch[i] = self.arena.generation;
        self.arena.weights[i] = weight;
        self.epoch += 1;
        Ok(())
    }

    fn add_weight(&mut self, e: EdgeId, delta: Weight) -> Result<(), GraphError> {
        self.check_edge(e)?;
        let next = self.weight_of(e).saturating_add(delta);
        self.set_weight(e, next)
    }

    fn remove_edge(&mut self, e: EdgeId) -> Result<(), GraphError> {
        self.check_edge(e)?;
        if self.edge_alive(e) {
            self.set_edge_alive(e, false);
            self.live_edge_flags -= 1;
        }
        Ok(())
    }

    fn restore_edge(&mut self, e: EdgeId) -> Result<(), GraphError> {
        self.check_edge(e)?;
        if !self.edge_alive(e) {
            self.set_edge_alive(e, true);
            self.live_edge_flags += 1;
        }
        Ok(())
    }

    fn remove_node(&mut self, v: NodeId) -> Result<(), GraphError> {
        self.check_node(v)?;
        if self.node_alive(v) {
            self.set_node_alive(v, false);
            self.live_nodes -= 1;
        }
        Ok(())
    }

    fn restore_node(&mut self, v: NodeId) -> Result<(), GraphError> {
        self.check_node(v)?;
        if !self.node_alive(v) {
            self.set_node_alive(v, true);
            self.live_nodes += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Graph, [NodeId; 3], [EdgeId; 3]) {
        let mut g = Graph::with_nodes(3);
        let n: Vec<NodeId> = g.node_ids().collect();
        let e0 = g.add_edge(n[0], n[1], Weight::from_units(1)).unwrap();
        let e1 = g.add_edge(n[1], n[2], Weight::from_units(2)).unwrap();
        let e2 = g.add_edge(n[0], n[2], Weight::from_units(4)).unwrap();
        (g, [n[0], n[1], n[2]], [e0, e1, e2])
    }

    #[test]
    fn pristine_overlay_mirrors_the_base() {
        let (g, n, e) = triangle();
        let mut arena = OverlayArena::new();
        let view = GraphOverlay::bind(&g, &mut arena);
        assert_eq!(view.node_count(), 3);
        assert_eq!(view.live_node_count(), 3);
        assert_eq!(view.live_edge_count(), 3);
        assert_eq!(view.weight(e[1]).unwrap(), Weight::from_units(2));
        assert!(view.is_edge_usable(e[0]));
        let nbrs: Vec<NodeId> = view.neighbors(n[0]).map(|(u, _, _)| u).collect();
        let base_nbrs: Vec<NodeId> = g.neighbors(n[0]).map(|(u, _, _)| u).collect();
        assert_eq!(nbrs, base_nbrs, "adjacency order matches the base");
    }

    #[test]
    fn deltas_shadow_without_touching_the_base() {
        let (g, n, e) = triangle();
        let mut arena = OverlayArena::new();
        let mut view = GraphOverlay::bind(&g, &mut arena);
        view.set_weight(e[0], Weight::from_units(9)).unwrap();
        view.remove_edge(e[1]).unwrap();
        view.remove_node(n[2]).unwrap();
        assert_eq!(view.weight(e[0]).unwrap(), Weight::from_units(9));
        assert!(!view.is_edge_usable(e[1]));
        assert!(!view.is_node_live(n[2]));
        assert!(!view.is_edge_usable(e[2]), "dead endpoint masks the edge");
        assert_eq!(view.live_node_count(), 2);
        assert_eq!(view.live_edge_count(), 2);
        // The base saw none of it.
        assert_eq!(g.weight(e[0]).unwrap(), Weight::from_units(1));
        assert!(g.is_edge_usable(e[1]));
        assert!(g.is_node_live(n[2]));
    }

    #[test]
    fn reset_restores_in_o1() {
        let (g, n, e) = triangle();
        let mut arena = OverlayArena::new();
        let mut view = GraphOverlay::bind(&g, &mut arena);
        view.set_weight(e[0], Weight::MAX).unwrap();
        view.remove_node(n[1]).unwrap();
        let before = view.epoch();
        view.reset();
        assert!(view.epoch() > before);
        assert_eq!(view.weight(e[0]).unwrap(), Weight::from_units(1));
        assert!(view.is_node_live(n[1]));
        assert_eq!(view.live_node_count(), 3);
        assert_eq!(view.live_edge_count(), 3);
    }

    #[test]
    fn rebinding_a_dirty_arena_starts_pristine() {
        let (g, n, _) = triangle();
        let mut arena = OverlayArena::new();
        {
            let mut view = GraphOverlay::bind(&g, &mut arena);
            view.remove_node(n[0]).unwrap();
            assert_eq!(view.live_node_count(), 2);
        }
        let view = GraphOverlay::bind(&g, &mut arena);
        assert!(view.is_node_live(n[0]));
        assert_eq!(view.live_node_count(), 3);
    }

    #[test]
    fn overlay_tracks_base_removals_through_stale_slots() {
        let (mut g, n, e) = triangle();
        g.remove_edge(e[2]).unwrap();
        g.remove_node(n[1]).unwrap();
        let mut arena = OverlayArena::new();
        let mut view = GraphOverlay::bind(&g, &mut arena);
        assert!(!view.is_edge_usable(e[2]));
        assert!(!view.is_node_live(n[1]));
        assert_eq!(view.live_node_count(), 2);
        // Restoring through the overlay resurrects them in the view only.
        view.restore_node(n[1]).unwrap();
        view.restore_edge(e[2]).unwrap();
        assert!(view.is_node_live(n[1]));
        assert!(view.is_edge_usable(e[2]));
        assert!(!g.is_node_live(n[1]));
    }

    #[test]
    fn out_of_bounds_ids_error_like_the_base() {
        let (g, _, _) = triangle();
        let mut arena = OverlayArena::new();
        let mut view = GraphOverlay::bind(&g, &mut arena);
        let ghost_e = EdgeId::from_index(99);
        let ghost_n = NodeId::from_index(99);
        assert_eq!(
            view.weight(ghost_e),
            Err(GraphError::EdgeOutOfBounds(ghost_e))
        );
        assert_eq!(
            view.set_weight(ghost_e, Weight::UNIT),
            Err(GraphError::EdgeOutOfBounds(ghost_e))
        );
        assert_eq!(
            view.remove_node(ghost_n),
            Err(GraphError::NodeOutOfBounds(ghost_n))
        );
        assert!(!view.is_node_live(ghost_n));
        assert!(!view.is_edge_usable(ghost_e));
        assert_eq!(
            view.require_live_node(ghost_n),
            Err(GraphError::NodeOutOfBounds(ghost_n))
        );
    }

    #[test]
    fn arena_grows_to_the_largest_bound_base() {
        let small = Graph::with_nodes(2);
        let (big, _, e) = triangle();
        let mut arena = OverlayArena::new();
        {
            let view = GraphOverlay::bind(&small, &mut arena);
            assert_eq!(view.node_count(), 2);
        }
        let view = GraphOverlay::bind(&big, &mut arena);
        assert_eq!(view.node_count(), 3);
        assert!(view.is_edge_usable(e[2]));
    }
}
