//! Read views over routing graphs.
//!
//! [`GraphView`] abstracts the read surface shared by [`Graph`] and the
//! per-net [`LaneView`](crate::csr::LaneView): every shortest-path
//! routine and Steiner construction is generic over it, so the same code
//! routes against a plain graph or against the view the router packs
//! for each net (foreign pins hidden, PathFinder's discounts and tilt
//! applied) without mutating the graph underneath.
//!
//! The trait uses `impl Trait` in return position, so it is not object
//! safe; all users are monomorphized. [`Graph`] remains the default type
//! parameter everywhere (`SteinerHeuristic<G = Graph>`), which keeps
//! existing non-generic call sites compiling unchanged.

use crate::{EdgeId, Graph, GraphError, NodeId, Weight};

/// Read access to a routing graph, or to one net's view of it.
///
/// Semantics mirror [`Graph`]'s inherent methods exactly; see those for
/// detailed contracts. Implementations must agree with `Graph` on
/// iteration order: [`neighbors`](GraphView::neighbors) yields incident
/// edges in insertion order and [`node_ids`](GraphView::node_ids) /
/// [`edge_ids`](GraphView::edge_ids) ascend by index, so routing against
/// a view is bit-identical to routing against an equivalent `Graph`.
pub trait GraphView {
    /// Total number of nodes ever added (live or removed).
    fn node_count(&self) -> usize;

    /// Total number of edges ever added (live or removed).
    fn edge_count(&self) -> usize;

    /// Number of edges whose own removal flag is live.
    fn live_edge_count(&self) -> usize;

    /// Returns `true` if `v` exists and has not been removed.
    fn is_node_live(&self, v: NodeId) -> bool;

    /// Returns `true` if `e` exists, is not removed, and both endpoints
    /// are live.
    fn is_edge_usable(&self, e: EdgeId) -> bool;

    /// Returns the endpoints `(a, b)` of edge `e` in insertion order.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EdgeOutOfBounds`] for an unknown id.
    fn endpoints(&self, e: EdgeId) -> Result<(NodeId, NodeId), GraphError>;

    /// Returns the weight of edge `e` (including removed edges).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EdgeOutOfBounds`] for an unknown id.
    fn weight(&self, e: EdgeId) -> Result<Weight, GraphError>;

    /// Iterates over the usable incident edges of a live node `v`,
    /// yielding `(neighbor, edge, weight)` in edge-insertion order.
    fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId, Weight)> + '_;

    /// Iterates over the ids of all live nodes in ascending index order.
    fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_;

    /// Iterates over the ids of all usable edges in ascending index order.
    fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_;

    /// A monotone stamp that advances whenever the viewed graph state may
    /// have changed. Caches keyed on a view ([`DistanceOracle`]) compare
    /// epochs to detect staleness.
    ///
    /// [`DistanceOracle`]: crate::DistanceOracle
    fn epoch(&self) -> u64;

    /// Validates that `v` exists and is live.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] or [`GraphError::NodeRemoved`].
    fn require_live_node(&self, v: NodeId) -> Result<(), GraphError> {
        if v.index() >= self.node_count() {
            Err(GraphError::NodeOutOfBounds(v))
        } else if self.is_node_live(v) {
            Ok(())
        } else {
            Err(GraphError::NodeRemoved(v))
        }
    }
}

impl GraphView for Graph {
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    fn edge_count(&self) -> usize {
        Graph::edge_count(self)
    }

    fn live_edge_count(&self) -> usize {
        Graph::live_edge_count(self)
    }

    // This and `neighbors` are inlined across crates: a `LaneView`'s
    // first-read row packing is instantiated in the router's crate and
    // calls both once per packed row, where an out-of-line call is
    // measurably slower.
    #[inline]
    fn is_node_live(&self, v: NodeId) -> bool {
        Graph::is_node_live(self, v)
    }

    fn is_edge_usable(&self, e: EdgeId) -> bool {
        Graph::is_edge_usable(self, e)
    }

    fn endpoints(&self, e: EdgeId) -> Result<(NodeId, NodeId), GraphError> {
        Graph::endpoints(self, e)
    }

    fn weight(&self, e: EdgeId) -> Result<Weight, GraphError> {
        Graph::weight(self, e)
    }

    #[inline]
    fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId, Weight)> + '_ {
        Graph::neighbors(self, v)
    }

    fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        Graph::node_ids(self)
    }

    fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        Graph::edge_ids(self)
    }

    fn epoch(&self) -> u64 {
        Graph::epoch(self)
    }

    fn require_live_node(&self, v: NodeId) -> Result<(), GraphError> {
        Graph::require_live_node(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        let ids: Vec<NodeId> = g.node_ids().collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], Weight::UNIT).unwrap();
        }
        g
    }

    /// Exercise a `Graph` purely through the trait surface.
    fn describe<G: GraphView>(g: &G) -> (Vec<NodeId>, Vec<EdgeId>, Vec<Weight>) {
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let weights = edges.iter().map(|&e| g.weight(e).unwrap()).collect();
        (g.node_ids().collect(), edges, weights)
    }

    #[test]
    fn graph_serves_the_view_trait() {
        let g = line(4);
        let (nodes, edges, weights) = describe(&g);
        assert_eq!(nodes, Graph::node_ids(&g).collect::<Vec<_>>());
        assert_eq!(edges, Graph::edge_ids(&g).collect::<Vec<_>>());
        assert_eq!(weights, vec![Weight::UNIT; 3]);
        let v = nodes[0];
        assert_eq!(GraphView::neighbors(&g, v).count(), 1);
        assert!(GraphView::require_live_node(&g, v).is_ok());
    }
}
