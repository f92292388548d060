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

    /// Number of live (not removed) nodes.
    fn live_node_count(&self) -> usize;

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

    /// Returns the endpoint of `e` that is not `v`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EdgeOutOfBounds`] for an unknown edge, and
    /// [`GraphError::NodeOutOfBounds`] if `v` is not an endpoint of `e`.
    fn other_endpoint(&self, e: EdgeId, v: NodeId) -> Result<NodeId, GraphError> {
        let (a, b) = self.endpoints(e)?;
        if v == a {
            Ok(b)
        } else if v == b {
            Ok(a)
        } else {
            Err(GraphError::NodeOutOfBounds(v))
        }
    }

    /// Degree of `v` counting only usable edges.
    fn live_degree(&self, v: NodeId) -> usize {
        self.neighbors(v).count()
    }

    /// Sum of the weights of all usable edges.
    fn total_weight(&self) -> Weight {
        self.edge_ids()
            .map(|e| self.weight(e).expect("usable edge has a weight"))
            .sum()
    }

    /// Mean weight over usable edges, or `None` if no edge is usable.
    fn mean_edge_weight(&self) -> Option<f64> {
        let mut count = 0u64;
        let mut total = 0f64;
        for e in self.edge_ids() {
            total += self.weight(e).expect("usable edge has a weight").as_f64();
            count += 1;
        }
        (count > 0).then(|| total / count as f64)
    }

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

    fn live_node_count(&self) -> usize {
        Graph::live_node_count(self)
    }

    fn live_edge_count(&self) -> usize {
        Graph::live_edge_count(self)
    }

    // This and `neighbors` are inlined across crates: the per-net pack
    // (`LaneView::pack`) is instantiated in the router's crate and calls
    // both once per node, where an out-of-line call is measurably slower.
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

    fn other_endpoint(&self, e: EdgeId, v: NodeId) -> Result<NodeId, GraphError> {
        Graph::other_endpoint(self, e, v)
    }

    fn live_degree(&self, v: NodeId) -> usize {
        Graph::live_degree(self, v)
    }

    fn total_weight(&self) -> Weight {
        Graph::total_weight(self)
    }

    fn mean_edge_weight(&self) -> Option<f64> {
        Graph::mean_edge_weight(self)
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
    fn describe<G: GraphView>(g: &G) -> (usize, usize, Weight) {
        (
            g.live_node_count(),
            g.live_edge_count(),
            g.total_weight(),
        )
    }

    #[test]
    fn graph_serves_the_view_trait() {
        let g = line(4);
        let (nodes, edges, total) = describe(&g);
        assert_eq!(nodes, 4);
        assert_eq!(edges, 3);
        assert_eq!(total, Weight::from_units(3));
        let v = GraphView::node_ids(&g).next().unwrap();
        assert_eq!(GraphView::live_degree(&g, v), 1);
        assert!(GraphView::require_live_node(&g, v).is_ok());
    }
}
