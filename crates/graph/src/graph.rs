//! The weighted undirected routing graph.

use crate::{EdgeId, GraphError, NodeId, Weight};

#[derive(Debug, Clone)]
struct NodeRec {
    adj: Vec<(NodeId, EdgeId)>,
    alive: bool,
}

#[derive(Debug, Clone)]
struct EdgeRec {
    a: NodeId,
    b: NodeId,
    weight: Weight,
    alive: bool,
}

/// A weighted undirected graph with reversible node/edge removal and mutable
/// edge weights.
///
/// This is the routing-graph model of paper §2: nodes are FPGA routing
/// resources (wire segments and logic-block pins), edges are programmable
/// connections, and weights encode wirelength plus congestion. Two mutation
/// capabilities drive the router of §5:
///
/// * **weights change** as nets are routed (congestion feedback), and
/// * **resources disappear** once committed to a net, so that subsequent
///   nets stay electrically disjoint — modelled by [`remove_node`] /
///   [`remove_edge`], which are reversible masks ([`restore_node`] /
///   [`restore_edge`]) to support rip-up-and-retry passes.
///
/// Node and edge ids are dense and stable across removal; see [`NodeId`] and
/// [`EdgeId`].
///
/// # Example
///
/// ```
/// use route_graph::{Graph, Weight};
///
/// # fn main() -> Result<(), route_graph::GraphError> {
/// let mut g = Graph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let e = g.add_edge(a, b, Weight::UNIT)?;
/// assert_eq!(g.weight(e)?, Weight::UNIT);
/// g.remove_edge(e)?;
/// assert!(!g.is_edge_usable(e));
/// g.restore_edge(e)?;
/// assert!(g.is_edge_usable(e));
/// # Ok(())
/// # }
/// ```
///
/// [`remove_node`]: Graph::remove_node
/// [`remove_edge`]: Graph::remove_edge
/// [`restore_node`]: Graph::restore_node
/// [`restore_edge`]: Graph::restore_edge
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<NodeRec>,
    edges: Vec<EdgeRec>,
    live_nodes: usize,
    live_edge_flags: usize,
    /// Monotone mutation stamp; see [`Graph::epoch`].
    epoch: u64,
}

impl Graph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Creates a graph with `n` isolated live nodes.
    #[must_use]
    pub fn with_nodes(n: usize) -> Graph {
        let mut g = Graph::new();
        for _ in 0..n {
            g.add_node();
        }
        g
    }

    /// Adds a new live node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(NodeRec {
            adj: Vec::new(),
            alive: true,
        });
        self.live_nodes += 1;
        self.epoch += 1;
        id
    }

    /// A monotone stamp that advances on every effective mutation (node or
    /// edge addition, weight change, removal/restore transitions).
    ///
    /// Caches derived from this graph — [`DistanceOracle`](crate::DistanceOracle)
    /// in particular — compare epochs to detect that cached results have
    /// gone stale. The stamp tracks one graph instance over time; it does
    /// not order mutations across different graphs (a clone starts from
    /// the parent's current stamp and the two then advance independently).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Adds an undirected edge between `a` and `b` with the given weight.
    ///
    /// Parallel edges are permitted (FPGA switch blocks can offer several
    /// programmable connections between the same pair of segments).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if either endpoint does not
    /// exist, and [`GraphError::SelfLoop`] if `a == b`.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, weight: Weight) -> Result<EdgeId, GraphError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push(EdgeRec {
            a,
            b,
            weight,
            alive: true,
        });
        self.nodes[a.index()].adj.push((b, id));
        self.nodes[b.index()].adj.push((a, id));
        self.live_edge_flags += 1;
        self.epoch += 1;
        Ok(id)
    }

    /// Total number of nodes ever added (live or removed).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of edges ever added (live or removed).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of live (not removed) nodes.
    #[must_use]
    pub fn live_node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of edges whose own removal flag is live.
    ///
    /// An edge with a live flag may still be *unusable* if one of its
    /// endpoints has been removed; see [`is_edge_usable`](Graph::is_edge_usable).
    #[must_use]
    pub fn live_edge_count(&self) -> usize {
        self.live_edge_flags
    }

    /// Returns `true` if `v` exists and has not been removed.
    #[must_use]
    pub fn is_node_live(&self, v: NodeId) -> bool {
        self.nodes.get(v.index()).is_some_and(|n| n.alive)
    }

    /// Returns `true` if `e` exists, is not removed, and both of its
    /// endpoints are live — i.e. a traversal may use it.
    #[must_use]
    pub fn is_edge_usable(&self, e: EdgeId) -> bool {
        self.edges.get(e.index()).is_some_and(|rec| {
            rec.alive && self.nodes[rec.a.index()].alive && self.nodes[rec.b.index()].alive
        })
    }

    /// Returns the endpoints `(a, b)` of edge `e` in insertion order.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EdgeOutOfBounds`] for an unknown id. Endpoints
    /// of *removed* edges are still reported.
    pub fn endpoints(&self, e: EdgeId) -> Result<(NodeId, NodeId), GraphError> {
        let rec = self
            .edges
            .get(e.index())
            .ok_or(GraphError::EdgeOutOfBounds(e))?;
        Ok((rec.a, rec.b))
    }

    /// Returns the endpoint of `e` that is not `v`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EdgeOutOfBounds`] for an unknown edge, and
    /// [`GraphError::NodeOutOfBounds`] if `v` is not an endpoint of `e`.
    pub fn other_endpoint(&self, e: EdgeId, v: NodeId) -> Result<NodeId, GraphError> {
        let (a, b) = self.endpoints(e)?;
        if v == a {
            Ok(b)
        } else if v == b {
            Ok(a)
        } else {
            Err(GraphError::NodeOutOfBounds(v))
        }
    }

    /// Returns the weight of edge `e` (including removed edges).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EdgeOutOfBounds`] for an unknown id.
    pub fn weight(&self, e: EdgeId) -> Result<Weight, GraphError> {
        self.edges
            .get(e.index())
            .map(|rec| rec.weight)
            .ok_or(GraphError::EdgeOutOfBounds(e))
    }

    /// Sets the weight of edge `e`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EdgeOutOfBounds`] for an unknown id.
    pub fn set_weight(&mut self, e: EdgeId, weight: Weight) -> Result<(), GraphError> {
        let rec = self
            .edges
            .get_mut(e.index())
            .ok_or(GraphError::EdgeOutOfBounds(e))?;
        rec.weight = weight;
        self.epoch += 1;
        Ok(())
    }

    /// Adds `delta` to the weight of edge `e` (congestion feedback).
    /// Saturates at [`Weight::MAX`]: congestion feedback loops run for
    /// thousands of increments and must degrade to "infinitely expensive"
    /// rather than panic when an edge's weight tops out.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EdgeOutOfBounds`] for an unknown id.
    pub fn add_weight(&mut self, e: EdgeId, delta: Weight) -> Result<(), GraphError> {
        let rec = self
            .edges
            .get_mut(e.index())
            .ok_or(GraphError::EdgeOutOfBounds(e))?;
        rec.weight = rec.weight.saturating_add(delta);
        self.epoch += 1;
        Ok(())
    }

    /// Bulk-reprices every edge in one pass: `f` receives
    /// `(edge, a, b, current_weight)` and returns the new weight.
    ///
    /// This is the negotiated-congestion pricing hook: between routing
    /// iterations the single writer folds per-node present and history
    /// costs into every edge at once, without the per-edge id-validation
    /// and epoch-bump overhead of [`set_weight`](Graph::set_weight) in a
    /// loop. Removed edges are repriced too (their weight is observable
    /// again after [`restore_edge`](Graph::restore_edge)); the epoch
    /// advances exactly once.
    pub fn reprice_edges<F: FnMut(EdgeId, NodeId, NodeId, Weight) -> Weight>(&mut self, mut f: F) {
        for (i, rec) in self.edges.iter_mut().enumerate() {
            rec.weight = f(EdgeId::from_index(i), rec.a, rec.b, rec.weight);
        }
        self.epoch += 1;
    }

    /// Delta variant of [`reprice_edges`](Graph::reprice_edges): reprices
    /// only the edges incident to `nodes`, each exactly once (an edge
    /// with both endpoints listed is visited once), and returns how many
    /// edges were repriced.
    ///
    /// This is the incremental negotiated-congestion sweep: when the
    /// single writer knows which nodes' pressure (usage or history)
    /// changed between iterations, touching only their incident edges
    /// makes the cost update scale with *remaining congestion* instead
    /// of graph size. Edge prices that depend only on the two endpoint
    /// pressures plus an immutable base are exactly reproduced, because
    /// an edge whose endpoints both kept their pressure keeps its price.
    ///
    /// Removed edges incident to a listed node are repriced too, and
    /// unknown node ids are skipped — both matching the full sweep's
    /// tolerance. The visit order is ascending edge id regardless of the
    /// order (or duplication) of `nodes`, so the resulting weights and
    /// the epoch history are functions of the *set* alone. The epoch
    /// advances exactly once, as in the full sweep.
    pub fn reprice_incident_edges<F: FnMut(EdgeId, NodeId, NodeId, Weight) -> Weight>(
        &mut self,
        nodes: &[NodeId],
        mut f: F,
    ) -> usize {
        let mut touched: Vec<EdgeId> = Vec::new();
        for v in nodes {
            if let Some(rec) = self.nodes.get(v.index()) {
                touched.extend(rec.adj.iter().map(|&(_, e)| e));
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for &e in &touched {
            let rec = &mut self.edges[e.index()];
            rec.weight = f(e, rec.a, rec.b, rec.weight);
        }
        self.epoch += 1;
        touched.len()
    }

    /// Removes edge `e` (reversible). Removing an already-removed edge is a
    /// no-op.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EdgeOutOfBounds`] for an unknown id.
    pub fn remove_edge(&mut self, e: EdgeId) -> Result<(), GraphError> {
        let rec = self
            .edges
            .get_mut(e.index())
            .ok_or(GraphError::EdgeOutOfBounds(e))?;
        if rec.alive {
            rec.alive = false;
            self.live_edge_flags -= 1;
            self.epoch += 1;
        }
        Ok(())
    }

    /// Restores a previously removed edge. Restoring a live edge is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EdgeOutOfBounds`] for an unknown id.
    pub fn restore_edge(&mut self, e: EdgeId) -> Result<(), GraphError> {
        let rec = self
            .edges
            .get_mut(e.index())
            .ok_or(GraphError::EdgeOutOfBounds(e))?;
        if !rec.alive {
            rec.alive = true;
            self.live_edge_flags += 1;
            self.epoch += 1;
        }
        Ok(())
    }

    /// Removes node `v` (reversible). Edges incident to `v` become unusable
    /// while `v` is removed but keep their own removal flags untouched, so
    /// restoring `v` restores exactly the prior connectivity.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] for an unknown id.
    pub fn remove_node(&mut self, v: NodeId) -> Result<(), GraphError> {
        let rec = self
            .nodes
            .get_mut(v.index())
            .ok_or(GraphError::NodeOutOfBounds(v))?;
        if rec.alive {
            rec.alive = false;
            self.live_nodes -= 1;
            self.epoch += 1;
        }
        Ok(())
    }

    /// Restores a previously removed node. Restoring a live node is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] for an unknown id.
    pub fn restore_node(&mut self, v: NodeId) -> Result<(), GraphError> {
        let rec = self
            .nodes
            .get_mut(v.index())
            .ok_or(GraphError::NodeOutOfBounds(v))?;
        if !rec.alive {
            rec.alive = true;
            self.live_nodes += 1;
            self.epoch += 1;
        }
        Ok(())
    }

    /// Iterates over the usable incident edges of a live node `v`, yielding
    /// `(neighbor, edge, weight)`. Yields nothing if `v` is removed.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId, Weight)> + '_ {
        let (adj, live) = match self.nodes.get(v.index()) {
            Some(rec) => (rec.adj.as_slice(), rec.alive),
            None => (&[][..], false),
        };
        adj.iter()
            .filter(move |_| live)
            .filter_map(move |&(u, e)| {
                let rec = &self.edges[e.index()];
                (rec.alive && self.nodes[u.index()].alive).then_some((u, e, rec.weight))
            })
    }

    /// Degree of `v` counting only usable edges.
    #[must_use]
    pub fn live_degree(&self, v: NodeId) -> usize {
        self.neighbors(v).count()
    }

    /// Iterates over the ids of all live nodes.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, rec)| rec.alive)
            .map(|(i, _)| NodeId::from_index(i))
    }

    /// Iterates over the ids of all usable edges.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len())
            .map(EdgeId::from_index)
            .filter(|&e| self.is_edge_usable(e))
    }

    /// Sum of the weights of all usable edges.
    #[must_use]
    pub fn total_weight(&self) -> Weight {
        self.edge_ids()
            .map(|e| self.edges[e.index()].weight)
            .sum()
    }

    /// Mean weight over usable edges, in floating point, for reporting the
    /// paper's `w̄` congestion statistic. Returns `None` if no edge is usable.
    #[must_use]
    pub fn mean_edge_weight(&self) -> Option<f64> {
        let mut count = 0u64;
        let mut total = 0f64;
        for e in self.edge_ids() {
            total += self.edges[e.index()].weight.as_f64();
            count += 1;
        }
        (count > 0).then(|| total / count as f64)
    }

    fn check_node(&self, v: NodeId) -> Result<(), GraphError> {
        if v.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfBounds(v))
        }
    }

    /// Validates that `v` exists and is live.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] or [`GraphError::NodeRemoved`].
    pub fn require_live_node(&self, v: NodeId) -> Result<(), GraphError> {
        self.check_node(v)?;
        if self.nodes[v.index()].alive {
            Ok(())
        } else {
            Err(GraphError::NodeRemoved(v))
        }
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
    fn construction_counts() {
        let (g, _, _) = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.live_node_count(), 3);
        assert_eq!(g.live_edge_count(), 3);
    }

    #[test]
    fn reprice_edges_rewrites_every_edge_and_bumps_epoch_once() {
        let (mut g, n, e) = triangle();
        g.remove_edge(e[1]).unwrap();
        let before = g.epoch();
        let mut seen = Vec::new();
        g.reprice_edges(|id, a, b, w| {
            seen.push((id, a, b));
            w.saturating_add(Weight::UNIT)
        });
        assert_eq!(g.epoch(), before + 1);
        // Every edge is visited with its endpoints, removed ones included.
        assert_eq!(seen, vec![(e[0], n[0], n[1]), (e[1], n[1], n[2]), (e[2], n[0], n[2])]);
        assert_eq!(g.weight(e[0]).unwrap(), Weight::from_units(2));
        assert_eq!(g.weight(e[1]).unwrap(), Weight::from_units(3));
        assert_eq!(g.weight(e[2]).unwrap(), Weight::from_units(5));
        assert!(!g.is_edge_usable(e[1]));
    }

    #[test]
    fn reprice_incident_edges_visits_each_touched_edge_once() {
        let (mut g, n, e) = triangle();
        g.remove_edge(e[1]).unwrap();
        let before = g.epoch();
        let mut seen = Vec::new();
        // n[1] is incident to e0 and e1; n[2] to e1 and e2 — e1 is shared
        // and must be visited once. Duplicated and unknown ids are
        // tolerated.
        let count = g.reprice_incident_edges(
            &[n[2], n[1], n[1], NodeId::from_index(99)],
            |id, a, b, w| {
                seen.push((id, a, b));
                w.saturating_add(Weight::UNIT)
            },
        );
        assert_eq!(count, 3);
        assert_eq!(g.epoch(), before + 1);
        assert_eq!(
            seen,
            vec![(e[0], n[0], n[1]), (e[1], n[1], n[2]), (e[2], n[0], n[2])],
            "ascending edge-id order, independent of the node-list order"
        );
        assert_eq!(g.weight(e[1]).unwrap(), Weight::from_units(3), "removed edges reprice too");

        // A node list covering only n[0] must leave e1 untouched.
        let count = g.reprice_incident_edges(&[n[0]], |_, _, _, w| w.saturating_add(Weight::UNIT));
        assert_eq!(count, 2);
        assert_eq!(g.weight(e[0]).unwrap(), Weight::from_units(3));
        assert_eq!(g.weight(e[1]).unwrap(), Weight::from_units(3));
        assert_eq!(g.weight(e[2]).unwrap(), Weight::from_units(6));

        // Matching full-sweep semantics for the delta: repricing the
        // edges incident to *changed* nodes with a pressure-sum closure
        // reproduces exactly what the full sweep would compute.
        let mut full = g.clone();
        let pressure = |v: NodeId| Weight::from_milli(250 * (v.index() as u64 + 1));
        let base = Weight::UNIT;
        full.reprice_edges(|_, a, b, _| {
            base.saturating_add(pressure(a)).saturating_add(pressure(b))
        });
        g.reprice_incident_edges(&[n[0], n[1], n[2]], |_, a, b, _| {
            base.saturating_add(pressure(a)).saturating_add(pressure(b))
        });
        for &edge in &e {
            assert_eq!(g.weight(edge).unwrap(), full.weight(edge).unwrap());
        }
    }

    #[test]
    fn self_loops_rejected() {
        let mut g = Graph::with_nodes(1);
        let v = g.node_ids().next().unwrap();
        assert_eq!(g.add_edge(v, v, Weight::UNIT), Err(GraphError::SelfLoop(v)));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut g = Graph::with_nodes(1);
        let v = g.node_ids().next().unwrap();
        let ghost = NodeId::from_index(7);
        assert_eq!(
            g.add_edge(v, ghost, Weight::UNIT),
            Err(GraphError::NodeOutOfBounds(ghost))
        );
        assert_eq!(
            g.weight(EdgeId::from_index(3)),
            Err(GraphError::EdgeOutOfBounds(EdgeId::from_index(3)))
        );
    }

    #[test]
    fn neighbors_skip_removed_edges() {
        let (mut g, n, e) = triangle();
        g.remove_edge(e[0]).unwrap();
        let nbrs: Vec<NodeId> = g.neighbors(n[0]).map(|(u, _, _)| u).collect();
        assert_eq!(nbrs, vec![n[2]]);
        g.restore_edge(e[0]).unwrap();
        assert_eq!(g.neighbors(n[0]).count(), 2);
    }

    #[test]
    fn neighbors_skip_removed_nodes() {
        let (mut g, n, _) = triangle();
        g.remove_node(n[2]).unwrap();
        assert_eq!(g.neighbors(n[0]).count(), 1);
        assert_eq!(g.neighbors(n[2]).count(), 0);
        assert!(!g.is_edge_usable(EdgeId::from_index(1)));
        g.restore_node(n[2]).unwrap();
        assert_eq!(g.neighbors(n[0]).count(), 2);
        assert!(g.is_edge_usable(EdgeId::from_index(1)));
    }

    #[test]
    fn node_removal_is_exactly_reversible() {
        let (mut g, n, e) = triangle();
        // Remove an edge on its own first; restoring the node later must not
        // resurrect it.
        g.remove_edge(e[1]).unwrap();
        g.remove_node(n[1]).unwrap();
        g.restore_node(n[1]).unwrap();
        assert!(g.is_edge_usable(e[0]));
        assert!(!g.is_edge_usable(e[1]));
        assert!(g.is_edge_usable(e[2]));
    }

    #[test]
    fn weight_mutation() {
        let (mut g, _, e) = triangle();
        g.set_weight(e[0], Weight::from_units(9)).unwrap();
        assert_eq!(g.weight(e[0]).unwrap(), Weight::from_units(9));
        g.add_weight(e[0], Weight::UNIT).unwrap();
        assert_eq!(g.weight(e[0]).unwrap(), Weight::from_units(10));
    }

    #[test]
    fn total_and_mean_weight() {
        let (mut g, _, e) = triangle();
        assert_eq!(g.total_weight(), Weight::from_units(7));
        let mean = g.mean_edge_weight().unwrap();
        assert!((mean - 7.0 / 3.0).abs() < 1e-12);
        g.remove_edge(e[2]).unwrap();
        assert_eq!(g.total_weight(), Weight::from_units(3));
    }

    #[test]
    fn double_remove_and_restore_are_noops() {
        let (mut g, n, e) = triangle();
        g.remove_edge(e[0]).unwrap();
        g.remove_edge(e[0]).unwrap();
        assert_eq!(g.live_edge_count(), 2);
        g.restore_edge(e[0]).unwrap();
        g.restore_edge(e[0]).unwrap();
        assert_eq!(g.live_edge_count(), 3);
        g.remove_node(n[0]).unwrap();
        g.remove_node(n[0]).unwrap();
        assert_eq!(g.live_node_count(), 2);
    }

    #[test]
    fn other_endpoint_works() {
        let (g, n, e) = triangle();
        assert_eq!(g.other_endpoint(e[0], n[0]).unwrap(), n[1]);
        assert_eq!(g.other_endpoint(e[0], n[1]).unwrap(), n[0]);
        assert!(g.other_endpoint(e[0], n[2]).is_err());
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g = Graph::with_nodes(2);
        let n: Vec<NodeId> = g.node_ids().collect();
        let e1 = g.add_edge(n[0], n[1], Weight::from_units(1)).unwrap();
        let e2 = g.add_edge(n[0], n[1], Weight::from_units(2)).unwrap();
        assert_ne!(e1, e2);
        assert_eq!(g.neighbors(n[0]).count(), 2);
    }

    #[test]
    fn require_live_node_distinguishes_errors() {
        let (mut g, n, _) = triangle();
        assert!(g.require_live_node(n[0]).is_ok());
        g.remove_node(n[0]).unwrap();
        assert_eq!(
            g.require_live_node(n[0]),
            Err(GraphError::NodeRemoved(n[0]))
        );
        let ghost = NodeId::from_index(99);
        assert_eq!(
            g.require_live_node(ghost),
            Err(GraphError::NodeOutOfBounds(ghost))
        );
    }

    #[test]
    fn clone_is_independent() {
        let (g, _, e) = triangle();
        let mut g2 = g.clone();
        g2.remove_edge(e[0]).unwrap();
        assert!(g.is_edge_usable(e[0]));
        assert!(!g2.is_edge_usable(e[0]));
    }
}
