//! Minimum spanning trees: Prim over complete distance matrices and Kruskal
//! over edge subsets of any [`GraphView`].
//!
//! Both flavours appear in the KMB heuristic (paper Appendix): `MST(G')`
//! over the complete *distance graph* on the net's terminals, and
//! `MST(G'')` over the subgraph formed by expanding distance-graph edges
//! into concrete shortest paths.

use crate::dsu::UnionFind;
use crate::view::GraphView;
use crate::{EdgeId, NodeId, Weight};

/// A minimum spanning tree of a complete graph over `0..n`, as produced by
/// [`prim_complete`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompleteMst {
    /// Tree edges as index pairs `(i, j)` with `i < j < n`.
    pub edges: Vec<(usize, usize)>,
    /// `weights[e]` is the weight of `edges[e]`.
    pub weights: Vec<Weight>,
    /// Sum of the tree's edge weights.
    pub cost: Weight,
}

/// Computes a minimum spanning tree of the complete graph on `0..n` whose
/// edge weights are given by `dist(i, j)`.
///
/// `dist` may return `None` to indicate that `i` and `j` are disconnected in
/// the underlying graph (an absent distance-graph edge); if the complete
/// graph cannot be spanned, `None` is returned. `dist` is assumed symmetric
/// and is only consulted with `i != j`.
///
/// Runs in `O(n^2)`, which is optimal for dense inputs and is the per-call
/// cost the paper cites for the DOM subroutine.
///
/// # Example
///
/// ```
/// use route_graph::{mst::prim_complete, Weight};
///
/// let w = [[0u64, 1, 4], [1, 0, 2], [4, 2, 0]];
/// let t = prim_complete(3, |i, j| Some(Weight::from_units(w[i][j]))).unwrap();
/// assert_eq!(t.cost, Weight::from_units(3));
/// ```
#[must_use]
#[allow(clippy::needless_range_loop)] // index loops mirror the matrix formulation
pub fn prim_complete(
    n: usize,
    dist: impl Fn(usize, usize) -> Option<Weight>,
) -> Option<CompleteMst> {
    if n == 0 {
        return Some(CompleteMst {
            edges: Vec::new(),
            weights: Vec::new(),
            cost: Weight::ZERO,
        });
    }
    let mut in_tree = vec![false; n];
    let mut best: Vec<Option<(Weight, usize)>> = vec![None; n];
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    let mut weights = Vec::with_capacity(n.saturating_sub(1));
    let mut cost = Weight::ZERO;
    in_tree[0] = true;
    for j in 1..n {
        best[j] = dist(0, j).map(|w| (w, 0));
    }
    for _ in 1..n {
        let mut pick: Option<(Weight, usize)> = None;
        for (j, entry) in best.iter().enumerate() {
            if in_tree[j] {
                continue;
            }
            if let Some((w, _)) = entry {
                if pick.is_none_or(|(pw, _)| *w < pw) {
                    pick = Some((*w, j));
                }
            }
        }
        let (w, j) = pick?;
        let (_, parent) = best[j].expect("picked node has a best edge");
        in_tree[j] = true;
        edges.push((parent.min(j), parent.max(j)));
        weights.push(w);
        cost = cost.saturating_add(w);
        for (k, entry) in best.iter_mut().enumerate() {
            if in_tree[k] {
                continue;
            }
            if let Some(w) = dist(j, k) {
                if entry.is_none_or(|(ew, _)| w < ew) {
                    *entry = Some((w, j));
                }
            }
        }
    }
    Some(CompleteMst {
        edges,
        weights,
        cost,
    })
}

/// A minimum spanning forest of a subgraph, as produced by
/// [`kruskal_subgraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubgraphMst {
    /// Chosen forest edges.
    pub edges: Vec<EdgeId>,
    /// Sum of the forest's edge weights.
    pub cost: Weight,
    /// `true` if the forest spans all nodes touched by the input edge set in
    /// a single component.
    pub connected: bool,
}

/// Computes a minimum spanning forest of the subgraph of `g` induced by the
/// given edge set (Kruskal).
///
/// Duplicate edge ids are tolerated and used once. Unusable (removed) edges
/// are skipped. The node set of the subgraph is exactly the set of endpoints
/// of usable input edges. Work is proportional to the input, not to `g`.
///
/// # Example
///
/// ```
/// use route_graph::{mst::kruskal_subgraph, Graph, Weight};
///
/// # fn main() -> Result<(), route_graph::GraphError> {
/// let mut g = Graph::with_nodes(3);
/// let n: Vec<_> = g.node_ids().collect();
/// let e0 = g.add_edge(n[0], n[1], Weight::from_units(1))?;
/// let e1 = g.add_edge(n[1], n[2], Weight::from_units(2))?;
/// let e2 = g.add_edge(n[0], n[2], Weight::from_units(9))?;
/// let mst = kruskal_subgraph(&g, &[e0, e1, e2]);
/// assert_eq!(mst.edges, vec![e0, e1]);
/// assert_eq!(mst.cost, Weight::from_units(3));
/// assert!(mst.connected);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn kruskal_subgraph<G: GraphView>(g: &G, edges: &[EdgeId]) -> SubgraphMst {
    let mut weighted: Vec<(Weight, EdgeId)> = edges
        .iter()
        .filter(|&&e| g.is_edge_usable(e))
        .map(|&e| (g.weight(e).expect("usable edge has weight"), e))
        .collect();
    let mut forest = Kruskal::default();
    forest.run(g, &mut weighted);
    SubgraphMst {
        edges: forest.chosen().iter().map(|f| f.edge).collect(),
        cost: forest.cost(),
        connected: forest.is_connected(),
    }
}

/// One edge of a [`Kruskal`] forest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForestEdge {
    /// The edge's weight.
    pub weight: Weight,
    /// The edge.
    pub edge: EdgeId,
    /// Compact indices of its endpoints (see [`Kruskal::index_of`]).
    pub ends: (usize, usize),
}

/// Kruskal's minimum spanning forest over a weighted edge list, with
/// buffers that are reused from one [`run`](Kruskal::run) to the next.
///
/// Nodes get compact indices `0..node_count()` by sorting the input's
/// endpoints, so a run costs `O(m log m)` for `m` input edges whatever
/// the size of the graph.
#[derive(Debug, Clone, Default)]
pub struct Kruskal {
    /// Distinct endpoints of the last input, ascending; a node's compact
    /// index is its position here.
    nodes: Vec<NodeId>,
    /// Chosen edges, in the order Kruskal picked them.
    chosen: Vec<ForestEdge>,
    uf: UnionFind,
}

impl Kruskal {
    /// Computes the minimum spanning forest of `edges`, which it sorts
    /// and dedups in place. Ties between equal weights go to the lower
    /// edge id.
    ///
    /// # Panics
    ///
    /// Panics if an edge is not usable in `g`.
    pub fn run<G: GraphView>(&mut self, g: &G, edges: &mut Vec<(Weight, EdgeId)>) {
        edges.sort_unstable();
        edges.dedup();
        let endpoints = |e: EdgeId| g.endpoints(e).expect("usable edge has endpoints");
        self.nodes.clear();
        for &(_, e) in edges.iter() {
            let (a, b) = endpoints(e);
            self.nodes.extend([a, b]);
        }
        self.nodes.sort_unstable();
        self.nodes.dedup();
        self.uf.reset(self.nodes.len());
        self.chosen.clear();
        for &(weight, edge) in edges.iter() {
            let (a, b) = endpoints(edge);
            let ends = (self.compact(a), self.compact(b));
            if self.uf.union(ends.0, ends.1) {
                self.chosen.push(ForestEdge { weight, edge, ends });
            }
        }
    }

    fn compact(&self, v: NodeId) -> usize {
        self.nodes
            .binary_search(&v)
            .expect("every endpoint was indexed")
    }

    /// The forest's edges, in the order Kruskal picked them (ascending
    /// `(weight, edge)`).
    #[must_use]
    pub fn chosen(&self) -> &[ForestEdge] {
        &self.chosen
    }

    /// Number of nodes touched by the last input.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Compact index of `v`, if the last input touched it.
    #[must_use]
    pub fn index_of(&self, v: NodeId) -> Option<usize> {
        self.nodes.binary_search(&v).ok()
    }

    /// `true` if the forest is a single tree (or empty).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.uf.set_count() <= 1
    }

    /// Sum of the forest's edge weights, saturating at [`Weight::MAX`].
    #[must_use]
    pub fn cost(&self) -> Weight {
        self.chosen.iter().map(|f| f.weight).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, GraphError};

    #[test]
    fn prim_matches_known_mst() {
        // Complete K4 with weights forming a known MST of cost 6.
        let w = [
            [0u64, 1, 3, 4],
            [1, 0, 2, 5],
            [3, 2, 0, 3],
            [4, 5, 3, 0],
        ];
        let t = prim_complete(4, |i, j| Some(Weight::from_units(w[i][j]))).unwrap();
        assert_eq!(t.cost, Weight::from_units(6));
        assert_eq!(t.edges.len(), 3);
    }

    #[test]
    fn prim_handles_trivial_sizes() {
        let t0 = prim_complete(0, |_, _| None).unwrap();
        assert!(t0.edges.is_empty());
        let t1 = prim_complete(1, |_, _| None).unwrap();
        assert!(t1.edges.is_empty());
        assert_eq!(t1.cost, Weight::ZERO);
    }

    #[test]
    fn prim_detects_disconnection() {
        // Node 2 unreachable.
        let t = prim_complete(3, |i, j| {
            ((i != 2) && (j != 2)).then(|| Weight::from_units(1))
        });
        assert!(t.is_none());
    }

    #[test]
    fn prim_vs_kruskal_on_random_complete_graphs() {
        use crate::rng::Rng;
        let mut rng = crate::rng::SplitMix64::seed_from_u64(11);
        for _ in 0..10 {
            let n = rng.gen_range(2..9usize);
            let mut g = Graph::with_nodes(n);
            let ids: Vec<NodeId> = g.node_ids().collect();
            let mut w = vec![vec![Weight::ZERO; n]; n];
            let mut all_edges = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    let wt = Weight::from_units(rng.gen_range(1..50u64));
                    w[i][j] = wt;
                    w[j][i] = wt;
                    all_edges.push(g.add_edge(ids[i], ids[j], wt).unwrap());
                }
            }
            let prim = prim_complete(n, |i, j| Some(w[i][j])).unwrap();
            let kruskal = kruskal_subgraph(&g, &all_edges);
            assert_eq!(prim.cost, kruskal.cost);
            assert!(kruskal.connected);
        }
    }

    #[test]
    fn kruskal_skips_removed_and_duplicate_edges() -> Result<(), GraphError> {
        let mut g = Graph::with_nodes(3);
        let n: Vec<NodeId> = g.node_ids().collect();
        let e0 = g.add_edge(n[0], n[1], Weight::from_units(1))?;
        let e1 = g.add_edge(n[1], n[2], Weight::from_units(2))?;
        g.remove_edge(e1)?;
        let mst = kruskal_subgraph(&g, &[e0, e0, e1]);
        assert_eq!(mst.edges, vec![e0]);
        assert!(mst.connected); // only n0, n1 are touched by usable edges
        Ok(())
    }

    #[test]
    fn kruskal_reports_disconnected_forest() -> Result<(), GraphError> {
        let mut g = Graph::with_nodes(4);
        let n: Vec<NodeId> = g.node_ids().collect();
        let e0 = g.add_edge(n[0], n[1], Weight::from_units(1))?;
        let e1 = g.add_edge(n[2], n[3], Weight::from_units(1))?;
        let mst = kruskal_subgraph(&g, &[e0, e1]);
        assert_eq!(mst.edges.len(), 2);
        assert!(!mst.connected);
        Ok(())
    }

    #[test]
    fn kruskal_empty_input() {
        let g = Graph::with_nodes(3);
        let mst = kruskal_subgraph(&g, &[]);
        assert!(mst.edges.is_empty());
        assert_eq!(mst.cost, Weight::ZERO);
        assert!(mst.connected);
    }
}
