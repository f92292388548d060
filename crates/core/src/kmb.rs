//! The Kou–Markowsky–Berman (KMB) graph Steiner heuristic.
//!
//! Paper Appendix §8.1 (and \[26\]): performance ratio `2·(1 − 1/L)` where `L`
//! is the maximum leaf count of an optimal solution.
//!
//! 1. Build the *distance graph* `G'`: the complete graph over the net with
//!    shortest-path costs as edge weights.
//! 2. Compute `MST(G')` and expand each of its edges into a concrete
//!    shortest path, yielding a subgraph `G''`.
//! 3. Compute `MST(G'')` and delete pendant non-terminal leaves.

use route_graph::dsu::UnionFind;
use route_graph::mst::{prim_complete, ForestEdge, Kruskal};
use route_graph::{EdgeId, GraphError, GraphView, NodeId, TerminalDistances, Weight};

use crate::heuristic::{
    construct_via_base, price_below, require_connected, HeuristicInfo, IteratedBase,
    IteratedBaseInfo, SteinerHeuristic,
};
use crate::{Net, RoutingTree, SteinerError};

/// The KMB heuristic (paper Appendix Figure 17).
///
/// Also serves as the base `H` of the iterated IKMB construction via
/// [`IteratedBase`].
///
/// # Example
///
/// ```
/// use route_graph::{GridGraph, Weight};
/// use steiner_route::{Kmb, Net, SteinerHeuristic};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = GridGraph::new(4, 4, Weight::UNIT)?;
/// let net = Net::new(
///     grid.node_at(0, 0)?,
///     vec![grid.node_at(3, 0)?, grid.node_at(0, 3)?],
/// )?;
/// let tree = Kmb::new().construct(grid.graph(), &net)?;
/// assert!(tree.spans(&net));
/// assert_eq!(tree.cost(), Weight::from_units(6));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Kmb;

impl Kmb {
    /// Creates the heuristic.
    #[must_use]
    pub fn new() -> Kmb {
        Kmb
    }
}

impl HeuristicInfo for Kmb {
    fn name(&self) -> &str {
        "KMB"
    }
}

impl<G: GraphView> SteinerHeuristic<G> for Kmb {
    fn construct(&self, g: &G, net: &Net) -> Result<RoutingTree, SteinerError> {
        construct_via_base(self, g, net)
    }
}

impl IteratedBaseInfo for Kmb {
    fn base_name(&self) -> &str {
        "KMB"
    }

    /// KMB queries `td` only between members and the candidate: the
    /// distance-graph MST reads member-pair distances, and the expansion
    /// extracts member-to-member paths (whose interior nodes Dijkstra
    /// settled before the endpoints). Target-restricted runs are
    /// therefore exact for it.
    fn supports_target_restricted_distances(&self) -> bool {
        true
    }

    /// KMB never needs a distance above `R`. Let `M(T)` be the heaviest
    /// edge of the distance-graph MST over the member set `T`, and `N`
    /// the terminals. Removing that edge from MST(`N`) splits `N` in two,
    /// and every pair across the split is at least `M(N)` apart. The
    /// source has a terminal on the far side, so `R ≥ M(N)`.
    ///
    /// * A candidate priced below MST(`T`) joins only through star edges
    ///   lighter than `M(T)`, because tree edges win ties in the merged
    ///   Kruskal of `screen_round`. So accepted points never raise `M`,
    ///   and every MST edge between members is at most `R`: both of its
    ///   runs settled it, and its expansion walks the same parents.
    /// * An unsettled star edge is longer than `R`, so it sorts after
    ///   every tree edge and every settled star edge; Kruskal never needs
    ///   it to price a candidate below MST(`T`). A candidate that no
    ///   member's run settled could only price above MST(`T`), so it is
    ///   left unscored.
    /// * In a scored candidate's exact cost, an unsettled edge `(i, t)` is
    ///   the strict maximum of a cycle of settled edges. Prim therefore
    ///   never picks it, and its first-found parents do not change.
    fn screens_within_source_radius(&self) -> bool {
        true
    }
}

impl<G: GraphView> IteratedBase<G> for Kmb {
    /// Prices each candidate `t` at the cost of the distance-graph MST of
    /// `T ∪ {t}`, an upper bound on the full KMB cost (steps 2–3 can only
    /// shed weight).
    ///
    /// MST(`T`) is built once per round. MST(`T ∪ {t}`) uses only its
    /// `k − 1` edges plus `t`'s `k` star edges, so Kruskal over those
    /// `2k − 1` edges, in buffers reused across the round, gives the same
    /// weight as an MST over the complete distance graph of `T ∪ {t}`.
    fn screen_round(
        &self,
        _g: &G,
        td: &TerminalDistances,
        pool: &[NodeId],
        scored: &mut Vec<(Weight, NodeId)>,
    ) -> Result<(), SteinerError> {
        require_connected(td, None)?;
        let k = td.len();
        let mst = prim_complete(k, |i, j| td.dist(i, j)).ok_or_else(|| unspannable(td))?;
        let mut tree: Vec<(Weight, usize, usize)> = mst
            .weights
            .iter()
            .zip(&mst.edges)
            .map(|(&w, &(i, j))| (w, i, j))
            .collect();
        tree.sort_unstable();
        let mut star: Vec<(Weight, usize, usize)> = Vec::with_capacity(k);
        let mut uf = UnionFind::new(k + 1);
        price_below(pool, mst.cost, scored, |t| {
            // `t` joins as node `k`, and is left unscored when no
            // member's run settled it: it is unreachable, like an
            // unspannable T ∪ {t}, or beyond every run's radius.
            star.clear();
            star.extend((0..k).filter_map(|i| Some((td.dist_to_node(i, t)?, i, k))));
            if star.is_empty() {
                return None;
            }
            star.sort_unstable();
            // Kruskal over both ascending lists, merged, until all k + 1
            // nodes are joined.
            uf.reset(k + 1);
            let (mut a, mut b) = (tree.iter().peekable(), star.iter().peekable());
            let (mut cost, mut joined) = (Weight::ZERO, 0);
            while joined < k {
                let next = match (a.peek(), b.peek()) {
                    (Some(x), Some(y)) if x.0 <= y.0 => a.next(),
                    (_, Some(_)) => b.next(),
                    _ => a.next(),
                };
                let &(w, i, j) = next.expect("MST(T) and the star span T ∪ {t}");
                if uf.union(i, j) {
                    cost = cost.saturating_add(w);
                    joined += 1;
                }
            }
            Some(cost)
        });
        Ok(())
    }

    /// The exact KMB cost: the weight of the tree
    /// [`build_with`](Kmb::build_with) builds, without building it.
    fn cost_with(
        &self,
        g: &G,
        td: &TerminalDistances,
        candidate: Option<NodeId>,
    ) -> Result<Weight, SteinerError> {
        Ok(kmb_edges(g, td, candidate)?.iter().map(|f| f.weight).sum())
    }

    fn build_with(
        &self,
        g: &G,
        td: &TerminalDistances,
        candidate: Option<NodeId>,
    ) -> Result<RoutingTree, SteinerError> {
        let edges = kmb_edges(g, td, candidate)?;
        RoutingTree::from_edges(g, edges.iter().map(|f| f.edge).collect())
    }
}

fn unspannable(td: &TerminalDistances) -> SteinerError {
    SteinerError::Graph(GraphError::Disconnected {
        from: td.terminals()[0],
        to: td.terminals()[0],
    })
}

/// KMB steps 1–3 over `T ∪ {candidate}`: the distance-graph MST, its
/// expansion into shortest-path edges (read straight off each run's
/// parent chain), Kruskal over the deduplicated expansion, and the
/// pruning of non-member leaves. Returns the kept edges in Kruskal's
/// pick order.
///
/// # Errors
///
/// [`GraphError::Disconnected`] if `T ∪ {candidate}` cannot be spanned.
fn kmb_edges<G: GraphView>(
    g: &G,
    td: &TerminalDistances,
    candidate: Option<NodeId>,
) -> Result<Vec<ForestEdge>, SteinerError> {
    require_connected(td, candidate)?;
    if route_trace::enabled() {
        route_trace::count(route_trace::Counter::KmbConstructions, 1);
    }
    let base = td.len();
    let k = base + usize::from(candidate.is_some());
    let node = |i: usize| {
        if i == base {
            candidate.expect("index implies candidate")
        } else {
            td.terminals()[i]
        }
    };
    // Step 1+2: MST over the (extended) distance graph.
    let dist = |i: usize, j: usize| -> Option<Weight> {
        match (i == base, j == base) {
            (false, false) => td.dist(i, j),
            (true, false) => td.dist_to_node(j, node(i)),
            (false, true) => td.dist_to_node(i, node(j)),
            (true, true) => unreachable!("prim never queries the diagonal"),
        }
    };
    // require_connected passed, so the MST exists; keep a meaningful
    // error anyway.
    let mst = prim_complete(k, dist).ok_or_else(|| unspannable(td))?;
    // Expand distance-graph edges into the edges of concrete shortest
    // paths. Each MST edge is `(i, j)` with `i < j`, so `i` is a terminal
    // whose run is walked back from `j`.
    let mut expansion: Vec<(Weight, EdgeId)> = Vec::new();
    for &(i, j) in &mst.edges {
        let (sp, target) = (td.shortest_paths(i), node(j));
        if sp.dist(target).is_none() {
            return Err(GraphError::Disconnected {
                from: sp.source(),
                to: target,
            }
            .into());
        }
        let mut cur = target;
        while let Some((parent, e)) = sp.parent(cur) {
            if g.is_edge_usable(e) {
                expansion.push((g.weight(e)?, e));
            }
            cur = parent;
        }
    }
    // Step 3: MST of the expanded subgraph, then prune non-member leaves.
    let mut forest = Kruskal::default();
    forest.run(g, &mut expansion);
    if !forest.is_connected() {
        return Err(SteinerError::ForestNotTree);
    }
    Ok(prune_to_members(&forest, (0..k).map(node)))
}

/// The edges of the tree `forest` left after repeatedly deleting leaves
/// that are not `members`, in pick order.
fn prune_to_members(forest: &Kruskal, members: impl Iterator<Item = NodeId>) -> Vec<ForestEdge> {
    let n = forest.node_count();
    let chosen = forest.chosen();
    let mut degree = vec![0u32; n];
    // XOR of the indices of each node's remaining chosen edges: once a
    // node is down to one edge, this is that edge.
    let mut link = vec![0usize; n];
    for (idx, f) in chosen.iter().enumerate() {
        for v in [f.ends.0, f.ends.1] {
            degree[v] += 1;
            link[v] ^= idx;
        }
    }
    let mut member = vec![false; n];
    for c in members.filter_map(|v| forest.index_of(v)) {
        member[c] = true;
    }
    let mut kept = vec![true; chosen.len()];
    let mut leaves: Vec<usize> = (0..n).filter(|&v| degree[v] == 1 && !member[v]).collect();
    while let Some(v) = leaves.pop() {
        if degree[v] != 1 {
            continue;
        }
        let idx = link[v];
        kept[idx] = false;
        degree[v] = 0;
        let (a, b) = chosen[idx].ends;
        let u = if a == v { b } else { a };
        degree[u] -= 1;
        link[u] ^= idx;
        if degree[u] == 1 && !member[u] {
            leaves.push(u);
        }
    }
    chosen
        .iter()
        .zip(kept)
        .filter_map(|(&f, keep)| keep.then_some(f))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use route_graph::{Graph, GridGraph};

    #[test]
    fn two_pin_net_is_a_shortest_path() {
        let grid = GridGraph::new(5, 5, Weight::UNIT).unwrap();
        let net = Net::new(
            grid.node_at(0, 0).unwrap(),
            vec![grid.node_at(4, 3).unwrap()],
        )
        .unwrap();
        let tree = Kmb::new().construct(grid.graph(), &net).unwrap();
        assert_eq!(tree.cost(), Weight::from_units(7));
        assert!(tree.spans(&net));
    }

    #[test]
    fn three_corner_net_on_grid() {
        // Terminals at three corners of a 4×4 grid; the MST of the distance
        // graph costs 6+6=12; KMB cannot do worse and the optimum (a T
        // shape through the center column) costs 9... on a grid the
        // distance-graph MST expansion often shares edges. Just assert the
        // standard bounds: spans, cost between optimal (9) and MST (12).
        let grid = GridGraph::new(4, 4, Weight::UNIT).unwrap();
        let net = Net::new(
            grid.node_at(0, 0).unwrap(),
            vec![grid.node_at(3, 0).unwrap(), grid.node_at(0, 3).unwrap()],
        )
        .unwrap();
        let tree = Kmb::new().construct(grid.graph(), &net).unwrap();
        assert!(tree.spans(&net));
        assert!(tree.cost() >= Weight::from_units(6));
        assert!(tree.cost() <= Weight::from_units(12));
    }

    #[test]
    fn terminals_only_graph_uses_direct_edges() {
        // A triangle where the direct edges beat any detour.
        let mut g = Graph::with_nodes(3);
        let n: Vec<NodeId> = g.node_ids().collect();
        g.add_edge(n[0], n[1], Weight::from_units(1)).unwrap();
        g.add_edge(n[1], n[2], Weight::from_units(1)).unwrap();
        g.add_edge(n[0], n[2], Weight::from_units(5)).unwrap();
        let net = Net::new(n[0], vec![n[1], n[2]]).unwrap();
        let tree = Kmb::new().construct(&g, &net).unwrap();
        assert_eq!(tree.cost(), Weight::from_units(2));
    }

    #[test]
    fn classic_kmb_example_uses_steiner_node() {
        // A star: hub h connected to three terminals at weight 2 each, and
        // terminal-terminal edges at weight 3.9 would be cheaper pairwise
        // (3.9 < 4) but the hub star (cost 6) beats the two-edge distance
        // MST expansion (7.8)… use integer weights: hub edges 2, direct
        // edges 3. Distance MST = 3+3 = 6; hub star = 6. KMB must not
        // exceed 6.
        let mut g = Graph::with_nodes(4);
        let n: Vec<NodeId> = g.node_ids().collect();
        let hub = n[3];
        for &t in &n[..3] {
            g.add_edge(hub, t, Weight::from_units(2)).unwrap();
        }
        g.add_edge(n[0], n[1], Weight::from_units(3)).unwrap();
        g.add_edge(n[1], n[2], Weight::from_units(3)).unwrap();
        g.add_edge(n[0], n[2], Weight::from_units(3)).unwrap();
        let net = Net::new(n[0], vec![n[1], n[2]]).unwrap();
        let tree = Kmb::new().construct(&g, &net).unwrap();
        assert!(tree.spans(&net));
        assert!(tree.cost() <= Weight::from_units(6));
    }

    #[test]
    fn disconnected_terminals_error() {
        let mut g = Graph::with_nodes(4);
        let n: Vec<NodeId> = g.node_ids().collect();
        g.add_edge(n[0], n[1], Weight::UNIT).unwrap();
        g.add_edge(n[2], n[3], Weight::UNIT).unwrap();
        let net = Net::new(n[0], vec![n[2]]).unwrap();
        assert!(matches!(
            Kmb::new().construct(&g, &net),
            Err(SteinerError::Graph(
                route_graph::GraphError::Disconnected { .. }
            ))
        ));
    }

    #[test]
    fn candidate_extension_can_reduce_cost() {
        // Same star as above but with direct terminal-terminal edges of
        // weight 5: distance MST over terminals = 4+4 = 8 (via hub paths),
        // which already shares the hub. Supplying the hub as an explicit
        // candidate must not increase cost.
        let mut g = Graph::with_nodes(4);
        let n: Vec<NodeId> = g.node_ids().collect();
        let hub = n[3];
        for &t in &n[..3] {
            g.add_edge(hub, t, Weight::from_units(2)).unwrap();
        }
        let td = TerminalDistances::compute(&g, &n[..3]).unwrap();
        let plain = Kmb::new().build_with(&g, &td, None).unwrap();
        let with_hub = Kmb::new().build_with(&g, &td, Some(hub)).unwrap();
        assert!(with_hub.cost() <= plain.cost());
        assert_eq!(with_hub.cost(), Weight::from_units(6));
    }

    #[test]
    fn pruning_matches_routing_tree_pruning() {
        use route_graph::rng::{Rng, SliceRandom, SplitMix64};
        let mut rng = SplitMix64::seed_from_u64(7);
        for trial in 0..100 {
            let n = rng.gen_range(2..16usize);
            let g = route_graph::random::random_connected_graph(n, 2 * n, 0..4, &mut rng).unwrap();
            let mut edges: Vec<(Weight, EdgeId)> =
                g.edge_ids().map(|e| (g.weight(e).unwrap(), e)).collect();
            let mut forest = Kruskal::default();
            forest.run(&g, &mut edges);
            let mut members: Vec<NodeId> = g.node_ids().collect();
            members.shuffle(&mut rng);
            members.truncate(rng.gen_range(1..=n));
            let kept: Vec<EdgeId> = prune_to_members(&forest, members.iter().copied())
                .iter()
                .map(|f| f.edge)
                .collect();
            let tree =
                RoutingTree::from_edges(&g, forest.chosen().iter().map(|f| f.edge).collect())
                    .unwrap();
            let expected = tree.pruned_to(&g, &members).unwrap();
            assert_eq!(kept, expected.edges(), "trial {trial}");
        }
    }

    #[test]
    fn prunes_nonterminal_leaves() {
        // Path a-b-c-d with net {a, c}: expansion can only contain a..c; d
        // never appears. Also ensure Steiner candidate that dangles is
        // pruned: candidate d extends beyond c and is kept only because it
        // is in the span set.
        let mut g = Graph::with_nodes(4);
        let n: Vec<NodeId> = g.node_ids().collect();
        for i in 0..3 {
            g.add_edge(n[i], n[i + 1], Weight::UNIT).unwrap();
        }
        let net = Net::new(n[0], vec![n[2]]).unwrap();
        let tree = Kmb::new().construct(&g, &net).unwrap();
        assert!(!tree.contains_node(n[3]));
        assert_eq!(tree.cost(), Weight::from_units(2));
    }
}
