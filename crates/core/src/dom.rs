//! The DOM spanning-arborescence heuristic (paper §4.2).
//!
//! DOM connects each sink, via a shortest path, to the *closest*
//! sink-or-source that it dominates, then extracts a shortest-paths tree
//! over the union of those paths. Equivalently (and this is how its cost is
//! priced inside IDOM), it is a minimum-cost shortest-paths spanning
//! arborescence over the net's distance graph — computable in `O(|N|²)`
//! once the distance graph is known, which is the per-call cost the paper
//! cites for the IDOM inner loop.

use route_graph::{EdgeId, GraphError, GraphView, NodeId, TerminalDistances, Weight};

use crate::dominance::dominates;
use crate::heuristic::{
    construct_via_base, price_below, require_connected, HeuristicInfo, IteratedBase,
    IteratedBaseInfo, ScreenedRuns, SteinerHeuristic,
};
use crate::subgraph::spt_over_edges;
use crate::{Net, RoutingTree, SteinerError};

/// The DOM heuristic: a restricted PFA where merge points are constrained
/// to the net itself.
///
/// Also serves as the base of the iterated **IDOM** construction via
/// [`IteratedBase`], where its [`cost_with`](IteratedBase::cost_with)
/// override prices candidates with the `O(k²)` distance-graph arborescence
/// cost instead of building the full tree.
///
/// # Example
///
/// ```
/// use route_graph::{GridGraph, Weight};
/// use steiner_route::{Dom, Net, SteinerHeuristic};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = GridGraph::new(5, 5, Weight::UNIT)?;
/// let net = Net::new(
///     grid.node_at(0, 0)?,
///     vec![grid.node_at(2, 2)?, grid.node_at(4, 4)?],
/// )?;
/// let tree = Dom::new().construct(grid.graph(), &net)?;
/// // (2,2) dominates nothing closer than the source; (4,4) dominates
/// // (2,2): the tree chains through it and costs 8.
/// assert_eq!(tree.cost(), Weight::from_units(8));
/// assert!(tree.is_shortest_paths_tree(grid.graph(), &net)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dom;

impl Dom {
    /// Creates the heuristic.
    #[must_use]
    pub fn new() -> Dom {
        Dom
    }
}

impl HeuristicInfo for Dom {
    fn name(&self) -> &str {
        "DOM"
    }
}

impl<G: GraphView> SteinerHeuristic<G> for Dom {
    fn construct(&self, g: &G, net: &Net) -> Result<RoutingTree, SteinerError> {
        construct_via_base(self, g, net)
    }
}

/// The member view DOM works over: the terminals of `td` plus an optional
/// external candidate, with index `td.len()` denoting the candidate.
struct Members<'a> {
    td: &'a TerminalDistances,
    candidate: Option<NodeId>,
}

impl Members<'_> {
    fn len(&self) -> usize {
        self.td.len() + usize::from(self.candidate.is_some())
    }

    fn node(&self, i: usize) -> NodeId {
        if i < self.td.len() {
            self.td.terminals()[i]
        } else {
            self.candidate.expect("index implies candidate")
        }
    }

    /// Distance from the source (member 0).
    fn d0(&self, i: usize) -> Option<Weight> {
        if i < self.td.len() {
            self.td.dist(0, i)
        } else {
            self.td
                .dist_to_node(0, self.candidate.expect("index implies candidate"))
        }
    }

    fn dist(&self, i: usize, j: usize) -> Option<Weight> {
        let base = self.td.len();
        match (i == base, j == base) {
            (false, false) => self.td.dist(i, j),
            (true, false) => self
                .td
                .dist_to_node(j, self.candidate.expect("index implies candidate")),
            (false, true) => self
                .td
                .dist_to_node(i, self.candidate.expect("index implies candidate")),
            (true, true) => Some(Weight::ZERO),
        }
    }

    fn path(&self, i: usize, j: usize) -> Result<route_graph::Path, SteinerError> {
        let base = self.td.len();
        let path = match (i == base, j == base) {
            (false, false) => self.td.path(i, j)?,
            (true, false) => self
                .td
                .path_to_node(j, self.candidate.expect("index implies candidate"))?,
            (false, true) => self
                .td
                .path_to_node(i, self.candidate.expect("index implies candidate"))?,
            (true, true) => unreachable!("a pair never consists of the candidate twice"),
        };
        Ok(path)
    }

    /// For each non-source member `p`, the dominated member it connects to
    /// and the connection cost: the closest `s ≠ p` such that `p` dominates
    /// `s` and `(d0(s), s) <lex (d0(p), p)` (the lexicographic constraint
    /// breaks zero-distance dominance cycles; the source, at `d0 = 0`, is
    /// always available).
    fn parents(&self) -> Result<Vec<(usize, Weight)>, SteinerError> {
        let k = self.len();
        let mut out = Vec::with_capacity(k.saturating_sub(1));
        for p in 1..k {
            let d0p = self.d0(p).ok_or(SteinerError::Graph(GraphError::Disconnected {
                from: self.node(0),
                to: self.node(p),
            }))?;
            let mut best: Option<(Weight, Weight, usize)> = None; // (dist, d0s, s)
            for s in 0..k {
                if s == p {
                    continue;
                }
                let (Some(d0s), Some(dsp)) = (self.d0(s), self.dist(s, p)) else {
                    continue;
                };
                if !dominates(d0p, d0s, dsp) {
                    continue;
                }
                if (d0s, s) >= (d0p, p) {
                    continue;
                }
                if best.is_none_or(|(bd, bd0, bs)| (dsp, d0s, s) < (bd, bd0, bs)) {
                    best = Some((dsp, d0s, s));
                }
            }
            let (dsp, _, s) = best.expect("the source is always a dominated option");
            out.push((s, dsp));
        }
        if route_trace::enabled() {
            route_trace::count(route_trace::Counter::DomConnections, out.len() as u64);
        }
        Ok(out)
    }
}

impl IteratedBaseInfo for Dom {
    fn base_name(&self) -> &str {
        "DOM"
    }

    /// DOM's dominance pricing and path expansion query `td` only between
    /// members (terminals plus the candidate) — [`Members`] never reads a
    /// distance to an arbitrary graph node — so target-restricted runs are
    /// exact for it.
    fn supports_target_restricted_distances(&self) -> bool {
        true
    }

    /// DOM never needs a distance above `R`, which is also the largest
    /// source distance of any member. It prices by source distance, so it
    /// needs every member's: its runs do not stop at the bottleneck.
    ///
    /// * A candidate priced below the reference must be some member's
    ///   parent, so its source distance is below `R`. `screen_round`
    ///   therefore keeps its gate on the source's run: a candidate that
    ///   run left unsettled is farther than `R` from the source, and no
    ///   member can take it as a parent.
    /// * Every leg that the price or the exact cost can use is a
    ///   dominance leg, no longer than the source distance of its far
    ///   end, so no longer than `R`: both of its runs settled it, and
    ///   `build_with` walks the same parents.
    /// * A value a run left unsettled is larger than `R`, so it fails the
    ///   dominance test, as it does on runs that settle the whole pool.
    fn screened_runs(&self) -> ScreenedRuns {
        ScreenedRuns::SourceRadius
    }
}

impl<G: GraphView> IteratedBase<G> for Dom {
    /// Prices each candidate at its exact DOM cost, in `O(k)` over a
    /// per-round summary of `T`: each member `p`'s source distance
    /// `d0(p)` and `b(p)`, the cost of its cheapest dominated parent
    /// within `T` (what `Members::parents` finds).
    ///
    /// Adding `t`, whose index sits above every member's, changes only
    /// two things. A member `p ≥ 1` may take `t` as its parent, which
    /// under the `(d0, index)` tie rule needs `d0(t) < d0(p)` strictly:
    /// `p`'s term is `d(t, p)` when `t` qualifies and `d(t, p) < b(p)`,
    /// else `b(p)`. And `t` needs a parent of its own: the cheapest
    /// `d(s, t)` over members `s` with `d0(s) ≤ d0(t)` that `t`
    /// dominates (the source always qualifies).
    fn screen_round(
        &self,
        _g: &G,
        td: &TerminalDistances,
        pool: &[NodeId],
        scored: &mut Vec<(Weight, NodeId)>,
    ) -> Result<(), SteinerError> {
        require_connected(td, None)?;
        let k = td.len();
        let members = Members {
            td,
            candidate: None,
        };
        let parents = members.parents()?;
        let reference = parents.iter().map(|&(_, d)| d).sum();
        let d0: Vec<Weight> = (0..k)
            .map(|m| td.dist(0, m).expect("T is connected"))
            .collect();
        // b[0] is never read: the source takes no parent.
        let b: Vec<Weight> = std::iter::once(Weight::ZERO)
            .chain(parents.iter().map(|&(_, d)| d))
            .collect();
        let mut priced = 0u64;
        price_below(pool, reference, scored, |t| {
            // Unreachable, or too far from the source to be a parent.
            let d0t = td.dist_to_node(0, t)?;
            priced += 1;
            let mut cost = Weight::ZERO;
            let mut own = d0t;
            for m in 0..k {
                let dm = td.dist_to_node(m, t);
                if m > 0 {
                    let term = match dm {
                        Some(d) if d0t < d0[m] && dominates(d0[m], d0t, d) && d < b[m] => d,
                        _ => b[m],
                    };
                    cost = cost.saturating_add(term);
                }
                if let Some(d) = dm {
                    if d0[m] <= d0t && dominates(d0t, d0[m], d) && d < own {
                        own = d;
                    }
                }
            }
            Some(cost.saturating_add(own))
        });
        if route_trace::enabled() {
            // The exact cost connects k nodes per candidate: T's sinks and t.
            route_trace::count(route_trace::Counter::DomConnections, priced * k as u64);
        }
        Ok(())
    }

    fn cost_with(
        &self,
        _g: &G,
        td: &TerminalDistances,
        candidate: Option<NodeId>,
    ) -> Result<Weight, SteinerError> {
        require_connected(td, candidate)?;
        let members = Members { td, candidate };
        Ok(members.parents()?.into_iter().map(|(_, d)| d).sum())
    }

    fn build_with(
        &self,
        g: &G,
        td: &TerminalDistances,
        candidate: Option<NodeId>,
    ) -> Result<RoutingTree, SteinerError> {
        require_connected(td, candidate)?;
        let members = Members { td, candidate };
        let parents = members.parents()?;
        let mut union: Vec<EdgeId> = Vec::new();
        for (p, &(s, _)) in parents.iter().enumerate() {
            let p = p + 1; // parents() starts at member 1
            let path = members.path(s, p)?;
            union.extend_from_slice(path.edges());
        }
        let spt = spt_over_edges(g, &union, members.node(0))?;
        let tree = RoutingTree::from_edges(g, spt)?;
        let mut keep: Vec<NodeId> = td.terminals().to_vec();
        if let Some(c) = candidate {
            keep.push(c);
        }
        tree.pruned_to(g, &keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use route_graph::{Graph, GridGraph};

    fn corners_net(grid: &GridGraph) -> Net {
        Net::new(
            grid.node_at(0, 0).unwrap(),
            vec![
                grid.node_at(4, 0).unwrap(),
                grid.node_at(0, 4).unwrap(),
                grid.node_at(4, 4).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn produces_an_arborescence_with_sharing() {
        let grid = GridGraph::new(5, 5, Weight::UNIT).unwrap();
        let net = corners_net(&grid);
        let tree = Dom::new().construct(grid.graph(), &net).unwrap();
        assert!(tree.spans(&net));
        assert!(tree.is_shortest_paths_tree(grid.graph(), &net).unwrap());
        // The far corner dominates both near corners; DOM chains through
        // one of them: cost 4 + 4 + 8 = 16 at worst, and never below the
        // 12-unit Steiner optimum.
        assert!(tree.cost() <= Weight::from_units(16));
        assert!(tree.cost() >= Weight::from_units(12));
    }

    #[test]
    fn chain_collapses_onto_one_path() {
        // Collinear sinks: every sink dominates its predecessors; the whole
        // net is one straight path.
        let grid = GridGraph::new(1, 6, Weight::UNIT).unwrap();
        let net = Net::new(
            grid.node_at(0, 0).unwrap(),
            vec![
                grid.node_at(0, 2).unwrap(),
                grid.node_at(0, 4).unwrap(),
                grid.node_at(0, 5).unwrap(),
            ],
        )
        .unwrap();
        let tree = Dom::new().construct(grid.graph(), &net).unwrap();
        assert_eq!(tree.cost(), Weight::from_units(5));
        assert!(tree.is_shortest_paths_tree(grid.graph(), &net).unwrap());
    }

    #[test]
    fn cheap_cost_matches_built_tree_on_chains() {
        let grid = GridGraph::new(1, 6, Weight::UNIT).unwrap();
        let terminals = [
            grid.node_at(0, 0).unwrap(),
            grid.node_at(0, 3).unwrap(),
            grid.node_at(0, 5).unwrap(),
        ];
        let td = TerminalDistances::compute(grid.graph(), &terminals).unwrap();
        let cheap = Dom::new().cost_with(grid.graph(), &td, None).unwrap();
        let built = Dom::new().build_with(grid.graph(), &td, None).unwrap();
        assert_eq!(cheap, Weight::from_units(5));
        assert_eq!(built.cost(), Weight::from_units(5));
    }

    #[test]
    fn cheap_cost_upper_bounds_built_tree() {
        
        let mut rng = route_graph::rng::SplitMix64::seed_from_u64(17);
        let grid = GridGraph::new(7, 7, Weight::UNIT).unwrap();
        for _ in 0..10 {
            let pins = route_graph::random::random_net(grid.graph(), 5, &mut rng).unwrap();
            let td = TerminalDistances::compute(grid.graph(), &pins).unwrap();
            let cheap = Dom::new().cost_with(grid.graph(), &td, None).unwrap();
            let built = Dom::new().build_with(grid.graph(), &td, None).unwrap();
            assert!(built.cost() <= cheap, "sharing can only help");
        }
    }

    #[test]
    fn dom_beats_djka_or_ties_on_grids() {
        use crate::Djka;
        
        let mut rng = route_graph::rng::SplitMix64::seed_from_u64(18);
        let grid = GridGraph::new(8, 8, Weight::UNIT).unwrap();
        let mut dom_total = Weight::ZERO;
        let mut djka_total = Weight::ZERO;
        for _ in 0..20 {
            let pins = route_graph::random::random_net(grid.graph(), 6, &mut rng).unwrap();
            let net = Net::from_terminals(pins).unwrap();
            let dom = Dom::new().construct(grid.graph(), &net).unwrap();
            let djka = Djka::new().construct(grid.graph(), &net).unwrap();
            assert!(dom.is_shortest_paths_tree(grid.graph(), &net).unwrap());
            dom_total += dom.cost();
            djka_total += djka.cost();
        }
        // Table 1 ranking: DOM uses less wire than DJKA on average.
        assert!(dom_total <= djka_total);
    }

    #[test]
    fn zero_weight_dominance_cycles_are_broken() {
        // Two sinks joined by a zero-weight edge, both at distance 2 from
        // the source: each dominates the other; the lexicographic tie-break
        // must still deliver a connected arborescence.
        let mut g = Graph::with_nodes(4);
        let n: Vec<NodeId> = g.node_ids().collect();
        g.add_edge(n[0], n[1], Weight::from_units(2)).unwrap();
        g.add_edge(n[1], n[2], Weight::ZERO).unwrap();
        g.add_edge(n[1], n[3], Weight::ZERO).unwrap();
        g.add_edge(n[2], n[3], Weight::ZERO).unwrap();
        let net = Net::new(n[0], vec![n[2], n[3]]).unwrap();
        let tree = Dom::new().construct(&g, &net).unwrap();
        assert!(tree.spans(&net));
        assert!(tree.is_shortest_paths_tree(&g, &net).unwrap());
        assert_eq!(tree.cost(), Weight::from_units(2));
    }

    #[test]
    fn disconnected_sink_errors() {
        let mut g = Graph::with_nodes(3);
        let n: Vec<NodeId> = g.node_ids().collect();
        g.add_edge(n[0], n[1], Weight::UNIT).unwrap();
        let net = Net::new(n[0], vec![n[1], n[2]]).unwrap();
        assert!(matches!(
            Dom::new().construct(&g, &net),
            Err(SteinerError::Graph(GraphError::Disconnected { .. }))
        ));
    }
}
