//! The Zelikovsky (ZEL) 11/6-approximation graph Steiner heuristic.
//!
//! Paper Appendix §8.2 (and \[39\]): repeatedly pick the terminal *triple*
//! whose contraction (together with its best Steiner meeting point `v_z`)
//! wins the most against the current distance-graph MST, then finish with
//! KMB over the original net plus the collected meeting points.

use route_graph::mst::prim_complete;
use route_graph::{GraphView, NodeId, ShortestPaths, TerminalDistances, Weight};

use crate::heuristic::{
    construct_via_base, require_connected, HeuristicInfo, IteratedBase, IteratedBaseInfo,
    SteinerHeuristic,
};
use crate::igmst::CandidatePool;
use crate::kmb::Kmb;
use crate::{Net, RoutingTree, SteinerError};

/// The ZEL heuristic (paper Appendix Figure 18), performance ratio 11/6.
///
/// Also serves as the base `H` of the iterated IZEL construction via
/// [`IteratedBase`]. For nets with fewer than three pins it degenerates to
/// KMB exactly.
///
/// # Example
///
/// ```
/// use route_graph::{GridGraph, Weight};
/// use steiner_route::{Kmb, Net, SteinerHeuristic, Zel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = GridGraph::new(5, 5, Weight::UNIT)?;
/// let net = Net::new(
///     grid.node_at(0, 2)?,
///     vec![grid.node_at(2, 0)?, grid.node_at(2, 4)?, grid.node_at(4, 2)?],
/// )?;
/// let zel = Zel::new().construct(grid.graph(), &net)?;
/// let kmb = Kmb::new().construct(grid.graph(), &net)?;
/// assert!(zel.cost() <= kmb.cost());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Zel {
    pool: CandidatePool,
}

impl Zel {
    /// Creates the heuristic with its meeting-point search ranging over all
    /// of `V` (the paper's formulation).
    #[must_use]
    pub fn new() -> Zel {
        Zel {
            pool: CandidatePool::All,
        }
    }

    /// Creates the heuristic with its meeting-point search restricted to an
    /// explicit pool.
    ///
    /// With [`CandidatePool::Explicit`], every distance query lands on
    /// `terminals ∪ pool`, so the construction can run off
    /// target-restricted Dijkstra that stops near the net; other pool
    /// kinds behave like [`Zel::new`].
    #[must_use]
    pub fn with_pool(pool: CandidatePool) -> Zel {
        Zel { pool }
    }

    /// The nodes the meeting-point scan may visit: `terminals ∪ pool`,
    /// live and deduplicated — or `None` when the scan ranges over all of
    /// `V`.
    fn scan_nodes<G: GraphView>(&self, g: &G, td: &TerminalDistances) -> Option<Vec<NodeId>> {
        let CandidatePool::Explicit(pool) = &self.pool else {
            return None;
        };
        let mut set: Vec<NodeId> = td.terminals().to_vec();
        set.extend(pool.iter().copied());
        set.retain(|&v| g.is_node_live(v));
        set.sort_unstable();
        set.dedup();
        Some(set)
    }
}

impl HeuristicInfo for Zel {
    fn name(&self) -> &str {
        "ZEL"
    }
}

impl<G: GraphView> SteinerHeuristic<G> for Zel {
    fn construct(&self, g: &G, net: &Net) -> Result<RoutingTree, SteinerError> {
        construct_via_base(self, g, net)
    }
}

impl IteratedBaseInfo for Zel {
    fn base_name(&self) -> &str {
        "ZEL"
    }

    /// With an explicit pool the meeting-point scan, the candidate run and
    /// the KMB finish all query distances within `terminals ∪ pool ∪
    /// candidate` only, so target-restricted runs are exact. The
    /// unrestricted scan roams all of `V` and needs full runs.
    fn supports_target_restricted_distances(&self) -> bool {
        matches!(self.pool, CandidatePool::Explicit(_))
    }

    fn restricted_extra_targets(&self) -> &[NodeId] {
        match &self.pool {
            CandidatePool::Explicit(nodes) => nodes,
            _ => &[],
        }
    }
}

impl<G: GraphView> IteratedBase<G> for Zel {
    #[allow(clippy::needless_range_loop)] // index loops mirror the matrix formulation
    fn build_with(
        &self,
        g: &G,
        td: &TerminalDistances,
        candidate: Option<NodeId>,
    ) -> Result<RoutingTree, SteinerError> {
        require_connected(td, candidate)?;
        let base = td.len();
        let k = base + usize::from(candidate.is_some());
        if k < 3 {
            return Kmb::new().build_with(g, td, candidate);
        }
        // The meeting-point scan set: `terminals ∪ pool` when the pool is
        // explicit, all of `V` otherwise.
        let scan = self.scan_nodes(g, td);
        let full_v: Vec<NodeId>;
        let scan_set: &[NodeId] = if let Some(set) = scan.as_deref() {
            set
        } else {
            full_v = g.node_ids().collect();
            &full_v
        };
        // Distance vectors from every (extended) terminal. The candidate
        // has no precomputed run, so give it one — stopping at the scan set
        // when it is restricted (the candidate's distances are only ever
        // read at scan-set nodes).
        let cand_sp = candidate
            .map(|c| match scan.as_deref() {
                Some(set) => ShortestPaths::run_to_targets(g, c, set),
                None => ShortestPaths::run(g, c),
            })
            .transpose()
            .map_err(SteinerError::Graph)?;
        let dist_to = |i: usize, v: NodeId| -> Option<Weight> {
            if i == base {
                cand_sp.as_ref().expect("index implies candidate").dist(v)
            } else {
                td.dist_to_node(i, v)
            }
        };
        // Working distance matrix over the extended terminal set.
        let mut w = vec![vec![Weight::ZERO; k]; k];
        for i in 0..k {
            for j in (i + 1)..k {
                let d = if j == base {
                    dist_to(i, candidate.expect("index implies candidate"))
                } else {
                    td.dist(i, j)
                }
                .ok_or(SteinerError::Graph(route_graph::GraphError::Disconnected {
                    from: terminal_node(td, candidate, i),
                    to: terminal_node(td, candidate, j),
                }))?;
                w[i][j] = d;
                w[j][i] = d;
            }
        }
        // Best Steiner meeting point per triple.
        let traced = route_trace::enabled();
        let mut triples: Vec<Triple> = Vec::new();
        for i in 0..k {
            for j in (i + 1)..k {
                for l in (j + 1)..k {
                    let mut best: Option<(Weight, NodeId)> = None;
                    for &v in scan_set {
                        let (Some(a), Some(b), Some(c)) =
                            (dist_to(i, v), dist_to(j, v), dist_to(l, v))
                        else {
                            continue;
                        };
                        let total = a + b + c;
                        if best.is_none_or(|(bw, _)| total < bw) {
                            best = Some((total, v));
                        }
                    }
                    if let Some((dist_z, v_z)) = best {
                        triples.push(Triple {
                            members: [i, j, l],
                            v_z,
                            dist_z,
                        });
                    }
                }
            }
        }
        // Greedy contraction while a positive win exists.
        let mut meeting_points: Vec<NodeId> = Vec::new();
        loop {
            let current = mst_cost(&w);
            let mut best: Option<(Weight, usize)> = None;
            for (idx, t) in triples.iter().enumerate() {
                let contracted = mst_cost_contracted(&w, t.members);
                // win = MST(G') − MST(G'[z]) − dist_z, computed in signed
                // milli to allow negative wins.
                let win = current.as_milli() as i128
                    - contracted.as_milli() as i128
                    - t.dist_z.as_milli() as i128;
                if win > 0 {
                    let win = Weight::from_milli(win as u64);
                    if best.is_none_or(|(bw, _)| win > bw) {
                        best = Some((win, idx));
                    }
                }
            }
            let Some((_, idx)) = best else { break };
            let t = triples[idx];
            let [i, j, l] = t.members;
            for (a, b) in [(i, j), (i, l)] {
                w[a][b] = Weight::ZERO;
                w[b][a] = Weight::ZERO;
            }
            meeting_points.push(t.v_z);
        }
        if traced {
            route_trace::count(
                route_trace::Counter::ZelTriplesEvaluated,
                triples.len() as u64,
            );
            route_trace::count(
                route_trace::Counter::ZelTriplesContracted,
                meeting_points.len() as u64,
            );
        }
        // Finish with KMB over N ∪ {v_z…} (∪ candidate).
        let mut extended = td.clone();
        for v in meeting_points {
            if extended.index_of(v).is_none() && candidate != Some(v) {
                extended.push_terminal(g, v)?;
            }
        }
        let tree = Kmb::new().build_with(g, &extended, candidate)?;
        // The meeting points are aids, not span requirements: prune back to
        // the true span set.
        let mut keep: Vec<NodeId> = td.terminals().to_vec();
        if let Some(c) = candidate {
            keep.push(c);
        }
        tree.pruned_to(g, &keep)
    }
}

#[derive(Debug, Clone, Copy)]
struct Triple {
    members: [usize; 3],
    v_z: NodeId,
    dist_z: Weight,
}

fn terminal_node(td: &TerminalDistances, candidate: Option<NodeId>, i: usize) -> NodeId {
    if i < td.len() {
        td.terminals()[i]
    } else {
        candidate.expect("index implies candidate")
    }
}

fn mst_cost(w: &[Vec<Weight>]) -> Weight {
    prim_complete(w.len(), |i, j| Some(w[i][j]))
        .expect("complete finite matrix always spans")
        .cost
}

fn mst_cost_contracted(w: &[Vec<Weight>], [i, j, l]: [usize; 3]) -> Weight {
    prim_complete(w.len(), |a, b| {
        let zeroed = (a == i && b == j)
            || (a == j && b == i)
            || (a == i && b == l)
            || (a == l && b == i);
        Some(if zeroed { Weight::ZERO } else { w[a][b] })
    })
    .expect("complete finite matrix always spans")
    .cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use route_graph::{Graph, GridGraph};

    #[test]
    fn degenerates_to_kmb_for_two_pins() {
        let grid = GridGraph::new(4, 4, Weight::UNIT).unwrap();
        let net = Net::new(
            grid.node_at(0, 0).unwrap(),
            vec![grid.node_at(3, 3).unwrap()],
        )
        .unwrap();
        let zel = Zel::new().construct(grid.graph(), &net).unwrap();
        let kmb = Kmb::new().construct(grid.graph(), &net).unwrap();
        assert_eq!(zel.cost(), kmb.cost());
        assert_eq!(zel.cost(), Weight::from_units(6));
    }

    #[test]
    fn finds_the_center_of_a_plus() {
        // Four terminals forming a plus; the optimal tree is a star through
        // the center, cost 8 — ZEL's triple contraction discovers it.
        let grid = GridGraph::new(5, 5, Weight::UNIT).unwrap();
        let net = Net::new(
            grid.node_at(0, 2).unwrap(),
            vec![
                grid.node_at(2, 0).unwrap(),
                grid.node_at(2, 4).unwrap(),
                grid.node_at(4, 2).unwrap(),
            ],
        )
        .unwrap();
        let tree = Zel::new().construct(grid.graph(), &net).unwrap();
        assert!(tree.spans(&net));
        assert_eq!(tree.cost(), Weight::from_units(8));
    }

    #[test]
    fn never_worse_than_kmb_on_random_nets() {
        
        let mut rng = route_graph::rng::SplitMix64::seed_from_u64(21);
        let grid = GridGraph::new(7, 7, Weight::UNIT).unwrap();
        for trial in 0..10 {
            let pins = route_graph::random::random_net(grid.graph(), 5, &mut rng).unwrap();
            let net = Net::from_terminals(pins).unwrap();
            let zel = Zel::new().construct(grid.graph(), &net).unwrap();
            let kmb = Kmb::new().construct(grid.graph(), &net).unwrap();
            assert!(zel.cost() <= kmb.cost(), "trial {trial}");
            assert!(zel.spans(&net));
        }
    }

    #[test]
    fn izel_never_worse_than_zel() {
        
        let mut rng = route_graph::rng::SplitMix64::seed_from_u64(22);
        let grid = GridGraph::new(6, 6, Weight::UNIT).unwrap();
        let izel = crate::igmst::izel();
        for trial in 0..5 {
            let pins = route_graph::random::random_net(grid.graph(), 5, &mut rng).unwrap();
            let net = Net::from_terminals(pins).unwrap();
            let zel = Zel::new().construct(grid.graph(), &net).unwrap();
            let iz = izel.construct(grid.graph(), &net).unwrap();
            assert!(iz.cost() <= zel.cost(), "trial {trial}");
        }
    }

    #[test]
    fn disconnected_terminals_error() {
        let mut g = Graph::with_nodes(5);
        let n: Vec<NodeId> = g.node_ids().collect();
        g.add_edge(n[0], n[1], Weight::UNIT).unwrap();
        g.add_edge(n[1], n[2], Weight::UNIT).unwrap();
        g.add_edge(n[3], n[4], Weight::UNIT).unwrap();
        let net = Net::new(n[0], vec![n[2], n[4]]).unwrap();
        assert!(matches!(
            Zel::new().construct(&g, &net),
            Err(SteinerError::Graph(
                route_graph::GraphError::Disconnected { .. }
            ))
        ));
    }
}
