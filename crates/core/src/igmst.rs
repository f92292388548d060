//! The Iterated Graph Minimal Steiner Tree (IGMST) template — paper §3.
//!
//! Given any base heuristic `H`, IGMST greedily grows a set `S` of Steiner
//! nodes: at each step it selects the candidate `t ∈ V − (N ∪ S)` with the
//! largest positive cost savings
//! `ΔH(G, N, S ∪ {t}) = cost(H(G, N ∪ S)) − cost(H(G, N ∪ S ∪ {t}))`,
//! terminating when no candidate improves and returning `H(G, N ∪ S)`.
//! Instantiating `H = KMB` yields **IKMB**; `H = ZEL` yields **IZEL**; the
//! same template over the DOM spanning-arborescence heuristic yields
//! **IDOM** (paper §4.2).
//!
//! The template also supports the paper's two practical accelerations:
//! *batched* candidate acceptance ("rather than adding Steiner points one
//! at a time, they may be added in batches… the number of such rounds tends
//! to be very small (≤ 3 for typical instances)") and restricted candidate
//! pools for large routing graphs.

use route_graph::{GraphView, NodeId, TerminalDistances, Weight};

use route_trace::Metric;

use crate::heuristic::{
    price_below, HeuristicInfo, IteratedBase, IteratedBaseInfo, ScreenedRuns, SteinerHeuristic,
};
use crate::{Net, RoutingTree, SteinerError};

/// Which graph nodes the template considers as Steiner candidates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum CandidatePool {
    /// Every live non-terminal node — the paper-faithful setting.
    #[default]
    All,
    /// Only nodes lying within `slack` of a shortest path between some pair
    /// of terminals, i.e. nodes `v` with
    /// `min_{i<j} dist(i,v) + dist(v,j) − dist(i,j) ≤ slack`.
    ///
    /// With `slack = 0` this keeps exactly the nodes on *some* shortest
    /// path between a terminal pair — the only candidates that can appear
    /// inside a distance-graph MST expansion — and shrinks the pool
    /// dramatically on large FPGA routing graphs.
    NearNet {
        /// Allowed detour above the pairwise shortest-path cost.
        slack: Weight,
    },
    /// An explicit, caller-chosen candidate list.
    Explicit(Vec<NodeId>),
}

/// Tuning knobs for [`Iterated`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IteratedConfig {
    /// Accept several non-interfering candidates per evaluation round
    /// instead of exactly one (each acceptance is still re-verified against
    /// the updated terminal set, so cost strictly decreases).
    pub batched: bool,
    /// Candidate pool strategy.
    pub pool: CandidatePool,
    /// Rank candidates with the base's cheap
    /// [`screen_round`](crate::IteratedBase::screen_round) upper bounds and
    /// spend full evaluations only on the most promising ones.
    /// Acceptances are still verified with the exact cost, so the invariant
    /// "cost strictly decreases" is unaffected; only ranking and pruning
    /// are approximate. Intended for chip-scale routing graphs; Table 1
    /// style experiments keep this off (paper-faithful exhaustive Δ).
    pub screened: bool,
    /// In screened mode, stop a round after this many consecutive fully
    /// evaluated candidates that failed to improve.
    pub screen_patience: usize,
}

impl Default for IteratedConfig {
    fn default() -> IteratedConfig {
        IteratedConfig {
            batched: true,
            pool: CandidatePool::All,
            screened: false,
            screen_patience: 8,
        }
    }
}

/// The IGMST template instantiated with a base heuristic `H`.
///
/// # Example
///
/// ```
/// use route_graph::{GridGraph, Weight};
/// use steiner_route::{ikmb, Kmb, Net, SteinerHeuristic};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = GridGraph::new(5, 5, Weight::UNIT)?;
/// let net = Net::new(
///     grid.node_at(0, 2)?,
///     vec![grid.node_at(2, 0)?, grid.node_at(2, 4)?, grid.node_at(4, 2)?],
/// )?;
/// let base = Kmb::new().construct(grid.graph(), &net)?;
/// let iterated = ikmb().construct(grid.graph(), &net)?;
/// assert!(iterated.cost() <= base.cost());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Iterated<H> {
    base: H,
    config: IteratedConfig,
    name: String,
}

impl<H: IteratedBaseInfo> Iterated<H> {
    /// Wraps `base` with the default configuration (batched, all
    /// candidates).
    #[must_use]
    pub fn new(base: H) -> Iterated<H> {
        Iterated::with_config(base, IteratedConfig::default())
    }

    /// Wraps `base` with an explicit configuration.
    #[must_use]
    pub fn with_config(base: H, config: IteratedConfig) -> Iterated<H> {
        let name = format!("I{}", base.base_name());
        Iterated { base, config, name }
    }

    /// The wrapped base heuristic.
    #[must_use]
    pub fn base(&self) -> &H {
        &self.base
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &IteratedConfig {
        &self.config
    }

    /// Runs the template and additionally reports the accepted Steiner
    /// points and the number of evaluation rounds.
    ///
    /// # Errors
    ///
    /// Returns [`SteinerError::Graph`] if the net is invalid or its pins
    /// are mutually unreachable.
    pub fn construct_traced<G: GraphView>(
        &self,
        g: &G,
        net: &Net,
    ) -> Result<IteratedOutcome, SteinerError>
    where
        H: IteratedBase<G>,
    {
        net.validate_in(g)?;
        // With an explicit candidate pool, each Dijkstra can stop early.
        // Screened rounds stop where the base says
        // (`IteratedBaseInfo::screened_runs`): at the source's radius, at
        // the terminals' MST bottleneck, or once `terminals ∪ pool` has
        // settled. The last serves any base whose queries stay within
        // that set: accepted Steiner points come from the pool, so every
        // future member-pair query hits a settled node. Either way every
        // tree is bit-identical to full runs; only the flooded area
        // shrinks.
        let runs = if self.config.screened {
            self.base.screened_runs()
        } else {
            ScreenedRuns::PoolTargets
        };
        let mut td = match (&self.config.pool, runs) {
            (CandidatePool::Explicit(_), ScreenedRuns::SourceRadius) => {
                TerminalDistances::compute_to_radius(g, net.terminals())?
            }
            (CandidatePool::Explicit(_), ScreenedRuns::Bottleneck) => {
                TerminalDistances::compute_to_bottleneck(g, net.terminals())?
            }
            (CandidatePool::Explicit(nodes), ScreenedRuns::PoolTargets)
                if self.base.supports_target_restricted_distances() =>
            {
                // The base may declare scan nodes of its own (ZEL's
                // meeting-point pool); the restricted runs must cover them
                // too, even if they differ from the template's pool.
                let extra = self.base.restricted_extra_targets();
                if extra.is_empty() {
                    TerminalDistances::compute_to_targets(g, net.terminals(), nodes)?
                } else {
                    let mut all: Vec<NodeId> = nodes.clone();
                    all.extend_from_slice(extra);
                    TerminalDistances::compute_to_targets(g, net.terminals(), &all)?
                }
            }
            _ => TerminalDistances::compute(g, net.terminals())?,
        };
        let mut current = self.base.cost_with(g, &td, None)?;
        // Accepted points leave the pool, so it never holds a member.
        let mut pool = self.candidate_pool(g, &td);
        let mut scored: Vec<(Weight, NodeId)> = Vec::new();
        let mut steiner_points: Vec<NodeId> = Vec::new();
        let mut rounds = 0usize;
        let traced = route_trace::enabled();
        let mut evaluated = 0u64;
        loop {
            rounds += 1;
            evaluated += pool.len() as u64;
            // Price every remaining candidate against the current set —
            // exactly in the default mode, with the base's per-round
            // upper bounds in screened mode.
            scored.clear();
            let round_timer = traced.then(|| route_trace::timer(Metric::SteinerScreenNs));
            if self.config.screened {
                self.base.screen_round(g, &td, &pool, &mut scored)?;
            } else {
                price_below(&pool, current, &mut scored, |t| {
                    self.base.cost_with(g, &td, Some(t)).ok()
                });
            }
            drop(round_timer);
            if scored.is_empty() {
                break;
            }
            scored.sort();
            let first_accepted = steiner_points.len();
            let mut misses = 0usize;
            for &(_, t) in &scored {
                // Re-verify against the (possibly grown) set with the exact
                // cost; the scores were computed before earlier acceptances
                // this round (and, in screened mode, are only upper bounds).
                let verify_timer = traced.then(|| route_trace::timer(Metric::SteinerVerifyNs));
                let c = self.base.cost_with(g, &td, Some(t))?;
                drop(verify_timer);
                if c < current {
                    td.push_terminal(g, t)?;
                    steiner_points.push(t);
                    current = c;
                    misses = 0;
                    if !self.config.batched {
                        break;
                    }
                } else if self.config.screened {
                    misses += 1;
                    if misses >= self.config.screen_patience {
                        break;
                    }
                }
            }
            let accepted = &steiner_points[first_accepted..];
            if accepted.is_empty() {
                break;
            }
            pool.retain(|v| !accepted.contains(v));
        }
        if traced {
            use route_trace::Counter;
            route_trace::count(Counter::SteinerCandidatesEvaluated, evaluated);
            route_trace::count(Counter::SteinerCandidatesAccepted, steiner_points.len() as u64);
            route_trace::count(Counter::SteinerRounds, rounds as u64);
        }
        let tree = self
            .base
            .build_with(g, &td, None)?
            .pruned_to(g, net.terminals())?;
        Ok(IteratedOutcome {
            tree,
            steiner_points,
            rounds,
        })
    }

    fn candidate_pool<G: GraphView>(&self, g: &G, td: &TerminalDistances) -> Vec<NodeId> {
        match &self.config.pool {
            CandidatePool::All => g
                .node_ids()
                .filter(|&v| td.index_of(v).is_none())
                .collect(),
            CandidatePool::Explicit(nodes) => nodes
                .iter()
                .copied()
                .filter(|&v| g.is_node_live(v) && td.index_of(v).is_none())
                .collect(),
            CandidatePool::NearNet { slack } => {
                let k = td.len();
                g.node_ids()
                    .filter(|&v| td.index_of(v).is_none())
                    .filter(|&v| {
                        for i in 0..k {
                            let Some(div) = td.dist_to_node(i, v) else {
                                return false;
                            };
                            for j in (i + 1)..k {
                                let (Some(djv), Some(dij)) =
                                    (td.dist_to_node(j, v), td.dist(i, j))
                                else {
                                    continue;
                                };
                                if div + djv <= dij + *slack {
                                    return true;
                                }
                            }
                        }
                        false
                    })
                    .collect()
            }
        }
    }
}

/// The result of [`Iterated::construct_traced`].
#[derive(Debug, Clone)]
pub struct IteratedOutcome {
    /// The final tree `H(G, N ∪ S)`, pruned to the original net.
    pub tree: RoutingTree,
    /// Accepted Steiner points, in acceptance order.
    pub steiner_points: Vec<NodeId>,
    /// Number of candidate-evaluation rounds performed.
    pub rounds: usize,
}

impl<H: IteratedBaseInfo> HeuristicInfo for Iterated<H> {
    fn name(&self) -> &str {
        &self.name
    }
}

impl<G: GraphView, H: IteratedBase<G>> SteinerHeuristic<G> for Iterated<H> {
    fn construct(&self, g: &G, net: &Net) -> Result<RoutingTree, SteinerError> {
        Ok(self.construct_traced(g, net)?.tree)
    }
}

/// Convenience constructor for **IKMB** — IGMST over [`Kmb`](crate::Kmb)
/// with the default configuration.
#[must_use]
pub fn ikmb() -> Iterated<crate::Kmb> {
    Iterated::new(crate::Kmb::new())
}

/// Convenience constructor for **IZEL** — IGMST over [`Zel`](crate::Zel)
/// with the default configuration.
#[must_use]
pub fn izel() -> Iterated<crate::Zel> {
    Iterated::new(crate::Zel::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kmb;
    use route_graph::{Graph, GraphError, GridGraph};

    /// The plus-shaped 4-terminal instance where one central Steiner point
    /// is the optimal join.
    fn plus_instance() -> (GridGraph, Net) {
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
        (grid, net)
    }

    #[test]
    fn ikmb_finds_the_center_steiner_point() {
        let (grid, net) = plus_instance();
        let outcome = ikmb().construct_traced(grid.graph(), &net).unwrap();
        // Optimal: star through the center (2,2) of total cost 8.
        assert_eq!(outcome.tree.cost(), Weight::from_units(8));
        assert!(outcome.tree.spans(&net));
        let center = grid.node_at(2, 2).unwrap();
        assert!(outcome.tree.contains_node(center));
    }

    #[test]
    fn ikmb_never_worse_than_kmb() {
        
        let mut rng = route_graph::rng::SplitMix64::seed_from_u64(99);
        for trial in 0..15 {
            let grid = GridGraph::new(7, 7, Weight::UNIT).unwrap();
            let pins = route_graph::random::random_net(grid.graph(), 5, &mut rng).unwrap();
            let net = Net::from_terminals(pins).unwrap();
            let kmb = Kmb::new().construct(grid.graph(), &net).unwrap();
            let ik = ikmb().construct(grid.graph(), &net).unwrap();
            assert!(ik.cost() <= kmb.cost(), "trial {trial}");
            assert!(ik.spans(&net));
        }
    }

    #[test]
    fn single_candidate_mode_matches_batched_cost_or_better() {
        let (grid, net) = plus_instance();
        let one_at_a_time = Iterated::with_config(
            Kmb::new(),
            IteratedConfig {
                batched: false,
                ..IteratedConfig::default()
            },
        );
        let t = one_at_a_time.construct(grid.graph(), &net).unwrap();
        assert_eq!(t.cost(), Weight::from_units(8));
    }

    #[test]
    fn near_net_pool_still_finds_the_center() {
        let (grid, net) = plus_instance();
        let restricted = Iterated::with_config(
            Kmb::new(),
            IteratedConfig {
                pool: CandidatePool::NearNet {
                    slack: Weight::ZERO,
                },
                ..IteratedConfig::default()
            },
        );
        let tree = restricted.construct(grid.graph(), &net).unwrap();
        assert_eq!(tree.cost(), Weight::from_units(8));
    }

    #[test]
    fn explicit_pool_restricts_candidates() {
        let (grid, net) = plus_instance();
        let center = grid.node_at(2, 2).unwrap();
        let only_center = Iterated::with_config(
            Kmb::new(),
            IteratedConfig {
                pool: CandidatePool::Explicit(vec![center]),
                ..IteratedConfig::default()
            },
        );
        let outcome = only_center.construct_traced(grid.graph(), &net).unwrap();
        // The pool admits only the center; it is either accepted (when the
        // base KMB tree was suboptimal) or unnecessary (when KMB's path
        // expansion already shared wire through it) — never any other node.
        assert!(outcome.steiner_points.len() <= 1);
        assert!(outcome
            .steiner_points
            .iter()
            .all(|&s| s == center));
        assert_eq!(outcome.tree.cost(), Weight::from_units(8));
    }

    #[test]
    fn rounds_stay_small() {
        // Paper §3: "the number of such rounds tends to be very small (≤ 3
        // for typical instances)" — plus the final no-improvement round.
        
        let mut rng = route_graph::rng::SplitMix64::seed_from_u64(4);
        let grid = GridGraph::new(8, 8, Weight::UNIT).unwrap();
        for _ in 0..10 {
            let pins = route_graph::random::random_net(grid.graph(), 6, &mut rng).unwrap();
            let net = Net::from_terminals(pins).unwrap();
            let outcome = ikmb().construct_traced(grid.graph(), &net).unwrap();
            assert!(outcome.rounds <= 4, "rounds = {}", outcome.rounds);
        }
    }

    #[test]
    fn figure6_style_instance_improves_kmb_via_two_steiner_points() {
        // Paper Figure 6 shows IKMB driving an initial KMB solution of cost
        // 7 down to the optimal 5 by accepting Steiner points S2 then S3.
        // We reproduce the same behaviour with a 6-node instance where the
        // two hub nodes form the optimal star (cost 5) but KMB, seeing only
        // strictly-cheaper direct terminal-terminal edges, builds cost 6.7:
        //   hubs:   A—s2 = B—s2 = C—s3 = D—s3 = 1, s2—s3 = 1
        //   direct: A—B = C—D = 1.9, B—C = 2.9
        let mut g = Graph::with_nodes(6);
        let n: Vec<NodeId> = g.node_ids().collect();
        let (a, b, c, d, s2, s3) = (n[0], n[1], n[2], n[3], n[4], n[5]);
        let u = Weight::from_units;
        let m = Weight::from_milli;
        g.add_edge(a, s2, u(1)).unwrap();
        g.add_edge(b, s2, u(1)).unwrap();
        g.add_edge(s2, s3, u(1)).unwrap();
        g.add_edge(c, s3, u(1)).unwrap();
        g.add_edge(d, s3, u(1)).unwrap();
        g.add_edge(a, b, m(1900)).unwrap();
        g.add_edge(c, d, m(1900)).unwrap();
        g.add_edge(b, c, m(2900)).unwrap();
        let net = Net::new(a, vec![b, c, d]).unwrap();
        let kmb = Kmb::new().construct(&g, &net).unwrap();
        assert_eq!(kmb.cost(), m(6700)); // A-B + B-C + C-D
        let outcome = ikmb().construct_traced(&g, &net).unwrap();
        assert_eq!(outcome.tree.cost(), u(5));
        assert!(outcome.steiner_points.contains(&s2));
        assert!(outcome.steiner_points.contains(&s3));
    }

    #[test]
    fn disconnected_net_errors() {
        let mut g = Graph::with_nodes(3);
        let n: Vec<NodeId> = g.node_ids().collect();
        g.add_edge(n[0], n[1], Weight::UNIT).unwrap();
        let net = Net::new(n[0], vec![n[2]]).unwrap();
        assert!(matches!(
            ikmb().construct(&g, &net),
            Err(SteinerError::Graph(GraphError::Disconnected { .. }))
        ));
    }
}
