//! The Path-Folding Arborescence (PFA) heuristic — paper §4.1, Figure 9.
//!
//! PFA generalizes the rectilinear RSA construction of Rao–Sadayappan–
//! Hwang–Shor to arbitrary weighted graphs. Starting from the set of net
//! nodes, it repeatedly picks the pair `{p, q}` whose farthest
//! doubly-dominated node `m = MaxDom(p, q)` maximizes `minpath(n0, m)`,
//! replaces the pair by `m`, and iterates; the final arborescence connects
//! each produced node to the nearest node it dominates. Folding paths at
//! far `MaxDom` points maximizes wire overlap while preserving the
//! shortest-paths property.

use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;

use route_graph::{EdgeId, GraphError, GraphView, NodeId, ShortestPaths, TerminalDistances, Weight};

use crate::dominance::dominates;
use crate::heuristic::{require_connected, HeuristicInfo, SteinerHeuristic};
use crate::igmst::CandidatePool;
use crate::subgraph::spt_over_edges;
use crate::{Net, RoutingTree, SteinerError};

/// The PFA arborescence heuristic.
///
/// Produces a tree in which every source-sink path is a shortest path of
/// the graph, with wirelength competitive with the best Steiner heuristics
/// (paper Table 1). Worst-case examples exist (paper Figures 10 and 11),
/// which the [`Idom`](crate::Idom) construction escapes.
///
/// # Example
///
/// ```
/// use route_graph::{GridGraph, Weight};
/// use steiner_route::{Net, Pfa, SteinerHeuristic};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = GridGraph::new(5, 5, Weight::UNIT)?;
/// let net = Net::new(
///     grid.node_at(0, 0)?,
///     vec![grid.node_at(4, 2)?, grid.node_at(2, 4)?],
/// )?;
/// let tree = Pfa::new().construct(grid.graph(), &net)?;
/// assert!(tree.is_shortest_paths_tree(grid.graph(), &net)?);
/// // Folding shares the common (0,0)→(2,2) stem: 4 + 2 + 2 = 8 < 6 + 6.
/// assert_eq!(tree.cost(), Weight::from_units(8));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pfa {
    pool: CandidatePool,
}

impl Pfa {
    /// Creates the heuristic with its `MaxDom` search ranging over all of
    /// `V` (the paper's formulation).
    #[must_use]
    pub fn new() -> Pfa {
        Pfa {
            pool: CandidatePool::All,
        }
    }

    /// Creates the heuristic with its `MaxDom` search restricted to an
    /// explicit pool.
    ///
    /// With [`CandidatePool::Explicit`], merge points are drawn from
    /// `terminals ∪ pool` only, every distance query lands inside that set,
    /// and the construction runs off target-restricted Dijkstra that stops
    /// near the net; other pool kinds behave like [`Pfa::new`].
    #[must_use]
    pub fn with_pool(pool: CandidatePool) -> Pfa {
        Pfa { pool }
    }

    /// The nodes the `MaxDom` scan may visit: `terminals ∪ pool`, live and
    /// deduplicated — or `None` when the scan ranges over all of `V`.
    fn scan_nodes<G: GraphView>(&self, g: &G, net: &Net) -> Option<Vec<NodeId>> {
        let CandidatePool::Explicit(pool) = &self.pool else {
            return None;
        };
        let mut set: Vec<NodeId> = net.terminals().to_vec();
        set.extend(pool.iter().copied());
        set.retain(|&v| g.is_node_live(v));
        set.sort_unstable();
        set.dedup();
        Some(set)
    }
}

impl HeuristicInfo for Pfa {
    fn name(&self) -> &str {
        "PFA"
    }
}

impl<G: GraphView> SteinerHeuristic<G> for Pfa {
    fn construct(&self, g: &G, net: &Net) -> Result<RoutingTree, SteinerError> {
        net.validate_in(g)?;
        let scan = self.scan_nodes(g, net);
        // A restricted scan needs distances at scan-set nodes only; every
        // query below lands on `terminals ∪ pool`, so restricted runs are
        // exact for them.
        let td = match scan.as_deref() {
            Some(set) => TerminalDistances::compute_to_targets(g, net.terminals(), set)?,
            None => TerminalDistances::compute(g, net.terminals())?,
        };
        require_connected(&td, None)?;
        let mut state = FoldState::new(g, net, &td, scan);
        state.fold_all()?;
        state.emit(g, net)
    }
}

/// Max-heap entry: candidate merge of the active pair `{p, q}` at the
/// doubly-dominated node `m` with source-distance `key`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Merge {
    key: Weight,
    m_tiebreak: std::cmp::Reverse<usize>,
    m: NodeId,
    p: NodeId,
    q: NodeId,
}

struct FoldState<'g, G: GraphView> {
    g: &'g G,
    source: NodeId,
    /// Source-distance vector (`d0`).
    d0: Rc<ShortestPaths>,
    /// Per-node shortest-path runs for every node that ever becomes active.
    sp: HashMap<NodeId, Rc<ShortestPaths>>,
    active: Vec<NodeId>,
    /// `M` of Figure 9: terminals plus every MaxDom produced.
    m_set: Vec<NodeId>,
    heap: BinaryHeap<Merge>,
    /// Restricted `MaxDom` scan set (`terminals ∪ pool`), or `None` for
    /// the full node set.
    scan: Option<Vec<NodeId>>,
}

impl<'g, G: GraphView> FoldState<'g, G> {
    fn new(
        g: &'g G,
        net: &Net,
        td: &TerminalDistances,
        scan: Option<Vec<NodeId>>,
    ) -> FoldState<'g, G> {
        let mut sp = HashMap::new();
        for (i, &t) in td.terminals().iter().enumerate() {
            sp.insert(t, td.shared_shortest_paths(i));
        }
        let d0 = td.shared_shortest_paths(0);
        let mut state = FoldState {
            g,
            source: net.source(),
            d0,
            sp,
            active: net.terminals().to_vec(),
            m_set: net.terminals().to_vec(),
            heap: BinaryHeap::new(),
            scan,
        };
        let snapshot = state.active.clone();
        for (i, &p) in snapshot.iter().enumerate() {
            for &q in &snapshot[i + 1..] {
                state.push_pair(p, q);
            }
        }
        state
    }

    /// Is `m` dominated by `p` (some shortest source→p path may pass
    /// through `m`)?
    fn dominated_by(&self, m: NodeId, p: NodeId) -> bool {
        let (Some(d0p), Some(d0m)) = (self.d0.dist(p), self.d0.dist(m)) else {
            return false;
        };
        let Some(dmp) = self.sp[&p].dist(m) else {
            return false;
        };
        dominates(d0p, d0m, dmp)
    }

    /// `MaxDom(p, q)`: the farthest-from-source node dominated by both,
    /// drawn from the scan set when the pool is restricted.
    fn max_dom(&self, p: NodeId, q: NodeId) -> Option<(NodeId, Weight)> {
        let mut best: Option<(Weight, std::cmp::Reverse<usize>, NodeId)> = None;
        let mut checks = 0u64;
        let mut consider = |m: NodeId| {
            checks += 1;
            if !self.dominated_by(m, p) || !self.dominated_by(m, q) {
                return;
            }
            let key = self.d0.dist(m).expect("dominated nodes are reachable");
            let entry = (key, std::cmp::Reverse(m.index()), m);
            if best.is_none_or(|b| entry > b) {
                best = Some(entry);
            }
        };
        match &self.scan {
            Some(set) => set.iter().copied().for_each(&mut consider),
            None => self.g.node_ids().for_each(&mut consider),
        }
        if route_trace::enabled() {
            route_trace::count(route_trace::Counter::PfaDominanceChecks, checks);
        }
        best.map(|(key, _, m)| (m, key))
    }

    fn push_pair(&mut self, p: NodeId, q: NodeId) {
        if let Some((m, key)) = self.max_dom(p, q) {
            self.heap.push(Merge {
                key,
                m_tiebreak: std::cmp::Reverse(m.index()),
                m,
                p,
                q,
            });
        }
    }

    fn is_active(&self, v: NodeId) -> bool {
        self.active.contains(&v)
    }

    fn fold_all(&mut self) -> Result<(), SteinerError> {
        while self.active.len() > 1 {
            let Some(Merge { m, p, q, .. }) = self.heap.pop() else {
                // Cannot occur: any active pair is doubly dominated at
                // least by the source-equivalent node.
                return Err(SteinerError::Graph(GraphError::Disconnected {
                    from: self.source,
                    to: self.active[0],
                }));
            };
            if p == q || !self.is_active(p) || !self.is_active(q) {
                continue; // stale entry
            }
            if route_trace::enabled() {
                route_trace::count(route_trace::Counter::PfaFolds, 1);
            }
            self.active.retain(|&v| v != p && v != q);
            if !self.sp.contains_key(&m) {
                // Merge points and their query partners all live in the
                // scan set, so a restricted run answers exactly.
                let run = Rc::new(match &self.scan {
                    Some(set) => ShortestPaths::run_to_targets(self.g, m, set)?,
                    None => ShortestPaths::run(self.g, m)?,
                });
                self.sp.insert(m, run);
            }
            if !self.m_set.contains(&m) {
                self.m_set.push(m);
            }
            if !self.is_active(m) {
                self.active.push(m);
            }
            let partners: Vec<NodeId> =
                self.active.iter().copied().filter(|&x| x != m).collect();
            for x in partners {
                self.push_pair(m, x);
            }
        }
        Ok(())
    }

    /// Figure 9's output step: connect each `p ∈ M` to the nearest node in
    /// `M` that `p` dominates, take the union, extract the source-rooted
    /// SPT, and prune non-terminal leaves.
    fn emit(&self, g: &G, net: &Net) -> Result<RoutingTree, SteinerError> {
        /// Attachment candidate ordering: (distance, tie-break key).
        type Attachment = ((Weight, (Weight, bool, usize)), NodeId);
        let key = |v: NodeId| -> (Weight, bool, usize) {
            (
                self.d0.dist(v).unwrap_or(Weight::MAX),
                v != self.source,
                v.index(),
            )
        };
        let mut union: Vec<EdgeId> = Vec::new();
        for &p in &self.m_set {
            if p == self.source {
                continue;
            }
            let mut best: Option<Attachment> = None;
            for &s in &self.m_set {
                if s == p || !self.dominated_by(s, p) || key(s) >= key(p) {
                    continue;
                }
                let dsp = self.sp[&p].dist(s).expect("dominated implies reachable");
                let entry = ((dsp, key(s)), s);
                if best.is_none_or(|b| entry < b) {
                    best = Some(entry);
                }
            }
            let (_, s) = best.expect("the source is always a dominated option");
            let path = self.sp[&p].path_to(s)?;
            union.extend_from_slice(path.edges());
        }
        let spt = spt_over_edges(g, &union, self.source)?;
        let tree = RoutingTree::from_edges(g, spt)?;
        tree.pruned_to(g, net.terminals())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use route_graph::{Graph, GridGraph};

    #[test]
    fn folds_shared_stems() {
        // Sinks at (4,2) and (2,4) share the (0,0)→(2,2) stem; MaxDom is
        // (2,2) and PFA must fold there: cost 8 instead of 12.
        let grid = GridGraph::new(5, 5, Weight::UNIT).unwrap();
        let net = Net::new(
            grid.node_at(0, 0).unwrap(),
            vec![grid.node_at(4, 2).unwrap(), grid.node_at(2, 4).unwrap()],
        )
        .unwrap();
        let tree = Pfa::new().construct(grid.graph(), &net).unwrap();
        assert_eq!(tree.cost(), Weight::from_units(8));
        assert!(tree.is_shortest_paths_tree(grid.graph(), &net).unwrap());
        assert!(tree.contains_node(grid.node_at(2, 2).unwrap()));
    }

    #[test]
    fn always_an_arborescence_on_random_nets() {
        
        let mut rng = route_graph::rng::SplitMix64::seed_from_u64(31);
        let grid = GridGraph::new(8, 8, Weight::UNIT).unwrap();
        for trial in 0..20 {
            let pins = route_graph::random::random_net(grid.graph(), 6, &mut rng).unwrap();
            let net = Net::from_terminals(pins).unwrap();
            let tree = Pfa::new().construct(grid.graph(), &net).unwrap();
            assert!(tree.spans(&net), "trial {trial}");
            assert!(
                tree.is_shortest_paths_tree(grid.graph(), &net).unwrap(),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn never_worse_than_dom() {
        // PFA's merge points range over all of V; DOM restricts them to the
        // net. Table 1 ranks PFA ≤ DOM in wirelength on average; check the
        // aggregate over a seeded batch.
        use crate::Dom;
        
        let mut rng = route_graph::rng::SplitMix64::seed_from_u64(32);
        let grid = GridGraph::new(8, 8, Weight::UNIT).unwrap();
        let mut pfa_total = Weight::ZERO;
        let mut dom_total = Weight::ZERO;
        for _ in 0..20 {
            let pins = route_graph::random::random_net(grid.graph(), 6, &mut rng).unwrap();
            let net = Net::from_terminals(pins).unwrap();
            pfa_total += Pfa::new().construct(grid.graph(), &net).unwrap().cost();
            dom_total += Dom::new().construct(grid.graph(), &net).unwrap().cost();
        }
        assert!(pfa_total <= dom_total);
    }

    #[test]
    fn two_pin_net_is_a_shortest_path() {
        let grid = GridGraph::new(6, 6, Weight::UNIT).unwrap();
        let net = Net::new(
            grid.node_at(1, 1).unwrap(),
            vec![grid.node_at(4, 5).unwrap()],
        )
        .unwrap();
        let tree = Pfa::new().construct(grid.graph(), &net).unwrap();
        assert_eq!(tree.cost(), Weight::from_units(7));
    }

    #[test]
    fn collinear_sinks_collapse_to_one_path() {
        let grid = GridGraph::new(1, 7, Weight::UNIT).unwrap();
        let net = Net::new(
            grid.node_at(0, 0).unwrap(),
            vec![
                grid.node_at(0, 3).unwrap(),
                grid.node_at(0, 5).unwrap(),
                grid.node_at(0, 6).unwrap(),
            ],
        )
        .unwrap();
        let tree = Pfa::new().construct(grid.graph(), &net).unwrap();
        assert_eq!(tree.cost(), Weight::from_units(6));
    }

    #[test]
    fn handles_zero_weight_edges() {
        let mut g = Graph::with_nodes(5);
        let n: Vec<NodeId> = g.node_ids().collect();
        g.add_edge(n[0], n[1], Weight::UNIT).unwrap();
        g.add_edge(n[1], n[2], Weight::ZERO).unwrap();
        g.add_edge(n[1], n[3], Weight::ZERO).unwrap();
        g.add_edge(n[2], n[4], Weight::UNIT).unwrap();
        let net = Net::new(n[0], vec![n[3], n[4]]).unwrap();
        let tree = Pfa::new().construct(&g, &net).unwrap();
        assert!(tree.spans(&net));
        assert!(tree.is_shortest_paths_tree(&g, &net).unwrap());
    }

    #[test]
    fn disconnected_net_errors() {
        let mut g = Graph::with_nodes(3);
        let n: Vec<NodeId> = g.node_ids().collect();
        g.add_edge(n[0], n[1], Weight::UNIT).unwrap();
        let net = Net::new(n[0], vec![n[2]]).unwrap();
        assert!(matches!(
            Pfa::new().construct(&g, &net),
            Err(SteinerError::Graph(GraphError::Disconnected { .. }))
        ));
    }
}
