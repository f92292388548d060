//! The *distance graph* over a terminal set, and a shortest-paths cache.
//!
//! The KMB and ZEL heuristics, the DOM arborescence construction, and both
//! iterated templates (IGMST, IDOM) all start from the complete graph `G'`
//! over a net `N` whose edge weights are shortest-path costs in `G` (paper
//! Appendix). Since the iterated constructions repeatedly re-evaluate their
//! base heuristic on `N ∪ S ∪ {t}` for thousands of candidates `t`, the
//! expensive part — one Dijkstra per terminal — must be shared across calls;
//! [`TerminalDistances`] provides exactly that factoring (paper §3:
//! "factoring out of H common computations, such as computing
//! shortest-paths").

use std::collections::HashMap;
use std::rc::Rc;

use crate::dijkstra::KernelScratch;
use crate::lowerbound::{Potential, ZeroPotential};
use crate::view::GraphView;
use crate::{GraphError, NodeId, Path, ShortestPaths, Weight};

/// Shortest-path distances (and paths) from every terminal of a net to
/// everywhere in the graph.
///
/// Conceptually this is the distance graph `G'` of the paper plus, for each
/// terminal, the full distance vector to all of `V` — which is what lets an
/// iterated construction price a Steiner candidate `t` against every
/// terminal without running any additional Dijkstra (the graph is
/// undirected, so `dist(t, n_i) = dist(n_i, t)`).
///
/// Terminals can be appended with [`push_terminal`], which is how accepted
/// Steiner points enter the working set of IGMST/IDOM.
///
/// [`push_terminal`]: TerminalDistances::push_terminal
///
/// # Example
///
/// ```
/// use route_graph::{Graph, TerminalDistances, Weight};
///
/// # fn main() -> Result<(), route_graph::GraphError> {
/// let mut g = Graph::with_nodes(3);
/// let n: Vec<_> = g.node_ids().collect();
/// g.add_edge(n[0], n[1], Weight::from_units(2))?;
/// g.add_edge(n[1], n[2], Weight::from_units(2))?;
/// let td = TerminalDistances::compute(&g, &[n[0], n[2]])?;
/// assert_eq!(td.dist(0, 1), Some(Weight::from_units(4)));
/// assert_eq!(td.dist_to_node(0, n[1]), Some(Weight::from_units(2)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TerminalDistances {
    terminals: Vec<NodeId>,
    sp: Vec<Rc<ShortestPaths>>,
    /// When `Some`, every run was early-terminated once these nodes were
    /// settled; distances outside the set may be absent. `None` means
    /// full runs — distances to the whole live component are available.
    targets: Option<Vec<NodeId>>,
    /// Kernel buffers shared by every per-terminal run and every
    /// [`push_terminal`](Self::push_terminal).
    scratch: KernelScratch,
}

impl TerminalDistances {
    /// Runs one full Dijkstra per terminal.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyTerminalSet`] for an empty list,
    /// [`GraphError::DuplicateTerminal`] for repeats, and node-validity
    /// errors for removed/unknown terminals.
    pub fn compute<G: GraphView>(
        g: &G,
        terminals: &[NodeId],
    ) -> Result<TerminalDistances, GraphError> {
        Self::compute_inner(g, terminals, None, &ZeroPotential)
    }

    /// Like [`compute`](Self::compute), but each per-terminal Dijkstra
    /// stops as soon as every terminal and every **live** node of
    /// `extra_targets` is settled, instead of settling the whole
    /// component.
    ///
    /// For the target set, queried distances and paths are *exactly*
    /// those a full run would report (Dijkstra settles in nondecreasing
    /// distance order, so truncation never changes the settled prefix);
    /// distances to nodes outside the target set may be absent even when
    /// the node is reachable. Callers must therefore confine their
    /// queries — including [`push_terminal`](Self::push_terminal), whose
    /// new source must itself be a target — to
    /// `terminals ∪ extra_targets`. On chip-scale routing graphs this
    /// turns the per-net distance computation from whole-graph into a
    /// neighborhood-sized search.
    ///
    /// # Errors
    ///
    /// As [`compute`](Self::compute).
    pub fn compute_to_targets<G: GraphView>(
        g: &G,
        terminals: &[NodeId],
        extra_targets: &[NodeId],
    ) -> Result<TerminalDistances, GraphError> {
        Self::compute_to_targets_guided(g, terminals, extra_targets, &ZeroPotential)
    }

    /// Goal-oriented variant of [`compute_to_targets`]: each per-terminal
    /// early-terminating Dijkstra is steered by `potential`, an admissible
    /// lower bound on the distance to the nearest member of
    /// `terminals ∪ extra_targets` (see [`lowerbound`](crate::lowerbound)).
    /// For every target-set query the distances and paths are exactly
    /// those of the plain computation — the guidance only shrinks the set
    /// of *extra* nodes each run happens to settle on the way.
    ///
    /// [`push_terminal`](Self::push_terminal) on a guided instance runs
    /// unguided (the potential is not retained); the appended terminal's
    /// distances are identical either way.
    ///
    /// # Errors
    ///
    /// As [`compute`](Self::compute).
    ///
    /// [`compute_to_targets`]: Self::compute_to_targets
    pub fn compute_to_targets_guided<G: GraphView, P: Potential>(
        g: &G,
        terminals: &[NodeId],
        extra_targets: &[NodeId],
        potential: &P,
    ) -> Result<TerminalDistances, GraphError> {
        let mut targets: Vec<NodeId> = terminals.to_vec();
        // Dead extras can never settle and would defeat early
        // termination, silently degrading to a full-component run.
        targets.extend(extra_targets.iter().copied().filter(|&v| g.is_node_live(v)));
        targets.sort_unstable();
        targets.dedup();
        Self::compute_inner(g, terminals, Some(targets), potential)
    }

    fn compute_inner<G: GraphView, P: Potential>(
        g: &G,
        terminals: &[NodeId],
        targets: Option<Vec<NodeId>>,
        potential: &P,
    ) -> Result<TerminalDistances, GraphError> {
        if terminals.is_empty() {
            return Err(GraphError::EmptyTerminalSet);
        }
        let mut seen = vec![false; g.node_count()];
        for &t in terminals {
            g.require_live_node(t)?;
            if seen[t.index()] {
                return Err(GraphError::DuplicateTerminal(t));
            }
            seen[t.index()] = true;
        }
        let mut scratch = KernelScratch::new();
        let sp = terminals
            .iter()
            .map(|&t| {
                ShortestPaths::run_in(g, t, targets.as_deref(), potential, &mut scratch)
                    .map(Rc::new)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TerminalDistances {
            terminals: terminals.to_vec(),
            sp,
            targets,
            scratch,
        })
    }

    /// The terminal list, in index order.
    #[must_use]
    pub fn terminals(&self) -> &[NodeId] {
        &self.terminals
    }

    /// Number of terminals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.terminals.len()
    }

    /// Returns `true` if there are no terminals (never, post-construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.terminals.is_empty()
    }

    /// Index of `v` within the terminal list, if it is a terminal.
    #[must_use]
    pub fn index_of(&self, v: NodeId) -> Option<usize> {
        self.terminals.iter().position(|&t| t == v)
    }

    /// Distance-graph edge weight between terminals `i` and `j`, or `None`
    /// if they are disconnected.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is not a valid terminal index.
    #[must_use]
    pub fn dist(&self, i: usize, j: usize) -> Option<Weight> {
        self.sp[i].dist(self.terminals[j])
    }

    /// Distance from terminal `i` to an arbitrary node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a valid terminal index.
    #[must_use]
    pub fn dist_to_node(&self, i: usize, v: NodeId) -> Option<Weight> {
        self.sp[i].dist(v)
    }

    /// Concrete shortest path between terminals `i` and `j`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Disconnected`] if no path exists.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is not a valid terminal index.
    pub fn path(&self, i: usize, j: usize) -> Result<Path, GraphError> {
        self.sp[i].path_to(self.terminals[j])
    }

    /// Concrete shortest path from terminal `i` to an arbitrary node.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Disconnected`] if no path exists.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a valid terminal index.
    pub fn path_to_node(&self, i: usize, v: NodeId) -> Result<Path, GraphError> {
        self.sp[i].path_to(v)
    }

    /// The full single-source run for terminal `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a valid terminal index.
    #[must_use]
    pub fn shortest_paths(&self, i: usize) -> &ShortestPaths {
        &self.sp[i]
    }

    /// Like [`shortest_paths`](Self::shortest_paths) but returns the shared
    /// handle, letting callers retain runs beyond the lifetime of this
    /// structure (PFA keeps runs for its merge bookkeeping).
    #[must_use]
    pub fn shared_shortest_paths(&self, i: usize) -> Rc<ShortestPaths> {
        Rc::clone(&self.sp[i])
    }

    /// Appends a new terminal (e.g. an accepted Steiner point), running one
    /// more Dijkstra. Returns its index.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateTerminal`] if `v` is already a
    /// terminal, plus node-validity errors.
    pub fn push_terminal<G: GraphView>(&mut self, g: &G, v: NodeId) -> Result<usize, GraphError> {
        if self.index_of(v).is_some() {
            return Err(GraphError::DuplicateTerminal(v));
        }
        g.require_live_node(v)?;
        // A target-restricted instance keeps the restriction: the new
        // run stops at the same target set, so cross-queries between any
        // two members (all members are targets) remain exact.
        let run = ShortestPaths::run_in(
            g,
            v,
            self.targets.as_deref(),
            &ZeroPotential,
            &mut self.scratch,
        )?;
        self.sp.push(Rc::new(run));
        self.terminals.push(v);
        Ok(self.terminals.len() - 1)
    }

    /// Returns `true` if every terminal can reach every other terminal.
    #[must_use]
    pub fn all_connected(&self) -> bool {
        (0..self.len()).all(|j| self.dist(0, j).is_some())
    }
}

/// A lazy, memoizing cache of [`ShortestPaths`] runs keyed by source node.
///
/// Useful when an algorithm discovers which sources it needs on the fly —
/// the PFA heuristic runs Dijkstra from every `MaxDom` merge point it
/// creates, and reuses runs when merge points repeat.
///
/// The oracle does not borrow a graph; each [`DistanceOracle::paths`] call
/// takes the view to answer against and remembers its [`GraphView::epoch`].
/// When a later call arrives with a different epoch — the graph was mutated,
/// or a different graph or view was passed — every cached run is stale and
/// the cache is flushed before answering.
#[derive(Debug, Default)]
pub struct DistanceOracle {
    cache: HashMap<NodeId, Rc<ShortestPaths>>,
    epoch: Option<u64>,
    /// Reusable kernel buffers for every query the oracle runs, cached
    /// ([`paths`](Self::paths)) or not ([`minpath`](Self::minpath),
    /// [`run_to_targets`](Self::run_to_targets)).
    scratch: KernelScratch,
}

impl DistanceOracle {
    /// Creates an empty oracle.
    #[must_use]
    pub fn new() -> DistanceOracle {
        DistanceOracle::default()
    }

    /// Returns (computing and caching on first use) the shortest-paths run
    /// from `source` in `g`.
    ///
    /// If `g`'s epoch differs from the epoch of the view that populated the
    /// cache, the stale entries are discarded first, so answers always
    /// reflect the view as passed.
    ///
    /// # Errors
    ///
    /// Returns node-validity errors for an invalid source.
    pub fn paths<G: GraphView>(
        &mut self,
        g: &G,
        source: NodeId,
    ) -> Result<Rc<ShortestPaths>, GraphError> {
        if self.epoch != Some(g.epoch()) {
            self.cache.clear();
            self.epoch = Some(g.epoch());
        }
        if let Some(sp) = self.cache.get(&source) {
            return Ok(Rc::clone(sp));
        }
        let sp = Rc::new(ShortestPaths::run_in(
            g,
            source,
            None,
            &ZeroPotential,
            &mut self.scratch,
        )?);
        self.cache.insert(source, Rc::clone(&sp));
        Ok(sp)
    }

    /// Computes `minpath_G(u, v)` over the oracle's scratch arena: the
    /// frontier and tentative distances are reused across calls
    /// instead of being reallocated per query. The answer is exactly
    /// [`dijkstra::minpath`](crate::dijkstra::minpath)'s, always computed
    /// fresh against `g` (no caching, so no epoch staleness to manage).
    ///
    /// # Errors
    ///
    /// As [`dijkstra::minpath`](crate::dijkstra::minpath).
    pub fn minpath<G: GraphView>(
        &mut self,
        g: &G,
        u: NodeId,
        v: NodeId,
    ) -> Result<Weight, GraphError> {
        crate::dijkstra::minpath_with(g, u, v, &mut self.scratch)
    }

    /// Early-terminating run over the oracle's scratch arena; identical
    /// results to [`ShortestPaths::run_to_targets`], minus the per-call
    /// frontier, tentative-distance and target-flag allocations.
    ///
    /// # Errors
    ///
    /// As [`ShortestPaths::run_to_targets`].
    pub fn run_to_targets<G: GraphView>(
        &mut self,
        g: &G,
        source: NodeId,
        targets: &[NodeId],
    ) -> Result<ShortestPaths, GraphError> {
        ShortestPaths::run_to_targets_with(g, source, targets, &mut self.scratch)
    }

    /// Number of distinct sources cached for the current epoch.
    #[must_use]
    pub fn cached_sources(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn path_graph(n: usize) -> (Graph, Vec<NodeId>) {
        let mut g = Graph::with_nodes(n);
        let ids: Vec<NodeId> = g.node_ids().collect();
        for i in 1..n {
            g.add_edge(ids[i - 1], ids[i], Weight::UNIT).unwrap();
        }
        (g, ids)
    }

    #[test]
    fn pairwise_distances_on_a_path() {
        let (g, n) = path_graph(5);
        let td = TerminalDistances::compute(&g, &[n[0], n[2], n[4]]).unwrap();
        assert_eq!(td.dist(0, 1), Some(Weight::from_units(2)));
        assert_eq!(td.dist(0, 2), Some(Weight::from_units(4)));
        assert_eq!(td.dist(1, 2), Some(Weight::from_units(2)));
        assert!(td.all_connected());
    }

    #[test]
    fn distances_are_symmetric() {
        let (g, n) = path_graph(6);
        let td = TerminalDistances::compute(&g, &[n[1], n[4], n[5]]).unwrap();
        for i in 0..td.len() {
            for j in 0..td.len() {
                assert_eq!(td.dist(i, j), td.dist(j, i));
            }
        }
    }

    #[test]
    fn rejects_empty_and_duplicate_terminals() {
        let (g, n) = path_graph(3);
        assert_eq!(
            TerminalDistances::compute(&g, &[]).unwrap_err(),
            GraphError::EmptyTerminalSet
        );
        assert_eq!(
            TerminalDistances::compute(&g, &[n[0], n[0]]).unwrap_err(),
            GraphError::DuplicateTerminal(n[0])
        );
    }

    #[test]
    fn push_terminal_extends() {
        let (g, n) = path_graph(4);
        let mut td = TerminalDistances::compute(&g, &[n[0], n[3]]).unwrap();
        let idx = td.push_terminal(&g, n[1]).unwrap();
        assert_eq!(idx, 2);
        assert_eq!(td.dist(2, 1), Some(Weight::from_units(2)));
        assert_eq!(
            td.push_terminal(&g, n[1]).unwrap_err(),
            GraphError::DuplicateTerminal(n[1])
        );
    }

    #[test]
    fn dist_to_arbitrary_node_and_paths() {
        let (g, n) = path_graph(5);
        let td = TerminalDistances::compute(&g, &[n[0], n[4]]).unwrap();
        assert_eq!(td.dist_to_node(1, n[2]), Some(Weight::from_units(2)));
        let p = td.path(0, 1).unwrap();
        assert_eq!(p.nodes(), &[n[0], n[1], n[2], n[3], n[4]]);
        let q = td.path_to_node(1, n[3]).unwrap();
        assert_eq!(q.nodes(), &[n[4], n[3]]);
    }

    #[test]
    fn disconnection_is_visible() {
        let (mut g, n) = path_graph(4);
        // Break the path between n1 and n2.
        let e = g
            .edge_ids()
            .find(|&e| g.endpoints(e).unwrap() == (n[1], n[2]))
            .unwrap();
        g.remove_edge(e).unwrap();
        let td = TerminalDistances::compute(&g, &[n[0], n[3]]).unwrap();
        assert_eq!(td.dist(0, 1), None);
        assert!(!td.all_connected());
    }

    #[test]
    fn target_restricted_distances_match_full_runs_on_targets() {
        let (g, n) = path_graph(8);
        let terminals = [n[0], n[4]];
        let pool = [n[1], n[2], n[3]];
        let full = TerminalDistances::compute(&g, &terminals).unwrap();
        let local = TerminalDistances::compute_to_targets(&g, &terminals, &pool).unwrap();
        for i in 0..terminals.len() {
            for j in 0..terminals.len() {
                assert_eq!(local.dist(i, j), full.dist(i, j));
            }
            for &v in &pool {
                assert_eq!(local.dist_to_node(i, v), full.dist_to_node(i, v));
                assert_eq!(
                    local.path_to_node(i, v).unwrap().nodes(),
                    full.path_to_node(i, v).unwrap().nodes()
                );
            }
        }
        // Far nodes beyond the target set are not settled...
        assert_eq!(local.dist_to_node(0, n[7]), None);
        // ...but the full computation still reaches them.
        assert_eq!(full.dist_to_node(0, n[7]), Some(Weight::from_units(7)));
    }

    #[test]
    fn target_restriction_survives_push_terminal() {
        let (g, n) = path_graph(8);
        let mut local =
            TerminalDistances::compute_to_targets(&g, &[n[0], n[4]], &[n[2]]).unwrap();
        let idx = local.push_terminal(&g, n[2]).unwrap();
        // The new member's run covers the target set exactly...
        assert_eq!(local.dist(idx, 0), Some(Weight::from_units(2)));
        assert_eq!(local.dist(idx, 1), Some(Weight::from_units(2)));
        // ...and still stops early.
        assert_eq!(local.dist_to_node(idx, n[7]), None);
    }

    #[test]
    fn dead_extra_targets_do_not_block_early_termination() {
        let (mut g, n) = path_graph(8);
        g.remove_node(n[6]).unwrap();
        let local =
            TerminalDistances::compute_to_targets(&g, &[n[0], n[2]], &[n[1], n[6]]).unwrap();
        assert_eq!(local.dist(0, 1), Some(Weight::from_units(2)));
        // The dead extra was dropped from the target set, so the run
        // terminated at n2 instead of flooding to the end of the path.
        assert_eq!(local.dist_to_node(0, n[5]), None);
    }

    #[test]
    fn oracle_caches_runs() {
        let (g, n) = path_graph(4);
        let mut oracle = DistanceOracle::new();
        let a = oracle.paths(&g, n[0]).unwrap();
        let b = oracle.paths(&g, n[0]).unwrap();
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(oracle.cached_sources(), 1);
        oracle.paths(&g, n[2]).unwrap();
        assert_eq!(oracle.cached_sources(), 2);
    }

    #[test]
    fn oracle_invalidates_on_epoch_change() {
        let (mut g, n) = path_graph(4);
        let mut oracle = DistanceOracle::new();
        let before = oracle.paths(&g, n[0]).unwrap();
        assert_eq!(before.dist(n[3]), Some(Weight::from_units(3)));

        // Mutating the graph bumps its epoch; the oracle must not serve
        // the stale run afterwards.
        let e = g.edge_ids().next().unwrap();
        g.add_weight(e, Weight::from_units(10)).unwrap();
        let after = oracle.paths(&g, n[0]).unwrap();
        assert!(!Rc::ptr_eq(&before, &after));
        assert_eq!(after.dist(n[3]), Some(Weight::from_units(13)));
        // The flush dropped every pre-mutation entry.
        assert_eq!(oracle.cached_sources(), 1);
    }
}
