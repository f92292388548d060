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

use std::cmp::Reverse;
use std::collections::HashMap;
use std::rc::Rc;

use crate::dijkstra::{KernelScratch, Reach};
use crate::dsu::UnionFind;
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
/// Each run goes as far as its constructor says: [`compute`] floods the
/// whole component, [`compute_to_targets`] stops once a target set has
/// settled, [`compute_to_radius`] stops at the source's radius, and
/// [`compute_to_bottleneck`] at the terminals' MST bottleneck. Under the
/// last two, a member pair may be settled by only one of its two runs,
/// or under the last by neither; [`dist`] reads whichever run settled
/// it, and [`all_connected`] reads connectivity from the settled pairs.
///
/// [`push_terminal`]: TerminalDistances::push_terminal
/// [`compute`]: TerminalDistances::compute
/// [`compute_to_targets`]: TerminalDistances::compute_to_targets
/// [`compute_to_radius`]: TerminalDistances::compute_to_radius
/// [`compute_to_bottleneck`]: TerminalDistances::compute_to_bottleneck
/// [`dist`]: TerminalDistances::dist
/// [`all_connected`]: TerminalDistances::all_connected
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
    /// How far every run, pushed ones included, settles.
    extent: Extent,
    /// Kernel buffers shared by every per-terminal run and every
    /// [`push_terminal`](Self::push_terminal).
    scratch: KernelScratch,
}

/// How far the runs of a [`TerminalDistances`] settle.
#[derive(Debug, Clone)]
enum Extent {
    /// The whole live component.
    Full,
    /// Until these nodes have settled; distances outside the set may be
    /// absent.
    Targets(Vec<NodeId>),
    /// The source radius `R` of
    /// [`compute_to_radius`](TerminalDistances::compute_to_radius).
    Radius(Weight),
    /// The bound `B` of
    /// [`compute_to_bottleneck`](TerminalDistances::compute_to_bottleneck);
    /// `None` while the settled pairs do not connect the terminals.
    Bottleneck(Option<Weight>),
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
        Self::compute_inner(g, terminals, Extent::Full)
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
        let mut targets: Vec<NodeId> = terminals.to_vec();
        // Dead extras can never settle and would defeat early
        // termination, silently degrading to a full-component run.
        targets.extend(extra_targets.iter().copied().filter(|&v| g.is_node_live(v)));
        targets.sort_unstable();
        targets.dedup();
        Self::compute_inner(g, terminals, Extent::Targets(targets))
    }

    /// Like [`compute`](Self::compute), but each run stops at the
    /// source's radius `R`, the largest distance from `terminals[0]` to
    /// another terminal.
    ///
    /// * The source's run settles every terminal, then every other node
    ///   no farther than `R`.
    /// * Every other run, and every later
    ///   [`push_terminal`](Self::push_terminal) run, settles each member
    ///   present when it starts, then every other node no farther than
    ///   `R` or the farthest of those members, ties included.
    ///
    /// So a node that a run leaves unsettled is strictly farther than `R`
    /// from that run's source, and every member pair is settled by the
    /// later of its two runs. This is what lets the screened iterated
    /// template stop its runs here for the bases that ask for it
    /// (`IteratedBaseInfo::screened_runs` in the `steiner-route` crate):
    /// a candidate beyond `R` cannot change their choices. If some
    /// terminal is unreachable from the source, every run floods its
    /// component.
    ///
    /// # Errors
    ///
    /// As [`compute`](Self::compute).
    pub fn compute_to_radius<G: GraphView>(
        g: &G,
        terminals: &[NodeId],
    ) -> Result<TerminalDistances, GraphError> {
        // The floor of the source's own run is zero: it stops at the
        // farthest terminal, which is `R` by definition.
        Self::compute_inner(g, terminals, Extent::Radius(Weight::ZERO))
    }

    /// Like [`compute_to_radius`](Self::compute_to_radius), but every run
    /// after the source's stops at the terminals' MST bottleneck `M(N)`,
    /// the heaviest edge of the distance-graph MST over the terminals
    /// `N`, rather than at `R`.
    ///
    /// * The runs go one at a time and are stored by terminal index. The
    ///   source's run is `compute_to_radius`'s: it settles every
    ///   terminal, then every node within `R`, ties included.
    /// * After each run, `B` is the heaviest edge of a Kruskal MST over
    ///   the member pairs settled so far, and unbounded while those pairs
    ///   do not connect `N`. `B` never rises, and never falls below
    ///   `M(N)`: the heaviest edge of any spanning tree is at least the
    ///   MST's.
    /// * Each later run settles every node within the current `B`, ties
    ///   included. It starts from the farthest terminal not yet run: the
    ///   one whose nearest run terminal is farthest away. A terminal that
    ///   no run has reached counts as farthest, and ties go to the lower
    ///   index. The order changes only how much is settled.
    /// * After the last terminal's run, `B = M(N)` exactly, since the
    ///   later run of every pair within `M(N)` settled it. Each
    ///   [`push_terminal`](Self::push_terminal) run then settles every
    ///   node within `M(N)`, ties included ([`bottleneck`](Self::bottleneck)
    ///   reads `B`).
    ///
    /// So every run settles the whole ball of radius `M(N)` around its
    /// source, with the distances and parents of a full run (a run
    /// stopped at a bound, ties closed, pops a prefix of the full run's
    /// pops), and every member pair within `M(N)` is settled. A pair that
    /// neither of its runs settled is farther apart than `M(N)`, and
    /// [`dist`](Self::dist) reports it absent. This is what the screened
    /// iterated KMB needs: it never decides on a distance above `M(N)`.
    /// If the terminals do not connect, `B` stays unbounded and every run
    /// floods its component.
    ///
    /// # Errors
    ///
    /// As [`compute`](Self::compute).
    pub fn compute_to_bottleneck<G: GraphView>(
        g: &G,
        terminals: &[NodeId],
    ) -> Result<TerminalDistances, GraphError> {
        check_terminals(g, terminals)?;
        let k = terminals.len();
        let mut scratch = KernelScratch::new();
        let mut runs: Vec<Option<Rc<ShortestPaths>>> = vec![None; k];
        // Each terminal's distance to its nearest run terminal, once a run
        // has reached it.
        let mut nearest: Vec<Option<Weight>> = vec![None; k];
        // A minimum spanning forest of the settled pairs, and B.
        let mut forest: Vec<(Weight, usize, usize)> = Vec::new();
        let mut uf = UnionFind::new(k);
        let mut bound = None;
        let mut i = 0;
        loop {
            // The source, terminal 0, runs first.
            let reach = match bound {
                _ if i == 0 => Reach::Radius(terminals, Weight::ZERO),
                Some(b) => Reach::Radius(&[], b),
                None => Reach::All,
            };
            let run = ShortestPaths::run_in(g, terminals[i], reach, &mut scratch)?;
            for (j, &t) in terminals.iter().enumerate() {
                if let Some(d) = run.dist(t).filter(|_| j != i) {
                    forest.push((d, i, j));
                    nearest[j] = Some(nearest[j].map_or(d, |n| n.min(d)));
                }
            }
            runs[i] = Some(Rc::new(run));
            // The forest's edges plus this run's pairs hold an MST of
            // every pair settled so far.
            forest.sort_unstable();
            uf.reset(k);
            forest.retain(|&(_, a, b)| uf.union(a, b));
            if uf.set_count() == 1 {
                bound = Some(forest.last().map_or(Weight::ZERO, |&(w, ..)| w));
            }
            let farthest = (0..k)
                .filter(|&j| runs[j].is_none())
                .min_by_key(|&j| Reverse((nearest[j].is_none(), nearest[j])));
            match farthest {
                Some(j) => i = j,
                None => break,
            }
        }
        Ok(TerminalDistances {
            terminals: terminals.to_vec(),
            sp: runs.into_iter().flatten().collect(),
            extent: Extent::Bottleneck(bound),
            scratch,
        })
    }

    fn compute_inner<G: GraphView>(
        g: &G,
        terminals: &[NodeId],
        mut extent: Extent,
    ) -> Result<TerminalDistances, GraphError> {
        check_terminals(g, terminals)?;
        let mut scratch = KernelScratch::new();
        let mut sp = Vec::with_capacity(terminals.len());
        for &t in terminals {
            let run = ShortestPaths::run_in(g, t, extent.reach(terminals), &mut scratch)?;
            if let Extent::Radius(r) = &mut extent {
                if sp.is_empty() {
                    // The source's run stopped at its farthest terminal:
                    // that distance is R for every later run.
                    *r = terminals
                        .iter()
                        .filter_map(|&u| run.dist(u))
                        .max()
                        .unwrap_or(Weight::ZERO);
                }
            }
            sp.push(Rc::new(run));
        }
        Ok(TerminalDistances {
            terminals: terminals.to_vec(),
            sp,
            extent,
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
    /// if they are disconnected, or if neither run settled the pair (under
    /// [`compute_to_bottleneck`](Self::compute_to_bottleneck), a pair
    /// farther apart than `M(N)`).
    ///
    /// Read from run `i`, or from run `j` if run `i` left `j` unsettled.
    /// Weights are symmetric and saturating sums do not depend on their
    /// order, so both runs agree wherever both settled.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is not a valid terminal index.
    #[must_use]
    pub fn dist(&self, i: usize, j: usize) -> Option<Weight> {
        self.sp[i]
            .dist(self.terminals[j])
            .or_else(|| self.sp[j].dist(self.terminals[i]))
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

    /// Concrete shortest path between terminals `i` and `j`, from run
    /// `i`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Disconnected`] if no path exists, or if run
    /// `i` stopped before `j`.
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
        // two members (all members are targets) remain exact. A radius
        // instance's new run settles every member, itself included; a
        // bottleneck instance's settles every node within `M(N)`.
        self.terminals.push(v);
        let reach = self.extent.reach(&self.terminals);
        match ShortestPaths::run_in(g, v, reach, &mut self.scratch) {
            Ok(run) => self.sp.push(Rc::new(run)),
            Err(e) => {
                self.terminals.pop();
                return Err(e);
            }
        }
        Ok(self.terminals.len() - 1)
    }

    /// Returns `true` if the settled member pairs connect every member:
    /// a union-find over the pairs that either of their runs settled.
    ///
    /// Under every constructor but
    /// [`compute_to_bottleneck`](Self::compute_to_bottleneck), each
    /// connected member pair is settled, so this is plain connectivity.
    /// Under that one, a pair farther apart than `M(N)` may be settled by
    /// neither run, so a pushed member can lie beyond every run of the
    /// source and still connect through another member. The pairs within
    /// `M(N)` connect the terminals whenever anything does, and a pushed
    /// member counts once some other member's run settled it, as every
    /// Steiner point the iterated template accepts was.
    #[must_use]
    pub fn all_connected(&self) -> bool {
        let k = self.len();
        let mut uf = UnionFind::new(k);
        for i in 0..k {
            for j in (i + 1)..k {
                if self.dist(i, j).is_some() && uf.union(i, j) && uf.set_count() == 1 {
                    return true;
                }
            }
        }
        uf.set_count() <= 1
    }

    /// The bound `B` of a
    /// [`compute_to_bottleneck`](Self::compute_to_bottleneck) instance:
    /// `M(N)`, the heaviest edge of the terminals' distance-graph MST.
    /// `None` for the other constructors, and when the terminals do not
    /// connect.
    #[must_use]
    pub fn bottleneck(&self) -> Option<Weight> {
        match self.extent {
            Extent::Bottleneck(bound) => bound,
            _ => None,
        }
    }
}

/// Rejects an empty terminal list, repeats, and removed or unknown
/// terminals.
fn check_terminals<G: GraphView>(g: &G, terminals: &[NodeId]) -> Result<(), GraphError> {
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
    Ok(())
}

impl Extent {
    /// How far a run that starts with `members` settles.
    fn reach<'a>(&'a self, members: &'a [NodeId]) -> Reach<'a> {
        match self {
            Extent::Full | Extent::Bottleneck(None) => Reach::All,
            Extent::Targets(targets) => Reach::Targets(targets),
            Extent::Radius(r) => Reach::Radius(members, *r),
            Extent::Bottleneck(Some(b)) => Reach::Radius(&[], *b),
        }
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
        let sp = Rc::new(ShortestPaths::run_in(g, source, Reach::All, &mut self.scratch)?);
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
    fn bottleneck_runs_stop_at_the_terminals_mst_bottleneck() {
        let (g, n) = path_graph(9);
        // R = 5 (n0 to n5); MST(N) = {n4–n5: 1, n0–n4: 4}, so M(N) = 4.
        let mut td = TerminalDistances::compute_to_bottleneck(&g, &[n[0], n[4], n[5]]).unwrap();
        assert_eq!(td.bottleneck(), Some(Weight::from_units(4)));
        // The source's run goes to R; n4's, the last to run, to M(N),
        // ties included.
        assert_eq!(td.dist_to_node(0, n[5]), Some(Weight::from_units(5)));
        assert_eq!(td.dist_to_node(0, n[6]), None);
        assert_eq!(td.dist_to_node(1, n[0]), Some(Weight::from_units(4)));
        assert_eq!(td.dist_to_node(1, n[8]), Some(Weight::from_units(4)));
        // A pushed member farther than R from the source: neither run
        // settles their pair, yet n4's run connects it.
        let p = td.push_terminal(&g, n[7]).unwrap();
        assert_eq!(td.dist_to_node(p, n[3]), Some(Weight::from_units(4)));
        assert_eq!(td.dist_to_node(p, n[2]), None);
        assert_eq!(td.dist(0, p), None);
        assert_eq!(td.dist(p, 1), Some(Weight::from_units(3)));
        assert!(td.all_connected());
    }

    #[test]
    fn disconnected_bottleneck_runs_flood() {
        let (mut g, n) = path_graph(6);
        let e = g
            .edge_ids()
            .find(|&e| g.endpoints(e).unwrap() == (n[2], n[3]))
            .unwrap();
        g.remove_edge(e).unwrap();
        let td = TerminalDistances::compute_to_bottleneck(&g, &[n[0], n[1], n[5]]).unwrap();
        assert_eq!(td.bottleneck(), None);
        assert_eq!(td.dist_to_node(0, n[2]), Some(Weight::from_units(2)));
        assert_eq!(td.dist_to_node(2, n[3]), Some(Weight::from_units(2)));
        assert!(!td.all_connected());
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
