//! Dijkstra single-source shortest paths, plain and goal-oriented.
//!
//! One generic kernel serves both modes. The heap priority is the tuple
//! `(dist + h(v), dist)`: under the zero potential that is `(d, d)`, which
//! compares exactly like the bare distance. Under an admissible consistent
//! potential the same loop becomes goal-oriented A* — settled distances
//! are unchanged and, with the canonical parent tie-break below, returned
//! paths are too (DESIGN.md §5g).
//!
//! The frontier is a lazy-deletion binary heap of `(rank, node)` entries
//! over a generation-stamped tentative-distance array: an improvement
//! pushes a fresh entry instead of decreasing a key in place, and an
//! entry whose node has already settled is skipped when it pops. Equal
//! ranks pop in ascending node index. Every per-query buffer lives in a
//! reusable [`KernelScratch`], so a query allocates nothing beyond the
//! [`ShortestPaths`] table it returns ([`minpath_with`] not even that).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::lowerbound::{Potential, ZeroPotential};
use crate::view::GraphView;
use crate::{EdgeId, GraphError, NodeId, Path, Weight};

/// Heap priority of a frontier node: `(dist ⊕ h(node), dist)`. The second
/// component makes key ties pop in ascending true distance, which the
/// identical-paths guarantee of the guided kernel relies on.
type Rank = (Weight, Weight);

/// A frontier entry: the rank, then the node index, so that equal ranks
/// pop in ascending node order.
type Entry = Reverse<(Rank, u32)>;

/// The packed `(node, edge)` parent of a source: it has none.
const NO_PARENT: (u32, u32) = (u32::MAX, u32::MAX);

/// The result of a Dijkstra run from one source: distances and parent links
/// for every settled live node.
///
/// This is the workhorse of every heuristic in the paper — `minpath_G(u, v)`
/// queries, distance-graph construction (KMB/ZEL/DOM), shortest-path trees
/// (DJKA), and the dominance relation of Definition 4.1 are all answered
/// from `ShortestPaths` instances.
///
/// Removed nodes and removed edges are ignored, so the same API serves both
/// virgin routing graphs and graphs with resources already committed to
/// earlier nets.
///
/// # Example
///
/// ```
/// use route_graph::{Graph, ShortestPaths, Weight};
///
/// # fn main() -> Result<(), route_graph::GraphError> {
/// let mut g = Graph::with_nodes(4);
/// let n: Vec<_> = g.node_ids().collect();
/// g.add_edge(n[0], n[1], Weight::from_units(1))?;
/// g.add_edge(n[1], n[3], Weight::from_units(1))?;
/// g.add_edge(n[0], n[2], Weight::from_units(5))?;
/// g.add_edge(n[2], n[3], Weight::from_units(5))?;
/// let sp = ShortestPaths::run(&g, n[0])?;
/// assert_eq!(sp.dist(n[3]), Some(Weight::from_units(2)));
/// assert_eq!(sp.path_to(n[3])?.nodes(), &[n[0], n[1], n[3]]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    source: NodeId,
    /// `dist[i]` is node `i`'s distance once it has settled; entries of
    /// unsettled nodes are meaningless.
    dist: Vec<Weight>,
    /// One bit per node, set when the node settles.
    settled: Vec<u64>,
    /// Packed `(node, edge)` indices of each settled node's parent
    /// ([`NO_PARENT`] for the source); meaningless for unsettled nodes.
    parent: Vec<(u32, u32)>,
}

impl ShortestPaths {
    /// Runs Dijkstra from `source` over the live part of `g`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] or [`GraphError::NodeRemoved`]
    /// if the source is invalid.
    pub fn run<G: GraphView>(g: &G, source: NodeId) -> Result<ShortestPaths, GraphError> {
        Self::run_in(g, source, None, &ZeroPotential, &mut KernelScratch::new())
    }

    /// Runs goal-oriented (A*) search from `source`, ordering the frontier
    /// by `dist + h(v)`. With an admissible consistent potential the
    /// settled distances — and, for positive edge weights, the returned
    /// paths — are exactly those of [`run`](ShortestPaths::run).
    ///
    /// Without an early exit the guidance only reorders work, so this
    /// variant pays off through [`run_to_targets_guided`]-style early
    /// termination; it exists so full-table callers can share one entry
    /// point when a potential is already in hand.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] or [`GraphError::NodeRemoved`]
    /// if the source is invalid.
    ///
    /// [`run_to_targets_guided`]: ShortestPaths::run_to_targets_guided
    pub fn run_guided<G: GraphView, P: Potential>(
        g: &G,
        source: NodeId,
        potential: &P,
    ) -> Result<ShortestPaths, GraphError> {
        Self::run_in(g, source, None, potential, &mut KernelScratch::new())
    }

    /// Runs Dijkstra from `source`, stopping early once every node in
    /// `targets` has been settled. Distances to unsettled nodes are absent.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] or [`GraphError::NodeRemoved`]
    /// if the source is invalid.
    pub fn run_to_targets<G: GraphView>(
        g: &G,
        source: NodeId,
        targets: &[NodeId],
    ) -> Result<ShortestPaths, GraphError> {
        Self::run_to_targets_guided(g, source, targets, &ZeroPotential)
    }

    /// Goal-oriented variant of [`run_to_targets`]: the frontier is ordered
    /// by `dist + h(v)`, so with a potential built for (a superset of)
    /// `targets` the search explores a corridor toward them instead of a
    /// full cost ball. Settled targets carry exactly the plain-Dijkstra
    /// distances and paths; *unsettled* nodes may differ (the guided run
    /// settles fewer of them — that is the speedup).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] or [`GraphError::NodeRemoved`]
    /// if the source is invalid.
    ///
    /// [`run_to_targets`]: ShortestPaths::run_to_targets
    pub fn run_to_targets_guided<G: GraphView, P: Potential>(
        g: &G,
        source: NodeId,
        targets: &[NodeId],
        potential: &P,
    ) -> Result<ShortestPaths, GraphError> {
        Self::run_in(
            g,
            source,
            Some(targets),
            potential,
            &mut KernelScratch::new(),
        )
    }

    /// Scratch-arena variant of [`run_to_targets`]: reuses the caller's
    /// frontier, tentative-distance and target-flag buffers instead of
    /// allocating them per query. The result is identical to the
    /// allocating entry point.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] or [`GraphError::NodeRemoved`]
    /// if the source is invalid.
    ///
    /// [`run_to_targets`]: ShortestPaths::run_to_targets
    pub fn run_to_targets_with<G: GraphView>(
        g: &G,
        source: NodeId,
        targets: &[NodeId],
        scratch: &mut KernelScratch,
    ) -> Result<ShortestPaths, GraphError> {
        Self::run_in(g, source, Some(targets), &ZeroPotential, scratch)
    }

    /// The query every entry point runs: from `source` until each node of
    /// `targets` has settled, or over the whole reachable component when
    /// `targets` is `None`, with all transient state in `scratch`.
    pub(crate) fn run_in<G: GraphView, P: Potential>(
        g: &G,
        source: NodeId,
        targets: Option<&[NodeId]>,
        potential: &P,
        scratch: &mut KernelScratch,
    ) -> Result<ShortestPaths, GraphError> {
        g.require_live_node(source)?;
        let n = g.node_count();
        let mut out = ShortestPaths {
            source,
            dist: vec![Weight::ZERO; n],
            settled: vec![0; n.div_ceil(64)],
            parent: vec![(0, 0); n],
        };
        let KernelScratch {
            search: state,
            flags,
        } = scratch;
        if flags.len() < n {
            flags.resize(n, false);
        }
        let mut missing = 0usize;
        for &t in targets.unwrap_or_default() {
            if t.index() < n && !flags[t.index()] {
                flags[t.index()] = true;
                missing += 1;
            }
        }
        let watch = targets.is_some();
        let done = |v: NodeId| {
            if flags[v.index()] {
                flags[v.index()] = false;
                missing -= 1;
            }
            watch && missing == 0
        };
        search(g, source, potential, state, done, |v, d, p| {
            out.dist[v] = d;
            out.settled[v / 64] |= 1 << (v % 64);
            out.parent[v] = p;
        });
        // Leave the flag buffer all-false for the next query (early exit
        // clears settled targets; unsettled ones are cleared here).
        for &t in targets.unwrap_or_default() {
            if t.index() < n {
                flags[t.index()] = false;
            }
        }
        Ok(out)
    }

    /// The source this run started from.
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.source
    }

    fn is_settled(&self, i: usize) -> bool {
        self.settled
            .get(i / 64)
            .is_some_and(|word| word & (1 << (i % 64)) != 0)
    }

    /// Shortest-path distance to `v`, or `None` if `v` was unreachable (or
    /// not settled under early termination).
    #[must_use]
    pub fn dist(&self, v: NodeId) -> Option<Weight> {
        self.is_settled(v.index()).then(|| self.dist[v.index()])
    }

    /// The parent `(node, edge)` of `v` in the shortest-path tree.
    ///
    /// `None` for the source and for unsettled nodes.
    #[must_use]
    pub fn parent(&self, v: NodeId) -> Option<(NodeId, EdgeId)> {
        if !self.is_settled(v.index()) {
            return None;
        }
        let (p, e) = self.parent[v.index()];
        (p != NO_PARENT.0).then_some((NodeId(p), EdgeId(e)))
    }

    /// Extracts the shortest path from the source to `target`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Disconnected`] if `target` was not reached.
    pub fn path_to(&self, target: NodeId) -> Result<Path, GraphError> {
        let cost = self.dist(target).ok_or(GraphError::Disconnected {
            from: self.source,
            to: target,
        })?;
        let mut nodes = vec![target];
        let mut edges = Vec::new();
        let mut cur = target;
        while let Some((p, e)) = self.parent(cur) {
            nodes.push(p);
            edges.push(e);
            cur = p;
        }
        nodes.reverse();
        edges.reverse();
        Ok(Path::from_raw(nodes, edges, cost))
    }

    /// Iterates over all `(node, distance)` pairs that were settled, in
    /// ascending node order.
    ///
    /// Under early termination the set stops at the last target to
    /// settle: every node ranked strictly below it has settled, but nodes
    /// *tied* with it (same rank) may or may not have, since the frontier
    /// breaks rank ties by node index. Callers of a target-restricted run
    /// should therefore read only its targets.
    pub fn reached(&self) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        (0..self.dist.len())
            .filter(|&i| self.is_settled(i))
            .map(|i| (NodeId::from_index(i), self.dist[i]))
    }
}

/// Per-node kernel state, valid only while `stamp` carries the current
/// query's generation.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// `gen` while queued, `gen + 1` once settled; anything else means
    /// the node has not been reached by the current query.
    stamp: u32,
    /// Packed `(node, edge)` of the best predecessor found so far.
    parent: (u32, u32),
    /// Tentative (final, once settled) distance.
    dist: Weight,
}

/// The frontier heap and per-node slots of one query.
#[derive(Debug, Default)]
struct SearchState {
    heap: BinaryHeap<Entry>,
    /// Even generation of the current query; see [`Slot::stamp`].
    gen: u32,
    slots: Vec<Slot>,
}

impl SearchState {
    /// Starts a query over nodes `0..n`: empties the heap and advances
    /// the generation, so every slot reads as unreached without being
    /// cleared. Returns the new generation.
    fn begin(&mut self, n: usize) -> u32 {
        if self.slots.len() < n {
            self.slots.resize(n, Slot::default());
        }
        self.heap.clear();
        self.gen = match self.gen.checked_add(2) {
            Some(gen) => gen,
            None => {
                // Generation wrap-around: old stamps could collide with
                // new ones, so clear them once and start over.
                for slot in &mut self.slots {
                    slot.stamp = 0;
                }
                2
            }
        };
        self.gen
    }

    /// The settled distance of `v` in the last query, if it settled.
    fn settled_dist(&self, v: NodeId) -> Option<Weight> {
        let slot = self.slots.get(v.index())?;
        (slot.stamp == self.gen + 1).then_some(slot.dist)
    }
}

/// Reusable per-query buffers for the shortest-path kernel.
///
/// One query's transient state — the frontier heap, the tentative
/// distances and parents, and the target flags — amounts to several
/// `O(node_count)` buffers. A scratch arena amortizes them across the
/// queries of one owner: [`TerminalDistances`](crate::TerminalDistances)
/// shares one across its per-terminal runs and appended terminals,
/// [`DistanceOracle`](crate::DistanceOracle) across its whole life.
///
/// Cloning yields an empty arena: a scratch holds no state between
/// queries, so there is nothing worth copying.
#[derive(Debug, Default)]
pub struct KernelScratch {
    search: SearchState,
    /// Target marks for early termination, all-false between queries.
    flags: Vec<bool>,
}

impl Clone for KernelScratch {
    fn clone(&self) -> KernelScratch {
        KernelScratch::default()
    }
}

impl KernelScratch {
    /// An empty scratch arena; buffers grow on first use.
    #[must_use]
    pub fn new() -> KernelScratch {
        KernelScratch::default()
    }
}

/// Runs one query over `state`: settles nodes from `source` in rank
/// order, reporting each to `settle` as `(node index, distance, packed
/// parent)`, until `done` returns `true` for a settled node or the
/// frontier empties.
fn search<G: GraphView, P: Potential>(
    g: &G,
    source: NodeId,
    potential: &P,
    state: &mut SearchState,
    done: impl FnMut(NodeId) -> bool,
    settle: impl FnMut(usize, Weight, (u32, u32)),
) {
    // Monomorphize the hot loop on the instrumentation flag so the
    // common untraced case carries no tally counters and no branches
    // — the relaxation loop is the router's hottest path and even
    // well-predicted branches there are measurable in the timing
    // bench.
    if route_trace::enabled() {
        search_impl::<G, P, true>(g, source, potential, state, done, settle);
    } else {
        search_impl::<G, P, false>(g, source, potential, state, done, settle);
    }
}

fn search_impl<G: GraphView, P: Potential, const TRACED: bool>(
    g: &G,
    source: NodeId,
    potential: &P,
    state: &mut SearchState,
    mut done: impl FnMut(NodeId) -> bool,
    mut settle: impl FnMut(usize, Weight, (u32, u32)),
) {
    // Tally locally and flush once at the end: a thread-local lookup
    // per edge would be measurable. Wall-clock is captured under the
    // same TRACED gate — untraced runs never touch the clock.
    let started = if TRACED {
        Some(std::time::Instant::now())
    } else {
        None
    };
    let mut pops = 0u64;
    let mut relaxations = 0u64;
    let mut pushes = 0u64;
    let gen = state.begin(g.node_count());
    let settled = gen + 1;
    let SearchState { heap, slots, .. } = state;
    slots[source.index()] = Slot {
        stamp: gen,
        parent: NO_PARENT,
        dist: Weight::ZERO,
    };
    heap.push(Reverse(((potential.h(source), Weight::ZERO), source.0)));
    if TRACED {
        pushes += 1;
    }
    while let Some(Reverse(((_, d), vi))) = heap.pop() {
        let slot = &mut slots[vi as usize];
        if slot.stamp == settled {
            continue; // superseded: a cheaper entry already settled it
        }
        // Entries are pushed only on strict improvement, so the first
        // entry of a node to pop is its current one.
        slot.stamp = settled;
        if TRACED {
            pops += 1;
        }
        settle(vi as usize, d, slot.parent);
        let v = NodeId(vi);
        if done(v) {
            break;
        }
        for (u, e, w) in g.neighbors(v) {
            if TRACED {
                relaxations += 1;
            }
            let slot = &mut slots[u.index()];
            if slot.stamp == settled {
                continue;
            }
            // Saturate: near-`Weight::MAX` congestion weights must rank
            // as "infinitely far", not panic the relaxation.
            let nd = d.saturating_add(w);
            let via = (vi, e.0);
            if slot.stamp == gen {
                if nd == slot.dist && via < slot.parent {
                    // Canonical tie-break: among equal-cost predecessors,
                    // keep the lexicographically smallest (node, edge)
                    // pair. This makes the chosen parent a function of the
                    // *set* of achieving predecessors rather than of their
                    // relaxation order, which is what lets the guided and
                    // plain kernels return bit-identical paths even though
                    // they relax in different orders (DESIGN.md §5g).
                    slot.parent = via;
                }
                if nd >= slot.dist {
                    continue;
                }
            }
            *slot = Slot {
                stamp: gen,
                parent: via,
                dist: nd,
            };
            heap.push(Reverse(((nd.saturating_add(potential.h(u)), nd), u.0)));
            if TRACED {
                pushes += 1;
            }
        }
    }
    if TRACED {
        route_trace::count(route_trace::Counter::DijkstraRuns, 1);
        route_trace::count(route_trace::Counter::DijkstraHeapPops, pops);
        route_trace::count(route_trace::Counter::DijkstraRelaxations, relaxations);
        route_trace::count(route_trace::Counter::HeapPushes, pushes);
        if !potential.is_zero() {
            // Whatever the early exit left queued is frontier work a
            // plain run would (mostly) have settled — the A* dividend.
            // Each still-queued node has exactly one current entry.
            let pruned = heap
                .iter()
                .filter(|&&Reverse(((_, d), u))| {
                    let slot = slots[u as usize];
                    slot.stamp == gen && slot.dist == d
                })
                .count();
            route_trace::count(route_trace::Counter::AstarPrunedNodes, pruned as u64);
        }
        if let Some(started) = started {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            route_trace::record_duration(route_trace::Metric::DijkstraRunNs, ns);
            route_trace::record_duration(route_trace::Metric::KernelQueryNs, ns);
        }
    }
}

/// Computes `minpath_G(u, v)` — the cost of a shortest path between two
/// nodes — with an early-terminating Dijkstra.
///
/// # Errors
///
/// Returns [`GraphError::NodeRemoved`] / [`GraphError::NodeOutOfBounds`] for
/// an invalid endpoint, or [`GraphError::Disconnected`] if no path exists.
pub fn minpath<G: GraphView>(g: &G, u: NodeId, v: NodeId) -> Result<Weight, GraphError> {
    minpath_with(g, u, v, &mut KernelScratch::new())
}

/// Goal-oriented variant of [`minpath`]: the early-terminating query is
/// steered by `potential` (built for a target set containing `v`). The
/// returned cost is identical to [`minpath`]'s.
///
/// # Errors
///
/// Returns [`GraphError::NodeRemoved`] / [`GraphError::NodeOutOfBounds`] for
/// an invalid endpoint, or [`GraphError::Disconnected`] if no path exists.
pub fn minpath_guided<G: GraphView, P: Potential>(
    g: &G,
    u: NodeId,
    v: NodeId,
    potential: &P,
) -> Result<Weight, GraphError> {
    minpath_in(g, u, v, potential, &mut KernelScratch::new())
}

/// Allocation-free variant of [`minpath`] over a scratch arena: the
/// frontier and tentative distances are reused across queries, and no
/// `ShortestPaths` table is materialized. Returns exactly what [`minpath`]
/// returns for the same arguments.
///
/// # Errors
///
/// Returns [`GraphError::NodeRemoved`] / [`GraphError::NodeOutOfBounds`] for
/// an invalid endpoint, or [`GraphError::Disconnected`] if no path exists.
pub fn minpath_with<G: GraphView>(
    g: &G,
    u: NodeId,
    v: NodeId,
    scratch: &mut KernelScratch,
) -> Result<Weight, GraphError> {
    minpath_in(g, u, v, &ZeroPotential, scratch)
}

fn minpath_in<G: GraphView, P: Potential>(
    g: &G,
    u: NodeId,
    v: NodeId,
    potential: &P,
    scratch: &mut KernelScratch,
) -> Result<Weight, GraphError> {
    g.require_live_node(v)?;
    g.require_live_node(u)?;
    let state = &mut scratch.search;
    search(g, u, potential, state, |settled| settled == v, |_, _, _| {});
    state
        .settled_dist(v)
        .ok_or(GraphError::Disconnected { from: u, to: v })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    /// The 6-node example commonly used to exercise Dijkstra.
    fn diamond() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::with_nodes(6);
        let n: Vec<NodeId> = g.node_ids().collect();
        let w = Weight::from_units;
        g.add_edge(n[0], n[1], w(7)).unwrap();
        g.add_edge(n[0], n[2], w(9)).unwrap();
        g.add_edge(n[0], n[5], w(14)).unwrap();
        g.add_edge(n[1], n[2], w(10)).unwrap();
        g.add_edge(n[1], n[3], w(15)).unwrap();
        g.add_edge(n[2], n[3], w(11)).unwrap();
        g.add_edge(n[2], n[5], w(2)).unwrap();
        g.add_edge(n[3], n[4], w(6)).unwrap();
        g.add_edge(n[4], n[5], w(9)).unwrap();
        (g, n)
    }

    #[test]
    fn classic_distances() {
        let (g, n) = diamond();
        let sp = ShortestPaths::run(&g, n[0]).unwrap();
        let d = |i: usize| sp.dist(n[i]).unwrap().as_milli() / 1000;
        assert_eq!(d(0), 0);
        assert_eq!(d(1), 7);
        assert_eq!(d(2), 9);
        assert_eq!(d(3), 20);
        assert_eq!(d(4), 20);
        assert_eq!(d(5), 11);
    }

    #[test]
    fn path_extraction_matches_distance() {
        let (g, n) = diamond();
        let sp = ShortestPaths::run(&g, n[0]).unwrap();
        for &t in &n {
            let p = sp.path_to(t).unwrap();
            assert_eq!(p.cost(), sp.dist(t).unwrap());
            assert_eq!(p.source(), n[0]);
            assert_eq!(p.target(), t);
        }
    }

    #[test]
    fn unreachable_is_none() {
        let g = Graph::with_nodes(2);
        let n: Vec<NodeId> = g.node_ids().collect();
        let sp = ShortestPaths::run(&g, n[0]).unwrap();
        assert_eq!(sp.dist(n[1]), None);
        assert!(matches!(
            sp.path_to(n[1]),
            Err(GraphError::Disconnected { .. })
        ));
        assert!(matches!(
            minpath(&g, n[0], n[1]),
            Err(GraphError::Disconnected { .. })
        ));
    }

    #[test]
    fn respects_removed_edges() {
        let (mut g, n) = diamond();
        // Remove the cheap 0-2-5 corridor; 0→5 must fall back to the direct
        // 14-weight edge.
        let e = g
            .edge_ids()
            .find(|&e| {
                let (a, b) = g.endpoints(e).unwrap();
                (a == n[2] && b == n[5]) || (a == n[5] && b == n[2])
            })
            .unwrap();
        g.remove_edge(e).unwrap();
        let sp = ShortestPaths::run(&g, n[0]).unwrap();
        assert_eq!(sp.dist(n[5]), Some(Weight::from_units(14)));
    }

    #[test]
    fn respects_removed_nodes() {
        let (mut g, n) = diamond();
        g.remove_node(n[2]).unwrap();
        let sp = ShortestPaths::run(&g, n[0]).unwrap();
        assert_eq!(sp.dist(n[5]), Some(Weight::from_units(14)));
        assert_eq!(sp.dist(n[2]), None);
    }

    #[test]
    fn removed_source_is_an_error() {
        let (mut g, n) = diamond();
        g.remove_node(n[0]).unwrap();
        assert!(matches!(
            ShortestPaths::run(&g, n[0]),
            Err(GraphError::NodeRemoved(_))
        ));
    }

    #[test]
    fn early_termination_settles_targets() {
        let (g, n) = diamond();
        let sp = ShortestPaths::run_to_targets(&g, n[0], &[n[1], n[2]]).unwrap();
        assert_eq!(sp.dist(n[1]), Some(Weight::from_units(7)));
        assert_eq!(sp.dist(n[2]), Some(Weight::from_units(9)));
        // Distant node 3 (distance 20) must not have been settled.
        assert_eq!(sp.dist(n[3]), None);
    }

    #[test]
    fn minpath_is_symmetric() {
        let (g, n) = diamond();
        for &u in &n {
            for &v in &n {
                assert_eq!(
                    minpath(&g, u, v).unwrap(),
                    minpath(&g, v, u).unwrap(),
                    "minpath({u},{v})"
                );
            }
        }
    }

    #[test]
    fn zero_weight_edges_are_handled() {
        let mut g = Graph::with_nodes(3);
        let n: Vec<NodeId> = g.node_ids().collect();
        g.add_edge(n[0], n[1], Weight::ZERO).unwrap();
        g.add_edge(n[1], n[2], Weight::ZERO).unwrap();
        let sp = ShortestPaths::run(&g, n[0]).unwrap();
        assert_eq!(sp.dist(n[2]), Some(Weight::ZERO));
        assert_eq!(sp.path_to(n[2]).unwrap().len(), 2);
    }

    #[test]
    fn scratch_survives_generation_wrap_around() {
        let (g, n) = diamond();
        let fresh = ShortestPaths::run_to_targets(&g, n[0], &[n[3], n[4]]).unwrap();
        let mut scratch = KernelScratch::new();
        // Leave stale stamps behind, then force the next queries across
        // the wrap: stale slots must read as unreached, not as settled.
        ShortestPaths::run_to_targets_with(&g, n[1], &[n[4]], &mut scratch).unwrap();
        scratch.search.gen = u32::MAX - 3;
        for _ in 0..3 {
            let sp =
                ShortestPaths::run_to_targets_with(&g, n[0], &[n[3], n[4]], &mut scratch).unwrap();
            for &v in &n {
                assert_eq!(sp.dist(v), fresh.dist(v), "dist({v})");
                assert_eq!(sp.parent(v), fresh.parent(v), "parent({v})");
            }
            assert_eq!(
                minpath_with(&g, n[0], n[4], &mut scratch).unwrap(),
                Weight::from_units(20)
            );
        }
        assert!(
            scratch.search.gen < 16,
            "the generation wrapped and restarted"
        );
    }

    #[test]
    fn parent_is_reported_for_settled_nodes_only() {
        let (g, n) = diamond();
        let sp = ShortestPaths::run_to_targets(&g, n[0], &[n[1]]).unwrap();
        assert_eq!(sp.parent(n[0]), None, "the source has no parent");
        assert_eq!(sp.parent(n[1]).map(|(p, _)| p), Some(n[0]));
        // n5 was queued (via the 14-weight edge) but never settled.
        assert_eq!(sp.dist(n[5]), None);
        assert_eq!(sp.parent(n[5]), None);
    }

    #[test]
    fn parallel_edges_pick_cheaper() {
        let mut g = Graph::with_nodes(2);
        let n: Vec<NodeId> = g.node_ids().collect();
        g.add_edge(n[0], n[1], Weight::from_units(5)).unwrap();
        let cheap = g.add_edge(n[0], n[1], Weight::from_units(2)).unwrap();
        let sp = ShortestPaths::run(&g, n[0]).unwrap();
        assert_eq!(sp.dist(n[1]), Some(Weight::from_units(2)));
        assert_eq!(sp.path_to(n[1]).unwrap().edges(), &[cheap]);
    }
}
