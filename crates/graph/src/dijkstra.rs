//! Dijkstra single-source shortest paths, plain and goal-oriented.
//!
//! One generic kernel serves both modes. The heap priority is the tuple
//! `(dist + h(v), dist)`: under the zero potential that is `(d, d)`, which
//! compares exactly like the bare distance the historical kernel queued,
//! so plain runs are bit-identical to the pre-A* implementation. Under an
//! admissible consistent potential the same loop becomes goal-oriented A*
//! — settled distances are unchanged and, with the canonical parent
//! tie-break below, returned paths are too (DESIGN.md §5g).

use crate::heap::IndexedBinaryHeap;
use crate::lowerbound::{Potential, ZeroPotential};
use crate::view::GraphView;
use crate::{EdgeId, GraphError, NodeId, Path, Weight};

/// Heap priority of a frontier node: `(dist ⊕ h(node), dist)`. The second
/// component makes key ties pop in ascending true distance, which the
/// identical-paths guarantee of the guided kernel relies on.
type Rank = (Weight, Weight);

/// The result of a Dijkstra run from one source: distances and parent links
/// for every reachable live node.
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
    dist: Vec<Option<Weight>>,
    parent: Vec<Option<(NodeId, EdgeId)>>,
}

impl ShortestPaths {
    /// Runs Dijkstra from `source` over the live part of `g`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] or [`GraphError::NodeRemoved`]
    /// if the source is invalid.
    pub fn run<G: GraphView>(g: &G, source: NodeId) -> Result<ShortestPaths, GraphError> {
        let mut heap = IndexedBinaryHeap::new(g.node_count());
        Self::run_until(g, source, &ZeroPotential, &mut heap, |_| false)
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
        let mut heap = IndexedBinaryHeap::new(g.node_count());
        Self::run_until(g, source, potential, &mut heap, |_| false)
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
        let mut remaining: Vec<bool> = vec![false; g.node_count()];
        let mut missing = 0usize;
        for &t in targets {
            if t.index() < remaining.len() && !remaining[t.index()] {
                remaining[t.index()] = true;
                missing += 1;
            }
        }
        let mut heap = IndexedBinaryHeap::new(g.node_count());
        Self::run_until(g, source, potential, &mut heap, move |settled: NodeId| {
            if remaining[settled.index()] {
                remaining[settled.index()] = false;
                missing -= 1;
            }
            missing == 0
        })
    }

    /// Scratch-arena variant of [`run_to_targets`]: reuses the caller's
    /// heap and target-flag buffers instead of allocating per query. The
    /// result is identical to the allocating entry point.
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
        let n = g.node_count();
        scratch.reserve(n);
        let KernelScratch { heap, flags, .. } = scratch;
        heap.clear();
        let mut missing = 0usize;
        for &t in targets.iter() {
            if t.index() < n && !flags[t.index()] {
                flags[t.index()] = true;
                missing += 1;
            }
        }
        let res = Self::run_until(g, source, &ZeroPotential, heap, |settled: NodeId| {
            if flags[settled.index()] {
                flags[settled.index()] = false;
                missing -= 1;
            }
            missing == 0
        });
        // Leave the flag buffer all-false for the next query (early exit
        // clears settled targets; unsettled ones are cleared here).
        for &t in targets.iter() {
            if t.index() < n {
                flags[t.index()] = false;
            }
        }
        res
    }

    fn run_until<G: GraphView, P: Potential>(
        g: &G,
        source: NodeId,
        potential: &P,
        heap: &mut IndexedBinaryHeap<Rank>,
        done: impl FnMut(NodeId) -> bool,
    ) -> Result<ShortestPaths, GraphError> {
        // Monomorphize the hot loop on the instrumentation flag so the
        // common untraced case carries no tally counters and no branches
        // — the relaxation loop is the router's hottest path and even
        // well-predicted branches there are measurable in the timing
        // bench.
        if route_trace::enabled() {
            Self::run_until_impl::<G, P, true>(g, source, potential, heap, done)
        } else {
            Self::run_until_impl::<G, P, false>(g, source, potential, heap, done)
        }
    }

    fn run_until_impl<G: GraphView, P: Potential, const TRACED: bool>(
        g: &G,
        source: NodeId,
        potential: &P,
        heap: &mut IndexedBinaryHeap<Rank>,
        mut done: impl FnMut(NodeId) -> bool,
    ) -> Result<ShortestPaths, GraphError> {
        g.require_live_node(source)?;
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
        let n = g.node_count();
        let mut dist: Vec<Option<Weight>> = vec![None; n];
        let mut parent: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
        heap.ensure_keys(n);
        heap.push(source.index(), (potential.h(source), Weight::ZERO));
        if TRACED {
            pushes += 1;
        }
        while let Some((vi, (_, d))) = heap.pop() {
            if TRACED {
                pops += 1;
            }
            let v = NodeId::from_index(vi);
            dist[vi] = Some(d);
            if done(v) {
                break;
            }
            for (u, e, w) in g.neighbors(v) {
                if TRACED {
                    relaxations += 1;
                }
                if dist[u.index()].is_some() {
                    continue; // settled
                }
                // Saturate: near-`Weight::MAX` congestion weights must rank
                // as "infinitely far", not panic the relaxation.
                let nd = d.saturating_add(w);
                let rank: Rank = (nd.saturating_add(potential.h(u)), nd);
                if heap.push(u.index(), rank) {
                    if TRACED {
                        pushes += 1;
                    }
                    parent[u.index()] = Some((v, e));
                } else if heap.priority(u.index()) == Some(rank) {
                    // Canonical tie-break: among equal-cost predecessors,
                    // keep the lexicographically smallest (node, edge)
                    // pair. This makes the chosen parent a function of the
                    // *set* of achieving predecessors rather than of their
                    // relaxation order, which is what lets the guided and
                    // plain kernels return bit-identical paths even though
                    // they relax in different orders (DESIGN.md §5g).
                    if let Some((pv, pe)) = parent[u.index()] {
                        if (v.index(), e.index()) < (pv.index(), pe.index()) {
                            parent[u.index()] = Some((v, e));
                        }
                    }
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
                route_trace::count(route_trace::Counter::AstarPrunedNodes, heap.len() as u64);
            }
            if let Some(started) = started {
                let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                route_trace::record_duration(route_trace::Metric::DijkstraRunNs, ns);
                route_trace::record_duration(route_trace::Metric::KernelQueryNs, ns);
            }
        }
        Ok(ShortestPaths {
            source,
            dist,
            parent,
        })
    }

    /// The source this run started from.
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Shortest-path distance to `v`, or `None` if `v` was unreachable (or
    /// not settled under early termination).
    #[must_use]
    pub fn dist(&self, v: NodeId) -> Option<Weight> {
        self.dist.get(v.index()).copied().flatten()
    }

    /// The parent `(node, edge)` of `v` in the shortest-path tree.
    ///
    /// `None` for the source and for unreached nodes.
    #[must_use]
    pub fn parent(&self, v: NodeId) -> Option<(NodeId, EdgeId)> {
        self.parent.get(v.index()).copied().flatten()
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

    /// Iterates over all `(node, distance)` pairs that were settled.
    pub fn reached(&self) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        self.dist
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|d| (NodeId::from_index(i), d)))
    }
}

/// Reusable per-query buffers for the shortest-path kernel.
///
/// One query's transient state — the indexed heap, the target-flag vector,
/// and a generation-stamped distance array for point-to-point queries —
/// amounts to several `O(node_count)` allocations. A scratch arena (held
/// by [`DistanceOracle`](crate::DistanceOracle)) amortizes them across the
/// thousands of kernel queries a routing pass issues.
#[derive(Debug, Clone, Default)]
pub struct KernelScratch {
    /// Frontier heap, cleared (not reallocated) between queries.
    heap: IndexedBinaryHeap<Rank>,
    /// Target marks for early termination, all-false between queries.
    flags: Vec<bool>,
    /// Generation stamp validating `dist` entries without clearing them.
    stamp: u64,
    /// `dist[i]` is meaningful iff `dist_stamp[i] == stamp`.
    dist_stamp: Vec<u64>,
    dist: Vec<Weight>,
}

impl KernelScratch {
    /// An empty scratch arena; buffers grow on first use.
    #[must_use]
    pub fn new() -> KernelScratch {
        KernelScratch::default()
    }

    /// Grows every buffer to cover node indices `0..n`.
    fn reserve(&mut self, n: usize) {
        self.heap.ensure_keys(n);
        if self.flags.len() < n {
            self.flags.resize(n, false);
        }
        if self.dist_stamp.len() < n {
            self.dist_stamp.resize(n, 0);
            self.dist.resize(n, Weight::ZERO);
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
    g.require_live_node(v)?;
    let sp = ShortestPaths::run_to_targets(g, u, &[v])?;
    sp.dist(v)
        .ok_or(GraphError::Disconnected { from: u, to: v })
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
    g.require_live_node(v)?;
    let sp = ShortestPaths::run_to_targets_guided(g, u, &[v], potential)?;
    sp.dist(v)
        .ok_or(GraphError::Disconnected { from: u, to: v })
}

/// Allocation-free variant of [`minpath`] over a scratch arena: the heap
/// and distance array are reused across queries, and no
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
    g.require_live_node(v)?;
    g.require_live_node(u)?;
    let traced = route_trace::enabled();
    let started = if traced {
        Some(std::time::Instant::now())
    } else {
        None
    };
    let n = g.node_count();
    scratch.reserve(n);
    scratch.stamp = scratch.stamp.wrapping_add(1);
    let stamp = scratch.stamp;
    let KernelScratch {
        heap,
        dist_stamp,
        dist,
        ..
    } = scratch;
    heap.clear();
    let mut pops = 0u64;
    let mut relaxations = 0u64;
    let mut pushes = 1u64;
    heap.push(u.index(), (Weight::ZERO, Weight::ZERO));
    let mut found: Option<Weight> = None;
    while let Some((vi, (_, d))) = heap.pop() {
        pops += 1;
        dist_stamp[vi] = stamp;
        dist[vi] = d;
        if vi == v.index() {
            found = Some(d);
            break;
        }
        for (w_node, _, w) in g.neighbors(NodeId::from_index(vi)) {
            relaxations += 1;
            if dist_stamp[w_node.index()] == stamp {
                continue; // settled this query
            }
            let nd = d.saturating_add(w);
            if heap.push(w_node.index(), (nd, nd)) {
                pushes += 1;
            }
        }
    }
    if traced {
        route_trace::count(route_trace::Counter::DijkstraRuns, 1);
        route_trace::count(route_trace::Counter::DijkstraHeapPops, pops);
        route_trace::count(route_trace::Counter::DijkstraRelaxations, relaxations);
        route_trace::count(route_trace::Counter::HeapPushes, pushes);
        if let Some(started) = started {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            route_trace::record_duration(route_trace::Metric::DijkstraRunNs, ns);
            route_trace::record_duration(route_trace::Metric::KernelQueryNs, ns);
        }
    }
    found.ok_or(GraphError::Disconnected { from: u, to: v })
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
