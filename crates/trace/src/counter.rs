//! Algorithm counters: a fixed, cheap-to-increment set of event tallies.
//!
//! Counters answer "*where does the router spend effort*" questions that
//! wall-clock spans cannot: how many Dijkstra relaxations a pass cost, how
//! many Steiner candidates IGMST priced versus accepted, how many nets
//! each PathFinder iteration rerouted. The set is a closed enum
//! so increments compile to an array add with no hashing or allocation.

/// One kind of countable algorithm event.
///
/// The enum is `#[repr(usize)]` and dense, so a [`CounterSet`] stores one
/// `u64` slot per variant and increments are branch-free array adds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Dijkstra single-source runs started (including early-terminated).
    DijkstraRuns,
    /// Nodes settled by popping the Dijkstra priority queue.
    DijkstraHeapPops,
    /// Edge relaxations examined during Dijkstra runs.
    DijkstraRelaxations,
    /// Steiner candidates priced by the IGMST/IDOM iterated template.
    SteinerCandidatesEvaluated,
    /// Steiner candidates accepted into the growing Steiner set.
    SteinerCandidatesAccepted,
    /// Candidate-evaluation rounds executed by the iterated template.
    SteinerRounds,
    /// KMB constructions performed (distance-MST + expansion + prune).
    KmbConstructions,
    /// Terminal triples whose best meeting point ZEL evaluated.
    ZelTriplesEvaluated,
    /// Triples ZEL contracted (meeting point adopted into the net).
    ZelTriplesContracted,
    /// Pair merges folded at a `MaxDom` point by PFA.
    PfaFolds,
    /// Dominance tests performed by PFA's `MaxDom` scans.
    PfaDominanceChecks,
    /// Sink-to-dominated-node connections priced or built by DOM.
    DomConnections,
    /// Whole nets routed (every attempt, in either routing mode).
    NetsRouted,
    /// Working-graph clones taken (rip-up pass graphs and PathFinder's
    /// priced snapshot).
    GraphSnapshotClones,
    /// Negotiated-congestion iterations executed (route phase + cost
    /// update), converged or not.
    PathfinderIterations,
    /// Nodes found over capacity by negotiated-congestion convergence
    /// checks, summed across iterations.
    PathfinderOvercapacityNodes,
    /// History-cost accumulations applied by the negotiated-congestion
    /// cost-update phase (one per over-capacity node per iteration).
    PathfinderHistoryUpdates,
    /// Nets selected as dirty (touching an over-capacity node, or stale
    /// past the slack bound) and rerouted by a selective-mode iteration.
    PathfinderDirtyNets,
    /// Nets whose trees were kept as-is by a selective-mode iteration
    /// (their usage stays in the tally without a reroute).
    PathfinderSkippedNets,
    /// Edges rewritten by the negotiated-congestion cost update, full
    /// sweeps and incremental (delta) sweeps combined.
    PathfinderRepricedEdges,
    /// Frontier nodes a goal-oriented (A*) kernel query left unsettled
    /// in the heap at early exit — work plain Dijkstra would have done.
    AstarPrunedNodes,
    /// Heap inserts plus strict decrease-key accepts across all kernel
    /// queries (guided or plain).
    HeapPushes,
    /// Lower-bound potential constructions (grid-Manhattan or landmark
    /// tables) built for goal-oriented kernel queries.
    LowerboundBuilds,
}

impl Counter {
    /// Every counter, in declaration order (the dense index order).
    pub const ALL: [Counter; 23] = [
        Counter::DijkstraRuns,
        Counter::DijkstraHeapPops,
        Counter::DijkstraRelaxations,
        Counter::SteinerCandidatesEvaluated,
        Counter::SteinerCandidatesAccepted,
        Counter::SteinerRounds,
        Counter::KmbConstructions,
        Counter::ZelTriplesEvaluated,
        Counter::ZelTriplesContracted,
        Counter::PfaFolds,
        Counter::PfaDominanceChecks,
        Counter::DomConnections,
        Counter::NetsRouted,
        Counter::GraphSnapshotClones,
        Counter::PathfinderIterations,
        Counter::PathfinderOvercapacityNodes,
        Counter::PathfinderHistoryUpdates,
        Counter::PathfinderDirtyNets,
        Counter::PathfinderSkippedNets,
        Counter::PathfinderRepricedEdges,
        Counter::AstarPrunedNodes,
        Counter::HeapPushes,
        Counter::LowerboundBuilds,
    ];

    /// Stable snake_case name used in emitted JSON and summary tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::DijkstraRuns => "dijkstra_runs",
            Counter::DijkstraHeapPops => "dijkstra_heap_pops",
            Counter::DijkstraRelaxations => "dijkstra_relaxations",
            Counter::SteinerCandidatesEvaluated => "steiner_candidates_evaluated",
            Counter::SteinerCandidatesAccepted => "steiner_candidates_accepted",
            Counter::SteinerRounds => "steiner_rounds",
            Counter::KmbConstructions => "kmb_constructions",
            Counter::ZelTriplesEvaluated => "zel_triples_evaluated",
            Counter::ZelTriplesContracted => "zel_triples_contracted",
            Counter::PfaFolds => "pfa_folds",
            Counter::PfaDominanceChecks => "pfa_dominance_checks",
            Counter::DomConnections => "dom_connections",
            Counter::NetsRouted => "nets_routed",
            Counter::GraphSnapshotClones => "graph_snapshot_clones",
            Counter::PathfinderIterations => "pathfinder_iterations",
            Counter::PathfinderOvercapacityNodes => "pathfinder_overcapacity_nodes",
            Counter::PathfinderHistoryUpdates => "pathfinder_history_updates",
            Counter::PathfinderDirtyNets => "pathfinder_dirty_nets",
            Counter::PathfinderSkippedNets => "pathfinder_skipped_nets",
            Counter::PathfinderRepricedEdges => "pathfinder_repriced_edges",
            Counter::AstarPrunedNodes => "astar_pruned_nodes",
            Counter::HeapPushes => "heap_pushes",
            Counter::LowerboundBuilds => "lowerbound_builds",
        }
    }
}

/// A dense tally of every [`Counter`], mergeable across worker buffers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CounterSet {
    slots: [u64; Counter::ALL.len()],
}

impl CounterSet {
    /// An all-zero set.
    #[must_use]
    pub fn new() -> CounterSet {
        CounterSet::default()
    }

    /// Adds `n` to one counter, saturating at `u64::MAX`.
    pub fn add(&mut self, c: Counter, n: u64) {
        let slot = &mut self.slots[c as usize];
        *slot = slot.saturating_add(n);
    }

    /// The current tally of one counter.
    #[must_use]
    pub fn get(&self, c: Counter) -> u64 {
        self.slots[c as usize]
    }

    /// Folds another set into this one (per-worker buffer merge).
    pub fn merge(&mut self, other: &CounterSet) {
        for (dst, src) in self.slots.iter_mut().zip(other.slots.iter()) {
            *dst = dst.saturating_add(*src);
        }
    }

    /// `true` if every counter is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|&v| v == 0)
    }

    /// Iterates `(counter, value)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(move |&c| (c, self.get(c)))
    }

    /// Iterates only the counters with nonzero tallies.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        self.iter().filter(|&(_, v)| v != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_round_trip() {
        let mut s = CounterSet::new();
        assert!(s.is_empty());
        s.add(Counter::DijkstraHeapPops, 3);
        s.add(Counter::DijkstraHeapPops, 4);
        assert_eq!(s.get(Counter::DijkstraHeapPops), 7);
        assert_eq!(s.get(Counter::PfaFolds), 0);
        assert!(!s.is_empty());
    }

    #[test]
    fn merge_sums_slotwise() {
        let mut a = CounterSet::new();
        let mut b = CounterSet::new();
        a.add(Counter::NetsRouted, 2);
        b.add(Counter::NetsRouted, 5);
        b.add(Counter::HeapPushes, 1);
        a.merge(&b);
        assert_eq!(a.get(Counter::NetsRouted), 7);
        assert_eq!(a.get(Counter::HeapPushes), 1);
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        let mut a = CounterSet::new();
        a.add(Counter::NetsRouted, u64::MAX);
        a.add(Counter::NetsRouted, 10);
        assert_eq!(a.get(Counter::NetsRouted), u64::MAX);
        let mut b = CounterSet::new();
        b.add(Counter::NetsRouted, 1);
        a.merge(&b);
        assert_eq!(a.get(Counter::NetsRouted), u64::MAX);
    }

    #[test]
    fn names_are_unique_and_cover_all() {
        let names: std::collections::HashSet<&str> =
            Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Counter::ALL.len());
    }

    #[test]
    fn nonzero_iteration_skips_zeros() {
        let mut s = CounterSet::new();
        s.add(Counter::ZelTriplesEvaluated, 9);
        let nz: Vec<_> = s.iter_nonzero().collect();
        assert_eq!(nz, vec![(Counter::ZelTriplesEvaluated, 9)]);
    }
}
