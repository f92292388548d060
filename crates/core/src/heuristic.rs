//! The heuristic traits shared by all constructions.

use route_graph::{Graph, GraphError, GraphView, NodeId, TerminalDistances, Weight};

use crate::{Net, RoutingTree, SteinerError};

/// Graph-independent identity of a heuristic.
///
/// Split off from [`SteinerHeuristic`] so a heuristic's name can be read
/// without naming (or inferring) the graph type it runs over.
pub trait HeuristicInfo {
    /// Short display name of the algorithm, matching the paper's tables
    /// (e.g. `"KMB"`, `"IKMB"`, `"PFA"`).
    fn name(&self) -> &str;
}

/// A routing-tree construction: given a graph view and a net, produce a
/// tree spanning the net.
///
/// Implemented by every algorithm in the paper — the Steiner heuristics
/// (KMB, ZEL, and the iterated IGMST instances) and the arborescence
/// heuristics (DJKA, DOM, PFA, IDOM). Arborescence heuristics honour the
/// net's source/sink distinction; Steiner heuristics ignore it.
///
/// The graph parameter defaults to [`Graph`], so `dyn SteinerHeuristic`
/// and existing `impl SteinerHeuristic for …` blocks keep working. The
/// paper's core constructions implement this for every [`GraphView`],
/// which lets the router drive them through each net's
/// [`LaneView`](route_graph::LaneView) without mutating the graph.
pub trait SteinerHeuristic<G: GraphView = Graph>: HeuristicInfo {
    /// Constructs a routing tree for `net` in `g`.
    ///
    /// # Errors
    ///
    /// Implementations return [`SteinerError::Graph`] when the net's pins
    /// are invalid or mutually unreachable in the live graph.
    fn construct(&self, g: &G, net: &Net) -> Result<RoutingTree, SteinerError>;
}

/// Graph-independent identity and distance-restriction contract of an
/// iterated base.
///
/// Split off from [`IteratedBase`] for the same reason as
/// [`HeuristicInfo`]: the iterated template needs the base's name and its
/// distance-restriction contract without fixing a graph type.
pub trait IteratedBaseInfo {
    /// Short display name of the base heuristic.
    fn base_name(&self) -> &str;

    /// Whether this base only ever queries [`TerminalDistances`] for
    /// distances and paths between members of the terminal set, the
    /// candidate, and the nodes named by
    /// [`restricted_extra_targets`](IteratedBaseInfo::restricted_extra_targets)
    /// — never to arbitrary graph nodes.
    ///
    /// Bases that return `true` can be driven by a
    /// [`TerminalDistances::compute_to_targets`] instance restricted to
    /// `terminals ∪ extra targets ∪ candidate pool`, turning each
    /// per-terminal Dijkstra from a whole-graph flood into an
    /// early-terminating neighborhood search with bit-identical results.
    /// KMB (distance-graph MST plus path expansion between members) and
    /// DOM (member-only dominance pricing) qualify unconditionally; ZEL
    /// and PFA qualify once their meeting-point/`MaxDom` scans are pinned
    /// to an explicit candidate pool. Bases whose scans roam all of `V`
    /// must leave this `false` and receive full runs.
    fn supports_target_restricted_distances(&self) -> bool {
        false
    }

    /// Extra nodes (beyond terminals and the iterated candidate pool)
    /// that a restricted [`TerminalDistances`] must still cover for this
    /// base's queries to stay exact.
    ///
    /// ZEL and PFA return their explicit scan pool here so standalone
    /// construction ([`construct_via_base`]) restricts each Dijkstra to
    /// `terminals ∪ pool` instead of flooding the graph.
    fn restricted_extra_targets(&self) -> &[NodeId] {
        &[]
    }

    /// How far each distance run of a screened round over an explicit
    /// candidate pool goes.
    ///
    /// [`ScreenedRuns::PoolTargets`], the default, keeps the runs that
    /// settle the whole pool. The other two stop earlier, at a bound (`R`
    /// or `M(N)`), and the template's half of their proof is what their
    /// [`TerminalDistances`] constructor guarantees: every run, pushed
    /// ones included, settles each node within that bound, ties included,
    /// with the full run's distances and parents, so a value a run leaves
    /// out is larger than the bound. A base that picks one of them
    /// supplies the other half: with such values left out, its
    /// [`screen_round`](IteratedBase::screen_round) scores the same
    /// candidates at the same prices, and its
    /// [`cost_with`](IteratedBase::cost_with) (of the reference and of
    /// every scored candidate) and [`build_with`](IteratedBase::build_with)
    /// of the member set return the same trees and costs. DOM picks the
    /// source's radius and KMB the bottleneck; each states its proof on
    /// its own implementation.
    fn screened_runs(&self) -> ScreenedRuns {
        ScreenedRuns::PoolTargets
    }
}

/// How far the distance runs of screened rounds over an explicit
/// candidate pool go; see [`IteratedBaseInfo::screened_runs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScreenedRuns {
    /// Until every terminal and pool node has settled
    /// ([`TerminalDistances::compute_to_targets`]), or over the whole
    /// component for a base without
    /// [`supports_target_restricted_distances`](IteratedBaseInfo::supports_target_restricted_distances).
    PoolTargets,
    /// To the source's radius `R`, the largest distance from the source
    /// to a terminal ([`TerminalDistances::compute_to_radius`]). A member
    /// pair is settled by the later of its two runs.
    SourceRadius,
    /// To the terminals' MST bottleneck `M(N)`
    /// ([`TerminalDistances::compute_to_bottleneck`]). A member pair
    /// farther apart than `M(N)` may be settled by neither run.
    Bottleneck,
}

/// A heuristic `H` usable inside the iterated IGMST/IDOM template
/// (paper §3, Figure 5; §4.2, Figure 12).
///
/// The template repeatedly prices Steiner candidates `t` by re-running `H`
/// over `N ∪ S ∪ {t}`. To avoid re-running Dijkstra for every candidate,
/// the shared shortest-path state lives in a [`TerminalDistances`] (covering
/// `N ∪ S`, source first) and the candidate is passed separately — its
/// distances to all members are read out of the members' own distance
/// vectors.
pub trait IteratedBase<G: GraphView = Graph>: IteratedBaseInfo {
    /// Builds the concrete tree `H(G, T ∪ {candidate})`, where `T` is the
    /// terminal set of `td` (with `td.terminals()[0]` acting as the source
    /// for arborescence bases).
    ///
    /// # Errors
    ///
    /// Returns [`SteinerError::Graph`] with
    /// [`GraphError::Disconnected`] if the extended terminal set cannot be
    /// spanned.
    fn build_with(
        &self,
        g: &G,
        td: &TerminalDistances,
        candidate: Option<NodeId>,
    ) -> Result<RoutingTree, SteinerError>;

    /// The cost `cost(H(G, T ∪ {candidate}))` used for Δ computations.
    ///
    /// The default builds the full tree; bases with a cheaper closed form
    /// (e.g. DOM's distance-graph arborescence cost) override this.
    ///
    /// # Errors
    ///
    /// Same conditions as [`build_with`](IteratedBase::build_with).
    fn cost_with(
        &self,
        g: &G,
        td: &TerminalDistances,
        candidate: Option<NodeId>,
    ) -> Result<Weight, SteinerError> {
        Ok(self.build_with(g, td, candidate)?.cost())
    }

    /// Prices one screened round of [`Iterated`](crate::Iterated): every
    /// candidate of `pool` against the terminal set `T` of `td`, pushing
    /// `(price, t)` onto `scored` for each candidate priced strictly below
    /// the round's reference.
    ///
    /// A price is an *upper bound* on `cost_with(Some(t))`, and the
    /// reference is the same bound for `T` alone; the template re-checks
    /// every scored candidate with the exact cost before accepting it.
    /// Candidates the bound cannot price (unreachable from the source)
    /// are left out. `pool` holds no member of `T`.
    ///
    /// The default prices each candidate with
    /// [`cost_with`](IteratedBase::cost_with) against the reference
    /// `cost_with(None)`. KMB overrides it with distance-graph MST prices
    /// and DOM with its exact cost, each over a summary of `T` built once
    /// per round.
    ///
    /// # Errors
    ///
    /// Returns the reference's error: [`GraphError::Disconnected`] if `T`
    /// cannot be spanned.
    fn screen_round(
        &self,
        g: &G,
        td: &TerminalDistances,
        pool: &[NodeId],
        scored: &mut Vec<(Weight, NodeId)>,
    ) -> Result<(), SteinerError> {
        let reference = self.cost_with(g, td, None)?;
        price_below(pool, reference, scored, |t| {
            self.cost_with(g, td, Some(t)).ok()
        });
        Ok(())
    }
}

/// Pushes `(price, t)` onto `scored` for every candidate `t` of `pool`
/// that `price` can price strictly below `reference`.
pub(crate) fn price_below(
    pool: &[NodeId],
    reference: Weight,
    scored: &mut Vec<(Weight, NodeId)>,
    mut price: impl FnMut(NodeId) -> Option<Weight>,
) {
    for &t in pool {
        if let Some(c) = price(t) {
            if c < reference {
                scored.push((c, t));
            }
        }
    }
}

/// Verifies that the settled pairs of `td` connect its members
/// ([`TerminalDistances::all_connected`]) and that some member's run
/// reached the optional candidate, returning an offending pair from
/// terminal 0 otherwise.
///
/// Neither check may read the source's run alone: runs that stop at the
/// terminals' MST bottleneck can leave a member or a reachable candidate
/// farther than the source's radius, settled only by another member's
/// run.
///
/// # Errors
///
/// Returns [`SteinerError::Graph`] with [`GraphError::Disconnected`].
pub(crate) fn require_connected(
    td: &TerminalDistances,
    candidate: Option<NodeId>,
) -> Result<(), SteinerError> {
    let t0 = td.terminals()[0];
    if !td.all_connected() {
        // Some member outside terminal 0's component has no settled
        // pair with it.
        let to = (1..td.len())
            .find(|&j| td.dist(0, j).is_none())
            .map_or(t0, |j| td.terminals()[j]);
        return Err(GraphError::Disconnected { from: t0, to }.into());
    }
    if let Some(c) = candidate {
        if (0..td.len()).all(|i| td.dist_to_node(i, c).is_none()) {
            return Err(GraphError::Disconnected { from: t0, to: c }.into());
        }
    }
    Ok(())
}

/// Standalone `construct` implementation shared by bases that are also
/// directly usable heuristics (KMB, ZEL, DOM): compute the terminal
/// distances, then build.
pub(crate) fn construct_via_base<G: GraphView, H: IteratedBase<G>>(
    base: &H,
    g: &G,
    net: &Net,
) -> Result<RoutingTree, SteinerError> {
    net.validate_in(g)?;
    // A base whose queries stay within the terminal set (plus its declared
    // extra targets) needs distances to those nodes only — stop each
    // Dijkstra as soon as the last of them settles.
    let td = if base.supports_target_restricted_distances() {
        TerminalDistances::compute_to_targets(g, net.terminals(), base.restricted_extra_targets())?
    } else {
        TerminalDistances::compute(g, net.terminals())?
    };
    base.build_with(g, &td, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use route_graph::GridGraph;

    #[test]
    fn require_connected_reports_the_pair() {
        let mut grid = GridGraph::new(1, 4, Weight::UNIT).unwrap();
        let n: Vec<NodeId> = (0..4).map(|c| grid.node_at(0, c).unwrap()).collect();
        let e = grid.edge_between(n[1], n[2]).unwrap();
        grid.graph_mut().remove_edge(e).unwrap();
        let td = TerminalDistances::compute(grid.graph(), &[n[0], n[3]]).unwrap();
        let err = require_connected(&td, None).unwrap_err();
        assert_eq!(
            err,
            SteinerError::Graph(GraphError::Disconnected {
                from: n[0],
                to: n[3]
            })
        );
        let td2 = TerminalDistances::compute(grid.graph(), &[n[0], n[1]]).unwrap();
        assert!(require_connected(&td2, None).is_ok());
        let err2 = require_connected(&td2, Some(n[3])).unwrap_err();
        assert_eq!(
            err2,
            SteinerError::Graph(GraphError::Disconnected {
                from: n[0],
                to: n[3]
            })
        );
    }
}
