//! The per-net routing view: one graph, packed once per net into
//! flat-CSR adjacency under the net's rules.
//!
//! [`Graph`](crate::Graph) stores one heap-allocated adjacency `Vec` per
//! node and resolves liveness per entry, so a Dijkstra relaxation sweep
//! hops between scattered allocations and re-checks flags on every
//! visit. A [`LaneView`] packs its base graph's usable adjacency once,
//! in one pass, into a [`LiveLane`]: one contiguous
//! `(neighbor, edge, weight)` array the relaxation hot loop walks with
//! no per-entry checks.
//!
//! The router routes every net against such a view of one base graph
//! (rip-up's working graph, or PathFinder's priced graph) under the
//! net's [`LaneRules`]:
//!
//! * **masking** — a node is live iff it is live in the base and not
//!   hidden; an edge is usable iff it is usable in the base and neither
//!   endpoint is hidden;
//! * **weights** — an edge weighs its base weight minus the discounts of
//!   both endpoints, floored at zero, plus the [`tilt`] when one is set;
//! * **order** — [`neighbors`](GraphView::neighbors) yields the base's
//!   order with the hidden entries dropped, so routing over the view is
//!   bit-identical to routing over a base clone mutated the same way;
//! * **epoch** — the base's epoch plus the number of packs the lane has
//!   taken, so it advances with every repack and every base mutation.
//!
//! The base is never mutated: masking a net's foreign pins or discounting
//! its previous route costs nothing to undo.

use crate::rng::SplitMix64;
use crate::view::GraphView;
use crate::{EdgeId, GraphError, NodeId, Weight};

/// Upper bound (inclusive, in milli-units) of [`tilt`]: far below any
/// whole-unit wire weight, so a tilt can only decide between otherwise
/// equally-priced alternatives.
const TILT_MASK: u64 = 15;

/// The tie-break tilt of edge `e` under `salt`: one SplitMix64 draw from
/// a seed mixing the salt and the edge index, in `0..=TILT_MASK`
/// milli-units. A pure function, so the tilt a net sees never depends on
/// which thread routes it.
#[must_use]
pub fn tilt(salt: u64, e: EdgeId) -> Weight {
    let seed = salt
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(e.index() as u64);
    Weight::from_milli(SplitMix64::seed_from_u64(seed).next_u64() & TILT_MASK)
}

/// What a [`LaneView`] hides of its base graph and how it reprices it.
/// The default hides nothing and keeps every base weight.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneRules<'r> {
    /// `hidden[v]` hides node `v`; nodes past the end stay visible.
    pub hidden: &'r [bool],
    /// `discount[v]` is subtracted from the weight of every edge at `v`;
    /// nodes past the end carry none.
    pub discount: &'r [Weight],
    /// `Some(salt)` adds [`tilt`]`(salt, e)` to every edge `e`.
    pub tilt: Option<u64>,
}

impl LaneRules<'_> {
    fn hides(&self, v: NodeId) -> bool {
        self.hidden.get(v.index()).copied().unwrap_or(false)
    }

    fn discount(&self, v: NodeId) -> Weight {
        self.discount
            .get(v.index())
            .copied()
            .unwrap_or(Weight::ZERO)
    }

    /// Edge `e = (a, b)` of base weight `w` under these rules.
    fn price(&self, w: Weight, a: NodeId, b: NodeId, e: EdgeId) -> Weight {
        let w = w
            .saturating_sub(self.discount(a))
            .saturating_sub(self.discount(b));
        match self.tilt {
            Some(salt) => w.saturating_add(tilt(salt, e)),
            None => w,
        }
    }
}

/// The packed adjacency behind a [`LaneView`]: entries
/// `offsets[v]..offsets[v + 1]` are `v`'s `(neighbor, edge, weight)`
/// triples.
///
/// Repacking reuses both buffers, so a lane that outlives many packs
/// (one per routed net) allocates only while it grows.
#[derive(Debug, Clone, Default)]
pub struct LiveLane {
    offsets: Vec<u32>,
    entries: Vec<(NodeId, EdgeId, Weight)>,
    /// Nodes live in the base that the last pack hid.
    hidden_live: usize,
    /// Packs taken so far; advances the view's epoch.
    packs: u64,
}

impl LiveLane {
    /// An empty lane; buffers grow on the first pack.
    #[must_use]
    pub fn new() -> LiveLane {
        LiveLane::default()
    }

    /// Replaces the lane's contents with `base`'s usable adjacency under
    /// `rules`. `O(nodes + edges)`.
    fn pack<G: GraphView>(&mut self, base: &G, rules: LaneRules<'_>) {
        self.offsets.clear();
        self.entries.clear();
        self.hidden_live = 0;
        self.packs = self.packs.wrapping_add(1);
        self.offsets.push(0);
        for i in 0..base.node_count() {
            let v = NodeId::from_index(i);
            if base.is_node_live(v) {
                if rules.hides(v) {
                    self.hidden_live += 1;
                } else {
                    for (u, e, w) in base.neighbors(v) {
                        if !rules.hides(u) {
                            self.entries.push((u, e, rules.price(w, v, u, e)));
                        }
                    }
                }
            }
            // lint: allow(panic-hygiene): a routing graph with 2^32 adjacency entries is far beyond any device this router models
            let end = u32::try_from(self.entries.len()).expect("adjacency fits u32 offsets");
            self.offsets.push(end);
        }
    }

    /// `v`'s packed triples (none for nodes beyond the packed range).
    fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId, Weight)> + '_ {
        let range = match (self.offsets.get(v.index()), self.offsets.get(v.index() + 1)) {
            (Some(&start), Some(&end)) => start as usize..end as usize,
            _ => 0..0,
        };
        self.entries[range].iter().copied()
    }
}

/// One net's view of a base graph under [`LaneRules`], with its usable
/// adjacency packed into a [`LiveLane`] (see the [module docs](self)
/// for the contract).
///
/// # Example
///
/// ```
/// use route_graph::{Graph, GraphView, LaneRules, LaneView, LiveLane, Weight};
///
/// # fn main() -> Result<(), route_graph::GraphError> {
/// let mut g = Graph::with_nodes(3);
/// let n: Vec<_> = g.node_ids().collect();
/// let e = g.add_edge(n[0], n[1], Weight::from_units(2))?;
/// g.add_edge(n[1], n[2], Weight::from_units(3))?;
/// let hidden = [false, false, true];
/// let discount = [Weight::UNIT];
/// let rules = LaneRules { hidden: &hidden, discount: &discount, tilt: None };
/// let mut lane = LiveLane::new();
/// let view = LaneView::pack(&g, &mut lane, rules);
/// assert_eq!(view.neighbors(n[1]).count(), 1);
/// assert!(!view.is_node_live(n[2]));
/// assert_eq!(view.weight(e)?, Weight::UNIT);
/// assert_eq!(g.weight(e)?, Weight::from_units(2)); // the base is untouched
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LaneView<'a, G> {
    base: &'a G,
    lane: &'a LiveLane,
    rules: LaneRules<'a>,
}

impl<'a, G: GraphView> LaneView<'a, G> {
    /// Packs `base` under `rules` into `lane`, in one pass, and returns
    /// the view over it.
    ///
    /// # Panics
    ///
    /// Panics if the view has `u32::MAX` or more adjacency entries.
    pub fn pack(base: &'a G, lane: &'a mut LiveLane, rules: LaneRules<'a>) -> LaneView<'a, G> {
        lane.pack(base, rules);
        LaneView { base, lane, rules }
    }
}

impl<G: GraphView> GraphView for LaneView<'_, G> {
    fn node_count(&self) -> usize {
        self.base.node_count()
    }

    fn edge_count(&self) -> usize {
        self.base.edge_count()
    }

    fn live_node_count(&self) -> usize {
        self.base
            .live_node_count()
            .saturating_sub(self.lane.hidden_live)
    }

    fn live_edge_count(&self) -> usize {
        self.base.live_edge_count()
    }

    fn is_node_live(&self, v: NodeId) -> bool {
        self.base.is_node_live(v) && !self.rules.hides(v)
    }

    fn is_edge_usable(&self, e: EdgeId) -> bool {
        self.base.is_edge_usable(e)
            && self
                .base
                .endpoints(e)
                .is_ok_and(|(a, b)| !self.rules.hides(a) && !self.rules.hides(b))
    }

    fn endpoints(&self, e: EdgeId) -> Result<(NodeId, NodeId), GraphError> {
        self.base.endpoints(e)
    }

    fn weight(&self, e: EdgeId) -> Result<Weight, GraphError> {
        let w = self.base.weight(e)?;
        let (a, b) = self.base.endpoints(e)?;
        Ok(self.rules.price(w, a, b, e))
    }

    fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId, Weight)> + '_ {
        self.lane.neighbors(v)
    }

    fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.base.node_ids().filter(|&v| !self.rules.hides(v))
    }

    fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.base.edge_ids().filter(|&e| {
            self.base
                .endpoints(e)
                .is_ok_and(|(a, b)| !self.rules.hides(a) && !self.rules.hides(b))
        })
    }

    fn epoch(&self) -> u64 {
        self.base.epoch().wrapping_add(self.lane.packs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, ShortestPaths};

    /// A small graph with removed nodes, removed edges, and parallel
    /// edges — every liveness case the view must preserve.
    fn mutated_graph() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::with_nodes(6);
        let n: Vec<NodeId> = g.node_ids().collect();
        let w = Weight::from_units;
        g.add_edge(n[0], n[1], w(1)).unwrap();
        g.add_edge(n[1], n[2], w(2)).unwrap();
        g.add_edge(n[1], n[2], w(1)).unwrap();
        g.add_edge(n[2], n[3], w(3)).unwrap();
        let cut = g.add_edge(n[0], n[3], w(1)).unwrap();
        g.add_edge(n[3], n[4], w(1)).unwrap();
        g.add_edge(n[4], n[5], w(2)).unwrap();
        g.remove_edge(cut).unwrap();
        g.remove_node(n[5]).unwrap();
        (g, n)
    }

    /// Every observable of `view` equals `model`'s.
    fn assert_same_surface<G: GraphView>(view: &LaneView<'_, G>, model: &Graph) {
        assert_eq!(view.node_count(), model.node_count());
        assert_eq!(view.edge_count(), model.edge_count());
        assert_eq!(view.live_node_count(), model.live_node_count());
        assert_eq!(view.live_edge_count(), model.live_edge_count());
        assert_eq!(
            view.node_ids().collect::<Vec<_>>(),
            model.node_ids().collect::<Vec<_>>()
        );
        assert_eq!(
            view.edge_ids().collect::<Vec<_>>(),
            model.edge_ids().collect::<Vec<_>>()
        );
        for i in 0..model.edge_count() {
            let e = EdgeId::from_index(i);
            assert_eq!(view.is_edge_usable(e), model.is_edge_usable(e), "{e}");
            assert_eq!(view.weight(e), model.weight(e), "{e}");
            assert_eq!(view.endpoints(e), model.endpoints(e), "{e}");
        }
        for v in (0..=model.node_count()).map(NodeId::from_index) {
            assert_eq!(view.is_node_live(v), model.is_node_live(v), "{v}");
            assert_eq!(
                view.neighbors(v).collect::<Vec<_>>(),
                model.neighbors(v).collect::<Vec<_>>(),
                "adjacency of {v} must match in content and order"
            );
        }
    }

    #[test]
    fn default_rules_mirror_the_base() {
        let (g, _) = mutated_graph();
        let mut lane = LiveLane::new();
        let view = LaneView::pack(&g, &mut lane, LaneRules::default());
        assert_same_surface(&view, &g);
    }

    #[test]
    fn rules_match_a_clone_mutated_the_old_way() {
        let (g, n) = mutated_graph();
        let mut hidden = vec![false; g.node_count()];
        hidden[4] = true;
        hidden[5] = true; // already removed in the base: no double count
        let mut discount = vec![Weight::ZERO; g.node_count()];
        discount[1] = Weight::from_milli(1500);
        discount[2] = Weight::MAX;
        let rules = LaneRules {
            hidden: &hidden,
            discount: &discount,
            tilt: Some(7),
        };
        let mut model = g.clone();
        for i in 0..model.edge_count() {
            let e = EdgeId::from_index(i);
            let (a, b) = model.endpoints(e).unwrap();
            let w = model.weight(e).unwrap();
            let w = w
                .saturating_sub(discount[a.index()])
                .saturating_sub(discount[b.index()])
                .saturating_add(tilt(7, e));
            model.set_weight(e, w).unwrap();
        }
        model.remove_node(n[4]).unwrap();
        let mut lane = LiveLane::new();
        let view = LaneView::pack(&g, &mut lane, rules);
        assert_same_surface(&view, &model);
        // The base saw none of it.
        assert!(g.is_node_live(n[4]));
        assert_eq!(g.weight(EdgeId::from_index(0)), Ok(Weight::from_units(1)));
    }

    #[test]
    fn shortest_paths_agree_with_source() {
        let (g, n) = mutated_graph();
        let mut lane = LiveLane::new();
        let view = LaneView::pack(&g, &mut lane, LaneRules::default());
        let on_graph = ShortestPaths::run(&g, n[0]).unwrap();
        let on_lane = ShortestPaths::run(&view, n[0]).unwrap();
        for &v in &n {
            assert_eq!(on_lane.dist(v), on_graph.dist(v));
            assert_eq!(on_lane.parent(v), on_graph.parent(v));
        }
    }

    #[test]
    fn unknown_ids_are_rejected_not_panicked() {
        let (g, _) = mutated_graph();
        let hidden = [true; 2];
        let mut lane = LiveLane::new();
        let rules = LaneRules {
            hidden: &hidden,
            discount: &[],
            tilt: Some(1),
        };
        let view = LaneView::pack(&g, &mut lane, rules);
        let far_node = NodeId::from_index(99);
        let far_edge = EdgeId::from_index(99);
        assert!(!view.is_node_live(far_node));
        assert!(!view.is_edge_usable(far_edge));
        assert_eq!(view.neighbors(far_node).count(), 0);
        assert_eq!(
            view.weight(far_edge),
            Err(GraphError::EdgeOutOfBounds(far_edge))
        );
        assert_eq!(
            view.require_live_node(far_node),
            Err(GraphError::NodeOutOfBounds(far_node))
        );
    }

    #[test]
    fn tilt_stays_within_its_mask() {
        for salt in 0..8u64 {
            for i in 0..64 {
                assert!(tilt(salt, EdgeId::from_index(i)) <= Weight::from_milli(TILT_MASK));
            }
        }
    }
}
