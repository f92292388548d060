//! The per-net routing view: one graph, packed row by row on first read
//! into flat-CSR adjacency under the net's rules.
//!
//! [`Graph`](crate::Graph) stores one heap-allocated adjacency `Vec` per
//! node and resolves liveness per entry, so a Dijkstra relaxation sweep
//! hops between scattered allocations and re-checks flags on every
//! visit. A [`LaneView`] packs a node's usable adjacency the first time
//! anything reads it, into a [`LiveLane`]: one contiguous
//! `(neighbor, edge, weight)` array that every later read of that row,
//! the relaxation hot loop included, walks with no per-entry checks.
//! Starting a view costs O(1), and a net pays only for the rows its
//! runs read, not for the whole device.
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
//! * **epoch** — the base's epoch plus the number of views the lane has
//!   started, so it advances with every new view and every base
//!   mutation.
//!
//! The base is never mutated: masking a net's foreign pins or discounting
//! its previous route costs nothing to undo.
//!
//! **The bound.** A view packs each row at most once, and row `v` holds
//! at most `v`'s usable incident edges. The base has no self-loops
//! ([`Graph::add_edge`](crate::Graph::add_edge) rejects them), so each
//! usable edge sits in at most two rows, and usable edges are live. So
//! `2 × base.live_edge_count()` entries hold every row one view can
//! pack: the view sizes the lane's entry buffer to that when it starts,
//! growing it only, and the buffer never moves while the view lives.
//!
//! **Nested reads.** A row packs at the view's cursor, past every row
//! packed before it, and a packed row is never moved or rewritten while
//! its view lives. So an iterator over one row stays valid while another
//! row packs: a construction may read `u`'s neighbors while it walks
//! `v`'s. The view reads the lane's buffers as `&[Cell<_>]` slices
//! ([`Cell::as_slice_of_cells`]), which makes this hold in safe code
//! with no borrow flag to check per read.

use std::cell::Cell;

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

/// One packed `(neighbor, edge, weight)` adjacency triple.
type Entry = (NodeId, EdgeId, Weight);

/// Where a node's packed triples sit in the lane's entry buffer:
/// `start..end`, valid only while `generation` carries the current
/// view's.
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    generation: u32,
    start: u32,
    end: u32,
}

/// The buffers behind a [`LaneView`]: one generation-stamped row per
/// node and the entry buffer the rows point into.
///
/// Every view starts a new generation with an empty cursor, so no row
/// packed by an earlier view is ever read again; only the buffers
/// outlive a view. A lane that serves many views (one per routed net)
/// allocates only while it grows.
#[derive(Debug, Clone, Default)]
pub struct LiveLane {
    rows: Vec<Row>,
    entries: Vec<Entry>,
    /// The current view's generation; `0` marks a row no view packed.
    generation: u32,
    /// Views started so far; advances the view's epoch.
    views: u64,
}

impl LiveLane {
    /// An empty lane; buffers grow when a view first needs them.
    #[must_use]
    pub fn new() -> LiveLane {
        LiveLane::default()
    }

    /// Starts a view over `nodes` rows that may pack up to `entries`
    /// triples: grows the buffers as needed and advances the generation,
    /// so every row reads as unpacked without being cleared. Returns the
    /// new generation.
    fn begin(&mut self, nodes: usize, entries: usize) -> u32 {
        if self.rows.len() < nodes {
            self.rows.resize(nodes, Row::default());
        }
        if self.entries.len() < entries {
            self.entries
                .resize(entries, (NodeId(0), EdgeId(0), Weight::ZERO));
        }
        self.views = self.views.wrapping_add(1);
        self.generation = match self.generation.checked_add(1) {
            Some(generation) => generation,
            None => {
                // Generation wrap-around: old stamps could collide with
                // new ones, so clear them once and start over.
                for row in &mut self.rows {
                    row.generation = 0;
                }
                1
            }
        };
        self.generation
    }
}

/// One net's view of a base graph under [`LaneRules`], its usable
/// adjacency packed into a [`LiveLane`] row by row as it is read (see
/// the [module docs](self) for the contract, the bound and nested
/// reads).
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
/// let view = LaneView::new(&g, &mut lane, rules);
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
    rules: LaneRules<'a>,
    /// The lane's rows, one per base node.
    rows: &'a [Cell<Row>],
    /// The lane's entry buffer, `2 × base.live_edge_count()` long.
    entries: &'a [Cell<Entry>],
    /// End of the last packed row.
    cursor: Cell<u32>,
    generation: u32,
    /// The lane's view count when this view started.
    views: u64,
}

impl<'a, G: GraphView> LaneView<'a, G> {
    /// Starts the view of `base` under `rules` over `lane`'s buffers.
    /// Packs nothing: each row packs the first time it is read.
    ///
    /// # Panics
    ///
    /// Panics if `2 × base.live_edge_count()` exceeds `u32::MAX`.
    pub fn new(base: &'a G, lane: &'a mut LiveLane, rules: LaneRules<'a>) -> LaneView<'a, G> {
        let nodes = base.node_count();
        let bound = base.live_edge_count().saturating_mul(2);
        // A routing graph with 2^31 live edges is far beyond any device
        // this router models.
        assert!(u32::try_from(bound).is_ok(), "adjacency fits u32 offsets");
        let generation = lane.begin(nodes, bound);
        let views = lane.views;
        LaneView {
            base,
            rules,
            rows: Cell::from_mut(&mut lane.rows[..nodes]).as_slice_of_cells(),
            entries: Cell::from_mut(&mut lane.entries[..bound]).as_slice_of_cells(),
            cursor: Cell::new(0),
            generation,
            views,
        }
    }

    /// `v`'s packed triples, packed now if no read of this view has
    /// packed them yet (none for nodes beyond the base).
    #[inline]
    fn row(&self, v: NodeId) -> &'a [Cell<Entry>] {
        let Some(cell) = self.rows.get(v.index()) else {
            return &[];
        };
        let mut row = cell.get();
        if row.generation != self.generation {
            row = self.pack_row(v);
            cell.set(row);
        }
        &self.entries[row.start as usize..row.end as usize]
    }

    /// Appends `v`'s usable triples under the rules at the cursor, in the
    /// base's order, and returns their row.
    fn pack_row(&self, v: NodeId) -> Row {
        let start = self.cursor.get();
        let mut end = start as usize;
        if self.base.is_node_live(v) && !self.rules.hides(v) {
            for (u, e, w) in self.base.neighbors(v) {
                if !self.rules.hides(u) {
                    debug_assert!(
                        end < self.entries.len(),
                        "a view packs at most 2 × live_edge_count entries"
                    );
                    self.entries[end].set((u, e, self.rules.price(w, v, u, e)));
                    end += 1;
                }
            }
        }
        // `end` is at most `entries.len()`, which `new` checked fits u32.
        let end = end as u32;
        self.cursor.set(end);
        route_trace::count(route_trace::Counter::LaneRowsPacked, 1);
        Row {
            generation: self.generation,
            start,
            end,
        }
    }
}

impl<G: GraphView> GraphView for LaneView<'_, G> {
    fn node_count(&self) -> usize {
        self.base.node_count()
    }

    fn edge_count(&self) -> usize {
        self.base.edge_count()
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

    #[inline]
    fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId, Weight)> + '_ {
        self.row(v).iter().map(Cell::get)
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
        self.base.epoch().wrapping_add(self.views)
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
        let view = LaneView::new(&g, &mut lane, LaneRules::default());
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
        let view = LaneView::new(&g, &mut lane, rules);
        assert_same_surface(&view, &model);
        // The base saw none of it.
        assert!(g.is_node_live(n[4]));
        assert_eq!(g.weight(EdgeId::from_index(0)), Ok(Weight::from_units(1)));
    }

    #[test]
    fn shortest_paths_agree_with_source() {
        let (g, n) = mutated_graph();
        let mut lane = LiveLane::new();
        let view = LaneView::new(&g, &mut lane, LaneRules::default());
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
        let view = LaneView::new(&g, &mut lane, rules);
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
    fn a_lane_survives_generation_wrap_around() {
        let (g, n) = mutated_graph();
        let hidden = [false, true];
        let rules = LaneRules {
            hidden: &hidden,
            discount: &[],
            tilt: Some(3),
        };
        let mut lane = LiveLane::new();
        {
            // Generation 1 packs rows that differ from the base's.
            let view = LaneView::new(&g, &mut lane, rules);
            for &v in &n {
                view.neighbors(v).for_each(drop);
            }
        }
        // The next view runs at u32::MAX, the one after wraps to 1 again:
        // the rows stamped 1 above must read as unpacked there.
        lane.generation = u32::MAX - 1;
        for _ in 0..3 {
            let view = LaneView::new(&g, &mut lane, LaneRules::default());
            assert_same_surface(&view, &g);
        }
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
