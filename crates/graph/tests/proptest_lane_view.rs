//! Property tests: a [`LaneView`] is observationally equal to a clone of
//! its base graph mutated the old way — hidden nodes removed, every
//! edge's weight reduced by both endpoints' discounts (floored at zero),
//! then the tilt added.
//!
//! The router's bit-identity across thread counts and across this
//! rewrite rests on exactly this equivalence: a construction must see
//! the same liveness, weights, *and adjacency iteration order* through
//! the view as through the mutated clone. The view packs each row on its
//! first read, so the equivalence must hold whatever rows are read, in
//! whatever order, partly or again, with one row's iterator live while
//! another row packs, and on a lane reused across views of one graph
//! mutated between them; and one view never packs more than
//! `2 × live_edge_count` entries. Cases are generated from the vendored
//! [`route_graph::rng`] PRNG (no external proptest dependency); each
//! test sweeps seeded cases and names the failing seed.

use route_graph::csr::tilt;
use route_graph::rng::{Rng, SplitMix64};
use route_graph::{
    EdgeId, Graph, GraphView, LaneRules, LaneView, LiveLane, NodeId, ShortestPaths, Weight,
};

const CASES: u64 = 48;

/// Asserts every observable of the two views agrees: counts, per-node
/// liveness, per-edge usability and weight, and — critically — the
/// exact neighbor iteration order at every node.
fn assert_same_view<A: GraphView, B: GraphView>(a: &A, b: &B, context: &str) {
    assert_eq!(a.node_count(), b.node_count(), "{context}: node_count");
    assert_eq!(a.edge_count(), b.edge_count(), "{context}: edge_count");
    assert_eq!(
        a.live_node_count(),
        b.live_node_count(),
        "{context}: live_node_count"
    );
    assert_eq!(
        a.live_edge_count(),
        b.live_edge_count(),
        "{context}: live_edge_count"
    );
    // One id past the end included: unknown nodes are dead and isolated.
    for i in 0..=a.node_count() {
        let v = NodeId::from_index(i);
        assert_eq!(a.is_node_live(v), b.is_node_live(v), "{context}: node {v}");
        let na: Vec<(NodeId, EdgeId, Weight)> = a.neighbors(v).collect();
        let nb: Vec<(NodeId, EdgeId, Weight)> = b.neighbors(v).collect();
        assert_eq!(na, nb, "{context}: neighbor order of {v}");
    }
    for i in 0..=a.edge_count() {
        let e = EdgeId::from_index(i);
        assert_eq!(
            a.is_edge_usable(e),
            b.is_edge_usable(e),
            "{context}: edge {e}"
        );
        assert_eq!(a.weight(e), b.weight(e), "{context}: weight of {e}");
        assert_eq!(
            a.endpoints(e),
            b.endpoints(e),
            "{context}: endpoints of {e}"
        );
    }
    let ids_a: Vec<NodeId> = a.node_ids().collect();
    let ids_b: Vec<NodeId> = b.node_ids().collect();
    assert_eq!(ids_a, ids_b, "{context}: node_ids");
    let eids_a: Vec<EdgeId> = a.edge_ids().collect();
    let eids_b: Vec<EdgeId> = b.edge_ids().collect();
    assert_eq!(eids_a, eids_b, "{context}: edge_ids");
    assert_eq!(
        a.total_weight(),
        b.total_weight(),
        "{context}: total_weight"
    );
}

/// A weight that is usually a few units and sometimes within a few
/// milli-units of [`Weight::MAX`], where subtraction and the tilt
/// saturate.
fn random_weight(rng: &mut SplitMix64) -> Weight {
    if rng.gen_range(0..6u32) == 0 {
        Weight::from_milli(u64::MAX - rng.gen_range(0..32u64))
    } else {
        Weight::from_milli(rng.gen_range(1..9_000u64))
    }
}

/// A seeded graph with removed nodes, removed edges and parallel edges.
fn random_graph(rng: &mut SplitMix64) -> Graph {
    let n = rng.gen_range(3..24usize);
    let mut g = Graph::with_nodes(n);
    let ids: Vec<NodeId> = g.node_ids().collect();
    for _ in 0..rng.gen_range(n..3 * n) {
        let a = ids[rng.gen_range(0..n)];
        let b = ids[rng.gen_range(0..n)];
        if a == b {
            continue;
        }
        let w = random_weight(rng);
        let e = g.add_edge(a, b, w).unwrap();
        if rng.gen_range(0..4u32) == 0 {
            let twin = random_weight(rng);
            g.add_edge(a, b, twin).unwrap();
        }
        if rng.gen_range(0..7u32) == 0 {
            g.remove_edge(e).unwrap();
        }
    }
    for _ in 0..rng.gen_range(0..=n / 5) {
        g.remove_node(ids[rng.gen_range(0..n)]).unwrap();
    }
    g
}

/// Random rules for `g`, as the router builds them: a random "pin" set
/// minus a random kept set (the net's own terminals) is hidden; random
/// nodes carry a discount, some near [`Weight::MAX`]; a salt half the
/// time. The slices may be shorter than the graph (missing entries mean
/// visible and undiscounted).
struct Rules {
    hidden: Vec<bool>,
    discount: Vec<Weight>,
    tilt: Option<u64>,
}

impl Rules {
    fn random(g: &Graph, rng: &mut SplitMix64) -> Rules {
        let n = g.node_count();
        let hidden_len = rng.gen_range(0..=n);
        let hidden = (0..hidden_len)
            .map(|_| {
                let pin = rng.gen_range(0..3u32) == 0;
                let kept = rng.gen_range(0..4u32) == 0;
                pin && !kept
            })
            .collect();
        let discount_len = if rng.gen_range(0..4u32) == 0 {
            0
        } else {
            rng.gen_range(0..=n)
        };
        let discount = (0..discount_len)
            .map(|_| match rng.gen_range(0..6u32) {
                0 => Weight::from_milli(u64::MAX - rng.gen_range(0..32u64)),
                1 | 2 => Weight::from_milli(rng.gen_range(1..6_000u64)),
                _ => Weight::ZERO,
            })
            .collect();
        let tilt = (rng.gen_range(0..2u32) == 0).then(|| rng.next_u64());
        Rules {
            hidden,
            discount,
            tilt,
        }
    }

    fn lane_rules(&self) -> LaneRules<'_> {
        LaneRules {
            hidden: &self.hidden,
            discount: &self.discount,
            tilt: self.tilt,
        }
    }

    /// `g` cloned and mutated the old way.
    fn apply_to_clone(&self, g: &Graph) -> Graph {
        let mut model = g.clone();
        let discount = |v: NodeId| {
            self.discount
                .get(v.index())
                .copied()
                .unwrap_or(Weight::ZERO)
        };
        for i in 0..model.edge_count() {
            let e = EdgeId::from_index(i);
            let (a, b) = model.endpoints(e).unwrap();
            let mut w = model.weight(e).unwrap();
            w = w.saturating_sub(discount(a)).saturating_sub(discount(b));
            if let Some(salt) = self.tilt {
                w = w.saturating_add(tilt(salt, e));
            }
            model.set_weight(e, w).unwrap();
        }
        for (i, &hide) in self.hidden.iter().enumerate() {
            if hide {
                model.remove_node(NodeId::from_index(i)).unwrap();
            }
        }
        model
    }
}

#[test]
fn lane_view_matches_a_mutated_clone() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let base = random_graph(&mut rng);
        let rules = Rules::random(&base, &mut rng);
        let model = rules.apply_to_clone(&base);
        let mut lane = LiveLane::new();
        let view = LaneView::new(&base, &mut lane, rules.lane_rules());
        assert_same_view(&view, &model, &format!("seed {seed}"));
        // Same surface, same routes.
        let first = model.node_ids().next();
        if let Some(source) = first {
            let on_view = ShortestPaths::run(&view, source).unwrap();
            let on_model = ShortestPaths::run(&model, source).unwrap();
            for v in model.node_ids() {
                assert_eq!(on_view.dist(v), on_model.dist(v), "seed {seed}: dist({v})");
                assert_eq!(
                    on_view.parent(v),
                    on_model.parent(v),
                    "seed {seed}: parent({v})"
                );
            }
        }
    }
}

#[test]
fn a_reused_lane_matches_a_fresh_one() {
    // One lane repacked across graphs of different sizes and rule sets
    // must never leak entries from an earlier pack.
    let mut reused = LiveLane::new();
    let mut rng = SplitMix64::seed_from_u64(0x1a4e);
    for step in 0..CASES {
        let base = random_graph(&mut rng);
        let rules = Rules::random(&base, &mut rng);
        let mut fresh = LiveLane::new();
        let fresh_view = LaneView::new(&base, &mut fresh, rules.lane_rules());
        let reused_view = LaneView::new(&base, &mut reused, rules.lane_rules());
        assert_same_view(&reused_view, &fresh_view, &format!("step {step}"));
    }
}

#[test]
fn epoch_advances_with_every_view_and_base_mutation() {
    let mut rng = SplitMix64::seed_from_u64(7);
    let mut base = random_graph(&mut rng);
    let mut lane = LiveLane::new();
    let mut last = LaneView::new(&base, &mut lane, LaneRules::default()).epoch();
    for step in 0..CASES {
        if step % 2 == 1 {
            let e = EdgeId::from_index(rng.gen_range(0..base.edge_count().max(1)));
            if base.edge_count() > 0 {
                base.set_weight(e, Weight::UNIT).unwrap();
            }
        }
        let rules = Rules::random(&base, &mut rng);
        let view = LaneView::new(&base, &mut lane, rules.lane_rules());
        assert!(
            view.epoch() > last,
            "step {step}: a new view must advance the epoch so cached distances invalidate"
        );
        last = view.epoch();
    }
}

/// `model`'s adjacency of `v`.
fn row_of(model: &Graph, v: NodeId) -> Vec<(NodeId, EdgeId, Weight)> {
    model.neighbors(v).collect()
}

/// A random node id, one past the end included.
fn random_node<G: GraphView>(g: &G, rng: &mut SplitMix64) -> NodeId {
    NodeId::from_index(rng.gen_range(0..=g.node_count()))
}

/// Reads random rows of `view` in random order, some only in part, some
/// again, and half the time reads a second row while the first row's
/// iterator is live; checks every complete read against `model`.
fn read_random_rows<G: GraphView>(
    view: &LaneView<'_, G>,
    model: &Graph,
    rng: &mut SplitMix64,
    context: &str,
) {
    for _ in 0..rng.gen_range(0..3 * model.node_count() + 2) {
        let v = random_node(view, rng);
        let mut outer = view.neighbors(v);
        let mut got: Vec<_> = outer.by_ref().take(rng.gen_range(0..4usize)).collect();
        if rng.gen_range(0..2u32) == 0 {
            let u = random_node(view, rng);
            let inner: Vec<_> = view.neighbors(u).collect();
            assert_eq!(inner, row_of(model, u), "{context}: {u} read inside {v}");
        }
        if rng.gen_range(0..4u32) == 0 {
            continue; // a partial read
        }
        got.extend(outer);
        assert_eq!(got, row_of(model, v), "{context}: row {v}");
    }
}

#[test]
fn rows_read_in_any_order_match_a_mutated_clone() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0xa11 ^ seed);
        let base = random_graph(&mut rng);
        let rules = Rules::random(&base, &mut rng);
        let model = rules.apply_to_clone(&base);
        let mut lane = LiveLane::new();
        let view = LaneView::new(&base, &mut lane, rules.lane_rules());
        let context = format!("seed {seed}");
        read_random_rows(&view, &model, &mut rng, &context);
        // A run over the partly packed view reads the rows in its own
        // order; then every row is read again.
        if let Some(source) = model.node_ids().next() {
            let on_view = ShortestPaths::run(&view, source).unwrap();
            let on_model = ShortestPaths::run(&model, source).unwrap();
            for v in model.node_ids() {
                assert_eq!(on_view.dist(v), on_model.dist(v), "{context}: dist({v})");
                assert_eq!(
                    on_view.parent(v),
                    on_model.parent(v),
                    "{context}: parent({v})"
                );
            }
        }
        assert_same_view(&view, &model, &context);
    }
}

/// One rip-up or PathFinder step on `g`: removes a node or an edge,
/// reweights edges, restores a node and an edge, or adds an edge.
fn mutate(g: &mut Graph, rng: &mut SplitMix64) {
    let n = g.node_count();
    match rng.gen_range(0..5u32) {
        0 => {
            let v = NodeId::from_index(rng.gen_range(0..n));
            if g.is_node_live(v) {
                g.remove_node(v).unwrap();
            }
        }
        1 => {
            let e = g.edge_ids().nth(rng.gen_range(0..g.edge_count().max(1)));
            if let Some(e) = e {
                g.remove_edge(e).unwrap();
            }
        }
        2 => {
            for _ in 0..rng.gen_range(1..4u32) {
                let e = EdgeId::from_index(rng.gen_range(0..g.edge_count().max(1)));
                if e.index() < g.edge_count() {
                    let w = random_weight(rng);
                    g.set_weight(e, w).unwrap();
                }
            }
        }
        3 => {
            g.restore_node(NodeId::from_index(rng.gen_range(0..n)))
                .unwrap();
            let e = EdgeId::from_index(rng.gen_range(0..g.edge_count().max(1)));
            if e.index() < g.edge_count() {
                g.restore_edge(e).unwrap();
            }
        }
        _ => {
            let a = NodeId::from_index(rng.gen_range(0..n));
            let b = NodeId::from_index(rng.gen_range(0..n));
            if a != b {
                let w = random_weight(rng);
                g.add_edge(a, b, w).unwrap();
            }
        }
    }
}

#[test]
fn a_lane_reused_across_mutations_of_one_graph_matches_a_fresh_one() {
    // The rip-up pattern: one lane, one graph, a new view (with new
    // hidden nodes, discounts and tilt) after every mutation. Rows an
    // earlier view packed must never be served again.
    for case in 0..CASES / 4 {
        let mut rng = SplitMix64::seed_from_u64(0xb0b ^ case);
        let mut base = random_graph(&mut rng);
        let mut reused = LiveLane::new();
        for step in 0..12 {
            let rules = Rules::random(&base, &mut rng);
            let model = rules.apply_to_clone(&base);
            let context = format!("case {case} step {step}");
            let view = LaneView::new(&base, &mut reused, rules.lane_rules());
            read_random_rows(&view, &model, &mut rng, &context);
            let mut fresh = LiveLane::new();
            let fresh_view = LaneView::new(&base, &mut fresh, rules.lane_rules());
            assert_same_view(&view, &fresh_view, &context);
            assert_same_view(&view, &model, &context);
            mutate(&mut base, &mut rng);
        }
    }
}

#[test]
fn one_view_packs_at_most_twice_the_live_edges() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0xc0c ^ seed);
        let base = random_graph(&mut rng);
        // No hidden nodes half the time, so the rows fill the bound
        // whenever no edge lost an endpoint.
        let rules = if seed % 2 == 0 {
            Rules::random(&base, &mut rng)
        } else {
            Rules {
                hidden: Vec::new(),
                discount: Vec::new(),
                tilt: None,
            }
        };
        let mut lane = LiveLane::new();
        let view = LaneView::new(&base, &mut lane, rules.lane_rules());
        let mut order: Vec<NodeId> = (0..=base.node_count()).map(NodeId::from_index).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        // Every row, twice: a re-read packs nothing.
        let packed: usize = order.iter().map(|&v| view.neighbors(v).count()).sum();
        let again: usize = order.iter().map(|&v| view.neighbors(v).count()).sum();
        assert_eq!(packed, again, "seed {seed}");
        assert!(
            packed <= 2 * base.live_edge_count(),
            "seed {seed}: {packed} entries over 2 × {} live edges",
            base.live_edge_count()
        );
        if rules.hidden.is_empty() {
            let usable = base.edge_ids().count();
            assert_eq!(
                packed,
                2 * usable,
                "seed {seed}: each usable edge sits in two rows"
            );
        }
    }
}
