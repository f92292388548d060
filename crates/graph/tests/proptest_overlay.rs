//! Property tests: a [`GraphOverlay`] is observationally equal to a
//! mutated clone of its base graph.
//!
//! PathFinder's thread-count bit-identity rests on exactly this
//! equivalence — a construction must see the same liveness, weights,
//! *and adjacency iteration order* through an overlay
//! as it would through `base.clone()` mutated the same way. Cases are
//! generated from the vendored [`route_graph::rng`] PRNG (no external
//! proptest dependency); each test sweeps seeded cases and names the
//! failing seed.

use route_graph::random::random_connected_graph;
use route_graph::rng::{Rng, SplitMix64};
use route_graph::{
    EdgeId, GraphOverlay, GraphView, GraphViewMut, NodeId, OverlayArena, Weight,
};

const CASES: u64 = 32;
const OPS: usize = 60;

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
    for i in 0..a.node_count() {
        let v = NodeId::from_index(i);
        assert_eq!(a.is_node_live(v), b.is_node_live(v), "{context}: node {v}");
        let na: Vec<(NodeId, EdgeId, Weight)> = a.neighbors(v).collect();
        let nb: Vec<(NodeId, EdgeId, Weight)> = b.neighbors(v).collect();
        assert_eq!(na, nb, "{context}: neighbor order of {v}");
    }
    for i in 0..a.edge_count() {
        let e = EdgeId::from_index(i);
        assert_eq!(
            a.is_edge_usable(e),
            b.is_edge_usable(e),
            "{context}: edge {e}"
        );
        assert_eq!(a.weight(e), b.weight(e), "{context}: weight of {e}");
        assert_eq!(a.endpoints(e), b.endpoints(e), "{context}: endpoints of {e}");
    }
    let ids_a: Vec<NodeId> = a.node_ids().collect();
    let ids_b: Vec<NodeId> = b.node_ids().collect();
    assert_eq!(ids_a, ids_b, "{context}: node_ids");
    let eids_a: Vec<EdgeId> = a.edge_ids().collect();
    let eids_b: Vec<EdgeId> = b.edge_ids().collect();
    assert_eq!(eids_a, eids_b, "{context}: edge_ids");
}

/// Applies one random mutation through any [`GraphViewMut`]; the same
/// (seeded) op sequence drives both the overlay and the model clone.
fn apply_op<G: GraphViewMut>(g: &mut G, op: u64, node: usize, edge: usize, milli: u64) {
    let v = NodeId::from_index(node);
    let e = EdgeId::from_index(edge);
    match op {
        0 => g.set_weight(e, Weight::from_milli(milli)).unwrap(),
        1 => g.add_weight(e, Weight::from_milli(milli)).unwrap(),
        2 => g.remove_edge(e).unwrap(),
        3 => g.restore_edge(e).unwrap(),
        4 => g.remove_node(v).unwrap(),
        _ => g.restore_node(v).unwrap(),
    }
}

#[test]
fn overlay_matches_mutated_clone_under_random_interleavings() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let nodes = rng.gen_range(4..14usize);
        let extra = rng.gen_range(0..12usize);
        let base = random_connected_graph(nodes, nodes - 1 + extra, 1..9, &mut rng).unwrap();
        let mut arena = OverlayArena::new();
        let mut overlay = GraphOverlay::bind(&base, &mut arena);
        let mut model = base.clone();
        for step in 0..OPS {
            let op = rng.gen_range(0..6u64);
            let node = rng.gen_range(0..base.node_count());
            let edge = rng.gen_range(0..base.edge_count());
            let milli = rng.gen_range(1..20_000u64);
            apply_op(&mut overlay, op, node, edge, milli);
            apply_op(&mut model, op, node, edge, milli);
            // Full-state comparison every few steps (and always at the
            // end) keeps the sweep fast while still catching divergence
            // close to the op that caused it.
            if step % 7 == 0 || step == OPS - 1 {
                assert_same_view(&overlay, &model, &format!("seed {seed}, step {step}"));
            }
        }
    }
}

#[test]
fn reset_equals_a_fresh_clone() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0x5eed ^ seed);
        let nodes = rng.gen_range(4..12usize);
        let base = random_connected_graph(nodes, nodes + 3, 1..9, &mut rng).unwrap();
        let mut arena = OverlayArena::new();
        let mut overlay = GraphOverlay::bind(&base, &mut arena);
        for _ in 0..OPS {
            let op = rng.gen_range(0..6u64);
            let node = rng.gen_range(0..base.node_count());
            let edge = rng.gen_range(0..base.edge_count());
            let milli = rng.gen_range(1..20_000u64);
            apply_op(&mut overlay, op, node, edge, milli);
        }
        overlay.reset();
        assert_same_view(&overlay, &base, &format!("seed {seed}: after reset"));
        // And the arena is reusable: a rebind over the same base is
        // pristine too.
        let rebound = GraphOverlay::bind(&base, &mut arena);
        assert_same_view(&rebound, &base, &format!("seed {seed}: after rebind"));
    }
}

#[test]
fn overlay_epoch_advances_with_every_mutation_and_reset() {
    let mut rng = SplitMix64::seed_from_u64(7);
    let base = random_connected_graph(6, 9, 1..5, &mut rng).unwrap();
    let mut arena = OverlayArena::new();
    let mut overlay = GraphOverlay::bind(&base, &mut arena);
    let e = EdgeId::from_index(0);
    let mut last = overlay.epoch();
    overlay.add_weight(e, Weight::UNIT).unwrap();
    assert!(overlay.epoch() > last);
    last = overlay.epoch();
    overlay.remove_node(NodeId::from_index(0)).unwrap();
    assert!(overlay.epoch() > last);
    last = overlay.epoch();
    overlay.reset();
    assert!(
        overlay.epoch() > last,
        "reset must advance the epoch so cached distances invalidate"
    );
}
