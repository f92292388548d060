//! Seeded graph generators shared by the equivalence suites.

use route_graph::random::random_connected_graph;
use route_graph::rng::{Rng, SplitMix64};
use route_graph::{EdgeId, Graph, GridGraph, NodeId, Weight};

/// A weight within a few milli-units of `Weight::MAX`.
fn near_max(rng: &mut SplitMix64) -> Weight {
    Weight::from_milli(u64::MAX - rng.gen_range(0..4u64))
}

/// A random multigraph on `6..max_nodes` nodes with zero-weight edges,
/// and on some seeds weights near `Weight::MAX`, removed edges and
/// removed nodes. It may be disconnected.
pub fn random_graph(rng: &mut SplitMix64, max_nodes: usize) -> Graph {
    let n = rng.gen_range(6..max_nodes);
    let m = rng.gen_range(n..3 * n);
    let mut g = random_connected_graph(n, m, 1..5, rng).unwrap();
    let edge = |rng: &mut SplitMix64| EdgeId::from_index(rng.gen_range(0..m));
    for _ in 0..rng.gen_range(0..=n / 2) {
        let e = edge(rng);
        g.set_weight(e, Weight::ZERO).unwrap();
    }
    if rng.gen_range(0..4u32) == 0 {
        for _ in 0..rng.gen_range(1..4u32) {
            let (e, w) = (edge(rng), near_max(rng));
            g.set_weight(e, w).unwrap();
        }
    }
    for _ in 0..rng.gen_range(0..3u32) {
        let e = edge(rng);
        let _ = g.remove_edge(e);
    }
    if rng.gen_range(0..3u32) == 0 {
        let v = NodeId::from_index(rng.gen_range(0..n));
        let _ = g.remove_node(v);
    }
    g
}

/// A grid with `3..max_side` rows and columns and a few cells removed on
/// some seeds. Unit weights (every tie the router sees) when `noisy` is
/// false; else each edge weighs `1 + U(0, 0.4)` units, a quarter left at
/// one unit so some ties survive.
pub fn grid(rng: &mut SplitMix64, max_side: usize, noisy: bool) -> Graph {
    let (rows, cols) = (rng.gen_range(3..max_side), rng.gen_range(3..max_side));
    let mut grid = GridGraph::new(rows, cols, Weight::UNIT).unwrap();
    if noisy {
        let edges: Vec<EdgeId> = grid.graph().edge_ids().collect();
        for e in edges {
            if rng.gen_range(0..4u32) != 0 {
                let w = Weight::from_milli(1000 + rng.gen_range(0..400u64));
                grid.graph_mut().set_weight(e, w).unwrap();
            }
        }
    }
    let mut g = grid.into_graph();
    for _ in 0..rng.gen_range(0..3u32) {
        let v = NodeId::from_index(rng.gen_range(0..rows * cols));
        let _ = g.remove_node(v);
    }
    g
}
