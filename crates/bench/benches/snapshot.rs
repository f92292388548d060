//! Per-worker snapshot cost: `Graph::clone` versus epoch-tagged
//! `GraphOverlay::bind` + `reset`.
//!
//! PathFinder's route-phase workers each need a private view of the
//! priced snapshot. A full `Graph::clone` per worker per iteration costs
//! O(|V| + |E|); a [`GraphOverlay`] bound over the shared snapshot costs
//! O(touched) and resets per net with a generation bump. This bench
//! times both mechanisms doing identical work — take a private view of
//! a routing-scale device graph, apply a bounded set of weight
//! mutations (what one net's masking/unmasking touches), observe a
//! result — and reports the per-wave cost of each. The overlay must
//! win: its cost is O(touched), the clone's is O(|V| + |E|).
//!
//! Emits one human table plus a machine-readable `{"bench":"snapshot",
//! ...}` JSON line; `BENCH_QUICK=1` shrinks the device and wave count
//! for CI smoke runs.

use std::hint::black_box;
use std::time::Instant;

use fpga_device::{ArchSpec, Device};
use route_graph::{EdgeId, GraphOverlay, GraphView, GraphViewMut, OverlayArena, Weight};

fn main() {
    // Full mode matches the Table 5 device scale; quick mode keeps the
    // shape but fits in a CI smoke budget.
    let (rows, cols, width, waves, touched) = if bench::quick_mode() {
        (8usize, 8usize, 8usize, 64usize, 64usize)
    } else {
        (20, 20, 12, 512, 256)
    };
    let device = Device::new(ArchSpec::xilinx4000(rows, cols, width)).expect("valid arch");
    let snapshot = device.graph();
    let nodes = snapshot.live_node_count();
    let edge_total = snapshot.edge_count();

    // A deterministic spread of edges standing in for the writes one
    // net's routing performs against its view.
    let stride = (edge_total / touched).max(1);
    let edges: Vec<EdgeId> = (0..edge_total)
        .step_by(stride)
        .take(touched)
        .map(EdgeId::from_index)
        .collect();

    // Before: one full graph clone per worker per wave.
    let start = Instant::now();
    for _ in 0..waves {
        let mut g = snapshot.clone();
        for &e in &edges {
            g.add_weight(e, Weight::UNIT).expect("live edge");
        }
        black_box(g.weight(edges[0]).expect("live edge"));
    }
    let clone_us = start.elapsed().as_secs_f64() * 1e6 / waves as f64;

    // After: bind an overlay over the shared snapshot, mutate, and let
    // the next bind's generation bump discard the dirt in O(1).
    let mut arena = OverlayArena::new();
    let start = Instant::now();
    for _ in 0..waves {
        let mut g = GraphOverlay::bind(snapshot, &mut arena);
        for &e in &edges {
            g.add_weight(e, Weight::UNIT).expect("live edge");
        }
        black_box(g.weight(edges[0]).expect("live edge"));
        g.reset();
    }
    let overlay_us = start.elapsed().as_secs_f64() * 1e6 / waves as f64;

    let speedup = clone_us / overlay_us;
    println!("## per-worker snapshot cost ({rows}x{cols} xc4000, W = {width})");
    println!(
        "{:>8} {:>8} {:>8} {:>14} {:>14} {:>8}",
        "nodes", "edges", "touched", "clone us/wave", "overlay us/wave", "speedup"
    );
    println!(
        "{:>8} {:>8} {:>8} {:>14.2} {:>14.2} {:>7.1}x",
        nodes, edge_total, touched, clone_us, overlay_us, speedup
    );
    println!(
        "{{\"bench\":\"snapshot\",\"nodes\":{nodes},\"edges\":{edge_total},\
         \"touched_edges\":{touched},\"waves\":{waves},\
         \"clone_us_per_wave\":{clone_us:.2},\
         \"overlay_us_per_wave\":{overlay_us:.2},\"speedup\":{speedup:.2}}}"
    );
    assert!(
        overlay_us <= clone_us,
        "overlay snapshot ({overlay_us:.2} us/wave) must not cost more \
         than a full clone ({clone_us:.2} us/wave)"
    );
}
