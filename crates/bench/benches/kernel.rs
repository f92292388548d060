//! Shortest-path kernel micro-benchmark: the packed per-net view and
//! the scratch-arena point-to-point query against the seed kernel.
//!
//! Two query shapes on seeded random-weight grids — a point-to-point
//! query and the router's staple multi-target fan-out (one source,
//! a clustered far target set) — each timed over `Graph` adjacency
//! lists (the seed kernel) and over a packed [`LaneView`]. A
//! scratch-arena `minpath` column covers the [`DistanceOracle`] reuse
//! path. Every variant's distances are asserted equal to the seed
//! kernel before its timing is reported, so the numbers can never come
//! from a wrong answer.
//!
//! Results go to `BENCH_kernel.json` at the repository root. Quick
//! mode (`BENCH_QUICK=1`) keeps the SAME grid and query sizes and only
//! cuts repetitions, so `bench-diff` comparisons against the
//! checked-in baseline stay apples-to-apples.

use std::time::Instant;

use route_graph::dijkstra::minpath;
use route_graph::rng::{Rng, SplitMix64};
use route_graph::{
    DistanceOracle, GridGraph, LaneRules, LaneView, LiveLane, NodeId, ShortestPaths, Weight,
};

/// Output path, relative to this crate's manifest.
const OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel.json");

/// Grid sizes: the paper's Table 5 substrates are ~20×21 grids; the
/// scaled size exists because kernel-level effects (cache locality)
/// need a larger ball to show up above timer noise.
const SIZES: &[(&str, usize, usize)] = &[("table5", 21, 21), ("scaled", 96, 96)];

/// Edge weights are drawn near one unit (±10%): close to the uniform
/// physical wire costs congestion pricing starts from, random enough
/// that no two routes tie everywhere.
const WEIGHT_LO: u64 = 900;
const WEIGHT_HI: u64 = 1_100;

struct Workload {
    grid: GridGraph,
    source: NodeId,
    targets: Vec<NodeId>,
}

/// Source at the grid center, targets clustered in one far quadrant —
/// a net whose terminals span a fraction of the device, the router's
/// normal case. A run floods a cost ball in all four directions until
/// the farthest target settles.
fn build_workload(seed: u64, rows: usize, cols: usize, target_count: usize) -> Workload {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut grid = GridGraph::new(rows, cols, Weight::UNIT).expect("grid");
    let edges: Vec<_> = grid.graph().edge_ids().collect();
    for e in edges {
        let w = Weight::from_milli(rng.gen_range(WEIGHT_LO..=WEIGHT_HI));
        grid.graph_mut().set_weight(e, w).expect("live edge");
    }
    let source = grid.node_at(rows / 2, cols / 2).expect("on-grid");
    let mut targets = Vec::new();
    while targets.len() < target_count {
        let r = rng.gen_range(rows - rows / 4..rows);
        let c = rng.gen_range(cols - cols / 4..cols);
        let t = grid.node_at(r, c).expect("on-grid");
        if t != source && !targets.contains(&t) {
            targets.push(t);
        }
    }
    targets.sort_by_key(|t| t.index());
    Workload { grid, source, targets }
}

/// Times `f` over `reps` repetitions and returns the mean in micros.
/// The first (untimed) call warms caches and verifies the closure runs.
fn time_us<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let started = Instant::now();
    for _ in 0..reps {
        f();
    }
    started.elapsed().as_micros() as f64 / reps as f64
}

struct Row {
    size: &'static str,
    query: &'static str,
    nodes: usize,
    targets: usize,
    seed_us: f64,
    csr_us: f64,
    scratch_minpath_us: f64,
}

fn bench_size(name: &'static str, rows: usize, cols: usize, reps: usize) -> Vec<Row> {
    let fan = build_workload(1995, rows, cols, 8);
    let p2p_target = *fan.targets.last().expect("targets");
    let mut out = Vec::new();
    for (query, targets) in [
        ("point_to_point", std::slice::from_ref(&p2p_target)),
        ("multi_target_fanout", fan.targets.as_slice()),
    ] {
        let g = fan.grid.graph();
        let mut lane = LiveLane::new();
        let csr = LaneView::new(g, &mut lane, LaneRules::default());
        // Correctness first: the packed view must settle the seed
        // kernel's distances on the target set.
        let truth = ShortestPaths::run_to_targets(g, fan.source, targets).expect("seed");
        let packed = ShortestPaths::run_to_targets(&csr, fan.source, targets).expect("csr");
        for &t in targets {
            assert_eq!(truth.dist(t), packed.dist(t), "{name}/{query}/csr: dist({t})");
        }
        let seed_us = time_us(reps, || {
            let sp = ShortestPaths::run_to_targets(g, fan.source, targets).expect("seed");
            std::hint::black_box(sp.dist(targets[0]));
        });
        let csr_us = time_us(reps, || {
            let sp = ShortestPaths::run_to_targets(&csr, fan.source, targets).expect("csr");
            std::hint::black_box(sp.dist(targets[0]));
        });
        let mut oracle = DistanceOracle::new();
        assert_eq!(
            oracle.minpath(g, fan.source, p2p_target).expect("scratch"),
            minpath(g, fan.source, p2p_target).expect("alloc"),
            "{name}/{query}: scratch minpath disagrees"
        );
        let scratch_minpath_us = time_us(reps, || {
            let d = oracle.minpath(g, fan.source, p2p_target).expect("scratch");
            std::hint::black_box(d);
        });
        out.push(Row {
            size: name,
            query,
            nodes: g.node_count(),
            targets: targets.len(),
            seed_us,
            csr_us,
            scratch_minpath_us,
        });
    }
    out
}

fn main() {
    let quick = bench::quick_mode();
    let reps = if quick { 8 } else { 60 };
    println!("## shortest-path kernel: packed CSR and scratch minpath vs seed (reps = {reps})");
    println!(
        "{:>8} {:>20} {:>7} {:>4} {:>10} {:>10} {:>10}",
        "size", "query", "nodes", "|T|", "seed us", "csr us", "minpath"
    );
    let mut rows = Vec::new();
    for &(name, r, c) in SIZES {
        rows.extend(bench_size(name, r, c, reps));
    }
    for row in &rows {
        println!(
            "{:>8} {:>20} {:>7} {:>4} {:>10.1} {:>10.1} {:>10.1}",
            row.size,
            row.query,
            row.nodes,
            row.targets,
            row.seed_us,
            row.csr_us,
            row.scratch_minpath_us
        );
    }
    write_json(&rows, reps, quick);
    println!("results written to {OUT}");
}

fn write_json(rows: &[Row], reps: usize, quick: bool) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"shortest-path kernel: flat-CSR adjacency + scratch-arena minpath (crates/bench/benches/kernel.rs)\",\n");
    out.push_str(&format!(
        "  \"config\": {{ \"weight_milli\": [{WEIGHT_LO}, {WEIGHT_HI}], \"reps\": {reps}, \"quick\": {quick} }},\n"
    ));
    out.push_str("  \"before\": {\n");
    out.push_str("    \"mechanism\": \"seed kernel: plain Dijkstra over the mutable graph's per-node edge lists; a multi-target query floods a cost ball until the last target settles\",\n");
    out.push_str("    \"cost_model\": \"pops scale with the ball volume around the source, pointer-chasing one heap-allocated edge list per settled node\"\n");
    out.push_str("  },\n");
    out.push_str("  \"after\": {\n");
    out.push_str("    \"mechanism\": \"the same Dijkstra relaxing over a packed LaneView: one contiguous flat-CSR (neighbor, edge, weight) arena; settled distances asserted equal to the seed kernel before timing\",\n");
    out.push_str("    \"cost_model\": \"pops still scale with the ball volume; adjacency reads are sequential within one contiguous allocation\"\n");
    out.push_str("  },\n");
    // `bench-diff` keys rows on `circuits[].name` and gates on `*_us`
    // fields, so each (size, query) pair is one named "circuit".
    out.push_str("  \"circuits\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"name\": \"{}/{}\", \"nodes\": {}, \"targets\": {}, \"seed_us\": {:.1}, \"csr_us\": {:.1}, \"scratch_minpath_us\": {:.1} }}{}\n",
            r.size,
            r.query,
            r.nodes,
            r.targets,
            r.seed_us,
            r.csr_us,
            r.scratch_minpath_us,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"notes\": [\n");
    out.push_str("    \"every timed variant first asserts its target distances equal the seed kernel's, so speedups can never come from wrong answers.\",\n");
    out.push_str("    \"scratch_minpath_us times DistanceOracle::minpath, the arena-backed point-to-point query that reuses one heap/flag/dist allocation across calls.\",\n");
    out.push_str("    \"quick = true cuts repetitions only; grid and query sizes are identical to the full run so bench-diff stays apples-to-apples.\"\n");
    out.push_str("  ]\n");
    out.push_str("}\n");
    std::fs::write(OUT, out).expect("write BENCH_kernel.json");
}
