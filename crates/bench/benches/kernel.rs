//! Shortest-path kernel micro-benchmark: A* lower bounds and the
//! packed per-net view against the seed kernel.
//!
//! Two query shapes on seeded random-weight grids — a point-to-point
//! query and the router's staple multi-target fan-out (one source,
//! a clustered far target set) — each timed in a 2×2 matrix:
//! {plain, A*-guided} × {`Graph` adjacency lists, a packed [`LaneView`]}. A
//! scratch-arena `minpath` row covers the [`DistanceOracle`] reuse
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
use route_graph::lowerbound::{GridPotential, ZeroPotential};
use route_graph::rng::{Rng, SplitMix64};
use route_graph::{
    DistanceOracle, GridGraph, LaneRules, LaneView, LiveLane, NodeId, ShortestPaths, Weight,
};

/// Output path, relative to this crate's manifest.
const OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel.json");

/// Grid sizes: the paper's Table 5 substrates are ~20×21 grids; the
/// scaled size exists because kernel-level effects (cache locality,
/// frontier pruning) need a larger ball to show up above timer noise.
const SIZES: &[(&str, usize, usize)] = &[("table5", 21, 21), ("scaled", 96, 96)];

/// Edge weights are drawn near one unit (±10%): tight enough that the
/// grid-Manhattan floor stays a sharp bound (the realistic regime —
/// congestion pricing starts from uniform physical wire costs), random
/// enough that no two routes tie everywhere.
const WEIGHT_LO: u64 = 900;
const WEIGHT_HI: u64 = 1_100;

struct Workload {
    grid: GridGraph,
    source: NodeId,
    targets: Vec<NodeId>,
}

/// Source at the grid center, targets clustered in one far quadrant —
/// a net whose terminals span a fraction of the device, the router's
/// normal case. A plain run floods a cost ball in all four directions
/// until the farthest target settles; the goal-oriented kernel only
/// explores the wedge toward the cluster. (Source and targets at
/// *opposite corners* would be the worst case instead: every monotone
/// lattice path between two corners has the same Manhattan length, so
/// the admissible bound keys the whole rectangle identically and
/// prunes nothing.)
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
    astar_us: f64,
    astar_csr_us: f64,
    scratch_minpath_us: f64,
    speedup: f64,
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
        let csr = LaneView::pack(g, &mut lane, LaneRules::default());
        let pot = GridPotential::new(&fan.grid, targets).expect("potential");
        // Correctness first: every variant must settle the seed
        // kernel's distances on the target set.
        let truth = ShortestPaths::run_to_targets(g, fan.source, targets).expect("seed");
        for (label, got) in [
            (
                "csr",
                ShortestPaths::run_to_targets_guided(&csr, fan.source, targets, &ZeroPotential),
            ),
            (
                "astar",
                ShortestPaths::run_to_targets_guided(g, fan.source, targets, &pot),
            ),
            (
                "astar_csr",
                ShortestPaths::run_to_targets_guided(&csr, fan.source, targets, &pot),
            ),
        ] {
            let got = got.expect(label);
            for &t in targets {
                assert_eq!(truth.dist(t), got.dist(t), "{name}/{query}/{label}: dist({t})");
            }
        }
        let seed_us = time_us(reps, || {
            let sp = ShortestPaths::run_to_targets(g, fan.source, targets).expect("seed");
            std::hint::black_box(sp.dist(targets[0]));
        });
        let csr_us = time_us(reps, || {
            let sp = ShortestPaths::run_to_targets_guided(&csr, fan.source, targets, &ZeroPotential)
                .expect("csr");
            std::hint::black_box(sp.dist(targets[0]));
        });
        let astar_us = time_us(reps, || {
            let sp =
                ShortestPaths::run_to_targets_guided(g, fan.source, targets, &pot).expect("astar");
            std::hint::black_box(sp.dist(targets[0]));
        });
        let astar_csr_us = time_us(reps, || {
            let sp = ShortestPaths::run_to_targets_guided(&csr, fan.source, targets, &pot)
                .expect("astar+csr");
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
            astar_us,
            astar_csr_us,
            scratch_minpath_us,
            speedup: seed_us / astar_csr_us.max(0.001),
        });
    }
    out
}

fn main() {
    let quick = bench::quick_mode();
    let reps = if quick { 8 } else { 60 };
    println!("## shortest-path kernel: A* and flat-CSR vs seed (reps = {reps})");
    println!(
        "{:>8} {:>20} {:>7} {:>4} {:>10} {:>10} {:>10} {:>12} {:>10} {:>8}",
        "size", "query", "nodes", "|T|", "seed us", "csr us", "astar us", "astar+csr", "minpath", "speedup"
    );
    let mut rows = Vec::new();
    for &(name, r, c) in SIZES {
        rows.extend(bench_size(name, r, c, reps));
    }
    for row in &rows {
        println!(
            "{:>8} {:>20} {:>7} {:>4} {:>10.1} {:>10.1} {:>10.1} {:>12.1} {:>10.1} {:>8.2}",
            row.size,
            row.query,
            row.nodes,
            row.targets,
            row.seed_us,
            row.csr_us,
            row.astar_us,
            row.astar_csr_us,
            row.scratch_minpath_us,
            row.speedup
        );
    }
    // The acceptance bar: A*+CSR beats the seed kernel by >= 1.3x on
    // the scaled multi-target fan-out.
    let gate = rows
        .iter()
        .find(|r| r.size == "scaled" && r.query == "multi_target_fanout")
        .expect("gate row");
    assert!(
        gate.speedup >= 1.3,
        "A*+CSR fan-out speedup {:.2}x below the 1.3x bar",
        gate.speedup
    );
    write_json(&rows, reps, quick);
    println!("results written to {OUT}");
}

fn write_json(rows: &[Row], reps: usize, quick: bool) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"shortest-path kernel: A* lower bounds + flat-CSR adjacency (crates/bench/benches/kernel.rs)\",\n");
    out.push_str(&format!(
        "  \"config\": {{ \"weight_milli\": [{WEIGHT_LO}, {WEIGHT_HI}], \"reps\": {reps}, \"quick\": {quick} }},\n"
    ));
    out.push_str("  \"before\": {\n");
    out.push_str("    \"mechanism\": \"seed kernel: plain Dijkstra over the mutable graph's per-node edge lists; a multi-target query floods a cost ball until the last target settles\",\n");
    out.push_str("    \"cost_model\": \"pops scale with the ball volume around the source, pointer-chasing one heap-allocated edge list per settled node\"\n");
    out.push_str("  },\n");
    out.push_str("  \"after\": {\n");
    out.push_str("    \"mechanism\": \"goal-oriented kernel: frontier ordered by dist + admissible grid-Manhattan bound, relaxing over a contiguous flat-CSR (neighbor, edge, weight) arena; settled distances asserted equal to the seed kernel before timing\",\n");
    out.push_str("    \"cost_model\": \"pops scale with the corridor toward the target set; adjacency reads are sequential within one contiguous allocation\"\n");
    out.push_str("  },\n");
    // `bench-diff` keys rows on `circuits[].name` and gates on `*_us`
    // fields, so each (size, query) pair is one named "circuit".
    out.push_str("  \"circuits\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"name\": \"{}/{}\", \"nodes\": {}, \"targets\": {}, \"seed_us\": {:.1}, \"csr_us\": {:.1}, \"astar_us\": {:.1}, \"astar_csr_us\": {:.1}, \"scratch_minpath_us\": {:.1}, \"astar_csr_speedup\": {:.2} }}{}\n",
            r.size,
            r.query,
            r.nodes,
            r.targets,
            r.seed_us,
            r.csr_us,
            r.astar_us,
            r.astar_csr_us,
            r.scratch_minpath_us,
            r.speedup,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"notes\": [\n");
    out.push_str("    \"every timed variant first asserts its target distances equal the seed kernel's, so speedups can never come from wrong answers.\",\n");
    out.push_str("    \"astar_csr_speedup is seed_us / astar_csr_us; the scaled multi-target row is asserted >= 1.3x (the PR acceptance bar).\",\n");
    out.push_str("    \"scratch_minpath_us times DistanceOracle::minpath, the arena-backed point-to-point query that reuses one heap/flag/dist allocation across calls.\",\n");
    out.push_str("    \"quick = true cuts repetitions only; grid and query sizes are identical to the full run so bench-diff stays apples-to-apples.\"\n");
    out.push_str("  ]\n");
    out.push_str("}\n");
    std::fs::write(OUT, out).expect("write BENCH_kernel.json");
}
