//! Candidate-pool restriction: the constructions the FPGA router hands
//! an explicit candidate pool must search only near the net, never flood
//! the whole chip, and must not change their trees when the pool covers
//! everything the unrestricted search would consider.
//!
//! The grid is seeded with congestion-style weight noise so shortest
//! paths are not axis-aligned ties: a construction that secretly floods
//! the whole component to break ties would be caught here.

use fpga_route::graph::rng::{Rng, SplitMix64};
use fpga_route::graph::{Graph, GridGraph, NodeId, TerminalDistances, Weight};
use fpga_route::steiner::{
    CandidatePool, Dom, Iterated, IteratedBase, IteratedConfig, Kmb, Net, Pfa,
    SteinerHeuristic, Zel,
};
use fpga_route::trace::{Collector, Counter};

/// Trace collection is process-global; serialize the tests so one
/// test's constructions never count toward another's collector.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// The chip must be comfortably larger than the candidate pool: a
// target-restricted Dijkstra stops once the *last* pool target settles,
// so it settles everything within that distance of its start — a
// diamond about twice the pool's diameter in the worst case. On a chip
// barely bigger than that diamond a restricted run would settle almost
// every node and the comparison below would measure nothing.
const ROWS: usize = 28;
const COLS: usize = 28;

/// A 28×28 grid with seeded congestion noise: every edge gets
/// `1.0 + U(0, 0.4)` units so distances are irregular like a mid-pass
/// routing graph.
fn congested_grid() -> GridGraph {
    let mut grid = GridGraph::new(ROWS, COLS, Weight::UNIT).unwrap();
    let mut rng = SplitMix64::seed_from_u64(1995);
    let edges: Vec<_> = grid.graph().edge_ids().collect();
    for e in edges {
        let noise = rng.gen_range(0..400u64);
        grid.graph_mut()
            .set_weight(e, Weight::from_milli(1000 + noise))
            .unwrap();
    }
    grid
}

/// A corner net whose terminals all sit inside rows/cols `2..=8`.
fn corner_net(grid: &GridGraph) -> Net {
    Net::new(
        grid.node_at(2, 2).unwrap(),
        vec![
            grid.node_at(8, 5).unwrap(),
            grid.node_at(5, 8).unwrap(),
            grid.node_at(8, 8).unwrap(),
        ],
    )
    .unwrap()
}

/// The explicit candidate pool: every node of the net's bounding box
/// expanded by a 2-block margin (rows/cols `0..=10`) — the same shape
/// the router's `candidate_pool` produces from a net's footprint.
fn region_pool(grid: &GridGraph) -> Vec<NodeId> {
    let mut pool = Vec::new();
    for r in 0..=10 {
        for c in 0..=10 {
            pool.push(grid.node_at(r, c).unwrap());
        }
    }
    pool
}

#[test]
fn restricted_zel_and_pfa_still_match_their_unrestricted_trees() {
    // Restricting the scan to a pool that contains everything the
    // unrestricted scan would have chosen must not change the result:
    // here the pool covers the whole grid, so restricted and
    // unrestricted runs see identical candidate sets.
    let _gate = serial();
    let grid = congested_grid();
    let net = corner_net(&grid);
    let all: Vec<NodeId> = grid.graph().node_ids().collect();
    let zel_full = Zel::new().construct(grid.graph(), &net).unwrap();
    let zel_pool = Zel::with_pool(CandidatePool::Explicit(all.clone()))
        .construct(grid.graph(), &net)
        .unwrap();
    assert_eq!(zel_full.cost(), zel_pool.cost());
    let pfa_full = Pfa::new().construct(grid.graph(), &net).unwrap();
    let pfa_pool = Pfa::with_pool(CandidatePool::Explicit(all))
        .construct(grid.graph(), &net)
        .unwrap();
    assert_eq!(pfa_full.cost(), pfa_pool.cost());
}

/// Dijkstra heap pops (nodes settled) while `h` constructs `net`.
fn heap_pops(h: &dyn SteinerHeuristic, grid: &GridGraph, net: &Net) -> u64 {
    let collector = Collector::install();
    let tree = h.construct(grid.graph(), net).unwrap();
    let trace = collector.finish();
    assert!(tree.spans(net), "{}: tree must span the net", h.name());
    trace.counters.get(Counter::DijkstraHeapPops)
}

#[test]
fn unrestricted_scans_read_more_than_pooled_scans() {
    // Every construction the router hands a pool — ZEL, PFA and the
    // iterated KMB — must settle strictly fewer nodes with the net's
    // region pool than without one.
    let _gate = serial();
    let grid = congested_grid();
    let net = corner_net(&grid);
    let pool = || CandidatePool::Explicit(region_pool(&grid));
    let pooled_ikmb = IteratedConfig {
        pool: pool(),
        ..IteratedConfig::default()
    };
    let pairs: Vec<(Box<dyn SteinerHeuristic>, Box<dyn SteinerHeuristic>)> = vec![
        (Box::new(Zel::new()), Box::new(Zel::with_pool(pool()))),
        (Box::new(Pfa::new()), Box::new(Pfa::with_pool(pool()))),
        (
            Box::new(Iterated::with_config(Kmb::new(), IteratedConfig::default())),
            Box::new(Iterated::with_config(Kmb::new(), pooled_ikmb)),
        ),
    ];
    for (unrestricted, pooled) in &pairs {
        let full = heap_pops(unrestricted.as_ref(), &grid, &net);
        let restricted = heap_pops(pooled.as_ref(), &grid, &net);
        assert!(
            restricted < full,
            "{}: pooled run popped {restricted} nodes, unrestricted {full}",
            pooled.name()
        );
    }
}

/// Heap pops of a screened `Iterated` construction over `pool`, and of
/// the runs that settle `pool` from the same members: the terminals and
/// every Steiner point the construction accepted.
fn screened_and_pool_pops<H>(base: H, grid: &GridGraph, net: &Net, pool: &[NodeId]) -> (u64, u64)
where
    H: IteratedBase<Graph>,
{
    let config = IteratedConfig {
        pool: CandidatePool::Explicit(pool.to_vec()),
        screened: true,
        ..IteratedConfig::default()
    };
    let g = grid.graph();
    let collector = Collector::install();
    let outcome = Iterated::with_config(base, config)
        .construct_traced(g, net)
        .unwrap();
    let screened = collector.finish().counters.get(Counter::DijkstraHeapPops);
    assert!(outcome.tree.spans(net));
    assert!(!outcome.steiner_points.is_empty(), "the construction must push points");
    let collector = Collector::install();
    let mut td = TerminalDistances::compute_to_targets(g, net.terminals(), pool).unwrap();
    for &s in &outcome.steiner_points {
        td.push_terminal(g, s).unwrap();
    }
    let pool_runs = collector.finish().counters.get(Counter::DijkstraHeapPops);
    (screened, pool_runs)
}

#[test]
fn screened_constructions_settle_less_than_pool_runs() {
    // The router's IKMB and IDOM run screened over the region pool, so
    // each of their runs stops at the source's radius instead of at the
    // last pool node: they settle strictly fewer nodes than runs that
    // settle the pool from the same members.
    let _gate = serial();
    let grid = congested_grid();
    let net = corner_net(&grid);
    let pool = region_pool(&grid);
    for (name, (screened, pool_runs)) in [
        ("IKMB", screened_and_pool_pops(Kmb::new(), &grid, &net, &pool)),
        ("IDOM", screened_and_pool_pops(Dom::new(), &grid, &net, &pool)),
    ] {
        assert!(
            screened < pool_runs,
            "{name}: the construction popped {screened} nodes, the pool runs {pool_runs}"
        );
    }
}
