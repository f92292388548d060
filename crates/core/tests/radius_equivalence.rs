//! Screened iterated constructions over an explicit candidate pool stop
//! each distance run early: IDOM at the source's radius
//! (`TerminalDistances::compute_to_radius`), IKMB at the terminals' MST
//! bottleneck (`TerminalDistances::compute_to_bottleneck`). This suite
//! checks that they build exactly what the same screened loop builds over
//! runs that settle the whole pool (`TerminalDistances::compute_to_targets`):
//! the same tree edge for edge, the same Steiner points in the same order,
//! the same number of rounds, and the same errors. It also runs that loop
//! over both kinds of runs side by side: every round must score the same
//! candidates at the same prices, and every exact cost must agree. After
//! each IKMB construction it checks the bottleneck runs, pushed ones
//! included, against full runs: each settles every node within `M(N)`,
//! ties included, with the full run's distance and parent, the final
//! bound is `M(N)`, and every member pair reads the same both ways.
//!
//! The instances are seeded:
//!
//! * random multigraphs with zero-weight, parallel and near-`Weight::MAX`
//!   edges, and removed nodes and edges;
//! * unit grids, which are full of ties;
//! * grids with seeded weight noise;
//! * graphs with Steiner hubs hung beyond the source's radius;
//! * each graph again through a `LaneView` with hidden nodes, discounts
//!   and a tilt, as PathFinder routes;
//! * random explicit pools over each.
//!
//! IKMB and IDOM run screened, batched and one at a time.

mod common;

use common::{grid, random_graph};
use route_graph::mst::prim_complete;
use route_graph::rng::{Rng, SliceRandom, SplitMix64};
use route_graph::{
    EdgeId, Graph, GraphView, LaneRules, LaneView, LiveLane, NodeId, ShortestPaths,
    TerminalDistances, Weight,
};
use steiner_route::heuristic::IteratedBase;
use steiner_route::{
    CandidatePool, Dom, Iterated, IteratedConfig, Kmb, Net, ScreenedRuns, SteinerError,
};

const SEEDS: u64 = 1500;

/// The default screen patience of [`IteratedConfig`].
const PATIENCE: usize = 8;

/// What a construction returned: tree edges, Steiner points in
/// acceptance order, and rounds.
type Outcome = Result<(Vec<EdgeId>, Vec<NodeId>, usize), SteinerError>;

/// A random multigraph or noisy grid with new sink nodes hung off random
/// nodes, each about two units beyond the farthest node from the source,
/// and one or two new hubs joined to the sinks. Most hubs are good
/// Steiner points farther from the source than every sink: candidates
/// beyond the source's radius. Returns the terminals, source first.
fn far_hubs(rng: &mut SplitMix64) -> (Graph, Option<Vec<NodeId>>) {
    let mut g = if rng.gen_range(0..2u32) == 0 {
        random_graph(rng, 30)
    } else {
        grid(rng, 9, true)
    };
    let live: Vec<NodeId> = g.node_ids().collect();
    let source = live[rng.gen_range(0..live.len())];
    let sp = ShortestPaths::run(&g, source).unwrap();
    let reached: Vec<(NodeId, Weight)> = sp
        .reached()
        .filter(|&(_, d)| d < Weight::from_units(1_000_000))
        .collect();
    let rim = reached
        .iter()
        .map(|&(_, d)| d)
        .max()
        .unwrap()
        .saturating_add(Weight::from_units(2));
    let mut terminals = vec![source];
    let mut noise = Vec::new();
    for _ in 0..rng.gen_range(3..=6u32) {
        let (u, d) = reached[rng.gen_range(0..reached.len())];
        let sink = g.add_node();
        noise.push(Weight::from_milli(rng.gen_range(0..500u64)));
        let w = rim.saturating_sub(d).saturating_add(noise[noise.len() - 1]);
        g.add_edge(u, sink, w).unwrap();
        terminals.push(sink);
    }
    // Spokes longer than the spread of the sinks' distances put a hub
    // beyond every sink; the rest are about a unit long.
    let spread = noise
        .iter()
        .max()
        .unwrap()
        .saturating_sub(*noise.iter().min().unwrap());
    for _ in 0..rng.gen_range(1..=2u32) {
        let hub = g.add_node();
        let beyond = rng.gen_range(0..4u32) != 0;
        for &sink in &terminals[1..] {
            if rng.gen_range(0..4u32) != 0 {
                let w = if beyond {
                    spread.saturating_add(Weight::from_milli(rng.gen_range(1..1000u64)))
                } else {
                    Weight::from_milli(rng.gen_range(300..1500u64))
                };
                g.add_edge(hub, sink, w).unwrap();
            }
        }
    }
    (g, Some(terminals))
}

/// The graph of seed `seed`, and the net's terminals if the graph was
/// built around them.
fn graph(seed: u64, rng: &mut SplitMix64) -> (Graph, Option<Vec<NodeId>>) {
    match seed % 4 {
        0 => (random_graph(rng, 30), None),
        1 => (grid(rng, 9, false), None),
        2 => (grid(rng, 9, true), None),
        _ => far_hubs(rng),
    }
}

/// PathFinder-style lane rules over `g`: about a tenth of the nodes
/// hidden, discounts of up to 1.5 units on about a third, and on half
/// the seeds a tilt.
struct Rules {
    hidden: Vec<bool>,
    discount: Vec<Weight>,
    tilt: Option<u64>,
}

impl Rules {
    fn draw(g: &Graph, rng: &mut SplitMix64) -> Rules {
        let n = g.node_count();
        Rules {
            hidden: (0..n).map(|_| rng.gen_range(0..10u32) == 0).collect(),
            discount: (0..n)
                .map(|_| match rng.gen_range(0..3u32) {
                    0 => Weight::from_milli(rng.gen_range(0..1500u64)),
                    _ => Weight::ZERO,
                })
                .collect(),
            tilt: (rng.gen_range(0..2u32) == 0).then(|| rng.next_u64()),
        }
    }

    fn lane(&self) -> LaneRules<'_> {
        LaneRules {
            hidden: &self.hidden,
            discount: &self.discount,
            tilt: self.tilt,
        }
    }
}

/// A net over `g`, on `terminals` if they are all live and else on
/// random live nodes, and an explicit pool drawn from every node id, dead
/// and hidden ones included. `None` if `g` has too few live nodes.
fn net_and_pool<G: GraphView>(
    g: &G,
    terminals: Option<&[NodeId]>,
    rng: &mut SplitMix64,
) -> Option<(Net, Vec<NodeId>)> {
    let net = match terminals {
        Some(terminals) if terminals.iter().all(|&v| g.is_node_live(v)) => {
            Net::from_terminals(terminals.to_vec()).unwrap()
        }
        _ => {
            let mut live: Vec<NodeId> = g.node_ids().collect();
            if live.len() < 3 {
                return None;
            }
            live.shuffle(rng);
            let k = rng.gen_range(2..=live.len().min(8) - 1);
            Net::from_terminals(live[..k].to_vec()).unwrap()
        }
    };
    let keep = rng.gen_range(1..=4u32);
    let pool: Vec<NodeId> = (0..g.node_count())
        .map(NodeId::from_index)
        .filter(|&v| !net.contains(v) && rng.gen_range(0..4u32) < keep)
        .collect();
    Some((net, pool))
}

/// Tallies that show the suite reaches what it claims to check.
#[derive(Debug, Default)]
struct Reached {
    constructions: usize,
    errors: usize,
    with_steiner_points: usize,
    /// Instances where some run left a live pool node unsettled.
    truncated: usize,
    /// Scored candidates that the source's radius run left unsettled.
    beyond_source_radius: usize,
    /// Member pairs that only one of their two runs settled.
    one_run_only: usize,
    /// Member pairs that neither of their bottleneck runs settled.
    neither_run: usize,
    /// Accepted Steiner points whose pair with the source neither
    /// bottleneck run settled: a connectivity test that read the
    /// source's run alone would call them disconnected.
    accepted_beyond_source: usize,
}

/// The runs the template makes for `base`: IDOM's stop at the source's
/// radius, IKMB's at the terminals' MST bottleneck.
fn early_runs<G: GraphView, H: IteratedBase<G>>(
    base: &H,
    g: &G,
    terminals: &[NodeId],
) -> TerminalDistances {
    match base.screened_runs() {
        ScreenedRuns::SourceRadius => TerminalDistances::compute_to_radius(g, terminals),
        ScreenedRuns::Bottleneck => TerminalDistances::compute_to_bottleneck(g, terminals),
        other => panic!("{other:?} runs do not stop early"),
    }
    .unwrap()
}

/// Checks a `compute_to_bottleneck` instance over `k` terminals, pushed
/// runs included, against full runs from its members, and returns how
/// many member pairs neither of their runs settled.
///
/// `M(N)` comes from the terminals' full runs. The final bound must
/// equal it; every run must settle every node within it, ties included,
/// with the full run's distance and parent; and every member pair must
/// read the same both ways, absent only when farther apart than `M(N)`.
fn check_bottleneck_runs<G: GraphView>(
    g: &G,
    td: &TerminalDistances,
    k: usize,
    what: &str,
) -> usize {
    let members = td.terminals();
    let full: Vec<ShortestPaths> = members
        .iter()
        .map(|&m| ShortestPaths::run(g, m).unwrap())
        .collect();
    let m_n = prim_complete(k, |i, j| full[i].dist(members[j]))
        .map(|mst| mst.weights.into_iter().max().unwrap_or(Weight::ZERO));
    assert_eq!(td.bottleneck(), m_n, "{what}: the final bound is M(N)");
    // Terminals that do not connect leave every run flooding.
    let bound = m_n.unwrap_or(Weight::MAX);
    for (i, run) in full.iter().enumerate() {
        let cut = td.shortest_paths(i);
        for (v, d) in run.reached().filter(|&(_, d)| d <= bound) {
            assert_eq!(cut.dist(v), Some(d), "{what}: run {i} settles {v:?}");
            assert_eq!(
                cut.parent(v),
                run.parent(v),
                "{what}: run {i}, parent of {v:?}"
            );
        }
    }
    let mut neither = 0;
    for (i, run) in full.iter().enumerate() {
        for (j, &m) in members.iter().enumerate() {
            let (got, want) = (td.dist(i, j), run.dist(m));
            assert_eq!(got, td.dist(j, i), "{what}: dist({i}, {j})");
            if got.is_some() {
                assert_eq!(got, want, "{what}: dist({i}, {j})");
            } else if let Some(d) = want {
                assert!(d > bound, "{what}: ({i}, {j}) at {d:?} within {bound:?}");
                neither += usize::from(i < j);
            }
        }
    }
    neither
}

/// The screened template of `Iterated::construct_traced`, over runs that
/// settle `terminals ∪ pool`. The same loop runs alongside over the runs
/// the template makes for `base`, without steering it: every round must
/// score the same candidates at the same prices, and every exact cost and
/// the final tree must agree.
fn reference<G: GraphView, H: IteratedBase<G>>(
    base: &H,
    g: &G,
    net: &Net,
    pool: &[NodeId],
    batched: bool,
    what: &str,
    reached: &mut Reached,
) -> Outcome {
    net.validate_in(g)?;
    let terminals = net.terminals();
    let mut td = TerminalDistances::compute_to_targets(g, terminals, pool)?;
    let mut cut = early_runs(base, g, terminals);
    let reference = base.cost_with(g, &td, None);
    assert_eq!(base.cost_with(g, &cut, None), reference, "{what}: reference");
    let mut current = reference?;
    let mut pool: Vec<NodeId> = pool
        .iter()
        .copied()
        .filter(|&v| g.is_node_live(v) && td.index_of(v).is_none())
        .collect();
    let mut steiner_points: Vec<NodeId> = Vec::new();
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let (mut scored, mut cut_scored) = (Vec::new(), Vec::new());
        let round = base.screen_round(g, &td, &pool, &mut scored);
        assert_eq!(base.screen_round(g, &cut, &pool, &mut cut_scored), round, "{what}");
        round?;
        scored.sort();
        cut_scored.sort();
        assert_eq!(cut_scored, scored, "{what}: round {rounds}");
        if scored.is_empty() {
            break;
        }
        let first_accepted = steiner_points.len();
        let mut misses = 0usize;
        for &(_, t) in &scored {
            if cut.dist_to_node(0, t).is_none() {
                reached.beyond_source_radius += 1;
            }
            let c = base.cost_with(g, &td, Some(t));
            assert_eq!(base.cost_with(g, &cut, Some(t)), c, "{what}: cost of {t:?}");
            let c = c?;
            if c < current {
                td.push_terminal(g, t)?;
                cut.push_terminal(g, t).unwrap();
                steiner_points.push(t);
                current = c;
                misses = 0;
                if !batched {
                    break;
                }
            } else {
                misses += 1;
                if misses >= PATIENCE {
                    break;
                }
            }
        }
        let accepted = &steiner_points[first_accepted..];
        if accepted.is_empty() {
            break;
        }
        pool.retain(|v| !accepted.contains(v));
    }
    for j in 1..cut.len() {
        for i in 0..j {
            let by_i = cut.shortest_paths(i).dist(cut.terminals()[j]);
            let by_j = cut.shortest_paths(j).dist(cut.terminals()[i]);
            reached.one_run_only += usize::from(by_i.is_some() != by_j.is_some());
        }
    }
    if base.screened_runs() == ScreenedRuns::Bottleneck {
        let k = terminals.len();
        reached.neither_run += check_bottleneck_runs(g, &cut, k, what);
        reached.accepted_beyond_source +=
            (k..cut.len()).filter(|&p| cut.dist(0, p).is_none()).count();
    }
    let tree = base.build_with(g, &td, None);
    assert_eq!(base.build_with(g, &cut, None), tree, "{what}: final tree");
    let tree = tree?.pruned_to(g, terminals)?;
    Ok((tree.edges().to_vec(), steiner_points, rounds))
}

/// The template itself, screened over the explicit `pool`.
fn screened<G: GraphView, H: IteratedBase<G> + Clone>(
    base: &H,
    g: &G,
    net: &Net,
    pool: &[NodeId],
    batched: bool,
) -> Outcome {
    let config = IteratedConfig {
        batched,
        pool: CandidatePool::Explicit(pool.to_vec()),
        screened: true,
        ..IteratedConfig::default()
    };
    assert_eq!(config.screen_patience, PATIENCE);
    let outcome = Iterated::with_config(base.clone(), config).construct_traced(g, net)?;
    Ok((
        outcome.tree.edges().to_vec(),
        outcome.steiner_points,
        outcome.rounds,
    ))
}

/// Checks IKMB and IDOM, batched and one at a time, on one instance.
fn check<G: GraphView>(g: &G, net: &Net, pool: &[NodeId], what: &str, reached: &mut Reached) {
    for batched in [true, false] {
        let what = format!("{what}, batched = {batched}");
        let ikmb = (
            screened(&Kmb::new(), g, net, pool, batched),
            reference(&Kmb::new(), g, net, pool, batched, &format!("{what}: IKMB"), reached),
        );
        let idom = (
            screened(&Dom::new(), g, net, pool, batched),
            reference(&Dom::new(), g, net, pool, batched, &format!("{what}: IDOM"), reached),
        );
        for (name, (got, expected)) in [("IKMB", ikmb), ("IDOM", idom)] {
            assert_eq!(got, expected, "{what}: {name}");
            reached.constructions += 1;
            match &got {
                Err(_) => reached.errors += 1,
                Ok((_, points, _)) if !points.is_empty() => reached.with_steiner_points += 1,
                Ok(_) => {}
            }
        }
    }
    if let Ok(td) = TerminalDistances::compute_to_radius(g, net.terminals()) {
        let cut = pool.iter().any(|&v| {
            g.is_node_live(v) && (0..td.len()).any(|i| td.dist_to_node(i, v).is_none())
        });
        reached.truncated += usize::from(cut);
    }
}

#[test]
fn radius_runs_build_what_pool_runs_build() {
    let mut reached = Reached::default();
    let mut lane = LiveLane::default();
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let (g, terminals) = graph(seed, &mut rng);
        let terminals = terminals.as_deref();
        if let Some((net, pool)) = net_and_pool(&g, terminals, &mut rng) {
            check(&g, &net, &pool, &format!("seed {seed}"), &mut reached);
        }
        let rules = Rules::draw(&g, &mut rng);
        let view = LaneView::pack(&g, &mut lane, rules.lane());
        if let Some((net, pool)) = net_and_pool(&view, terminals, &mut rng) {
            check(&view, &net, &pool, &format!("seed {seed}, lane view"), &mut reached);
        }
    }
    assert!(reached.constructions > 10_000, "{reached:?}");
    assert!(reached.errors > 100, "the suite must reach errors: {reached:?}");
    assert!(
        reached.with_steiner_points > reached.constructions / 8,
        "the suite must accept Steiner points: {reached:?}"
    );
    assert!(
        reached.truncated > 1000,
        "the radius must cut runs short of the pool: {reached:?}"
    );
    assert!(
        reached.beyond_source_radius > 100,
        "the suite must score candidates beyond the source's radius: {reached:?}"
    );
    assert!(
        reached.one_run_only > 100,
        "the suite must reach pairs only one run settled: {reached:?}"
    );
    assert!(
        reached.neither_run >= 10,
        "the suite must reach pairs neither bottleneck run settled: {reached:?}"
    );
    assert!(
        reached.accepted_beyond_source >= 10,
        "the suite must accept points whose pair with the source no run settled: {reached:?}"
    );
}
