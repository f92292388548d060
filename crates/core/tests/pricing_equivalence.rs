//! Per-round Steiner candidate prices equal per-candidate prices.
//!
//! The iterated template's screened rounds price every candidate over a
//! summary of the terminal set built once per round, and KMB's exact cost
//! builds no tree. This suite checks both against direct per-candidate
//! reference computations, on seeded graphs with ties, zero-weight edges,
//! parallel edges, removed nodes and edges, and weights near
//! `Weight::MAX`:
//!
//! * KMB's round output equals a loop pricing each candidate with an MST
//!   over the complete distance graph of `T ∪ {t}`;
//! * DOM's round output equals a loop over its exact `cost_with`;
//! * KMB's `build_with` equals, edge for edge, the tree built by `Path`
//!   expansion, Kruskal, `RoutingTree` and pruning, and its `cost_with`
//!   equals that tree's cost, errors included;
//! * `kruskal_subgraph` equals a Kruskal over whole-graph arrays.
//!
//! Each check runs on full and target-restricted distances, and again
//! after terminals are pushed. The KMB checks also run on bottleneck
//! distances (`TerminalDistances::compute_to_bottleneck`), grown by
//! candidates a round scored, against references computed from full runs
//! from the same members; there the exact cost is compared for the
//! candidates the round scores, the only ones the template costs.

mod common;

use std::sync::Mutex;

use common::{grid, random_graph};
use route_graph::mst::{kruskal_subgraph, prim_complete, SubgraphMst};
use route_graph::rng::{Rng, SliceRandom, SplitMix64};
use route_graph::{EdgeId, Graph, GraphError, NodeId, TerminalDistances, Weight};
use steiner_route::heuristic::IteratedBase;
use steiner_route::{Dom, Kmb, RoutingTree, SteinerError};

const SEEDS: u64 = 200;

/// The trace collector is process-global: tests that run instrumented
/// code take this gate so the counter test sees only its own events.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One pricing instance: a terminal set over `g` and the candidates it is
/// priced against.
struct Instance {
    td: TerminalDistances,
    pool: Vec<NodeId>,
    /// Full runs from the same members when `td` holds bottleneck runs:
    /// the KMB references are computed from these.
    full: Option<TerminalDistances>,
}

impl Instance {
    /// The distances a reference is computed from.
    fn reference_td(&self) -> &TerminalDistances {
        self.full.as_ref().unwrap_or(&self.td)
    }
}

/// Terminal sets over `g`: full distances with every live non-terminal as
/// a candidate, and distances restricted to a random pool. Each is
/// returned as built and again after one or two pool members were pushed
/// as terminals. Then bottleneck distances over every live non-terminal,
/// as built and again after one or two candidates that their first round
/// scored were pushed, as a batched round accepts them.
fn instances(g: &Graph, rng: &mut SplitMix64) -> Vec<Instance> {
    let mut live: Vec<NodeId> = g.node_ids().collect();
    if live.len() < 3 {
        return Vec::new();
    }
    live.shuffle(rng);
    let k = rng.gen_range(2..=live.len().min(7) - 1);
    let (terminals, rest) = live.split_at(k);
    let mut restricted_pool: Vec<NodeId> = rest
        .iter()
        .copied()
        .filter(|_| rng.gen_range(0..3u32) != 0)
        .collect();
    if restricted_pool.is_empty() {
        restricted_pool.push(rest[0]);
    }
    let full = Instance {
        td: TerminalDistances::compute(g, terminals).unwrap(),
        pool: rest.to_vec(),
        full: None,
    };
    let restricted = Instance {
        td: TerminalDistances::compute_to_targets(g, terminals, &restricted_pool).unwrap(),
        pool: restricted_pool,
        full: None,
    };
    let mut out = Vec::new();
    for base in [full, restricted] {
        let mut grown = Instance {
            td: base.td.clone(),
            pool: base.pool.clone(),
            full: None,
        };
        for _ in 0..rng.gen_range(1..3u32) {
            if grown.pool.len() < 2 {
                break;
            }
            let i = rng.gen_range(0..grown.pool.len());
            let t = grown.pool.remove(i);
            grown.td.push_terminal(g, t).unwrap();
        }
        out.push(base);
        out.push(grown);
    }
    let neck = Instance {
        td: TerminalDistances::compute_to_bottleneck(g, terminals).unwrap(),
        pool: rest.to_vec(),
        full: Some(TerminalDistances::compute(g, terminals).unwrap()),
    };
    let mut scored = Vec::new();
    if Kmb::new()
        .screen_round(g, &neck.td, &neck.pool, &mut scored)
        .is_ok()
        && !scored.is_empty()
    {
        let mut grown = Instance {
            td: neck.td.clone(),
            pool: neck.pool.clone(),
            full: neck.full.clone(),
        };
        scored.shuffle(rng);
        for &(_, t) in &scored[..scored.len().min(rng.gen_range(1..3usize))] {
            grown.pool.retain(|&v| v != t);
            grown.td.push_terminal(g, t).unwrap();
            if let Some(full) = &mut grown.full {
                full.push_terminal(g, t).unwrap();
            }
        }
        out.push(grown);
    }
    out.push(neck);
    out
}

/// Every instance the suite checks: random multigraphs and unit grids.
fn all_instances(mut check: impl FnMut(&Graph, &Instance, u64)) {
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let g = if seed % 3 == 2 {
            grid(&mut rng, 7, false)
        } else {
            random_graph(&mut rng, 22)
        };
        for inst in instances(&g, &mut rng) {
            check(&g, &inst, seed);
        }
    }
}

/// Every terminal, and the candidate, must be reachable from terminal 0.
fn connected(td: &TerminalDistances, candidate: Option<NodeId>) -> Result<(), SteinerError> {
    let t0 = td.terminals()[0];
    for j in 1..td.len() {
        if td.dist(0, j).is_none() {
            let to = td.terminals()[j];
            return Err(GraphError::Disconnected { from: t0, to }.into());
        }
    }
    if let Some(c) = candidate {
        if td.dist_to_node(0, c).is_none() {
            return Err(GraphError::Disconnected { from: t0, to: c }.into());
        }
    }
    Ok(())
}

/// The complete distance graph of `T ∪ {candidate}`, candidate last.
fn extended_dist(
    td: &TerminalDistances,
    candidate: Option<NodeId>,
) -> impl Fn(usize, usize) -> Option<Weight> + '_ {
    let base = td.len();
    move |i, j| match (i == base, j == base) {
        (false, false) => td.dist(i, j),
        (true, false) => td.dist_to_node(j, candidate.unwrap()),
        (false, true) => td.dist_to_node(i, candidate.unwrap()),
        (true, true) => unreachable!(),
    }
}

/// The KMB screen price: an MST over the complete distance graph of
/// `T ∪ {candidate}`.
fn complete_mst_price(td: &TerminalDistances, candidate: Option<NodeId>) -> Option<Weight> {
    connected(td, candidate).ok()?;
    let k = td.len() + usize::from(candidate.is_some());
    prim_complete(k, extended_dist(td, candidate)).map(|mst| mst.cost)
}

/// A screened round over a per-candidate price.
fn reference_round(
    reference: Option<Weight>,
    pool: &[NodeId],
    price: impl Fn(NodeId) -> Option<Weight>,
) -> Option<Vec<(Weight, NodeId)>> {
    let reference = reference?;
    let mut scored: Vec<(Weight, NodeId)> = pool
        .iter()
        .filter_map(|&t| price(t).filter(|&c| c < reference).map(|c| (c, t)))
        .collect();
    scored.sort();
    Some(scored)
}

fn screened_round<H: IteratedBase>(
    base: &H,
    g: &Graph,
    inst: &Instance,
) -> Option<Vec<(Weight, NodeId)>> {
    let mut scored = Vec::new();
    base.screen_round(g, &inst.td, &inst.pool, &mut scored)
        .ok()?;
    scored.sort();
    Some(scored)
}

/// Kruskal over whole-graph bitmaps and index arrays.
fn array_kruskal(g: &Graph, edges: &[EdgeId]) -> SubgraphMst {
    let mut seen_edge = vec![false; g.edge_count()];
    let mut sorted: Vec<(Weight, EdgeId)> = Vec::new();
    let mut touched: Vec<NodeId> = Vec::new();
    let mut node_seen = vec![false; g.node_count()];
    for &e in edges {
        if e.index() >= seen_edge.len() || seen_edge[e.index()] || !g.is_edge_usable(e) {
            continue;
        }
        seen_edge[e.index()] = true;
        sorted.push((g.weight(e).unwrap(), e));
        let (a, b) = g.endpoints(e).unwrap();
        for v in [a, b] {
            if !node_seen[v.index()] {
                node_seen[v.index()] = true;
                touched.push(v);
            }
        }
    }
    sorted.sort();
    let mut compact = vec![usize::MAX; g.node_count()];
    for (i, &v) in touched.iter().enumerate() {
        compact[v.index()] = i;
    }
    let mut uf = route_graph::dsu::UnionFind::new(touched.len());
    let mut chosen = Vec::new();
    let mut cost = Weight::ZERO;
    for (w, e) in sorted {
        let (a, b) = g.endpoints(e).unwrap();
        if uf.union(compact[a.index()], compact[b.index()]) {
            chosen.push(e);
            cost = cost.saturating_add(w);
        }
    }
    SubgraphMst {
        edges: chosen,
        cost,
        connected: uf.set_count() <= 1,
    }
}

/// The KMB tree built step by step: distance-graph MST, `Path`
/// expansion, Kruskal, a `RoutingTree`, then a pruned copy.
fn path_expanded_tree(
    g: &Graph,
    td: &TerminalDistances,
    candidate: Option<NodeId>,
) -> Result<RoutingTree, SteinerError> {
    connected(td, candidate)?;
    let base = td.len();
    let k = base + usize::from(candidate.is_some());
    let mst = prim_complete(k, extended_dist(td, candidate)).unwrap();
    let mut edges: Vec<EdgeId> = Vec::new();
    for &(i, j) in &mst.edges {
        let path = if j == base {
            td.path_to_node(i, candidate.unwrap())?
        } else {
            td.path(i, j)?
        };
        edges.extend_from_slice(path.edges());
    }
    let sub = array_kruskal(g, &edges);
    let tree = RoutingTree::from_edges(g, sub.edges)?;
    let mut keep: Vec<NodeId> = td.terminals().to_vec();
    keep.extend(candidate);
    tree.pruned_to(g, &keep)
}

#[test]
fn kmb_round_equals_per_candidate_complete_msts() {
    let _gate = serial();
    let mut scored = 0usize;
    let (mut on_bottleneck, mut cut_star) = (0usize, 0usize);
    all_instances(|g, inst, seed| {
        let td = inst.reference_td();
        let reference = reference_round(complete_mst_price(td, None), &inst.pool, |t| {
            complete_mst_price(td, Some(t))
        });
        let screened = screened_round(&Kmb::new(), g, inst);
        assert_eq!(screened, reference, "seed {seed}");
        let n = screened.map_or(0, |s| s.len());
        scored += n;
        if inst.full.is_some() {
            on_bottleneck += n;
            // Candidates with a star edge that a bottleneck run left out.
            cut_star += inst
                .pool
                .iter()
                .filter(|&&t| {
                    (0..inst.td.len()).any(|i| {
                        inst.td.dist_to_node(i, t).is_none() && td.dist_to_node(i, t).is_some()
                    })
                })
                .count();
        }
    });
    assert!(scored > 200, "the suite must score candidates ({scored})");
    assert!(
        on_bottleneck > 40,
        "the suite must score on bottleneck runs ({on_bottleneck})"
    );
    assert!(
        cut_star > 1000,
        "bottleneck runs must leave star edges out ({cut_star})"
    );
}

#[test]
fn dom_round_equals_per_candidate_exact_costs() {
    let _gate = serial();
    let dom = Dom::new();
    let mut scored = 0usize;
    all_instances(|g, inst, seed| {
        if inst.full.is_some() {
            return; // DOM's runs stop at the source's radius.
        }
        let td = &inst.td;
        let reference = reference_round(dom.cost_with(g, td, None).ok(), &inst.pool, |t| {
            dom.cost_with(g, td, Some(t)).ok()
        });
        let screened = screened_round(&dom, g, inst);
        assert_eq!(screened, reference, "seed {seed}");
        scored += screened.map_or(0, |s| s.len());
    });
    assert!(scored > 200, "the suite must score candidates ({scored})");
}

#[test]
fn kmb_builds_the_path_expanded_tree_and_costs_it_without_building() {
    let _gate = serial();
    let kmb = Kmb::new();
    let mut errors = 0usize;
    let mut on_bottleneck = 0usize;
    all_instances(|g, inst, seed| {
        let td = &inst.td;
        let candidates: Vec<NodeId> = match inst.full {
            None => inst.pool.clone(),
            Some(_) => screened_round(&kmb, g, inst)
                .into_iter()
                .flatten()
                .map(|(_, t)| t)
                .collect(),
        };
        if inst.full.is_some() {
            on_bottleneck += candidates.len();
        }
        for candidate in std::iter::once(None).chain(candidates.into_iter().map(Some)) {
            let expected = path_expanded_tree(g, inst.reference_td(), candidate);
            let built = kmb.build_with(g, td, candidate);
            let cost = kmb.cost_with(g, td, candidate);
            match (&expected, &built) {
                (Ok(expected), Ok(built)) => {
                    assert_eq!(built.edges(), expected.edges(), "seed {seed} {candidate:?}");
                    assert_eq!(cost, Ok(expected.cost()), "seed {seed} {candidate:?}");
                }
                _ => {
                    assert_eq!(built, expected, "seed {seed} {candidate:?}");
                    assert_eq!(
                        cost,
                        expected.map(|t| t.cost()),
                        "seed {seed} {candidate:?}"
                    );
                    errors += 1;
                }
            }
        }
    });
    assert!(errors > 0, "the suite must reach disconnected sets");
    assert!(
        on_bottleneck > 40,
        "the suite must cost on bottleneck runs ({on_bottleneck})"
    );
}

#[test]
fn kruskal_subgraph_equals_the_whole_graph_array_version() {
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let g = random_graph(&mut rng, 22);
        let m = g.edge_count();
        for _ in 0..4 {
            // Duplicates, removed edges, edges at removed nodes, and one
            // id past the end.
            let mut edges: Vec<EdgeId> = (0..rng.gen_range(0..2 * m))
                .map(|_| EdgeId::from_index(rng.gen_range(0..=m)))
                .collect();
            edges.shuffle(&mut rng);
            assert_eq!(
                kruskal_subgraph(&g, &edges),
                array_kruskal(&g, &edges),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn rounds_count_what_the_per_candidate_loops_counted() {
    use route_trace::{Collector, Counter};
    let _gate = serial();
    let (kmb, dom) = (Kmb::new(), Dom::new());
    all_instances(|g, inst, seed| {
        let td = &inst.td;
        let tally = |f: &dyn Fn()| {
            let collector = Collector::install();
            f();
            let trace = collector.finish();
            (
                trace.counters.get(Counter::DomConnections),
                trace.counters.get(Counter::KmbConstructions),
            )
        };
        let per_candidate = tally(&|| {
            if inst.full.is_none() && dom.cost_with(g, td, None).is_ok() {
                for &t in &inst.pool {
                    let _ = dom.cost_with(g, td, Some(t));
                }
            }
        });
        let per_round = tally(&|| {
            if inst.full.is_none() {
                let _ = dom.screen_round(g, td, &inst.pool, &mut Vec::new());
            }
        });
        assert_eq!(per_round, per_candidate, "seed {seed}: DOM");
        for candidate in std::iter::once(None).chain(inst.pool.iter().copied().map(Some)) {
            let built = tally(&|| {
                let _ = kmb.build_with(g, td, candidate);
            });
            let costed = tally(&|| {
                let _ = kmb.cost_with(g, td, candidate);
            });
            assert_eq!(costed, built, "seed {seed}: KMB {candidate:?}");
        }
    });
}
