//! Equivalence tests for the shortest-path kernel and the lane view.
//!
//! The kernel's lazy-deletion frontier, its generation-stamped scratch
//! and the lane view the router relaxes over are free to change how a
//! query runs, never what it returns. On seeded SplitMix64 graphs with
//! removed nodes, removed edges and parallel edges these tests pin:
//!
//! * full runs against the Floyd–Warshall oracle;
//! * target-restricted and scratch-reusing runs, and the point-to-point
//!   `minpath` queries, against the full run, on every target's distance
//!   *and* path (strictly positive weights, where the canonical parent
//!   rule makes paths unique);
//! * a [`TerminalDistances`] that reuses one scratch across its
//!   per-terminal runs and repeated `push_terminal` calls against fresh
//!   runs;
//! * the runs of [`TerminalDistances::compute_to_radius`], pushed ones
//!   included, against fresh runs: each settles exactly the nodes no
//!   farther than its radius, so an unsettled node is farther than the
//!   source's radius `R`, and both orders of every member pair agree;
//! * a [`LaneView`]'s adjacency against its base graph, and, with masked
//!   pins, discounts and a tilt, against a clone mutated the same way.

use route_graph::dijkstra::{minpath, minpath_with};
use route_graph::floyd::AllPairs;
use route_graph::rng::{Rng, SplitMix64};
use route_graph::csr::tilt;
use route_graph::{
    DistanceOracle, EdgeId, Graph, GraphView, KernelScratch, LaneRules, LaneView, LiveLane,
    NodeId, ShortestPaths, TerminalDistances, Weight,
};

/// A seeded graph with every liveness case the kernel must skip: random
/// edges with small positive integer weights (so equal-cost paths, and
/// hence parent ties, are common), parallel edges, then a few removed
/// edges and removed nodes.
fn mutated_graph(seed: u64) -> Graph {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = rng.gen_range(6..32usize);
    let mut g = Graph::with_nodes(n);
    let ids: Vec<NodeId> = g.node_ids().collect();
    let edges = rng.gen_range(n..3 * n);
    for _ in 0..edges {
        let a = ids[rng.gen_range(0..n)];
        let b = ids[rng.gen_range(0..n)];
        if a == b {
            continue;
        }
        let w = Weight::from_units(rng.gen_range(1..=4u64));
        let e = g.add_edge(a, b, w).unwrap();
        if rng.gen_range(0..5u32) == 0 {
            // A parallel twin, sometimes cheaper, sometimes tied.
            let twin = Weight::from_units(rng.gen_range(1..=4u64));
            g.add_edge(a, b, twin).unwrap();
        }
        if rng.gen_range(0..8u32) == 0 {
            g.remove_edge(e).unwrap();
        }
    }
    for _ in 0..rng.gen_range(0..=n / 6) {
        g.remove_node(ids[rng.gen_range(0..n)]).unwrap();
    }
    g
}

/// Up to `count` distinct nodes, dead ones included (the kernel must
/// ignore them as targets).
fn pick_nodes(g: &Graph, rng: &mut SplitMix64, count: usize) -> Vec<NodeId> {
    let mut picked: Vec<NodeId> = (0..count)
        .map(|_| NodeId::from_index(rng.gen_range(0..g.node_count())))
        .collect();
    picked.sort_unstable();
    picked.dedup();
    picked
}

fn assert_same_route(full: &ShortestPaths, got: &ShortestPaths, v: NodeId, label: &str) {
    assert_eq!(got.dist(v), full.dist(v), "{label}: dist({v})");
    match (full.path_to(v), got.path_to(v)) {
        (Ok(a), Ok(b)) => {
            assert_eq!(b.nodes(), a.nodes(), "{label}: path nodes to {v}");
            assert_eq!(b.edges(), a.edges(), "{label}: path edges to {v}");
        }
        (Err(_), Err(_)) => {}
        (a, b) => panic!("{label}: reachability of {v} differs ({a:?} vs {b:?})"),
    }
}

#[test]
fn full_runs_match_floyd_warshall() {
    for seed in 0..40u64 {
        let g = mutated_graph(seed);
        let oracle = AllPairs::run(&g);
        let sources: Vec<NodeId> = g.node_ids().collect();
        for &s in &sources {
            let sp = ShortestPaths::run(&g, s).unwrap();
            for i in 0..g.node_count() {
                let v = NodeId::from_index(i);
                assert_eq!(sp.dist(v), oracle.dist(s, v), "seed {seed}: d({s}, {v})");
                if let Ok(path) = sp.path_to(v) {
                    assert_eq!(path.cost(), sp.dist(v).unwrap());
                    assert_eq!(path.source(), s);
                    let total: Weight = path.edges().iter().map(|&e| g.weight(e).unwrap()).sum();
                    assert_eq!(total, path.cost(), "seed {seed}: path cost to {v}");
                    assert!(path.edges().iter().all(|&e| g.is_edge_usable(e)));
                }
            }
            let reached: Vec<NodeId> = sp.reached().map(|(v, _)| v).collect();
            let expected: Vec<NodeId> = (0..g.node_count())
                .map(NodeId::from_index)
                .filter(|&v| oracle.dist(s, v).is_some())
                .collect();
            assert_eq!(reached, expected, "seed {seed}: reached set from {s}");
        }
    }
}

#[test]
fn restricted_runs_match_the_full_run_on_every_target() {
    let mut scratch = KernelScratch::new();
    let mut oracle = DistanceOracle::new();
    for seed in 100..160u64 {
        let g = mutated_graph(seed);
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5eed);
        let Some(source) = g.node_ids().nth(rng.gen_range(0..g.live_node_count())) else {
            continue;
        };
        let targets = pick_nodes(&g, &mut rng, 5);
        let full = ShortestPaths::run(&g, source).unwrap();
        let restricted = ShortestPaths::run_to_targets(&g, source, &targets).unwrap();
        let reused =
            ShortestPaths::run_to_targets_with(&g, source, &targets, &mut scratch).unwrap();
        let via_oracle = oracle.run_to_targets(&g, source, &targets).unwrap();
        for &t in &targets {
            assert_same_route(&full, &restricted, t, &format!("seed {seed} restricted"));
            assert_same_route(&full, &reused, t, &format!("seed {seed} scratch"));
            assert_same_route(&full, &via_oracle, t, &format!("seed {seed} oracle"));
            if g.is_node_live(t) {
                let want = full.dist(t);
                assert_eq!(
                    minpath(&g, source, t).ok(),
                    want,
                    "seed {seed}: minpath to {t}"
                );
                assert_eq!(
                    minpath_with(&g, source, t, &mut scratch).ok(),
                    want,
                    "seed {seed}: scratch minpath to {t}"
                );
                assert_eq!(
                    oracle.minpath(&g, source, t).ok(),
                    want,
                    "seed {seed}: oracle minpath to {t}"
                );
            }
        }
    }
}

#[test]
fn terminal_distances_reusing_one_scratch_equal_fresh_runs() {
    for seed in 200..240u64 {
        let g = mutated_graph(seed);
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x7e57);
        let live: Vec<NodeId> = g.node_ids().collect();
        if live.len() < 4 {
            continue;
        }
        let mut terminals: Vec<NodeId> =
            (0..3).map(|_| live[rng.gen_range(0..live.len())]).collect();
        terminals.sort_unstable();
        terminals.dedup();
        let extras = pick_nodes(&g, &mut rng, 6);
        let target_set: Vec<NodeId> = {
            let mut set = terminals.clone();
            set.extend(extras.iter().copied().filter(|&v| g.is_node_live(v)));
            set.sort_unstable();
            set.dedup();
            set
        };
        let pushes: Vec<NodeId> = extras
            .iter()
            .copied()
            .filter(|&v| g.is_node_live(v) && !terminals.contains(&v))
            .collect();

        let mut restricted =
            TerminalDistances::compute_to_targets(&g, &terminals, &extras).unwrap();
        let mut full = TerminalDistances::compute(&g, &terminals).unwrap();
        for &v in &pushes {
            restricted.push_terminal(&g, v).unwrap();
            full.push_terminal(&g, v).unwrap();
        }
        assert_eq!(restricted.terminals(), full.terminals());
        for (i, &t) in full.terminals().iter().enumerate() {
            let fresh_full = ShortestPaths::run(&g, t).unwrap();
            let fresh_restricted = ShortestPaths::run_to_targets(&g, t, &target_set).unwrap();
            for v in g.node_ids() {
                assert_same_route(
                    &fresh_full,
                    full.shortest_paths(i),
                    v,
                    &format!("seed {seed} full td[{i}]"),
                );
            }
            for &v in &target_set {
                let label = format!("seed {seed} restricted td[{i}]");
                assert_same_route(&fresh_restricted, restricted.shortest_paths(i), v, &label);
                assert_same_route(&fresh_full, restricted.shortest_paths(i), v, &label);
            }
        }
    }
}

#[test]
fn radius_runs_settle_exactly_the_nodes_within_their_radius() {
    let mut pairs_only_later = 0usize;
    let mut cut_short = 0usize;
    for seed in 400..700u64 {
        let mut g = mutated_graph(seed);
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x4ad1);
        // Zero-weight edges put whole groups of nodes at one distance.
        for _ in 0..rng.gen_range(0..4u32) {
            let e = EdgeId::from_index(rng.gen_range(0..g.edge_count().max(1)));
            let _ = g.set_weight(e, Weight::ZERO);
        }
        let mut live: Vec<NodeId> = g.node_ids().collect();
        if live.len() < 4 {
            continue;
        }
        for i in (1..live.len()).rev() {
            live.swap(i, rng.gen_range(0..=i));
        }
        let k = rng.gen_range(2..=live.len().min(6) - 1);
        let (terminals, rest) = live.split_at(k);
        let pushes = &rest[..rng.gen_range(0..=rest.len().min(3))];
        let mut td = TerminalDistances::compute_to_radius(&g, terminals).unwrap();
        for &v in pushes {
            td.push_terminal(&g, v).unwrap();
        }
        let members = td.terminals().to_vec();
        let fresh: Vec<ShortestPaths> = members
            .iter()
            .map(|&m| ShortestPaths::run(&g, m).unwrap())
            .collect();
        // R: the source's farthest terminal. A run stops at the farthest
        // member present when it started, or at R if that is farther; a
        // run with an unreachable member floods its component.
        let farthest = |i: usize, upto: usize| {
            members[..upto]
                .iter()
                .map(|&m| fresh[i].dist(m))
                .try_fold(Weight::ZERO, |far, d| d.map(|d| far.max(d)))
        };
        let r = farthest(0, k);
        for (i, run) in fresh.iter().enumerate() {
            let radius = match (r, farthest(i, k.max(i + 1))) {
                (Some(r), Some(own)) => Some(r.max(own)),
                _ => None,
            };
            let label = format!("seed {seed} radius td[{i}]");
            for v in g.node_ids() {
                let within = radius.is_none_or(|radius| run.dist(v).is_some_and(|d| d <= radius));
                if within {
                    assert_same_route(run, td.shortest_paths(i), v, &label);
                } else {
                    assert_eq!(td.shortest_paths(i).dist(v), None, "{label}: {v}");
                    let (Some(r), Some(d)) = (r, run.dist(v)) else {
                        continue;
                    };
                    assert!(d > r, "{label}: {v} at {d:?} is no farther than R = {r:?}");
                    cut_short += 1;
                }
            }
        }
        for i in 0..members.len() {
            for j in 0..members.len() {
                let want = fresh[i].dist(members[j]);
                assert_eq!(td.dist(i, j), want, "seed {seed}: dist({i}, {j})");
                assert_eq!(td.dist(j, i), want, "seed {seed}: dist({j}, {i})");
                if i < j {
                    // The later run settles the pair whenever it is
                    // connected; the earlier one may not.
                    assert_eq!(td.shortest_paths(j).dist(members[i]), want, "seed {seed}");
                    pairs_only_later += usize::from(
                        want.is_some() && td.shortest_paths(i).dist(members[j]).is_none(),
                    );
                }
            }
        }
    }
    assert!(cut_short > 1000, "runs must stop short: {cut_short}");
    assert!(pairs_only_later > 100, "pushed members must lie beyond R: {pairs_only_later}");
}

#[test]
fn lane_view_neighbors_equal_the_wrapped_view() {
    let mut lane = LiveLane::new();
    for seed in 300..330u64 {
        let g = mutated_graph(seed);
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x1a4e);
        // Under no rules, over the graph itself: dead nodes and one id
        // past the end included.
        let view = LaneView::new(&g, &mut lane, LaneRules::default());
        for i in 0..=g.node_count() {
            let v = NodeId::from_index(i);
            assert_eq!(
                view.neighbors(v).collect::<Vec<_>>(),
                g.neighbors(v).collect::<Vec<_>>(),
                "seed {seed}: graph adjacency of {v}"
            );
        }

        // Mask some "pins", discount some nodes and tilt, then repack the
        // same lane and compare with a clone mutated the same way.
        let mut hidden = vec![false; g.node_count()];
        let mut discount = vec![Weight::ZERO; g.node_count()];
        let live: Vec<NodeId> = g.node_ids().collect();
        for _ in 0..2 {
            if let Some(&v) = live.get(rng.gen_range(0..live.len().max(1))) {
                hidden[v.index()] = true;
            }
        }
        for d in &mut discount {
            if rng.gen_range(0..4u32) == 0 {
                *d = Weight::from_milli(rng.gen_range(1..3000u64));
            }
        }
        let salt = rng.next_u64();
        let mut model = g.clone();
        for i in 0..model.edge_count() {
            let e = EdgeId::from_index(i);
            let (a, b) = model.endpoints(e).unwrap();
            let w = model.weight(e).unwrap();
            let w = w
                .saturating_sub(discount[a.index()])
                .saturating_sub(discount[b.index()])
                .saturating_add(tilt(salt, e));
            model.set_weight(e, w).unwrap();
        }
        for (i, &hide) in hidden.iter().enumerate() {
            if hide {
                model.remove_node(NodeId::from_index(i)).unwrap();
            }
        }
        let rules = LaneRules {
            hidden: &hidden,
            discount: &discount,
            tilt: Some(salt),
        };
        let view = LaneView::new(&g, &mut lane, rules);
        for i in 0..=g.node_count() {
            let v = NodeId::from_index(i);
            assert_eq!(
                view.neighbors(v).collect::<Vec<_>>(),
                model.neighbors(v).collect::<Vec<_>>(),
                "seed {seed}: masked adjacency of {v}"
            );
        }
        // Same adjacency, same answers.
        let first = model.node_ids().next();
        if let Some(source) = first {
            let direct = ShortestPaths::run(&model, source).unwrap();
            let laned = ShortestPaths::run(&view, source).unwrap();
            for v in model.node_ids() {
                assert_same_route(&direct, &laned, v, &format!("seed {seed} lane run"));
            }
        }
    }
}
