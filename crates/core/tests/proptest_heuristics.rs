//! Property tests over the Steiner/arborescence constructions.
//!
//! Cases are generated from the vendored [`route_graph::rng`] PRNG rather
//! than `proptest` so the suite builds with no network access.

use route_graph::random::{random_connected_graph, random_net};
use route_graph::rng::{Rng, SplitMix64};
use route_graph::{GridGraph, TerminalDistances, Weight};
use steiner_route::heuristic::IteratedBase;
use steiner_route::{
    exact, idom, ikmb, Djka, Dom, Kmb, MehlhornKmb, Net, Pfa, SteinerHeuristic, Zel,
};

const CASES: u64 = 20;

/// Steiner family: cost sandwiched between the exact optimum and twice
/// the optimum.
#[test]
fn steiner_costs_bracket_the_optimum() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let n = rng.gen_range(6..16usize);
        let g = random_connected_graph(n, 2 * n, 1..8, &mut rng).unwrap();
        let pins = random_net(&g, 4.min(n), &mut rng).unwrap();
        let net = Net::from_terminals(pins).unwrap();
        let opt = exact::steiner_cost_for_net(&g, &net).unwrap();
        for algo in [
            Box::new(Kmb::new()) as Box<dyn SteinerHeuristic>,
            Box::new(MehlhornKmb::new()),
            Box::new(Zel::new()),
            Box::new(ikmb()),
        ] {
            let cost = algo.construct(&g, &net).unwrap().cost();
            assert!(cost >= opt, "seed {seed}: {} beat the optimum", algo.name());
            assert!(
                cost.as_milli() <= 2 * opt.as_milli(),
                "seed {seed}: {} broke the 2x bound",
                algo.name()
            );
        }
    }
}

/// Arborescence family: exact shortest-path property on random graphs
/// with zero-weight edges mixed in.
#[test]
fn arborescences_survive_zero_weight_edges() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let zeros = rng.gen_range(0..6usize);
        let mut g = random_connected_graph(12, 24, 1..6, &mut rng).unwrap();
        let edge_count = g.edge_count();
        for _ in 0..zeros {
            let e = route_graph::EdgeId::from_index(rng.gen_range(0..edge_count));
            g.set_weight(e, Weight::ZERO).unwrap();
        }
        let pins = random_net(&g, 4, &mut rng).unwrap();
        let net = Net::from_terminals(pins).unwrap();
        for algo in [
            Box::new(Djka::new()) as Box<dyn SteinerHeuristic>,
            Box::new(Dom::new()),
            Box::new(Pfa::new()),
            Box::new(idom()),
        ] {
            let tree = algo.construct(&g, &net).unwrap();
            assert!(
                tree.is_shortest_paths_tree(&g, &net).unwrap(),
                "seed {seed}: {} violated the SPT property",
                algo.name()
            );
        }
    }
}

/// Pruning is idempotent and never adds cost.
#[test]
fn pruning_is_idempotent() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let grid = GridGraph::new(7, 7, Weight::UNIT).unwrap();
        let pins = random_net(grid.graph(), 5, &mut rng).unwrap();
        let net = Net::from_terminals(pins).unwrap();
        let tree = Kmb::new().construct(grid.graph(), &net).unwrap();
        let once = tree.pruned_to(grid.graph(), net.terminals()).unwrap();
        let twice = once.pruned_to(grid.graph(), net.terminals()).unwrap();
        assert_eq!(once.cost(), twice.cost(), "seed {seed}");
        assert!(once.cost() <= tree.cost(), "seed {seed}");
        assert!(once.spans(&net), "seed {seed}");
    }
}

/// The IteratedBase contract: a screened round's price really is an upper
/// bound of the exact cost, for every candidate it scores (KMB), and is
/// the exact cost itself for DOM.
#[test]
fn screening_upper_bounds_exact_costs() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let grid = GridGraph::new(7, 7, Weight::UNIT).unwrap();
        let g = grid.graph();
        let pins = random_net(g, 5, &mut rng).unwrap();
        let td = TerminalDistances::compute(g, &pins).unwrap();
        let pool: Vec<_> = g.node_ids().filter(|&v| td.index_of(v).is_none()).collect();
        let mut scored = Vec::new();
        Kmb::new().screen_round(g, &td, &pool, &mut scored).unwrap();
        for &(price, t) in &scored {
            assert!(
                Kmb::new().cost_with(g, &td, Some(t)).unwrap() <= price,
                "seed {seed}: KMB candidate {t:?}"
            );
        }
        scored.clear();
        Dom::new().screen_round(g, &td, &pool, &mut scored).unwrap();
        for &(price, t) in &scored {
            assert_eq!(
                Dom::new().cost_with(g, &td, Some(t)).unwrap(),
                price,
                "seed {seed}: DOM candidate {t:?}"
            );
        }
    }
}

/// Mehlhorn and classic KMB rarely diverge; when they do, both stay
/// within the same bound envelope.
#[test]
fn mehlhorn_tracks_classic_kmb() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let g = random_connected_graph(14, 30, 1..8, &mut rng).unwrap();
        let pins = random_net(&g, 4, &mut rng).unwrap();
        let net = Net::from_terminals(pins).unwrap();
        let fast = MehlhornKmb::new().construct(&g, &net).unwrap();
        let classic = Kmb::new().construct(&g, &net).unwrap();
        let opt = exact::steiner_cost_for_net(&g, &net).unwrap();
        assert!(fast.cost().as_milli() <= 2 * opt.as_milli(), "seed {seed}");
        assert!(
            classic.cost().as_milli() <= 2 * opt.as_milli(),
            "seed {seed}"
        );
    }
}

#[test]
fn net_api_rejects_degenerate_inputs() {
    use steiner_route::SteinerError;
    let a = route_graph::NodeId::from_index(0);
    assert_eq!(Net::new(a, vec![]).unwrap_err(), SteinerError::EmptyNet);
    assert_eq!(
        Net::new(a, vec![a]).unwrap_err(),
        SteinerError::DuplicatePin(a)
    );
}
