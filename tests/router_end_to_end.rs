//! End-to-end router integration: synthetic circuits through the full
//! device model, across algorithms and architectures.

use fpga_route::fpga::synth::{synthesize, CircuitProfile};
use fpga_route::fpga::width::{minimum_channel_width, WidthSearch};
use fpga_route::fpga::{
    ArchSpec, BaselineConfig, BaselineRouter, Device, FpgaError, RouteAlgorithm, Router,
    RouterConfig,
};
use fpga_route::steiner::Net;

fn test_profile() -> CircuitProfile {
    CircuitProfile {
        name: "itest",
        rows: 6,
        cols: 6,
        nets_2_3: 14,
        nets_4_10: 4,
        nets_over_10: 1,
    }
}

#[test]
fn full_circuit_routes_on_both_architectures() {
    let profile = test_profile();
    let circuit = synthesize(&profile, 2, 9).unwrap();
    for arch in [
        ArchSpec::xilinx3000(6, 6, 10),
        ArchSpec::xilinx4000(6, 6, 10),
    ] {
        let device = Device::new(arch).unwrap();
        let outcome = Router::new(&device, RouterConfig::default())
            .route(&circuit)
            .unwrap();
        assert_eq!(outcome.trees.len(), circuit.net_count());
        // Every net spans, every tree's resources are exclusive.
        let mut seen = std::collections::HashSet::new();
        for (ni, tree) in outcome.trees.iter().enumerate() {
            let net = Net::from_terminals(circuit.net_terminals(&device, ni).unwrap()).unwrap();
            assert!(tree.spans(&net), "net {ni}");
            for v in tree.nodes() {
                assert!(seen.insert(v), "resource {v} shared");
            }
        }
    }
}

#[test]
fn arborescence_router_yields_optimal_radii_on_the_virgin_device() {
    // With a wide, uncongested device the first nets routed see the full
    // graph, so IDOM's trees must hit the exact graph radius. Verify on
    // the first-routed (largest) net by re-running the router with a
    // single net.
    let profile = CircuitProfile {
        name: "one",
        rows: 5,
        cols: 5,
        nets_2_3: 0,
        nets_4_10: 1,
        nets_over_10: 0,
    };
    let circuit = synthesize(&profile, 2, 4).unwrap();
    let device = Device::new(ArchSpec::xilinx4000(5, 5, 8)).unwrap();
    let outcome = Router::new(
        &device,
        RouterConfig::with_algorithm(RouteAlgorithm::Idom),
    )
    .route(&circuit)
    .unwrap();
    let net = Net::from_terminals(circuit.net_terminals(&device, 0).unwrap()).unwrap();
    assert!(outcome.trees[0]
        .is_shortest_paths_tree(device.graph(), &net)
        .unwrap());
}

#[test]
fn width_search_is_consistent_between_strategies() {
    let profile = test_profile();
    let circuit = synthesize(&profile, 2, 9).unwrap();
    let base = ArchSpec::xilinx4000(6, 6, 4);
    let route = |device: &Device| {
        Router::new(
            device,
            RouterConfig {
                max_passes: 6,
                ..RouterConfig::default()
            },
        )
        .route(&circuit)
    };
    let linear = minimum_channel_width(base, 3..=16, WidthSearch::Linear, route).unwrap();
    let binary = minimum_channel_width(base, 3..=16, WidthSearch::Binary, route).unwrap();
    assert_eq!(linear.channel_width, binary.channel_width);
}

#[test]
fn steiner_router_needs_no_more_width_than_the_baseline() {
    let profile = test_profile();
    let circuit = synthesize(&profile, 2, 9).unwrap();
    let base = ArchSpec::xilinx4000(6, 6, 4);
    let ours = minimum_channel_width(base, 3..=16, WidthSearch::Binary, |device| {
        Router::new(
            device,
            RouterConfig {
                max_passes: 6,
                ..RouterConfig::default()
            },
        )
        .route(&circuit)
    })
    .unwrap();
    let baseline = minimum_channel_width(base, 3..=16, WidthSearch::Binary, |device| {
        BaselineRouter::new(
            device,
            BaselineConfig {
                max_passes: 6,
                ..BaselineConfig::default()
            },
        )
        .route(&circuit)
    })
    .unwrap();
    assert!(
        ours.channel_width <= baseline.channel_width,
        "IKMB router needed W={}, baseline W={}",
        ours.channel_width,
        baseline.channel_width
    );
}

#[test]
fn parallel_routing_is_deterministic_and_matches_sequential() {
    // Rip-up commits one net at a time whatever `threads` says: the
    // automatic setting and explicit worker counts must reproduce the
    // threads = 1 routing bit for bit — same trees, pass count,
    // wirelength and end-of-pass congestion — and report no speculation.
    let profile = test_profile();
    for (seed, arch) in [
        (9u64, ArchSpec::xilinx4000(6, 6, 9)),
        (11u64, ArchSpec::xilinx4000(6, 6, 9)),
        (9u64, ArchSpec::xilinx3000(6, 6, 10)),
    ] {
        let circuit = synthesize(&profile, 2, seed).unwrap();
        let device = Device::new(arch).unwrap();
        let sequential = Router::new(&device, RouterConfig::default())
            .route(&circuit)
            .unwrap();
        let snapshots = |o: &fpga_route::fpga::RouteOutcome| {
            o.telemetry
                .passes
                .iter()
                .map(|t| t.congestion.clone())
                .collect::<Vec<_>>()
        };
        for threads in [0usize, 2, 4] {
            let context = format!("seed {seed}, threads {threads}");
            let outcome = Router::new(
                &device,
                RouterConfig {
                    threads,
                    ..RouterConfig::default()
                },
            )
            .route(&circuit)
            .unwrap();
            assert_eq!(outcome.trees, sequential.trees, "{context}");
            assert_eq!(outcome.passes, sequential.passes, "{context}");
            assert_eq!(
                outcome.total_wirelength, sequential.total_wirelength,
                "{context}"
            );
            assert_eq!(outcome.telemetry.passes.len(), outcome.passes, "{context}");
            assert_eq!(snapshots(&outcome), snapshots(&sequential), "{context}");
            assert!(outcome
                .telemetry
                .passes
                .iter()
                .all(|t| t.congestion.positions > 0 && t.congestion.used_positions > 0));
            for t in &outcome.telemetry.passes {
                assert_eq!(
                    (t.speculated, t.accepted, t.respeculated, t.steals, t.stalls),
                    (0, 0, 0, 0, 0),
                    "{context}, pass {}",
                    t.pass
                );
            }
        }
    }
}

#[test]
fn unroutable_reports_are_accurate() {
    let profile = test_profile();
    let circuit = synthesize(&profile, 2, 9).unwrap();
    let device = Device::new(ArchSpec::xilinx4000(6, 6, 1)).unwrap();
    let err = Router::new(
        &device,
        RouterConfig {
            max_passes: 2,
            ..RouterConfig::default()
        },
    )
    .route(&circuit)
    .unwrap_err();
    match err {
        FpgaError::Unroutable {
            channel_width,
            passes,
            failed_net,
            ..
        } => {
            assert_eq!(channel_width, 1);
            assert_eq!(passes, 2);
            assert!(failed_net < circuit.net_count());
        }
        other => panic!("expected Unroutable, got {other}"),
    }
}

#[test]
fn circuit_architecture_mismatch_is_rejected() {
    let profile = test_profile();
    let circuit = synthesize(&profile, 2, 9).unwrap();
    let device = Device::new(ArchSpec::xilinx4000(7, 6, 8)).unwrap();
    assert!(matches!(
        Router::new(&device, RouterConfig::default()).route(&circuit),
        Err(FpgaError::CircuitMismatch(_))
    ));
}
