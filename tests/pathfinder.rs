//! Integration tests for negotiated-congestion (PathFinder) routing.
//!
//! The mode's defining property is that each iteration's route phase is
//! a pure function of the priced snapshot: which worker routes a net can
//! never change what it routes. So the whole outcome — trees, iteration
//! count, wirelength, even the failure report — must be bit-identical
//! across thread counts. These tests pin that,
//! plus the two contracts the mode adds: a converged routing really is
//! segment-disjoint, and an unconverged one names the still-contended
//! nodes instead of failing silently.

use fpga_route::fpga::synth::{synthesize, CircuitProfile};
use fpga_route::fpga::{
    ArchSpec, BlockPin, Circuit, CircuitNet, Device, FpgaError, RouteMode, RouteOutcome, Router,
    RouterConfig, Side,
};

/// A small synthetic profile: enough nets to contend, fast to route.
fn tiny_profile() -> CircuitProfile {
    CircuitProfile {
        name: "tiny",
        rows: 5,
        cols: 5,
        nets_2_3: 8,
        nets_4_10: 3,
        nets_over_10: 0,
    }
}

fn pf_config(threads: usize) -> RouterConfig {
    RouterConfig {
        mode: RouteMode::Pathfinder,
        threads,
        ..RouterConfig::default()
    }
}

fn route_tiny(width: usize, config: RouterConfig) -> Result<RouteOutcome, FpgaError> {
    let profile = tiny_profile();
    let circuit = synthesize(&profile, 2, 1995).expect("synthesizable");
    let device = Device::new(ArchSpec::xilinx4000(profile.rows, profile.cols, width)).unwrap();
    Router::new(&device, config).route(&circuit)
}

fn pin(row: usize, col: usize, side: Side, slot: usize) -> BlockPin {
    BlockPin {
        row,
        col,
        side,
        slot,
    }
}

/// Two nets that each route fine alone but must cross the same channels
/// of a 2×2 array, plus a third along the diagonal — the same shape the
/// width-search tests use, known unroutable at W = 1.
fn crossing_circuit() -> Circuit {
    Circuit::new(
        "cross",
        2,
        2,
        vec![
            CircuitNet {
                pins: vec![pin(0, 0, Side::East, 0), pin(1, 1, Side::West, 0)],
            },
            CircuitNet {
                pins: vec![pin(0, 1, Side::West, 0), pin(1, 0, Side::East, 0)],
            },
            CircuitNet {
                pins: vec![pin(0, 0, Side::South, 1), pin(1, 1, Side::North, 1)],
            },
        ],
    )
    .unwrap()
}

#[test]
fn pathfinder_is_bit_identical_across_threads_and_schedulers() {
    let sequential = route_tiny(8, pf_config(1)).unwrap();
    for threads in [2usize, 4, 8] {
        let parallel = route_tiny(8, pf_config(threads)).unwrap();
        let context = format!("threads {threads}");
        assert_eq!(parallel.trees, sequential.trees, "{context}");
        assert_eq!(parallel.passes, sequential.passes, "{context}");
        assert_eq!(
            parallel.total_wirelength, sequential.total_wirelength,
            "{context}"
        );
        assert_eq!(
            parallel.max_pathlengths, sequential.max_pathlengths,
            "{context}"
        );
    }
}

#[test]
fn converged_routing_is_segment_disjoint_within_budget() {
    let profile = tiny_profile();
    let circuit = synthesize(&profile, 2, 1995).expect("synthesizable");
    let device = Device::new(ArchSpec::xilinx4000(profile.rows, profile.cols, 8)).unwrap();
    let outcome = Router::new(&device, pf_config(4))
        .route(&circuit)
        .expect("routable at a generous width");
    assert!(
        outcome.passes <= RouterConfig::default().pf_max_iterations,
        "convergence must fit the default iteration budget, took {}",
        outcome.passes
    );
    // Convergence means no segment node is claimed by two nets.
    let mut used = vec![false; device.graph().node_count()];
    for (ni, tree) in outcome.trees.iter().enumerate() {
        for v in tree.nodes() {
            if device.segment_position(v).is_some() {
                assert!(
                    !used[v.index()],
                    "net {ni} shares segment node {v:?} with an earlier net"
                );
                used[v.index()] = true;
            }
        }
    }
}

#[test]
fn unroutable_reports_the_over_capacity_nodes_identically_across_threads() {
    let circuit = crossing_circuit();
    let device = Device::new(ArchSpec::xilinx4000(2, 2, 1)).unwrap();
    let mut reference: Option<(usize, usize, Vec<_>)> = None;
    for threads in [1usize, 2, 4] {
        let config = RouterConfig {
            pf_max_iterations: 4,
            ..pf_config(threads)
        };
        let err = Router::new(&device, config)
            .route(&circuit)
            .expect_err("W = 1 cannot host the crossing circuit");
        let FpgaError::Unroutable {
            channel_width,
            passes,
            failed_net,
            overcapacity,
        } = err
        else {
            panic!("expected Unroutable, got {err}");
        };
        assert_eq!(channel_width, 1);
        // Contention (not disconnection): the budget was spent and the
        // report names the contested nodes in ascending id order.
        assert!(
            !overcapacity.is_empty(),
            "threads {threads}: failure must name the contested nodes"
        );
        assert_eq!(passes, 4, "threads {threads}");
        assert!(
            overcapacity.windows(2).all(|w| w[0] < w[1]),
            "threads {threads}: over-capacity set must be sorted ascending"
        );
        match &reference {
            None => reference = Some((passes, failed_net, overcapacity)),
            Some((p, f, o)) => {
                assert_eq!(passes, *p, "threads {threads}: passes differ");
                assert_eq!(failed_net, *f, "threads {threads}: failed net differs");
                assert_eq!(&overcapacity, o, "threads {threads}: over-capacity set differs");
            }
        }
    }
}

fn selective_config(threads: usize) -> RouterConfig {
    RouterConfig {
        pf_selective: true,
        ..pf_config(threads)
    }
}

#[test]
fn selective_mode_is_bit_identical_across_threads_and_schedulers() {
    // Dirty-set membership and the congestion-priced reroute order are
    // functions of the single-writer state alone; the worker partition
    // must stay invisible in every observable output, telemetry
    // included.
    let sequential = route_tiny(8, selective_config(1)).unwrap();
    for threads in [2usize, 4, 8] {
        let parallel = route_tiny(8, selective_config(threads)).unwrap();
        let context = format!("threads {threads}");
        assert_eq!(parallel.trees, sequential.trees, "{context}");
        assert_eq!(parallel.passes, sequential.passes, "{context}");
        assert_eq!(
            parallel.total_wirelength, sequential.total_wirelength,
            "{context}"
        );
        assert_eq!(
            parallel.max_pathlengths, sequential.max_pathlengths,
            "{context}"
        );
        let dirty: Vec<usize> = parallel
            .telemetry
            .passes
            .iter()
            .map(|p| p.dirty_nets)
            .collect();
        let reference: Vec<usize> = sequential
            .telemetry
            .passes
            .iter()
            .map(|p| p.dirty_nets)
            .collect();
        assert_eq!(dirty, reference, "{context}: dirty trajectory differs");
    }
}

#[test]
fn selective_converged_routing_is_segment_disjoint() {
    // Usage conservation: skipped nets keep their trees in the tally,
    // so a selective convergence is a real disjointness proof, not an
    // artifact of forgetting the nets that never rerouted.
    let profile = tiny_profile();
    let circuit = synthesize(&profile, 2, 1995).expect("synthesizable");
    let device = Device::new(ArchSpec::xilinx4000(profile.rows, profile.cols, 8)).unwrap();
    let outcome = Router::new(&device, selective_config(4))
        .route(&circuit)
        .expect("routable at a generous width");
    let mut used = vec![false; device.graph().node_count()];
    for (ni, tree) in outcome.trees.iter().enumerate() {
        for v in tree.nodes() {
            if device.segment_position(v).is_some() {
                assert!(
                    !used[v.index()],
                    "net {ni} shares segment node {v:?} with an earlier net"
                );
                used[v.index()] = true;
            }
        }
    }
}

#[test]
fn selective_dirty_nets_shrink_while_converging() {
    // The acceptance trajectory: iteration 1 routes everything, and the
    // dirty set then strictly decreases to convergence on this circuit —
    // iteration cost tracks remaining congestion, not circuit size.
    let outcome = route_tiny(8, selective_config(1)).unwrap();
    let dirty: Vec<usize> = outcome
        .telemetry
        .passes
        .iter()
        .map(|p| p.dirty_nets)
        .collect();
    assert!(
        outcome.passes >= 2,
        "need at least one negotiation round for the trajectory to mean anything"
    );
    assert_eq!(dirty[0], 11, "iteration 1 must route every net of the tiny profile");
    assert!(
        dirty.windows(2).all(|w| w[1] < w[0]),
        "dirty-net counts must strictly decrease across converging iterations: {dirty:?}"
    );
    // The iterations after the first leave clean nets untouched.
    assert!(
        dirty[1..].iter().all(|&d| d < 11),
        "no later iteration may reroute the whole circuit: {dirty:?}"
    );
}

#[test]
fn selective_unroutable_matches_full_mode_and_is_thread_independent() {
    // On a circuit where every net stays in conflict, the dirty set is
    // the whole circuit each iteration, so selective mode must walk the
    // exact trajectory full-reroute mode walks — same final
    // over-capacity set, same failed net — and stay identical across
    // thread counts.
    let circuit = crossing_circuit();
    let device = Device::new(ArchSpec::xilinx4000(2, 2, 1)).unwrap();
    let unroutable = |config: RouterConfig| -> (usize, usize, Vec<_>) {
        let err = Router::new(&device, config)
            .route(&circuit)
            .expect_err("W = 1 cannot host the crossing circuit");
        match err {
            FpgaError::Unroutable {
                channel_width,
                passes,
                failed_net,
                overcapacity,
            } => {
                assert_eq!(channel_width, 1);
                assert!(!overcapacity.is_empty(), "failure must name contested nodes");
                assert!(overcapacity.windows(2).all(|w| w[0] < w[1]));
                (passes, failed_net, overcapacity)
            }
            other => panic!("expected Unroutable, got {other}"),
        }
    };
    let full = unroutable(RouterConfig {
        pf_max_iterations: 4,
        ..pf_config(1)
    });
    for threads in [1usize, 2, 4] {
        let selective = unroutable(RouterConfig {
            pf_max_iterations: 4,
            ..selective_config(threads)
        });
        assert_eq!(
            selective, full,
            "threads {threads}: selective failure report diverged from full mode"
        );
    }
}

#[test]
fn saturated_pricing_degrades_gracefully_instead_of_panicking() {
    // Maximal pricing drives every contended node to Weight::MAX after
    // one iteration. All arithmetic saturates, so the router must still
    // terminate with a well-formed answer — converged or an honest
    // Unroutable — never a panic.
    for threads in [1usize, 4] {
        let config = RouterConfig {
            pf_present_milli: u64::MAX,
            pf_history_milli: u64::MAX,
            pf_max_iterations: 6,
            ..pf_config(threads)
        };
        match route_tiny(6, config) {
            Ok(outcome) => assert!(!outcome.trees.is_empty()),
            Err(FpgaError::Unroutable { .. }) => {}
            Err(other) => panic!("unexpected error under saturated pricing: {other}"),
        }
    }
}
