//! Adversarial determinism tests for PathFinder's parallel route phase.
//!
//! Negotiated congestion routes every net of an iteration against one
//! priced snapshot, split across worker threads, so its results must be
//! bit-identical for every thread count. The friendliest inputs are
//! circuits whose nets occupy disjoint regions and barely negotiate.
//! These tests do the opposite: every net's bounding box covers the whole
//! array, so nets contend for the same channels, the negotiation runs
//! many iterations, and selective mode's dirty set changes shape from one
//! iteration to the next. Across seeded pin assignments, both PathFinder
//! modes and threads 2, 4 and 8, the outcome must match threads = 1
//! exactly — trees, iteration counts, wirelength, the per-iteration
//! congestion snapshots, and the unroutable verdict.

use fpga_route::fpga::synth::synthesize;
use fpga_route::fpga::{
    ArchSpec, BlockPin, Circuit, CircuitNet, Device, FpgaError, RouteMode, RouteOutcome, Router,
    RouterConfig, Side,
};
use fpga_route::graph::rng::{Rng, SliceRandom, SplitMix64};

/// Builds a circuit in which every net's bounding box covers the whole
/// array: pin 0 in the top-left quadrant, pin 1 in the bottom-right, plus
/// up to two extra pins from anywhere. Pin assignments (and hence the
/// router's net order, which sorts by pin count then index) vary by seed.
fn adversarial_circuit(seed: u64, rows: usize, cols: usize, nets: usize) -> Circuit {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut pool: Vec<BlockPin> = Vec::new();
    for row in 0..rows {
        for col in 0..cols {
            for side in [Side::North, Side::East, Side::South, Side::West] {
                for slot in 0..2 {
                    pool.push(BlockPin {
                        row,
                        col,
                        side,
                        slot,
                    });
                }
            }
        }
    }
    pool.shuffle(&mut rng);
    let mut top_left: Vec<BlockPin> = Vec::new();
    let mut bottom_right: Vec<BlockPin> = Vec::new();
    let mut anywhere: Vec<BlockPin> = Vec::new();
    for pin in pool {
        if pin.row < rows / 2 && pin.col < cols / 2 {
            top_left.push(pin);
        } else if pin.row >= rows.div_ceil(2) && pin.col >= cols.div_ceil(2) {
            bottom_right.push(pin);
        } else {
            anywhere.push(pin);
        }
    }
    let mut circuit_nets = Vec::with_capacity(nets);
    for _ in 0..nets {
        let mut pins = vec![
            top_left.pop().expect("enough corner pins"),
            bottom_right.pop().expect("enough corner pins"),
        ];
        for _ in 0..rng.gen_range(0..=2usize) {
            if let Some(extra) = anywhere.pop() {
                pins.push(extra);
            }
        }
        if rng.gen_ratio(1, 2) {
            pins.swap(0, 1); // vary which corner drives
        }
        circuit_nets.push(CircuitNet { pins });
    }
    Circuit::new("adversarial", rows, cols, circuit_nets).expect("pins are unique by construction")
}

fn assert_identical(parallel: &RouteOutcome, sequential: &RouteOutcome, context: &str) {
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
    let snapshots = |o: &RouteOutcome| {
        o.telemetry
            .passes
            .iter()
            .map(|t| t.congestion.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(snapshots(parallel), snapshots(sequential), "{context}");
}

/// Routes `circuit` with PathFinder, full-reroute and selective, at
/// threads 2, 4 and 8, and asserts each outcome matches the same mode at
/// threads = 1. `base` supplies every other setting.
fn assert_thread_count_invariant(
    device: &Device,
    circuit: &Circuit,
    base: &RouterConfig,
    context: &str,
) {
    for pf_selective in [false, true] {
        let route = |threads: usize| {
            let config = RouterConfig {
                mode: RouteMode::Pathfinder,
                pf_selective,
                threads,
                ..base.clone()
            };
            Router::new(device, config).route(circuit)
        };
        let sequential = route(1);
        for threads in [2usize, 4, 8] {
            let context = format!("{context}, selective {pf_selective}, threads {threads}");
            match (route(threads), &sequential) {
                (Ok(parallel), Ok(sequential)) => {
                    assert_identical(&parallel, sequential, &context);
                }
                (
                    Err(FpgaError::Unroutable {
                        channel_width: wp,
                        passes: pp,
                        failed_net: np,
                        overcapacity: op,
                    }),
                    Err(FpgaError::Unroutable {
                        channel_width: ws,
                        passes: ps,
                        failed_net: ns,
                        overcapacity: os,
                    }),
                ) => {
                    assert_eq!(wp, *ws, "{context}");
                    assert_eq!(pp, *ps, "{context}");
                    assert_eq!(np, *ns, "{context}");
                    assert_eq!(&op, os, "{context}");
                }
                (parallel, sequential) => {
                    panic!("{context}: outcomes differ: {parallel:?} vs {sequential:?}")
                }
            }
        }
    }
}

#[test]
fn maximal_bbox_overlap_stays_bit_identical_across_thread_counts() {
    for seed in [1u64, 7, 42, 1995, 20010] {
        let circuit = adversarial_circuit(seed, 6, 6, 10);
        let device = Device::new(ArchSpec::xilinx4000(6, 6, 9)).unwrap();
        assert_thread_count_invariant(
            &device,
            &circuit,
            &RouterConfig::default(),
            &format!("seed {seed}"),
        );
    }
}

#[test]
fn overlapping_nets_agree_on_unroutability() {
    // Determinism must extend to failure: at a hopeless width every
    // thread count reports the same unroutable verdict — same iteration
    // budget, same failed net, same over-capacity nodes.
    let circuit = adversarial_circuit(3, 6, 6, 12);
    let device = Device::new(ArchSpec::xilinx4000(6, 6, 1)).unwrap();
    let config = RouterConfig {
        pf_max_iterations: 3,
        ..RouterConfig::default()
    };
    for pf_selective in [false, true] {
        let err = Router::new(
            &device,
            RouterConfig {
                mode: RouteMode::Pathfinder,
                pf_selective,
                ..config.clone()
            },
        )
        .route(&circuit)
        .unwrap_err();
        assert!(
            matches!(err, FpgaError::Unroutable { .. }),
            "selective {pf_selective}: expected Unroutable, got {err}"
        );
    }
    assert_thread_count_invariant(&device, &circuit, &config, "W = 1");
}

#[test]
fn shuffled_synthetic_profiles_stay_deterministic() {
    // Same property on the paper-profile synthesizer, whose random pin
    // placement produces a different (but still heavily overlapping)
    // adversarial mix per seed.
    let profile = fpga_route::fpga::CircuitProfile {
        name: "adv",
        rows: 6,
        cols: 6,
        nets_2_3: 10,
        nets_4_10: 5,
        nets_over_10: 1,
    };
    for seed in [2u64, 13, 99] {
        let circuit = synthesize(&profile, 2, seed).unwrap();
        let device = Device::new(ArchSpec::xilinx4000(6, 6, 10)).unwrap();
        assert_thread_count_invariant(
            &device,
            &circuit,
            &RouterConfig::default(),
            &format!("synth seed {seed}"),
        );
    }
}
