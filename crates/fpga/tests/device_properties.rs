//! Property tests over the device model: counts, flexibilities, and
//! connectivity for randomized architecture parameters.
//!
//! Cases are generated from the vendored [`route_graph::rng`] PRNG rather
//! than `proptest` so the suite builds with no network access.

use fpga_device::synth::{synthesize, CircuitProfile};
use fpga_device::{ArchSpec, Device, FcSpec, NodeKind, Side};
use route_graph::rng::{Rng, SplitMix64};
use route_graph::ShortestPaths;

const CASES: u64 = 24;

/// Node counts follow the closed-form formula for any architecture.
#[test]
fn node_counts_follow_the_formula() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let rows = rng.gen_range(1..7usize);
        let cols = rng.gen_range(1..7usize);
        let w = rng.gen_range(1..7usize);
        let pins = rng.gen_range(1..3usize);
        let mut arch = ArchSpec::xilinx4000(rows, cols, w);
        arch.pins_per_side = pins;
        let device = Device::new(arch).unwrap();
        let expected = (rows + 1) * cols * w   // horizontal segments
            + (cols + 1) * rows * w            // vertical segments
            + rows * cols * 4 * pins; // pins
        assert_eq!(device.graph().node_count(), expected, "seed {seed}");
    }
}

/// Every pin connects to exactly `F_c` tracks of one channel position.
#[test]
fn pin_fanout_equals_fc() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let rows = rng.gen_range(2..6usize);
        let cols = rng.gen_range(2..6usize);
        let w = rng.gen_range(2..9usize);
        let frac = rng.gen_range(1..5usize);
        let mut arch = ArchSpec::xilinx4000(rows, cols, w);
        arch.fc = FcSpec::Fraction { num: frac, den: 4 };
        let device = Device::new(arch).unwrap();
        let fc = arch.fc_resolved().unwrap();
        for pin in device.pin_nodes() {
            let neighbors: Vec<_> = device.graph().neighbors(pin).collect();
            assert_eq!(neighbors.len(), fc, "seed {seed}");
            // All on the same channel position.
            let positions: std::collections::HashSet<_> = neighbors
                .iter()
                .map(|&(u, _, _)| device.segment_position(u).unwrap())
                .collect();
            assert_eq!(positions.len(), 1, "seed {seed}");
        }
    }
}

/// Interior segments have exactly `2·F_s` segment-to-segment fanout for
/// the supported flexibilities.
#[test]
fn interior_segment_fanout_is_two_fs() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let w = rng.gen_range(3..8usize);
        let fs = [3usize, 4, 6][rng.gen_range(0..3usize)];
        let mut arch = ArchSpec::xilinx4000(4, 4, w);
        arch.fs = fs;
        let device = Device::new(arch).unwrap();
        // An interior horizontal segment: channel 2 (between rows), seg 1.
        let interior = device
            .graph()
            .node_ids()
            .find(|&v| {
                matches!(
                    device.node_kind(v),
                    Ok(NodeKind::HorizontalSegment {
                        channel: 2,
                        seg: 1,
                        track: 1
                    })
                )
            })
            .unwrap();
        let seg_neighbors = device
            .graph()
            .neighbors(interior)
            .filter(|&(u, _, _)| !device.is_pin(u))
            .count();
        assert_eq!(seg_neighbors, 2 * fs, "seed {seed}");
    }
}

/// Devices are always fully connected.
#[test]
fn device_is_connected() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let rows = rng.gen_range(1..6usize);
        let cols = rng.gen_range(1..6usize);
        let w = rng.gen_range(1..6usize);
        let device = Device::new(ArchSpec::xilinx4000(rows, cols, w)).unwrap();
        let start = device.pin_node(0, 0, Side::North, 0).unwrap();
        let sp = ShortestPaths::run(device.graph(), start).unwrap();
        for v in device.graph().node_ids() {
            assert!(sp.dist(v).is_some(), "seed {seed}");
        }
    }
}

/// Synthetic circuits always match their profile histogram exactly and
/// never double-book a pin.
#[test]
fn synthesis_honours_profiles() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(case);
        let seed = rng.gen_range(0..5_000u64);
        let small = rng.gen_range(2..12usize);
        let big = rng.gen_range(0..3usize);
        let profile = CircuitProfile {
            name: "prop",
            rows: 6,
            cols: 6,
            nets_2_3: small,
            nets_4_10: 2,
            nets_over_10: big,
        };
        let circuit = synthesize(&profile, 2, seed).unwrap();
        let (s, m, l) = circuit.pin_histogram();
        assert_eq!((s, m, l), (small, 2, big), "case {case}");
        let mut seen = std::collections::HashSet::new();
        for net in circuit.nets() {
            for pin in &net.pins {
                assert!(seen.insert(*pin), "case {case}: pin double-booked");
            }
        }
    }
}
