//! Golden routing digests: one small synthesized circuit routed six
//! ways, each routing hashed and compared against a recorded constant,
//! plus one minimum-width search whose found width and routing are
//! pinned the same way.
//!
//! The shortest-path kernel and the per-net relaxation view under it are
//! free to change how they search, but not what they find: every tree
//! the router commits must stay bit-identical. These constants pin that
//! without running the benchmark. Likewise the width search is free to
//! change which widths it probes, but not the width it finds or the
//! routing it returns there. The hash is the benchmark's per-job digest
//! (FNV-1a over every tree's edge ids, one separator per net), so a
//! mismatch here is the same signal a digest mismatch there would be.
//!
//! If a change *means* to alter routings, re-record the constants and
//! say why in the change log.

use fpga_route::fpga::classify;
use fpga_route::fpga::synth::{synthesize, CircuitProfile};
use fpga_route::fpga::width::{minimum_channel_width, WidthSearch};
use fpga_route::fpga::{
    ArchSpec, Circuit, Device, RouteAlgorithm, RouteMode, RouteOutcome, Router, RouterConfig,
};

/// Enough nets to contend at a tight width, small enough to route all
/// six ways in about a second in a debug build.
fn golden_profile() -> CircuitProfile {
    CircuitProfile {
        name: "golden",
        rows: 6,
        cols: 6,
        nets_2_3: 12,
        nets_4_10: 5,
        nets_over_10: 1,
    }
}

const WIDTH: usize = 6;

/// FNV-1a over every tree's edge ids, with a separator per net — the
/// benchmark's digest formula.
fn digest(outcome: &RouteOutcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for tree in &outcome.trees {
        feed(u64::MAX);
        for e in tree.edges() {
            feed(e.index() as u64);
        }
    }
    h
}

fn setup() -> (Circuit, Device) {
    let profile = golden_profile();
    let circuit = synthesize(&profile, 2, 1995).expect("synthesizable");
    let device = Device::new(ArchSpec::xilinx4000(profile.rows, profile.cols, WIDTH))
        .expect("valid architecture");
    (circuit, device)
}

fn route_digest(config: RouterConfig, critical: Option<&[bool]>) -> u64 {
    let (circuit, device) = setup();
    let router = Router::new(&device, config);
    let outcome = match critical {
        Some(flags) => router.route_classified(&circuit, flags),
        None => router.route(&circuit),
    }
    .expect("the golden circuit routes at its width");
    digest(&outcome)
}

fn pathfinder(selective: bool, threads: usize) -> RouterConfig {
    RouterConfig {
        mode: RouteMode::Pathfinder,
        pf_selective: selective,
        threads,
        ..RouterConfig::default()
    }
}

#[test]
fn ripup_ikmb_digest_is_pinned() {
    assert_eq!(
        route_digest(RouterConfig::default(), None),
        0xce08_df2b_67f5_f996
    );
}

#[test]
fn ripup_with_idom_critical_nets_digest_is_pinned() {
    let (circuit, _) = setup();
    let critical = classify::by_span(&circuit, 0.1);
    assert!(critical.iter().any(|&c| c), "some net must be critical");
    let config = RouterConfig {
        critical_algorithm: Some(RouteAlgorithm::Idom),
        ..RouterConfig::default()
    };
    assert_eq!(route_digest(config, Some(&critical)), 0xc36b_0da4_276c_88a3);
}

#[test]
fn full_pathfinder_digest_is_pinned_at_one_and_two_threads() {
    for threads in [1, 2] {
        assert_eq!(
            route_digest(pathfinder(false, threads), None),
            0x3df5_3370_d69c_6934,
            "threads = {threads}"
        );
    }
}

#[test]
fn selective_pathfinder_digest_is_pinned_at_one_and_two_threads() {
    for threads in [1, 2] {
        assert_eq!(
            route_digest(pathfinder(true, threads), None),
            0xeadc_9611_2a75_e197,
            "threads = {threads}"
        );
    }
}

#[test]
fn ripup_width_search_finds_the_pinned_width_and_routing() {
    let profile = golden_profile();
    let circuit = synthesize(&profile, 2, 1995).expect("synthesizable");
    let config = RouterConfig {
        algorithm: RouteAlgorithm::Ikmb,
        max_passes: 10,
        ..RouterConfig::default()
    };
    let found = minimum_channel_width(
        ArchSpec::xilinx4000(profile.rows, profile.cols, WIDTH),
        3..=24,
        WidthSearch::Binary,
        |device| Router::new(device, config.clone()).route(&circuit),
    )
    .expect("the golden circuit routes within 3..=24");
    assert_eq!(
        (found.channel_width, digest(&found.outcome)),
        (4, 0x0cd1_4cb3_4b0f_40c2)
    );
}
