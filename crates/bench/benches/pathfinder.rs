//! Rip-up versus negotiated-congestion (PathFinder) comparison on the
//! Table 5 circuits, plus full-reroute versus selective (dirty-net)
//! negotiation.
//!
//! For each circuit, finds the minimum rip-up channel width by binary
//! search, then walks the negotiated router *down* from that width until
//! its first failure — every pathfinder iteration routes all nets, so
//! failing probes cost the full iteration budget and the descent pays
//! for exactly one of them (successes at generous widths converge in a
//! handful of iterations). Starting at the rip-up width makes the
//! "never wider than rip-up" assertion hold by construction or fail on
//! the very first probe. Each circuit is then rerouted at its own
//! minimum and wall-clock totals reported from the per-pass telemetry.
//! The pathfinder run is repeated at 1 and 4 threads and its trees
//! asserted bit-identical — the route phase is a pure function of the
//! priced snapshot, so the partition must not matter.
//!
//! Selective mode then repeats the descent starting from the full
//! reroute's width, asserting *before any timing* that it never needs a
//! wider channel, and the aggregate wall-clock of the selective runs is
//! asserted at least 1.5x faster than full reroute — the whole point of
//! only rerouting dirty nets is that iteration cost tracks remaining
//! congestion, not circuit size.
//!
//! Results are written to `BENCH_pathfinder.json` at the repository
//! root (overwritten each run; quick runs cover a 2-circuit subset and
//! say so in the config block).

use fpga_device::synth::{synthesize, xc4000_profiles, CircuitProfile};
use fpga_device::width::{minimum_channel_width, WidthSearch};
use fpga_device::{
    ArchSpec, Circuit, Device, PassTelemetry, RouteMode, RouteOutcome, Router, RouterConfig,
};

/// Worker count for the parallel pathfinder runs; fixed so results are
/// comparable across hosts.
const THREADS: usize = 4;

/// Width-search range shared by both strategies.
const MIN_W: usize = 3;
const MAX_W: usize = 24;

/// Output path, relative to this crate's manifest.
const OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pathfinder.json");

/// Probe budgets, matching `WidthExperimentConfig`'s 10-pass discipline
/// rather than the router's 20-pass default: failing probes dominate a
/// width search's wall-clock, and a width that needs more than this
/// budget is not a width the experiments would report either.
const MAX_PASSES: usize = 10;
const PF_ITERATIONS: usize = 30;

fn config_for(mode: RouteMode, threads: usize) -> RouterConfig {
    RouterConfig {
        mode,
        threads,
        max_passes: MAX_PASSES,
        pf_max_iterations: PF_ITERATIONS,
        ..RouterConfig::default()
    }
}

fn selective_config(threads: usize) -> RouterConfig {
    RouterConfig {
        pf_selective: true,
        ..config_for(RouteMode::Pathfinder, threads)
    }
}

fn find_width(
    profile: &CircuitProfile,
    circuit: &Circuit,
    mode: RouteMode,
    threads: usize,
) -> (usize, usize) {
    let base = ArchSpec::xilinx4000(profile.rows, profile.cols, MIN_W);
    let found = minimum_channel_width(base, MIN_W..=MAX_W, WidthSearch::Binary, |device| {
        Router::new(device, config_for(mode, threads)).route(circuit)
    })
    .unwrap_or_else(|e| panic!("{} ({}): width search failed: {e}", profile.name, mode.name()));
    println!(
        "   .. {} {}: W = {} in {} attempts",
        profile.name,
        mode.name(),
        found.channel_width,
        found.attempts
    );
    (found.channel_width, found.attempts)
}

/// Minimum negotiated-congestion width, by descent from the rip-up
/// width: route at `ripup_w`, `ripup_w - 1`, … until the first failure,
/// returning the last routable width. Results are thread-count
/// independent, so the probes run sequentially (this is also the
/// fastest configuration on a small host). Panics if even `ripup_w`
/// fails — that would mean negotiation needs a wider channel than
/// rip-up, which the bench exists to refute.
fn find_pf_width(profile: &CircuitProfile, circuit: &Circuit, ripup_w: usize) -> (usize, usize) {
    let mut attempts = 0usize;
    let mut best = None;
    for w in (MIN_W..=ripup_w).rev() {
        attempts += 1;
        let device = Device::new(ArchSpec::xilinx4000(profile.rows, profile.cols, w))
            .expect("valid arch");
        match Router::new(&device, config_for(RouteMode::Pathfinder, 1)).route(circuit) {
            Ok(_) => best = Some(w),
            Err(_) => break,
        }
    }
    let Some(w) = best else {
        panic!(
            "{}: pathfinder failed at the rip-up width W={ripup_w}",
            profile.name
        );
    };
    println!(
        "   .. {} pathfinder: W = {} in {} attempts (descent from {})",
        profile.name, w, attempts, ripup_w
    );
    (w, attempts)
}

/// Minimum selective-mode width, by descent from the full reroute's
/// width. Panics if selective mode fails where full reroute succeeded —
/// skipping clean nets must never cost routability.
fn find_selective_width(profile: &CircuitProfile, circuit: &Circuit, pf_w: usize) -> (usize, usize) {
    let mut attempts = 0usize;
    let mut best = None;
    for w in (MIN_W..=pf_w).rev() {
        attempts += 1;
        let device = Device::new(ArchSpec::xilinx4000(profile.rows, profile.cols, w))
            .expect("valid arch");
        match Router::new(&device, selective_config(1)).route(circuit) {
            Ok(_) => best = Some(w),
            Err(_) => break,
        }
    }
    let Some(w) = best else {
        panic!(
            "{}: selective pathfinder failed at the full-reroute width W={pf_w}",
            profile.name
        );
    };
    println!(
        "   .. {} selective: W = {} in {} attempts (descent from {})",
        profile.name, w, attempts, pf_w
    );
    (w, attempts)
}

fn route_with(
    profile: &CircuitProfile,
    circuit: &Circuit,
    width: usize,
    config: RouterConfig,
    label: &str,
) -> RouteOutcome {
    let device = Device::new(ArchSpec::xilinx4000(profile.rows, profile.cols, width))
        .expect("valid arch");
    Router::new(&device, config)
        .route(circuit)
        .unwrap_or_else(|e| panic!("{} ({label}) at W={width}: {e}", profile.name))
}

fn route_at(
    profile: &CircuitProfile,
    circuit: &Circuit,
    width: usize,
    mode: RouteMode,
    threads: usize,
) -> RouteOutcome {
    route_with(profile, circuit, width, config_for(mode, threads), mode.name())
}

fn total_micros(passes: &[PassTelemetry]) -> f64 {
    passes.iter().map(|t| t.elapsed.as_micros() as f64).sum()
}

fn total_rerouted(passes: &[PassTelemetry]) -> usize {
    passes.iter().map(|t| t.nets_rerouted).sum()
}

fn total_repriced(passes: &[PassTelemetry]) -> usize {
    passes.iter().map(|t| t.repriced_edges).sum()
}

struct Row {
    name: &'static str,
    ripup_w: usize,
    pf_w: usize,
    sel_w: usize,
    ripup_passes: usize,
    pf_iterations: usize,
    sel_iterations: usize,
    ripup_us: f64,
    pf_us: f64,
    sel_us: f64,
    overcap_peak: usize,
    pf_rerouted_total: usize,
    pf_repriced_total: usize,
    sel_rerouted_total: usize,
    sel_repriced_total: usize,
}

fn main() {
    let quick = bench::quick_mode();
    let profiles = xc4000_profiles();
    let profiles: Vec<_> = if quick {
        profiles
            .into_iter()
            .filter(|p| matches!(p.name, "9symml" | "term1"))
            .collect()
    } else {
        profiles
    };
    println!("## rip-up vs negotiated congestion (threads = {THREADS}, W in {MIN_W}..={MAX_W})");
    println!(
        "{:>10} {:>8} {:>6} {:>6} {:>8} {:>8} {:>8} {:>12} {:>12} {:>12} {:>8}",
        "circuit", "ripup W", "pf W", "sel W", "passes", "pf iter", "sel iter", "ripup us",
        "pf us", "sel us", "speedup"
    );
    let mut rows = Vec::new();
    for profile in &profiles {
        let circuit = synthesize(profile, 2, 1995).expect("synthesizable");
        let (ripup_w, _) = find_width(profile, &circuit, RouteMode::RipUp, 1);
        let (pf_w, _) = find_pf_width(profile, &circuit, ripup_w);
        assert!(
            pf_w <= ripup_w,
            "{}: pathfinder needed W={pf_w}, rip-up W={ripup_w}",
            profile.name
        );
        // Selective width first, asserted before any timing runs: the
        // speedup claim below is only meaningful at an equal-or-narrower
        // channel.
        let (sel_w, _) = find_selective_width(profile, &circuit, pf_w);
        assert!(
            sel_w <= pf_w,
            "{}: selective needed W={sel_w}, full reroute W={pf_w}",
            profile.name
        );
        let ripup = route_at(profile, &circuit, ripup_w, RouteMode::RipUp, 1);
        let pf = route_at(profile, &circuit, pf_w, RouteMode::Pathfinder, THREADS);
        let pf_seq = route_at(profile, &circuit, pf_w, RouteMode::Pathfinder, 1);
        assert_eq!(
            pf.trees, pf_seq.trees,
            "{}: pathfinder trees must be thread-count independent",
            profile.name
        );
        assert_eq!(pf.passes, pf_seq.passes, "{}: iteration counts differ", profile.name);
        let sel = route_with(profile, &circuit, sel_w, selective_config(THREADS), "selective");
        let sel_seq = route_with(profile, &circuit, sel_w, selective_config(1), "selective");
        assert_eq!(
            sel.trees, sel_seq.trees,
            "{}: selective trees must be thread-count independent",
            profile.name
        );
        assert_eq!(
            sel.passes, sel_seq.passes,
            "{}: selective iteration counts differ",
            profile.name
        );
        let row = Row {
            name: profile.name,
            ripup_w,
            pf_w,
            sel_w,
            ripup_passes: ripup.passes,
            pf_iterations: pf.passes,
            sel_iterations: sel.passes,
            ripup_us: total_micros(&ripup.telemetry.passes),
            pf_us: total_micros(&pf.telemetry.passes),
            sel_us: total_micros(&sel.telemetry.passes),
            overcap_peak: pf
                .telemetry
                .passes
                .iter()
                .map(|t| t.overcapacity)
                .max()
                .unwrap_or(0),
            pf_rerouted_total: total_rerouted(&pf.telemetry.passes),
            pf_repriced_total: total_repriced(&pf.telemetry.passes),
            sel_rerouted_total: total_rerouted(&sel.telemetry.passes),
            sel_repriced_total: total_repriced(&sel.telemetry.passes),
        };
        println!(
            "{:>10} {:>8} {:>6} {:>6} {:>8} {:>8} {:>8} {:>12.0} {:>12.0} {:>12.0} {:>8.2}",
            row.name,
            row.ripup_w,
            row.pf_w,
            row.sel_w,
            row.ripup_passes,
            row.pf_iterations,
            row.sel_iterations,
            row.ripup_us,
            row.pf_us,
            row.sel_us,
            row.pf_us / row.sel_us.max(1.0)
        );
        rows.push(row);
    }
    let full_total: f64 = rows.iter().map(|r| r.pf_us).sum();
    let sel_total: f64 = rows.iter().map(|r| r.sel_us).sum();
    let speedup = full_total / sel_total.max(1.0);
    println!(
        "aggregate: full reroute {full_total:.0} us, selective {sel_total:.0} us ({speedup:.2}x)"
    );
    assert!(
        speedup >= 1.5,
        "selective negotiation must be at least 1.5x faster than full reroute in aggregate, \
         measured {speedup:.2}x ({full_total:.0} us vs {sel_total:.0} us)"
    );
    write_json(&rows, quick, speedup);
    println!("results written to {OUT}");
}

fn write_json(rows: &[Row], quick: bool, selective_speedup: f64) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"benchmark\": \"rip-up vs negotiated congestion (crates/bench/benches/pathfinder.rs)\",\n",
    );
    out.push_str(&format!(
        "  \"config\": {{ \"threads\": {THREADS}, \"width_range\": [{MIN_W}, {MAX_W}], \"max_passes\": {MAX_PASSES}, \"pf_iterations\": {PF_ITERATIONS}, \"quick\": {quick} }},\n"
    ));
    out.push_str("  \"before\": {\n");
    out.push_str("    \"mechanism\": \"rip-up: sequential passes; each failed net is torn up, promoted to the front of the order, and rerouted against live congestion\",\n");
    out.push_str("    \"cost_model\": \"pass count scales with conflict chains; later nets route against whatever the earlier ones left behind\"\n");
    out.push_str("  },\n");
    out.push_str("  \"after\": {\n");
    out.push_str("    \"mechanism\": \"pathfinder: every iteration routes ALL nets in parallel against one immutable priced snapshot, then a single writer tallies usage, accumulates history on over-capacity nodes, and reprices\",\n");
    out.push_str("    \"cost_model\": \"iterations scale with congestion depth, not conflict order; the route phase is a pure function of the snapshot, so trees are bit-identical across thread counts\"\n");
    out.push_str("  },\n");
    out.push_str("  \"selective\": {\n");
    out.push_str("    \"mechanism\": \"dirty-net negotiation: after the cost update only nets touching an over-capacity node (plus staleness-flagged ones) reroute, most-congested first; skipped nets keep their trees in the usage tally and the cost update reprices only edges whose endpoint pressure changed\",\n");
    out.push_str("    \"cost_model\": \"iteration cost tracks the remaining congestion, not circuit size; the trajectory is bit-identical across thread counts, same as full reroute\"\n");
    out.push_str("  },\n");
    out.push_str("  \"circuits\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"ripup_width\": {}, \"pathfinder_width\": {}, \"selective_width\": {}, \"ripup_passes\": {}, \"pathfinder_iterations\": {}, \"selective_iterations\": {}, \"ripup_us\": {:.0}, \"pathfinder_us\": {:.0}, \"selective_us\": {:.0}, \"peak_overcapacity_nodes\": {}, \"nets_rerouted_total\": {}, \"repriced_edges_total\": {}, \"selective_nets_rerouted_total\": {}, \"selective_repriced_edges_total\": {} }}{}\n",
            r.name,
            r.ripup_w,
            r.pf_w,
            r.sel_w,
            r.ripup_passes,
            r.pf_iterations,
            r.sel_iterations,
            r.ripup_us,
            r.pf_us,
            r.sel_us,
            r.overcap_peak,
            r.pf_rerouted_total,
            r.pf_repriced_total,
            r.sel_rerouted_total,
            r.sel_repriced_total,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"aggregate\": {{ \"selective_speedup\": {selective_speedup:.2} }},\n"
    ));
    out.push_str("  \"notes\": [\n");
    out.push_str("    \"pathfinder_width <= ripup_width and selective_width <= pathfinder_width are asserted per circuit before any timing; pathfinder and selective trees are asserted bit-identical between 1 and 4 threads.\",\n");
    out.push_str("    \"rip-up widths come from the library binary search; pathfinder widths from a descent starting at the rip-up width (first failure stops the walk), because a failing negotiated probe costs the full iteration budget and the descent pays for exactly one; selective widths descend from the pathfinder width the same way.\",\n");
    out.push_str("    \"ripup runs sequentially (threads = 1) because that is its fastest configuration for these circuit sizes; pathfinder and selective run their route phases on 4 workers against the shared priced snapshot.\",\n");
    out.push_str("    \"aggregate.selective_speedup is sum(pathfinder_us) / sum(selective_us) and is asserted >= 1.5 by the bench itself.\",\n");
    out.push_str("    \"nets_rerouted_total / repriced_edges_total sum per-iteration telemetry across the run; the selective_ variants show how much work dirty-net selection and delta repricing avoid.\",\n");
    out.push_str("    \"quick = true means the 2-circuit CI subset (9symml, term1); regenerate without BENCH_QUICK for the full nine-circuit table.\"\n");
    out.push_str("  ]\n");
    out.push_str("}\n");
    std::fs::write(OUT, out).expect("write BENCH_pathfinder.json");
}
