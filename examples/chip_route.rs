//! Route a full synthetic benchmark circuit onto a Xilinx 4000-style FPGA
//! and find its minimum channel width.
//!
//! This is the paper's §5 headline experiment in miniature: synthesize the
//! `9symml` profile (79 nets on an 11×10 array), find the smallest channel
//! width at which the IKMB-based router completes it, compare with the
//! two-pin stand-in for SEGA/GBP (DJKA: every sink along its shortest path
//! from the source), and print the routed chip as ASCII occupancy art.
//!
//! Run with: `cargo run --release --example chip_route`

use fpga_route::fpga::synth::{synthesize, xc4000_profiles};
use fpga_route::fpga::viz::render_ascii_occupancy;
use fpga_route::fpga::width::{minimum_channel_width, WidthSearch};
use fpga_route::fpga::{ArchSpec, Device, RouteAlgorithm, Router, RouterConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = xc4000_profiles()
        .into_iter()
        .find(|p| p.name == "9symml")
        .expect("9symml is a published profile");
    let circuit = synthesize(&profile, 2, 1995)?;
    let (s, m, l) = circuit.pin_histogram();
    println!(
        "{}: {} nets on a {}x{} array (pins 2-3/4-10/>10: {}/{}/{})",
        circuit.name(),
        circuit.net_count(),
        circuit.rows(),
        circuit.cols(),
        s,
        m,
        l
    );

    let base = ArchSpec::xilinx4000(profile.rows, profile.cols, 4);
    let ours = minimum_channel_width(base, 4..=20, WidthSearch::Binary, |device| {
        Router::new(device, RouterConfig::default()).route(&circuit)
    })?;
    println!(
        "our router (IKMB): minimum channel width {} ({} routing attempts, {} passes at the final width)",
        ours.channel_width, ours.attempts, ours.outcome.passes
    );

    let two_pin = minimum_channel_width(base, 4..=20, WidthSearch::Binary, |device| {
        Router::new(device, RouterConfig::with_algorithm(RouteAlgorithm::Djka)).route(&circuit)
    })?;
    println!(
        "two-pin (DJKA):    minimum channel width {} (+{:.0}% vs ours)",
        two_pin.channel_width,
        (two_pin.channel_width as f64 / ours.channel_width as f64 - 1.0) * 100.0
    );
    println!(
        "wirelength: ours {} vs two-pin {} at their respective widths",
        ours.outcome.total_wirelength, two_pin.outcome.total_wirelength
    );

    let device = Device::new(base.with_channel_width(ours.channel_width))?;
    println!("\nchannel occupancy at W = {}:", ours.channel_width);
    println!("{}", render_ascii_occupancy(&device, &ours.outcome)?);
    Ok(())
}
