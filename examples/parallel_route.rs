//! Where the router uses threads, and how it stays bit-identical to its
//! single-threaded run.
//!
//! PathFinder's route phase (`RouteMode::Pathfinder`,
//! `RouterConfig::threads`) routes every iteration's nets against one
//! immutable priced snapshot, so the nets split across workers and the
//! trees come out identical for any thread count. Rip-up routes one net
//! at a time whatever `threads` says.
//!
//! Run with: `cargo run --release --example parallel_route [threads] [width]`
//! (widths too narrow for PathFinder show both thread counts agreeing on
//! the failure too).

use fpga_route::fpga::synth::{synthesize, xc4000_profiles};
use fpga_route::fpga::{ArchSpec, Device, RouteMode, Router, RouterConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let threads: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(4);
    let width: usize = std::env::args()
        .nth(2)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(12);
    let profile = xc4000_profiles()
        .into_iter()
        .find(|p| p.name == "term1")
        .expect("term1 is a published profile");
    let circuit = synthesize(&profile, 2, 1995)?;
    let device = Device::new(ArchSpec::xilinx4000(profile.rows, profile.cols, width))?;

    let pathfinder = |threads: usize| RouterConfig {
        mode: RouteMode::Pathfinder,
        pf_selective: true,
        threads,
        ..RouterConfig::default()
    };
    let one = Router::new(&device, pathfinder(1)).route(&circuit);
    let many = Router::new(&device, pathfinder(threads)).route(&circuit);

    println!(
        "{}: {} nets, W = {width}, selective PathFinder at 1 and {threads} thread(s)",
        circuit.name(),
        circuit.net_count()
    );
    match (one, many) {
        (Ok(one), Ok(many)) => {
            assert_eq!(one.trees, many.trees);
            println!(
                "converged in {} iterations, wirelength {}; trees identical: true",
                many.passes, many.total_wirelength
            );
            for t in &many.telemetry.passes {
                println!(
                    "  iteration {:>2}: {:>3} nets routed, {:>3} over capacity, {:.1?}",
                    t.pass, t.dirty_nets, t.overcapacity, t.elapsed
                );
            }
        }
        (Err(one), Err(many)) => {
            assert_eq!(one.to_string(), many.to_string());
            println!("both thread counts report unroutable at W = {width}: {many}");
        }
        (one, many) => {
            panic!("thread counts disagree: 1 thread {one:?} vs {threads} threads {many:?}");
        }
    }
    Ok(())
}
