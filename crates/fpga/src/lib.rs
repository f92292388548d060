//! # fpga-device
//!
//! Symmetrical-array FPGA device model and detailed router for the
//! reproduction of *New Performance-Driven FPGA Routing Algorithms*
//! (Alexander & Robins, DAC 1995).
//!
//! The crate provides every substrate the paper's §5 experiments need:
//!
//! * [`ArchSpec`] — architecture parameters with Xilinx 3000-series
//!   (`F_s = 6`, `F_c = ⌈0.6W⌉`) and 4000-series (`F_s = 3`, `F_c = W`)
//!   presets;
//! * [`Device`] — the routing-resource graph of paper Figure 2 (segments
//!   and pins as nodes, programmable switches as edges);
//! * [`Circuit`] / [`synth`] — netlists, including seeded synthetic
//!   circuits matching the published profiles of every benchmark in
//!   Tables 2 and 3;
//! * [`Router`] — the paper's router: whole-net Steiner/arborescence
//!   constructions, congestion-updated weights, resource removal for
//!   electrical disjointness, move-to-front ordering, pass budget. Rip-up
//!   routes one net at a time, exactly as the paper does. With
//!   [`RouteAlgorithm::Djka`] under rip-up it is also the two-pin
//!   stand-in for CGE/SEGA/GBP: each sink's path is its shortest path
//!   from the source, as a per-sink maze router would find it;
//! * [`pathfinder`] — negotiated congestion (`RouterConfig::mode`):
//!   route every net each iteration against an immutable priced
//!   snapshot, then reprice under present + history costs. The route
//!   phase splits across `RouterConfig::threads` workers and stays
//!   bit-identical across thread counts;
//! * [`width`] — minimum channel-width search, guided by the peak channel
//!   occupancy of its first routed probe;
//! * [`viz`] — ASCII/SVG renderings (paper Figure 16).
//!
//! ```no_run
//! use fpga_device::{ArchSpec, Device, Router, RouterConfig};
//! use fpga_device::synth::{synthesize, xc4000_profiles};
//! use fpga_device::width::{minimum_channel_width, WidthSearch};
//!
//! # fn main() -> Result<(), fpga_device::FpgaError> {
//! let profile = xc4000_profiles()[7]; // 9symml
//! let circuit = synthesize(&profile, 2, 1)?;
//! let base = ArchSpec::xilinx4000(profile.rows, profile.cols, 1);
//! let found = minimum_channel_width(base, 3..=20, WidthSearch::Binary, |device| {
//!     Router::new(device, RouterConfig::default()).route(&circuit)
//! })?;
//! println!("{} routes at W = {}", profile.name, found.channel_width);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod classify;
pub mod device;
mod error;
pub mod netlist;
pub mod pathfinder;
pub mod router;
pub mod synth;
pub mod telemetry;
pub mod three_d;
pub mod viz;
pub mod width;

pub use arch::{ArchSpec, FcSpec, Side};
pub use device::{Device, EdgeKind, NodeKind};
pub use error::FpgaError;
pub use netlist::{BlockPin, Circuit, CircuitNet};
pub use router::{
    auto_thread_count, RouteAlgorithm, RouteMode, RouteOutcome, Router, RouterConfig,
};
pub use telemetry::{CongestionSnapshot, PassTelemetry, RouteTelemetry};
pub use synth::CircuitProfile;
