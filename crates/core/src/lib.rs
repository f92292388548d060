//! # steiner-route
//!
//! The performance-driven FPGA routing algorithms of *New
//! Performance-Driven FPGA Routing Algorithms* (Alexander & Robins,
//! DAC 1995), implemented over the [`route_graph`] substrate.
//!
//! ## Non-critical nets: graph Steiner trees (GMST)
//!
//! Minimize total wirelength to conserve routing resources:
//!
//! * [`Kmb`] — Kou–Markowsky–Berman, ratio `2·(1 − 1/L)`;
//! * [`Zel`] — Zelikovsky, ratio `11/6`;
//! * [`Iterated`] — the paper's IGMST template, greedily growing a Steiner
//!   set around any base heuristic: [`ikmb()`] and [`izel()`] are the
//!   paper's IKMB and IZEL, inheriting their bases' bounds and beating them
//!   in practice.
//!
//! ## Critical nets: graph Steiner arborescences (GSA)
//!
//! Deliver *optimal* source-sink pathlengths with wirelength as the
//! secondary objective:
//!
//! * [`Djka`] — Dijkstra's SPT pruned to the net (baseline);
//! * [`Dom`] — connect each sink to the nearest node it dominates;
//! * [`Pfa`] — path folding at `MaxDom` merge points (§4.1);
//! * [`idom()`] — the Iterated Dominance construction (§4.2).
//!
//! All eight constructions implement [`SteinerHeuristic`] and can be driven
//! uniformly, which is how the Table 1 experiment and the FPGA router treat
//! them.
//!
//! ```
//! use route_graph::{GridGraph, Weight};
//! use steiner_route::{ikmb, idom, Net, SteinerHeuristic};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = GridGraph::new(8, 8, Weight::UNIT)?;
//! let net = Net::new(
//!     grid.node_at(0, 0)?,
//!     vec![grid.node_at(7, 3)?, grid.node_at(3, 7)?, grid.node_at(7, 7)?],
//! )?;
//! // Wirelength-first routing for a non-critical net:
//! let steiner = ikmb().construct(grid.graph(), &net)?;
//! // Pathlength-first routing for a critical net:
//! let arbor = idom().construct(grid.graph(), &net)?;
//! assert!(arbor.is_shortest_paths_tree(grid.graph(), &net)?);
//! assert!(steiner.cost() <= arbor.cost());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod congestion;
pub mod djka;
pub mod dom;
pub mod dominance;
mod error;
pub mod exact;
pub mod heuristic;
pub mod idom;
pub mod igmst;
pub mod kmb;
pub mod mehlhorn;
pub mod metrics;
mod net;
pub mod pfa;
mod subgraph;
pub mod tradeoff;
mod tree;
pub mod zel;

pub use congestion::NegotiatedPricing;
pub use djka::Djka;
pub use dom::Dom;
pub use error::SteinerError;
pub use heuristic::{
    HeuristicInfo, IteratedBase, IteratedBaseInfo, ScreenedRuns, SteinerHeuristic,
};
pub use idom::{idom, idom_with_config, Idom};
pub use igmst::{ikmb, izel, CandidatePool, Iterated, IteratedConfig, IteratedOutcome};
pub use kmb::Kmb;
pub use mehlhorn::MehlhornKmb;
pub use net::Net;
pub use pfa::Pfa;
pub use tradeoff::{Brbc, PrimDijkstra};
pub use tree::RoutingTree;
pub use zel::Zel;
