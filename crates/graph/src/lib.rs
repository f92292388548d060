//! # route-graph
//!
//! Weighted-graph substrate for performance-driven FPGA routing, built for the
//! reproduction of *New Performance-Driven FPGA Routing Algorithms*
//! (Alexander & Robins, DAC 1995).
//!
//! The paper's algorithms (KMB, ZEL, IGMST, DJKA, DOM, PFA, IDOM) all operate
//! on arbitrary weighted undirected graphs whose topology mirrors an FPGA's
//! programmable interconnect. This crate provides that foundation:
//!
//! * [`Graph`] — an undirected weighted graph with *removable* nodes and
//!   edges, so a router can commit resources to a net and make them
//!   unavailable to subsequent nets (paper §5), and *mutable* edge weights,
//!   so congestion can be folded into the metric (paper §2, Figure 3).
//! * [`Weight`] — an exact fixed-point weight type. Exactness matters: the
//!   graph-dominance relation of the paper's arborescence heuristics
//!   (Definition 4.1) tests `minpath(n0, p) == minpath(n0, s) + minpath(s, p)`
//!   and would be meaningless under floating-point drift.
//! * [`ShortestPaths`] — Dijkstra single-source shortest paths with parent
//!   links and path extraction, over a lazy-deletion binary heap and
//!   reusable per-query buffers ([`KernelScratch`]). Goal-oriented (A*)
//!   variants (`run_guided`, `run_to_targets_guided`, `minpath_guided`)
//!   reorder the frontier by an admissible lower bound while settling
//!   bit-identical distances and paths.
//! * [`lowerbound`] — the admissible potentials steering those variants:
//!   grid-Manhattan bounds for RR-graph-shaped grids and ALT landmark
//!   tables for general graphs, all in saturating [`Weight`] math.
//! * [`csr`] — the per-net routing view: [`LaneView`] packs a base
//!   graph's usable adjacency, under the net's [`LaneRules`] (hidden
//!   nodes, per-node discounts, a tie-break tilt), in one pass into a
//!   [`LiveLane`] of contiguous `(neighbor, edge, weight)` triples for
//!   cache-friendly relaxation sweeps, without mutating the base.
//! * [`TerminalDistances`] — the *distance graph* over a net's terminals
//!   (the complete graph whose edge weights are shortest-path costs in `G`),
//!   the shared primitive of KMB, ZEL, DOM and the iterated constructions.
//! * [`mst`] — Prim over complete distance matrices and Kruskal over edge
//!   subsets (with [`dsu::UnionFind`]).
//! * [`grid`] — the `n × m` grid graphs used throughout the paper's Table 1
//!   experiments, with Manhattan coordinates.
//! * [`random`] — seeded random graph / net workload generators.
//! * [`rng`] — a vendored SplitMix64 PRNG so the workspace builds with no
//!   network access (no crates.io dependencies).
//! * [`view`] — the [`GraphView`] read abstraction served by [`Graph`]
//!   and [`LaneView`].
//! * [`floyd`] — Floyd–Warshall all-pairs shortest paths, used as a test
//!   oracle against Dijkstra.
//!
//! ## Example
//!
//! ```
//! use route_graph::{Graph, Weight, ShortestPaths};
//!
//! # fn main() -> Result<(), route_graph::GraphError> {
//! let mut g = Graph::with_nodes(3);
//! let n = g.node_ids().collect::<Vec<_>>();
//! g.add_edge(n[0], n[1], Weight::from_units(2))?;
//! g.add_edge(n[1], n[2], Weight::from_units(3))?;
//! let sp = ShortestPaths::run(&g, n[0])?;
//! assert_eq!(sp.dist(n[2]), Some(Weight::from_units(5)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod dijkstra;
pub mod distgraph;
pub mod dsu;
mod error;
pub mod floyd;
pub mod graph;
pub mod grid;
pub mod heap;
mod ids;
pub mod lowerbound;
pub mod mst;
pub mod multiweight;
pub mod path;
pub mod random;
pub mod rng;
pub mod view;
mod weight;

pub use csr::{LaneRules, LaneView, LiveLane};
pub use dijkstra::{KernelScratch, ShortestPaths};
pub use distgraph::{DistanceOracle, TerminalDistances};
pub use lowerbound::{GridPotential, LandmarkPotential, Potential, ZeroPotential};
pub use error::GraphError;
pub use graph::Graph;
pub use grid::GridGraph;
pub use ids::{EdgeId, NodeId};
pub use path::Path;
pub use view::GraphView;
pub use weight::{Weight, MILLI_PER_UNIT};
