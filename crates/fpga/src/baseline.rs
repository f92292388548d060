//! The two-pin-decomposition baseline router (CGE/SEGA/GBP stand-in).
//!
//! The routers the paper compares against route multi-pin nets by
//! "breaking them into multiple two-pin nets" (paper §5), forfeiting the
//! wire sharing that Steiner constructions exploit. This baseline
//! reproduces that structural behaviour inside the same pass framework:
//! each net becomes an independent set of source→sink maze routes
//! (Dijkstra), subnets of a net may branch only at the source pin, and
//! resources are committed after each subnet. Expect it to demand wider
//! channels than the Steiner router — Table 2/3's CGE (+22%), SEGA (+26%)
//! and GBP (+17%) gaps are exactly this effect.

use route_graph::{EdgeId, Graph, GraphError, NodeId, ShortestPaths, Weight};
use steiner_route::RoutingTree;

use crate::device::Device;
use crate::netlist::Circuit;
use crate::router::{NetScratch, RouteOutcome};
use crate::FpgaError;

/// Baseline router configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineConfig {
    /// Passes before declaring the width unroutable.
    pub max_passes: usize,
    /// Congestion pressure, as in
    /// [`RouterConfig`](crate::router::RouterConfig).
    pub congestion_alpha_milli: u64,
}

impl Default for BaselineConfig {
    fn default() -> BaselineConfig {
        BaselineConfig {
            max_passes: 20,
            congestion_alpha_milli: 1500,
        }
    }
}

/// The two-pin-decomposition router.
///
/// # Example
///
/// ```no_run
/// use fpga_device::{ArchSpec, BaselineConfig, BaselineRouter, Device};
/// use fpga_device::synth::{synthesize, xc4000_profiles};
///
/// # fn main() -> Result<(), fpga_device::FpgaError> {
/// let profile = xc4000_profiles()[2];
/// let circuit = synthesize(&profile, 2, 42)?;
/// let device = Device::new(ArchSpec::xilinx4000(profile.rows, profile.cols, 12))?;
/// let outcome = BaselineRouter::new(&device, BaselineConfig::default()).route(&circuit)?;
/// println!("baseline wirelength: {}", outcome.total_wirelength);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BaselineRouter<'d> {
    device: &'d Device,
    config: BaselineConfig,
}

impl<'d> BaselineRouter<'d> {
    /// Binds the baseline router to a device.
    #[must_use]
    pub fn new(device: &'d Device, config: BaselineConfig) -> BaselineRouter<'d> {
        BaselineRouter { device, config }
    }

    /// Routes the circuit with per-sink maze routing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Router::route`](crate::Router::route).
    pub fn route(&self, circuit: &Circuit) -> Result<RouteOutcome, FpgaError> {
        circuit.validate_against(self.device.arch())?;
        let mut order: Vec<usize> = (0..circuit.net_count()).collect();
        order.sort_by_key(|&ni| std::cmp::Reverse(circuit.nets()[ni].pin_count()));
        let mut last_failure = 0usize;
        let mut scratch = NetScratch::new(self.device);
        let passes = self.config.max_passes.max(1);
        for pass in 1..=passes {
            match self.route_pass(circuit, &order, &mut scratch)? {
                Ok(mut outcome) => {
                    outcome.passes = pass;
                    return Ok(outcome);
                }
                Err(ni) => {
                    last_failure = ni;
                    let pos = order
                        .iter()
                        .position(|&x| x == ni)
                        .expect("failed net is in the order");
                    order.remove(pos);
                    order.insert(0, ni);
                }
            }
        }
        Err(FpgaError::Unroutable {
            channel_width: self.device.arch().channel_width,
            passes,
            failed_net: last_failure,
            overcapacity: Vec::new(),
        })
    }

    #[allow(clippy::type_complexity)]
    fn route_pass(
        &self,
        circuit: &Circuit,
        order: &[usize],
        scratch: &mut NetScratch,
    ) -> Result<Result<RouteOutcome, usize>, FpgaError> {
        let mut g = self.device.working_graph();
        let w = self.device.arch().channel_width as u64;
        let mut usage: Vec<u32> = vec![0; self.device.position_count()];
        let mut trees: Vec<Option<RoutingTree>> = vec![None; circuit.net_count()];
        for &ni in order {
            let terminals = circuit.net_terminals(self.device, ni)?;
            let source = terminals[0];
            // Foreign pins are hidden from the maze routes (see
            // `NetScratch`); the working graph itself is not touched.
            let routed = scratch.with_view(self.device, &g, &terminals, None, |view| {
                let mut union_edges: Vec<EdgeId> = Vec::new();
                for &sink in &terminals[1..] {
                    // Independent two-pin maze route from the source.
                    // Earlier subnets of the *same* net stay in the graph
                    // — a net may overlap itself (same signal) — but no
                    // optimization steers the route toward sharing; that
                    // is exactly the structural handicap versus the
                    // Steiner router.
                    let sp = match ShortestPaths::run_to_targets(view, source, &[sink]) {
                        Ok(sp) => sp,
                        Err(GraphError::NodeRemoved(_) | GraphError::NodeOutOfBounds(_)) => {
                            return Ok(None);
                        }
                        Err(e) => return Err(e),
                    };
                    let Ok(path) = sp.path_to(sink) else {
                        return Ok(None);
                    };
                    union_edges.extend_from_slice(path.edges());
                }
                Ok(Some(union_edges))
            })?;
            let Some(union_edges) = routed else {
                // The pass is abandoned; the working graph is dropped.
                return Ok(Err(ni));
            };
            // Independently routed subnets can diverge and reconverge;
            // collapse the union to a tree and drop dangling remnants.
            let forest = route_graph::mst::kruskal_subgraph(&g, &union_edges);
            let tree = RoutingTree::from_edges(&g, forest.edges)?.pruned_to(&g, &terminals)?;
            // Commit the net's resources.
            let committed_nodes: Vec<NodeId> = tree.nodes().collect();
            for &v in &committed_nodes {
                g.remove_node(v)?;
            }
            // Report the tree against the pristine device graph so costs
            // measure physical wire, not congestion-inflated weights.
            let tree = RoutingTree::from_edges(self.device.graph(), tree.edges().to_vec())?;
            self.update_congestion(&mut g, &mut usage, w, &committed_nodes)?;
            trees[ni] = Some(tree);
        }
        let trees: Vec<RoutingTree> = trees
            .into_iter()
            .map(|t| t.expect("all nets routed"))
            .collect();
        let mut max_pathlengths = Vec::with_capacity(trees.len());
        for (ni, tree) in trees.iter().enumerate() {
            let terminals = circuit.net_terminals(self.device, ni)?;
            let net = steiner_route::Net::from_terminals(terminals)?;
            max_pathlengths.push(tree.max_pathlength(&net)?);
        }
        let total_wirelength = trees.iter().map(RoutingTree::cost).sum();
        Ok(Ok(RouteOutcome {
            trees,
            passes: 0,
            total_wirelength,
            max_pathlengths,
            telemetry: crate::telemetry::RouteTelemetry::default(),
        }))
    }

    fn update_congestion(
        &self,
        g: &mut Graph,
        usage: &mut [u32],
        w: u64,
        nodes: &[NodeId],
    ) -> Result<(), FpgaError> {
        let mut touched: Vec<usize> = Vec::new();
        for &v in nodes {
            if let Some(pos) = self.device.segment_position(v) {
                usage[pos] = usage[pos].saturating_add(1);
                touched.push(pos);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        let alpha = self.config.congestion_alpha_milli;
        for &pos in &touched {
            for v in self.device.segment_nodes_at(pos) {
                if !g.is_node_live(v) {
                    continue;
                }
                let edges: Vec<_> = g.neighbors(v).map(|(_, e, _)| e).collect();
                for e in edges {
                    let (a, b) = g.endpoints(e)?;
                    let occ = |n: NodeId| {
                        self.device
                            .segment_position(n)
                            .map_or(0, |p| usage[p]) as u64
                    };
                    let u = occ(a).max(occ(b));
                    let pressure = Weight::from_milli(alpha.saturating_mul(u) / w.max(1));
                    g.set_weight(e, Weight::UNIT.saturating_add(pressure))?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{ArchSpec, Side};
    use crate::netlist::{BlockPin, CircuitNet};
    use crate::router::{Router, RouterConfig};

    fn pin(row: usize, col: usize, side: Side, slot: usize) -> BlockPin {
        BlockPin {
            row,
            col,
            side,
            slot,
        }
    }

    fn fanout_circuit() -> Circuit {
        // One 5-pin net plus two 2-pin nets on a 3×3 array.
        Circuit::new(
            "fanout",
            3,
            3,
            vec![
                CircuitNet {
                    pins: vec![
                        pin(1, 1, Side::North, 0),
                        pin(0, 0, Side::East, 0),
                        pin(0, 2, Side::West, 0),
                        pin(2, 0, Side::East, 0),
                        pin(2, 2, Side::West, 0),
                    ],
                },
                CircuitNet {
                    pins: vec![pin(0, 1, Side::South, 1), pin(2, 1, Side::North, 1)],
                },
                CircuitNet {
                    pins: vec![pin(1, 0, Side::South, 1), pin(1, 2, Side::South, 1)],
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn baseline_routes_and_is_disjoint() {
        let circuit = fanout_circuit();
        let device = Device::new(ArchSpec::xilinx4000(3, 3, 8)).unwrap();
        let outcome = BaselineRouter::new(&device, BaselineConfig::default())
            .route(&circuit)
            .unwrap();
        assert_eq!(outcome.trees.len(), 3);
        let mut seen = std::collections::HashSet::new();
        for tree in &outcome.trees {
            for v in tree.nodes() {
                assert!(seen.insert(v), "resource {v} shared between nets");
            }
        }
    }

    #[test]
    fn baseline_uses_more_wire_than_steiner_router() {
        let circuit = fanout_circuit();
        let device = Device::new(ArchSpec::xilinx4000(3, 3, 8)).unwrap();
        let steiner = Router::new(&device, RouterConfig::default())
            .route(&circuit)
            .unwrap();
        let baseline = BaselineRouter::new(&device, BaselineConfig::default())
            .route(&circuit)
            .unwrap();
        assert!(
            baseline.total_wirelength >= steiner.total_wirelength,
            "baseline {} vs steiner {}",
            baseline.total_wirelength,
            steiner.total_wirelength
        );
    }

    #[test]
    fn baseline_fails_on_impossible_width() {
        let circuit = fanout_circuit();
        let device = Device::new(ArchSpec::xilinx4000(3, 3, 1)).unwrap();
        let router = BaselineRouter::new(
            &device,
            BaselineConfig {
                max_passes: 3,
                ..BaselineConfig::default()
            },
        );
        assert!(matches!(
            router.route(&circuit),
            Err(FpgaError::Unroutable { .. })
        ));
    }

    #[test]
    fn zero_passes_reports_the_one_pass_it_ran() {
        // `max_passes: 0` still routes one pass, and the report says so.
        let circuit = fanout_circuit();
        let device = Device::new(ArchSpec::xilinx4000(3, 3, 1)).unwrap();
        let router = BaselineRouter::new(
            &device,
            BaselineConfig {
                max_passes: 0,
                ..BaselineConfig::default()
            },
        );
        match router.route(&circuit) {
            Err(FpgaError::Unroutable { passes, .. }) => assert_eq!(passes, 1),
            other => panic!("expected Unroutable, got {other:?}"),
        }
    }

    #[test]
    fn trees_span_their_nets() {
        let circuit = fanout_circuit();
        let device = Device::new(ArchSpec::xilinx4000(3, 3, 8)).unwrap();
        let outcome = BaselineRouter::new(&device, BaselineConfig::default())
            .route(&circuit)
            .unwrap();
        for (ni, tree) in outcome.trees.iter().enumerate() {
            let terminals = circuit.net_terminals(&device, ni).unwrap();
            let net = steiner_route::Net::from_terminals(terminals).unwrap();
            assert!(tree.spans(&net), "net {ni}");
        }
    }
}
