//! The detailed FPGA router of paper §5.
//!
//! The router operates directly on the device's routing-resource graph and
//! routes nets one at a time as whole multi-pin units (the property the
//! paper credits for its channel-width wins over CGE/SEGA/GBP). After each
//! net, edge weights are updated to reflect congestion and the net's
//! resources are removed so subsequent nets stay electrically disjoint. A
//! *move-to-front* ordering heuristic reacts to infeasibility: the failing
//! net is routed earlier in the next pass, and "typically only a few (i.e.,
//! less than five) such passes are required"; after `max_passes` (the
//! paper's feasibility threshold is 20) the circuit is declared unroutable
//! at this channel width.

use route_graph::{Graph, GraphError, GraphView, LaneRules, LaneView, LiveLane, NodeId, Weight};
use steiner_route::{
    idom_with_config, CandidatePool, Djka, Dom, Iterated, IteratedConfig, Kmb, Net,
    Pfa, RoutingTree, SteinerError, SteinerHeuristic, Zel,
};

use crate::device::Device;
use crate::netlist::Circuit;
use crate::FpgaError;

/// Which construction the router uses per net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteAlgorithm {
    /// Kou–Markowsky–Berman Steiner trees.
    Kmb,
    /// Iterated KMB (the paper's primary router configuration).
    Ikmb,
    /// Zelikovsky Steiner trees.
    Zel,
    /// Iterated ZEL.
    Izel,
    /// Dijkstra SPT pruned to the net.
    Djka,
    /// DOM spanning arborescences.
    Dom,
    /// Path-Folding Arborescences.
    Pfa,
    /// Iterated Dominance arborescences.
    Idom,
}

impl RouteAlgorithm {
    /// Display label matching the paper's tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RouteAlgorithm::Kmb => "KMB",
            RouteAlgorithm::Ikmb => "IKMB",
            RouteAlgorithm::Zel => "ZEL",
            RouteAlgorithm::Izel => "IZEL",
            RouteAlgorithm::Djka => "DJKA",
            RouteAlgorithm::Dom => "DOM",
            RouteAlgorithm::Pfa => "PFA",
            RouteAlgorithm::Idom => "IDOM",
        }
    }

    /// Instantiates the heuristic over any [`GraphView`]. Iterated
    /// algorithms receive the given candidate pool and run in screened
    /// mode (chip-scale graphs); ZEL and PFA restrict their Steiner-node
    /// scans to the same pool, so every construction's distance queries
    /// stay inside the net's spatial footprint instead of flooding the
    /// whole chip.
    #[must_use]
    pub fn heuristic<G: GraphView>(self, pool: CandidatePool) -> Box<dyn SteinerHeuristic<G>> {
        let config = IteratedConfig {
            pool: pool.clone(),
            screened: true,
            ..IteratedConfig::default()
        };
        match self {
            RouteAlgorithm::Kmb => Box::new(Kmb::new()),
            RouteAlgorithm::Ikmb => Box::new(Iterated::with_config(Kmb::new(), config)),
            RouteAlgorithm::Zel => Box::new(Zel::with_pool(pool)),
            RouteAlgorithm::Izel => {
                Box::new(Iterated::with_config(Zel::with_pool(pool), config))
            }
            RouteAlgorithm::Djka => Box::new(Djka::new()),
            RouteAlgorithm::Dom => Box::new(Dom::new()),
            RouteAlgorithm::Pfa => Box::new(Pfa::with_pool(pool)),
            RouteAlgorithm::Idom => Box::new(idom_with_config(config)),
        }
    }

    /// `true` for the arborescence family (optimal source-sink paths).
    #[must_use]
    pub fn is_arborescence(self) -> bool {
        matches!(
            self,
            RouteAlgorithm::Djka | RouteAlgorithm::Dom | RouteAlgorithm::Pfa | RouteAlgorithm::Idom
        )
    }

    /// The paper's Table 1 roster, in table order.
    #[must_use]
    pub fn table1_roster() -> [RouteAlgorithm; 8] {
        [
            RouteAlgorithm::Kmb,
            RouteAlgorithm::Zel,
            RouteAlgorithm::Ikmb,
            RouteAlgorithm::Izel,
            RouteAlgorithm::Djka,
            RouteAlgorithm::Dom,
            RouteAlgorithm::Pfa,
            RouteAlgorithm::Idom,
        ]
    }
}

/// Which routing discipline resolves congestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RouteMode {
    /// The paper's sequential discipline: nets are routed one at a time,
    /// committed resources are removed so later nets stay disjoint, and
    /// move-to-front reacts to failures across passes. Always sequential:
    /// [`RouterConfig::threads`] does not apply.
    #[default]
    RipUp,
    /// Negotiated congestion (PathFinder, see
    /// [`pathfinder`](crate::pathfinder)): every iteration routes *all*
    /// nets independently against an immutable priced snapshot — trivially
    /// parallel, no conflict DAG — then a single-writer phase measures
    /// overuse, accumulates history costs, and reprices the snapshot.
    /// Converged when no routing resource is claimed by two nets.
    Pathfinder,
}

impl RouteMode {
    /// Stable CLI/display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RouteMode::RipUp => "ripup",
            RouteMode::Pathfinder => "pathfinder",
        }
    }
}

/// Router tuning parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    /// Per-net construction.
    pub algorithm: RouteAlgorithm,
    /// Which discipline resolves congestion: sequential rip-up (the
    /// paper's router, the default) or negotiated congestion.
    pub mode: RouteMode,
    /// Negotiated-congestion iteration budget ([`RouteMode::Pathfinder`]
    /// only): route-all/reprice rounds before the width is declared
    /// unroutable. Plays the role `max_passes` plays for rip-up.
    pub pf_max_iterations: usize,
    /// Negotiated-congestion present-cost coefficient, in milli-units of
    /// weight added to a node's incident edges per net that occupied the
    /// node last iteration ([`RouteMode::Pathfinder`] only).
    pub pf_present_milli: u64,
    /// Negotiated-congestion history-cost coefficient, in milli-units
    /// accumulated per unit of overuse per iteration on nodes that end an
    /// iteration over capacity ([`RouteMode::Pathfinder`] only).
    pub pf_history_milli: u64,
    /// Selective dirty-net negotiation ([`RouteMode::Pathfinder`] only):
    /// after each cost update, only nets whose committed route touches an
    /// over-capacity node (or whose path cost went stale, see
    /// [`pathfinder`](crate::pathfinder)) rip up and reroute; every
    /// other net keeps its tree and its usage stays in the tally. The
    /// cost update also switches from the full
    /// `reprice_edges` sweep to a delta sweep over nodes whose pressure
    /// changed. Iteration work then scales with remaining congestion
    /// instead of circuit size. Off by default; results may legitimately
    /// differ from full-reroute mode (different, equally valid routings)
    /// but stay bit-identical across thread counts.
    pub pf_selective: bool,
    /// Feasibility threshold: passes before declaring the width unroutable
    /// (the paper arbitrarily sets 20).
    pub max_passes: usize,
    /// Congestion pressure: an edge touching a channel position with
    /// occupancy `u` of `W` tracks is weighted
    /// `1 + alpha_milli·u/(1000·W)` units.
    pub congestion_alpha_milli: u64,
    /// How many blocks beyond the net's bounding box the Steiner candidate
    /// pool extends (iterated algorithms only).
    pub candidate_margin: usize,
    /// Promote the failing net to the front of the order before the next
    /// pass (the paper's ordering heuristic). Disabling it retries the
    /// same static order every pass — the ablation baseline.
    pub move_to_front: bool,
    /// Construction for nets flagged *critical* in
    /// [`route_classified`](Router::route_classified); `None` routes every
    /// net with [`algorithm`](RouterConfig::algorithm). The paper's
    /// intended deployment is a Steiner construction here (IKMB) with an
    /// arborescence (PFA/IDOM) for the critical nets.
    pub critical_algorithm: Option<RouteAlgorithm>,
    /// Worker threads for PathFinder's route phase
    /// ([`RouteMode::Pathfinder`] only): each iteration's nets split
    /// across up to this many workers, with trees identical for every
    /// thread count. `1` (the default) routes the phase on the calling
    /// thread; `0` selects automatically per circuit via
    /// [`auto_thread_count`]. Rip-up ignores it and commits one net at a
    /// time (DESIGN.md §5c says why).
    pub threads: usize,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            algorithm: RouteAlgorithm::Ikmb,
            mode: RouteMode::default(),
            pf_max_iterations: 50,
            pf_present_milli: 2000,
            pf_history_milli: 1000,
            pf_selective: false,
            max_passes: 20,
            congestion_alpha_milli: 1500,
            candidate_margin: 1,
            move_to_front: true,
            critical_algorithm: None,
            threads: 1,
        }
    }
}

impl RouterConfig {
    /// Default configuration with a chosen algorithm.
    #[must_use]
    pub fn with_algorithm(algorithm: RouteAlgorithm) -> RouterConfig {
        RouterConfig {
            algorithm,
            ..RouterConfig::default()
        }
    }
}

/// A complete routing of a circuit.
#[derive(Debug, Clone)]
pub struct RouteOutcome {
    /// One tree per net, in circuit net order.
    pub trees: Vec<RoutingTree>,
    /// Passes used (1 = first attempt succeeded).
    pub passes: usize,
    /// Sum of all tree costs.
    pub total_wirelength: Weight,
    /// Per-net maximum source-sink pathlength within the tree.
    pub max_pathlengths: Vec<Weight>,
    /// Per-pass telemetry — wall-clock, PathFinder's negotiation
    /// counters, and end-of-pass congestion snapshots; one entry per
    /// executed pass or iteration (failed passes included).
    pub telemetry: crate::telemetry::RouteTelemetry,
}

impl RouteOutcome {
    /// The largest per-net maximum pathlength across the circuit.
    #[must_use]
    pub fn critical_pathlength(&self) -> Weight {
        self.max_pathlengths
            .iter()
            .copied()
            .max()
            .unwrap_or(Weight::ZERO)
    }

    /// Sum of per-net maximum pathlengths (the aggregate Table 5 compares).
    #[must_use]
    pub fn total_max_pathlength(&self) -> Weight {
        self.max_pathlengths.iter().copied().sum()
    }
}

/// The detailed router, bound to a device.
///
/// # Example
///
/// ```no_run
/// use fpga_device::{ArchSpec, Device, Router, RouterConfig, RouteAlgorithm};
/// use fpga_device::synth::{synthesize, xc4000_profiles};
///
/// # fn main() -> Result<(), fpga_device::FpgaError> {
/// let profile = xc4000_profiles()[2]; // term1
/// let circuit = synthesize(&profile, 2, 42)?;
/// let device = Device::new(ArchSpec::xilinx4000(profile.rows, profile.cols, 9))?;
/// let router = Router::new(&device, RouterConfig::with_algorithm(RouteAlgorithm::Ikmb));
/// let outcome = router.route(&circuit)?;
/// println!("routed in {} passes, wirelength {}", outcome.passes, outcome.total_wirelength);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Router<'d> {
    device: &'d Device,
    config: RouterConfig,
}

impl<'d> Router<'d> {
    /// Binds a router to a device.
    #[must_use]
    pub fn new(device: &'d Device, config: RouterConfig) -> Router<'d> {
        Router { device, config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Routes every net of `circuit`, or reports the width unroutable.
    ///
    /// # Errors
    ///
    /// * [`FpgaError::CircuitMismatch`] if the circuit does not fit the
    ///   device;
    /// * [`FpgaError::Unroutable`] if `max_passes` passes end with a failed
    ///   net;
    /// * [`FpgaError::Steiner`] for internal construction failures.
    pub fn route(&self, circuit: &Circuit) -> Result<RouteOutcome, FpgaError> {
        self.route_classified(circuit, &vec![false; circuit.net_count()])
    }

    /// Routes the circuit with per-net criticality: nets with
    /// `critical[ni] == true` use
    /// [`critical_algorithm`](RouterConfig::critical_algorithm) (when set)
    /// and are routed *before* non-critical nets of the same size, so they
    /// see the least-congested fabric (paper §2: critical nets get "a
    /// higher routing priority").
    ///
    /// # Errors
    ///
    /// As [`route`](Router::route), plus [`FpgaError::CircuitMismatch`] if
    /// `critical` is not one flag per net.
    pub fn route_classified(
        &self,
        circuit: &Circuit,
        critical: &[bool],
    ) -> Result<RouteOutcome, FpgaError> {
        circuit.validate_against(self.device.arch())?;
        if critical.len() != circuit.net_count() {
            return Err(FpgaError::CircuitMismatch(format!(
                "{} criticality flags for {} nets",
                critical.len(),
                circuit.net_count()
            )));
        }
        // Initial order: critical nets first, then large nets (they are
        // hardest to place); move-to-front reacts to failures.
        let mut order: Vec<usize> = (0..circuit.net_count()).collect();
        order.sort_by_key(|&ni| {
            (
                !critical[ni],
                std::cmp::Reverse(circuit.nets()[ni].pin_count()),
            )
        });
        if self.config.mode == RouteMode::Pathfinder {
            let threads = self.resolve_threads(circuit);
            return crate::pathfinder::route_negotiated(self, circuit, critical, threads);
        }
        // Inverse of `order` so a failure promotes in O(pos) rotation
        // instead of an O(n) scan + remove + insert per failed pass.
        let mut index_of = vec![0usize; order.len()];
        for (i, &ni) in order.iter().enumerate() {
            index_of[ni] = i;
        }
        let mut last_failure = 0usize;
        let mut passes_telemetry: Vec<crate::telemetry::PassTelemetry> = Vec::new();
        let mut scratch = NetScratch::new(self.device);
        let passes = self.config.max_passes.max(1);
        for pass in 1..=passes {
            // lint: allow(determinism-wall-clock): pass wall-clock feeds PassTelemetry::elapsed only; routing never reads it
            let started = std::time::Instant::now();
            let (result, mut timing) = {
                let _pass_span = route_trace::span(route_trace::SpanKind::Pass, "pass", pass as u64);
                self.route_pass(circuit, &order, critical, &mut scratch)?
            };
            timing.pass = pass;
            timing.elapsed = started.elapsed();
            timing.congestion.pass = pass;
            route_trace::record_snapshot(timing.congestion.clone());
            passes_telemetry.push(timing);
            match result {
                PassResult::Complete(mut outcome) => {
                    outcome.passes = pass;
                    outcome.telemetry =
                        crate::telemetry::RouteTelemetry { passes: passes_telemetry };
                    return Ok(outcome);
                }
                PassResult::Failed(ni) => {
                    last_failure = ni;
                    if self.config.move_to_front {
                        promote_to_front(&mut order, &mut index_of, ni);
                    }
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

    /// The device this router is bound to.
    pub(crate) fn device(&self) -> &Device {
        self.device
    }

    /// Resolves [`RouterConfig::threads`] for PathFinder: `0` asks
    /// [`auto_thread_count`] with the machine's available parallelism,
    /// any other value is taken literally.
    fn resolve_threads(&self, circuit: &Circuit) -> usize {
        match self.config.threads {
            0 => {
                let available = std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1);
                let total_pins: usize = circuit.nets().iter().map(|n| n.pin_count()).sum();
                auto_thread_count(
                    available,
                    self.device.graph().live_node_count(),
                    circuit.net_count(),
                    total_pins,
                )
            }
            n => n,
        }
    }

    fn route_pass(
        &self,
        circuit: &Circuit,
        order: &[usize],
        critical: &[bool],
        scratch: &mut NetScratch,
    ) -> Result<(PassResult, crate::telemetry::PassTelemetry), FpgaError> {
        let mut g = self.device.working_graph();
        if route_trace::enabled() {
            route_trace::count(route_trace::Counter::GraphSnapshotClones, 1);
        }
        let w = self.device.arch().channel_width as u64;
        let mut usage: Vec<u32> = vec![0; self.device.position_count()];
        let mut trees: Vec<Option<RoutingTree>> = vec![None; circuit.net_count()];
        let mut timing = crate::telemetry::PassTelemetry::default();
        for &ni in order {
            match self.route_net(&g, circuit, ni, critical, scratch, None)? {
                Some(tree) => {
                    self.commit(&mut g, &mut usage, w, &tree)?;
                    // Report against the pristine device graph so costs
                    // measure physical wire, not congestion-inflated
                    // weights.
                    let tree =
                        RoutingTree::from_edges(self.device.graph(), tree.edges().to_vec())?;
                    trees[ni] = Some(tree);
                }
                None => {
                    timing.congestion =
                        crate::telemetry::CongestionSnapshot::from_usage(0, w as usize, &usage);
                    return Ok((PassResult::Failed(ni), timing));
                }
            }
        }
        timing.congestion =
            crate::telemetry::CongestionSnapshot::from_usage(0, w as usize, &usage);
        Ok((PassResult::Complete(self.finalize(circuit, trees)?), timing))
    }

    /// Routes a single net against `g`: runs the configured construction
    /// over the net's [`LaneView`] of `g`, in which the device's foreign
    /// pins are hidden, `scratch`'s discounts apply and, with
    /// `Some(salt)`, every edge carries its tie-break tilt. `Ok(None)`
    /// reports an unroutable (disconnected) net; `g` is never mutated.
    ///
    /// The view packs each row of `g` the first time one of the net's
    /// runs reads it, into the scratch lane (its buffers reused from net
    /// to net): the net pays only for the rows it reads, and every
    /// Dijkstra run relaxes contiguous `(neighbor, edge, weight)` triples
    /// instead of re-resolving `g`'s liveness per edge.
    pub(crate) fn route_net<G: GraphView>(
        &self,
        g: &G,
        circuit: &Circuit,
        ni: usize,
        critical: &[bool],
        scratch: &mut NetScratch,
        tilt: Option<u64>,
    ) -> Result<Option<RoutingTree>, FpgaError> {
        let _net_span = route_trace::span(route_trace::SpanKind::Net, "net", ni as u64);
        let net_started = if route_trace::enabled() {
            // lint: allow(determinism-wall-clock): gated on route_trace::enabled(); feeds the span timeline only, never routing state
            Some(std::time::Instant::now())
        } else {
            None
        };
        let net = Net::from_terminals(circuit.net_terminals(self.device, ni)?)?;
        let algorithm = match (critical[ni], self.config.critical_algorithm) {
            (true, Some(algo)) => algo,
            _ => self.config.algorithm,
        };
        let result = {
            let pool = self.candidate_pool(circuit, ni);
            // The view's rows pack inside the phase span: it is the
            // construction's adjacency work, done once per row and net
            // instead of once per relaxation.
            let _phase_span =
                route_trace::span(route_trace::SpanKind::Phase, algorithm.label(), 0);
            scratch.with_view(self.device, g, net.terminals(), tilt, |view| {
                algorithm.heuristic(pool).construct(view, &net)
            })
        };
        if route_trace::enabled() {
            route_trace::count(route_trace::Counter::NetsRouted, 1);
        }
        if let Some(started) = net_started {
            route_trace::record_duration(
                route_trace::Metric::NetRouteNs,
                u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
        match result {
            Ok(tree) => Ok(Some(tree)),
            Err(SteinerError::Graph(GraphError::Disconnected { .. })) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Assembles the final [`RouteOutcome`] once every net has a tree.
    pub(crate) fn finalize(
        &self,
        circuit: &Circuit,
        trees: Vec<Option<RoutingTree>>,
    ) -> Result<RouteOutcome, FpgaError> {
        let trees: Vec<RoutingTree> = trees
            .into_iter()
            // lint: allow(panic-hygiene): finish() is only reached once every net routed; a hole is a router bug worth aborting on
            .map(|t| t.expect("all nets routed"))
            .collect();
        let mut max_pathlengths = Vec::with_capacity(trees.len());
        for (ni, tree) in trees.iter().enumerate() {
            let terminals = circuit.net_terminals(self.device, ni)?;
            let net = Net::from_terminals(terminals)?;
            max_pathlengths.push(tree.max_pathlength(&net)?);
        }
        let total_wirelength = trees.iter().map(RoutingTree::cost).sum();
        Ok(RouteOutcome {
            trees,
            passes: 0, // filled by route()
            total_wirelength,
            max_pathlengths,
            telemetry: crate::telemetry::RouteTelemetry::default(), // filled by route()
        })
    }

    /// Commits a routed tree: bumps channel occupancy, removes the tree's
    /// resources, and refreshes congestion weights around the touched
    /// channel positions.
    ///
    /// Occupancy counters and congestion weights use saturating
    /// arithmetic: pathological `congestion_alpha_milli` values or
    /// long-running usage can otherwise overflow `alpha · u` and panic
    /// mid-pass.
    fn commit(
        &self,
        g: &mut Graph,
        usage: &mut [u32],
        w: u64,
        tree: &RoutingTree,
    ) -> Result<(), FpgaError> {
        let commit_started = if route_trace::enabled() {
            // lint: allow(determinism-wall-clock): gated on route_trace::enabled(); feeds the span timeline only, never routing state
            Some(std::time::Instant::now())
        } else {
            None
        };
        let mut touched: Vec<usize> = Vec::new();
        let nodes: Vec<NodeId> = tree.nodes().collect();
        for &v in &nodes {
            if let Some(pos) = self.device.segment_position(v) {
                usage[pos] = usage[pos].saturating_add(1);
                touched.push(pos);
            }
        }
        for &v in &nodes {
            g.remove_node(v)?;
        }
        // Refresh weights of live edges around congested positions.
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
        if let Some(started) = commit_started {
            route_trace::record_duration(
                route_trace::Metric::CommitApplyNs,
                u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
        Ok(())
    }

    /// Candidate pool for iterated algorithms: every segment within the
    /// net's block bounding box, expanded by the configured margin.
    fn candidate_pool(&self, circuit: &Circuit, ni: usize) -> CandidatePool {
        CandidatePool::Explicit(self.region_nodes(circuit, ni, self.config.candidate_margin))
    }

    /// Every segment node within the net's block bounding box expanded by
    /// `margin` blocks — the net's spatial footprint, used as the Steiner
    /// candidate pool.
    fn region_nodes(
        &self,
        circuit: &Circuit,
        ni: usize,
        margin: usize,
    ) -> Vec<NodeId> {
        let arch = self.device.arch();
        let pins = &circuit.nets()[ni].pins;
        let (mut r0, mut r1, mut c0, mut c1) = (usize::MAX, 0usize, usize::MAX, 0usize);
        for p in pins {
            r0 = r0.min(p.row);
            r1 = r1.max(p.row);
            c0 = c0.min(p.col);
            c1 = c1.max(p.col);
        }
        let r0 = r0.saturating_sub(margin);
        let c0 = c0.saturating_sub(margin);
        let r1 = (r1 + margin).min(arch.rows - 1);
        let c1 = (c1 + margin).min(arch.cols - 1);
        let mut nodes: Vec<NodeId> = Vec::new();
        // Horizontal channels r0..=r1+1, segments c0..=c1.
        let h_positions = (arch.rows + 1) * arch.cols;
        for ch in r0..=(r1 + 1) {
            for seg in c0..=c1 {
                nodes.extend(self.device.segment_nodes_at(ch * arch.cols + seg));
            }
        }
        // Vertical channels c0..=c1+1, segments r0..=r1.
        for ch in c0..=(c1 + 1) {
            for seg in r0..=r1 {
                nodes.extend(
                    self.device
                        .segment_nodes_at(h_positions + ch * arch.rows + seg),
                );
            }
        }
        nodes
    }
}

enum PassResult {
    Complete(RouteOutcome),
    Failed(usize),
}

/// Moves net `ni` to the front of `order`, keeping `index_of` (the
/// inverse permutation, `index_of[order[i]] == i`) consistent.
///
/// Equivalent to the old `position() + remove + insert(0, ..)` but with
/// no O(n) scan: the position comes from the inverse map and the shift is
/// a single `rotate_right` over the affected prefix. A net already at the
/// front is a no-op (the old code still churned the whole vector).
pub(crate) fn promote_to_front(order: &mut [usize], index_of: &mut [usize], ni: usize) {
    let pos = index_of[ni];
    debug_assert_eq!(order[pos], ni, "index_of out of sync with order");
    if pos == 0 {
        return;
    }
    order[..=pos].rotate_right(1);
    for (i, &n) in order[..=pos].iter().enumerate() {
        index_of[n] = i;
    }
}

/// Picks PathFinder's route-phase worker count for `threads = 0`
/// (automatic) from the circuit's shape. The phase stays on one thread
/// when:
///
/// * there are too few nets to spread across workers (fewer than 8), or
/// * the routing graph is so small (under 2000 live nodes) that spawning
///   workers and sizing their per-net buffers outweighs the routing they
///   share out, or
/// * the circuit is a **few-large-nets** shape — fewer than 32 nets
///   averaging 8+ pins each. A handful of high-fan-in nets dominates each
///   route phase, so the other workers sit idle behind the largest one.
///
/// Otherwise every available core is used. Pure in its arguments so the
/// policy is unit-testable without a device.
#[must_use]
pub fn auto_thread_count(
    available: usize,
    live_nodes: usize,
    nets: usize,
    total_pins: usize,
) -> usize {
    const MIN_NETS: usize = 8;
    const MIN_LIVE_NODES: usize = 2000;
    const LARGE_NET_MIN_NETS: usize = 32;
    const LARGE_NET_AVG_PINS: usize = 8;
    if nets < MIN_NETS || live_nodes < MIN_LIVE_NODES {
        return 1;
    }
    // avg pins >= LARGE_NET_AVG_PINS, computed without division.
    if nets < LARGE_NET_MIN_NETS && total_pins >= LARGE_NET_AVG_PINS * nets {
        return 1;
    }
    available.max(1)
}

/// One routing thread's per-net buffers, reused from net to net: the
/// lane each net's view packs its rows into, the foreign-pin bitmap its
/// masking reads, and PathFinder's per-node self-exclusion discounts.
#[derive(Debug)]
pub(crate) struct NetScratch {
    lane: LiveLane,
    /// `true` at every logic-block pin of the device. While a net routes,
    /// its own pins read `false`: no route can pass *through* a foreign
    /// pin (a pin cannot electrically join two channel tracks).
    foreign: Vec<bool>,
    /// Per-node discount subtracted from every incident edge weight
    /// (PathFinder's claim rule); empty for rip-up.
    pub(crate) discount: Vec<Weight>,
}

impl NetScratch {
    /// Buffers sized for `device`, with no discounts.
    pub(crate) fn new(device: &Device) -> NetScratch {
        let foreign = (0..device.graph().node_count())
            .map(|i| device.is_pin(NodeId::from_index(i)))
            .collect();
        NetScratch {
            lane: LiveLane::new(),
            foreign,
            discount: Vec::new(),
        }
    }

    /// Starts the view of `g` for the net with `terminals` (its foreign
    /// pins hidden, the scratch discounts and the `tilt` salt applied)
    /// over the scratch lane and runs `f` over it; the view packs each
    /// row the first time `f` reads it.
    pub(crate) fn with_view<G: GraphView, R>(
        &mut self,
        device: &Device,
        g: &G,
        terminals: &[NodeId],
        tilt: Option<u64>,
        f: impl FnOnce(&LaneView<'_, G>) -> R,
    ) -> R {
        self.mark_foreign(device, terminals, false);
        let rules = LaneRules {
            hidden: &self.foreign,
            discount: &self.discount,
            tilt,
        };
        let result = f(&LaneView::new(g, &mut self.lane, rules));
        self.mark_foreign(device, terminals, true);
        result
    }

    fn mark_foreign(&mut self, device: &Device, pins: &[NodeId], foreign: bool) {
        for &v in pins {
            if let Some(flag) = self.foreign.get_mut(v.index()) {
                *flag = foreign && device.is_pin(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{ArchSpec, Side};
    use crate::netlist::{BlockPin, CircuitNet};

    fn pin(row: usize, col: usize, side: Side, slot: usize) -> BlockPin {
        BlockPin {
            row,
            col,
            side,
            slot,
        }
    }

    fn small_circuit() -> Circuit {
        Circuit::new(
            "small",
            3,
            3,
            vec![
                CircuitNet {
                    pins: vec![
                        pin(0, 0, Side::East, 0),
                        pin(2, 2, Side::West, 0),
                        pin(0, 2, Side::South, 0),
                    ],
                },
                CircuitNet {
                    pins: vec![pin(1, 0, Side::North, 0), pin(1, 2, Side::North, 0)],
                },
                CircuitNet {
                    pins: vec![pin(2, 0, Side::East, 1), pin(0, 1, Side::West, 1)],
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn routes_a_small_circuit_with_every_algorithm() {
        let circuit = small_circuit();
        let device = Device::new(ArchSpec::xilinx4000(3, 3, 5)).unwrap();
        for algo in RouteAlgorithm::table1_roster() {
            let router = Router::new(&device, RouterConfig::with_algorithm(algo));
            let outcome = router
                .route(&circuit)
                .unwrap_or_else(|e| panic!("{}: {e}", algo.label()));
            assert_eq!(outcome.trees.len(), 3, "{}", algo.label());
            assert!(outcome.total_wirelength > Weight::ZERO);
        }
    }

    #[test]
    fn routed_nets_are_electrically_disjoint() {
        let circuit = small_circuit();
        let device = Device::new(ArchSpec::xilinx4000(3, 3, 5)).unwrap();
        let router = Router::new(&device, RouterConfig::default());
        let outcome = router.route(&circuit).unwrap();
        let mut seen = std::collections::HashSet::new();
        for tree in &outcome.trees {
            for v in tree.nodes() {
                assert!(seen.insert(v), "resource {v} shared between nets");
            }
        }
    }

    #[test]
    fn each_tree_spans_its_net() {
        let circuit = small_circuit();
        let device = Device::new(ArchSpec::xilinx4000(3, 3, 5)).unwrap();
        let router = Router::new(&device, RouterConfig::default());
        let outcome = router.route(&circuit).unwrap();
        for (ni, tree) in outcome.trees.iter().enumerate() {
            let terminals = circuit.net_terminals(&device, ni).unwrap();
            let net = Net::from_terminals(terminals).unwrap();
            assert!(tree.spans(&net), "net {ni}");
        }
    }

    /// Four crossing nets that cannot all fit through a 1-track 2×2
    /// device.
    fn dense_circuit() -> Circuit {
        let mut nets = Vec::new();
        for slot in 0..2 {
            for (a, b) in [
                ((0usize, 0usize), (1usize, 1usize)),
                ((0, 1), (1, 0)),
            ] {
                nets.push(CircuitNet {
                    pins: vec![
                        pin(a.0, a.1, Side::East, slot),
                        pin(b.0, b.1, Side::West, slot),
                    ],
                });
            }
        }
        Circuit::new("dense", 2, 2, nets).unwrap()
    }

    #[test]
    fn too_narrow_width_is_unroutable() {
        let device = Device::new(ArchSpec::xilinx4000(2, 2, 1)).unwrap();
        let router = Router::new(
            &device,
            RouterConfig {
                max_passes: 3,
                ..RouterConfig::default()
            },
        );
        assert!(matches!(
            router.route(&dense_circuit()),
            Err(FpgaError::Unroutable { .. })
        ));
    }

    #[test]
    fn zero_passes_reports_the_one_pass_it_ran() {
        // `max_passes: 0` still routes one pass, and the report says so.
        let device = Device::new(ArchSpec::xilinx4000(2, 2, 1)).unwrap();
        let router = Router::new(
            &device,
            RouterConfig {
                max_passes: 0,
                ..RouterConfig::default()
            },
        );
        match router.route(&dense_circuit()) {
            Err(FpgaError::Unroutable { passes, .. }) => assert_eq!(passes, 1),
            other => panic!("expected Unroutable, got {other:?}"),
        }
    }

    #[test]
    fn wider_channels_make_it_routable() {
        let circuit = small_circuit();
        // Width 1 on a 3×3 with Fc=W=1 is very tight; width 6 is easy.
        let wide = Device::new(ArchSpec::xilinx4000(3, 3, 6)).unwrap();
        let router = Router::new(&wide, RouterConfig::default());
        assert!(router.route(&circuit).is_ok());
    }

    #[test]
    fn arborescence_router_reports_pathlengths() {
        let circuit = small_circuit();
        let device = Device::new(ArchSpec::xilinx4000(3, 3, 6)).unwrap();
        let router = Router::new(
            &device,
            RouterConfig::with_algorithm(RouteAlgorithm::Idom),
        );
        let outcome = router.route(&circuit).unwrap();
        assert_eq!(outcome.max_pathlengths.len(), 3);
        assert!(outcome.critical_pathlength() >= *outcome.max_pathlengths.iter().min().unwrap());
        assert!(outcome.total_max_pathlength() >= outcome.critical_pathlength());
    }

    #[test]
    fn extreme_congestion_pressure_saturates_instead_of_panicking() {
        // `alpha · u` overflows u64 at this setting; the commit path must
        // saturate (weights pinned at Weight::MAX) and keep routing.
        let circuit = small_circuit();
        let device = Device::new(ArchSpec::xilinx4000(3, 3, 6)).unwrap();
        let router = Router::new(
            &device,
            RouterConfig {
                congestion_alpha_milli: u64::MAX,
                ..RouterConfig::default()
            },
        );
        let outcome = router.route(&circuit).unwrap();
        assert_eq!(outcome.trees.len(), 3);
        assert!(outcome.total_wirelength > Weight::ZERO);
    }

    #[test]
    fn auto_thread_count_scales_with_circuit_size() {
        // Too few nets: sequential regardless of machine size.
        assert_eq!(auto_thread_count(16, 100_000, 3, 6), 1);
        // Tiny graph: sequential even with many nets.
        assert_eq!(auto_thread_count(16, 500, 200, 400), 1);
        // Big enough on both axes: use the whole machine.
        assert_eq!(auto_thread_count(16, 100_000, 200, 400), 16);
        // Degenerate available parallelism still yields a worker.
        assert_eq!(auto_thread_count(0, 100_000, 200, 400), 1);
        // Boundary values: exactly at the thresholds is parallel.
        assert_eq!(auto_thread_count(4, 2000, 8, 16), 4);
        assert_eq!(auto_thread_count(4, 1999, 8, 16), 1);
        assert_eq!(auto_thread_count(4, 2000, 7, 14), 1);
    }

    #[test]
    fn auto_thread_count_keeps_few_large_net_circuits_sequential() {
        // 16 nets averaging exactly 8 pins: few-large-nets → sequential.
        assert_eq!(auto_thread_count(16, 100_000, 16, 128), 1);
        // One pin fewer drops the average under the threshold: parallel.
        assert_eq!(auto_thread_count(16, 100_000, 16, 127), 16);
        // At 32 nets the rule no longer applies, whatever the fan-in.
        assert_eq!(auto_thread_count(16, 100_000, 32, 1024), 16);
        // Just under the net cutoff with heavy fan-in: sequential.
        assert_eq!(auto_thread_count(16, 100_000, 31, 248), 1);
    }

    #[test]
    fn threads_zero_routes_like_sequential() {
        let circuit = small_circuit();
        let device = Device::new(ArchSpec::xilinx4000(3, 3, 6)).unwrap();
        let auto = Router::new(
            &device,
            RouterConfig {
                threads: 0,
                ..RouterConfig::default()
            },
        );
        let seq = Router::new(&device, RouterConfig::default());
        let a = auto.route(&circuit).unwrap();
        let s = seq.route(&circuit).unwrap();
        assert_eq!(a.total_wirelength, s.total_wirelength);
        assert_eq!(a.passes, s.passes);
    }

    #[test]
    fn labels_and_roster() {
        assert_eq!(RouteAlgorithm::Ikmb.label(), "IKMB");
        assert!(RouteAlgorithm::Pfa.is_arborescence());
        assert!(!RouteAlgorithm::Kmb.is_arborescence());
        assert_eq!(RouteAlgorithm::table1_roster().len(), 8);
        assert_eq!(RouteMode::RipUp.name(), "ripup");
        assert_eq!(RouteMode::Pathfinder.name(), "pathfinder");
        assert_eq!(RouteMode::default(), RouteMode::RipUp);
    }

    #[test]
    fn promote_to_front_matches_naive_remove_insert() {
        // The exact sequence of orders must be unchanged by the O(pos)
        // rewrite: replay a failure sequence (with repeats and an
        // already-at-front net) against the old scan/remove/insert.
        let mut order: Vec<usize> = vec![2, 0, 4, 1, 3];
        let mut naive = order.clone();
        let mut index_of = vec![0usize; order.len()];
        for (i, &n) in order.iter().enumerate() {
            index_of[n] = i;
        }
        for ni in [3, 3, 1, 4, 0, 2, 2] {
            promote_to_front(&mut order, &mut index_of, ni);
            let pos = naive.iter().position(|&x| x == ni).unwrap();
            naive.remove(pos);
            naive.insert(0, ni);
            assert_eq!(order, naive, "after promoting {ni}");
            for (i, &n) in order.iter().enumerate() {
                assert_eq!(index_of[n], i, "index_of out of sync after {ni}");
            }
        }
    }
}
