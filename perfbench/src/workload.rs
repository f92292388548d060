//! The workloads: which circuits each routes, at which width and with which
//! router configuration, and the timed routing call of one job.
//!
//! Every workload is a batch job run in a closed loop: one circuit at a
//! time in one process, with at most two routing threads. A workload's
//! circuits are several seeded instances of a few Table 3 profiles. Routing
//! time and quality vary a lot from one synthesized circuit to the next, so
//! a run routes many instances and the per-run sums vary little with the
//! seed.

use std::time::Instant;

use fpga_route::fpga::synth::{synthesize, xc4000_profiles, CircuitProfile};
use fpga_route::fpga::width::{minimum_channel_width, WidthSearch};
use fpga_route::fpga::{
    ArchSpec, Circuit, Device, FpgaError, RouteAlgorithm, RouteMode, RouteOutcome, Router,
    RouterConfig,
};
use fpga_route::graph::rng::SplitMix64;
use fpga_route::graph::{Graph, NodeId, Weight};
use fpga_route::steiner::{CandidatePool, Net};

use crate::audit::Audited;
use crate::spans::Spans;

/// The width range and pass budget of `fpga_route width --arch 4000`.
pub const MIN_W: usize = 3;
pub const MAX_W: usize = 24;
pub const MAX_PASSES: usize = 10;
/// Pins per block side of the synthesized circuits, as in the CLI.
const PINS_PER_SIDE: usize = 2;
/// Share of nets `classify::by_span` flags critical.
pub const CRITICAL_FRACTION: f64 = 0.1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's flow: IKMB rip-up, one thread, binary minimum-width
    /// search. Exercises width → router → core → graph; bypasses sched
    /// and pathfinder.
    RipupWidth,
    /// Selective negotiated congestion at a fixed tight width on two
    /// threads. All work is PathFinder iterations; bypasses width and
    /// sched.
    PathfinderSelective,
    /// IKMB rip-up with IDOM for the critical nets on two threads under
    /// the wavefront scheduler, at a fixed width. The only workload that
    /// runs sched and the arborescence constructions.
    RipupCriticalT2,
}

/// One circuit family of a workload.
pub struct Entry {
    /// Table 3 profile name.
    pub profile: &'static str,
    /// Channel width the jobs route at; `None` runs the width search.
    pub width: Option<usize>,
    /// Seeded instances of the profile routed per sweep.
    pub instances: usize,
}

const fn entry(profile: &'static str, width: Option<usize>, instances: usize) -> Entry {
    Entry {
        profile,
        width,
        instances,
    }
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RipupWidth,
        Workload::PathfinderSelective,
        Workload::RipupCriticalT2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RipupWidth => "ripup_width",
            Workload::PathfinderSelective => "pathfinder_selective",
            Workload::RipupCriticalT2 => "ripup_critical_t2",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Routing threads; never more than the two cores the benchmark was
    /// sized on.
    pub fn threads(self) -> usize {
        match self {
            Workload::RipupWidth => 1,
            Workload::PathfinderSelective | Workload::RipupCriticalT2 => 2,
        }
    }

    /// The circuits one sweep routes. Each fixed width is the tightest at
    /// which every instance tried while sizing the workload converged
    /// (PathFinder) or routed in one pass (rip-up); README.md says why.
    pub fn entries(self) -> &'static [Entry] {
        const RIPUP_WIDTH: &[Entry] = &[entry("term1", None, 10)];
        const PATHFINDER_SELECTIVE: &[Entry] =
            &[entry("apex7", Some(8), 8), entry("too_large", Some(9), 2)];
        const RIPUP_CRITICAL_T2: &[Entry] = &[
            entry("example2", Some(12), 4),
            entry("too_large", Some(12), 4),
            entry("vda", Some(12), 4),
            entry("alu2", Some(12), 4),
        ];
        match self {
            Workload::RipupWidth => RIPUP_WIDTH,
            Workload::PathfinderSelective => PATHFINDER_SELECTIVE,
            Workload::RipupCriticalT2 => RIPUP_CRITICAL_T2,
        }
    }

    /// Routes the critical nets with IDOM.
    pub fn classifies(self) -> bool {
        self == Workload::RipupCriticalT2
    }

    pub fn config(self, threads: usize) -> RouterConfig {
        let base = RouterConfig {
            max_passes: MAX_PASSES,
            threads,
            ..RouterConfig::default()
        };
        match self {
            Workload::RipupWidth => base,
            Workload::PathfinderSelective => RouterConfig {
                mode: RouteMode::Pathfinder,
                pf_selective: true,
                ..base
            },
            Workload::RipupCriticalT2 => RouterConfig {
                critical_algorithm: Some(RouteAlgorithm::Idom),
                ..base
            },
        }
    }
}

/// One circuit instance, ready to route.
pub struct Case {
    /// `profile/seed`.
    pub label: String,
    pub profile: CircuitProfile,
    pub circuit: Circuit,
    /// The device a fixed-width job routes on; `None` for the width
    /// search, which builds its own device for every probe.
    pub device: Option<Device>,
}

impl Case {
    pub fn arch(&self, width: usize) -> ArchSpec {
        ArchSpec::xilinx4000(self.profile.rows, self.profile.cols, width)
    }
}

/// Seeds of one profile's instances: the run's seed first, so the first
/// instance is the circuit `fpga_route` builds at that seed, then values
/// drawn from SplitMix64 seeded with it.
fn instance_seeds(seed: u64, count: usize) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut seeds = vec![seed];
    while seeds.len() < count {
        seeds.push(rng.next_u64());
    }
    seeds.truncate(count);
    seeds
}

/// One circuit instance a workload routes, before set-up.
#[derive(Debug, Clone, Copy)]
pub struct CaseSpec {
    profile: CircuitProfile,
    seed: u64,
    width: Option<usize>,
}

/// Every circuit instance of the workload at `seed`, in sweep order.
pub fn case_specs(workload: Workload, seed: u64) -> Vec<CaseSpec> {
    let profiles = xc4000_profiles();
    let mut specs = Vec::new();
    for entry in workload.entries() {
        let profile = *profiles
            .iter()
            .find(|p| p.name == entry.profile)
            .expect("workload names a Table 3 profile");
        for seed in instance_seeds(seed, entry.instances) {
            specs.push(CaseSpec {
                profile,
                seed,
                width: entry.width,
            });
        }
    }
    specs
}

impl CaseSpec {
    /// `profile/seed`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.profile.name, self.seed)
    }

    /// The benchmark's set-up for one job: synthesizes the circuit and,
    /// for a fixed-width job, builds the device it routes on.
    pub fn build(&self, spans: &mut Spans, job: usize) -> Result<Case, FpgaError> {
        let p = self.profile;
        spans.enter("setup", Some(job));
        let circuit = synthesize(&p, PINS_PER_SIDE, self.seed);
        let device = self
            .width
            .map(|w| Device::new(ArchSpec::xilinx4000(p.rows, p.cols, w)))
            .transpose();
        spans.exit();
        Ok(Case {
            label: self.label(),
            profile: p,
            circuit: circuit?,
            device: device?,
        })
    }
}

/// One routing attempt of a width search.
#[derive(Debug, Clone)]
pub struct Probe {
    pub width: usize,
    pub routed: bool,
    /// Passes the attempt ran: the outcome's on success, the whole budget
    /// on an unroutable width.
    pub passes: usize,
    pub seconds: f64,
}

/// A job's routing.
pub struct Routed {
    /// The width routed at: found by the search, or fixed.
    pub width: usize,
    pub outcome: RouteOutcome,
    /// Width-search attempts, in order (empty for fixed-width jobs).
    pub probes: Vec<Probe>,
    /// Wall-clock of the routing call.
    pub seconds: f64,
}

/// Routes one case: the timed call into the width search or the router.
pub fn route(
    workload: Workload,
    case: &Case,
    critical: &[bool],
    threads: usize,
    spans: &mut Spans,
    job: usize,
) -> Result<Routed, FpgaError> {
    let config = workload.config(threads);
    let Some(device) = &case.device else {
        let mut probes = Vec::new();
        spans.enter("width_search", Some(job));
        let started = Instant::now();
        let found = minimum_channel_width(
            case.arch(MIN_W),
            MIN_W..=MAX_W,
            WidthSearch::Binary,
            |device| {
                spans.enter("attempt", Some(job));
                let attempt_started = Instant::now();
                spans.enter("route", Some(job));
                let result = Router::new(device, config.clone()).route(&case.circuit);
                spans.exit();
                probes.push(Probe {
                    width: device.arch().channel_width,
                    routed: result.is_ok(),
                    passes: match &result {
                        Ok(outcome) => outcome.passes,
                        Err(FpgaError::Unroutable { passes, .. }) => *passes,
                        Err(_) => 0,
                    },
                    seconds: attempt_started.elapsed().as_secs_f64(),
                });
                spans.exit();
                result
            },
        );
        let seconds = started.elapsed().as_secs_f64();
        spans.exit();
        let found = found?;
        return Ok(Routed {
            width: found.channel_width,
            outcome: found.outcome,
            probes,
            seconds,
        });
    };
    spans.enter("route", Some(job));
    let started = Instant::now();
    let router = Router::new(device, config);
    let result = if workload.classifies() {
        router.route_classified(&case.circuit, critical)
    } else {
        router.route(&case.circuit)
    };
    let seconds = started.elapsed().as_secs_f64();
    spans.exit();
    Ok(Routed {
        width: device.arch().channel_width,
        outcome: result?,
        probes: Vec::new(),
        seconds,
    })
}

/// The quality of one audited routing, summed by the end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quality {
    /// Minimum routable width found by a search; for fixed-width jobs, the
    /// most tracks the routing uses in any channel position.
    pub channel_width: usize,
    pub wirelength: Weight,
    pub pathlength: Weight,
    /// Sum of max source-sink pathlength over the nets `by_span` flags.
    pub critical_pathlength: Weight,
    /// Hash of every tree's edge list, to compare routings across runs.
    pub digest: u64,
}

impl Quality {
    pub fn of(routed: &Routed, searched: bool, critical: &[bool], audited: Audited) -> Quality {
        let outcome = &routed.outcome;
        Quality {
            channel_width: if searched {
                routed.width
            } else {
                audited.peak_tracks
            },
            wirelength: outcome.total_wirelength,
            pathlength: outcome.total_max_pathlength(),
            critical_pathlength: outcome
                .max_pathlengths
                .iter()
                .zip(critical)
                .filter(|(_, &c)| c)
                .map(|(&p, _)| p)
                .sum(),
            digest: digest(outcome),
        }
    }
}

/// FNV-1a over every tree's edge ids, with a separator per net.
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

/// `true` when both routings hold the same trees, edge for edge.
pub fn same_trees(a: &RouteOutcome, b: &RouteOutcome) -> bool {
    a.trees.len() == b.trees.len()
        && a.trees
            .iter()
            .zip(&b.trees)
            .all(|(x, y)| x.edges() == y.edges())
}

/// The router's Steiner candidate pool for one net: every segment within
/// the net's block bounding box grown by `margin` blocks. The router's own
/// pool is crate-private, so the replay rebuilds it from the device's
/// public geometry.
fn candidate_region(device: &Device, circuit: &Circuit, ni: usize, margin: usize) -> Vec<NodeId> {
    let arch = device.arch();
    let pins = &circuit.nets()[ni].pins;
    let r0 = pins
        .iter()
        .map(|p| p.row)
        .min()
        .unwrap_or(0)
        .saturating_sub(margin);
    let c0 = pins
        .iter()
        .map(|p| p.col)
        .min()
        .unwrap_or(0)
        .saturating_sub(margin);
    let r1 = (pins.iter().map(|p| p.row).max().unwrap_or(0) + margin).min(arch.rows - 1);
    let c1 = (pins.iter().map(|p| p.col).max().unwrap_or(0) + margin).min(arch.cols - 1);
    let h_positions = (arch.rows + 1) * arch.cols;
    let mut nodes = Vec::new();
    for channel in r0..=r1 + 1 {
        for seg in c0..=c1 {
            nodes.extend(device.segment_nodes_at(channel * arch.cols + seg));
        }
    }
    for channel in c0..=c1 + 1 {
        for seg in r0..=r1 {
            nodes.extend(device.segment_nodes_at(h_positions + channel * arch.rows + seg));
        }
    }
    nodes
}

/// Times `algorithm`'s construction of each listed net on the pristine
/// device graph at `width`, with the other nets' pins masked as the router
/// masks them. Returns one duration in microseconds per net.
pub fn replay(
    case: &Case,
    width: usize,
    nets: &[usize],
    algorithm: RouteAlgorithm,
) -> Result<Vec<f64>, String> {
    let device = Device::new(case.arch(width)).map_err(|e| e.to_string())?;
    let margin = RouterConfig::default().candidate_margin;
    let mut g: Graph = device.working_graph();
    let pins: Vec<NodeId> = device.pin_nodes().collect();
    let mut micros = Vec::with_capacity(nets.len());
    for &ni in nets {
        let terminals = case
            .circuit
            .net_terminals(&device, ni)
            .map_err(|e| e.to_string())?;
        let masked: Vec<NodeId> = pins
            .iter()
            .copied()
            .filter(|p| !terminals.contains(p))
            .collect();
        for &p in &masked {
            g.remove_node(p).map_err(|e| e.to_string())?;
        }
        let net = Net::from_terminals(terminals).map_err(|e| e.to_string())?;
        let heuristic = algorithm.heuristic::<Graph>(CandidatePool::Explicit(candidate_region(
            &device,
            &case.circuit,
            ni,
            margin,
        )));
        let started = Instant::now();
        let tree = heuristic.construct(&g, &net);
        micros.push(started.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(tree).map_err(|e| format!("{} net {ni}: {e}", case.label))?;
        for &p in &masked {
            g.restore_node(p).map_err(|e| e.to_string())?;
        }
    }
    Ok(micros)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_start_at_the_run_seed_and_are_distinct() {
        let seeds = instance_seeds(1995, 4);
        assert_eq!(seeds[0], 1995);
        assert_eq!(seeds, instance_seeds(1995, 4));
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4);
    }

    #[test]
    fn workload_names_round_trip_and_stay_within_two_threads() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.threads() <= 2);
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
