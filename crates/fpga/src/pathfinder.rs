//! Negotiated-congestion (PathFinder) routing: route *everything*, then
//! negotiate.
//!
//! The rip-up router serializes on net order: each net routes against a
//! graph the previous net just mutated, so it routes one net at a time.
//! Negotiated congestion inverts the discipline.
//! Each **iteration**:
//!
//! 1. **Route phase (fully parallel)** — every net is routed
//!    independently against the *same immutable priced snapshot*, with a
//!    per-net reversible exclusion along its previous route (classic
//!    PathFinder rips a net up before rerouting it; a net that saw its
//!    own occupancy as congestion would flee its own conflict-free route
//!    every iteration) and the **claim rule**: the lowest-indexed
//!    previous occupant of a node subtracts *everyone's* present cost
//!    there — it reroutes as if the node were unoccupied and keeps it —
//!    while other occupants subtract only their own share and are priced
//!    toward alternatives (see [`route_net_excluded`]). A microscopic
//!    per-net tie-break [`tilt`] spreads otherwise-symmetric contenders
//!    across a channel's parallel tracks. No resources are removed, so
//!    nets may overlap; because each net's route is a pure function of
//!    the snapshot, its own previous tree, the single-writer claim
//!    table, and its own index, the phase splits across workers with no
//!    ordering between them and bit-identical results for any thread
//!    count or partition. Each net routes over its own
//!    [`LaneView`] of the priced graph — foreign pins hidden, the
//!    exclusion and the tilt folded into the packed weights — so the
//!    snapshot is never cloned, copied or mutated by a worker.
//! 2. **Cost-update phase (single-writer)** — one thread tallies how many
//!    nets used each segment node (capacity: one net per node). If no
//!    node is over capacity the routing is disjoint and we are done.
//!    Otherwise every over-capacity node accumulates *history cost*, and
//!    the snapshot is repriced in one [`reprice_edges`] sweep: pristine
//!    base weight plus both endpoint pressures (present cost from this
//!    iteration's usage, plus accumulated history — summed, so each
//!    endpoint's contribution stays linear and a net's own share is
//!    exactly subtractable in the next route phase). The next
//!    iteration's nets then negotiate — established nets see their own
//!    routes as free and stay put, cheap alternatives win contested
//!    nodes away from nets with other options, and history breaks
//!    oscillation between equally-priced choices.
//!
//! ## Selective (dirty-net) negotiation
//!
//! With [`RouterConfig::pf_selective`] the iteration cost scales with
//! *remaining congestion* instead of circuit size. After each cost
//! update the single writer computes the **dirty set**: nets whose
//! committed route touches an over-capacity node, plus nets whose path
//! cost went *stale* — the history summed along their own tree grew by
//! more than `STALE_SLACK_MILLI` (8000 milli-units) since they were
//! last routed. Only dirty nets rip up and reroute next iteration; every
//! other net keeps its tree, and because the usage tally is recomputed
//! over **all** trees (kept and rerouted alike) the skipped nets'
//! occupancy stays visible to the negotiation — usage is conserved.
//! The cost update likewise narrows from the full [`reprice_edges`]
//! sweep to a [`reprice_incident_edges`] delta over the nodes whose
//! pressure actually changed (tracked by comparing each node's newly
//! computed pressure against the value baked into the snapshot). Dirty
//! nets are routed most-congested-first — ranked by how many
//! over-capacity nodes fall inside the bounding box of the net's
//! previous route — so the parallel phase drains contention early; the
//! ordering only changes which worker routes which net, never any
//! net's result. Dirty-set membership, the reroute order, and the delta
//! node set are all functions of the priced snapshot alone, so
//! selective mode stays bit-identical across thread counts.
//!
//! The single-writer claim is structural: `route_negotiated` owns the
//! priced [`Graph`] by value; during the route phase workers hold only
//! `&`-borrows of it (the borrow checker forbids repricing while any
//! worker is alive), and the repricing sweep runs after the scoped join,
//! on the owning thread. `fpga_lint`'s commit-path-mutation rule pins
//! [`reprice_edges`] and [`reprice_incident_edges`] calls to this
//! module.
//!
//! All pricing arithmetic saturates at `Weight::MAX` (see
//! [`NegotiatedPricing`]): history accumulates monotonically for the
//! whole run and must degrade to "infinitely expensive", never panic.
//!
//! [`tilt`]: route_graph::csr::tilt
//! [`LaneView`]: route_graph::LaneView
//! [`Graph`]: route_graph::Graph
//! [`reprice_edges`]: route_graph::Graph::reprice_edges
//! [`reprice_incident_edges`]: route_graph::Graph::reprice_incident_edges
//! [`RouterConfig::pf_selective`]: crate::router::RouterConfig::pf_selective

use std::sync::atomic::{AtomicUsize, Ordering};

use route_graph::{EdgeId, Graph, NodeId, Weight};
use steiner_route::{NegotiatedPricing, RoutingTree};

use crate::device::{Device, NodeKind};
use crate::netlist::Circuit;
use crate::router::{NetScratch, RouteOutcome, Router};
use crate::FpgaError;

/// Staleness slack for selective mode, in milli-units: a clean net is
/// also marked dirty when the history cost summed over its own tree's
/// segment nodes has grown by more than this since the net was last
/// routed — its path price drifted even though it is not itself in
/// conflict.
const STALE_SLACK_MILLI: u64 = 8000;

/// One worker's share of a route phase: `(net index, result)` pairs in
/// the order the worker visited them.
type WorkerRoutes = Vec<(usize, Result<Option<RoutingTree>, FpgaError>)>;

/// Previous-iteration state each net's self-exclusion reads during a
/// route phase: the ramped present cost, per-node usage, and per-node
/// claimants. All computed by the single writer, so the exclusion is a
/// pure function of (net, snapshot) — never of the worker partition.
#[derive(Clone, Copy)]
struct ExclusionCtx<'a> {
    /// This iteration's (ramped) present cost per occupying net.
    present: Weight,
    /// Previous iteration's per-node net count (empty on iteration 1).
    usage: &'a [u32],
    /// Lowest-indexed previous occupant per node (`usize::MAX` = none).
    claims: &'a [usize],
}

/// Routes `circuit` by negotiated congestion ([`RouteMode::Pathfinder`]).
///
/// Runs up to `pf_max_iterations` route-all/reprice rounds; converges
/// when no segment node is used by two nets. Each route phase splits
/// across up to `threads` workers.
///
/// [`RouteMode::Pathfinder`]: crate::router::RouteMode::Pathfinder
pub(crate) fn route_negotiated(
    router: &Router<'_>,
    circuit: &Circuit,
    critical: &[bool],
    threads: usize,
) -> Result<RouteOutcome, FpgaError> {
    let device = router.device();
    let config = router.config();
    // Present cost ramps linearly with the iteration (classic PathFinder
    // grows its present factor every iteration): early iterations let
    // nets share freely while history discovers the truly contested
    // nodes, late iterations make sharing intolerable so the remaining
    // contenders must separate. `pricing_for(k)` prices the snapshot
    // *for* iteration k's route phase, which subtracts the same ramped
    // present back out along each net's own previous route.
    let pricing_for = |iteration: usize| NegotiatedPricing {
        present_milli: config.pf_present_milli.saturating_mul(iteration as u64),
        history_milli: config.pf_history_milli,
    };
    let base_pricing = pricing_for(1);
    // The priced snapshot, owned here: workers read it, only this
    // function reprices it.
    let mut priced = device.working_graph();
    if route_trace::enabled() {
        route_trace::count(route_trace::Counter::GraphSnapshotClones, 1);
    }
    // Pristine per-edge base weights: every repricing starts from
    // physical wire cost, not from the previous iteration's prices.
    let base_weights: Vec<Weight> = (0..priced.edge_count())
        .map(|i| priced.weight(EdgeId::from_index(i)))
        .collect::<Result<_, _>>()?;
    let node_count = device.graph().node_count();
    let mut history: Vec<Weight> = vec![Weight::ZERO; node_count];
    let width = device.arch().channel_width;
    let budget = config.pf_max_iterations.max(1);
    let net_count = circuit.net_count();
    let selective = config.pf_selective;
    // Nets the next route phase rips up and reroutes, most-congested
    // first in selective mode. Iteration 1 (and every full-reroute
    // iteration) routes everything in net-index order.
    let mut order: Vec<usize> = (0..net_count).collect();
    // Per-net history milli summed along the net's own tree at the time
    // it was last routed — the baseline the staleness test compares
    // against (selective mode only).
    let mut stale_base: Vec<u64> = vec![0; net_count];
    // Per-node pressure currently baked into the priced snapshot: the
    // delta sweep reprices exactly the edges incident to nodes whose
    // freshly computed pressure differs (selective mode only; the
    // pristine snapshot carries zero pressure everywhere).
    let mut prev_pressure: Vec<Weight> = vec![Weight::ZERO; node_count];
    let mut passes_telemetry: Vec<crate::telemetry::PassTelemetry> = Vec::new();
    let mut final_overcap: Vec<NodeId> = Vec::new();
    let mut final_trees: Vec<Option<RoutingTree>> = Vec::new();
    let mut prev_usage: Vec<u32> = Vec::new();
    let mut prev_claims: Vec<usize> = Vec::new();
    // One set of per-net buffers per route-phase worker, grown on demand
    // and reused every iteration.
    let mut scratch: Vec<NetScratch> = Vec::new();
    for iteration in 1..=budget {
        // lint: allow(determinism-wall-clock): per-iteration timing lands in IterationStats reporting; cost updates never read it
        let started = std::time::Instant::now();
        let (trees, usage, pos_usage, claims, overcap) = {
            let _pass_span =
                route_trace::span(route_trace::SpanKind::Pass, "pass", iteration as u64);
            // --- route phase: all nets, one immutable snapshot ----------
            let ctx = ExclusionCtx {
                present: Weight::from_milli(pricing_for(iteration).present_milli),
                usage: &prev_usage,
                claims: &prev_claims,
            };
            let routed = route_all(
                router,
                circuit,
                critical,
                threads,
                &mut scratch,
                &priced,
                &final_trees,
                ctx,
                iteration,
                &order,
            )?;
            // Merge: rerouted nets get their fresh trees, every other
            // net keeps the tree (and therefore the usage) it already
            // committed — the dirty-net conservation invariant.
            let mut trees: Vec<Option<RoutingTree>> =
                if order.len() == net_count || final_trees.len() != net_count {
                    (0..net_count).map(|_| None).collect()
                } else {
                    final_trees.clone()
                };
            for (ni, tree) in routed {
                trees[ni] = tree;
            }
            if let Some(ni) = trees.iter().position(Option::is_none) {
                // Disconnected with every resource live: no amount of
                // negotiation finds a route (pin masking alone cut the
                // net off). Contention is not the failure here.
                return Err(FpgaError::Unroutable {
                    channel_width: width,
                    passes: iteration,
                    failed_net: ni,
                    overcapacity: Vec::new(),
                });
            }
            // --- cost-update phase: single writer from here on ----------
            let mut usage: Vec<u32> = vec![0; node_count];
            let mut pos_usage: Vec<u32> = vec![0; device.position_count()];
            // First (lowest-indexed) occupant of each segment node: its
            // deterministic *claimant* for the next iteration's route
            // phase — the asymmetry sequential PathFinder gets for free
            // from rerouting nets one at a time.
            let mut claims: Vec<usize> = vec![usize::MAX; node_count];
            for (ni, tree) in trees.iter().enumerate() {
                let Some(tree) = tree.as_ref() else { continue };
                for v in tree.nodes() {
                    if let Some(pos) = device.segment_position(v) {
                        usage[v.index()] = usage[v.index()].saturating_add(1);
                        pos_usage[pos] = pos_usage[pos].saturating_add(1);
                        if claims[v.index()] == usize::MAX {
                            claims[v.index()] = ni;
                        }
                    }
                }
            }
            // Ascending node-id order: the reported over-capacity set and
            // the chosen failed net are partition-independent.
            let overcap: Vec<NodeId> = (0..node_count)
                .map(NodeId::from_index)
                .filter(|v| usage[v.index()] >= 2)
                .collect();
            (trees, usage, pos_usage, claims, overcap)
        };
        let converged = overcap.is_empty();
        // Nets whose route changed relative to the previous iteration —
        // the convergence signal complementary to the over-capacity
        // count (a negotiation can stall with few over-capacity nodes
        // but many nets still churning between alternatives).
        let nets_rerouted = trees
            .iter()
            .enumerate()
            .filter(|(ni, tree)| {
                trees_differ(tree.as_ref(), final_trees.get(*ni).and_then(Option::as_ref))
            })
            .count();
        let mut timing = crate::telemetry::PassTelemetry {
            pass: iteration,
            overcapacity: overcap.len(),
            history_updates: if converged { 0 } else { overcap.len() },
            nets_rerouted,
            dirty_nets: order.len(),
            elapsed: started.elapsed(),
            congestion: crate::telemetry::CongestionSnapshot::from_usage(
                iteration, width, &pos_usage,
            ),
            ..Default::default()
        };
        route_trace::record_snapshot(timing.congestion.clone());
        if route_trace::enabled() {
            route_trace::count(route_trace::Counter::PathfinderIterations, 1);
            route_trace::count(
                route_trace::Counter::PathfinderOvercapacityNodes,
                overcap.len() as u64,
            );
            route_trace::count(route_trace::Counter::PathfinderDirtyNets, order.len() as u64);
            route_trace::count(
                route_trace::Counter::PathfinderSkippedNets,
                (net_count - order.len()) as u64,
            );
            route_trace::record_convergence(route_trace::ConvergenceRecord {
                iteration,
                overcapacity: overcap.len(),
                history_milli: history
                    .iter()
                    .fold(0u64, |acc, h| acc.saturating_add(h.as_milli())),
                nets_rerouted,
                present_milli: pricing_for(iteration).present_milli,
                dirty_nets: order.len(),
            });
            route_trace::record_duration(
                route_trace::Metric::PfIterationNs,
                u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
            route_trace::set_gauge(
                route_trace::Gauge::PeakOvercapacityNodes,
                overcap.len() as u64,
            );
        }
        if converged {
            passes_telemetry.push(timing);
            // Disjoint routing: report trees against the pristine device
            // graph so costs measure physical wire, not negotiated prices.
            let rebuilt: Vec<Option<RoutingTree>> = trees
                .into_iter()
                .flatten()
                .map(|t| RoutingTree::from_edges(device.graph(), t.edges().to_vec()).map(Some))
                .collect::<Result<_, _>>()?;
            let mut outcome = router.finalize(circuit, rebuilt)?;
            outcome.passes = iteration;
            outcome.telemetry = crate::telemetry::RouteTelemetry {
                passes: passes_telemetry,
            };
            return Ok(outcome);
        }
        // History accumulates only on over-capacity nodes, saturating.
        for &v in &overcap {
            let overuse = usage[v.index()].saturating_sub(1);
            history[v.index()] =
                history[v.index()].saturating_add(base_pricing.history_increment(overuse));
        }
        if route_trace::enabled() {
            route_trace::count(
                route_trace::Counter::PathfinderHistoryUpdates,
                overcap.len() as u64,
            );
        }
        let next = pricing_for(iteration.saturating_add(1));
        let repriced_edges = if selective {
            // Dirty-net selection for the next iteration, from the
            // freshly updated history: a net reroutes iff its tree
            // touches an over-capacity node, or the history summed
            // along its own tree outgrew its last-routed baseline by
            // more than the slack. Everything here reads single-writer
            // state only, so the set (and its order) is identical
            // whatever thread count routed the phase.
            let mut over = vec![false; node_count];
            for &v in &overcap {
                over[v.index()] = true;
            }
            let over_coords: Vec<(usize, usize)> = overcap
                .iter()
                .filter_map(|&v| node_coords(device, v))
                .collect();
            let mut routed_mask = vec![false; net_count];
            for &ni in &order {
                routed_mask[ni] = true;
            }
            // (congestion priority, net index) — sorted most-congested
            // first below, ties by ascending net index.
            let mut dirty: Vec<(usize, usize)> = Vec::new();
            for (ni, tree) in trees.iter().enumerate() {
                let Some(tree) = tree.as_ref() else { continue };
                let mut tree_history: u64 = 0;
                let mut touches_overcap = false;
                let mut bbox: Option<(usize, usize, usize, usize)> = None;
                for v in tree.nodes() {
                    if device.segment_position(v).is_none() {
                        continue;
                    }
                    tree_history = tree_history.saturating_add(history[v.index()].as_milli());
                    touches_overcap |= over[v.index()];
                    if let Some((x, y)) = node_coords(device, v) {
                        bbox = Some(bbox.map_or((x, x, y, y), |(x0, x1, y0, y1)| {
                            (x0.min(x), x1.max(x), y0.min(y), y1.max(y))
                        }));
                    }
                }
                if routed_mask[ni] {
                    stale_base[ni] = tree_history;
                }
                let stale = tree_history > stale_base[ni].saturating_add(STALE_SLACK_MILLI);
                if touches_overcap || stale {
                    // Candidate region = the previous route's bounding
                    // box; its congestion priority is how many of the
                    // over-capacity nodes fall inside. Ordering only
                    // decides which worker routes which net — each
                    // net's route is partition-independent.
                    let priority = bbox.map_or(0, |(x0, x1, y0, y1)| {
                        over_coords
                            .iter()
                            .filter(|&&(x, y)| x >= x0 && x <= x1 && y >= y0 && y <= y1)
                            .count()
                    });
                    dirty.push((priority, ni));
                }
            }
            dirty.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            order = dirty.into_iter().map(|(_, ni)| ni).collect();
            // Incremental repricing: recompute every node's pressure
            // under the next iteration's ramped present factor and
            // sweep only the edges around nodes whose pressure moved.
            // Unused, history-free nodes — the bulk of a converging
            // circuit — keep their prices without being touched.
            let mut changed: Vec<NodeId> = Vec::new();
            for i in 0..node_count {
                let pressure = next.node_pressure(usage[i], history[i]);
                if pressure != prev_pressure[i] {
                    prev_pressure[i] = pressure;
                    changed.push(NodeId::from_index(i));
                }
            }
            priced.reprice_incident_edges(&changed, |e, a, b, _| {
                next.edge_weight(
                    base_weights[e.index()],
                    prev_pressure[a.index()],
                    prev_pressure[b.index()],
                )
            })
        } else {
            // Full-reroute mode: reprice the snapshot for the next
            // iteration in one sweep, under the next iteration's ramped
            // present factor.
            priced.reprice_edges(|e, a, b, _| {
                next.edge_weight(
                    base_weights[e.index()],
                    next.node_pressure(usage[a.index()], history[a.index()]),
                    next.node_pressure(usage[b.index()], history[b.index()]),
                )
            });
            priced.edge_count()
        };
        timing.repriced_edges = repriced_edges;
        if route_trace::enabled() {
            route_trace::count(
                route_trace::Counter::PathfinderRepricedEdges,
                repriced_edges as u64,
            );
        }
        passes_telemetry.push(timing);
        final_overcap = overcap;
        final_trees = trees;
        prev_usage = usage;
        prev_claims = claims;
    }
    // Budget exhausted: report the final contention honestly — the
    // still-over-capacity nodes and the lowest-indexed net touching the
    // first of them.
    let failed_net = final_overcap.first().map_or(0, |&contested| {
        final_trees
            .iter()
            .position(|t| t.as_ref().is_some_and(|t| t.nodes().any(|n| n == contested)))
            .unwrap_or(0)
    });
    Err(FpgaError::Unroutable {
        channel_width: width,
        passes: budget,
        failed_net,
        overcapacity: final_overcap,
    })
}

/// Grid coordinates `(x, y)` of a routing resource, for the dirty-net
/// bounding boxes: horizontal segments sit at (their segment along the
/// row, their channel), vertical segments transposed, pins at their
/// block. Nodes outside the device (never the case for tree nodes)
/// report `None`.
fn node_coords(device: &Device, v: NodeId) -> Option<(usize, usize)> {
    match device.node_kind(v).ok()? {
        NodeKind::HorizontalSegment { channel, seg, .. } => Some((seg, channel)),
        NodeKind::VerticalSegment { channel, seg, .. } => Some((channel, seg)),
        NodeKind::Pin { row, col, .. } => Some((col, row)),
    }
}

/// Whether a net's route changed between iterations: same edge *set*,
/// whatever order the construction emitted the edges in, counts as
/// unchanged.
fn trees_differ(a: Option<&RoutingTree>, b: Option<&RoutingTree>) -> bool {
    match (a, b) {
        (None, None) => false,
        (Some(a), Some(b)) => {
            let mut ea: Vec<usize> = a.edges().iter().map(|e| e.index()).collect();
            let mut eb: Vec<usize> = b.edges().iter().map(|e| e.index()).collect();
            ea.sort_unstable();
            eb.sort_unstable();
            ea != eb
        }
        _ => true,
    }
}

/// The route phase: the nets listed in `order` (all of them in
/// full-reroute mode, the dirty set in selective mode), each against
/// the same priced snapshot minus its own previous present cost (see
/// [`route_net_excluded`]). The phase runs on `min(threads, order.len())`
/// workers, so it never spawns a worker with nothing to route; with two
/// or more, each worker claims the next unrouted position of `order`
/// from one shared cursor and routes it with its own [`NetScratch`], so
/// a worker that draws cheap nets takes more of them instead of waiting
/// for the other. The partition is invisible in the results because no
/// net's route depends on any other net's — only on the shared snapshot
/// and that net's own previous tree — and results merge by net index.
///
/// Returns `(net index, Some(tree))` per routed net, `None` for a
/// disconnected one; nets outside `order` are untouched. Every net's
/// view reads its rows straight from `priced`, which no worker mutates.
#[allow(clippy::too_many_arguments)] // internal plumbing for one call site
fn route_all(
    router: &Router<'_>,
    circuit: &Circuit,
    critical: &[bool],
    threads: usize,
    scratch: &mut Vec<NetScratch>,
    priced: &Graph,
    prev: &[Option<RoutingTree>],
    ctx: ExclusionCtx<'_>,
    iteration: usize,
    order: &[usize],
) -> Result<Vec<(usize, Option<RoutingTree>)>, FpgaError> {
    let prev_of = |ni: usize| prev.get(ni).and_then(Option::as_ref);
    let workers = threads.min(order.len()).max(1);
    while scratch.len() < workers {
        let mut net_scratch = NetScratch::new(router.device());
        net_scratch.discount = vec![Weight::ZERO; priced.node_count()];
        scratch.push(net_scratch);
    }
    if workers == 1 {
        let phase_started = if route_trace::enabled() {
            // lint: allow(determinism-wall-clock): gated on route_trace::enabled(); feeds the span timeline only, never routing state
            Some(std::time::Instant::now())
        } else {
            None
        };
        let mut routed: Vec<(usize, Option<RoutingTree>)> = Vec::with_capacity(order.len());
        for &ni in order {
            let tree = route_net_excluded(
                router,
                priced,
                circuit,
                ni,
                critical,
                prev_of(ni),
                ctx,
                &mut scratch[0],
            )?;
            routed.push((ni, tree));
        }
        if let Some(started) = phase_started {
            route_trace::record_timeline(route_trace::TimelineRecord {
                pass: iteration,
                worker: 0,
                role: "pf-worker",
                busy_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                nets: order.len(),
            });
        }
        return Ok(routed);
    }
    let parent_span = route_trace::current_span();
    // The next unclaimed position of `order`. `Relaxed` suffices: the
    // cursor publishes no data, every input the workers read is shared
    // immutably before the scope spawns them, and the join publishes
    // their results.
    let cursor = AtomicUsize::new(0);
    let mut worker_results: Vec<WorkerRoutes> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for (k, net_scratch) in scratch.iter_mut().enumerate().take(workers) {
            let cursor = &cursor;
            handles.push(scope.spawn(move || {
                route_trace::worker(parent_span, || {
                    let worker_started = if route_trace::enabled() {
                        // lint: allow(determinism-wall-clock): gated on route_trace::enabled(); feeds the span timeline only, never routing state
                        Some(std::time::Instant::now())
                    } else {
                        None
                    };
                    let mut routed = Vec::new();
                    while let Some(&ni) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        let tree = route_net_excluded(
                            router,
                            priced,
                            circuit,
                            ni,
                            critical,
                            prev_of(ni),
                            ctx,
                            net_scratch,
                        );
                        routed.push((ni, tree));
                    }
                    if let Some(started) = worker_started {
                        route_trace::record_timeline(route_trace::TimelineRecord {
                            pass: iteration,
                            worker: k,
                            role: "pf-worker",
                            busy_ns: u64::try_from(started.elapsed().as_nanos())
                                .unwrap_or(u64::MAX),
                            nets: routed.len(),
                        });
                    }
                    routed
                })
            }));
        }
        for handle in handles {
            // A worker panic is a router bug; propagate it.
            // lint: allow(panic-hygiene): join() only errs if the worker already panicked; re-raising is the correct propagation
            worker_results.push(handle.join().expect("pathfinder worker panicked"));
        }
    });
    let mut routed: Vec<(usize, Option<RoutingTree>)> = Vec::with_capacity(order.len());
    let mut first_error: Option<(usize, FpgaError)> = None;
    for (ni, result) in worker_results.into_iter().flatten() {
        match result {
            Ok(tree) => routed.push((ni, tree)),
            // Report the lowest-indexed erroring net, whatever worker
            // order the scope joined in.
            Err(e) => {
                if first_error.as_ref().is_none_or(|&(i, _)| ni < i) {
                    first_error = Some((ni, e));
                }
            }
        }
    }
    if let Some((_, e)) = first_error {
        return Err(e);
    }
    Ok(routed)
}

/// Routes one net with a reversible price adjustment along its previous
/// route — the rip-up-first discipline, expressed as arithmetic instead
/// of resource removal.
///
/// Classic PathFinder rips a net up before rerouting it, so a net never
/// sees its own occupancy as congestion; without this every net flees
/// its own (possibly conflict-free) route each iteration and the
/// negotiation oscillates instead of settling. On top of that,
/// sequential PathFinder reroutes nets one at a time, which silently
/// arbitrates contested nodes: somebody reroutes *first* and keeps the
/// node, and whoever reroutes later sees it occupied. The synchronous
/// variant restores that asymmetry with the **claim rule**: the
/// lowest-indexed previous occupant of a node subtracts the node's
/// *entire* pressure (everyone's present plus history) along its route
/// — it re-routes as if the node were pristine and therefore keeps it —
/// while every other occupant subtracts only its own present cost and
/// so is pushed toward an alternative. Without the rule, the last two
/// contenders for a node bounce between the same two equally-priced
/// alternatives in lockstep forever.
///
/// Summed endpoint pricing makes the exclusion exact: each segment node
/// added its pressure to every incident edge, so subtracting it along
/// the previous route prices the net as if that occupancy were gone.
/// The subtraction is a per-node discount of the net's view (see
/// [`LaneRules`]), floored at zero, and the view adds the net's
/// tie-break [`tilt`] on top.
///
/// The tilt answers a failure mode classic sequential PathFinder never
/// meets: in a fully synchronous route phase, nets contending for a node
/// all see the same prices, so they all pick the same cheapest
/// alternative, collide there, and bounce between equally-priced tracks
/// in lockstep while history inflates everywhere. A microscopic,
/// deterministic per-net preference among equal-cost choices breaks the
/// symmetry — contenders spread across parallel tracks and stay put.
///
/// The route depends only on the snapshot, the net's own previous tree,
/// the single-writer claim table, and the net's index, never on the
/// worker partition, preserving thread-count bit-identity.
///
/// [`LaneRules`]: route_graph::LaneRules
/// [`tilt`]: route_graph::csr::tilt
#[allow(clippy::too_many_arguments)] // internal plumbing for two call sites
fn route_net_excluded(
    router: &Router<'_>,
    priced: &Graph,
    circuit: &Circuit,
    ni: usize,
    critical: &[bool],
    prev: Option<&RoutingTree>,
    ctx: ExclusionCtx<'_>,
    scratch: &mut NetScratch,
) -> Result<Option<RoutingTree>, FpgaError> {
    let device = router.device();
    // Only segment nodes carry usage pressure (the tally in
    // `route_negotiated` skips everything else).
    let excluded = || {
        prev.into_iter()
            .flat_map(RoutingTree::nodes)
            .filter(|&v| device.segment_position(v).is_some())
    };
    for v in excluded() {
        let i = v.index();
        let amount = if ctx.claims.get(i) == Some(&ni) {
            // Claimant: all occupants' present is subtracted, so the
            // node reads as unoccupied and the claimant keeps it — but
            // history stays visible even to the claimant, so a node
            // whose contention never resolves eventually prices its own
            // claimant into rerouting around it, freeing it for whoever
            // kept colliding there.
            ctx.present.scale(u64::from(ctx.usage.get(i).copied().unwrap_or(0)))
        } else {
            // Loser: only its own share — the claimant's present and the
            // history stay visible and push it elsewhere.
            ctx.present
        };
        if let Some(d) = scratch.discount.get_mut(i) {
            *d = amount;
        }
    }
    let routed = router.route_net(priced, circuit, ni, critical, scratch, Some(ni as u64));
    for v in excluded() {
        if let Some(d) = scratch.discount.get_mut(v.index()) {
            *d = Weight::ZERO;
        }
    }
    routed
}
