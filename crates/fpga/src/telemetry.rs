//! Per-pass routing telemetry surfaced on [`RouteOutcome`].
//!
//! Every routing attempt records one [`PassTelemetry`] per executed pass
//! — wall-clock, PathFinder's negotiation counters, and a
//! [`CongestionSnapshot`] of channel occupancy at the end of the pass.
//! The same snapshots are mirrored into the global `route_trace`
//! collector (when one is installed), so CLI traces and in-process
//! consumers see identical data.

use std::time::Duration;

pub use route_trace::CongestionSnapshot;

/// Instrumentation for one executed routing pass.
///
/// Rip-up fills `pass`, `elapsed`, and `congestion`; negotiated
/// congestion additionally fills the PathFinder counters.
///
/// `speculated`, `accepted`, `respeculated`, `steals` and `stalls` are
/// always 0: rip-up routes one net at a time and PathFinder never
/// speculates. They stay only so existing readers of these fields keep
/// compiling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassTelemetry {
    /// 1-based pass number within the routing attempt.
    pub pass: usize,
    /// Always 0 (see the type docs).
    pub speculated: usize,
    /// Always 0 (see the type docs).
    pub accepted: usize,
    /// Always 0 (see the type docs).
    pub respeculated: usize,
    /// Always 0 (see the type docs).
    pub steals: usize,
    /// Always 0 (see the type docs).
    pub stalls: usize,
    /// Routing-resource nodes over capacity at the end of the pass
    /// (negotiated-congestion mode only; rip-up keeps nets disjoint by
    /// construction, so it reports 0).
    pub overcapacity: usize,
    /// History-cost accumulations applied after the pass (negotiated-
    /// congestion mode only; one per over-capacity node).
    pub history_updates: usize,
    /// Nets whose route changed relative to the previous iteration
    /// (negotiated-congestion mode only; iteration 1 counts every net).
    pub nets_rerouted: usize,
    /// Nets this iteration actually routed: the dirty set in selective
    /// negotiated-congestion mode, every net otherwise (negotiated-
    /// congestion mode only; rip-up reports 0).
    pub dirty_nets: usize,
    /// Edges rewritten by this iteration's cost update — the full edge
    /// count under the full sweep, only the delta under selective mode's
    /// incremental sweep (negotiated-congestion mode only; 0 on the
    /// converged iteration, which skips the update).
    pub repriced_edges: usize,
    /// Wall-clock time of the whole pass.
    pub elapsed: Duration,
    /// Channel occupancy at the end of the pass (or at the failing net,
    /// for passes that end early).
    pub congestion: CongestionSnapshot,
}

/// Telemetry for a whole routing attempt: one entry per executed pass
/// (failed passes included), in pass order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteTelemetry {
    /// Per-pass records, `passes[i].pass == i + 1`.
    pub passes: Vec<PassTelemetry>,
}

impl RouteTelemetry {
    /// Total wall-clock across all passes.
    #[must_use]
    pub fn total_elapsed(&self) -> Duration {
        self.passes.iter().map(|p| p.elapsed).sum()
    }

    /// The final pass's congestion snapshot, if any pass ran.
    #[must_use]
    pub fn final_congestion(&self) -> Option<&CongestionSnapshot> {
        self.passes.last().map(|p| &p.congestion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_final_snapshot() {
        let mk = |pass: usize, ms: u64| PassTelemetry {
            pass,
            elapsed: Duration::from_millis(ms),
            congestion: CongestionSnapshot::from_usage(pass, 4, &[1, 2]),
            ..PassTelemetry::default()
        };
        let route = RouteTelemetry {
            passes: vec![mk(1, 5), mk(2, 7)],
        };
        assert_eq!(route.total_elapsed(), Duration::from_millis(12));
        assert_eq!(route.final_congestion().unwrap().pass, 2);
        assert_eq!(RouteTelemetry::default().final_congestion(), None);
    }
}
