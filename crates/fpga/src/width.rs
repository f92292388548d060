//! Minimum channel-width search (the paper's primary router metric).
//!
//! "A common criterion used to evaluate the quality of FPGA routers is the
//! maximum channel width required to successfully route all nets of a
//! design" (paper §5). The router takes `W` as an upper-bound input; for
//! each circuit we find the smallest `W` at which a complete routing
//! exists within the pass budget.
//!
//! A width that fails spends the whole pass budget, several times what a
//! routed width costs, so the default search orders its probes to fail as
//! few widths as it can: it reads from one routed probe how many tracks
//! the circuit actually needed and starts from there
//! ([`WidthSearch::Binary`]).

use std::ops::RangeInclusive;

use steiner_route::RoutingTree;

use crate::arch::ArchSpec;
use crate::device::Device;
use crate::router::RouteOutcome;
use crate::FpgaError;

/// Search strategy over channel widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WidthSearch {
    /// Ascending linear scan: sound without any monotonicity assumption,
    /// one full routing attempt per width.
    Linear,
    /// Peak-guided search between the bounds, assuming routability is
    /// monotone in `W` (true in practice for these congestion-driven
    /// routers); the returned width is always verified routable.
    ///
    /// It probes the midpoint of the range first. If the midpoint routes,
    /// the search reads its *peak occupancy* `E`: the most tracks the
    /// routed trees use at any one channel position. It then walks one
    /// width at a time from `E` (clamped below the midpoint): down while
    /// probes route, up while they fail, until a failing width sits
    /// directly below a routed one or the walk reaches the bottom of the
    /// range. `E` usually lands within a track or two of the minimum `W*`,
    /// so the search fails one probe, the one at `W* − 1` that proves
    /// minimality.
    ///
    /// If the midpoint fails, the search probes the top of the range and
    /// bisects between the two. The monotonicity assumption is *checked*,
    /// not trusted: if the top of the range fails too — negotiated
    /// congestion can fail near its iteration budget at a width above a
    /// routable one — the search scans the rest of the range ascending
    /// instead of declaring the range unroutable.
    ///
    /// No width is probed twice, and every probe counts in
    /// [`WidthOutcome::attempts`].
    #[default]
    Binary,
}

/// Result of a minimum-width search.
#[derive(Debug, Clone)]
pub struct WidthOutcome {
    /// Smallest channel width found routable.
    pub channel_width: usize,
    /// The successful routing at that width.
    pub outcome: RouteOutcome,
    /// Routing attempts performed across all probed widths.
    pub attempts: usize,
}

/// Finds the minimum channel width in `range` at which `route` succeeds.
///
/// `route` receives a freshly built device per probe (the architecture is
/// `base` with the probe's channel width) and should run a full multi-pass
/// routing, returning [`FpgaError::Unroutable`] on failure.
///
/// # Errors
///
/// * [`FpgaError::Unroutable`] if even the widest width in `range` fails;
/// * [`FpgaError::InvalidArchitecture`] for an empty range;
/// * any non-unroutability error from `route`, immediately.
pub fn minimum_channel_width(
    base: ArchSpec,
    range: RangeInclusive<usize>,
    strategy: WidthSearch,
    mut route: impl FnMut(&Device) -> Result<RouteOutcome, FpgaError>,
) -> Result<WidthOutcome, FpgaError> {
    let (lo, hi) = (*range.start(), *range.end());
    if lo == 0 || lo > hi {
        return Err(FpgaError::InvalidArchitecture(format!(
            "invalid width range {lo}..={hi}"
        )));
    }
    let _search_span =
        route_trace::span(route_trace::SpanKind::WidthSearch, "width_search", 0);
    let (channel_width, outcome, attempts) = search_widths(lo, hi, strategy, |w| {
        let _attempt_span =
            route_trace::span(route_trace::SpanKind::Attempt, "attempt", w as u64);
        let device = Device::new(base.with_channel_width(w))?;
        match route(&device) {
            Ok(outcome) => Ok(Probe::Routed {
                peak: peak_occupancy(&device, &outcome.trees),
                outcome,
            }),
            Err(e @ FpgaError::Unroutable { .. }) => Ok(Probe::Failed(e)),
            Err(e) => Err(e),
        }
    })?;
    if route_trace::enabled() {
        route_trace::set_gauge(route_trace::Gauge::MinChannelWidth, channel_width as u64);
    }
    Ok(WidthOutcome {
        channel_width,
        outcome,
        attempts,
    })
}

/// The most tracks `trees` use at any one channel position of `device`.
///
/// Rip-up and PathFinder report the same number as their final pass's
/// `CongestionSnapshot::max_occupancy`; counting it from the trees gives
/// it for routers that keep no telemetry too.
fn peak_occupancy(device: &Device, trees: &[RoutingTree]) -> usize {
    let mut usage = vec![0usize; device.position_count()];
    for v in trees.iter().flat_map(RoutingTree::nodes) {
        if let Some(pos) = device.segment_position(v) {
            usage[pos] += 1;
        }
    }
    usage.into_iter().max().unwrap_or(0)
}

/// What one probe found at a width.
enum Probe<T, F> {
    /// The width routed; `peak` is the routing's peak occupancy.
    Routed { outcome: T, peak: usize },
    /// The width did not route.
    Failed(F),
}

/// The order in which `strategy` probes `lo..=hi` (`1 <= lo <= hi`),
/// apart from what a probe does.
///
/// Returns the width found, its outcome and the number of probes made.
/// `Err` is either an error `probe` returned, which ends the search at
/// once, or the failure at `hi` when no width routed.
fn search_widths<T, F>(
    lo: usize,
    hi: usize,
    strategy: WidthSearch,
    mut probe: impl FnMut(usize) -> Result<Probe<T, F>, F>,
) -> Result<(usize, T, usize), F> {
    let mut attempts = 0usize;
    let mut counted = |w: usize| {
        attempts += 1;
        probe(w)
    };
    let (w, outcome) = match strategy {
        WidthSearch::Linear => match first_routed(lo..hi, &mut counted)? {
            Some(found) => found,
            None => match counted(hi)? {
                Probe::Routed { outcome, .. } => (hi, outcome),
                Probe::Failed(failure) => return Err(failure),
            },
        },
        WidthSearch::Binary => peak_guided(lo, hi, &mut counted)?,
    };
    Ok((w, outcome, attempts))
}

/// Probes `widths` in order and returns the first that routes.
fn first_routed<T, F>(
    widths: impl Iterator<Item = usize>,
    probe: &mut impl FnMut(usize) -> Result<Probe<T, F>, F>,
) -> Result<Option<(usize, T)>, F> {
    for w in widths {
        if let Probe::Routed { outcome, .. } = probe(w)? {
            return Ok(Some((w, outcome)));
        }
    }
    Ok(None)
}

/// [`WidthSearch::Binary`]'s probe order (see its docs).
fn peak_guided<T, F>(
    lo: usize,
    hi: usize,
    probe: &mut impl FnMut(usize) -> Result<Probe<T, F>, F>,
) -> Result<(usize, T), F> {
    let mid = lo + (hi - lo) / 2;
    let mid_failure = match probe(mid)? {
        Probe::Routed { outcome, peak } => return walk(lo, mid, outcome, peak, probe),
        Probe::Failed(failure) => failure,
    };
    if lo == hi {
        // The midpoint is the top of the range: its failure is the widest.
        return Err(mid_failure);
    }
    let mut best = match probe(hi)? {
        Probe::Routed { outcome, .. } => (hi, outcome),
        Probe::Failed(widest_failure) => {
            // Non-monotone escape hatch: concluding "unroutable" from
            // this one failure is only sound if routability is monotone
            // in W. Scan the rest of the range ascending; a success here
            // is both the true minimum and the detected non-monotone
            // outcome (a failure above a known-routable width).
            return first_routed((lo..hi).filter(|&w| w != mid), probe)?.ok_or(widest_failure);
        }
    };
    // Bisect between the failed midpoint and the routed top.
    let mut known_bad = mid;
    while best.0 > known_bad + 1 {
        let w = known_bad + (best.0 - known_bad) / 2;
        match probe(w)? {
            Probe::Routed { outcome, .. } => best = (w, outcome),
            Probe::Failed(_) => known_bad = w,
        }
    }
    Ok(best)
}

/// Walks one width at a time from the routed midpoint's peak occupancy
/// `peak`, clamped to `lo..mid`: down while probes route, up while they
/// fail (`mid` itself is known to route and is not probed again).
fn walk<T, F>(
    lo: usize,
    mid: usize,
    mid_outcome: T,
    peak: usize,
    probe: &mut impl FnMut(usize) -> Result<Probe<T, F>, F>,
) -> Result<(usize, T), F> {
    if mid == lo {
        return Ok((mid, mid_outcome));
    }
    let start = peak.clamp(lo, mid - 1);
    let mut best = match probe(start)? {
        Probe::Routed { outcome, .. } => (start, outcome),
        Probe::Failed(_) => {
            return Ok(first_routed(start + 1..mid, probe)?.unwrap_or((mid, mid_outcome)));
        }
    };
    while best.0 > lo {
        match probe(best.0 - 1)? {
            Probe::Routed { outcome, .. } => best = (best.0 - 1, outcome),
            Probe::Failed(_) => break,
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Side;
    use crate::netlist::{BlockPin, Circuit, CircuitNet};
    use crate::router::{RouteMode, Router, RouterConfig};
    use route_graph::rng::{Rng, SplitMix64};

    fn pin(row: usize, col: usize, side: Side, slot: usize) -> BlockPin {
        BlockPin {
            row,
            col,
            side,
            slot,
        }
    }

    fn crossing_circuit() -> Circuit {
        Circuit::new(
            "cross",
            2,
            2,
            vec![
                CircuitNet {
                    pins: vec![pin(0, 0, Side::East, 0), pin(1, 1, Side::West, 0)],
                },
                CircuitNet {
                    pins: vec![pin(0, 1, Side::West, 0), pin(1, 0, Side::East, 0)],
                },
                CircuitNet {
                    pins: vec![pin(0, 0, Side::South, 1), pin(1, 1, Side::North, 1)],
                },
            ],
        )
        .unwrap()
    }

    fn route_with(config: RouterConfig) -> impl FnMut(&Device) -> Result<RouteOutcome, FpgaError>
    {
        let circuit = crossing_circuit();
        move |device| Router::new(device, config.clone()).route(&circuit)
    }

    #[test]
    fn linear_and_binary_agree() {
        let config = RouterConfig {
            max_passes: 4,
            ..RouterConfig::default()
        };
        let base = ArchSpec::xilinx4000(2, 2, 1);
        let linear = minimum_channel_width(
            base,
            1..=8,
            WidthSearch::Linear,
            route_with(config.clone()),
        )
        .unwrap();
        let binary =
            minimum_channel_width(base, 1..=8, WidthSearch::Binary, route_with(config))
                .unwrap();
        assert_eq!(linear.channel_width, binary.channel_width);
        assert!(binary.attempts <= linear.attempts + 2);
    }

    #[test]
    fn found_width_is_minimal() {
        let config = RouterConfig {
            max_passes: 4,
            ..RouterConfig::default()
        };
        let base = ArchSpec::xilinx4000(2, 2, 1);
        let found = minimum_channel_width(
            base,
            1..=8,
            WidthSearch::Linear,
            route_with(config.clone()),
        )
        .unwrap();
        assert!(found.channel_width >= 1);
        if found.channel_width > 1 {
            // One narrower must fail.
            let circuit = crossing_circuit();
            let device =
                Device::new(base.with_channel_width(found.channel_width - 1)).unwrap();
            assert!(Router::new(&device, config).route(&circuit).is_err());
        }
    }

    #[test]
    fn binary_falls_back_to_linear_on_non_monotone_probes() {
        // Routable only at exactly W = 2: the midpoint 4 and every wider
        // probe fail, the shape negotiated congestion can produce near its
        // iteration budget. Concluding from the failed probes at 4 and 7
        // would report the range unroutable; the fallback must find 2 and
        // count every probe it spent doing so.
        let config = RouterConfig {
            max_passes: 4,
            ..RouterConfig::default()
        };
        let base = ArchSpec::xilinx4000(2, 2, 1);
        let circuit = crossing_circuit();
        let found = minimum_channel_width(base, 1..=7, WidthSearch::Binary, |device| {
            if device.arch().channel_width == 2 {
                Router::new(device, config.clone()).route(&circuit)
            } else {
                Err(FpgaError::Unroutable {
                    channel_width: device.arch().channel_width,
                    passes: 0,
                    failed_net: 0,
                    overcapacity: Vec::new(),
                })
            }
        })
        .unwrap();
        assert_eq!(found.channel_width, 2);
        // Failed probes at 4 and 7, then the ascending scan 1, 2.
        assert_eq!(found.attempts, 4);
    }

    #[test]
    fn unroutable_range_errors() {
        let config = RouterConfig {
            max_passes: 2,
            ..RouterConfig::default()
        };
        let base = ArchSpec::xilinx4000(2, 2, 1);
        // Width 1 cannot route the three crossing nets.
        let result =
            minimum_channel_width(base, 1..=1, WidthSearch::Binary, route_with(config));
        assert!(matches!(result, Err(FpgaError::Unroutable { .. })));
    }

    #[test]
    fn empty_range_rejected() {
        let base = ArchSpec::xilinx4000(2, 2, 1);
        #[allow(clippy::reversed_empty_ranges)] // the empty range IS the case under test
        let empty = minimum_channel_width(base, 3..=2, WidthSearch::Binary, |_| unreachable!());
        assert!(matches!(empty, Err(FpgaError::InvalidArchitecture(_))));
        assert!(matches!(
            minimum_channel_width(base, 0..=2, WidthSearch::Binary, |_| unreachable!()),
            Err(FpgaError::InvalidArchitecture(_))
        ));
    }

    #[test]
    fn peak_occupancy_matches_the_final_congestion_snapshot() {
        let base = ArchSpec::xilinx4000(2, 2, 3);
        let device = Device::new(base).unwrap();
        let circuit = crossing_circuit();
        for mode in [RouteMode::RipUp, RouteMode::Pathfinder] {
            let config = RouterConfig {
                mode,
                ..RouterConfig::default()
            };
            let outcome = Router::new(&device, config).route(&circuit).unwrap();
            let snapshot = outcome.telemetry.final_congestion().unwrap();
            assert_eq!(
                peak_occupancy(&device, &outcome.trees),
                snapshot.max_occupancy as usize,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn hard_errors_end_the_search_at_once() {
        let mut probes = 0;
        let result = search_widths(1, 9, WidthSearch::Binary, |_| {
            probes += 1;
            Err::<Probe<(), _>, _>("hard")
        });
        assert_eq!(result.unwrap_err(), "hard");
        assert_eq!(probes, 1);
    }

    /// A width's peak occupancy in `1..=w`, fixed by `seed`.
    fn peak_at(seed: u64, w: usize) -> usize {
        let draw = SplitMix64::seed_from_u64(seed ^ w as u64).next_u64();
        1 + usize::try_from(draw % w as u64).unwrap()
    }

    /// Runs `strategy` over `lo..=hi` against `oracle` (`Some(peak)`: the
    /// width routed), checking that no width is probed twice or outside
    /// the range, that the outcome is the found width's, and that
    /// `attempts` counts every probe. Returns the found width (`Err`: the
    /// width whose failure the search reported) and the widths probed.
    fn run_oracle(
        lo: usize,
        hi: usize,
        strategy: WidthSearch,
        mut oracle: impl FnMut(usize) -> Option<usize>,
    ) -> (Result<usize, usize>, Vec<usize>) {
        let mut probed = Vec::new();
        let result = search_widths(lo, hi, strategy, |w| {
            assert!((lo..=hi).contains(&w), "probe {w} outside {lo}..={hi}");
            assert!(!probed.contains(&w), "{w} probed twice");
            probed.push(w);
            Ok(match oracle(w) {
                Some(peak) => Probe::Routed { outcome: w, peak },
                None => Probe::Failed(w),
            })
        });
        let result = result.map(|(w, outcome, attempts)| {
            assert_eq!(outcome, w, "outcome of another width");
            assert_eq!(attempts, probed.len());
            w
        });
        (result, probed)
    }

    #[test]
    fn peak_guided_order_matches_the_linear_scan_on_monotone_oracles() {
        let mut rng = SplitMix64::seed_from_u64(0x5eed_0019);
        for _ in 0..3000 {
            let lo = rng.gen_range(1..=6usize);
            let hi = rng.gen_range(lo..=lo + 30);
            // `hi + 1`: nothing in the range routes.
            let min = rng.gen_range(lo..=hi + 1);
            let seed = rng.next_u64();
            let oracle = |w: usize| (w >= min).then(|| peak_at(seed, w));
            let (linear, _) = run_oracle(lo, hi, WidthSearch::Linear, oracle);
            let (binary, probed) = run_oracle(lo, hi, WidthSearch::Binary, oracle);
            let case = format!("{lo}..={hi}, minimum {min}, probes {probed:?}");
            assert_eq!(binary, linear, "{case}");
            assert_eq!(linear, if min <= hi { Ok(min) } else { Err(hi) });
            // A midpoint peak at or above the minimum costs one failed
            // probe: the one just below the minimum.
            let mid = lo + (hi - lo) / 2;
            if min <= mid && peak_at(seed, mid) >= min {
                let failed: Vec<usize> = probed.into_iter().filter(|&w| w < min).collect();
                let expected = if min > lo { vec![min - 1] } else { Vec::new() };
                assert_eq!(failed, expected, "{case}");
            }
        }
    }

    #[test]
    fn peak_guided_order_finds_a_routed_width_over_a_failed_one_on_any_oracle() {
        let mut rng = SplitMix64::seed_from_u64(0x0dd_5e75);
        for _ in 0..3000 {
            let lo = rng.gen_range(1..=6usize);
            let hi = rng.gen_range(lo..=lo + 30);
            // Routable with probability 0, 1/4, ..., 1 per width.
            let quarters = rng.gen_range(0..=4u64);
            let routable: Vec<bool> = (0..=hi)
                .map(|_| rng.gen_range(0..4u64) < quarters)
                .collect();
            let seed = rng.next_u64();
            let oracle = |w: usize| routable[w].then(|| peak_at(seed, w));
            let (result, probed) = run_oracle(lo, hi, WidthSearch::Binary, oracle);
            let case = format!("{lo}..={hi}, routable {routable:?}, probes {probed:?}");
            match result {
                Ok(w) => {
                    assert!(routable[w], "{case}");
                    assert!(
                        w == lo || (probed.contains(&(w - 1)) && !routable[w - 1]),
                        "{case}"
                    );
                }
                Err(failed) => {
                    assert_eq!(failed, hi, "{case}");
                    assert!((lo..=hi).all(|w| !routable[w]), "{case}");
                }
            }
        }
    }
}
