//! Minimum channel-width search (the paper's primary router metric).
//!
//! "A common criterion used to evaluate the quality of FPGA routers is the
//! maximum channel width required to successfully route all nets of a
//! design" (paper §5). The router takes `W` as an upper-bound input; for
//! each circuit we find the smallest `W` at which a complete routing
//! exists within the pass budget.

use std::ops::RangeInclusive;

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
    /// Binary search between the bounds, assuming routability is monotone
    /// in `W` (true in practice for these congestion-driven routers); the
    /// returned width is always verified routable.
    ///
    /// The monotonicity assumption is *checked*, not trusted: if the
    /// widest width fails while the range might still contain a routable
    /// width — negotiated congestion can fail near its iteration budget
    /// at a width above a routable one — the search falls back to an
    /// ascending linear scan of the remaining range instead of declaring
    /// the range unroutable. Fallback probes are counted in
    /// [`WidthOutcome::attempts`] like any other.
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

/// Builds the successful [`WidthOutcome`], publishing the found width as
/// the `min_channel_width` gauge on its way out — one call site per
/// success path, so every search strategy reports identically.
fn found(channel_width: usize, outcome: RouteOutcome, attempts: usize) -> WidthOutcome {
    if route_trace::enabled() {
        route_trace::set_gauge(
            route_trace::Gauge::MinChannelWidth,
            channel_width as u64,
        );
    }
    WidthOutcome {
        channel_width,
        outcome,
        attempts,
    }
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
    let mut attempts = 0usize;
    let mut probe = |w: usize,
                     attempts: &mut usize|
     -> Result<Result<RouteOutcome, FpgaError>, FpgaError> {
        *attempts += 1;
        let _attempt_span =
            route_trace::span(route_trace::SpanKind::Attempt, "attempt", w as u64);
        let device = Device::new(base.with_channel_width(w))?;
        match route(&device) {
            Ok(outcome) => Ok(Ok(outcome)),
            Err(e @ FpgaError::Unroutable { .. }) => Ok(Err(e)),
            Err(e) => Err(e),
        }
    };
    match strategy {
        WidthSearch::Linear => {
            let mut last_err = None;
            for w in lo..=hi {
                match probe(w, &mut attempts)? {
                    Ok(outcome) => return Ok(found(w, outcome, attempts)),
                    Err(e) => last_err = Some(e),
                }
            }
            Err(last_err.expect("nonempty range probed at least once"))
        }
        WidthSearch::Binary => {
            // Establish a routable upper bound first.
            let mut best = match probe(hi, &mut attempts)? {
                Ok(outcome) => (hi, outcome),
                Err(widest_err) => {
                    // Non-monotone escape hatch: bisection concluding
                    // "unroutable" from this one failure is only sound if
                    // routability is monotone in W. Scan the rest of the
                    // range ascending; a success here is both the true
                    // minimum and the detected non-monotone outcome (a
                    // failure above a known-routable width).
                    for w in lo..hi {
                        if let Ok(outcome) = probe(w, &mut attempts)? {
                            return Ok(found(w, outcome, attempts));
                        }
                    }
                    return Err(widest_err);
                }
            };
            let mut known_bad = lo.saturating_sub(1);
            while best.0 > known_bad + 1 {
                let mid = (best.0 + known_bad) / 2;
                match probe(mid, &mut attempts)? {
                    Ok(outcome) => best = (mid, outcome),
                    Err(_) => known_bad = mid,
                }
            }
            Ok(found(best.0, best.1, attempts))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Side;
    use crate::netlist::{BlockPin, Circuit, CircuitNet};
    use crate::router::{Router, RouterConfig};

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
        // Routable only at exactly W = 4: every wider probe fails, the
        // shape negotiated congestion can produce near its iteration
        // budget. Pure bisection would report the range unroutable from
        // the failed probe at W = 7; the fallback must find 4 and count
        // every probe it spent doing so.
        let config = RouterConfig {
            max_passes: 4,
            ..RouterConfig::default()
        };
        let base = ArchSpec::xilinx4000(2, 2, 1);
        let circuit = crossing_circuit();
        let found = minimum_channel_width(base, 1..=7, WidthSearch::Binary, |device| {
            if device.arch().channel_width == 4 {
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
        assert_eq!(found.channel_width, 4);
        // One failed probe at 7, then the ascending scan 1, 2, 3, 4.
        assert_eq!(found.attempts, 5);
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
}
