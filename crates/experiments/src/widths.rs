//! Shared runner for the channel-width experiments (Tables 2, 3, 4).

use fpga_device::synth::{synthesize, CircuitProfile};
use fpga_device::width::{minimum_channel_width, WidthOutcome, WidthSearch};
use fpga_device::{ArchSpec, Circuit, FpgaError, RouteAlgorithm, RouteMode, Router, RouterConfig};

/// A router under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contender {
    /// The paper's router with a given per-net construction.
    Steiner(RouteAlgorithm),
    /// The two-pin stand-in for CGE/SEGA/GBP ("2PIN"): DJKA under rip-up.
    /// Each sink's path is its shortest path from the source, exactly as
    /// a per-sink maze router routes it, so nothing is shared beyond the
    /// paths' common prefixes.
    Baseline,
}

impl Contender {
    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Contender::Steiner(a) => a.label(),
            Contender::Baseline => "2PIN",
        }
    }
}

/// Parameters shared by the width experiments.
#[derive(Debug, Clone, Copy)]
pub struct WidthExperimentConfig {
    /// Synthesis seed.
    pub seed: u64,
    /// Router pass budget per width probe.
    pub max_passes: usize,
    /// Width search range.
    pub width_range: (usize, usize),
    /// Netlist pins per block side.
    pub pins_per_side: usize,
    /// Congestion strategy for the Steiner contenders (the 2PIN
    /// contender always rips up, as the routers it stands in for do).
    pub mode: RouteMode,
}

impl Default for WidthExperimentConfig {
    fn default() -> WidthExperimentConfig {
        WidthExperimentConfig {
            seed: 1995,
            max_passes: 10,
            width_range: (3, 24),
            pins_per_side: 2,
            mode: RouteMode::RipUp,
        }
    }
}

/// Parses an optional `--mode {ripup,pathfinder}` pair from a binary's
/// argument list, defaulting to rip-up. Unknown values abort with a
/// message naming the accepted modes — the experiment binaries share
/// this so Tables 2 and 5 accept the same flag as `fpga-route`.
///
/// # Errors
///
/// Returns a description when `--mode` is missing its value or names an
/// unknown mode.
pub fn mode_from_args<S: AsRef<str>>(args: &[S]) -> Result<RouteMode, String> {
    let mut it = args.iter().map(AsRef::as_ref);
    while let Some(arg) = it.next() {
        if arg != "--mode" {
            continue;
        }
        return match it.next() {
            Some("ripup") => Ok(RouteMode::RipUp),
            Some("pathfinder") => Ok(RouteMode::Pathfinder),
            Some(other) => Err(format!("unknown mode `{other}` (use ripup or pathfinder)")),
            None => Err("--mode needs a value (ripup or pathfinder)".to_string()),
        };
    }
    Ok(RouteMode::RipUp)
}

/// Minimum widths found for one circuit, one entry per contender.
#[derive(Debug, Clone)]
pub struct CircuitWidths {
    /// The circuit's published profile.
    pub profile: CircuitProfile,
    /// `(contender label, minimum channel width)` in contender order.
    pub widths: Vec<(&'static str, usize)>,
}

/// Synthesizes the profile's circuit deterministically.
///
/// # Errors
///
/// Propagates synthesis errors.
pub fn circuit_for(
    profile: &CircuitProfile,
    config: &WidthExperimentConfig,
) -> Result<Circuit, FpgaError> {
    synthesize(profile, config.pins_per_side, config.seed)
}

/// Finds the minimum channel width for one contender on one circuit.
///
/// # Errors
///
/// Propagates routing errors; [`FpgaError::Unroutable`] means even the top
/// of the width range failed.
pub fn find_width(
    profile: &CircuitProfile,
    circuit: &Circuit,
    arch: impl Fn(usize, usize, usize) -> ArchSpec,
    contender: Contender,
    config: &WidthExperimentConfig,
) -> Result<WidthOutcome, FpgaError> {
    let mut base = arch(profile.rows, profile.cols, config.width_range.0);
    base.pins_per_side = config.pins_per_side;
    let (algorithm, mode) = match contender {
        Contender::Steiner(algorithm) => (algorithm, config.mode),
        Contender::Baseline => (RouteAlgorithm::Djka, RouteMode::RipUp),
    };
    let router_config = RouterConfig {
        algorithm,
        mode,
        max_passes: config.max_passes,
        ..RouterConfig::default()
    };
    minimum_channel_width(
        base,
        config.width_range.0..=config.width_range.1,
        WidthSearch::Binary,
        |device| Router::new(device, router_config.clone()).route(circuit),
    )
}

/// Runs the width comparison across profiles and contenders.
///
/// # Errors
///
/// Propagates routing errors.
pub fn run_width_table(
    profiles: &[CircuitProfile],
    arch: impl Fn(usize, usize, usize) -> ArchSpec + Copy,
    contenders: &[Contender],
    config: &WidthExperimentConfig,
) -> Result<Vec<CircuitWidths>, FpgaError> {
    let mut out = Vec::with_capacity(profiles.len());
    for profile in profiles {
        let circuit = circuit_for(profile, config)?;
        let mut widths = Vec::with_capacity(contenders.len());
        for &c in contenders {
            let found = find_width(profile, &circuit, arch, c, config)?;
            widths.push((c.label(), found.channel_width));
        }
        out.push(CircuitWidths {
            profile: *profile,
            widths,
        });
    }
    Ok(out)
}

/// Column totals across circuits for each contender, plus ratios to the
/// last contender (the paper normalizes to "Our Router").
#[must_use]
pub fn totals_and_ratios(rows: &[CircuitWidths]) -> (Vec<usize>, Vec<f64>) {
    let contenders = rows.first().map_or(0, |r| r.widths.len());
    let mut totals = vec![0usize; contenders];
    for row in rows {
        for (i, &(_, w)) in row.widths.iter().enumerate() {
            totals[i] += w;
        }
    }
    let reference = *totals.last().unwrap_or(&1) as f64;
    let ratios = totals.iter().map(|&t| t as f64 / reference).collect();
    (totals, ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny synthetic profile so tests stay fast.
    fn tiny_profile() -> CircuitProfile {
        CircuitProfile {
            name: "tiny",
            rows: 4,
            cols: 4,
            nets_2_3: 6,
            nets_4_10: 2,
            nets_over_10: 0,
        }
    }

    #[test]
    fn steiner_router_beats_or_ties_baseline_width() {
        let ripup = WidthExperimentConfig {
            seed: 3,
            max_passes: 5,
            width_range: (2, 16),
            pins_per_side: 2,
            ..WidthExperimentConfig::default()
        };
        let negotiated = WidthExperimentConfig {
            mode: RouteMode::Pathfinder,
            ..ripup
        };
        let profiles = [tiny_profile()];
        let contenders = [
            Contender::Baseline,
            Contender::Steiner(RouteAlgorithm::Ikmb),
        ];
        for config in [ripup, negotiated] {
            let rows =
                run_width_table(&profiles, ArchSpec::xilinx4000, &contenders, &config).unwrap();
            let base_w = rows[0].widths[0].1;
            let our_w = rows[0].widths[1].1;
            assert!(
                our_w <= base_w,
                "{}: IKMB needed W={our_w}, 2PIN W={base_w}",
                config.mode.name()
            );
            let (totals, ratios) = totals_and_ratios(&rows);
            assert_eq!(totals.len(), 2);
            assert!(ratios[0] >= 1.0);
            assert!((ratios[1] - 1.0).abs() < 1e-12);
        }
        // The 2PIN contender rips up whatever mode the others use: the
        // same search, probe for probe. (Negotiated DJKA reaches the same
        // width here, but in more attempts and with other trees.)
        let circuit = circuit_for(&profiles[0], &ripup).unwrap();
        let [a, b] = [ripup, negotiated].map(|config| {
            find_width(
                &profiles[0],
                &circuit,
                ArchSpec::xilinx4000,
                Contender::Baseline,
                &config,
            )
            .unwrap()
        });
        assert_eq!((a.channel_width, a.attempts), (b.channel_width, b.attempts));
        assert_eq!(a.outcome.trees, b.outcome.trees);
    }

    #[test]
    fn mode_flag_parses_with_ripup_default() {
        assert_eq!(mode_from_args::<&str>(&[]).unwrap(), RouteMode::RipUp);
        assert_eq!(mode_from_args(&["--mode", "ripup"]).unwrap(), RouteMode::RipUp);
        assert_eq!(
            mode_from_args(&["--seed", "7", "--mode", "pathfinder"]).unwrap(),
            RouteMode::Pathfinder
        );
        assert!(mode_from_args(&["--mode", "bogus"]).is_err());
        assert!(mode_from_args(&["--mode"]).is_err());
    }

    #[test]
    fn labels() {
        assert_eq!(Contender::Baseline.label(), "2PIN");
        assert_eq!(Contender::Steiner(RouteAlgorithm::Pfa).label(), "PFA");
    }
}
