//! Symmetrical-array FPGA architecture parameters (paper §2 and §5).

use crate::FpgaError;

/// How the connection-block flexibility `F_c` scales with channel width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FcSpec {
    /// `F_c = ⌈num/den · W⌉` — the Xilinx 3000 series uses `⌈0.60 · W⌉`.
    Fraction {
        /// Numerator of the fraction.
        num: usize,
        /// Denominator of the fraction.
        den: usize,
    },
    /// `F_c = W` (full) — the Xilinx 4000 series.
    Full,
}

impl FcSpec {
    /// Resolves the flexibility for a concrete channel width.
    #[must_use]
    pub fn resolve(self, w: usize) -> usize {
        match self {
            FcSpec::Fraction { num, den } => (num * w).div_ceil(den).clamp(1, w),
            FcSpec::Full => w,
        }
    }
}

/// The four sides of a logic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Side {
    /// Facing the horizontal channel above the block.
    North,
    /// Facing the vertical channel to the right.
    East,
    /// Facing the horizontal channel below.
    South,
    /// Facing the vertical channel to the left.
    West,
}

impl Side {
    /// All four sides in index order.
    pub const ALL: [Side; 4] = [Side::North, Side::East, Side::South, Side::West];

    /// Dense index 0..4 of this side.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Side::North => 0,
            Side::East => 1,
            Side::South => 2,
            Side::West => 3,
        }
    }

    /// The side with the given dense index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    #[must_use]
    pub fn from_index(i: usize) -> Side {
        Side::ALL[i]
    }
}

/// Architecture of a symmetrical-array FPGA: an `rows × cols` array of
/// logic blocks surrounded by routing channels of `channel_width` tracks,
/// with switch blocks of flexibility `fs` and connection blocks of
/// flexibility `fc` (paper §2, Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchSpec {
    /// Logic-block rows.
    pub rows: usize,
    /// Logic-block columns.
    pub cols: usize,
    /// Tracks per channel (`W`).
    pub channel_width: usize,
    /// Switch-block flexibility `F_s`: connections per channel-edge inside
    /// a switch block (3 = disjoint; the 3000 series uses 6).
    pub fs: usize,
    /// Connection-block flexibility `F_c`.
    pub fc: FcSpec,
    /// Logic-block pins per side available to the netlist.
    pub pins_per_side: usize,
}

impl ArchSpec {
    /// A Xilinx 3000-series style architecture: `F_s = 6`,
    /// `F_c = ⌈0.60 · W⌉` (paper Table 2; the CGE comparison setting).
    #[must_use]
    pub fn xilinx3000(rows: usize, cols: usize, channel_width: usize) -> ArchSpec {
        ArchSpec {
            rows,
            cols,
            channel_width,
            fs: 6,
            fc: FcSpec::Fraction { num: 3, den: 5 },
            pins_per_side: 2,
        }
    }

    /// A Xilinx 4000-series style architecture: `F_s = 3` (disjoint switch
    /// blocks, per Table 3's caption; the body text says `F_s = 4` — the
    /// caption value matches the SEGA/GBP literature), `F_c = W`.
    #[must_use]
    pub fn xilinx4000(rows: usize, cols: usize, channel_width: usize) -> ArchSpec {
        ArchSpec {
            rows,
            cols,
            channel_width,
            fs: 3,
            fc: FcSpec::Full,
            pins_per_side: 2,
        }
    }

    /// Returns a copy with a different channel width — the knob the
    /// minimum-channel-width search turns.
    #[must_use]
    pub fn with_channel_width(mut self, w: usize) -> ArchSpec {
        self.channel_width = w;
        self
    }

    /// The resolved connection-block flexibility for this width.
    #[must_use]
    pub fn fc_resolved(&self) -> usize {
        self.fc.resolve(self.channel_width)
    }

    /// Validates parameter consistency.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::InvalidArchitecture`] for zero dimensions, zero
    /// width, `fs < 3`, zero pins, an `F_c` fraction with a zero
    /// denominator or one that overflows at this width, or a routing graph
    /// whose node or edge count does not fit the graph's 32-bit ids.
    pub fn validate(&self) -> Result<(), FpgaError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(FpgaError::InvalidArchitecture(
                "array dimensions must be positive".into(),
            ));
        }
        if self.channel_width == 0 {
            return Err(FpgaError::InvalidArchitecture(
                "channel width must be positive".into(),
            ));
        }
        if self.fs < 3 {
            return Err(FpgaError::InvalidArchitecture(format!(
                "switch-block flexibility {} below the minimum of 3",
                self.fs
            )));
        }
        if self.pins_per_side == 0 {
            return Err(FpgaError::InvalidArchitecture(
                "blocks need at least one pin per side".into(),
            ));
        }
        if let FcSpec::Fraction { num, den } = self.fc {
            if den == 0 || num.checked_mul(self.channel_width).is_none() {
                return Err(FpgaError::InvalidArchitecture(format!(
                    "connection-block flexibility {num}/{den} of W = {} cannot be resolved",
                    self.channel_width
                )));
            }
        }
        let fits = |n: usize| u32::try_from(n).is_ok();
        if !self
            .graph_size()
            .is_some_and(|(nodes, edges)| fits(nodes) && fits(edges))
        {
            return Err(FpgaError::InvalidArchitecture(format!(
                "a {}x{} array at W = {} needs more routing-graph nodes or edges than 32-bit ids can number",
                self.rows, self.cols, self.channel_width
            )));
        }
        Ok(())
    }

    /// The node and edge counts of this architecture's routing-resource
    /// graph (see `Device::new`), or `None` if either overflows `usize`.
    /// Assumes the checks before it in [`ArchSpec::validate`] passed.
    fn graph_size(&self) -> Option<(usize, usize)> {
        let (rows, cols, w) = (self.rows, self.cols, self.channel_width);
        let pins = rows
            .checked_mul(cols)?
            .checked_mul(4)?
            .checked_mul(self.pins_per_side)?;
        let positions = (rows.checked_add(1)?.checked_mul(cols)?)
            .checked_add(cols.checked_add(1)?.checked_mul(rows)?)?;
        let nodes = positions.checked_mul(w)?.checked_add(pins)?;
        // Side pairs over all switch blocks, per offset class: straight
        // (W-E at the interior vertical channels, N-S at the interior
        // horizontal ones), then each turn class, whose two corner pairs
        // meet at `rows · cols` switch blocks each.
        let straight = positions - rows - cols - 2;
        let turns = rows.checked_mul(cols)?.checked_mul(2)?;
        let extra = self.fs - 3;
        let mut edges = pins.checked_mul(self.fc_resolved())?;
        for (class, pairs) in [straight, turns, turns].into_iter().enumerate() {
            // The class's offsets are 0 and 1..=k; an offset that W
            // divides would join a track to itself and adds no edge.
            let k = extra / 3 + usize::from(class < extra % 3);
            let per_pair = (k - k / w + 1).checked_mul(w)?;
            edges = edges.checked_add(pairs.checked_mul(per_pair)?)?;
        }
        Some((nodes, edges))
    }

    /// Total logic blocks in the array.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Total netlist-visible pins in the array.
    #[must_use]
    pub fn pin_capacity(&self) -> usize {
        self.block_count() * 4 * self.pins_per_side
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fc_fraction_rounds_up() {
        let fc = FcSpec::Fraction { num: 3, den: 5 };
        assert_eq!(fc.resolve(10), 6);
        assert_eq!(fc.resolve(7), 5); // ceil(4.2)
        assert_eq!(fc.resolve(1), 1);
        assert_eq!(FcSpec::Full.resolve(9), 9);
    }

    #[test]
    fn presets_match_the_paper() {
        let x3 = ArchSpec::xilinx3000(12, 13, 10);
        assert_eq!(x3.fs, 6);
        assert_eq!(x3.fc_resolved(), 6); // ceil(0.6 * 10)
        let x4 = ArchSpec::xilinx4000(19, 17, 15);
        assert_eq!(x4.fs, 3);
        assert_eq!(x4.fc_resolved(), 15);
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(ArchSpec::xilinx4000(0, 5, 4).validate().is_err());
        assert!(ArchSpec::xilinx4000(5, 5, 0).validate().is_err());
        let mut a = ArchSpec::xilinx4000(5, 5, 4);
        a.fs = 2;
        assert!(a.validate().is_err());
        a.fs = 3;
        a.pins_per_side = 0;
        assert!(a.validate().is_err());
        assert!(ArchSpec::xilinx4000(5, 5, 4).validate().is_ok());
    }

    #[test]
    fn validation_rejects_unresolvable_fc_fractions() {
        let mut a = ArchSpec::xilinx3000(5, 5, 4);
        a.fc = FcSpec::Fraction { num: 3, den: 0 };
        assert!(matches!(
            a.validate(),
            Err(FpgaError::InvalidArchitecture(_))
        ));
        // The device build validates before it resolves F_c.
        assert!(matches!(
            crate::device::Device::new(a),
            Err(FpgaError::InvalidArchitecture(_))
        ));
        a.fc = FcSpec::Fraction {
            num: usize::MAX,
            den: 5,
        };
        assert!(matches!(
            a.validate(),
            Err(FpgaError::InvalidArchitecture(_))
        ));
    }

    #[test]
    fn validation_rejects_graphs_beyond_32_bit_ids() {
        let huge = ArchSpec::xilinx4000(10, 9, u32::MAX as usize);
        assert!(matches!(
            huge.validate(),
            Err(FpgaError::InvalidArchitecture(_))
        ));
        for arch in [
            ArchSpec::xilinx4000(usize::MAX, 2, 4),
            ArchSpec::xilinx4000(2, usize::MAX, 4),
            ArchSpec::xilinx4000(2, 2, usize::MAX),
            ArchSpec::xilinx3000(70_000, 70_000, 1),
        ] {
            assert!(
                matches!(arch.validate(), Err(FpgaError::InvalidArchitecture(_))),
                "{arch:?}"
            );
        }
        let mut many_pins = ArchSpec::xilinx4000(2, 2, 4);
        many_pins.pins_per_side = usize::MAX / 4;
        assert!(many_pins.validate().is_err());
        let mut wide_switches = ArchSpec::xilinx4000(2, 2, 4);
        wide_switches.fs = usize::MAX;
        assert!(wide_switches.validate().is_err());
        // A 1×1 array has 4·W + 8 nodes and 12·W edges (8 pins at
        // F_c = W, four corner pairs of W tracks); find the widest that fits.
        let edge_limit = u32::MAX as usize / 12;
        assert!(ArchSpec::xilinx4000(1, 1, edge_limit).validate().is_ok());
        assert!(ArchSpec::xilinx4000(1, 1, edge_limit + 1)
            .validate()
            .is_err());
    }

    #[test]
    fn graph_size_counts_the_built_device() {
        let mut specs = Vec::new();
        for (rows, cols) in [(1, 1), (1, 3), (2, 2), (3, 4)] {
            for w in 1..=5 {
                specs.push(ArchSpec::xilinx4000(rows, cols, w));
                specs.push(ArchSpec::xilinx3000(rows, cols, w));
                for fs in [4, 5, 9, 13] {
                    specs.push(ArchSpec {
                        fs,
                        ..ArchSpec::xilinx3000(rows, cols, w)
                    });
                }
            }
        }
        for arch in specs {
            let device = crate::device::Device::new(arch).unwrap();
            let graph = device.graph();
            assert_eq!(
                arch.graph_size(),
                Some((graph.node_count(), graph.edge_count())),
                "{arch:?}"
            );
        }
    }

    #[test]
    fn sides_round_trip() {
        for (i, s) in Side::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i);
            assert_eq!(Side::from_index(i), s);
        }
    }

    #[test]
    fn capacity_arithmetic() {
        let a = ArchSpec::xilinx4000(10, 9, 8);
        assert_eq!(a.block_count(), 90);
        assert_eq!(a.pin_capacity(), 90 * 8);
        assert_eq!(a.with_channel_width(12).channel_width, 12);
    }
}
