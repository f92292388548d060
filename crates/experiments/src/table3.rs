//! **Table 3** — minimum channel width on Xilinx 4000-series parts
//! (`F_s = 3`, `F_c = W`): SEGA and GBP versus our router (IKMB).
//!
//! SEGA and GBP are closed-source; the 2PIN contender (DJKA under rip-up)
//! stands in for both. Published widths printed alongside: SEGA and GBP
//! needed on average 26% and 17% more channel width than the paper's
//! router.

use fpga_device::synth::xc4000_profiles;
use fpga_device::{ArchSpec, FpgaError, RouteAlgorithm};

use crate::table::TextTable;
use crate::widths::{
    run_width_table, totals_and_ratios, CircuitWidths, Contender, WidthExperimentConfig,
};

/// Published Table 3 widths `(circuit, SEGA, GBP, our router)`, in profile
/// order.
pub const PUBLISHED: [(&str, usize, usize, usize); 9] = [
    ("alu4", 15, 14, 11),
    ("apex7", 13, 11, 10),
    ("term1", 10, 10, 8),
    ("example2", 17, 13, 11),
    ("too_large", 12, 12, 10),
    ("k2", 17, 17, 15),
    ("vda", 13, 13, 12),
    ("9symml", 10, 9, 8),
    ("alu2", 11, 11, 9),
];

/// Runs the Table 3 experiment.
///
/// # Errors
///
/// Propagates routing errors.
pub fn run(config: &WidthExperimentConfig) -> Result<Vec<CircuitWidths>, FpgaError> {
    run_width_table(
        &xc4000_profiles(),
        ArchSpec::xilinx4000,
        &[
            Contender::Baseline,
            Contender::Steiner(RouteAlgorithm::Ikmb),
        ],
        config,
    )
}

/// Renders the result next to the published numbers.
#[must_use]
pub fn render(rows: &[CircuitWidths]) -> String {
    let mut t = TextTable::new(
        "Table 3: Minimum channel width, Xilinx 4000-series (Fs=3, Fc=W)",
        &[
            "Circuit",
            "FPGA",
            "#nets",
            "2PIN (SEGA/GBP stand-in)",
            "IKMB (ours)",
            "paper SEGA",
            "paper GBP",
            "paper ours",
        ],
    );
    for (row, published) in rows.iter().zip(PUBLISHED.iter()) {
        t.push_row(vec![
            row.profile.name.to_string(),
            format!("{}x{}", row.profile.rows, row.profile.cols),
            row.profile.net_count().to_string(),
            row.widths[0].1.to_string(),
            row.widths[1].1.to_string(),
            published.1.to_string(),
            published.2.to_string(),
            published.3.to_string(),
        ]);
    }
    let (totals, ratios) = totals_and_ratios(rows);
    let paper: (usize, usize, usize) = PUBLISHED
        .iter()
        .fold((0, 0, 0), |acc, p| (acc.0 + p.1, acc.1 + p.2, acc.2 + p.3));
    t.push_separator();
    t.push_row(vec![
        "Totals".into(),
        String::new(),
        String::new(),
        totals[0].to_string(),
        totals[1].to_string(),
        paper.0.to_string(),
        paper.1.to_string(),
        paper.2.to_string(),
    ]);
    t.push_row(vec![
        "Ratios".into(),
        String::new(),
        String::new(),
        format!("{:.2}", ratios[0]),
        format!("{:.2}", ratios[1]),
        format!("{:.2}", paper.0 as f64 / paper.2 as f64),
        format!("{:.2}", paper.1 as f64 / paper.2 as f64),
        "1.00".into(),
    ]);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_totals_match_the_paper() {
        let sega: usize = PUBLISHED.iter().map(|p| p.1).sum();
        let gbp: usize = PUBLISHED.iter().map(|p| p.2).sum();
        let ours: usize = PUBLISHED.iter().map(|p| p.3).sum();
        assert_eq!(sega, 118);
        assert_eq!(gbp, 110);
        assert_eq!(ours, 94);
        assert!((sega as f64 / ours as f64 - 1.26).abs() < 0.01);
        assert!((gbp as f64 / ours as f64 - 1.17).abs() < 0.01);
    }
}
