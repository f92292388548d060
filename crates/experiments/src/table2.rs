//! **Table 2** — minimum channel width on Xilinx 3000-series parts
//! (`F_s = 6`, `F_c = ⌈0.6W⌉`): the CGE router versus our router (IKMB).
//!
//! CGE is closed-source; the 2PIN contender (DJKA under rip-up, each sink
//! routed along its shortest path from the source) stands in for it (see
//! `DESIGN.md`). The paper's published widths are printed alongside
//! for shape comparison: CGE needed on average 22% more channel width than
//! the paper's router.

use fpga_device::synth::xc3000_profiles;
use fpga_device::{ArchSpec, FpgaError, RouteAlgorithm};

use crate::table::TextTable;
use crate::widths::{
    run_width_table, totals_and_ratios, CircuitWidths, Contender, WidthExperimentConfig,
};

/// Published Table 2 widths `(circuit, CGE, our router)`, in profile order.
pub const PUBLISHED: [(&str, usize, usize); 5] = [
    ("busc", 10, 7),
    ("dma", 10, 9),
    ("bnre", 12, 9),
    ("dfsm", 10, 9),
    ("z03", 13, 11),
];

/// Runs the Table 2 experiment.
///
/// # Errors
///
/// Propagates routing errors.
pub fn run(config: &WidthExperimentConfig) -> Result<Vec<CircuitWidths>, FpgaError> {
    run_width_table(
        &xc3000_profiles(),
        ArchSpec::xilinx3000,
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
        "Table 2: Minimum channel width, Xilinx 3000-series (Fs=6, Fc=ceil(0.6W))",
        &[
            "Circuit",
            "FPGA",
            "#nets",
            "2PIN (CGE stand-in)",
            "IKMB (ours)",
            "paper CGE",
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
        ]);
    }
    let (totals, ratios) = totals_and_ratios(rows);
    let paper_totals: (usize, usize) = PUBLISHED
        .iter()
        .fold((0, 0), |acc, p| (acc.0 + p.1, acc.1 + p.2));
    t.push_separator();
    t.push_row(vec![
        "Totals".into(),
        String::new(),
        String::new(),
        totals[0].to_string(),
        totals[1].to_string(),
        paper_totals.0.to_string(),
        paper_totals.1.to_string(),
    ]);
    t.push_row(vec![
        "Ratios".into(),
        String::new(),
        String::new(),
        format!("{:.2}", ratios[0]),
        format!("{:.2}", ratios[1]),
        format!("{:.2}", paper_totals.0 as f64 / paper_totals.1 as f64),
        "1.00".into(),
    ]);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_totals_match_the_paper() {
        let cge: usize = PUBLISHED.iter().map(|p| p.1).sum();
        let ours: usize = PUBLISHED.iter().map(|p| p.2).sum();
        assert_eq!(cge, 55);
        assert_eq!(ours, 45);
        // Paper: "CGE requires 22% more channel width than our router."
        assert!((cge as f64 / ours as f64 - 1.22).abs() < 0.005);
    }
}
