//! Bench support crate: shared helpers for the harness-free timing
//! benches and the table/figure regeneration targets.
//!
//! `cargo bench --workspace` runs, in this crate:
//!
//! * `timing` — micro-benchmarks matching the paper's §5 CPU time
//!   claims (all eight constructions on the `|V| = 50, |E| = 1000,
//!   |N| = 5` random graphs, plus per-net routing on a real device);
//! * `table1`–`table5` — `harness = false` targets that regenerate the
//!   paper's tables (quality metrics, not timings);
//! * `figures` — Figures 4, 10, 11, 14, 16;
//! * `ablations` — design-choice ablations (batching, candidate pools,
//!   congestion pressure, net ordering, switch-box flexibility).

#![forbid(unsafe_code)]

/// Returns `true` when a quick, reduced-size run was requested via the
/// `BENCH_QUICK` environment variable — useful in CI.
#[must_use]
pub fn quick_mode() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0")
}
