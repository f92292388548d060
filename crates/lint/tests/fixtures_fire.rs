//! Every rule must fire on its known-bad fixture, with a fully
//! populated diagnostic (file, line, rule, hint) — the self-test the
//! acceptance criteria demand, and the regression net that keeps a
//! lexer or matcher refactor from silently blinding a rule.

use std::path::Path;

use fpga_lint::rules::{commit_path, determinism, hygiene, telemetry, weights};
use fpga_lint::{lint_source, Diagnostic, MARKER_RULE};

/// Reads a fixture from `tests/fixtures/`.
fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

/// Lints a fixture under a logical workspace path and asserts it yields
/// exactly one diagnostic, for `rule`, with every field populated.
fn assert_fires_once(name: &str, logical: &str, rule: &str) -> Diagnostic {
    let diags = lint_source(logical, &fixture(name));
    assert_eq!(
        diags.len(),
        1,
        "{name} as {logical}: expected exactly one diagnostic, got {diags:#?}"
    );
    let d = diags.into_iter().next().unwrap();
    assert_eq!(d.rule, rule, "{name}: wrong rule");
    assert_eq!(d.path, logical, "{name}: wrong path");
    assert!(d.line >= 1, "{name}: line must be 1-based");
    assert!(!d.message.is_empty(), "{name}: empty message");
    assert!(!d.hint.is_empty(), "{name}: empty fix hint");
    let shown = d.to_string();
    assert!(
        shown.starts_with(&format!("{}:{}: [{}]", d.path, d.line, d.rule)),
        "{name}: rendered diagnostic must lead with file:line: [rule], got {shown}"
    );
    assert!(shown.contains("hint:"), "{name}: rendered hint missing");
    d
}

#[test]
fn commit_path_mutation_fires_on_repricing_outside_pathfinder() {
    let d = assert_fires_once(
        "commit_escape.rs",
        "crates/fpga/src/commit_escape.rs",
        commit_path::RULE,
    );
    assert_eq!(d.line, 7, "diagnostic anchors to the call line");
    assert!(d.message.contains("reprice_edges"));
}

#[test]
fn saturating_weights_fires_on_bare_addition() {
    let d = assert_fires_once(
        "bare_weight_math.rs",
        "crates/core/src/bare_weight_math.rs",
        weights::RULE,
    );
    assert_eq!(d.line, 6, "diagnostic anchors to the addition");
}

#[test]
fn saturating_weights_fires_on_bare_history_accumulation_in_pathfinder() {
    // The negotiated-congestion module is NOT exempt from the rule: a
    // bare `+` on the history accumulator — the exact bug class its
    // saturating arithmetic exists to prevent — must still be caught
    // under the module's real workspace path.
    let d = assert_fires_once(
        "pathfinder_bare_history.rs",
        "crates/fpga/src/pathfinder.rs",
        weights::RULE,
    );
    assert_eq!(d.line, 7, "diagnostic anchors to the addition");
    assert!(d.message.contains("history"));
}

#[test]
fn unsafe_forbid_fires_on_crate_root_without_the_attribute() {
    let d = assert_fires_once(
        "missing_forbid.rs",
        "crates/fixture/src/lib.rs",
        hygiene::RULE_UNSAFE,
    );
    assert_eq!(d.line, 1, "missing-attribute diagnostics anchor to line 1");
}

#[test]
fn panic_hygiene_fires_on_hot_path_unwrap_but_not_in_tests() {
    let d = assert_fires_once(
        "hot_unwrap.rs",
        "crates/fpga/src/router.rs",
        hygiene::RULE_PANIC,
    );
    assert!(d.message.contains("unwrap"));
    // The same source under a cold-path name is clean: the fixture's
    // only finding really is the hot-path unwrap.
    assert!(lint_source("crates/fpga/src/viz.rs", &fixture("hot_unwrap.rs")).is_empty());
}

#[test]
fn stale_allow_markers_are_themselves_diagnostics() {
    let d = assert_fires_once(
        "stale_marker.rs",
        "crates/core/src/stale_marker.rs",
        MARKER_RULE,
    );
    assert!(d.message.contains("panic-hygiene"), "names the waived rule");
}

#[test]
fn telemetry_sync_fires_on_the_mini_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/telemetry_workspace");
    let diags = telemetry::check_workspace(&root);
    assert_eq!(diags.len(), 4, "got {diags:#?}");
    for d in &diags {
        assert_eq!(d.rule, telemetry::RULE);
        assert!(d.line >= 1 && !d.message.is_empty() && !d.hint.is_empty());
    }
    assert!(
        diags.iter().any(|d| d.message.contains("`foo_runs`")),
        "emitted counter missing from the glossary"
    );
    assert!(
        diags.iter().any(|d| d.message.contains("`stale_counter`")),
        "glossary row naming no variant"
    );
    assert!(
        diags.iter().any(|d| d.message.contains("`ghost_ns`")),
        "emitted metric missing from the metric glossary"
    );
    assert!(
        diags.iter().any(|d| d.message.contains("`--bar`")),
        "undocumented CLI flag"
    );
}

#[test]
fn determinism_hash_iter_fires_on_raw_hashmap_iteration() {
    let d = assert_fires_once(
        "det_hash_iter.rs",
        "crates/fpga/src/det_hash_iter.rs",
        determinism::RULE_HASH,
    );
    assert_eq!(d.line, 6, "diagnostic anchors to the for-loop");
    assert!(d.message.contains("pending"), "names the container");
}

#[test]
fn determinism_wall_clock_fires_on_instant_now() {
    let d = assert_fires_once(
        "det_wall_clock.rs",
        "crates/fpga/src/det_wall_clock.rs",
        determinism::RULE_CLOCK,
    );
    assert_eq!(d.line, 6, "diagnostic anchors to the Instant::now call");
}

#[test]
fn determinism_thread_id_fires_on_thread_identity_seeding() {
    let d = assert_fires_once(
        "det_thread_id.rs",
        "crates/fpga/src/det_thread_id.rs",
        determinism::RULE_THREAD,
    );
    assert_eq!(d.line, 6, "diagnostic anchors to thread::current");
}

#[test]
fn determinism_float_weight_fires_on_accumulation_near_weight() {
    let d = assert_fires_once(
        "det_float_weight.rs",
        "crates/fpga/src/det_float_weight.rs",
        determinism::RULE_FLOAT,
    );
    assert_eq!(d.line, 8, "diagnostic anchors to the `+=`");
    assert!(d.message.contains("acc"), "names the accumulator");
}

#[test]
fn determinism_clean_fixture_shows_the_sanctioned_escapes() {
    // Sorted projection and a justified waiver both lint clean under a
    // hot-path logical name — the escapes DESIGN.md §5i prescribes.
    assert!(lint_source("crates/fpga/src/det_clean.rs", &fixture("det_clean.rs")).is_empty());
    // Under a telemetry path even the bad wall-clock fixture is fine:
    // timing is that module's product.
    assert!(
        lint_source("crates/trace/src/det_wall_clock.rs", &fixture("det_wall_clock.rs"))
            .is_empty()
    );
}

#[test]
fn clean_sources_stay_clean_under_the_same_logical_paths() {
    // The inverse direction: a compliant version of each fixture yields
    // nothing, so the assertions above measure the defect, not the path.
    assert!(lint_source(
        "crates/fpga/src/commit_escape.rs",
        "pub fn noop() {}\n"
    )
    .is_empty());
    assert!(lint_source(
        "crates/fixture/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn noop() {}\n"
    )
    .is_empty());
    assert!(lint_source(
        "crates/fpga/src/router.rs",
        "pub fn first(order: &[u32]) -> Option<u32> { order.first().copied() }\n"
    )
    .is_empty());
}
