//! Text rendering of trace JSONL and `BENCH_*.json` perf diffs.
//!
//! Two consumers live here, both built on [`JsonValue`]:
//!
//! * [`render_report`] aggregates a trace JSONL file — the one
//!   `--trace` writes and [`JsonlSink`](crate::JsonlSink) emits — into
//!   the human-readable tables behind the CLI's `trace-report`
//!   subcommand: wall-clock profile by span kind, latency histograms
//!   with p50/p95/p99/max, the PathFinder convergence trajectory,
//!   per-worker scheduler timelines, counters, and gauges.
//! * [`bench_diff`] compares two benchmark result files
//!   (`BENCH_pathfinder.json` et al.) circuit by circuit and flags any
//!   timing field that regressed past a configurable threshold — the
//!   CI perf gate behind the `bench-diff` subcommand.

use std::fmt::Write as _;

use crate::json::JsonValue;

/// Renders a trace JSONL document as human-readable text tables.
///
/// Unknown record types are ignored (the validator, not the reporter,
/// polices the record surface), so reports stay renderable across
/// trace-format additions.
///
/// # Errors
///
/// Returns a message naming the first malformed line (1-based).
pub fn render_report(jsonl: &str) -> Result<String, String> {
    let mut profile: Vec<JsonValue> = Vec::new();
    let mut histograms: Vec<JsonValue> = Vec::new();
    let mut gauges: Vec<JsonValue> = Vec::new();
    let mut convergence: Vec<JsonValue> = Vec::new();
    let mut timelines: Vec<JsonValue> = Vec::new();
    let mut counters: Vec<JsonValue> = Vec::new();
    let mut spans = 0u64;
    for (idx, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = JsonValue::parse(line)
            .map_err(|e| format!("line {}: malformed JSON: {e}", idx + 1))?;
        match doc.get("type").and_then(JsonValue::as_str) {
            Some("profile") => profile.push(doc),
            Some("histogram") => histograms.push(doc),
            Some("gauge") => gauges.push(doc),
            Some("convergence") => convergence.push(doc),
            Some("timeline") => timelines.push(doc),
            Some("counter") => counters.push(doc),
            Some("span") => spans += 1,
            _ => {}
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "trace report ({spans} spans)");
    if !profile.is_empty() {
        let _ = writeln!(out, "\nwall-clock profile (by span kind)");
        let _ = writeln!(
            out,
            "  {:<14} {:>8} {:>14} {:>14}",
            "kind", "count", "inclusive_ms", "exclusive_ms"
        );
        for p in &profile {
            let _ = writeln!(
                out,
                "  {:<14} {:>8} {:>14} {:>14}",
                get_str(p, "kind"),
                get_u64(p, "count"),
                ms(get_u64(p, "inclusive_ns")),
                ms(get_u64(p, "exclusive_ns")),
            );
        }
    }
    if !histograms.is_empty() {
        let _ = writeln!(out, "\nlatency histograms (ns)");
        let _ = writeln!(
            out,
            "  {:<18} {:>10} {:>12} {:>12} {:>12} {:>12}",
            "metric", "count", "p50", "p95", "p99", "max"
        );
        for h in &histograms {
            let _ = writeln!(
                out,
                "  {:<18} {:>10} {:>12} {:>12} {:>12} {:>12}",
                get_str(h, "name"),
                get_u64(h, "count"),
                get_u64(h, "p50"),
                get_u64(h, "p95"),
                get_u64(h, "p99"),
                get_u64(h, "max"),
            );
        }
    }
    if !gauges.is_empty() {
        let _ = writeln!(out, "\ngauges");
        for g in &gauges {
            let _ = writeln!(out, "  {:<26} {}", get_str(g, "name"), get_u64(g, "value"));
        }
    }
    if !convergence.is_empty() {
        let _ = writeln!(out, "\npathfinder convergence");
        let _ = writeln!(
            out,
            "  {:>9} {:>12} {:>7} {:>13} {:>13} {:>13}",
            "iteration", "overcap", "dirty", "rerouted", "history_milli", "present_milli"
        );
        for c in &convergence {
            let _ = writeln!(
                out,
                "  {:>9} {:>12} {:>7} {:>13} {:>13} {:>13}",
                get_u64(c, "iteration"),
                get_u64(c, "overcapacity"),
                get_u64(c, "dirty_nets"),
                get_u64(c, "nets_rerouted"),
                get_u64(c, "history_milli"),
                get_u64(c, "present_milli"),
            );
        }
    }
    if !timelines.is_empty() {
        let _ = writeln!(out, "\nscheduler timelines");
        let _ = writeln!(
            out,
            "  {:>5} {:<10} {:>6} {:>12} {:>6}",
            "pass", "role", "worker", "busy_ms", "nets"
        );
        for t in &timelines {
            let _ = writeln!(
                out,
                "  {:>5} {:<10} {:>6} {:>12} {:>6}",
                get_u64(t, "pass"),
                get_str(t, "role"),
                get_u64(t, "worker"),
                ms(get_u64(t, "busy_ns")),
                get_u64(t, "nets"),
            );
        }
    }
    if !counters.is_empty() {
        let _ = writeln!(out, "\ncounters");
        for c in &counters {
            let _ = writeln!(out, "  {:<34} {}", get_str(c, "name"), get_u64(c, "value"));
        }
    }
    Ok(out)
}

/// One field-level finding from [`bench_diff`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDelta {
    /// Circuit name the field belongs to.
    pub circuit: String,
    /// The compared field (e.g. `pathfinder_us`).
    pub field: String,
    /// Value in the "before" file.
    pub before: f64,
    /// Value in the "after" file.
    pub after: f64,
    /// Relative change in percent (positive = slower/larger).
    pub delta_pct: f64,
}

/// Result of diffing two benchmark files.
#[derive(Debug, Clone, Default)]
pub struct BenchDiffReport {
    /// Rendered text table, one row per compared field.
    pub rendered: String,
    /// Deltas whose regression exceeded the threshold.
    pub regressions: Vec<BenchDelta>,
}

/// Timing fields compared by [`bench_diff`]: growth in any of these is
/// a perf regression. Width/pass-count fields are diffed for display
/// but never gate (they are quality metrics with their own tests).
const GATED_SUFFIXES: [&str; 1] = ["_us"];

/// Diffs two `BENCH_*.json` documents circuit by circuit.
///
/// Both documents must carry a `circuits` array whose entries have a
/// string `name`; numeric fields present in both versions of a circuit
/// are compared. A field ending in `_us` whose relative growth exceeds
/// `threshold_pct` becomes a regression. Circuits present on only one
/// side are reported in the rendering but do not gate.
///
/// # Errors
///
/// Returns a message when either document is malformed or has no
/// `circuits` array.
pub fn bench_diff(before: &str, after: &str, threshold_pct: f64) -> Result<BenchDiffReport, String> {
    let before = JsonValue::parse(before).map_err(|e| format!("before file: {e}"))?;
    let after = JsonValue::parse(after).map_err(|e| format!("after file: {e}"))?;
    let before_circuits = circuits_by_name(&before).ok_or("before file: no \"circuits\" array")?;
    let after_circuits = circuits_by_name(&after).ok_or("after file: no \"circuits\" array")?;

    let mut report = BenchDiffReport::default();
    let out = &mut report.rendered;
    let _ = writeln!(
        out,
        "bench diff (regression threshold {threshold_pct}% on {} fields)",
        GATED_SUFFIXES.join("/")
    );
    let _ = writeln!(
        out,
        "  {:<12} {:<26} {:>14} {:>14} {:>9}",
        "circuit", "field", "before", "after", "delta%"
    );
    for (name, before_c) in &before_circuits {
        let Some(after_c) = after_circuits.iter().find(|(n, _)| n == name).map(|(_, c)| c)
        else {
            let _ = writeln!(out, "  {name:<12} (missing from after file)");
            continue;
        };
        let JsonValue::Object(members) = before_c else {
            continue;
        };
        for (field, before_v) in members {
            let (Some(b), Some(a)) = (
                before_v.as_f64(),
                after_c.get(field).and_then(JsonValue::as_f64),
            ) else {
                continue;
            };
            let delta_pct = if b == 0.0 {
                if a == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (a - b) / b * 100.0
            };
            let gated = GATED_SUFFIXES.iter().any(|s| field.ends_with(s));
            let regressed = gated && delta_pct > threshold_pct;
            let _ = writeln!(
                out,
                "  {:<12} {:<26} {:>14} {:>14} {:>+9.2}{}",
                name,
                field,
                b,
                a,
                delta_pct,
                if regressed { "  REGRESSED" } else { "" },
            );
            if regressed {
                report.regressions.push(BenchDelta {
                    circuit: name.clone(),
                    field: field.clone(),
                    before: b,
                    after: a,
                    delta_pct,
                });
            }
        }
    }
    for (name, _) in &after_circuits {
        if !before_circuits.iter().any(|(n, _)| n == name) {
            let _ = writeln!(out, "  {name:<12} (new in after file)");
        }
    }
    if report.regressions.is_empty() {
        let _ = writeln!(out, "no regressions past {threshold_pct}%");
    } else {
        let _ = writeln!(
            out,
            "{} field(s) regressed past {threshold_pct}%",
            report.regressions.len()
        );
    }
    Ok(report)
}

fn circuits_by_name(doc: &JsonValue) -> Option<Vec<(String, &JsonValue)>> {
    let circuits = doc.get("circuits")?.as_array()?;
    Some(
        circuits
            .iter()
            .filter_map(|c| {
                c.get("name")
                    .and_then(JsonValue::as_str)
                    .map(|n| (n.to_string(), c))
            })
            .collect(),
    )
}

fn get_u64(doc: &JsonValue, key: &str) -> u64 {
    doc.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn get_str<'a>(doc: &'a JsonValue, key: &str) -> &'a str {
    doc.get(key).and_then(JsonValue::as_str).unwrap_or("?")
}

/// Nanoseconds rendered as fractional milliseconds (`12.345`).
fn ms(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000_000, (ns % 1_000_000) / 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_every_section() {
        let jsonl = concat!(
            "{\"type\":\"meta\",\"format\":\"route-trace\",\"version\":1}\n",
            "{\"type\":\"span\",\"id\":1,\"parent\":0,\"kind\":\"pass\",\"label\":\"pass\",\"index\":1,\"start_ns\":0,\"end_ns\":5000000,\"thread\":0}\n",
            "{\"type\":\"counter\",\"name\":\"nets_routed\",\"value\":9}\n",
            "{\"type\":\"histogram\",\"name\":\"net_route_ns\",\"count\":9,\"sum\":900,\"mean\":100,\"p50\":90,\"p95\":200,\"p99\":240,\"max\":250,\"buckets\":[[7,9]]}\n",
            "{\"type\":\"gauge\",\"name\":\"min_channel_width\",\"value\":4}\n",
            "{\"type\":\"profile\",\"kind\":\"pass\",\"count\":1,\"inclusive_ns\":5000000,\"exclusive_ns\":1000000}\n",
            "{\"type\":\"convergence\",\"iteration\":1,\"overcapacity\":14,\"history_milli\":70,\"nets_rerouted\":9,\"present_milli\":250,\"dirty_nets\":9}\n",
            "{\"type\":\"convergence\",\"iteration\":2,\"overcapacity\":3,\"history_milli\":140,\"nets_rerouted\":5,\"present_milli\":500,\"dirty_nets\":6}\n",
            "{\"type\":\"timeline\",\"pass\":1,\"worker\":0,\"role\":\"pf-worker\",\"busy_ns\":4000000,\"nets\":5}\n",
        );
        let report = render_report(jsonl).unwrap();
        assert!(report.contains("trace report (1 spans)"));
        assert!(report.contains("wall-clock profile"));
        assert!(report.contains("pass"));
        assert!(report.contains("latency histograms"));
        assert!(report.contains("net_route_ns"));
        assert!(report.contains("gauges"));
        assert!(report.contains("min_channel_width"));
        assert!(report.contains("pathfinder convergence"));
        assert!(report.contains("scheduler timelines"));
        assert!(report.contains("counters"));
        assert!(report.contains("nets_routed"));
    }

    #[test]
    fn report_rejects_malformed_lines_by_number() {
        let err = render_report("{\"type\":\"meta\"}\nnot json\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn report_of_empty_input_is_just_the_header() {
        let report = render_report("").unwrap();
        assert!(report.contains("trace report (0 spans)"));
        assert!(!report.contains("histograms"));
    }

    fn bench_doc(us: u64) -> String {
        format!(
            "{{\"benchmark\":\"b\",\"circuits\":[{{\"name\":\"term1\",\"pathfinder_us\":{us},\"pathfinder_width\":7}}]}}"
        )
    }

    #[test]
    fn bench_diff_passes_identical_inputs() {
        let doc = bench_doc(1000);
        let report = bench_diff(&doc, &doc, 5.0).unwrap();
        assert!(report.regressions.is_empty());
        assert!(report.rendered.contains("no regressions"));
        assert!(report.rendered.contains("term1"));
    }

    #[test]
    fn bench_diff_flags_regressions_past_threshold() {
        let report = bench_diff(&bench_doc(1000), &bench_doc(1100), 5.0).unwrap();
        assert_eq!(report.regressions.len(), 1);
        let r = &report.regressions[0];
        assert_eq!(r.circuit, "term1");
        assert_eq!(r.field, "pathfinder_us");
        assert!((r.delta_pct - 10.0).abs() < 1e-9);
        assert!(report.rendered.contains("REGRESSED"));
    }

    #[test]
    fn bench_diff_tolerates_regressions_within_threshold_and_improvements() {
        let report = bench_diff(&bench_doc(1000), &bench_doc(1040), 5.0).unwrap();
        assert!(report.regressions.is_empty(), "4% < 5% threshold");
        let report = bench_diff(&bench_doc(1000), &bench_doc(500), 5.0).unwrap();
        assert!(report.regressions.is_empty(), "improvements never gate");
    }

    #[test]
    fn bench_diff_only_gates_timing_fields() {
        // pathfinder_width doubles — displayed, but widths do not gate.
        let before = "{\"circuits\":[{\"name\":\"c\",\"pathfinder_width\":7,\"pathfinder_us\":100}]}";
        let after = "{\"circuits\":[{\"name\":\"c\",\"pathfinder_width\":14,\"pathfinder_us\":100}]}";
        let report = bench_diff(before, after, 5.0).unwrap();
        assert!(report.regressions.is_empty());
        assert!(report.rendered.contains("pathfinder_width"));
    }

    #[test]
    fn bench_diff_reports_missing_and_new_circuits() {
        let before = "{\"circuits\":[{\"name\":\"gone\",\"x_us\":1}]}";
        let after = "{\"circuits\":[{\"name\":\"fresh\",\"x_us\":1}]}";
        let report = bench_diff(before, after, 5.0).unwrap();
        assert!(report.regressions.is_empty());
        assert!(report.rendered.contains("missing from after"));
        assert!(report.rendered.contains("new in after"));
        assert!(bench_diff("{}", after, 5.0).is_err());
    }
}
