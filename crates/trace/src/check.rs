//! Semantic validation of emitted JSONL telemetry, beyond
//! well-formedness.
//!
//! [`json::validate`](crate::json::validate) only proves a line parses;
//! it will happily accept a counter record whose name no [`Counter`]
//! variant emits (a consumer keying on it would silently read zeros
//! forever) or the same counter emitted twice in one session (a
//! double-merged buffer — the values would double-count). This module
//! checks those session-level invariants line by line:
//!
//! * every `{"type":"counter","name":…}` record names a real
//!   [`Counter`] (the glossary in the README mirrors the same set, and
//!   the `telemetry-sync` lint keeps them aligned);
//! * no counter name repeats within one session — the sinks emit each
//!   nonzero counter exactly once, after the session's `meta` header. A
//!   new `meta` record starts a fresh session (concatenated streams are
//!   valid input).
//!
//! [`RecordCheck`] extends this to the full observability surface:
//! every typed record must use a type from [`RECORD_TYPES`], histogram
//! and gauge names must be real [`Metric`]/[`Gauge`] variants (deduped
//! per session like counters), durations and timestamps must be finite
//! non-negative integers with `end_ns >= start_ns`, and congestion
//! records must carry a non-empty occupancy histogram (a zero-width
//! histogram means the snapshot was built against no channel at all —
//! always a producer bug). Records *without* a `type` field still pass:
//! the JSONL contract only constrains the records this crate emits.

use std::collections::HashSet;

use crate::counter::Counter;
use crate::json::JsonValue;
use crate::metrics::{Gauge, Metric};
use crate::span::SpanKind;

/// Every record type the sinks can emit. `trace-check` rejects typed
/// records outside this list, and the `telemetry-sync` lint requires
/// each to be documented in the README metric glossary.
pub const RECORD_TYPES: [&str; 9] = [
    "meta",
    "span",
    "counter",
    "congestion",
    "histogram",
    "gauge",
    "profile",
    "convergence",
    "timeline",
];

/// Streaming per-session counter-record checker. Feed lines in file
/// order; `meta` records reset the session scope.
#[derive(Debug, Default)]
pub struct CounterCheck {
    seen: HashSet<&'static str>,
}

/// A semantic violation found by [`CounterCheck::line`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError {
    /// What is wrong with the record.
    pub message: String,
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CheckError {}

impl CounterCheck {
    /// A checker with no session in progress.
    #[must_use]
    pub fn new() -> CounterCheck {
        CounterCheck::default()
    }

    /// Checks one (already well-formed) JSONL line.
    ///
    /// # Errors
    ///
    /// An unknown counter name, or a counter repeated since the last
    /// `meta` record.
    pub fn line(&mut self, line: &str) -> Result<(), CheckError> {
        match top_level_str(line, "type").as_deref() {
            Some("meta") => {
                self.seen.clear();
                Ok(())
            }
            Some("counter") => {
                let Some(name) = top_level_str(line, "name") else {
                    return Err(CheckError {
                        message: "counter record has no \"name\" field".to_string(),
                    });
                };
                let Some(known) = Counter::ALL.iter().map(|c| c.name()).find(|n| *n == name)
                else {
                    return Err(CheckError {
                        message: format!(
                            "unknown counter `{name}` (not a trace::Counter variant)"
                        ),
                    });
                };
                if !self.seen.insert(known) {
                    return Err(CheckError {
                        message: format!(
                            "counter `{name}` emitted twice in one session (double-merged buffer?)"
                        ),
                    });
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// Streaming per-session checker for the full record surface (the
/// strict superset of [`CounterCheck`] the CLI's `trace-check` runs).
/// Feed well-formed lines in file order; `meta` records reset the
/// session scope.
#[derive(Debug, Default)]
pub struct RecordCheck {
    counters: CounterCheck,
    histograms_seen: HashSet<&'static str>,
    gauges_seen: HashSet<&'static str>,
}

impl RecordCheck {
    /// A checker with no session in progress.
    #[must_use]
    pub fn new() -> RecordCheck {
        RecordCheck::default()
    }

    /// Checks one (already well-formed) JSONL line.
    ///
    /// # Errors
    ///
    /// Unknown record types, unknown/duplicate counter, histogram, or
    /// gauge names, non-finite or negative durations/timestamps,
    /// `end_ns < start_ns` spans, unknown profile kinds, and zero-width
    /// (empty-histogram) congestion records.
    pub fn line(&mut self, line: &str) -> Result<(), CheckError> {
        let doc = JsonValue::parse(line).map_err(|e| CheckError {
            message: format!("malformed JSON: {e}"),
        })?;
        let Some(kind) = doc.get("type").and_then(JsonValue::as_str) else {
            // Untyped records (or a non-string `type`) are outside the
            // contract this checker enforces.
            return Ok(());
        };
        if !RECORD_TYPES.contains(&kind) {
            return Err(CheckError {
                message: format!("unknown record type `{kind}` (not emitted by route-trace)"),
            });
        }
        match kind {
            "meta" => {
                self.histograms_seen.clear();
                self.gauges_seen.clear();
                self.counters.line(line)
            }
            "counter" => self.counters.line(line),
            "span" => {
                let start = req_u64(&doc, "span", "start_ns")?;
                let end = req_u64(&doc, "span", "end_ns")?;
                if end < start {
                    return Err(CheckError {
                        message: format!(
                            "span record has end_ns {end} before start_ns {start}"
                        ),
                    });
                }
                Ok(())
            }
            "histogram" => {
                let name = req_name(&doc, "histogram")?;
                let Some(known) = Metric::ALL.iter().map(|m| m.name()).find(|n| *n == name)
                else {
                    return Err(CheckError {
                        message: format!("unknown histogram `{name}` (not a trace::Metric variant)"),
                    });
                };
                if !self.histograms_seen.insert(known) {
                    return Err(CheckError {
                        message: format!("histogram `{name}` emitted twice in one session"),
                    });
                }
                for key in ["count", "sum", "mean", "p50", "p95", "p99", "max"] {
                    req_u64(&doc, "histogram", key)?;
                }
                Ok(())
            }
            "gauge" => {
                let name = req_name(&doc, "gauge")?;
                let Some(known) = Gauge::ALL.iter().map(|g| g.name()).find(|n| *n == name)
                else {
                    return Err(CheckError {
                        message: format!("unknown gauge `{name}` (not a trace::Gauge variant)"),
                    });
                };
                if !self.gauges_seen.insert(known) {
                    return Err(CheckError {
                        message: format!("gauge `{name}` emitted twice in one session"),
                    });
                }
                req_u64(&doc, "gauge", "value")?;
                Ok(())
            }
            "profile" => {
                let Some(name) = doc.get("kind").and_then(JsonValue::as_str) else {
                    return Err(CheckError {
                        message: "profile record has no \"kind\" field".to_string(),
                    });
                };
                const KINDS: [SpanKind; 5] = [
                    SpanKind::WidthSearch,
                    SpanKind::Attempt,
                    SpanKind::Pass,
                    SpanKind::Net,
                    SpanKind::Phase,
                ];
                if !KINDS.iter().any(|k| k.name() == name) {
                    return Err(CheckError {
                        message: format!("unknown profile kind `{name}` (not a span kind)"),
                    });
                }
                for key in ["count", "inclusive_ns", "exclusive_ns"] {
                    req_u64(&doc, "profile", key)?;
                }
                Ok(())
            }
            "convergence" => {
                for key in [
                    "iteration",
                    "overcapacity",
                    "history_milli",
                    "nets_rerouted",
                    "present_milli",
                    "dirty_nets",
                ] {
                    req_u64(&doc, "convergence", key)?;
                }
                Ok(())
            }
            "timeline" => {
                for key in ["pass", "worker", "busy_ns", "nets"] {
                    req_u64(&doc, "timeline", key)?;
                }
                Ok(())
            }
            "congestion" => {
                match doc.get("histogram").and_then(JsonValue::as_array) {
                    None => Err(CheckError {
                        message: "congestion record has no \"histogram\" array".to_string(),
                    }),
                    Some([]) => Err(CheckError {
                        message:
                            "congestion record has a zero-width (empty) occupancy histogram"
                                .to_string(),
                    }),
                    Some(_) => Ok(()),
                }
            }
            _ => Ok(()),
        }
    }
}

/// Requires `doc[key]` to be a finite, non-negative, integral number.
fn req_u64(doc: &JsonValue, record: &str, key: &str) -> Result<u64, CheckError> {
    let Some(value) = doc.get(key) else {
        return Err(CheckError {
            message: format!("{record} record has no \"{key}\" field"),
        });
    };
    value.as_u64().ok_or_else(|| CheckError {
        message: format!(
            "{record} record field \"{key}\" must be a finite non-negative integer, got {value:?}"
        ),
    })
}

/// Requires a string `name` field.
fn req_name(doc: &JsonValue, record: &str) -> Result<String, CheckError> {
    doc.get("name")
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| CheckError {
            message: format!("{record} record has no \"name\" field"),
        })
}

/// The decoded value of a top-level string field, if present.
///
/// Assumes `input` already passed [`json::validate`](crate::json::validate);
/// on malformed input it simply returns `None`.
fn top_level_str(input: &str, key: &str) -> Option<String> {
    let bytes = input.as_bytes();
    let mut pos = input.find('{')? + 1;
    loop {
        skip_ws(bytes, &mut pos);
        match bytes.get(pos) {
            Some(b'}') | None => return None,
            Some(b',') => {
                pos += 1;
                continue;
            }
            _ => {}
        }
        let k = read_string(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if bytes.get(pos) != Some(&b':') {
            return None;
        }
        pos += 1;
        skip_ws(bytes, &mut pos);
        if k == key {
            return read_string(bytes, &mut pos);
        }
        skip_value(bytes, &mut pos)?;
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

/// Reads a JSON string at `pos`, decoding the simple escapes the
/// emitters produce. `None` if `pos` is not at a string.
fn read_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    if bytes.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    let mut out = Vec::new();
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).ok();
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'u') => {
                        // \uXXXX — counter/flag names are ASCII, so a
                        // lossy placeholder is fine for matching.
                        *pos += 4;
                        out.push(b'?');
                    }
                    Some(&c) => out.push(c),
                    None => return None,
                }
                *pos += 1;
            }
            _ => {
                out.push(b);
                *pos += 1;
            }
        }
    }
    None
}

/// Skips one JSON value (scalar, object, or array) at `pos`.
fn skip_value(bytes: &[u8], pos: &mut usize) -> Option<()> {
    skip_ws(bytes, pos);
    match bytes.get(*pos)? {
        b'"' => {
            read_string(bytes, pos)?;
        }
        b'{' | b'[' => {
            let mut depth = 0i64;
            loop {
                match bytes.get(*pos)? {
                    b'{' | b'[' => {
                        depth += 1;
                        *pos += 1;
                    }
                    b'}' | b']' => {
                        depth -= 1;
                        *pos += 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    b'"' => {
                        read_string(bytes, pos)?;
                    }
                    _ => *pos += 1,
                }
            }
        }
        _ => {
            while let Some(&b) = bytes.get(*pos) {
                if matches!(b, b',' | b'}' | b']') {
                    break;
                }
                *pos += 1;
            }
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_counters_pass_and_unknown_fail() {
        let mut c = CounterCheck::new();
        c.line(r#"{"type":"meta","clock":"x"}"#).unwrap();
        c.line(r#"{"type":"counter","name":"dijkstra_runs","value":3}"#)
            .unwrap();
        let err = c
            .line(r#"{"type":"counter","name":"no_such_counter","value":1}"#)
            .unwrap_err();
        assert!(err.message.contains("no_such_counter"));
    }

    #[test]
    fn duplicates_within_a_session_fail() {
        let mut c = CounterCheck::new();
        c.line(r#"{"type":"counter","name":"nets_routed","value":1}"#)
            .unwrap();
        let err = c
            .line(r#"{"type":"counter","name":"nets_routed","value":2}"#)
            .unwrap_err();
        assert!(err.message.contains("twice"));
    }

    #[test]
    fn meta_resets_the_session_scope() {
        let mut c = CounterCheck::new();
        c.line(r#"{"type":"counter","name":"nets_routed","value":1}"#)
            .unwrap();
        c.line(r#"{"type":"meta"}"#).unwrap();
        c.line(r#"{"type":"counter","name":"nets_routed","value":1}"#)
            .unwrap();
    }

    #[test]
    fn non_counter_records_are_ignored() {
        let mut c = CounterCheck::new();
        c.line(r#"{"type":"span","name":"dijkstra_runs","id":1}"#).unwrap();
        c.line(r#"{"type":"span","name":"dijkstra_runs","id":2}"#).unwrap();
        c.line(r#"{"value":1}"#).unwrap();
    }

    #[test]
    fn field_extraction_handles_order_nesting_and_escapes() {
        assert_eq!(
            top_level_str(r#"{"value":7,"extra":{"type":"x"},"type":"counter"}"#, "type"),
            Some("counter".to_string())
        );
        assert_eq!(
            top_level_str(r#"{"list":[1,2,{"type":"inner"}],"name":"a\"b"}"#, "name"),
            Some("a\"b".to_string())
        );
        assert_eq!(top_level_str(r#"{"type":7}"#, "type"), None);
        assert_eq!(top_level_str(r#"{}"#, "type"), None);
    }

    #[test]
    fn counter_record_without_name_fails() {
        let err = CounterCheck::new()
            .line(r#"{"type":"counter","value":1}"#)
            .unwrap_err();
        assert!(err.message.contains("no \"name\""));
    }

    #[test]
    fn record_check_accepts_a_full_session() {
        let mut c = RecordCheck::new();
        for line in [
            r#"{"type":"meta","format":"route-trace","version":1,"spans":2,"snapshots":1}"#,
            r#"{"type":"span","id":1,"parent":0,"kind":"pass","label":"pass","index":1,"start_ns":5,"end_ns":90,"thread":0}"#,
            r#"{"type":"counter","name":"nets_routed","value":3}"#,
            r#"{"type":"histogram","name":"net_route_ns","count":2,"sum":100,"mean":50,"p50":63,"p95":63,"p99":63,"max":60,"buckets":[[6,2]]}"#,
            r#"{"type":"gauge","name":"min_channel_width","value":4}"#,
            r#"{"type":"profile","kind":"pass","count":1,"inclusive_ns":85,"exclusive_ns":20}"#,
            r#"{"type":"convergence","iteration":1,"overcapacity":9,"history_milli":120,"nets_rerouted":4,"present_milli":250,"dirty_nets":6}"#,
            r#"{"type":"timeline","pass":1,"worker":0,"role":"pf-worker","busy_ns":70,"nets":2}"#,
            r#"{"type":"congestion","pass":1,"channel_width":4,"positions":2,"used_positions":2,"histogram":[0,1,1],"max_occupancy":2,"mean_occupancy_milli":1500,"saturated_positions":0,"overused_positions":0,"max_overuse":0}"#,
            r#"{"a":[1,2]}"#,
        ] {
            c.line(line)
                .unwrap_or_else(|e| panic!("line should pass: {line}: {e}"));
        }
    }

    #[test]
    fn record_check_rejects_unknown_record_types_and_names() {
        let mut c = RecordCheck::new();
        let err = c.line(r#"{"type":"mystery","x":1}"#).unwrap_err();
        assert!(err.message.contains("unknown record type `mystery`"));
        let err = c
            .line(r#"{"type":"histogram","name":"no_such_metric","count":1,"sum":1,"mean":1,"p50":1,"p95":1,"p99":1,"max":1,"buckets":[]}"#)
            .unwrap_err();
        assert!(err.message.contains("unknown histogram `no_such_metric`"));
        let err = c
            .line(r#"{"type":"gauge","name":"no_such_gauge","value":1}"#)
            .unwrap_err();
        assert!(err.message.contains("unknown gauge `no_such_gauge`"));
        let err = c
            .line(r#"{"type":"profile","kind":"warp","count":1,"inclusive_ns":1,"exclusive_ns":1}"#)
            .unwrap_err();
        assert!(err.message.contains("unknown profile kind `warp`"));
    }

    #[test]
    fn record_check_rejects_negative_and_nonfinite_durations() {
        let mut c = RecordCheck::new();
        let err = c
            .line(r#"{"type":"span","id":1,"start_ns":-5,"end_ns":10}"#)
            .unwrap_err();
        assert!(err.message.contains("start_ns"), "{}", err.message);
        // 1e999 overflows f64 to +inf — syntactically valid JSON, but
        // not a finite duration.
        let err = c
            .line(r#"{"type":"span","id":1,"start_ns":0,"end_ns":1e999}"#)
            .unwrap_err();
        assert!(err.message.contains("end_ns"), "{}", err.message);
        let err = c
            .line(r#"{"type":"timeline","pass":1,"worker":0,"busy_ns":1.5,"nets":0}"#)
            .unwrap_err();
        assert!(err.message.contains("busy_ns"), "{}", err.message);
        let err = c
            .line(r#"{"type":"span","id":1,"start_ns":50,"end_ns":10}"#)
            .unwrap_err();
        assert!(err.message.contains("before start_ns"), "{}", err.message);
    }

    #[test]
    fn record_check_rejects_zero_width_congestion_histograms() {
        let mut c = RecordCheck::new();
        let err = c
            .line(r#"{"type":"congestion","pass":1,"histogram":[]}"#)
            .unwrap_err();
        assert!(err.message.contains("zero-width"));
        let err = c.line(r#"{"type":"congestion","pass":1}"#).unwrap_err();
        assert!(err.message.contains("no \"histogram\""));
    }

    #[test]
    fn record_check_dedups_histograms_and_gauges_per_session() {
        let mut c = RecordCheck::new();
        let hist = r#"{"type":"histogram","name":"net_route_ns","count":1,"sum":1,"mean":1,"p50":1,"p95":1,"p99":1,"max":1,"buckets":[[1,1]]}"#;
        c.line(hist).unwrap();
        assert!(c.line(hist).unwrap_err().message.contains("twice"));
        let gauge = r#"{"type":"gauge","name":"min_channel_width","value":9}"#;
        c.line(gauge).unwrap();
        assert!(c.line(gauge).unwrap_err().message.contains("twice"));
        // A new meta header starts a fresh session.
        c.line(r#"{"type":"meta"}"#).unwrap();
        c.line(hist).unwrap();
        c.line(gauge).unwrap();
    }
}
