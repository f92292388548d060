//! Trace results and emission sinks.
//!
//! [`Collector::finish`](crate::Collector::finish) returns a [`Trace`];
//! a [`TraceSink`] turns it into bytes. Two sinks ship with the crate:
//! [`JsonlSink`] (one JSON object per line — streams well, greps well)
//! and [`JsonSink`] (a single document for tools that want one value).
//!
//! A third mode, [`StreamingJsonlSink`], is not a [`TraceSink`]: instead
//! of serializing a finished trace it is installed *into* a collector
//! session ([`Collector::install_streaming`](crate::Collector::install_streaming))
//! and appends each span's JSONL line the moment the span closes, so a
//! long routing run can be tailed live and a crash loses at most the
//! events after the last flush.

use std::io::{self, Write};

use crate::congestion::CongestionSnapshot;
use crate::counter::CounterSet;
use crate::json::ObjectWriter;
use crate::metrics::{ConvergenceRecord, GaugeSet, Histogram, HistogramSet, TimelineRecord};
use crate::profile::ProfileEntry;
use crate::span::{SpanKind, SpanRecord};

/// Everything one collector session recorded.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Completed spans, sorted by start time.
    pub spans: Vec<SpanRecord>,
    /// Merged algorithm counters from every participating thread.
    pub counters: CounterSet,
    /// Per-pass congestion snapshots, in recording order.
    pub snapshots: Vec<CongestionSnapshot>,
    /// Merged latency histograms from every participating thread.
    pub metrics: HistogramSet,
    /// Merged gauges (slot-wise maximum) from every participating thread.
    pub gauges: GaugeSet,
    /// Per-iteration PathFinder convergence records, iteration order.
    pub convergence: Vec<ConvergenceRecord>,
    /// Per-worker scheduler timelines, sorted by (pass, role, worker).
    pub timelines: Vec<TimelineRecord>,
    /// Wall-clock attribution per span kind, outermost first.
    pub profile: Vec<ProfileEntry>,
}

impl Trace {
    /// `true` when nothing at all was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.snapshots.is_empty()
            && self.metrics.is_empty()
            && self.gauges.is_empty()
            && self.convergence.is_empty()
            && self.timelines.is_empty()
    }

    /// Spans of one kind, in start order.
    pub fn spans_of(&self, kind: SpanKind) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.kind == kind)
    }

    /// Renders a human-readable counter/congestion summary (the CLI's
    /// `--metrics` output).
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str("telemetry summary\n");
        out.push_str(&format!(
            "  spans: {} ({} passes, {} nets)\n",
            self.spans.len(),
            self.spans_of(SpanKind::Pass).count(),
            self.spans_of(SpanKind::Net).count(),
        ));
        for (c, v) in self.counters.iter_nonzero() {
            out.push_str(&format!("  {:<30} {v}\n", c.name()));
        }
        for (m, h) in self.metrics.iter_nonzero() {
            out.push_str(&format!(
                "  {:<30} n={} p50={} p95={} p99={} max={}\n",
                m.name(),
                h.count(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                h.max(),
            ));
        }
        for (g, v) in self.gauges.iter_set() {
            out.push_str(&format!("  {:<30} {v}\n", g.name()));
        }
        for snap in &self.snapshots {
            out.push_str(&format!(
                "  pass {:>2} congestion: max {} / width {}, mean {}.{:03}, saturated {}/{}\n",
                snap.pass,
                snap.max_occupancy,
                snap.channel_width,
                snap.mean_occupancy_milli / 1000,
                snap.mean_occupancy_milli % 1000,
                snap.saturated_positions,
                snap.positions,
            ));
        }
        out
    }
}

/// Something that can serialize a [`Trace`] to a writer.
pub trait TraceSink {
    /// Writes the trace to `out`.
    ///
    /// # Errors
    /// Propagates I/O errors from the underlying writer.
    fn emit(&self, trace: &Trace, out: &mut dyn Write) -> io::Result<()>;
}

fn span_object(span: &SpanRecord) -> String {
    let mut o = ObjectWriter::new();
    o.str("type", "span")
        .u64("id", span.id.0)
        .u64("parent", span.parent.map_or(0, |p| p.0))
        .str("kind", span.kind.name())
        .str("label", span.label)
        .u64("index", span.index)
        .u64("start_ns", span.start_ns)
        .u64("end_ns", span.end_ns)
        .u64("thread", span.thread);
    o.finish()
}

fn snapshot_object(snap: &CongestionSnapshot) -> String {
    let mut o = ObjectWriter::new();
    o.str("type", "congestion")
        .u64("pass", snap.pass as u64)
        .u64("channel_width", snap.channel_width as u64)
        .u64("positions", snap.positions as u64)
        .u64("used_positions", snap.used_positions as u64)
        .u64_array("histogram", snap.histogram.iter().map(|&v| v as u64))
        .u64("max_occupancy", u64::from(snap.max_occupancy))
        .u64("mean_occupancy_milli", snap.mean_occupancy_milli)
        .u64("saturated_positions", snap.saturated_positions as u64)
        .u64("overused_positions", snap.overused_positions as u64)
        .u64("max_overuse", u64::from(snap.max_overuse));
    o.finish()
}

fn histogram_object(name: &str, h: &Histogram) -> String {
    let mut buckets = String::from("[");
    for (i, (idx, n)) in h.iter_nonzero().enumerate() {
        if i > 0 {
            buckets.push(',');
        }
        buckets.push_str(&format!("[{idx},{n}]"));
    }
    buckets.push(']');
    let mut o = ObjectWriter::new();
    o.str("type", "histogram")
        .str("name", name)
        .u64("count", h.count())
        .u64("sum", h.sum())
        .u64("mean", h.mean())
        .u64("p50", h.quantile(0.50))
        .u64("p95", h.quantile(0.95))
        .u64("p99", h.quantile(0.99))
        .u64("max", h.max())
        .raw("buckets", &buckets);
    o.finish()
}

fn gauge_object(name: &str, value: u64) -> String {
    let mut o = ObjectWriter::new();
    o.str("type", "gauge").str("name", name).u64("value", value);
    o.finish()
}

fn profile_object(entry: &ProfileEntry) -> String {
    let mut o = ObjectWriter::new();
    o.str("type", "profile")
        .str("kind", entry.kind.name())
        .u64("count", entry.count)
        .u64("inclusive_ns", entry.inclusive_ns)
        .u64("exclusive_ns", entry.exclusive_ns);
    o.finish()
}

fn convergence_object(rec: &ConvergenceRecord) -> String {
    let mut o = ObjectWriter::new();
    o.str("type", "convergence")
        .u64("iteration", rec.iteration as u64)
        .u64("overcapacity", rec.overcapacity as u64)
        .u64("history_milli", rec.history_milli)
        .u64("nets_rerouted", rec.nets_rerouted as u64)
        .u64("present_milli", rec.present_milli)
        .u64("dirty_nets", rec.dirty_nets as u64);
    o.finish()
}

fn timeline_object(rec: &TimelineRecord) -> String {
    let mut o = ObjectWriter::new();
    o.str("type", "timeline")
        .u64("pass", rec.pass as u64)
        .u64("worker", rec.worker as u64)
        .str("role", rec.role)
        .u64("busy_ns", rec.busy_ns)
        .u64("nets", rec.nets as u64);
    o.finish()
}

/// Borrowed view of everything a session's tail carries (counters,
/// snapshots, and all the observability records) — one parameter pack
/// for the streaming sink so the collector and the batch sinks stay in
/// lockstep about what a complete trace contains.
pub(crate) struct Tail<'a> {
    pub(crate) counters: &'a CounterSet,
    pub(crate) snapshots: &'a [CongestionSnapshot],
    pub(crate) metrics: &'a HistogramSet,
    pub(crate) gauges: &'a GaugeSet,
    pub(crate) convergence: &'a [ConvergenceRecord],
    pub(crate) timelines: &'a [TimelineRecord],
    pub(crate) profile: &'a [ProfileEntry],
}

fn write_tail_lines(out: &mut dyn Write, tail: &Tail<'_>) -> io::Result<()> {
    for (c, v) in tail.counters.iter_nonzero() {
        let mut o = ObjectWriter::new();
        o.str("type", "counter").str("name", c.name()).u64("value", v);
        writeln!(out, "{}", o.finish())?;
    }
    for (m, h) in tail.metrics.iter_nonzero() {
        writeln!(out, "{}", histogram_object(m.name(), h))?;
    }
    for (g, v) in tail.gauges.iter_set() {
        writeln!(out, "{}", gauge_object(g.name(), v))?;
    }
    for entry in tail.profile {
        writeln!(out, "{}", profile_object(entry))?;
    }
    for rec in tail.convergence {
        writeln!(out, "{}", convergence_object(rec))?;
    }
    for rec in tail.timelines {
        writeln!(out, "{}", timeline_object(rec))?;
    }
    for snap in tail.snapshots {
        writeln!(out, "{}", snapshot_object(snap))?;
    }
    Ok(())
}

fn meta_object(trace: &Trace) -> String {
    let mut o = ObjectWriter::new();
    o.str("type", "meta")
        .str("format", "route-trace")
        .u64("version", 1)
        .u64("spans", trace.spans.len() as u64)
        .u64("snapshots", trace.snapshots.len() as u64);
    o.finish()
}

/// Streams a collector session as JSONL while it runs.
///
/// Construction writes the `meta` header immediately (span/snapshot
/// counts are reported as 0 — they are unknowable upfront; the line
/// carries `"mode":"stream"` so readers can tell). Every span is then
/// written and flushed the moment it closes — in *close* order, which
/// across worker threads is not start order — and
/// [`Collector::finish`](crate::Collector::finish) appends the merged
/// counters and congestion snapshots. Each emitted line validates
/// against [`json::validate`](crate::json::validate) exactly like
/// [`JsonlSink`] output, so `trace-check` accepts streamed files
/// unchanged.
pub struct StreamingJsonlSink {
    out: Box<dyn Write + Send>,
}

impl std::fmt::Debug for StreamingJsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingJsonlSink").finish_non_exhaustive()
    }
}

impl StreamingJsonlSink {
    /// Wraps a writer and emits the `meta` header line at once.
    ///
    /// # Errors
    /// Propagates I/O errors from writing the header.
    pub fn new(mut out: Box<dyn Write + Send>) -> io::Result<StreamingJsonlSink> {
        let mut o = ObjectWriter::new();
        o.str("type", "meta")
            .str("format", "route-trace")
            .u64("version", 1)
            .str("mode", "stream")
            .u64("spans", 0)
            .u64("snapshots", 0);
        writeln!(out, "{}", o.finish())?;
        out.flush()?;
        Ok(StreamingJsonlSink { out })
    }

    /// Appends one closed span and flushes so tails see it promptly.
    pub(crate) fn write_span(&mut self, span: &SpanRecord) -> io::Result<()> {
        writeln!(self.out, "{}", span_object(span))?;
        self.out.flush()
    }

    /// Appends the session's tail — merged counters, histograms, gauges,
    /// profile, convergence, timelines, and congestion snapshots — the
    /// collector calls this once, from `finish`.
    pub(crate) fn write_tail(&mut self, tail: &Tail<'_>) -> io::Result<()> {
        write_tail_lines(&mut self.out, tail)?;
        self.out.flush()
    }
}

/// Emits one JSON object per line: a `meta` header, then every span,
/// then the tail — nonzero counters, latency histograms, gauges, the
/// span-kind profile, convergence and timeline records, and every
/// congestion snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonlSink;

impl TraceSink for JsonlSink {
    fn emit(&self, trace: &Trace, out: &mut dyn Write) -> io::Result<()> {
        writeln!(out, "{}", meta_object(trace))?;
        for span in &trace.spans {
            writeln!(out, "{}", span_object(span))?;
        }
        write_tail_lines(
            out,
            &Tail {
                counters: &trace.counters,
                snapshots: &trace.snapshots,
                metrics: &trace.metrics,
                gauges: &trace.gauges,
                convergence: &trace.convergence,
                timelines: &trace.timelines,
                profile: &trace.profile,
            },
        )
    }
}

/// Emits the whole trace as one JSON document
/// (`{"meta":…,"spans":[…],"counters":{…},"histograms":[…],"gauges":{…},
/// "profile":[…],"convergence":[…],"timelines":[…],"congestion":[…]}`).
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonSink;

impl TraceSink for JsonSink {
    fn emit(&self, trace: &Trace, out: &mut dyn Write) -> io::Result<()> {
        let mut doc = String::from("{\"meta\":");
        doc.push_str(&meta_object(trace));
        doc.push_str(",\"spans\":[");
        for (i, span) in trace.spans.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&span_object(span));
        }
        doc.push_str("],\"counters\":{");
        for (i, (c, v)) in trace.counters.iter_nonzero().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            let mut pair = String::new();
            crate::json::write_str(&mut pair, c.name());
            doc.push_str(&pair);
            doc.push(':');
            doc.push_str(&v.to_string());
        }
        doc.push_str("},\"histograms\":[");
        for (i, (m, h)) in trace.metrics.iter_nonzero().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&histogram_object(m.name(), h));
        }
        doc.push_str("],\"gauges\":{");
        for (i, (g, v)) in trace.gauges.iter_set().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            let mut pair = String::new();
            crate::json::write_str(&mut pair, g.name());
            doc.push_str(&pair);
            doc.push(':');
            doc.push_str(&v.to_string());
        }
        doc.push_str("},\"profile\":[");
        for (i, entry) in trace.profile.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&profile_object(entry));
        }
        doc.push_str("],\"convergence\":[");
        for (i, rec) in trace.convergence.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&convergence_object(rec));
        }
        doc.push_str("],\"timelines\":[");
        for (i, rec) in trace.timelines.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&timeline_object(rec));
        }
        doc.push_str("],\"congestion\":[");
        for (i, snap) in trace.snapshots.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&snapshot_object(snap));
        }
        doc.push_str("]}");
        out.write_all(doc.as_bytes())?;
        out.write_all(b"\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::Counter;
    use crate::json::validate;
    use crate::metrics::{Gauge, Metric};
    use crate::span::SpanId;

    fn sample_trace() -> Trace {
        let mut counters = CounterSet::new();
        counters.add(Counter::DijkstraRelaxations, 42);
        counters.add(Counter::NetsRouted, 3);
        Trace {
            spans: vec![
                SpanRecord {
                    id: SpanId(1),
                    parent: None,
                    kind: SpanKind::Pass,
                    label: "pass",
                    index: 1,
                    start_ns: 0,
                    end_ns: 900,
                    thread: 0,
                },
                SpanRecord {
                    id: SpanId(2),
                    parent: Some(SpanId(1)),
                    kind: SpanKind::Net,
                    label: "net \"a\"",
                    index: 0,
                    start_ns: 10,
                    end_ns: 500,
                    thread: 1,
                },
            ],
            counters,
            snapshots: vec![CongestionSnapshot::from_usage(1, 2, &[1, 2, 0])],
            ..Trace::default()
        }
    }

    fn observability_trace() -> Trace {
        let mut trace = sample_trace();
        trace.metrics.record(Metric::NetRouteNs, 1500);
        trace.metrics.record(Metric::NetRouteNs, 90);
        trace.gauges.set(Gauge::PeakOvercapacityNodes, 4);
        trace.convergence.push(ConvergenceRecord {
            iteration: 1,
            overcapacity: 12,
            history_milli: 340,
            nets_rerouted: 5,
            present_milli: 250,
            dirty_nets: 7,
        });
        trace.timelines.push(TimelineRecord {
            pass: 1,
            worker: 0,
            role: "pf-worker",
            busy_ns: 700,
            nets: 2,
        });
        trace.profile = crate::profile::compute(&trace.spans);
        trace
    }

    #[test]
    fn jsonl_lines_are_each_valid_json() {
        let mut buf = Vec::new();
        JsonlSink.emit(&sample_trace(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // meta + 2 spans + 2 counters + 1 snapshot
        assert_eq!(lines.len(), 6);
        for line in &lines {
            validate(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        }
        assert!(lines[0].contains("\"type\":\"meta\""));
        assert!(lines[1].contains("\"parent\":0"));
        assert!(lines[2].contains("\"parent\":1"));
        assert!(text.contains("\"dijkstra_relaxations\""));
        assert!(text.contains("\"max_occupancy\":2"));
    }

    #[test]
    fn json_document_is_one_valid_value() {
        let mut buf = Vec::new();
        JsonSink.emit(&sample_trace(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        validate(text.trim_end()).unwrap();
        assert!(text.contains("\"spans\":["));
        assert!(text.contains("\"nets_routed\":3"));
    }

    #[test]
    fn empty_trace_emits_valid_output() {
        let trace = Trace::default();
        assert!(trace.is_empty());
        let mut buf = Vec::new();
        JsonlSink.emit(&trace, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 1); // meta only
        validate(text.trim_end()).unwrap();
        let mut buf = Vec::new();
        JsonSink.emit(&trace, &mut buf).unwrap();
        validate(String::from_utf8(buf).unwrap().trim_end()).unwrap();
    }

    #[test]
    fn jsonl_emits_every_observability_record_type() {
        let mut buf = Vec::new();
        JsonlSink.emit(&observability_trace(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for line in text.lines() {
            validate(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        }
        assert!(text.contains("\"type\":\"histogram\""));
        assert!(text.contains("\"name\":\"net_route_ns\""));
        assert!(text.contains("\"p50\":"));
        assert!(text.contains("\"type\":\"gauge\""));
        assert!(text.contains("\"name\":\"peak_overcapacity_nodes\""));
        assert!(text.contains("\"type\":\"profile\""));
        assert!(text.contains("\"inclusive_ns\":"));
        assert!(text.contains("\"type\":\"convergence\""));
        assert!(text.contains("\"present_milli\":250"));
        assert!(text.contains("\"type\":\"timeline\""));
        assert!(text.contains("\"role\":\"pf-worker\""));
    }

    #[test]
    fn json_document_carries_observability_sections() {
        let mut buf = Vec::new();
        JsonSink.emit(&observability_trace(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        validate(text.trim_end()).unwrap();
        assert!(text.contains("\"histograms\":["));
        assert!(text.contains("\"gauges\":{\"peak_overcapacity_nodes\":4}"));
        assert!(text.contains("\"profile\":["));
        assert!(text.contains("\"convergence\":["));
        assert!(text.contains("\"timelines\":["));
    }

    #[test]
    fn summary_mentions_histograms_and_gauges() {
        let s = observability_trace().summary();
        assert!(s.contains("net_route_ns"));
        assert!(s.contains("p95="));
        assert!(s.contains("peak_overcapacity_nodes"));
    }

    #[test]
    fn summary_mentions_nonzero_counters() {
        let s = sample_trace().summary();
        assert!(s.contains("dijkstra_relaxations"));
        assert!(s.contains("pass  1 congestion"));
        assert!(!s.contains("pfa_folds"));
    }
}
