//! Zero-dependency routing telemetry.
//!
//! The routing pipeline is a hierarchy — a minimum-channel-width search
//! probes widths, each attempt runs passes, each pass routes nets, each
//! net runs a Steiner heuristic — and questions about its behaviour
//! ("why did width 9 fail?", "where do the relaxations go?") need
//! visibility at every level. This crate provides that visibility with
//! three primitives:
//!
//! * **Spans** ([`span`]): timed, nested intervals mirroring the
//!   hierarchy (`width_search > attempt > pass > net > phase`), safe to
//!   record from PathFinder's route-phase worker threads.
//! * **Counters** ([`count`], [`Counter`]): dense tallies of algorithm
//!   events — Dijkstra relaxations, Steiner candidate evaluations,
//!   conflict-detector accepts — merged across threads.
//! * **Congestion snapshots** ([`record_snapshot`]): per-pass channel
//!   occupancy histograms.
//!
//! The observability suite layers four more on the same machinery:
//! latency **histograms** ([`record_duration`], [`Metric`]) and
//! **gauges** ([`set_gauge`], [`Gauge`]) merged per-worker exactly like
//! counters, per-iteration PathFinder **convergence records**
//! ([`record_convergence`]), per-worker scheduler **timelines**
//! ([`record_timeline`]), and a post-hoc **self-profiler**
//! ([`ProfileEntry`]) attributing wall-clock to the span hierarchy.
//! [`report`] renders all of it as text tables and diffs benchmark
//! result files.
//!
//! # Cost model
//!
//! With no collector installed every entry point is one relaxed atomic
//! load; instrumented hot loops keep local tallies and flush once, so
//! routing with tracing disabled measures within noise of untraced code.
//! With a collector installed, events buffer in thread-local storage
//! (merged by [`flush_thread`], which [`worker`] calls before a scoped
//! worker returns), so worker threads never contend on a shared lock per
//! event.
//!
//! # Usage
//!
//! ```
//! use route_trace::{Collector, Counter, JsonlSink, SpanKind, TraceSink};
//!
//! let collector = Collector::install();
//! {
//!     let _pass = route_trace::span(SpanKind::Pass, "pass", 1);
//!     route_trace::count(Counter::NetsRouted, 1);
//! }
//! let trace = collector.finish();
//! let mut jsonl = Vec::new();
//! JsonlSink.emit(&trace, &mut jsonl).unwrap();
//! assert!(std::str::from_utf8(&jsonl).unwrap().lines().count() >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
mod collector;
mod congestion;
mod counter;
pub mod json;
mod metrics;
mod profile;
pub mod report;
mod sink;
mod span;

pub use collector::{
    count, current_span, enabled, flush_thread, record_convergence, record_duration,
    record_snapshot, record_timeline, set_gauge, span, timer, worker, Collector, MetricTimer,
    SpanGuard,
};
pub use congestion::CongestionSnapshot;
pub use counter::{Counter, CounterSet};
pub use metrics::{
    bucket_index, bucket_upper_bound, ConvergenceRecord, Gauge, GaugeSet, Histogram, HistogramSet,
    Metric, TimelineRecord, HISTOGRAM_BUCKETS,
};
pub use profile::{compute as compute_profile, ProfileEntry};
pub use sink::{JsonSink, JsonlSink, StreamingJsonlSink, Trace, TraceSink};
pub use span::{SpanId, SpanKind, SpanRecord};
