//! The in-memory trace collector and its per-thread buffers.
//!
//! Design constraints, in priority order:
//!
//! 1. **Near-zero cost when disabled.** Every instrumentation entry point
//!    first reads one relaxed atomic ([`enabled`]); with no collector
//!    installed that load is the *entire* cost, so instrumented hot loops
//!    (Dijkstra relaxations) stay at hardware speed.
//! 2. **No contention when enabled.** Spans and counters land in a
//!    per-thread buffer ([`LocalBuf`]); the shared state is touched only
//!    when a buffer flushes — at thread exit for scoped workers (PathFinder
//!    route-phase workers and width probes, when their scope joins) and at
//!    [`Collector::finish`] for the installing thread. Congestion
//!    snapshots are once-per-pass, so they go straight to the shared side.
//! 3. **Sound under worker churn.** PathFinder spawns fresh scoped
//!    threads every iteration. Buffers attach lazily (first event) and
//!    carry a generation stamp, so a stale buffer from a previous
//!    collector session can never pollute the current one.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::congestion::CongestionSnapshot;
use crate::counter::{Counter, CounterSet};
use crate::metrics::{ConvergenceRecord, Gauge, GaugeSet, HistogramSet, Metric, TimelineRecord};
use crate::profile;
use crate::sink::{StreamingJsonlSink, Trace};
use crate::span::{SpanId, SpanKind, SpanRecord};

/// Fast path gate: `true` while a collector is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Bumped on every install/finish; invalidates stale thread-local buffers.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// The currently installed collector's shared state.
fn registry() -> &'static Mutex<Option<Arc<Shared>>> {
    static REGISTRY: OnceLock<Mutex<Option<Arc<Shared>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(None))
}

/// State shared by all threads feeding one collector session.
struct Shared {
    epoch: Instant,
    next_span: AtomicU64,
    next_thread: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    snapshots: Mutex<Vec<CongestionSnapshot>>,
    counters: Mutex<CounterSet>,
    metrics: Mutex<HistogramSet>,
    gauges: Mutex<GaugeSet>,
    /// Once-per-iteration PathFinder convergence records; rare, so they
    /// go straight to the shared side like snapshots.
    convergence: Mutex<Vec<ConvergenceRecord>>,
    /// Once-per-worker-per-iteration timelines; same rarity rule.
    timelines: Mutex<Vec<TimelineRecord>>,
    /// `true` when `stream` holds a sink — checked (relaxed) before
    /// taking the stream lock so non-streaming sessions pay one atomic
    /// load per closed span, never a lock.
    streaming: AtomicBool,
    /// Write-through sink for streaming sessions; spans append here as
    /// they close, the tail (counters + snapshots) at `finish`.
    stream: Mutex<Option<StreamingJsonlSink>>,
}

impl Shared {
    fn new(stream: Option<StreamingJsonlSink>) -> Shared {
        Shared {
            epoch: Instant::now(),
            next_span: AtomicU64::new(1),
            next_thread: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            snapshots: Mutex::new(Vec::new()),
            counters: Mutex::new(CounterSet::new()),
            metrics: Mutex::new(HistogramSet::new()),
            gauges: Mutex::new(GaugeSet::new()),
            convergence: Mutex::new(Vec::new()),
            timelines: Mutex::new(Vec::new()),
            streaming: AtomicBool::new(stream.is_some()),
            stream: Mutex::new(stream),
        }
    }

    /// Streams a just-closed span when this is a streaming session.
    /// Errors are swallowed: this runs inside `Drop` and a torn tail is
    /// precisely what a streamed trace's reader must tolerate anyway.
    fn stream_span(&self, record: &SpanRecord) {
        if !self.streaming.load(Ordering::Relaxed) {
            return;
        }
        if let Ok(mut slot) = self.stream.lock() {
            if let Some(sink) = slot.as_mut() {
                let _ = sink.write_span(record);
            }
        }
    }
}

/// One thread's private buffer; merged into [`Shared`] on flush.
struct LocalBuf {
    generation: u64,
    shared: Option<Arc<Shared>>,
    thread: u64,
    counters: CounterSet,
    metrics: HistogramSet,
    gauges: GaugeSet,
    spans: Vec<SpanRecord>,
    stack: Vec<SpanId>,
    /// Parent adopted from the spawning thread (worker threads): roots
    /// recorded on this thread nest under the adopter's span.
    adopted_parent: Option<SpanId>,
}

impl LocalBuf {
    fn new() -> LocalBuf {
        LocalBuf {
            generation: 0,
            shared: None,
            thread: 0,
            counters: CounterSet::new(),
            metrics: HistogramSet::new(),
            gauges: GaugeSet::new(),
            spans: Vec::new(),
            stack: Vec::new(),
            adopted_parent: None,
        }
    }

    /// Re-attaches to the current collector if the generation moved on,
    /// flushing anything buffered for the previous session first.
    fn ensure_attached(&mut self) -> bool {
        let current = GENERATION.load(Ordering::Acquire);
        if self.generation != current {
            self.flush();
            self.generation = current;
            self.stack.clear();
            self.adopted_parent = None;
            self.shared = registry().lock().expect("trace registry poisoned").clone();
            if let Some(shared) = &self.shared {
                self.thread = shared.next_thread.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.shared.is_some()
    }

    /// Merges buffered spans, counters, metrics, and gauges into the
    /// shared state. Histogram and gauge merges are commutative and
    /// associative, so (as for counters) worker join order cannot change
    /// the merged result.
    fn flush(&mut self) {
        let Some(shared) = &self.shared else {
            self.spans.clear();
            self.counters = CounterSet::new();
            self.metrics = HistogramSet::new();
            self.gauges = GaugeSet::new();
            return;
        };
        if !self.spans.is_empty() {
            shared
                .spans
                .lock()
                .expect("trace span store poisoned")
                .append(&mut self.spans);
        }
        if !self.counters.is_empty() {
            shared
                .counters
                .lock()
                .expect("trace counter store poisoned")
                .merge(&self.counters);
            self.counters = CounterSet::new();
        }
        if !self.metrics.is_empty() {
            shared
                .metrics
                .lock()
                .expect("trace metric store poisoned")
                .merge(&self.metrics);
            self.metrics = HistogramSet::new();
        }
        if !self.gauges.is_empty() {
            shared
                .gauges
                .lock()
                .expect("trace gauge store poisoned")
                .merge(&self.gauges);
            self.gauges = GaugeSet::new();
        }
    }
}

impl Drop for LocalBuf {
    /// A thread that never flushed merges its buffer at exit. Scoped
    /// workers must not rely on this: the destructor can run after their
    /// scope has joined, so they flush through [`worker`] instead.
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf::new());
}

/// `true` while a collector is installed.
///
/// This is the instrumentation fast path: one relaxed atomic load. Every
/// other entry point checks it first and returns immediately when `false`.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds `n` to a counter in the current thread's buffer. No-op when no
/// collector is installed.
#[inline]
pub fn count(c: Counter, n: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.ensure_attached() {
            buf.counters.add(c, n);
        }
    });
}

/// Records one latency sample (nanoseconds) into a metric histogram in
/// the current thread's buffer. No-op when no collector is installed.
#[inline]
pub fn record_duration(metric: Metric, nanos: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.ensure_attached() {
            buf.metrics.record(metric, nanos);
        }
    });
}

/// Offers a gauge observation in the current thread's buffer; the
/// session keeps the maximum offered across all threads. No-op when no
/// collector is installed.
#[inline]
pub fn set_gauge(gauge: Gauge, value: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.ensure_attached() {
            buf.gauges.set(gauge, value);
        }
    });
}

/// Records one PathFinder iteration's convergence state. Once per
/// iteration, so it goes straight to the shared store like snapshots.
pub fn record_convergence(record: ConvergenceRecord) {
    if !enabled() {
        return;
    }
    let shared = registry().lock().expect("trace registry poisoned").clone();
    if let Some(shared) = shared {
        shared
            .convergence
            .lock()
            .expect("trace convergence store poisoned")
            .push(record);
    }
}

/// Records one worker's per-iteration timeline. Once per worker per
/// iteration, so it goes straight to the shared store.
pub fn record_timeline(record: TimelineRecord) {
    if !enabled() {
        return;
    }
    let shared = registry().lock().expect("trace registry poisoned").clone();
    if let Some(shared) = shared {
        shared
            .timelines
            .lock()
            .expect("trace timeline store poisoned")
            .push(record);
    }
}

/// Opens a span at the given hierarchy level. The returned guard records
/// the span into the thread's buffer when dropped; when no collector is
/// installed the guard is inert and the call costs one atomic load.
///
/// `index` is a free numeric payload (pass number, net index, probed
/// width); pass 0 when unused.
#[inline]
#[must_use = "the span closes when the guard drops; binding it to _ records a zero-length span"]
pub fn span(kind: SpanKind, label: &'static str, index: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    LOCAL.with(|cell| {
        let mut buf = cell.borrow_mut();
        if !buf.ensure_attached() {
            return SpanGuard(None);
        }
        let shared = buf.shared.as_ref().expect("attached implies shared").clone();
        let id = SpanId(shared.next_span.fetch_add(1, Ordering::Relaxed));
        let parent = buf.stack.last().copied().or(buf.adopted_parent);
        buf.stack.push(id);
        SpanGuard(Some(ActiveSpan {
            generation: buf.generation,
            epoch: shared.epoch,
            start_ns: elapsed_ns(shared.epoch),
            id,
            parent,
            kind,
            label,
            index,
        }))
    })
}

/// The innermost span currently open on this thread (if any), for handing
/// to [`worker`] on freshly spawned worker threads.
#[must_use]
pub fn current_span() -> Option<SpanId> {
    if !enabled() {
        return None;
    }
    LOCAL.with(|cell| {
        let mut buf = cell.borrow_mut();
        if !buf.ensure_attached() {
            return None;
        }
        buf.stack.last().copied().or(buf.adopted_parent)
    })
}

/// Declares `parent` the enclosing span for roots recorded on *this*
/// thread, so worker-side net spans nest under the pass span instead of
/// floating free.
fn adopt_parent(parent: Option<SpanId>) {
    if !enabled() {
        return;
    }
    LOCAL.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.ensure_attached() {
            buf.adopted_parent = parent;
        }
    });
}

/// Records a per-pass congestion snapshot. Snapshots are rare (one per
/// pass), so they go straight to the shared store.
pub fn record_snapshot(snapshot: CongestionSnapshot) {
    if !enabled() {
        return;
    }
    let shared = registry().lock().expect("trace registry poisoned").clone();
    if let Some(shared) = shared {
        shared
            .snapshots
            .lock()
            .expect("trace snapshot store poisoned")
            .push(snapshot);
    }
}

/// Flushes the current thread's buffer into the shared collector.
///
/// [`worker`] bodies flush on return; long-lived threads that outlive a
/// routing call can flush explicitly so a subsequent
/// [`Collector::finish`] on another thread sees their events.
pub fn flush_thread() {
    LOCAL.with(|cell| cell.borrow_mut().flush());
}

/// Runs `body` as a worker of the span `parent` (the spawning thread's
/// [`current_span`]): roots recorded on this thread nest under `parent`,
/// and the thread's buffer merges into the collector before `worker`
/// returns, on unwind too. Call it as the whole body of a scoped spawn,
/// so everything the worker recorded is merged by the time its scope
/// joins; a thread-local destructor can run after the join.
pub fn worker<R>(parent: Option<SpanId>, body: impl FnOnce() -> R) -> R {
    struct FlushOnDrop;
    impl Drop for FlushOnDrop {
        fn drop(&mut self) {
            flush_thread();
        }
    }
    adopt_parent(parent);
    let _flush = FlushOnDrop;
    body()
}

/// Starts timing one sample of `metric`; the returned guard records the
/// elapsed wall-clock when it drops. Inert when no collector is
/// installed.
#[must_use = "the sample is recorded when the guard drops"]
pub fn timer(metric: Metric) -> MetricTimer {
    MetricTimer(enabled().then(|| (metric, Instant::now())))
}

/// Guard returned by [`timer`].
#[must_use = "dropping the guard records the sample"]
pub struct MetricTimer(Option<(Metric, Instant)>);

impl Drop for MetricTimer {
    fn drop(&mut self) {
        if let Some((metric, started)) = self.0.take() {
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            record_duration(metric, nanos);
        }
    }
}

fn elapsed_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Guard for an open span; records the span on drop.
#[must_use = "dropping the guard closes the span"]
pub struct SpanGuard(Option<ActiveSpan>);

struct ActiveSpan {
    generation: u64,
    epoch: Instant,
    start_ns: u64,
    id: SpanId,
    parent: Option<SpanId>,
    kind: SpanKind,
    label: &'static str,
    index: u64,
}

impl SpanGuard {
    /// The id of the open span, or `None` for an inert guard.
    #[must_use]
    pub fn id(&self) -> Option<SpanId> {
        self.0.as_ref().map(|s| s.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else {
            return;
        };
        let end_ns = elapsed_ns(active.epoch);
        LOCAL.with(|cell| {
            let mut buf = cell.borrow_mut();
            // If the collector changed under us, the session this span
            // belongs to is over: discard rather than misfile it.
            if buf.generation != active.generation || buf.shared.is_none() {
                return;
            }
            if buf.stack.last() == Some(&active.id) {
                buf.stack.pop();
            } else {
                // Out-of-order drop (shouldn't happen with guard scoping);
                // drop the id wherever it is to keep the stack sane.
                buf.stack.retain(|&id| id != active.id);
            }
            let thread = buf.thread;
            let record = SpanRecord {
                id: active.id,
                parent: active.parent,
                kind: active.kind,
                label: active.label,
                index: active.index,
                start_ns: active.start_ns,
                end_ns,
                thread,
            };
            if let Some(shared) = &buf.shared {
                shared.stream_span(&record);
            }
            buf.spans.push(record);
        });
    }
}

/// An installed trace collector session.
///
/// Exactly one collector is active at a time; installing a new one ends
/// the previous session (its unflushed thread buffers are discarded).
///
/// # Example
///
/// ```
/// use route_trace::{Collector, Counter, SpanKind};
///
/// let collector = Collector::install();
/// {
///     let _pass = route_trace::span(SpanKind::Pass, "pass", 1);
///     route_trace::count(Counter::NetsRouted, 3);
/// }
/// let trace = collector.finish();
/// assert_eq!(trace.spans.len(), 1);
/// assert_eq!(trace.counters.get(Counter::NetsRouted), 3);
/// ```
pub struct Collector {
    shared: Arc<Shared>,
    generation: u64,
}

impl Collector {
    /// Installs a fresh collector and enables tracing globally.
    pub fn install() -> Collector {
        Collector::install_with(None)
    }

    /// Installs a collector that *streams*: the JSONL `meta` header is
    /// written to `out` immediately, every span's line is appended (and
    /// flushed) as the span closes, and [`finish`](Collector::finish)
    /// appends the merged counters and congestion snapshots. The
    /// finished [`Trace`] is still returned as usual, so summaries keep
    /// working.
    ///
    /// # Errors
    /// Propagates I/O errors from writing the header; the collector is
    /// not installed on failure.
    pub fn install_streaming(out: Box<dyn std::io::Write + Send>) -> std::io::Result<Collector> {
        Ok(Collector::install_with(Some(StreamingJsonlSink::new(out)?)))
    }

    fn install_with(stream: Option<StreamingJsonlSink>) -> Collector {
        let shared = Arc::new(Shared::new(stream));
        let mut slot = registry().lock().expect("trace registry poisoned");
        *slot = Some(shared.clone());
        let generation = GENERATION.fetch_add(1, Ordering::AcqRel) + 1;
        ENABLED.store(true, Ordering::Release);
        drop(slot);
        Collector { shared, generation }
    }

    /// Ends the session and returns everything recorded.
    ///
    /// Flushes the calling thread's buffer first; worker threads flushed
    /// when they exited. If a newer collector was installed meanwhile,
    /// tracing stays enabled for it and this returns only this session's
    /// data.
    #[must_use]
    pub fn finish(self) -> Trace {
        flush_thread();
        {
            let mut slot = registry().lock().expect("trace registry poisoned");
            let still_current = GENERATION.load(Ordering::Acquire) == self.generation;
            if still_current {
                ENABLED.store(false, Ordering::Release);
                GENERATION.fetch_add(1, Ordering::AcqRel);
                *slot = None;
            }
        }
        let spans = {
            let mut spans = self
                .shared
                .spans
                .lock()
                .expect("trace span store poisoned");
            std::mem::take(&mut *spans)
        };
        let mut spans = spans;
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let snapshots = {
            let mut snaps = self
                .shared
                .snapshots
                .lock()
                .expect("trace snapshot store poisoned");
            std::mem::take(&mut *snaps)
        };
        let counters = {
            let counters = self
                .shared
                .counters
                .lock()
                .expect("trace counter store poisoned");
            counters.clone()
        };
        let metrics = {
            let metrics = self
                .shared
                .metrics
                .lock()
                .expect("trace metric store poisoned");
            metrics.clone()
        };
        let gauges = {
            let gauges = self
                .shared
                .gauges
                .lock()
                .expect("trace gauge store poisoned");
            gauges.clone()
        };
        let mut convergence = {
            let mut conv = self
                .shared
                .convergence
                .lock()
                .expect("trace convergence store poisoned");
            std::mem::take(&mut *conv)
        };
        convergence.sort_by_key(|c| c.iteration);
        let mut timelines = {
            let mut tl = self
                .shared
                .timelines
                .lock()
                .expect("trace timeline store poisoned");
            std::mem::take(&mut *tl)
        };
        timelines.sort_by_key(|t| (t.pass, t.role, t.worker));
        let profile = profile::compute(&spans);
        self.shared.streaming.store(false, Ordering::Relaxed);
        let stream = self.shared.stream.lock().ok().and_then(|mut s| s.take());
        if let Some(mut sink) = stream {
            let tail = crate::sink::Tail {
                counters: &counters,
                snapshots: &snapshots,
                metrics: &metrics,
                gauges: &gauges,
                convergence: &convergence,
                timelines: &timelines,
                profile: &profile,
            };
            let _ = sink.write_tail(&tail);
        }
        Trace {
            spans,
            counters,
            snapshots,
            metrics,
            gauges,
            convergence,
            timelines,
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Collector state is process-global; serialize the tests that install
    // one so `cargo test`'s parallel runner cannot interleave sessions.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_is_inert() {
        let _gate = serial();
        assert!(!enabled());
        count(Counter::NetsRouted, 5); // must not panic or leak anywhere
        let guard = span(SpanKind::Net, "net", 0);
        assert!(guard.id().is_none());
        drop(guard);
        assert!(current_span().is_none());
    }

    #[test]
    fn spans_nest_and_counters_accumulate() {
        let _gate = serial();
        let collector = Collector::install();
        {
            let pass = span(SpanKind::Pass, "pass", 1);
            let pass_id = pass.id().unwrap();
            assert_eq!(current_span(), Some(pass_id));
            {
                let net = span(SpanKind::Net, "net", 7);
                assert_eq!(
                    net.id().map(|i| i.0 > pass_id.0),
                    Some(true),
                    "ids are issued in order"
                );
                count(Counter::DijkstraRuns, 2);
            }
            count(Counter::DijkstraRuns, 1);
        }
        let trace = collector.finish();
        assert!(!enabled());
        assert_eq!(trace.spans.len(), 2);
        let pass = trace
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Pass)
            .unwrap();
        let net = trace.spans.iter().find(|s| s.kind == SpanKind::Net).unwrap();
        assert_eq!(pass.parent, None);
        assert_eq!(net.parent, Some(pass.id));
        assert_eq!(net.index, 7);
        assert!(net.start_ns >= pass.start_ns);
        assert!(net.end_ns <= pass.end_ns);
        assert_eq!(trace.counters.get(Counter::DijkstraRuns), 3);
    }

    #[test]
    fn worker_threads_merge_at_the_join_and_adopt_parents() {
        let _gate = serial();
        // Repeated, because a merge that races the join only loses events
        // on some runs.
        for cycle in 0..200 {
            let collector = Collector::install();
            let pass = span(SpanKind::Pass, "pass", 1);
            let parent = pass.id();
            std::thread::scope(|scope| {
                for w in 0..4u64 {
                    let parent = current_span();
                    scope.spawn(move || {
                        worker(parent, || {
                            let _net = span(SpanKind::Net, "net", w);
                            count(Counter::NetsRouted, 1);
                            record_duration(Metric::NetRouteNs, 10);
                        });
                    });
                }
            });
            drop(pass);
            let trace = collector.finish();
            assert_eq!(trace.counters.get(Counter::NetsRouted), 4, "cycle {cycle}");
            assert_eq!(trace.metrics.get(Metric::NetRouteNs).count(), 4, "cycle {cycle}");
            let nets: Vec<_> = trace
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Net)
                .collect();
            assert_eq!(nets.len(), 4, "cycle {cycle}");
            for net in nets {
                assert_eq!(net.parent, parent, "cycle {cycle}");
            }
            // 1 pass + 4 nets, each from a distinct worker thread.
            let threads: std::collections::HashSet<u64> =
                trace.spans.iter().map(|s| s.thread).collect();
            assert!(threads.len() >= 2, "cycle {cycle}");
        }
    }

    #[test]
    fn worker_flushes_when_its_body_panics() {
        let _gate = serial();
        let collector = Collector::install();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                worker(None, || {
                    count(Counter::NetsRouted, 1);
                    panic!("worker body failed");
                })
            });
            assert!(handle.join().is_err());
        });
        let trace = collector.finish();
        assert_eq!(trace.counters.get(Counter::NetsRouted), 1);
    }

    #[test]
    fn timer_records_one_sample_only_while_enabled() {
        let _gate = serial();
        drop(timer(Metric::SteinerVerifyNs));
        let collector = Collector::install();
        drop(timer(Metric::SteinerVerifyNs));
        let trace = collector.finish();
        assert_eq!(trace.metrics.get(Metric::SteinerVerifyNs).count(), 1);
        assert_eq!(trace.metrics.get(Metric::SteinerScreenNs).count(), 0);
    }

    #[test]
    fn snapshots_are_collected() {
        let _gate = serial();
        let collector = Collector::install();
        record_snapshot(CongestionSnapshot::from_usage(1, 4, &[1, 2, 0]));
        record_snapshot(CongestionSnapshot::from_usage(2, 4, &[3, 4, 4]));
        let trace = collector.finish();
        assert_eq!(trace.snapshots.len(), 2);
        assert_eq!(trace.snapshots[1].pass, 2);
    }

    /// A cloneable in-memory writer so the test can watch the stream
    /// grow while the collector still owns the sink.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streaming_appends_spans_as_they_close_and_tail_at_finish() {
        let _gate = serial();
        let buf = SharedBuf::default();
        let collector = Collector::install_streaming(Box::new(buf.clone())).unwrap();
        let header = buf.text();
        assert_eq!(header.lines().count(), 1, "meta header written at install");
        assert!(header.contains("\"mode\":\"stream\""));
        {
            let _pass = span(SpanKind::Pass, "pass", 1);
            let _net = span(SpanKind::Net, "net", 3);
        }
        let mid = buf.text();
        assert_eq!(
            mid.lines().count(),
            3,
            "both spans streamed the moment their guards dropped"
        );
        count(Counter::NetsRouted, 2);
        record_snapshot(CongestionSnapshot::from_usage(1, 2, &[1, 0]));
        let trace = collector.finish();
        assert_eq!(trace.spans.len(), 2, "finish still returns the full trace");
        let text = buf.text();
        for line in text.lines() {
            crate::json::validate(line)
                .unwrap_or_else(|e| panic!("bad streamed line {line:?}: {e}"));
        }
        assert!(text.contains("\"kind\":\"pass\""));
        assert!(text.contains("\"name\":\"nets_routed\""));
        assert!(text.contains("\"type\":\"congestion\""));
        // Close order: the net guard dropped before the pass guard.
        let net_pos = text.find("\"kind\":\"net\"").unwrap();
        let pass_pos = text.find("\"kind\":\"pass\"").unwrap();
        assert!(net_pos < pass_pos);
    }

    #[test]
    fn reinstall_discards_stale_session_events() {
        let _gate = serial();
        let first = Collector::install();
        count(Counter::NetsRouted, 1);
        let second = Collector::install();
        // This lands in the second session.
        count(Counter::NetsRouted, 10);
        let second_trace = second.finish();
        let first_trace = first.finish();
        assert_eq!(second_trace.counters.get(Counter::NetsRouted), 10);
        // The first session kept what was flushed into it before the
        // takeover (the re-attach flush routed the `1` to it).
        assert!(first_trace.counters.get(Counter::NetsRouted) <= 1);
        assert!(!enabled());
    }
}
