//! Hierarchical spans: named, timed intervals forming a tree.
//!
//! The routing pipeline nests naturally —
//! `width_search > attempt > pass > net > heuristic phase` — and spans
//! record that nesting explicitly: every span carries its parent's id, so
//! a flat JSONL stream reconstructs the full tree even when nets were
//! routed on worker threads. Timing is monotonic (`Instant`-based),
//! reported as nanoseconds since the collector's epoch.

/// The level of the routing hierarchy a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A whole minimum-channel-width search.
    WidthSearch,
    /// One routing attempt at a probed channel width.
    Attempt,
    /// One routing pass over the net order.
    Pass,
    /// One net's routing.
    Net,
    /// One heuristic construction phase within a net.
    Phase,
}

impl SpanKind {
    /// Stable snake_case name used in emitted JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::WidthSearch => "width_search",
            SpanKind::Attempt => "attempt",
            SpanKind::Pass => "pass",
            SpanKind::Net => "net",
            SpanKind::Phase => "phase",
        }
    }
}

/// Identifier of a recorded span; unique within one collector session.
///
/// Ids start at 1; `SpanId(0)` is never issued, so a parent id of 0 in
/// emitted JSON means "root".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// A completed span, as stored by the collector and emitted by sinks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// This span's id (unique within the collector session).
    pub id: SpanId,
    /// The enclosing span, or `None` for roots.
    pub parent: Option<SpanId>,
    /// Hierarchy level.
    pub kind: SpanKind,
    /// Human-readable label (e.g. the heuristic name for phases).
    pub label: &'static str,
    /// Free numeric payload: pass number for passes, net index for nets,
    /// probed channel width for attempts; 0 when unused.
    pub index: u64,
    /// Start, in nanoseconds since the collector epoch (monotonic).
    pub start_ns: u64,
    /// End, in nanoseconds since the collector epoch (monotonic).
    pub end_ns: u64,
    /// Collector-assigned id of the thread that recorded the span.
    pub thread: u64,
}

impl SpanRecord {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(SpanKind::WidthSearch.name(), "width_search");
        assert_eq!(SpanKind::Phase.name(), "phase");
    }

    #[test]
    fn duration_saturates() {
        let r = SpanRecord {
            id: SpanId(1),
            parent: None,
            kind: SpanKind::Pass,
            label: "pass",
            index: 1,
            start_ns: 10,
            end_ns: 4,
            thread: 0,
        };
        assert_eq!(r.duration_ns(), 0);
    }
}
