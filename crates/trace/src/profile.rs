//! Self-profiler: wall-clock attribution over the span hierarchy.
//!
//! The span tree (`width_search > attempt > pass > net > phase`) already
//! carries every timestamp a profiler needs; this module folds it into
//! one [`ProfileEntry`] per [`SpanKind`] — how many spans of that kind
//! ran, their **inclusive** time (sum of durations), and their
//! **exclusive** time (inclusive minus the inclusive time of *direct*
//! children), which is where the "time not explained by a deeper level"
//! question is answered. Computed post-hoc at
//! [`Collector::finish`](crate::Collector::finish) from the recorded
//! spans, so the profiler adds zero cost to the routing hot path beyond
//! the spans that already exist.

use std::collections::HashMap;

use crate::span::{SpanKind, SpanRecord};

/// Aggregated wall-clock attribution for one span kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileEntry {
    /// The span kind this row aggregates.
    pub kind: SpanKind,
    /// Spans of this kind recorded.
    pub count: u64,
    /// Sum of span durations (children included), saturating.
    pub inclusive_ns: u64,
    /// Inclusive time minus direct children's inclusive time: wall-clock
    /// spent at this level itself, saturating at zero per span (clock
    /// skew across worker threads can make a child appear longer than
    /// its parent).
    pub exclusive_ns: u64,
}

/// Folds `spans` into one entry per kind that actually occurs, ordered
/// by hierarchy level (outermost first).
#[must_use]
pub fn compute(spans: &[SpanRecord]) -> Vec<ProfileEntry> {
    if spans.is_empty() {
        return Vec::new();
    }
    // Direct-children inclusive time, keyed by parent span id.
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            let slot = child_ns.entry(parent.0).or_insert(0);
            *slot = slot.saturating_add(s.duration_ns());
        }
    }
    const ORDER: [SpanKind; 5] = [
        SpanKind::WidthSearch,
        SpanKind::Attempt,
        SpanKind::Pass,
        SpanKind::Net,
        SpanKind::Phase,
    ];
    let mut entries: Vec<ProfileEntry> = ORDER
        .iter()
        .map(|&kind| ProfileEntry {
            kind,
            count: 0,
            inclusive_ns: 0,
            exclusive_ns: 0,
        })
        .collect();
    for s in spans {
        let slot = entries
            .iter_mut()
            .find(|e| e.kind == s.kind)
            .expect("ORDER covers every SpanKind");
        let inclusive = s.duration_ns();
        let children = child_ns.get(&s.id.0).copied().unwrap_or(0);
        slot.count = slot.count.saturating_add(1);
        slot.inclusive_ns = slot.inclusive_ns.saturating_add(inclusive);
        slot.exclusive_ns = slot
            .exclusive_ns
            .saturating_add(inclusive.saturating_sub(children));
    }
    entries.retain(|e| e.count > 0);
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanId;

    fn span(
        id: u64,
        parent: Option<u64>,
        kind: SpanKind,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            id: SpanId(id),
            parent: parent.map(SpanId),
            kind,
            label: "t",
            index: 0,
            start_ns,
            end_ns,
            thread: 0,
        }
    }

    #[test]
    fn empty_spans_profile_to_nothing() {
        assert!(compute(&[]).is_empty());
    }

    #[test]
    fn inclusive_and_exclusive_attribution() {
        // pass [0,100] > net [10,60] > phase [20,50]; second net [60,90].
        let spans = vec![
            span(1, None, SpanKind::Pass, 0, 100),
            span(2, Some(1), SpanKind::Net, 10, 60),
            span(3, Some(2), SpanKind::Phase, 20, 50),
            span(4, Some(1), SpanKind::Net, 60, 90),
        ];
        let profile = compute(&spans);
        assert_eq!(profile.len(), 3);
        let pass = &profile[0];
        assert_eq!(pass.kind, SpanKind::Pass);
        assert_eq!(pass.count, 1);
        assert_eq!(pass.inclusive_ns, 100);
        assert_eq!(pass.exclusive_ns, 20, "100 - (50 + 30) direct children");
        let net = &profile[1];
        assert_eq!(net.kind, SpanKind::Net);
        assert_eq!(net.count, 2);
        assert_eq!(net.inclusive_ns, 80);
        assert_eq!(net.exclusive_ns, 50, "(50 - 30) + (30 - 0)");
        let phase = &profile[2];
        assert_eq!(phase.kind, SpanKind::Phase);
        assert_eq!(phase.exclusive_ns, 30, "leaves keep their full time");
        assert!(
            profile.windows(2).all(|w| w[0].kind != w[1].kind),
            "one entry per kind"
        );
    }

    #[test]
    fn skewed_child_clocks_saturate_exclusive_at_zero() {
        // A worker-thread child whose recorded duration exceeds the
        // parent's — exclusive must not wrap.
        let spans = vec![
            span(1, None, SpanKind::Pass, 0, 10),
            span(2, Some(1), SpanKind::Net, 0, 50),
        ];
        let profile = compute(&spans);
        let pass = profile.iter().find(|e| e.kind == SpanKind::Pass).unwrap();
        assert_eq!(pass.exclusive_ns, 0);
        assert_eq!(pass.inclusive_ns, 10);
    }
}
