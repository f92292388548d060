//! Metrics registry: latency histograms and gauges beside the counters.
//!
//! Counters answer "how many"; the histograms here answer "how long" —
//! each [`Metric`] is a log2-bucketed nanosecond distribution with
//! enough resolution for p50/p95/p99/max — and [`Gauge`]s answer "how
//! big was it at its peak". Like [`Counter`](crate::Counter)s, workers
//! record into thread-local [`HistogramSet`]/[`GaugeSet`] buffers that
//! merge when a scope joins, so PathFinder's route-phase workers observe without
//! contention; both merge operations are commutative and associative,
//! so the merged result is independent of worker join order (see
//! DESIGN.md §5f for why that keeps traces deterministic).
//!
//! The module also defines the two rare-event record types the
//! observability suite streams straight to the shared collector:
//! [`ConvergenceRecord`] (one per PathFinder iteration) and
//! [`TimelineRecord`] (one per PathFinder worker per iteration).

/// A latency distribution tracked by the registry. Every variant's
/// emitted name is in the README metric glossary; `trace-check` rejects
/// histogram records naming anything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Metric {
    /// Wall-clock of one whole-net route attempt.
    NetRouteNs,
    /// Wall-clock of committing one routed net into the pass state.
    CommitApplyNs,
    /// Wall-clock of one full PathFinder route-all/reprice iteration.
    PfIterationNs,
    /// Wall-clock of one shortest-path kernel query (including
    /// scratch-arena `minpath` queries, and the first-read packing of
    /// the `LaneView` rows the query reads).
    KernelQueryNs,
    /// Wall-clock of one candidate-pricing round of the iterated Steiner
    /// template: the whole pool priced against one terminal set.
    SteinerScreenNs,
    /// Wall-clock of one exact re-check of a scored Steiner candidate.
    SteinerVerifyNs,
}

impl Metric {
    /// Every variant, in declaration (= discriminant) order.
    pub const ALL: [Metric; 6] = [
        Metric::NetRouteNs,
        Metric::CommitApplyNs,
        Metric::PfIterationNs,
        Metric::KernelQueryNs,
        Metric::SteinerScreenNs,
        Metric::SteinerVerifyNs,
    ];

    /// Stable snake_case name used in JSONL records and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Metric::NetRouteNs => "net_route_ns",
            Metric::CommitApplyNs => "commit_apply_ns",
            Metric::PfIterationNs => "pf_iteration_ns",
            Metric::KernelQueryNs => "kernel_query_ns",
            Metric::SteinerScreenNs => "steiner_screen_ns",
            Metric::SteinerVerifyNs => "steiner_verify_ns",
        }
    }
}

/// A point-in-time measurement merged across workers by maximum — the
/// only merge that is both order-independent and meaningful for the
/// "peak value" questions gauges exist to answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Gauge {
    /// Peak over-capacity node count across PathFinder iterations.
    PeakOvercapacityNodes,
    /// Minimum routable channel width found by the width search.
    MinChannelWidth,
}

impl Gauge {
    /// Every variant, in declaration (= discriminant) order.
    pub const ALL: [Gauge; 2] = [
        Gauge::PeakOvercapacityNodes,
        Gauge::MinChannelWidth,
    ];

    /// Stable snake_case name used in JSONL records and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Gauge::PeakOvercapacityNodes => "peak_overcapacity_nodes",
            Gauge::MinChannelWidth => "min_channel_width",
        }
    }
}

/// Number of log2 buckets — one per bit of a `u64`, so any nanosecond
/// value (including `u64::MAX`) lands in a bucket without clamping
/// logic at the call site.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A log2-bucketed distribution of `u64` samples (nanoseconds, for the
/// latency metrics). Bucket `i` counts samples `v` with
/// `bucket_index(v) == i`, i.e. `v == 0` → bucket 0 and otherwise
/// `i == 64 - v.leading_zeros()` (so bucket `i ≥ 1` spans
/// `[2^(i-1), 2^i)`). Quantiles are estimated from the bucket
/// boundaries, which for a log2 layout means at most 2× relative error
/// — plenty for "where did the time go" questions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// The bucket a sample falls into: 0 for 0, else the value's bit width
/// (`64 - leading_zeros`), capped to the last slot so `u64::MAX` and
/// `2^63` share bucket 63.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of `bucket` (the largest sample it can hold).
#[must_use]
pub fn bucket_upper_bound(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] = self.buckets[bucket_index(value)].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`. Commutative and associative (slot-wise
    /// saturating adds plus a max), so worker join order cannot change
    /// the merged result.
    pub fn merge(&mut self, other: &Histogram) {
        for (slot, v) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *slot = slot.saturating_add(*v);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True when no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Estimated quantile `q` in [0, 1]: the upper bound of the bucket
    /// holding the ⌈q·count⌉-th smallest sample, clamped to the observed
    /// max. Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // rank ∈ [1, count]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(index, count)` pairs, ascending.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
    }
}

/// One histogram slot per [`Metric`], merged across workers like
/// [`CounterSet`](crate::CounterSet).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSet {
    slots: Vec<Histogram>,
}

impl HistogramSet {
    /// A set with every metric's histogram empty. Allocation is lazy —
    /// the common disabled path never touches the heap.
    #[must_use]
    pub fn new() -> Self {
        HistogramSet::default()
    }

    fn ensure(&mut self) {
        if self.slots.is_empty() {
            self.slots = vec![Histogram::new(); Metric::ALL.len()];
        }
    }

    /// Records one sample for `metric`.
    pub fn record(&mut self, metric: Metric, value: u64) {
        self.ensure();
        self.slots[metric as usize].record(value);
    }

    /// The histogram for `metric` (empty if nothing was recorded).
    #[must_use]
    pub fn get(&self, metric: Metric) -> Histogram {
        self.slots
            .get(metric as usize)
            .cloned()
            .unwrap_or_default()
    }

    /// Folds `other` into `self`; order-independent (see [`Histogram::merge`]).
    pub fn merge(&mut self, other: &HistogramSet) {
        if other.slots.is_empty() {
            return;
        }
        self.ensure();
        for (mine, theirs) in self.slots.iter_mut().zip(other.slots.iter()) {
            mine.merge(theirs);
        }
    }

    /// True when no metric has any samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Histogram::is_empty)
    }

    /// `(metric, histogram)` pairs with at least one sample, in
    /// declaration order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (Metric, &Histogram)> + '_ {
        Metric::ALL
            .iter()
            .filter_map(move |&m| self.slots.get(m as usize).map(|h| (m, h)))
            .filter(|(_, h)| !h.is_empty())
    }
}

/// One `u64` slot per [`Gauge`]. `set` keeps the maximum of all values
/// offered, and `merge` is a slot-wise max, so the merged result is the
/// same no matter which worker observed the peak or when it joined.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GaugeSet {
    slots: [Option<u64>; Gauge::ALL.len()],
}

impl GaugeSet {
    /// A set with every gauge unset.
    #[must_use]
    pub fn new() -> Self {
        GaugeSet::default()
    }

    /// Offers `value` for `gauge`; the slot keeps the maximum seen.
    pub fn set(&mut self, gauge: Gauge, value: u64) {
        let slot = &mut self.slots[gauge as usize];
        *slot = Some(slot.map_or(value, |prev| prev.max(value)));
    }

    /// The gauge's value, if it was ever set.
    #[must_use]
    pub fn get(&self, gauge: Gauge) -> Option<u64> {
        self.slots[gauge as usize]
    }

    /// Folds `other` into `self` (slot-wise max; order-independent).
    pub fn merge(&mut self, other: &GaugeSet) {
        for (mine, &theirs) in self.slots.iter_mut().zip(other.slots.iter()) {
            if let Some(v) = theirs {
                *mine = Some(mine.map_or(v, |prev| prev.max(v)));
            }
        }
    }

    /// True when no gauge was ever set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// `(gauge, value)` pairs for every set gauge, in declaration order.
    pub fn iter_set(&self) -> impl Iterator<Item = (Gauge, u64)> + '_ {
        Gauge::ALL
            .iter()
            .filter_map(move |&g| self.slots[g as usize].map(|v| (g, v)))
    }
}

/// One PathFinder iteration's convergence state — the trajectory the
/// negotiated-congestion literature tunes against (present-factor ramp
/// vs. over-capacity decay vs. churn).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConvergenceRecord {
    /// 1-based PathFinder iteration.
    pub iteration: usize,
    /// Nodes over capacity at the end of the iteration.
    pub overcapacity: usize,
    /// Total accumulated history cost across all nodes, in milli units.
    pub history_milli: u64,
    /// Nets whose route tree changed relative to the previous iteration.
    pub nets_rerouted: usize,
    /// Present-factor ramp value used by this iteration, in milli units.
    pub present_milli: u64,
    /// Nets the iteration actually routed: the dirty set in selective
    /// mode, every net in full-reroute mode.
    pub dirty_nets: usize,
}

/// One route-phase worker's occupancy for one PathFinder iteration: how
/// much of the iteration's wall-clock it spent routing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimelineRecord {
    /// 1-based pass (or PathFinder iteration) this timeline belongs to.
    pub pass: usize,
    /// Worker index within the route phase.
    pub worker: usize,
    /// The participant's role (`"pf-worker"`).
    pub role: &'static str,
    /// Nanoseconds spent routing.
    pub busy_ns: u64,
    /// Nets this worker routed.
    pub nets: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_and_gauge_names_are_unique_and_cover_all() {
        let metric_names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        let mut dedup = metric_names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), Metric::ALL.len());
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(*m as usize, i, "dense discriminants");
        }
        let gauge_names: Vec<&str> = Gauge::ALL.iter().map(|g| g.name()).collect();
        let mut dedup = gauge_names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), Gauge::ALL.len());
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i, "dense discriminants");
        }
    }

    #[test]
    fn bucket_boundaries_split_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(1u64 << 63), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index((1u64 << 63) - 1), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_records_and_estimates_quantiles() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 221);
        // p50 → 3rd smallest (3), bucket 2 upper bound = 3.
        assert_eq!(h.quantile(0.5), 3);
        // p99 → 5th smallest (1000), bucket 10 upper bound 1023 clamps
        // to the observed max.
        assert_eq!(h.quantile(0.99), 1000);
        assert_eq!(h.quantile(0.0), 1, "q=0 still ranks the smallest sample");
    }

    #[test]
    fn histogram_saturates_at_extremes() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.iter_nonzero().collect::<Vec<_>>(), vec![(63, 2)]);
    }

    #[test]
    fn histogram_merge_is_order_independent() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [5u64, 50, 500] {
            a.record(v);
        }
        for v in [7u64, 70, u64::MAX] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 6);
        assert_eq!(ab.max(), u64::MAX);
    }

    #[test]
    fn histogram_set_merges_like_counters() {
        let mut a = HistogramSet::new();
        let mut b = HistogramSet::new();
        assert!(a.is_empty());
        a.record(Metric::NetRouteNs, 10);
        b.record(Metric::NetRouteNs, 20);
        b.record(Metric::KernelQueryNs, 5);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get(Metric::NetRouteNs).count(), 2);
        assert_eq!(ab.get(Metric::KernelQueryNs).count(), 1);
        assert_eq!(ab.get(Metric::CommitApplyNs).count(), 0);
        assert_eq!(ab.iter_nonzero().count(), 2);
    }

    #[test]
    fn gauge_set_keeps_the_peak_across_merges() {
        let mut a = GaugeSet::new();
        let mut b = GaugeSet::new();
        assert!(a.is_empty());
        assert_eq!(a.get(Gauge::MinChannelWidth), None);
        a.set(Gauge::PeakOvercapacityNodes, 40);
        a.set(Gauge::PeakOvercapacityNodes, 12); // lower: slot keeps 40
        b.set(Gauge::PeakOvercapacityNodes, 55);
        b.set(Gauge::MinChannelWidth, 4);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get(Gauge::PeakOvercapacityNodes), Some(55));
        assert_eq!(ab.get(Gauge::MinChannelWidth), Some(4));
        assert_eq!(ab.iter_set().count(), 2);
    }
}
