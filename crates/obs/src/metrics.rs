//! The metrics registry: named counters and fixed-bucket latency
//! histograms.
//!
//! Counters are exact and deterministic for a fixed workload; histogram
//! *values* (quantiles, max) are wall-clock derived and therefore
//! excluded by [`MetricsSnapshot::normalized`], while histogram *counts*
//! remain — a campaign always observes the same number of boots no
//! matter how they were scheduled.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};

fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Number of power-of-two buckets. See [`Histogram`] for the boundary
/// scheme. 40 buckets reach ~2^39 µs ≈ 6 days, far beyond any cell's
/// wall time.
const BUCKETS: usize = 40;

/// A fixed-bucket latency histogram over microsecond values.
///
/// # Bucket boundaries
///
/// Buckets are powers of two, indexed by the bit length of the value:
///
/// * bucket 0 holds exactly the value `0`,
/// * bucket `i` (for `i ≥ 1`) holds values in `[2^(i-1), 2^i)` — so
///   bucket 1 holds `{1}`, bucket 2 holds `{2, 3}`, bucket 3 holds
///   `{4..7}`, and so on,
/// * the last bucket (index 39) additionally absorbs anything at or
///   above `2^39` µs, so no value is ever dropped.
///
/// Quantiles are reported as the **inclusive upper bound** of the
/// bucket containing the quantile rank (`2^i - 1`), clamped to the
/// exact observed maximum — a single-sample histogram therefore
/// reports its one value exactly at every quantile.
///
/// Serializable so streaming checkpoints can persist in-flight
/// per-worker histograms and resume them exactly (bucket counts are
/// positional, so a round trip is lossless).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    max: u64,
}

// Not derived: array `Default` impls stop at 32 elements.
impl Default for Histogram {
    fn default() -> Self {
        Self { buckets: [0; BUCKETS], count: 0, max: 0 }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(value: u64) -> usize {
        // bit length of the value, capped to the last bucket.
        ((u64::BITS - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Upper bound (inclusive) of bucket `i`.
    fn bucket_upper(index: usize) -> u64 {
        if index == 0 {
            0
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value_us: u64) {
        self.buckets[Self::bucket_index(value_us)] += 1;
        self.count += 1;
        self.max = self.max.max(value_us);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Upper bound of the bucket containing the `q` quantile (`max` is
    /// exact; p50/p95 are bucket-resolution approximations).
    fn quantile_upper(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Absorbs every observation of `other`. Buckets are fixed and
    /// positional, so merging is exact and commutative — the merge of
    /// per-worker histograms is byte-identical to one histogram that
    /// observed every value itself.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Condenses the histogram into the summary serialized in reports.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            p50_us: self.quantile_upper(0.50),
            p95_us: self.quantile_upper(0.95),
            max_us: self.max,
        }
    }
}

/// p50/p95/max summary of a [`Histogram`], as serialized into
/// campaign reports and throughput records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Observations recorded (deterministic).
    pub count: u64,
    /// Median latency, rounded up to its bucket boundary.
    pub p50_us: u64,
    /// 95th-percentile latency, rounded up to its bucket boundary.
    pub p95_us: u64,
    /// Largest observed latency (exact).
    pub max_us: u64,
}

impl HistogramSummary {
    /// The summary with wall-clock-derived fields zeroed; `count`
    /// survives because it is schedule-independent.
    pub fn normalized(self) -> Self {
        Self { count: self.count, p50_us: 0, p95_us: 0, max_us: 0 }
    }
}

/// One named counter in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Counter name, e.g. `"campaign.hypercalls"`.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One named histogram in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Histogram name, e.g. `"campaign.boot_us.completed"`.
    pub name: String,
    /// p50/p95/max/count summary.
    pub summary: HistogramSummary,
}

/// Point-in-time copy of a [`MetricsRegistry`], sorted by name.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, name-sorted.
    pub counters: Vec<CounterSnapshot>,
    /// All histogram summaries, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The snapshot with wall-clock-derived histogram fields zeroed.
    /// Counter values and histogram counts survive: both are exact
    /// tallies of deterministic events.
    pub fn normalized(&self) -> Self {
        Self {
            counters: self.counters.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|h| HistogramSnapshot { name: h.name.clone(), summary: h.summary.normalized() })
                .collect(),
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// A shared registry of named counters and histograms.
///
/// Cloning is cheap and clones share state, so one registry can be
/// handed to the campaign, the CLI and a bench harness simultaneously.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter, creating it at zero first.
    pub fn add(&self, name: &str, delta: u64) {
        let mut counters = lock_recover(&self.inner.counters);
        *counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Records a latency observation into the named histogram.
    pub fn observe(&self, name: &str, value_us: u64) {
        let mut histograms = lock_recover(&self.inner.histograms);
        histograms.entry(name.to_owned()).or_default().record(value_us);
    }

    /// Merges a pre-aggregated histogram into the named histogram —
    /// how streaming campaigns fold per-worker latency histograms into
    /// the registry in one exact, order-independent step.
    pub fn observe_histogram(&self, name: &str, histogram: &Histogram) {
        let mut histograms = lock_recover(&self.inner.histograms);
        histograms.entry(name.to_owned()).or_default().merge(histogram);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        lock_recover(&self.inner.counters).get(name).copied().unwrap_or(0)
    }

    /// Copies the registry into a name-sorted snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = lock_recover(&self.inner.counters)
            .iter()
            .map(|(name, &value)| CounterSnapshot { name: name.clone(), value })
            .collect();
        let histograms = lock_recover(&self.inner.histograms)
            .iter()
            .map(|(name, h)| HistogramSnapshot { name: name.clone(), summary: h.summary() })
            .collect();
        MetricsSnapshot { counters, histograms }
    }

    /// Clears all counters and histograms.
    pub fn clear(&self) {
        lock_recover(&self.inner.counters).clear();
        lock_recover(&self.inner.histograms).clear();
    }
}

/// One sample on a [`MetricsTimeline`]: the values of a set of live
/// gauges/counters at one wall-clock offset from the run start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimelineSample {
    /// Milliseconds since the run started.
    pub t_ms: u64,
    /// `(name, value)` pairs, name-sorted.
    pub values: Vec<(String, u64)>,
}

/// Encodes one timeline sample as its canonical JSON line (fixed field
/// order, no trailing newline):
///
/// ```json
/// {"t_ms":400,"values":{"progress.done":1200,"stream.claimed":16}}
/// ```
pub fn encode_sample(sample: &TimelineSample) -> String {
    let mut out = String::with_capacity(64 + sample.values.len() * 24);
    let _ = write!(out, "{{\"t_ms\":{},\"values\":{{", sample.t_ms);
    for (i, (name, value)) in sample.values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        crate::jsonl::push_json_string(&mut out, name);
        let _ = write!(out, ":{value}");
    }
    out.push_str("}}");
    out
}

/// A time series of live pipeline state, sampled every 200 ms by the
/// campaign's telemetry thread.
///
/// Unlike [`MetricsRegistry`] (folded once, deterministically, at
/// collection time), the timeline is **wall-clock shaped by design** —
/// claimed slots, throughput and heartbeat ages as they
/// actually evolved — and is therefore never part of determinism
/// diffs and never normalized. Cloning is cheap and clones share
/// state, so the campaign samples while the CLI holds the handle that
/// later writes the JSONL file.
#[derive(Clone, Debug, Default)]
pub struct MetricsTimeline {
    inner: Arc<Mutex<Vec<TimelineSample>>>,
}

impl MetricsTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one sample; values are name-sorted so the wire format
    /// is stable regardless of how the sampler assembled them.
    pub fn push(&self, t_ms: u64, mut values: Vec<(String, u64)>) {
        values.sort_by(|a, b| a.0.cmp(&b.0));
        lock_recover(&self.inner).push(TimelineSample { t_ms, values });
    }

    /// A copy of every sample, in arrival order.
    pub fn samples(&self) -> Vec<TimelineSample> {
        lock_recover(&self.inner).clone()
    }

    /// Number of samples taken so far.
    pub fn len(&self) -> usize {
        lock_recover(&self.inner).len()
    }

    /// `true` when no sample has been taken.
    pub fn is_empty(&self) -> bool {
        lock_recover(&self.inner).is_empty()
    }

    /// Serializes the timeline as JSONL, one sample per line.
    pub fn to_jsonl(&self) -> String {
        let samples = lock_recover(&self.inner);
        let mut out = String::with_capacity(samples.len() * 96);
        for sample in samples.iter() {
            out.push_str(&encode_sample(sample));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let reg = MetricsRegistry::new();
        reg.add("campaign.cells", 18);
        reg.add("campaign.cells", 2);
        assert_eq!(reg.counter("campaign.cells"), 20);
        assert_eq!(reg.counter("missing"), 0);
        let clone = reg.clone();
        clone.add("campaign.cells", 1);
        assert_eq!(reg.counter("campaign.cells"), 21, "clones share state");
    }

    #[test]
    fn histogram_buckets_and_summary() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 7);
        assert_eq!(s.max_us, 1_000_000);
        // p50 of 7 values = 4th smallest (3), bucketed into [2,4) -> 3.
        assert_eq!(s.p50_us, 3);
        assert!(s.p95_us >= 1000);
        assert!(s.p50_us <= s.p95_us && s.p95_us <= s.max_us);
    }

    #[test]
    fn merged_histograms_match_one_that_saw_everything() {
        let values_a = [0u64, 3, 100, 4096];
        let values_b = [1u64, 3, 99, 1_000_000];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in values_a {
            a.record(v);
            whole.record(v);
        }
        for v in values_b {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole, "merge is exact, not an approximation");

        let reg = MetricsRegistry::new();
        reg.observe("lat", 7);
        reg.observe_histogram("lat", &b);
        let mut expect = Histogram::new();
        expect.record(7);
        expect.merge(&b);
        assert_eq!(reg.snapshot().histograms[0].summary, expect.summary());
    }

    #[test]
    fn empty_histogram_summary_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.summary(), HistogramSummary::default());
        assert_eq!(h, Histogram::default());
        // Normalizing an empty summary is still all zeros.
        assert_eq!(h.summary().normalized(), HistogramSummary::default());
    }

    #[test]
    fn single_value_summary_is_exact() {
        let mut h = Histogram::new();
        h.record(500);
        let s = h.summary();
        assert_eq!(h.count(), 1);
        assert_eq!(s.count, 1);
        // Bucket upper would be 511; min(max) clamps it to the exact max.
        assert_eq!(s.p50_us, 500);
        assert_eq!(s.p95_us, 500);
        assert_eq!(s.max_us, 500);
        // A recorded zero lands in bucket 0 and summarizes as zero.
        let mut z = Histogram::new();
        z.record(0);
        assert_eq!(z.summary(), HistogramSummary { count: 1, p50_us: 0, p95_us: 0, max_us: 0 });
    }

    #[test]
    fn merging_with_empty_is_the_identity() {
        let mut single = Histogram::new();
        single.record(500);
        let reference = single.clone();
        // empty.merge(single) == single.
        let mut empty = Histogram::new();
        empty.merge(&single);
        assert_eq!(empty, reference);
        assert_eq!(empty.summary(), reference.summary());
        // single.merge(empty) == single.
        single.merge(&Histogram::new());
        assert_eq!(single, reference);
        // empty.merge(empty) stays empty.
        let mut both = Histogram::new();
        both.merge(&Histogram::new());
        assert_eq!(both.count(), 0);
        assert_eq!(both.summary(), HistogramSummary::default());
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // The documented scheme: 0 -> bucket 0; [2^(i-1), 2^i) -> bucket
        // i; quantiles report the bucket's inclusive upper bound 2^i - 1.
        for (value, upper) in [(1u64, 1u64), (2, 3), (3, 3), (4, 7), (7, 7), (8, 15), (1000, 1023)]
        {
            // A larger second sample keeps max-clamping from masking the
            // p50 bucket bound of the probed value.
            let mut probe = Histogram::new();
            probe.record(value);
            probe.record(upper + 1234);
            assert_eq!(
                probe.summary().p50_us,
                upper,
                "value {value} must report bucket upper bound {upper}"
            );
        }
    }

    #[test]
    fn snapshot_is_name_sorted_and_normalizes() {
        let reg = MetricsRegistry::new();
        reg.add("z.counter", 1);
        reg.add("a.counter", 2);
        reg.observe("z.lat_us", 100);
        reg.observe("a.lat_us", 7);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["a.counter", "z.counter"]);
        let hnames: Vec<&str> = snap.histograms.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(hnames, vec!["a.lat_us", "z.lat_us"]);
        let norm = snap.normalized();
        assert_eq!(norm.counters, snap.counters);
        assert_eq!(norm.histograms[0].summary, HistogramSummary { count: 1, ..Default::default() });
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let reg = MetricsRegistry::new();
        reg.add("campaign.boot_failures", 3);
        reg.observe("campaign.boot_us.completed", 1234);
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn timeline_samples_are_name_sorted_jsonl() {
        let timeline = MetricsTimeline::new();
        assert!(timeline.is_empty());
        let sampler = timeline.clone();
        sampler.push(
            200,
            vec![("stream.claimed".to_owned(), 16), ("progress.done".to_owned(), 1200)],
        );
        sampler.push(400, vec![("progress.done".to_owned(), 2400)]);
        assert_eq!(timeline.len(), 2, "clones share state");
        let samples = timeline.samples();
        assert_eq!(
            samples[0].values,
            vec![("progress.done".to_owned(), 1200), ("stream.claimed".to_owned(), 16)],
            "values are name-sorted on push"
        );
        let jsonl = timeline.to_jsonl();
        assert_eq!(
            jsonl,
            "{\"t_ms\":200,\"values\":{\"progress.done\":1200,\"stream.claimed\":16}}\n\
             {\"t_ms\":400,\"values\":{\"progress.done\":2400}}\n"
        );
    }

    #[test]
    fn timeline_encoding_escapes_names() {
        let s = TimelineSample { t_ms: 7, values: vec![("a\"b\n".to_owned(), 1)] };
        assert_eq!(encode_sample(&s), "{\"t_ms\":7,\"values\":{\"a\\\"b\\n\":1}}");
        let empty = TimelineSample { t_ms: 0, values: Vec::new() };
        assert_eq!(encode_sample(&empty), "{\"t_ms\":0,\"values\":{}}");
    }

    #[test]
    fn clear_resets() {
        let reg = MetricsRegistry::new();
        reg.add("c", 1);
        reg.observe("h", 1);
        reg.clear();
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty() && snap.histograms.is_empty());
    }
}
