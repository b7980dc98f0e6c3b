//! The process-wide metrics registry: relaxed atomic counters and
//! log2-bucket histograms, cheap enough to stay on unconditionally.
//!
//! Producers increment per *operation* (a cache probe, a replica insert, a
//! worker's whole run), never per tuple, so the registry costs nothing
//! measurable on the hot path. Consumers take a [`MetricsSnapshot`] — a
//! plain-value copy that can be diffed across a workload and serialized as
//! JSON by hand (no serde in this workspace).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A relaxed atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `b` counts values whose bit length
/// is `b`, i.e. bucket 0 holds zeros and bucket `b ≥ 1` holds values in
/// `[2^(b-1), 2^b)`. 64-bit values need bit lengths 0..=64.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucket histogram with a running sum, all relaxed atomics.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value: its bit length.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Plain-value copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum(),
        }
    }
}

/// Plain-value histogram state, diffable and serializable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    pub sum: u64,
}

impl HistogramSnapshot {
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Bucketwise difference against an earlier snapshot.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// Append this histogram as a JSON object: total count, sum, and the
    /// non-empty buckets as `[bit_length, count]` pairs.
    pub fn write_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"count\":{},\"sum\":{},\"buckets\":[",
            self.count(),
            self.sum
        ));
        let mut first = true;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("[{b},{n}]"));
            }
        }
        out.push_str("]}");
    }
}

/// Engine-wide metrics. One global instance lives behind
/// [`global_metrics`]; tests may construct private registries.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Cache probes answered from a replica (`CacheManager::get`/`get_any`).
    pub cache_hits: Counter,
    /// Cache probes that missed.
    pub cache_misses: Counter,
    /// Replicas inserted into a cache.
    pub cache_insertions: Counter,
    /// Replicas evicted to make room.
    pub cache_evictions: Counter,
    /// Replicas dropped because their source changed underneath them.
    pub cache_invalidations: Counter,
    /// Size distribution of inserted replicas, bytes.
    pub cache_replica_bytes: Histogram,
    /// Nanoseconds pool workers spent inside morsel work closures.
    pub worker_busy_ns: Counter,
    /// Nanoseconds pool workers that served a run spent attached to it
    /// outside morsel work: claiming, and waiting for slower siblings.
    pub worker_idle_ns: Counter,
    /// Multi-worker pool runs completed (each attached to, and detached
    /// from, its pool's resident workers).
    pub pool_runs: Counter,
    /// OS threads spawned for pool workers. A pool counts its workers once,
    /// when it starts — so a zero delta across a query proves the query
    /// spawned nothing.
    pub pool_thread_spawns: Counter,
    /// Morsel claims taken while ≥2 runs were in flight on one resident
    /// pool — the time-slicing signal: nonzero means concurrent queries
    /// actually interleaved at morsel granularity.
    pub pool_multiplexed_claims: Counter,
    /// Morsels claimed by one worker in one run (per-worker distribution;
    /// a wide spread between buckets means claim imbalance).
    pub worker_morsel_claims: Histogram,
    /// Per-run spread `max − min` of morsel claims across workers — the
    /// steal-imbalance signal.
    pub morsel_claim_spread: Histogram,
    /// Total compiled-kernel invocations recorded by traced queries.
    pub kernel_invocations: Counter,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Plain-value copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            cache_insertions: self.cache_insertions.get(),
            cache_evictions: self.cache_evictions.get(),
            cache_invalidations: self.cache_invalidations.get(),
            cache_replica_bytes: self.cache_replica_bytes.snapshot(),
            worker_busy_ns: self.worker_busy_ns.get(),
            worker_idle_ns: self.worker_idle_ns.get(),
            pool_runs: self.pool_runs.get(),
            pool_thread_spawns: self.pool_thread_spawns.get(),
            pool_multiplexed_claims: self.pool_multiplexed_claims.get(),
            worker_morsel_claims: self.worker_morsel_claims.snapshot(),
            morsel_claim_spread: self.morsel_claim_spread.snapshot(),
            kernel_invocations: self.kernel_invocations.get(),
        }
    }
}

/// Plain-value copy of the registry at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_insertions: u64,
    pub cache_evictions: u64,
    pub cache_invalidations: u64,
    pub cache_replica_bytes: HistogramSnapshot,
    pub worker_busy_ns: u64,
    pub worker_idle_ns: u64,
    pub pool_runs: u64,
    pub pool_thread_spawns: u64,
    pub pool_multiplexed_claims: u64,
    pub worker_morsel_claims: HistogramSnapshot,
    pub morsel_claim_spread: HistogramSnapshot,
    pub kernel_invocations: u64,
}

impl MetricsSnapshot {
    /// Fieldwise difference against an earlier snapshot — the way to scope
    /// the global registry to one workload.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            cache_insertions: self
                .cache_insertions
                .saturating_sub(earlier.cache_insertions),
            cache_evictions: self.cache_evictions.saturating_sub(earlier.cache_evictions),
            cache_invalidations: self
                .cache_invalidations
                .saturating_sub(earlier.cache_invalidations),
            cache_replica_bytes: self.cache_replica_bytes.since(&earlier.cache_replica_bytes),
            worker_busy_ns: self.worker_busy_ns.saturating_sub(earlier.worker_busy_ns),
            worker_idle_ns: self.worker_idle_ns.saturating_sub(earlier.worker_idle_ns),
            pool_runs: self.pool_runs.saturating_sub(earlier.pool_runs),
            pool_thread_spawns: self
                .pool_thread_spawns
                .saturating_sub(earlier.pool_thread_spawns),
            pool_multiplexed_claims: self
                .pool_multiplexed_claims
                .saturating_sub(earlier.pool_multiplexed_claims),
            worker_morsel_claims: self
                .worker_morsel_claims
                .since(&earlier.worker_morsel_claims),
            morsel_claim_spread: self.morsel_claim_spread.since(&earlier.morsel_claim_spread),
            kernel_invocations: self
                .kernel_invocations
                .saturating_sub(earlier.kernel_invocations),
        }
    }

    /// Serialize as a JSON object (hand-rolled; parseable by the repo's own
    /// JSON reader).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        out.push_str(&format!("\"cache_hits\":{},", self.cache_hits));
        out.push_str(&format!("\"cache_misses\":{},", self.cache_misses));
        out.push_str(&format!("\"cache_insertions\":{},", self.cache_insertions));
        out.push_str(&format!("\"cache_evictions\":{},", self.cache_evictions));
        out.push_str(&format!(
            "\"cache_invalidations\":{},",
            self.cache_invalidations
        ));
        out.push_str("\"cache_replica_bytes\":");
        self.cache_replica_bytes.write_json(&mut out);
        out.push(',');
        out.push_str(&format!("\"worker_busy_ns\":{},", self.worker_busy_ns));
        out.push_str(&format!("\"worker_idle_ns\":{},", self.worker_idle_ns));
        out.push_str(&format!("\"pool_runs\":{},", self.pool_runs));
        out.push_str(&format!(
            "\"pool_thread_spawns\":{},",
            self.pool_thread_spawns
        ));
        out.push_str(&format!(
            "\"pool_multiplexed_claims\":{},",
            self.pool_multiplexed_claims
        ));
        out.push_str("\"worker_morsel_claims\":");
        self.worker_morsel_claims.write_json(&mut out);
        out.push(',');
        out.push_str("\"morsel_claim_spread\":");
        self.morsel_claim_spread.write_json(&mut out);
        out.push(',');
        out.push_str(&format!(
            "\"kernel_invocations\":{}",
            self.kernel_invocations
        ));
        out.push('}');
        out
    }
}

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The engine-wide registry. Counters only ever grow; scope readings to a
/// window by diffing snapshots with [`MetricsSnapshot::since`].
pub fn global_metrics() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_follow_bit_length() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_counts_and_sums() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[2], 2);
        assert_eq!(snap.buckets[11], 1);
    }

    #[test]
    fn snapshot_diffs_scope_a_window() {
        let reg = MetricsRegistry::new();
        reg.cache_hits.add(5);
        let before = reg.snapshot();
        reg.cache_hits.add(3);
        reg.cache_replica_bytes.record(100);
        let delta = reg.snapshot().since(&before);
        assert_eq!(delta.cache_hits, 3);
        assert_eq!(delta.cache_replica_bytes.count(), 1);
        assert_eq!(delta.cache_replica_bytes.sum, 100);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let reg = MetricsRegistry::new();
        reg.cache_hits.add(7);
        reg.worker_morsel_claims.record(3);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"cache_hits\":7"));
        assert!(json.contains("\"buckets\":[[2,1]]"));
        // Balanced braces/brackets (the real parse round-trip is
        // `stats_and_metrics_json_round_trip_through_the_json_reader` in
        // vida-exec's `tests/trace.rs`, next to the JSON reader).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn global_registry_is_shared_and_monotonic() {
        let a = global_metrics().snapshot();
        global_metrics().pool_runs.inc();
        let b = global_metrics().snapshot();
        assert!(b.pool_runs > a.pool_runs);
    }
}
