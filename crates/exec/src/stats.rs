//! Per-query execution statistics.
//!
//! These counters back the paper's headline measurements: the share of the
//! workload served from caches (§6: ~80%), code-generation time (the paper
//! notes LLVM keeps compilation "almost insignificant"; we report the
//! closure-kernel equivalent), and interpreted-fallback coverage.
//!
//! When `JitOptions::trace` is set, the stats struct also carries the
//! query's [`QueryTrace`] span buffer; the `span_*`/`kernel_*` hooks below
//! are the engine's only tracing entry points and compile to a single
//! `Option` check when tracing is off.

use std::time::{Duration, Instant};
use vida_trace::QueryTrace;

/// Statistics for one query execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Time spent generating the pipeline: plan lowering and analysis plus
    /// kernel compilation (the `lower` and `codegen` trace stages).
    pub codegen: Duration,
    /// The rest of the query's wall time: cache probes, raw scans, replica
    /// sync, slot encoding, join builds and the drive (or the whole
    /// Volcano run of a fallback query).
    pub execution: Duration,
    /// Number of kernels compiled for this query.
    pub kernels_compiled: u32,
    /// Tuples produced by scans (before filtering).
    pub tuples_scanned: u64,
    /// Tuples that had to take the interpreted fallback path (nulls,
    /// non-compilable expressions).
    pub fallback_tuples: u64,
    /// Columns served from the cache without touching raw files.
    pub cached_columns: u32,
    /// Columns read from raw files (and inserted into the cache).
    pub raw_columns: u32,
    /// True when every scanned column came from caches — the unit of the
    /// paper's "80% of the workload was served using its data caches".
    /// Under [`ExecStats::accumulate`] this is the AND over all queries;
    /// the per-query tally lives in `queries_served_from_cache`.
    pub served_from_cache: bool,
    /// Queries merged into this struct (1 after a single
    /// `execute_with_stats`; summed by [`ExecStats::accumulate`]).
    pub queries: u32,
    /// Of those, queries whose every scanned column came from caches — the
    /// numerator of the paper's §6 cache-served share.
    pub queries_served_from_cache: u32,
    /// Worker threads of the pool that ran the query's morsels.
    pub threads: u32,
    /// Morsels dispatched across every phase of the query (scans, replica
    /// decodes, join builds, the drive) — the same at every thread count.
    pub morsels: u64,
    /// Cache replicas written by the cost model's post-query sync (layout
    /// chosen by `CostModel::choose_layout`).
    pub replicas_written: u32,
    /// Superseded `Values` replicas dropped after re-shaping a field to a
    /// more compact layout.
    pub replicas_dropped: u32,
    /// Unnest stages executed through a generated pipeline (one per
    /// `Plan::Unnest` operator the builder compiled).
    pub unnest_pipelines: u32,
    /// Theta-join stages (band sort-probe or block-nested-loop) executed
    /// through a generated pipeline.
    pub theta_pipelines: u32,
    /// Bushy-join rotations the `left_deepen` pass applied while lowering
    /// this query's plan into a left-deep pipeline chain.
    pub bushy_lowered: u32,
    /// 1 when the whole query fell back to the interpreted Volcano engine
    /// (plan shape outside the generated pipelines — unit-dataset constant
    /// queries and the like); summed across queries by [`ExecStats::accumulate`].
    pub whole_query_fallbacks: u32,
    /// Operator stages fused into one chunk pipeline for this query
    /// (scan = 1, +1 per unnest stage and join probe, +1 for the fold), so
    /// at least 2 on every pipeline-covered shape; 0 when the query fell
    /// back wholesale. Join build sides and band indexes are pipeline
    /// *breakers*, not stages. [`ExecStats::accumulate`] keeps the maximum
    /// across queries.
    pub fused_stage_depth: u32,
    /// Scan leaves the cost-based plan optimizer moved away from their
    /// syntactic position (join reordering / build-side swaps). 0 when the
    /// original order was already optimal or reordering was ineligible
    /// (an order-sensitive monoid, or a plan the optimizer cannot prove
    /// result-invariant).
    pub joins_reordered: u32,
    /// Fused select-kernel conjuncts moved away from syntactic order by
    /// selectivity-based ranking.
    pub conjuncts_reordered: u32,
    /// The optimizer's estimated output cardinality for reorder-eligible
    /// plans (rows entering the reduce), summed across queries. 0 when no
    /// estimate was made.
    pub estimated_rows: u64,
    /// `actual_rows` restricted to queries that had an estimate — the
    /// denominator that pairs with `estimated_rows` so
    /// [`ExecStats::cardinality_error`] stays meaningful when estimated and
    /// unestimated queries are accumulated together.
    pub estimated_rows_actual: u64,
    /// Tuples that actually entered the reduce (pipeline output before the
    /// fold), across all queries.
    pub actual_rows: u64,
    /// Rows parsed from the appended tail of a grown file instead of a full
    /// re-scan (revalidation proved the old content is a prefix of the new
    /// file, so cached replicas served the prefix and only these rows
    /// touched raw bytes). 0 when every source was unchanged or fully
    /// re-scanned.
    pub tail_rows_scanned: u64,
    /// Cached aggregate prefix partials merged in front of a tail-only fold
    /// (at most one per query): the warm half of O(delta) re-query.
    pub partials_reused: u64,
    /// Scan rows never encoded or filtered because a leading `path op
    /// int-literal` select was false on every block of their chunk (the
    /// block summaries of cached `Values` replicas; see
    /// `vida_cache::Zones`). The same at every thread count.
    pub rows_skipped: u64,
    /// The query's span buffer when `JitOptions::trace` was set; `None`
    /// otherwise. Per-query — [`ExecStats::accumulate`] does not merge
    /// traces (export each query's trace before accumulating).
    pub trace: Option<Box<QueryTrace>>,
}

impl ExecStats {
    /// Total wall time attributed to the query.
    pub fn total(&self) -> Duration {
        self.codegen + self.execution
    }

    /// Merge counters from another query (for workload-level reporting).
    pub fn accumulate(&mut self, other: &ExecStats) {
        // Hand-built single-query stats may leave `queries` at 0; treat
        // them as one query so the cache-served share stays well-defined.
        let other_queries = other.queries.max(1);
        let other_served = if other.queries == 0 {
            other.served_from_cache as u32
        } else {
            other.queries_served_from_cache
        };
        self.served_from_cache = if self.queries == 0 {
            other.served_from_cache
        } else {
            self.served_from_cache && other.served_from_cache
        };
        self.queries += other_queries;
        self.queries_served_from_cache += other_served;
        self.codegen += other.codegen;
        self.execution += other.execution;
        self.kernels_compiled += other.kernels_compiled;
        self.tuples_scanned += other.tuples_scanned;
        self.fallback_tuples += other.fallback_tuples;
        self.cached_columns += other.cached_columns;
        self.raw_columns += other.raw_columns;
        self.threads = self.threads.max(other.threads);
        self.morsels += other.morsels;
        self.replicas_written += other.replicas_written;
        self.replicas_dropped += other.replicas_dropped;
        self.unnest_pipelines += other.unnest_pipelines;
        self.theta_pipelines += other.theta_pipelines;
        self.bushy_lowered += other.bushy_lowered;
        self.whole_query_fallbacks += other.whole_query_fallbacks;
        self.fused_stage_depth = self.fused_stage_depth.max(other.fused_stage_depth);
        self.joins_reordered += other.joins_reordered;
        self.conjuncts_reordered += other.conjuncts_reordered;
        self.estimated_rows += other.estimated_rows;
        self.estimated_rows_actual += other.estimated_rows_actual;
        self.actual_rows += other.actual_rows;
        self.tail_rows_scanned += other.tail_rows_scanned;
        self.partials_reused += other.partials_reused;
        self.rows_skipped += other.rows_skipped;
    }

    /// Relative error of the optimizer's cardinality estimates:
    /// `|estimated - actual| / actual` over the queries that had an
    /// estimate. 0.0 when nothing was estimated.
    pub fn cardinality_error(&self) -> f64 {
        if self.estimated_rows == 0 {
            return 0.0;
        }
        let est = self.estimated_rows as f64;
        let act = self.estimated_rows_actual as f64;
        (est - act).abs() / act.max(1.0)
    }

    /// Merge counters from one morsel's worker-local stats (wall times are
    /// measured by the coordinator, not summed across workers). Takes the
    /// worker stats by value so the worker's span buffer can be absorbed
    /// into the coordinator's trace without cloning.
    pub(crate) fn absorb_worker(&mut self, other: ExecStats) {
        self.kernels_compiled += other.kernels_compiled;
        self.tuples_scanned += other.tuples_scanned;
        self.fallback_tuples += other.fallback_tuples;
        self.cached_columns += other.cached_columns;
        self.raw_columns += other.raw_columns;
        self.morsels += other.morsels;
        self.actual_rows += other.actual_rows;
        if let (Some(mine), Some(theirs)) = (self.trace.as_deref_mut(), other.trace) {
            mine.absorb(*theirs);
        }
    }

    /// The query's trace, when tracing was enabled.
    pub fn query_trace(&self) -> Option<&QueryTrace> {
        self.trace.as_deref()
    }

    /// The trace's shared time origin — hand it to worker-track buffers.
    #[inline]
    pub(crate) fn trace_epoch(&self) -> Option<Instant> {
        self.trace.as_deref().map(QueryTrace::epoch)
    }

    /// Open a span on this stats' track (no-op when tracing is off).
    #[inline]
    pub(crate) fn span_begin(&mut self, stage: &'static str) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.begin(stage);
        }
    }

    /// Close the innermost open span.
    #[inline]
    pub(crate) fn span_end(&mut self) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.end();
        }
    }

    /// Close the innermost open span, attributing tuples and morsels.
    #[inline]
    pub(crate) fn span_end_counted(&mut self, tuples: u64, morsels: u64) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.end_counted(tuples, morsels);
        }
    }

    /// Add a decision line to the trace (no-op when tracing is off).
    #[inline]
    pub(crate) fn trace_note(&mut self, line: impl FnOnce() -> String) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.note(line());
        }
    }

    /// Record `n` invocations of a compiled kernel (no-op when tracing is
    /// off or the kernel was never tagged with an id).
    #[inline]
    pub(crate) fn kernel_hits(&mut self, id: u32, n: u64) {
        if let Some(t) = self.trace.as_deref_mut() {
            // u32::MAX = CompiledKernel::UNASSIGNED (kernels outside the
            // pipeline builder's dense numbering).
            if id != u32::MAX {
                t.kernel_hits(id, n);
            }
        }
    }

    /// Serialize every counter as a JSON object (hand-rolled — the
    /// workspace has no serde; parseable by the repo's own JSON reader).
    /// Durations are reported in nanoseconds. The trace buffer is not
    /// included — export it via the Chrome-trace path instead.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        out.push_str(&format!("\"codegen_ns\":{},", self.codegen.as_nanos()));
        out.push_str(&format!("\"execution_ns\":{},", self.execution.as_nanos()));
        out.push_str(&format!("\"kernels_compiled\":{},", self.kernels_compiled));
        out.push_str(&format!("\"tuples_scanned\":{},", self.tuples_scanned));
        out.push_str(&format!("\"fallback_tuples\":{},", self.fallback_tuples));
        out.push_str(&format!("\"cached_columns\":{},", self.cached_columns));
        out.push_str(&format!("\"raw_columns\":{},", self.raw_columns));
        out.push_str(&format!(
            "\"served_from_cache\":{},",
            self.served_from_cache
        ));
        out.push_str(&format!("\"queries\":{},", self.queries));
        out.push_str(&format!(
            "\"queries_served_from_cache\":{},",
            self.queries_served_from_cache
        ));
        out.push_str(&format!("\"threads\":{},", self.threads));
        out.push_str(&format!("\"morsels\":{},", self.morsels));
        out.push_str(&format!("\"replicas_written\":{},", self.replicas_written));
        out.push_str(&format!("\"replicas_dropped\":{},", self.replicas_dropped));
        out.push_str(&format!("\"unnest_pipelines\":{},", self.unnest_pipelines));
        out.push_str(&format!("\"theta_pipelines\":{},", self.theta_pipelines));
        out.push_str(&format!("\"bushy_lowered\":{},", self.bushy_lowered));
        out.push_str(&format!(
            "\"whole_query_fallbacks\":{},",
            self.whole_query_fallbacks
        ));
        out.push_str(&format!(
            "\"fused_stage_depth\":{},",
            self.fused_stage_depth
        ));
        out.push_str(&format!("\"joins_reordered\":{},", self.joins_reordered));
        out.push_str(&format!(
            "\"conjuncts_reordered\":{},",
            self.conjuncts_reordered
        ));
        out.push_str(&format!("\"estimated_rows\":{},", self.estimated_rows));
        out.push_str(&format!("\"actual_rows\":{},", self.actual_rows));
        out.push_str(&format!(
            "\"tail_rows_scanned\":{},",
            self.tail_rows_scanned
        ));
        out.push_str(&format!("\"partials_reused\":{},", self.partials_reused));
        out.push_str(&format!("\"rows_skipped\":{},", self.rows_skipped));
        out.push_str(&format!(
            "\"cardinality_error\":{:.4}",
            self.cardinality_error()
        ));
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_accumulation() {
        let mut a = ExecStats {
            codegen: Duration::from_micros(100),
            execution: Duration::from_micros(900),
            kernels_compiled: 2,
            tuples_scanned: 10,
            fallback_tuples: 1,
            cached_columns: 3,
            raw_columns: 1,
            served_from_cache: false,
            queries: 1,
            queries_served_from_cache: 0,
            threads: 4,
            morsels: 8,
            replicas_written: 2,
            replicas_dropped: 1,
            unnest_pipelines: 1,
            theta_pipelines: 2,
            bushy_lowered: 1,
            whole_query_fallbacks: 1,
            fused_stage_depth: 4,
            joins_reordered: 1,
            conjuncts_reordered: 2,
            estimated_rows: 90,
            estimated_rows_actual: 100,
            actual_rows: 100,
            tail_rows_scanned: 5,
            partials_reused: 1,
            rows_skipped: 7,
            trace: None,
        };
        assert_eq!(a.total(), Duration::from_micros(1000));
        let b = a.clone();
        a.accumulate(&b);
        assert_eq!(a.kernels_compiled, 4);
        assert_eq!(a.tuples_scanned, 20);
        assert_eq!(a.cached_columns, 6);
        assert_eq!(a.threads, 4); // max, not sum
        assert_eq!(a.morsels, 16);
        assert_eq!(a.queries, 2);
        assert_eq!(a.unnest_pipelines, 2);
        assert_eq!(a.theta_pipelines, 4);
        assert_eq!(a.bushy_lowered, 2);
        assert_eq!(a.whole_query_fallbacks, 2);
        assert_eq!(a.fused_stage_depth, 4); // max, not sum
        assert_eq!(a.joins_reordered, 2);
        assert_eq!(a.conjuncts_reordered, 4);
        assert_eq!(a.estimated_rows, 180);
        assert_eq!(a.actual_rows, 200);
        assert_eq!(a.tail_rows_scanned, 10);
        assert_eq!(a.partials_reused, 2);
        assert_eq!(a.rows_skipped, 14);
    }

    #[test]
    fn cardinality_error_pairs_estimates_with_estimated_actuals() {
        // No estimate → no error, whatever actual_rows says.
        let none = ExecStats {
            actual_rows: 500,
            ..ExecStats::default()
        };
        assert_eq!(none.cardinality_error(), 0.0);

        // 90 estimated vs 100 actual → 10% relative error.
        let est = ExecStats {
            estimated_rows: 90,
            estimated_rows_actual: 100,
            actual_rows: 100,
            ..ExecStats::default()
        };
        assert!((est.cardinality_error() - 0.1).abs() < 1e-9);

        // Accumulating an unestimated query must not dilute the error: its
        // actual_rows joins `actual_rows` but not `estimated_rows_actual`.
        let mut accum = est.clone();
        accum.accumulate(&none);
        assert_eq!(accum.actual_rows, 600);
        assert_eq!(accum.estimated_rows_actual, 100);
        assert!((accum.cardinality_error() - 0.1).abs() < 1e-9);
        assert!(accum.to_json().contains("\"cardinality_error\":0.1000"));
    }

    #[test]
    fn accumulate_tracks_cache_served_share() {
        // Regression: `accumulate` used to drop `served_from_cache`
        // entirely — a workload of all-cached queries reported whatever the
        // accumulator was initialized with.
        let cached = ExecStats {
            served_from_cache: true,
            queries: 1,
            queries_served_from_cache: 1,
            ..ExecStats::default()
        };
        let raw = ExecStats {
            served_from_cache: false,
            queries: 1,
            queries_served_from_cache: 0,
            ..ExecStats::default()
        };

        // All-cached workload: the AND stays true, the tally counts all.
        let mut all = ExecStats::default();
        all.accumulate(&cached);
        all.accumulate(&cached);
        assert!(all.served_from_cache);
        assert_eq!(all.queries, 2);
        assert_eq!(all.queries_served_from_cache, 2);

        // Mixed workload: the AND drops to false, the tally keeps the share.
        let mut mixed = ExecStats::default();
        mixed.accumulate(&cached);
        mixed.accumulate(&raw);
        mixed.accumulate(&cached);
        assert!(!mixed.served_from_cache);
        assert_eq!(mixed.queries, 3);
        assert_eq!(mixed.queries_served_from_cache, 2);

        // Accumulating an accumulation keeps the tally (not the AND).
        let mut top = ExecStats::default();
        top.accumulate(&mixed);
        top.accumulate(&cached);
        assert_eq!(top.queries, 4);
        assert_eq!(top.queries_served_from_cache, 3);
    }

    #[test]
    fn accumulate_treats_bare_single_query_stats_as_one_query() {
        // Stats straight out of a single run may leave `queries` at 0 if
        // built by hand; the share math still counts them as one query.
        let bare_cached = ExecStats {
            served_from_cache: true,
            ..ExecStats::default()
        };
        let mut accum = ExecStats::default();
        accum.accumulate(&bare_cached);
        assert!(accum.served_from_cache);
        assert_eq!(accum.queries, 1);
        assert_eq!(accum.queries_served_from_cache, 1);
    }

    #[test]
    fn stats_json_is_balanced_and_complete() {
        let stats = ExecStats {
            tuples_scanned: 42,
            served_from_cache: true,
            rows_skipped: 3,
            ..ExecStats::default()
        };
        let json = stats.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"tuples_scanned\":42"));
        assert!(json.contains("\"rows_skipped\":3"));
        assert!(json.contains("\"served_from_cache\":true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn absorb_worker_merges_trace_buffers() {
        use vida_trace::{stage, QueryTrace};
        let mut coord = ExecStats {
            trace: Some(Box::new(QueryTrace::start())),
            ..ExecStats::default()
        };
        let epoch = coord.trace_epoch().unwrap();
        let mut worker = ExecStats::default();
        let mut wt = QueryTrace::with_epoch(1, epoch);
        wt.begin(stage::SCAN);
        wt.end_counted(7, 1);
        worker.trace = Some(Box::new(wt));
        worker.tuples_scanned = 7;
        coord.absorb_worker(worker);
        let trace = coord.query_trace().unwrap();
        assert_eq!(trace.spans().len(), 1);
        assert_eq!(trace.spans()[0].tuples, 7);
        assert_eq!(coord.tuples_scanned, 7);
    }
}
