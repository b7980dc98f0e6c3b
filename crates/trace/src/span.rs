//! Per-query span recording.
//!
//! A [`QueryTrace`] is a single track's buffer: the coordinator owns one
//! (track 0), and each pool worker records into its own buffer (tracks
//! `1..=threads`) created with [`QueryTrace::with_epoch`] so all tracks
//! share one time origin. Recording is plain `Vec` pushes — no locks, no
//! atomics — and worker buffers are absorbed into the coordinator's at the
//! points where the engine already merges per-morsel results, preserving
//! morsel order and therefore determinism of the aggregated counters.
//!
//! Spans follow stack discipline within a track: `begin` pushes, `end`
//! (or [`QueryTrace::end_counted`]) pops the innermost open span. That
//! gives two invariants consumers may rely on: spans in one track never
//! partially overlap, and a child span's interval is contained in its
//! parent's.

use std::time::Instant;

/// The static stage taxonomy. Every span names one of these phases; see
/// ARCHITECTURE.md ("Observability") for what each covers.
pub mod stage {
    /// Algebra lowering: left-deepening, join reordering, the decline check.
    pub const LOWER: &str = "lower";
    /// Kernel compilation: expression → closure kernels, fusion, head plan.
    pub const CODEGEN: &str = "codegen";
    /// Cache lookups and replica decode for the query's touched columns.
    pub const CACHE_PROBE: &str = "cache_probe";
    /// Hash/band build over a join's right side.
    pub const BUILD_SIDE: &str = "build_side";
    /// Raw-data scans: tokenize + parse of CSV/JSON columns.
    pub const SCAN: &str = "scan";
    /// The fused probe loop of a join-bearing pipeline.
    pub const PROBE: &str = "probe";
    /// Stream folding: monoid merge of tuples / per-morsel partials.
    pub const FOLD: &str = "fold";
    /// Post-query cost-model replica writes.
    pub const REPLICA_SYNC: &str = "replica_sync";
}

/// One closed (or still-open, `dur_ns = 0`) span on a track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Stage name from [`stage`].
    pub stage: &'static str,
    /// Track id: 0 = coordinator, `1..=threads` = pool workers.
    pub worker: u32,
    /// Nesting depth at `begin` time (0 = top level of its track).
    pub depth: u32,
    /// Start offset from the query epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 while the span is still open).
    pub dur_ns: u64,
    /// Tuples attributed to this span (leaf spans carry the counts; wrapper
    /// spans leave 0 so aggregation never double-counts).
    pub tuples: u64,
    /// Morsels attributed to this span.
    pub morsels: u64,
}

impl Span {
    /// End offset from the query epoch, nanoseconds.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Per-stage aggregate over a whole trace, in first-start order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTotals {
    pub stage: &'static str,
    /// Number of spans with this stage.
    pub spans: u64,
    /// Earliest start across the stage's spans (ns from epoch).
    pub first_start_ns: u64,
    /// Extent of the stage: latest end minus earliest start.
    pub wall_ns: u64,
    /// Summed span durations (counts each worker's time, so it can exceed
    /// `wall_ns` when workers run concurrently).
    pub busy_ns: u64,
    pub tuples: u64,
    pub morsels: u64,
    /// Distinct tracks that recorded this stage.
    pub workers: u64,
    /// Minimum nesting depth observed (drives the indent in
    /// [`QueryTrace::explain_analyze`]).
    pub min_depth: u32,
}

/// One track's span buffer plus the per-kernel invocation counts recorded
/// on that track. See the module docs for the recording protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    epoch: Instant,
    worker: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    kernel_invocations: Vec<u64>,
    /// Decision lines the engine recorded (see [`QueryTrace::note`]).
    notes: Vec<String>,
}

impl QueryTrace {
    /// Start a coordinator trace (track 0) with a fresh epoch.
    pub fn start() -> Self {
        Self::with_epoch(0, Instant::now())
    }

    /// Start a worker-track buffer sharing the coordinator's epoch, so
    /// timestamps from every track live on one axis.
    pub fn with_epoch(worker: u32, epoch: Instant) -> Self {
        QueryTrace {
            epoch,
            worker,
            spans: Vec::new(),
            open: Vec::new(),
            kernel_invocations: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// The shared time origin (hand it to [`QueryTrace::with_epoch`]).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// This buffer's track id.
    pub fn worker(&self) -> u32 {
        self.worker
    }

    /// Open a span. Must be balanced by [`QueryTrace::end`] /
    /// [`QueryTrace::end_counted`] on the same track.
    #[inline]
    pub fn begin(&mut self, stage: &'static str) {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let idx = self.spans.len();
        self.spans.push(Span {
            stage,
            worker: self.worker,
            depth: self.open.len() as u32,
            start_ns,
            dur_ns: 0,
            tuples: 0,
            morsels: 0,
        });
        self.open.push(idx);
    }

    /// Close the innermost open span without attributing counts.
    #[inline]
    pub fn end(&mut self) {
        self.end_counted(0, 0);
    }

    /// Close the innermost open span, attributing `tuples` and `morsels`.
    #[inline]
    pub fn end_counted(&mut self, tuples: u64, morsels: u64) {
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        let Some(idx) = self.open.pop() else {
            debug_assert!(false, "QueryTrace::end without matching begin");
            return;
        };
        let span = &mut self.spans[idx];
        span.dur_ns = now_ns.saturating_sub(span.start_ns);
        span.tuples = tuples;
        span.morsels = morsels;
    }

    /// Record one invocation of kernel `id` (dense ids assigned at compile
    /// time).
    #[inline]
    pub fn kernel_hit(&mut self, id: u32) {
        self.kernel_hits(id, 1);
    }

    /// Record `n` invocations of kernel `id`.
    #[inline]
    pub fn kernel_hits(&mut self, id: u32, n: u64) {
        let i = id as usize;
        if self.kernel_invocations.len() <= i {
            self.kernel_invocations.resize(i + 1, 0);
        }
        self.kernel_invocations[i] += n;
    }

    /// Record one line of the engine's decisions for this query (say, how
    /// many rows a scan's block skip refuted); [`QueryTrace::explain_analyze`]
    /// prints them after the stage table.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Merge a worker buffer into this one: spans are appended (each span
    /// already carries its track id), kernel counts are summed and notes
    /// appended. Call in
    /// morsel order to keep aggregate ordering deterministic.
    pub fn absorb(&mut self, other: QueryTrace) {
        debug_assert!(
            other.open.is_empty(),
            "absorbing a trace with open spans loses their durations"
        );
        self.spans.extend(other.spans);
        self.notes.extend(other.notes);
        if self.kernel_invocations.len() < other.kernel_invocations.len() {
            self.kernel_invocations
                .resize(other.kernel_invocations.len(), 0);
        }
        for (acc, n) in self
            .kernel_invocations
            .iter_mut()
            .zip(&other.kernel_invocations)
        {
            *acc += n;
        }
    }

    /// All recorded spans, in recording/absorb order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans still open (0 once a query finished cleanly).
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }

    /// Invocation counts indexed by kernel id.
    pub fn kernel_invocations(&self) -> &[u64] {
        &self.kernel_invocations
    }

    /// The most-invoked kernel as `(id, count)`, if any kernel ran.
    pub fn hottest_kernel(&self) -> Option<(u32, u64)> {
        self.kernel_invocations
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .max_by_key(|&(i, &n)| (n, std::cmp::Reverse(i)))
            .map(|(i, &n)| (i as u32, n))
    }

    /// Distinct track ids present, ascending.
    pub fn tracks(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.spans.iter().map(|s| s.worker).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Aggregate spans per stage, ordered by each stage's earliest start.
    pub fn stage_totals(&self) -> Vec<StageTotals> {
        let mut totals: Vec<StageTotals> = Vec::new();
        for s in &self.spans {
            let entry = match totals.iter_mut().find(|t| t.stage == s.stage) {
                Some(t) => t,
                None => {
                    totals.push(StageTotals {
                        stage: s.stage,
                        spans: 0,
                        first_start_ns: s.start_ns,
                        wall_ns: 0,
                        busy_ns: 0,
                        tuples: 0,
                        morsels: 0,
                        workers: 0,
                        min_depth: s.depth,
                    });
                    totals.last_mut().expect("just pushed")
                }
            };
            entry.spans += 1;
            entry.first_start_ns = entry.first_start_ns.min(s.start_ns);
            entry.busy_ns += s.dur_ns;
            entry.tuples += s.tuples;
            entry.morsels += s.morsels;
            entry.min_depth = entry.min_depth.min(s.depth);
        }
        for t in totals.iter_mut() {
            let stage_spans = self.spans.iter().filter(|s| s.stage == t.stage);
            let last_end = stage_spans.clone().map(Span::end_ns).max().unwrap_or(0);
            t.wall_ns = last_end.saturating_sub(t.first_start_ns);
            let mut workers: Vec<u32> = stage_spans.map(|s| s.worker).collect();
            workers.sort_unstable();
            workers.dedup();
            t.workers = workers.len() as u64;
        }
        totals.sort_by_key(|t| t.first_start_ns);
        totals
    }

    /// Total query extent: latest span end, ns from epoch.
    pub fn wall_ns(&self) -> u64 {
        self.spans.iter().map(Span::end_ns).max().unwrap_or(0)
    }

    /// Render the per-stage execution profile: wall/busy time, tuples, and
    /// morsels per stage, in pipeline order, indented by nesting depth;
    /// then the kernel summary and the engine's decision lines
    /// ([`QueryTrace::note`]).
    pub fn explain_analyze(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let tracks = self.tracks();
        let workers = tracks.iter().filter(|&&w| w > 0).count();
        let mut out = format!(
            "EXPLAIN ANALYZE — wall {:.3} ms, {} spans, {} track{} (coordinator + {} worker{})\n",
            ms(self.wall_ns()),
            self.spans.len(),
            tracks.len(),
            if tracks.len() == 1 { "" } else { "s" },
            workers,
            if workers == 1 { "" } else { "s" },
        );
        out.push_str(&format!(
            "{:<24} {:>10} {:>10} {:>7} {:>10} {:>8} {:>8}\n",
            "stage", "wall ms", "busy ms", "spans", "tuples", "morsels", "workers"
        ));
        for t in self.stage_totals() {
            let name = format!("{}{}", "  ".repeat(t.min_depth as usize), t.stage);
            out.push_str(&format!(
                "{:<24} {:>10.3} {:>10.3} {:>7} {:>10} {:>8} {:>8}\n",
                name,
                ms(t.wall_ns),
                ms(t.busy_ns),
                t.spans,
                t.tuples,
                t.morsels,
                t.workers,
            ));
        }
        let invocations: u64 = self.kernel_invocations.iter().sum();
        match self.hottest_kernel() {
            Some((id, n)) => out.push_str(&format!(
                "kernels: {} with recorded calls, {} invocations (hottest #{id} × {n})\n",
                self.kernel_invocations.iter().filter(|&&n| n > 0).count(),
                invocations,
            )),
            None => out.push_str("kernels: no invocations recorded\n"),
        }
        for line in &self.notes {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Export this trace alone as Chrome trace-event JSON. For multi-query
    /// timelines use [`crate::chrome::chrome_trace_json`] directly.
    pub fn to_chrome_json(&self) -> String {
        crate::chrome::chrome_trace_json(&[(0, self)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: &QueryTrace, i: usize) -> Span {
        trace.spans()[i]
    }

    #[test]
    fn spans_follow_stack_discipline() {
        let mut t = QueryTrace::start();
        t.begin(stage::LOWER);
        t.end();
        t.begin(stage::FOLD);
        t.begin(stage::SCAN);
        t.end_counted(100, 4);
        t.end();
        assert_eq!(t.open_spans(), 0);
        assert_eq!(span(&t, 0).stage, stage::LOWER);
        assert_eq!(span(&t, 0).depth, 0);
        assert_eq!(span(&t, 1).stage, stage::FOLD);
        assert_eq!(span(&t, 2).stage, stage::SCAN);
        assert_eq!(span(&t, 2).depth, 1);
        assert_eq!(span(&t, 2).tuples, 100);
        assert_eq!(span(&t, 2).morsels, 4);
        // Child contained in parent.
        let fold = span(&t, 1);
        let scan = span(&t, 2);
        assert!(fold.start_ns <= scan.start_ns);
        assert!(scan.end_ns() <= fold.end_ns());
    }

    #[test]
    fn worker_buffers_share_the_epoch_and_absorb_in_order() {
        let mut coord = QueryTrace::start();
        coord.begin(stage::FOLD);
        let mut w1 = QueryTrace::with_epoch(1, coord.epoch());
        w1.begin(stage::SCAN);
        w1.end_counted(10, 1);
        w1.kernel_hits(2, 10);
        let mut w2 = QueryTrace::with_epoch(2, coord.epoch());
        w2.begin(stage::SCAN);
        w2.end_counted(20, 1);
        w2.kernel_hit(0);
        coord.end();
        coord.absorb(w1);
        coord.absorb(w2);
        assert_eq!(coord.tracks(), vec![0, 1, 2]);
        assert_eq!(coord.kernel_invocations(), &[1, 0, 10]);
        let totals = coord.stage_totals();
        let scan = totals.iter().find(|t| t.stage == stage::SCAN).unwrap();
        assert_eq!(scan.tuples, 30);
        assert_eq!(scan.morsels, 2);
        assert_eq!(scan.workers, 2);
        assert_eq!(coord.hottest_kernel(), Some((2, 10)));
    }

    #[test]
    fn stage_totals_order_by_first_start() {
        let mut t = QueryTrace::start();
        t.begin(stage::CODEGEN);
        t.end();
        t.begin(stage::SCAN);
        t.end();
        t.begin(stage::CODEGEN); // second codegen burst folds into the first row
        t.end();
        let totals = t.stage_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].stage, stage::CODEGEN);
        assert_eq!(totals[0].spans, 2);
        assert_eq!(totals[1].stage, stage::SCAN);
    }

    #[test]
    fn explain_analyze_mentions_every_stage_once() {
        let mut t = QueryTrace::start();
        t.begin(stage::LOWER);
        t.end();
        t.begin(stage::FOLD);
        t.begin(stage::PROBE);
        t.end_counted(42, 1);
        t.end();
        t.kernel_hits(0, 42);
        let text = t.explain_analyze();
        assert_eq!(text.matches("lower").count(), 1);
        assert_eq!(text.matches("probe").count(), 1);
        assert!(text.contains("42"));
        assert!(text.contains("hottest #0 × 42"));
        // The probe row is indented under fold.
        assert!(text.contains("\n  probe") || text.contains("\n                  probe"));
    }

    #[test]
    fn hottest_kernel_prefers_lowest_id_on_ties() {
        let mut t = QueryTrace::start();
        t.kernel_hits(3, 5);
        t.kernel_hits(1, 5);
        assert_eq!(t.hottest_kernel(), Some((1, 5)));
        assert_eq!(QueryTrace::start().hottest_kernel(), None);
    }
}
