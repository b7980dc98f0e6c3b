//! Bench-side spans for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into the engine: name, start, end, parent (by nesting on a track) and
//! the query they belong to (each query has a `query` root span). They are
//! kept in memory in a `vida_trace::QueryTrace` — the engine's public span
//! buffer, reused so `chrome_trace_json` can write bench spans and the
//! engine's own per-query traces on one timeline — and written out when
//! the run ends. With tracing off every call here is one branch.

use std::collections::BTreeMap;
use std::time::Instant;
use vida_trace::{chrome_trace_json, stage, QueryTrace, Span};

/// Engine traces kept for the trace file (all are folded into the stage
/// shares; the file would otherwise grow with the run length).
const ENGINE_TRACES_KEPT: usize = 200;

pub struct Spans(Option<Box<Recorder>>);

struct Recorder {
    bench: QueryTrace,
    engine: Vec<(u64, QueryTrace)>,
    engine_traces: u64,
    engine_spans: u64,
    /// Self time by engine stage, raw scans separated from the fused drive
    /// loop (see [`fold_engine_trace`]).
    stage_self_ns: BTreeMap<&'static str, u64>,
}

impl Spans {
    pub fn off() -> Spans {
        Spans(None)
    }

    pub fn on() -> Spans {
        Spans::on_track(0, Instant::now())
    }

    /// A recorder for another thread (a served client), sharing `epoch`.
    pub fn on_track(track: u32, epoch: Instant) -> Spans {
        Spans(Some(Box::new(Recorder {
            bench: QueryTrace::with_epoch(track, epoch),
            engine: Vec::new(),
            engine_traces: 0,
            engine_spans: 0,
            stage_self_ns: BTreeMap::new(),
        })))
    }

    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    pub fn epoch(&self) -> Option<Instant> {
        self.0.as_ref().map(|r| r.bench.epoch())
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) {
        if let Some(r) = &mut self.0 {
            r.bench.begin(name);
        }
    }

    #[inline]
    pub fn end(&mut self) {
        if let Some(r) = &mut self.0 {
            r.bench.end();
        }
    }

    pub fn begin_query(&mut self) {
        self.begin("query");
    }

    pub fn end_query(&mut self) {
        self.end();
    }

    /// Take in the engine's own trace of one query (`JitOptions::trace`).
    pub fn engine_trace(&mut self, trace: QueryTrace) {
        let Some(r) = &mut self.0 else { return };
        r.engine_traces += 1;
        r.engine_spans += trace.spans().len() as u64;
        fold_engine_trace(&trace, &mut r.stage_self_ns);
        if r.engine.len() < ENGINE_TRACES_KEPT {
            let offset = trace.epoch().duration_since(r.bench.epoch()).as_nanos() as u64;
            r.engine.push((offset, trace));
        }
    }

    /// Merge a client thread's recorder into this one.
    pub fn absorb(&mut self, other: Spans) {
        if let (Some(r), Some(o)) = (&mut self.0, other.0) {
            r.bench.absorb(o.bench);
        }
    }

    pub fn summary(&self) -> Option<Summary> {
        let r = self.0.as_ref()?;
        let mut bench_self_ns = BTreeMap::new();
        self_times(r.bench.spans(), &mut |span, ns| {
            *bench_self_ns.entry(span.stage).or_insert(0) += ns;
        });
        let query_ns = r
            .bench
            .spans()
            .iter()
            .filter(|s| s.stage == "query")
            .map(|s| s.dur_ns)
            .sum();
        Some(Summary {
            bench_self_ns,
            query_ns,
            stage_self_ns: r.stage_self_ns.clone(),
            engine_traces: r.engine_traces,
            engine_spans: r.engine_spans,
        })
    }

    /// Chrome trace-event JSON: bench spans plus the kept engine traces.
    pub fn chrome_json(&self) -> Option<String> {
        let r = self.0.as_ref()?;
        let mut traces: Vec<(u64, &QueryTrace)> = vec![(0, &r.bench)];
        traces.extend(r.engine.iter().map(|(o, t)| (*o, t)));
        Some(chrome_trace_json(&traces))
    }
}

pub struct Summary {
    /// Self time (span minus children) by bench span name.
    pub bench_self_ns: BTreeMap<&'static str, u64>,
    /// Total time inside `query` root spans.
    pub query_ns: u64,
    pub stage_self_ns: BTreeMap<&'static str, u64>,
    pub engine_traces: u64,
    pub engine_spans: u64,
}

impl Summary {
    /// Share of query time spent in the named bench spans themselves.
    pub fn bench_share(&self, names: &[&str]) -> f64 {
        let ns: u64 = names.iter().filter_map(|n| self.bench_self_ns.get(n)).sum();
        ns as f64 / self.query_ns.max(1) as f64
    }

    /// Share of the engine's traced self time spent in `stage`.
    pub fn stage_share(&self, stage: &str) -> f64 {
        let total: u64 = self.stage_self_ns.values().sum();
        *self.stage_self_ns.get(stage).unwrap_or(&0) as f64 / total.max(1) as f64
    }

    /// The "where the time goes" table.
    pub fn table(&self, workload: &str) -> String {
        let mut out = format!("where the time goes — {workload} (traced run)\n");
        out.push_str("  bench-side spans, self time as a share of query time:\n");
        for (name, ns) in &self.bench_self_ns {
            out.push_str(&format!(
                "    {name:<16} {:>10.3} ms {:>6.1}%\n",
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / self.query_ns.max(1) as f64
            ));
        }
        out.push_str("  engine stages (QueryTrace), self time as a share of traced engine time:\n");
        for (name, ns) in &self.stage_self_ns {
            out.push_str(&format!(
                "    {name:<16} {:>10.3} ms {:>6.1}%\n",
                *ns as f64 / 1e6,
                100.0 * self.stage_share(name)
            ));
        }
        out
    }
}

/// Self time of every span: its duration minus the time its children on
/// the same track cover. Spans of a track are recorded in start order with
/// their nesting depth (`QueryTrace`'s stack discipline), so one stack per
/// track, cut back to each span's depth, has its parent on top.
fn self_times(spans: &[Span], emit: &mut dyn FnMut(&Span, u64)) {
    let mut child_ns = vec![0u64; spans.len()];
    let mut stacks: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let stack = stacks.entry(span.worker).or_default();
        stack.truncate(span.depth as usize);
        if let Some(&parent) = stack.last() {
            child_ns[parent] += span.dur_ns;
        }
        stack.push(i);
    }
    for (i, span) in spans.iter().enumerate() {
        emit(span, span.dur_ns.saturating_sub(child_ns[i]));
    }
}

/// Add one engine trace's self time to `by_stage`.
///
/// The engine names two different things `scan`: reading raw bytes
/// (tokenise + parse), and the fused push loop that drives already
/// materialised rows into the fold when the pipeline has no join. The
/// second always runs inside the coordinator's `fold` span, so a `scan`
/// span that starts within a `fold` interval is charged to `fold`; what
/// stays under `scan` is raw-data work only.
fn fold_engine_trace(trace: &QueryTrace, by_stage: &mut BTreeMap<&'static str, u64>) {
    let folds: Vec<(u64, u64)> = trace
        .spans()
        .iter()
        .filter(|s| s.worker == 0 && s.stage == stage::FOLD)
        .map(|s| (s.start_ns, s.end_ns()))
        .collect();
    self_times(trace.spans(), &mut |span, ns| {
        let in_fold = folds
            .iter()
            .any(|&(lo, hi)| lo <= span.start_ns && span.start_ns < hi);
        let name = if span.stage == stage::SCAN && in_fold {
            stage::FOLD
        } else {
            span.stage
        };
        *by_stage.entry(name).or_insert(0) += ns;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: &'static str, worker: u32, depth: u32, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            stage,
            worker,
            depth,
            start_ns,
            dur_ns,
            tuples: 0,
            morsels: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_per_track() {
        let spans = [
            span("query", 0, 0, 0, 100),
            span("parse", 0, 1, 0, 10),
            span("execute", 0, 1, 10, 80),
            span("query", 1, 0, 5, 50),
            span("execute", 1, 1, 10, 40),
            span("query", 0, 0, 100, 20),
        ];
        let mut got = Vec::new();
        self_times(&spans, &mut |s, ns| got.push((s.stage, s.worker, ns)));
        assert_eq!(
            got,
            vec![
                ("query", 0, 10),
                ("parse", 0, 10),
                ("execute", 0, 80),
                ("query", 1, 10),
                ("execute", 1, 40),
                ("query", 0, 20),
            ]
        );
    }

    #[test]
    fn recorder_off_records_nothing() {
        let mut s = Spans::off();
        s.begin_query();
        s.end_query();
        assert!(s.summary().is_none() && s.chrome_json().is_none());
    }
}
