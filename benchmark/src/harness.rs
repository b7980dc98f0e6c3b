//! What every workload shares: opening the generated files in a fresh
//! engine, sending one query text through the whole front end, checking
//! the answer, and the set-up lifecycle whose parts are end-to-end metrics
//! of their own.

use crate::fixtures::{Dataset, Kind, Tables};
use crate::oracle::{values_match, Oracle, Query};
use crate::spans::Spans;
use crate::stats::ms_since;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use vida_algebra::{lower, rewrite};
use vida_cache::CacheManager;
use vida_exec::{Engine, ExecStats, JitOptions, MemoryCatalog, OutputFormat, Session};
use vida_lang::parse;
use vida_optimizer::CostModel;
use vida_types::{Result as VidaResult, Value};

/// Queries of the cold sequence (the issue's 40, as in Fig. 5).
pub const COLD_SEQUENCE: usize = 40;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How one workload sizes its inputs and its engine.
#[derive(Debug, Clone)]
pub struct Sizing {
    /// `(dataset, rows)` written at set-up.
    pub datasets: Vec<(Kind, usize)>,
    pub threads: usize,
    pub cache_bytes: usize,
    /// Share of its rows each file grows by per append step (~1%).
    pub append_share: f64,
}

/// Attempts and failures (errors, refusals, wrong answers) of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn fail(&mut self, what: &str, query: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("FAILED ({what}): {query}");
        }
    }
}

/// A fresh engine over freshly opened files: new catalog, empty cache, new
/// cost model — where a user is right after pointing ViDa at raw data.
pub struct Opened {
    pub engine: Arc<Engine>,
    pub cache: Arc<CacheManager>,
}

pub fn open_engine(
    datasets: &[Dataset],
    sizing: &Sizing,
    trace: bool,
    spans: &mut Spans,
) -> Opened {
    spans.begin("open_with");
    let catalog = MemoryCatalog::new();
    for ds in datasets {
        catalog.register(ds.open());
    }
    spans.end();
    let cache = Arc::new(CacheManager::new(sizing.cache_bytes));
    let opts = JitOptions {
        cache: Some(Arc::clone(&cache)),
        cost_model: Some(Arc::new(CostModel::new())),
        threads: sizing.threads,
        trace,
        ..Default::default()
    };
    Opened {
        engine: Arc::new(Engine::new(Arc::new(catalog), opts)),
        cache,
    }
}

/// One query, text in, value out: parse, lower, rewrite, execute. This is
/// what every in-process latency sample times.
pub fn run_text(
    session: &mut Session<'_>,
    text: &str,
    spans: &mut Spans,
) -> VidaResult<(Value, ExecStats)> {
    spans.begin("parse");
    let expr = parse(text);
    spans.end();
    spans.begin("lower_rewrite");
    let plan = expr.and_then(|e| lower(&e)).map(|p| rewrite(&p));
    spans.end();
    spans.begin("execute");
    let out = plan.and_then(|p| session.execute_with_stats(&p));
    spans.end();
    out
}

/// The data, the oracle over it, the query stream, and the tallies of one
/// set-up. The engine lives beside it in an [`Opened`].
pub struct Ctx {
    pub sizing: Sizing,
    pub datasets: Vec<Dataset>,
    pub oracle: Oracle,
    pub stream: Vec<Query>,
    /// Engine counters summed over every checked query.
    pub exec: ExecStats,
    pub tally: Tally,
    /// Also write every answer through the text output plugin. The traced
    /// run sets it for traced and untraced passes alike, so the plugin
    /// shows on the timeline without counting as tracing overhead.
    pub write_output: bool,
}

impl Ctx {
    /// Run stream query `index` on `session`, time it, check it. Returns
    /// the latency in ms; the check is outside it.
    pub fn timed(&mut self, session: &mut Session<'_>, index: usize, spans: &mut Spans) -> f64 {
        let query = &self.stream[index % self.stream.len()];
        spans.begin_query();
        let t0 = Instant::now();
        let out = run_text(session, &query.text, spans);
        let ms = ms_since(t0);
        if let (true, Ok((value, _))) = (self.write_output, &out) {
            spans.begin("output_write");
            std::hint::black_box(OutputFormat::Text.write(value)).ok();
            spans.end();
        }
        spans.end_query();
        self.tally.attempted += 1;
        match (out, self.oracle.expected(query)) {
            (Ok((got, mut stats)), Ok(want)) => {
                if let Some(trace) = stats.trace.take() {
                    spans.engine_trace(*trace);
                }
                self.exec.accumulate(&stats);
                if !values_match(&got, &want) {
                    self.tally.fail("wrong answer", &query.text);
                }
            }
            (Err(e), _) => self.tally.fail(&e.to_string(), &query.text),
            (_, Err(e)) => self.tally.fail(&e, &query.text),
        }
        ms
    }

    /// Grow every file on disk by `append_share` of its rows (the oracle's
    /// tables follow), then answer stream queries — from the next stride
    /// of the stream, like a cold start, so every step asks with new keys —
    /// until every grown dataset has been touched. The mean latency of the
    /// queries that were first to touch a grown dataset is one
    /// `requery_after_append_ms` sample. Returns the stream indexes it ran.
    pub fn append_and_requery(
        &mut self,
        session: &mut Session<'_>,
        life: &mut Lifecycle,
        latencies: &mut Vec<f64>,
        spans: &mut Spans,
    ) -> std::ops::Range<usize> {
        spans.begin("append");
        for ds in &mut self.datasets {
            let extra = ((ds.rows as f64 * self.sizing.append_share) as usize).max(1);
            let tail = ds.append(extra);
            self.oracle.tables.extend(ds.kind, &tail);
        }
        spans.end();
        let names: Vec<&str> = self.datasets.iter().map(|d| d.kind.name()).collect();
        // A dataset no stream query names (Regions under the HBP mix) is
        // never touched; it must not keep the loop waiting for it.
        let mut touched: Vec<bool> = names
            .iter()
            .map(|name| !self.stream.iter().any(|q| q.text.contains(name)))
            .collect();
        let first = life.appends * STRIDE;
        life.appends += 1;
        let mut first_touches = Vec::new();
        let mut next = first;
        while next < first + self.stream.len() && !touched.iter().all(|&t| t) {
            let text = &self.stream[next % self.stream.len()].text;
            let hits: Vec<usize> = (0..names.len())
                .filter(|&d| text.contains(names[d]))
                .collect();
            let first_touch = hits.iter().any(|&d| !touched[d]);
            hits.iter().for_each(|&d| touched[d] = true);
            let ms = self.timed(session, next, spans);
            latencies.push(ms);
            if first_touch {
                first_touches.push(ms);
            }
            next += 1;
        }
        life.requery_ms
            .push(first_touches.iter().sum::<f64>() / first_touches.len() as f64);
        first..next
    }

    pub fn raw_bytes(&self) -> usize {
        self.datasets.iter().map(Dataset::raw_bytes).sum()
    }
}

/// Samples of the lifecycle steps; each is an end-to-end metric.
#[derive(Debug, Default)]
pub struct Lifecycle {
    pub setup_s: Vec<f64>,
    pub first_query_ms: Vec<f64>,
    pub cold_sequence_ms: Vec<f64>,
    pub requery_ms: Vec<f64>,
    /// Cold starts and append steps so far in this run; each takes the
    /// next stride of the stream.
    pub cold_starts: usize,
    pub appends: usize,
}

/// Stream distance between the slices successive cold starts (and append
/// steps) answer: a multiple of every mix's number of shapes (4, 9, 3) and
/// of the append batch's length, so each begins with the same kind of
/// query, with new keys.
const STRIDE: usize = 360;

/// Open fresh and answer `queries` stream queries: the data-to-query time
/// (`first_query_ms`) and, for a whole [`COLD_SEQUENCE`], the cold sequence
/// time, both counted from before the files are opened. Per-query
/// latencies go to `latencies`.
pub fn cold_start(
    ctx: &mut Ctx,
    queries: usize,
    trace: bool,
    life: &mut Lifecycle,
    latencies: &mut Vec<f64>,
    spans: &mut Spans,
) -> Opened {
    let first = life.cold_starts * STRIDE;
    life.cold_starts += 1;
    let t_open = Instant::now();
    let opened = open_engine(&ctx.datasets, &ctx.sizing, trace, spans);
    let mut session = opened.engine.session();
    for index in first..first + queries {
        latencies.push(ctx.timed(&mut session, index, spans));
        if index == first {
            life.first_query_ms.push(ms_since(t_open));
        }
    }
    if queries == COLD_SEQUENCE {
        life.cold_sequence_ms.push(ms_since(t_open));
    }
    drop(session);
    opened
}

/// Extra cold starts per set-up that stop after their first answer, and
/// append steps per set-up: both are cheap beside the cold sequence, and
/// `first_query_ms` and `requery_after_append_ms` need the samples (a 6 ms
/// fresh open varies by +-8% from one to the next). The first append after
/// a cold sequence costs 3-4x the later ones, and the second is still
/// settling; eight steps keep the reported quartile on the steady re-query
/// cost that `append_requery`'s rounds measure.
const FIRST_QUERY_PROBES: usize = 6;
const APPEND_STEPS: usize = 8;

/// One whole set-up: generate and write the files, read them into the
/// oracle, cold-start a few times for the first answer only, then once for
/// the whole cold sequence, and on that engine grow the files and re-query
/// a few times. Its wall time is one `setup_s` sample.
pub fn set_up(
    sizing: &Sizing,
    make_stream: &dyn Fn(&Tables) -> Vec<Query>,
    seed: u64,
    dir: &Path,
    life: &mut Lifecycle,
    spans: &mut Spans,
) -> (Ctx, Opened) {
    let t0 = Instant::now();
    let mut tables = Tables::default();
    let mut datasets = Vec::new();
    for (i, &(kind, rows)) in sizing.datasets.iter().enumerate() {
        let file_seed = seed.wrapping_mul(31).wrapping_add(i as u64);
        let (ds, data) = Dataset::create(kind, dir, rows, file_seed);
        tables.extend(kind, &data);
        datasets.push(ds);
    }
    let stream = make_stream(&tables);
    assert!(
        stream.len() >= COLD_SEQUENCE,
        "stream shorter than the cold sequence"
    );
    let mut ctx = Ctx {
        sizing: sizing.clone(),
        datasets,
        oracle: Oracle { tables },
        stream,
        exec: ExecStats::default(),
        tally: Tally::default(),
        write_output: spans.is_on(),
    };
    let mut discard = Vec::new();
    for _ in 0..FIRST_QUERY_PROBES {
        cold_start(&mut ctx, 1, false, life, &mut discard, spans);
    }
    let opened = cold_start(&mut ctx, COLD_SEQUENCE, false, life, &mut discard, spans);
    for _ in 0..APPEND_STEPS {
        ctx.append_and_requery(&mut opened.engine.session(), life, &mut discard, spans);
    }
    life.setup_s.push(t0.elapsed().as_secs_f64());
    (ctx, opened)
}
