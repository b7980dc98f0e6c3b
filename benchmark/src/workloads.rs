//! The six workloads: what each generates, how it is sized, and the
//! measured window of each. See README.md for why each exists and which
//! layers it loads.
//!
//! Sizes are what fits the driver's budget (136 runs, each set up several
//! times, inside 57 minutes), not the issue's 300k rows: a warm HBP query
//! over cached columns costs ~70 ns per row here, so latency samples by
//! the thousand in ten seconds mean tens of thousands of rows, not
//! hundreds of thousands.

use crate::fixtures::{Kind, Tables, WIDE_COLS};
use crate::harness::{
    cold_start, nproc, set_up, Ctx, Lifecycle, Opened, Sizing, Tally, COLD_SEQUENCE,
};
use crate::oracle::shape_of;
use crate::oracle::{Query, WideOp, WideSpec};
use crate::served;
use crate::spans::Spans;
use crate::speed::Speedometer;
use crate::stats::{median, quantile, Report};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use vida_trace::{global_metrics, MetricsSnapshot};
use vida_workload::{
    generate, generate_append_replay, generate_join_heavy, generate_nested_heavy, QuerySpec, Rng,
    Template, WorkloadConfig,
};

/// Queries generated per stream: more than any window gets through, so no
/// query text repeats within a run (dealing out evenly drops a few). A
/// multiple of the cold-start stride, which the wide stream — generated
/// here, never dealt out — relies on to keep its file rotation aligned.
const STREAM: usize = 3960;

/// Queries per block when the traced run alternates traced and untraced
/// passes over the same queries.
const TRACE_BLOCK: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// Fresh catalog + engine + empty cache, then the 40-query sequence.
    ColdIterations,
    /// One resident engine, one session, the stream in a closed loop.
    Stream,
    /// Append ~1% to every file, then a 40-query batch.
    AppendRounds,
    /// The stream through `QueryServer`, one closed-loop client per core.
    Served,
}

pub struct Plan {
    pub name: &'static str,
    pub sizing: Sizing,
    pub window: Window,
    /// Full set-ups per run (`setup_s` and the lifecycle metrics are
    /// quartiles over them): as many as fit in three to five seconds, and
    /// a divisor of [`SLICES`], which they are dealt out between.
    pub setups: usize,
    /// Client threads (1 = the caller itself).
    pub clients: usize,
    /// Stream queries after which the make-up of the stream repeats (its
    /// number of shapes): a slice of the window answers whole rounds.
    round: usize,
    make_stream: fn(u64, &Tables) -> Vec<Query>,
}

fn hbp_config(seed: u64, queries: usize, tables: &Tables) -> WorkloadConfig {
    let rows = tables.age.len() as i64;
    WorkloadConfig {
        seed,
        queries,
        locality: 0.8,
        key_space: rows,
        hot_keys: rows / 10,
    }
}

fn hbp_files(rows: usize) -> Vec<(Kind, usize)> {
    vec![
        (Kind::Patients, rows),
        (Kind::Genetics, rows),
        (Kind::Regions, rows / 3),
    ]
}

/// Deal a generated mix out evenly: group the queries by shape, then take
/// one of each shape in turn (simplest shape first) until a shape runs
/// out. The draw of templates is the one thing in `vida_workload`'s mixes
/// that differs from seed to seed in kind, not just in parameters: an
/// unlucky seed opens with a join, or puts fourteen joins in its first
/// forty queries instead of ten. Dealt out, every seed's first query and
/// every forty-query slice have the same make-up, and only keys vary.
fn stratified(mix: Vec<QuerySpec>) -> Vec<Query> {
    let mut by_shape: BTreeMap<(usize, String), VecDeque<Query>> = BTreeMap::new();
    for q in mix {
        let shape = shape_of(&q.text).0;
        by_shape
            .entry((shape.len(), shape))
            .or_default()
            .push_back(Query::from(q));
    }
    let rounds = by_shape.values().map(VecDeque::len).min().unwrap_or(0);
    (0..rounds)
        .flat_map(|_| {
            by_shape
                .values_mut()
                .filter_map(VecDeque::pop_front)
                .collect::<Vec<_>>()
        })
        .collect()
}

fn hbp_stream(seed: u64, t: &Tables) -> Vec<Query> {
    stratified(generate(&hbp_config(seed, STREAM, t)))
}

/// Join-heavy and nested-heavy mixes, half and half.
fn join_unnest_stream(seed: u64, t: &Tables) -> Vec<Query> {
    let mut mix = generate_join_heavy(&hbp_config(seed, STREAM / 2, t));
    mix.extend(generate_nested_heavy(&hbp_config(
        seed ^ 0x9e37,
        STREAM / 2,
        t,
    )));
    stratified(mix)
}

/// The append-replay batch: the two unfiltered folds whose cached partials
/// resume across appends lead it (as `generate_append_replay` puts them),
/// then its scan-heavy queries and unnest folds over Regions — so every
/// grown file is read — dealt out evenly. That is five shapes, each a mode
/// of the latency distribution a fifth of the batch wide, with the median
/// in the middle of the third; with the unnest joins as a sixth, the
/// median sat on the gap between two modes and jumped by 30% run to run.
fn append_stream(seed: u64, t: &Tables) -> Vec<Query> {
    let mut mix = generate_append_replay(&hbp_config(seed, STREAM / 4, t));
    let rest = mix.split_off(2);
    let unnests = generate_nested_heavy(&hbp_config(seed, STREAM / 4, t))
        .into_iter()
        .filter(|q| q.template == Template::UnnestFold);
    let mut batch: Vec<Query> = mix.into_iter().map(Query::from).collect();
    batch.extend(stratified(rest.into_iter().chain(unnests).collect()));
    batch.truncate(COLD_SEQUENCE);
    batch
}

/// Filter+aggregate queries rotating over every column of both wide
/// files: ints are summed, floats averaged (both under a key filter drawn
/// with the HBP locality skew), strings counted by equality.
fn wide_stream(seed: u64, t: &Tables) -> Vec<Query> {
    let rows = t.wide_csv[0].len() as u64;
    let mut rng = Rng::new(seed);
    (0..STREAM)
        .map(|i| {
            // Two CSV queries to one JSON query: a JSON column costs
            // several times a CSV one to re-fetch, and an even split would
            // put the median latency on the gap between the two.
            let kind = [Kind::WideCsv, Kind::WideCsv, Kind::WideJson][i % 3];
            let col = 1 + (i / 3) % (WIDE_COLS - 1);
            let key = if rng.unit() < 0.8 {
                rng.below(rows / 10)
            } else {
                rng.below(rows)
            } as i64;
            let op = match col % 3 {
                0 => WideOp::SumBelow(key),
                1 => WideOp::AvgBelow(key),
                // The generators' plain (unquoted, unescaped) strings.
                _ if kind == Kind::WideCsv => WideOp::CountEq(format!("w{}", rng.below(1000))),
                _ => WideOp::CountEq(format!("p{}", rng.below(1000))),
            };
            WideSpec { kind, col, op }.into_query()
        })
        .collect()
}

pub fn plan(name: &str) -> Option<Plan> {
    let hbp = |rows: usize, threads: usize| Sizing {
        datasets: hbp_files(rows),
        threads,
        cache_bytes: 256 << 20,
        append_share: 0.01,
    };
    Some(match name {
        "fig5_cold" => Plan {
            name: "fig5_cold",
            sizing: Sizing {
                cache_bytes: 64 << 20,
                ..hbp(40_000, nproc())
            },
            window: Window::ColdIterations,
            setups: 8,
            clients: 1,
            round: 4,
            make_stream: hbp_stream,
        },
        "warm_mix" => Plan {
            name: "warm_mix",
            sizing: hbp(20_000, 1),
            window: Window::Stream,
            setups: 16,
            clients: 1,
            round: 4,
            make_stream: hbp_stream,
        },
        "cache_pressure" => Plan {
            name: "cache_pressure",
            sizing: Sizing {
                datasets: vec![(Kind::WideCsv, 6_000), (Kind::WideJson, 6_000)],
                threads: 1,
                // A quarter of the parsed-values working set: with room for
                // everything the cache settles at 5.3 MB (1.47 bytes per
                // raw byte) over these 62 columns x 6000 rows.
                cache_bytes: 1_300_000,
                append_share: 0.01,
            },
            window: Window::Stream,
            setups: 4,
            clients: 1,
            // Two files in three turns, three operators in three columns.
            round: 9,
            make_stream: wide_stream,
        },
        "join_unnest" => Plan {
            name: "join_unnest",
            sizing: Sizing {
                datasets: vec![
                    (Kind::Patients, 30_000),
                    (Kind::Genetics, 1_500),
                    (Kind::Regions, 10_000),
                ],
                ..hbp(0, nproc())
            },
            window: Window::Stream,
            setups: 8,
            clients: 1,
            round: 9,
            make_stream: join_unnest_stream,
        },
        "append_requery" => Plan {
            name: "append_requery",
            sizing: hbp(20_000, 1),
            window: Window::AppendRounds,
            setups: 8,
            clients: 1,
            round: COLD_SEQUENCE,
            make_stream: append_stream,
        },
        "served_concurrent" => Plan {
            name: "served_concurrent",
            sizing: hbp(20_000, nproc()),
            window: Window::Served,
            setups: 16,
            clients: nproc(),
            round: 4,
            make_stream: hbp_stream,
        },
        _ => return None,
    })
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What a run hands back: the metrics, and the attempts/failures behind
/// `correct`.
pub struct Outcome {
    pub report: Report,
    pub tally: Tally,
    /// Samples behind the latency metrics, for provenance.
    pub samples: usize,
    /// The machine's slowdown over the run, which the timings are divided by.
    pub slowdown: f64,
}

struct Run<'a> {
    plan: &'a Plan,
    seed: u64,
    /// Where the next set-up writes its files.
    dir: PathBuf,
    life: Lifecycle,
    tally: Tally,
}

impl Run<'_> {
    /// A full set-up; the previous one's engine (and its mappings of the
    /// files about to be rewritten) must already be dropped.
    fn set_up(&mut self, spans: &mut Spans) -> (Ctx, Opened) {
        let (seed, make) = (self.seed, self.plan.make_stream);
        std::fs::create_dir_all(&self.dir).expect("create fixture directory");
        set_up(
            &self.plan.sizing,
            &|tables| make(seed, tables),
            seed,
            &self.dir,
            &mut self.life,
            spans,
        )
    }

    fn absorb(&mut self, ctx: &Ctx) {
        self.tally.attempted += ctx.tally.attempted;
        self.tally.failed += ctx.tally.failed;
    }
}

/// One append round: grow the files, then the whole batch (the queries
/// that first touch a grown dataset lead it).
fn append_round(
    ctx: &mut Ctx,
    opened: &Opened,
    trace: bool,
    life: &mut Lifecycle,
    latencies: &mut Vec<f64>,
    spans: &mut Spans,
) {
    let mut session = opened.engine.session();
    session.options_mut().trace = trace;
    let ran = ctx.append_and_requery(&mut session, life, latencies, spans);
    for index in ran.end..ran.start + ctx.stream.len() {
        latencies.push(ctx.timed(&mut session, index, spans));
    }
}

/// Slices the measured window is cut into, each at least half a second
/// long. Every latency metric is computed per slice; see [`run_end_to_end`]
/// for why.
const SLICES: usize = 16;

/// What one slice of the window measured.
#[derive(Default)]
struct Slice {
    latencies: Vec<f64>,
    /// Seconds the system under test was busy answering, and its correct
    /// answers in them, for throughput.
    busy_s: f64,
    correct: u64,
    /// `CacheManager::used_bytes` / raw input bytes when the slice ended.
    cache_per_raw: f64,
}

/// The untraced run; every end-to-end metric comes from here.
///
/// The first set-up leaves the engine the window runs on. The window of
/// `seconds` is cut into slices, and the remaining `setups - 1` set-ups
/// (files of their own, engine dropped at once) go between the slices, so
/// set-up samples and window samples are both spread over the whole run.
/// The sandbox's neighbours slow a core by a third for 3-6 s at a time,
/// and only ever add time: each timing is therefore reported as the lower
/// quartile of its samples (per-slice medians and p99s for the latencies;
/// upper quartile for throughput), which a disturbance covering up to
/// three quarters of the run does not reach, where a median gives way at
/// one half. Slowdowns that last for minutes are what `speed` is for.
pub fn run_end_to_end(plan: &Plan, seed: u64, seconds: f64, dir: &Path) -> Outcome {
    let mut run = Run {
        plan,
        seed,
        dir: dir.join("window"),
        life: Lifecycle::default(),
        tally: Tally::default(),
    };
    let mut spans = Spans::off();
    let mut speed = Speedometer::default();
    speed.read();
    let (mut ctx, mut opened) = run.set_up(&mut spans);
    speed.read();
    run.dir = dir.join("again");

    let slices = ((seconds / 0.5) as usize).clamp(1, SLICES);
    let setups = plan.setups.clamp(1, slices);
    let server =
        (plan.window == Window::Served).then(|| served::start(&opened.engine, plan.clients));
    let mut measured: Vec<Slice> = Vec::new();
    let mut index = 0;
    for slice in 1..=slices {
        let before = ctx.tally;
        let mut now = Slice::default();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds / slices as f64);
        match plan.window {
            Window::Stream => {
                let mut session = opened.engine.session();
                while index % plan.round != 0 || Instant::now() < deadline {
                    now.latencies
                        .push(ctx.timed(&mut session, index, &mut spans));
                    index += 1;
                }
            }
            Window::ColdIterations => loop {
                drop(opened);
                opened = cold_start(
                    &mut ctx,
                    COLD_SEQUENCE,
                    false,
                    &mut run.life,
                    &mut now.latencies,
                    &mut spans,
                );
                now.busy_s += run.life.cold_sequence_ms.last().expect("just pushed") / 1e3;
                if Instant::now() >= deadline {
                    break;
                }
            },
            Window::AppendRounds => loop {
                append_round(
                    &mut ctx,
                    &opened,
                    false,
                    &mut run.life,
                    &mut now.latencies,
                    &mut spans,
                );
                if Instant::now() >= deadline {
                    break;
                }
            },
            Window::Served => {
                let server = server.as_ref().expect("started above");
                let s = served::run(
                    server,
                    &mut ctx,
                    index,
                    plan.clients,
                    seconds / slices as f64,
                    &mut spans,
                );
                index = s.next;
                now.busy_s = s.wall_s;
                now.latencies = s.latencies_ms;
            }
        }
        if now.busy_s == 0.0 {
            now.busy_s = now.latencies.iter().sum::<f64>() / 1e3;
        }
        now.correct = (ctx.tally.attempted - before.attempted) - (ctx.tally.failed - before.failed);
        now.cache_per_raw = opened.cache.used_bytes() as f64 / ctx.raw_bytes() as f64;
        measured.push(now);
        speed.read();
        if slice % (slices / setups) == 0 && run.life.setup_s.len() < setups {
            let (other, _engine) = run.set_up(&mut spans);
            run.absorb(&other);
            speed.read();
        }
    }
    if let Some(server) = server {
        server.shutdown();
    }

    // Every timing is corrected for the machine's speed over the run.
    let slowdown = speed.slowdown();
    let per_slice = |f: &dyn Fn(&Slice) -> f64| -> Vec<f64> { measured.iter().map(f).collect() };
    let corrected =
        |samples: &[f64]| -> Vec<f64> { samples.iter().map(|x| x / slowdown).collect() };
    let mut report = Report::default();
    for (name, samples) in [
        ("setup_s", &run.life.setup_s),
        ("first_query_ms", &run.life.first_query_ms),
        ("cold_sequence_ms", &run.life.cold_sequence_ms),
        ("requery_after_append_ms", &run.life.requery_ms),
        ("query_p50_ms", &per_slice(&|s| median(&s.latencies))),
        (
            "query_p99_ms",
            &per_slice(&|s| quantile(&s.latencies, 0.99)),
        ),
    ] {
        report.set_quantile(name, &corrected(samples), 0.25);
    }
    report.set_quantile(
        "queries_per_s",
        &per_slice(&|s| s.correct as f64 / s.busy_s * slowdown),
        0.75,
    );
    // Under eviction the cache's size depends on the last few queries: the
    // median over the slice ends, not wherever the window happened to stop.
    report.set_median("cache_bytes_per_raw_byte", &per_slice(&|s| s.cache_per_raw));
    report.set("peak_rss_mb", peak_rss_mb());
    run.absorb(&ctx);
    Outcome {
        report,
        tally: run.tally,
        samples: measured.iter().map(|s| s.latencies.len()).sum(),
        slowdown,
    }
}

/// What the traced run learned about this workload, beside the span
/// recorder itself.
pub struct Traced {
    pub ctx: Ctx,
    pub opened: Opened,
    pub spans: Spans,
    pub tally: Tally,
    /// Wall seconds of the traced and of the untraced passes over the same
    /// work.
    pub traced_s: f64,
    pub untraced_s: f64,
    pub metrics: MetricsSnapshot,
    pub served: Option<vida_server::ServerStats>,
}

/// The traced run: one set-up, then `seconds` of the workload's window
/// alternating untraced and traced passes over the same work (engine
/// tracing on and bench-side spans recorded in the traced ones), so the
/// difference between the two is the tracing overhead.
pub fn run_traced(plan: &Plan, seed: u64, seconds: f64, dir: &Path) -> Traced {
    let mut run = Run {
        plan,
        seed,
        dir: dir.to_path_buf(),
        life: Lifecycle::default(),
        tally: Tally::default(),
    };
    let metrics_before = global_metrics().snapshot();
    let mut spans = Spans::on();
    let mut off = Spans::off();
    let (mut ctx, mut opened) = run.set_up(&mut spans);
    let mut latencies = Vec::new();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let mut served_out = None;
    let mut alternate_s = seconds;

    if plan.window == Window::Served {
        // Half the time through the server with client-side spans; the
        // other half is the same stream on direct sessions, below, which
        // is where engine traces (and so stage shares) can be collected.
        alternate_s = seconds / 2.0;
        let server = served::start(&opened.engine, plan.clients);
        served::run(
            &server,
            &mut ctx,
            0,
            plan.clients,
            seconds / 2.0,
            &mut spans,
        );
        served_out = Some(server.stats());
        server.shutdown();
    }
    let deadline = Instant::now() + Duration::from_secs_f64(alternate_s);
    let mut index = 0;
    while Instant::now() < deadline {
        for trace in [false, true] {
            let spans = if trace { &mut spans } else { &mut off };
            let t0 = Instant::now();
            match plan.window {
                Window::ColdIterations => {
                    drop(opened);
                    // Both passes of a pair answer the same forty queries.
                    run.life.cold_starts -= usize::from(trace);
                    opened = cold_start(
                        &mut ctx,
                        COLD_SEQUENCE,
                        trace,
                        &mut run.life,
                        &mut latencies,
                        spans,
                    );
                }
                Window::AppendRounds => {
                    append_round(
                        &mut ctx,
                        &opened,
                        trace,
                        &mut run.life,
                        &mut latencies,
                        spans,
                    );
                }
                Window::Stream | Window::Served => {
                    let mut session = opened.engine.session();
                    session.options_mut().trace = trace;
                    for i in index..index + TRACE_BLOCK {
                        ctx.timed(&mut session, i, spans);
                    }
                }
            }
            *(if trace {
                &mut traced_s
            } else {
                &mut untraced_s
            }) += t0.elapsed().as_secs_f64();
        }
        index += TRACE_BLOCK;
    }
    run.absorb(&ctx);
    Traced {
        ctx,
        opened,
        spans,
        tally: run.tally,
        traced_s,
        untraced_s,
        metrics: global_metrics().snapshot().since(&metrics_before),
        served: served_out,
    }
}
