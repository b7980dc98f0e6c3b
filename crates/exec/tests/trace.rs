//! Trace-layer integration tests (PR 7): span nesting invariants, the
//! thread-count invariance of aggregated trace counters, consistency of
//! the per-stage tuple counts with `ExecStats`, and round-trips of the
//! engine's JSON documents (Chrome trace, `ExecStats`, metrics snapshot)
//! through the repo's own JSON reader.
//!
//! Counts attach to the span that did the work: every scan, build-side
//! and drive morsel runs inside a worker-track span reporting its own
//! tuples and 1 morsel, at every worker count (one worker runs the same
//! grid inline), so every aggregate asserted here must be identical at any
//! worker count.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;
use vida_algebra::{lower, rewrite, Plan};
use vida_cache::CacheManager;
use vida_exec::{run_jit_with_stats, Engine, ExecStats, JitOptions, QueryTrace};
use vida_formats::json::parse_json;
use vida_lang::parse;
use vida_trace::{global_metrics, stage, Span};
use vida_types::Value;

const JOIN_COUNT: &str = "for { a <- A, b <- B, a.k = b.k } yield count a";
const SCAN_BAG: &str = "for { a <- A, a.x != null, a.x < 15 } yield bag (k := a.k, s := a.s)";
const UNNEST_SUM: &str = "for { n <- N, v <- n.xs, v > 1 } yield sum v";
const SKIP_SCAN: &str = "for { a <- A, a.k > 15, a.x != null } yield sum a.k";
const SKIP_BUILD: &str = "for { b <- B, a <- A, 16 <= a.k, a.k = b.k } yield count b";

fn plan_of(q: &str) -> Plan {
    rewrite(&lower(&parse(q).expect("parses")).expect("lowers"))
}

/// Run `q` with tracing on and `threads` workers (small morsels so even the
/// 16-row fixtures split into several morsels per stage).
fn traced(q: &str, threads: usize) -> (Value, ExecStats) {
    let cat = common::owned_catalog();
    let opts = JitOptions {
        threads,
        morsel_rows: 4,
        ..JitOptions::default()
    }
    .with_trace();
    run_jit_with_stats(&plan_of(q), &cat, &opts).expect("query runs")
}

/// Assert stack discipline per track: two spans on one track are either
/// disjoint or one contains the other — never partially overlapping — and
/// nothing is left open.
fn assert_nesting(trace: &QueryTrace) {
    assert_eq!(trace.open_spans(), 0, "spans left open");
    let spans = trace.spans();
    for track in trace.tracks() {
        let own: Vec<&Span> = spans.iter().filter(|s| s.worker == track).collect();
        for (i, a) in own.iter().enumerate() {
            for b in own.iter().skip(i + 1) {
                let overlap = a.start_ns.max(b.start_ns) < a.end_ns().min(b.end_ns());
                if overlap {
                    let a_holds_b = a.start_ns <= b.start_ns && b.end_ns() <= a.end_ns();
                    let b_holds_a = b.start_ns <= a.start_ns && a.end_ns() <= b.end_ns();
                    assert!(
                        a_holds_b || b_holds_a,
                        "track {track}: {:?} and {:?} partially overlap",
                        a,
                        b
                    );
                }
            }
        }
    }
}

/// Run `q` as [`traced`] does, twice on one cached engine, and return the
/// second run: its columns come from `Values` replicas and their block
/// summaries, so a leading `path op int-literal` select can skip chunks.
fn traced_warm(q: &str, threads: usize) -> (Value, ExecStats) {
    let opts = JitOptions {
        threads,
        morsel_rows: 4,
        cache: Some(Arc::new(CacheManager::new(1 << 20))),
        ..JitOptions::default()
    }
    .with_trace();
    let engine = Engine::new(Arc::new(common::owned_catalog()), opts);
    let mut session = engine.session();
    session.execute_with_stats(&plan_of(q)).expect("query runs");
    session.execute_with_stats(&plan_of(q)).expect("query runs")
}

/// The aggregates that must not depend on the worker count: per-stage
/// tuple/morsel sums, the per-kernel invocation counts and the rows the
/// block skip refuted.
type Invariants = (BTreeMap<&'static str, (u64, u64)>, Vec<u64>, u64);

fn invariants(stats: &ExecStats) -> Invariants {
    let trace = stats.query_trace().expect("trace recorded");
    let stages = trace
        .stage_totals()
        .into_iter()
        .map(|t| (t.stage, (t.tuples, t.morsels)))
        .collect();
    (
        stages,
        trace.kernel_invocations().to_vec(),
        stats.rows_skipped,
    )
}

#[test]
fn tracing_is_opt_in() {
    let cat = common::owned_catalog();
    let (plain, stats) =
        run_jit_with_stats(&plan_of(JOIN_COUNT), &cat, &JitOptions::default()).unwrap();
    assert!(stats.query_trace().is_none(), "default runs must not trace");
    assert_eq!(
        plain,
        traced(JOIN_COUNT, 1).0,
        "tracing must not change results"
    );
}

#[test]
fn spans_nest_within_every_track() {
    for q in [JOIN_COUNT, SCAN_BAG, UNNEST_SUM] {
        for threads in [1, 4] {
            let (_, stats) = traced(q, threads);
            let trace = stats.query_trace().expect("trace recorded");
            assert_nesting(trace);
            assert!(trace.tracks().contains(&0), "coordinator track missing");
        }
    }
}

#[test]
fn aggregated_counters_are_identical_at_any_worker_count() {
    type Run = fn(&str, usize) -> (Value, ExecStats);
    let cold: Run = traced;
    let warm: Run = traced_warm;
    let skipping = [SKIP_SCAN, SKIP_BUILD];
    let runs = [JOIN_COUNT, SCAN_BAG, UNNEST_SUM]
        .map(|q| (q, cold))
        .into_iter()
        .chain(skipping.map(|q| (q, warm)));
    for (q, run) in runs {
        let (value1, stats1) = run(q, 1);
        let baseline = invariants(&stats1);
        for threads in [2, 8] {
            let (value, stats) = run(q, threads);
            assert_eq!(value, value1, "{q}: result diverged at {threads} threads");
            let got = invariants(&stats);
            assert_eq!(
                got, baseline,
                "{q}: trace counters diverged at {threads} threads"
            );
        }
    }
    // The warm key filters do skip: `A.k` is `0..16`, one block, which
    // each query's leading select refutes.
    assert_eq!(traced_warm(SKIP_SCAN, 1).1.rows_skipped, 16);
    assert_eq!(traced_warm(SKIP_BUILD, 1).1.rows_skipped, 16);
}

#[test]
fn stage_counts_agree_with_exec_stats() {
    // Cold and cacheless, so every touched column is a raw scan: the scan
    // stage must account for exactly `tuples_scanned`, and the probe stage
    // for exactly the join's output cardinality.
    for threads in [1, 4] {
        let (value, stats) = traced(JOIN_COUNT, threads);
        let trace = stats.query_trace().unwrap();
        let totals = trace.stage_totals();
        let scan = totals.iter().find(|t| t.stage == stage::SCAN).unwrap();
        let probe = totals.iter().find(|t| t.stage == stage::PROBE).unwrap();
        assert_eq!(scan.tuples, stats.tuples_scanned, "threads={threads}");
        assert_eq!(Value::Int(probe.tuples as i64), value, "threads={threads}");
        let build = totals
            .iter()
            .find(|t| t.stage == stage::BUILD_SIDE)
            .unwrap();
        assert!(build.tuples > 0, "build side saw no tuples");
        for s in [stage::LOWER, stage::CODEGEN, stage::FOLD] {
            assert!(totals.iter().any(|t| t.stage == s), "missing stage {s}");
        }
    }
}

#[test]
fn kernel_invocations_are_recorded_per_kernel() {
    let (_, stats) = traced(JOIN_COUNT, 1);
    let trace = stats.query_trace().unwrap();
    assert_eq!(
        trace.kernel_invocations().len(),
        stats.kernels_compiled as usize,
        "every compiled kernel gets a dense invocation slot"
    );
    let (id, hits) = trace.hottest_kernel().expect("kernels ran");
    assert!(hits > 0);
    assert!((id as usize) < trace.kernel_invocations().len());
}

#[test]
fn fused_select_hits_count_only_the_conjuncts_that_ran() {
    // Two compiled conjuncts fuse into one select stage. Without a cost
    // model's observations the ranking keeps syntactic order: kernel 0 is
    // `a.x > 5`, kernel 1 is `a.k < 12`. The fused chain short-circuits,
    // so kernel 0 runs on every valid row (null `x` rows take the
    // interpreter) and kernel 1 only on kernel 0's survivors.
    let q = "for { a <- A, a.x > 5, a.k < 12 } yield count a";
    let x_of = |i: i64| (i % 5 != 3).then_some((i * 3) % 20);
    let valid = (0..16).filter(|&i| x_of(i).is_some()).count() as u64;
    let first_pass = (0..16).filter(|&i| x_of(i).is_some_and(|x| x > 5)).count() as u64;
    assert!(
        first_pass < valid,
        "the first conjunct must reject some rows"
    );
    for threads in [1, 2, 8] {
        let opts = JitOptions {
            threads,
            morsel_rows: 4,
            ..JitOptions::default()
        }
        .with_trace();
        let cat = common::owned_catalog();
        let (_, stats) = run_jit_with_stats(&plan_of(q), &cat, &opts).unwrap();
        assert_eq!(stats.conjuncts_reordered, 0, "threads={threads}");
        let hits = stats.query_trace().unwrap().kernel_invocations().to_vec();
        assert_eq!(hits, vec![valid, first_pass], "threads={threads}");
    }
}

#[test]
fn explain_analyze_renders_the_stage_tree() {
    let (_, stats) = traced(JOIN_COUNT, 2);
    let text = stats.query_trace().unwrap().explain_analyze();
    assert!(text.starts_with("EXPLAIN ANALYZE"));
    for s in ["lower", "codegen", "build_side", "probe", "fold"] {
        assert!(text.contains(s), "missing {s} in:\n{text}");
    }
    assert!(text.contains("kernels:"));
}

/// Parse `json` as one whole document with the engine's own JSON reader;
/// the top level must be an object.
fn parse_document(json: &str, what: &str) -> Value {
    let (value, end) = parse_json(json.as_bytes(), 0, what)
        .unwrap_or_else(|e| panic!("{what} is not valid JSON ({e}):\n{json}"));
    assert!(
        json.as_bytes()[end..]
            .iter()
            .all(|b| b.is_ascii_whitespace()),
        "trailing bytes after the {what} document"
    );
    assert!(
        matches!(value, Value::Record(_)),
        "{what}: top level must be an object"
    );
    value
}

#[test]
fn stats_and_metrics_json_round_trip_through_the_json_reader() {
    // The accumulated stats of a traced workload: a join, a bag, an
    // unnest, at several worker counts.
    let before = global_metrics().snapshot();
    let mut total = ExecStats::default();
    for (q, threads) in [(JOIN_COUNT, 1), (SCAN_BAG, 2), (UNNEST_SUM, 4)] {
        total.accumulate(&traced(q, threads).1);
    }
    let doc = parse_document(&total.to_json(), "ExecStats");
    for (key, want) in [
        ("queries", total.queries as i64),
        ("morsels", total.morsels as i64),
        ("unnest_pipelines", total.unnest_pipelines as i64),
    ] {
        assert_eq!(doc.field(key), Some(&Value::Int(want)), "{key}");
    }

    let snapshot = global_metrics().snapshot();
    let doc = parse_document(&snapshot.to_json(), "metrics snapshot");
    assert!(doc.field("pool_runs").is_some());
    parse_document(&snapshot.since(&before).to_json(), "metrics delta");
}

#[test]
fn chrome_json_round_trips_through_the_json_reader() {
    let (_, stats) = traced(JOIN_COUNT, 4);
    let trace = stats.query_trace().unwrap();
    let doc = parse_document(&trace.to_chrome_json(), "chrome-trace");
    let events = doc.field("traceEvents").expect("traceEvents present");
    let events = events.elements().expect("traceEvents is an array");
    // One complete event per span plus per-track metadata events.
    assert!(events.len() >= trace.spans().len());
    let mut tids = Vec::new();
    for e in events {
        let Value::Record(ef) = e else {
            panic!("every event is an object")
        };
        let ph = ef.iter().find(|(k, _)| k == "ph").map(|(_, v)| v);
        assert!(ph.is_some(), "event without a phase");
        if let Some((_, Value::Int(tid))) = ef.iter().find(|(k, _)| k == "tid") {
            tids.push(*tid);
        }
    }
    tids.sort_unstable();
    tids.dedup();
    for track in trace.tracks() {
        assert!(
            tids.contains(&(track as i64)),
            "track {track} missing from the Chrome export"
        );
    }
}
