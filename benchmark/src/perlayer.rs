//! The traced run's report: the workload-derived per-layer numbers
//! (engine counters, cache and pool registries, span shares) plus the
//! workload-independent probes of `layers`.

use crate::harness::Tally;
use crate::layers;
use crate::stats::Report;
use crate::workloads::{run_traced, Plan, Traced};
use std::path::Path;
use vida_cache::Layout;
use vida_trace::stage;

pub struct Outcome {
    pub report: Report,
    pub tally: Tally,
    /// Chrome trace-event JSON of the run.
    pub chrome_json: String,
    /// The "where the time goes" table.
    pub table: String,
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

pub fn run(plan: &Plan, seed: u64, seconds: f64, dir: &Path) -> Outcome {
    let traced = run_traced(plan, seed, seconds, dir);
    let mut report = Report::default();
    derived(&traced, &mut report);
    let summary = traced
        .spans
        .summary()
        .expect("the traced run records spans");
    let chrome_json = traced
        .spans
        .chrome_json()
        .expect("the traced run records spans");
    let tally = traced.tally;
    // The probes rewrite files of the same names: the workload's engine
    // (and its mappings) must be gone first.
    drop(traced);
    layers::run(seed, dir, &mut report);
    Outcome {
        report,
        tally,
        chrome_json,
        table: summary.table(plan.name),
    }
}

fn derived(t: &Traced, report: &mut Report) {
    let exec = &t.ctx.exec;
    let queries = exec.queries.max(1) as f64;
    report.set(
        "failed_share",
        share(t.tally.failed as f64, t.tally.attempted as f64),
    );

    // formats: bytes the readers parsed, of the bytes they went over.
    let (mut parsed, mut skipped) = (0u64, 0u64);
    for ds in &t.ctx.datasets {
        if let Ok(plugin) = t.opened.engine.catalog().plugin(ds.kind.name()) {
            let s = plugin.stats().snapshot();
            parsed += s.bytes_parsed;
            skipped += s.bytes_skipped;
        }
    }
    report.set(
        "formats.bytes_parsed_share",
        share(parsed as f64, (parsed + skipped) as f64),
    );

    report.set("optimizer.joins_reordered", exec.joins_reordered as f64);
    report.set("optimizer.cardinality_error", exec.cardinality_error());
    report.set(
        "jit.kernels_compiled_per_query",
        exec.kernels_compiled as f64 / queries,
    );

    // cache: the process-wide registry covers every cache the run made
    // (fig5_cold makes a fresh one per iteration).
    let m = &t.metrics;
    report.set(
        "cache.hit_rate",
        share(m.cache_hits as f64, (m.cache_hits + m.cache_misses) as f64),
    );
    report.set("cache.evictions", m.cache_evictions as f64);
    report.set(
        "cache.served_from_cache_share",
        exec.queries_served_from_cache as f64 / queries,
    );
    let layouts = t.opened.cache.layout_counts();
    let values = layouts
        .iter()
        .find(|(l, _)| *l == Layout::Values)
        .map_or(0, |(_, n)| *n);
    let replicas: usize = layouts.iter().map(|(_, n)| n).sum();
    report.set(
        "cache.values_replica_share",
        share(values as f64, replicas as f64),
    );

    report.set(
        "parallel.worker_busy_share",
        share(
            m.worker_busy_ns as f64,
            (m.worker_busy_ns + m.worker_idle_ns) as f64,
        ),
    );
    report.set(
        "parallel.multiplexed_claim_share",
        share(
            m.pool_multiplexed_claims as f64,
            m.worker_morsel_claims.sum as f64,
        ),
    );

    let engine_s = (exec.codegen + exec.execution).as_secs_f64();
    report.set(
        "exec.codegen_share",
        share(exec.codegen.as_secs_f64(), engine_s),
    );
    report.set(
        "exec.fallback_tuple_share",
        share(exec.fallback_tuples as f64, exec.tuples_scanned as f64),
    );
    report.set(
        "exec.whole_query_fallbacks",
        exec.whole_query_fallbacks as f64,
    );
    report.set("exec.tail_rows_scanned", exec.tail_rows_scanned as f64);
    report.set("exec.partials_reused", exec.partials_reused as f64);

    let summary = t.spans.summary().expect("the traced run records spans");
    for (name, stage) in [
        ("exec.stage.lower_share", stage::LOWER),
        ("exec.stage.codegen_share", stage::CODEGEN),
        ("exec.stage.cache_probe_share", stage::CACHE_PROBE),
        ("exec.stage.build_side_share", stage::BUILD_SIDE),
        ("exec.stage.scan_share", stage::SCAN),
        ("exec.stage.probe_share", stage::PROBE),
        ("exec.stage.fold_share", stage::FOLD),
        ("exec.stage.replica_sync_share", stage::REPLICA_SYNC),
    ] {
        report.set(name, summary.stage_share(stage));
    }
    report.set(
        "bench.span.front_self_share",
        summary.bench_share(&["parse", "lower_rewrite", "submit"]),
    );
    report.set(
        "bench.span.execute_self_share",
        summary.bench_share(&["execute"]),
    );
    report.set(
        "bench.span.output_self_share",
        summary.bench_share(&["output_write"]),
    );
    report.set(
        "bench.span.response_self_share",
        summary.bench_share(&["read_response"]),
    );
    report.set("trace.overhead_share", t.traced_s / t.untraced_s - 1.0);
    report.set(
        "trace.spans_per_query",
        share(summary.engine_spans as f64, summary.engine_traces as f64),
    );

    let (rejected, admitted, peak) = t
        .served
        .as_ref()
        .map_or((0, 0, 0), |s| (s.rejected, s.admitted, s.peak_in_flight));
    report.set(
        "server.rejected_share",
        share(rejected as f64, (rejected + admitted) as f64),
    );
    report.set("server.peak_in_flight", peak as f64);
}
