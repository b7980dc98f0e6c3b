//! The fixed vocabulary of the benchmark: workload and metric names, with
//! units and the better direction. `BENCHMARK.json` lists exactly these
//! (`tests/contract.rs` fails on drift), and later issues refer to them
//! verbatim, so renaming one is a change to the ruler.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fig5_cold",
        why: "The paper's Fig. 5: fresh catalog, engine and empty cache per iteration, then a 40-query HBP sequence; raw ingest (tokenise, positional map, field parse) and cache fill carry the data-to-query time.",
    },
    Workload {
        name: "warm_mix",
        why: "The ~80%-served-from-caches steady state: one resident engine, one thread; front end, kernels, cache probe and fold dominate and ingest does nothing, so it is the bypass for every ingest optimisation.",
    },
    Workload {
        name: "cache_pressure",
        why: "Wide 32-column CSV+NDJSON, queries rotating over all columns, cache budget a quarter of the parsed working set: evictions and raw re-fetch through posmap/semi-index, which warm_mix never sees.",
    },
    Workload {
        name: "join_unnest",
        why: "Join-heavy and nested-heavy mixes on warm caches with all cores: join build/probe, radix partitioning, band index, unnest and plan optimisation are per-query work no cache removes.",
    },
    Workload {
        name: "append_requery",
        why: "Rounds of {append ~1% rows to each raw file, re-run a 40-query batch}: revalidate, tail scan, replica extension and fold-partial resume, the write-side use of the formats and cache layers.",
    },
    Workload {
        name: "served_concurrent",
        why: "The warm HBP stream through QueryServer, one closed-loop client per core, bag projections returned as CSV frames: admission, executor hand-off, shared-pool attach and output framing carry the cost.",
    },
];

/// What a user of the system sees. Every one is reported by every
/// workload and is never 0; each carries a regression bound in
/// `BENCHMARK.json`.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("first_query_ms", "ms", "lower"),
    m("cold_sequence_ms", "ms", "lower"),
    m("query_p50_ms", "ms", "lower"),
    m("query_p99_ms", "ms", "lower"),
    m("queries_per_s", "1/s", "higher"),
    m("requery_after_append_ms", "ms", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("cache_bytes_per_raw_byte", "ratio", "lower"),
];

/// Single-layer numbers from the traced run (layer = crate). No bound.
pub const PER_LAYER: &[Metric] = &[
    // The tenth end-to-end metric of the issue; 0 on every accepted run,
    // so the driver's "never 0" rule keeps it out of END_TO_END.
    m("failed_share", "ratio", "lower"),
    m("ref.seq_read_mb_s", "MB/s", "higher"),
    m("ref.noop_closure_call_ns", "ns", "lower"),
    m("ref.atomic_claim_ns", "ns", "lower"),
    m("io.find_byte_mb_s", "MB/s", "higher"),
    m("io.csv_record_scan_mb_s", "MB/s", "higher"),
    m("io.csv_record_scan_quoted_mb_s", "MB/s", "higher"),
    m("io.json_record_scan_mb_s", "MB/s", "higher"),
    m("io.open_mmap_us", "us", "lower"),
    m("io.open_owned_ms", "ms", "lower"),
    m("formats.csv_open_index_mb_s", "MB/s", "higher"),
    m("formats.json_open_index_mb_s", "MB/s", "higher"),
    m("formats.csv_scan_project_ns_per_field", "ns", "lower"),
    m("formats.json_scan_project_ns_per_field", "ns", "lower"),
    m("formats.csv_parse_field_ns", "ns", "lower"),
    m("formats.csv_posmap_rescan_ns_per_field", "ns", "lower"),
    m("formats.json_semi_index_rescan_ns_per_field", "ns", "lower"),
    m("formats.revalidate_unchanged_us", "us", "lower"),
    m("formats.revalidate_extended_us_per_kb", "us/KB", "lower"),
    m("formats.bytes_parsed_share", "ratio", "lower"),
    m("lang.parse_us", "us", "lower"),
    m("lang.typecheck_us", "us", "lower"),
    m("sql.translate_us", "us", "lower"),
    m("algebra.lower_rewrite_us", "us", "lower"),
    m("optimizer.reorder_joins_us", "us", "lower"),
    m("optimizer.choose_layout_ns", "ns", "lower"),
    m("optimizer.joins_reordered", "count", "higher"),
    m("optimizer.cardinality_error", "ratio", "lower"),
    m("jit.compile_us_per_kernel", "us", "lower"),
    m("jit.kernel_call_ns", "ns", "lower"),
    m("jit.select_admit_ns", "ns", "lower"),
    m("jit.frame_fill_ns_per_slot", "ns", "lower"),
    m("jit.kernels_compiled_per_query", "count", "lower"),
    m("cache.get_any_hit_ns", "ns", "lower"),
    m("cache.put_values_ns_per_row", "ns", "lower"),
    m("cache.encode_bson_ns_per_row", "ns", "lower"),
    m("cache.decode_bson_ns_per_row", "ns", "lower"),
    m("cache.extend_values_ns_per_row", "ns", "lower"),
    m("cache.hit_rate", "ratio", "higher"),
    m("cache.evictions", "count", "lower"),
    m("cache.served_from_cache_share", "ratio", "higher"),
    m("cache.values_replica_share", "ratio", "higher"),
    m("parallel.morsel_claim_ns", "ns", "lower"),
    m("parallel.attach_run_us", "us", "lower"),
    m("parallel.spawn_run_us", "us", "lower"),
    m("parallel.plan_scan_us", "us", "lower"),
    m("parallel.scan_speedup", "ratio", "higher"),
    m("parallel.worker_busy_share", "ratio", "higher"),
    m("parallel.multiplexed_claim_share", "ratio", "higher"),
    m("exec.q_csv_filter_sum_cold_ms", "ms", "lower"),
    m("exec.q_json_unnest_cold_ms", "ms", "lower"),
    m("exec.q_warm_hit_us", "us", "lower"),
    m("exec.q_join3_ms", "ms", "lower"),
    m("exec.q_small_served_us", "us", "lower"),
    m("exec.codegen_share", "ratio", "lower"),
    m("exec.fallback_tuple_share", "ratio", "lower"),
    m("exec.whole_query_fallbacks", "count", "lower"),
    m("exec.volcano_over_jit", "ratio", "higher"),
    m("exec.output_text_ns_per_row", "ns", "lower"),
    m("exec.output_csv_ns_per_row", "ns", "lower"),
    m("exec.output_bson_ns_per_row", "ns", "lower"),
    m("exec.tail_rows_scanned", "count", "lower"),
    m("exec.partials_reused", "count", "higher"),
    m("exec.stage.lower_share", "ratio", "lower"),
    m("exec.stage.codegen_share", "ratio", "lower"),
    m("exec.stage.cache_probe_share", "ratio", "lower"),
    m("exec.stage.build_side_share", "ratio", "lower"),
    m("exec.stage.scan_share", "ratio", "lower"),
    m("exec.stage.probe_share", "ratio", "lower"),
    m("exec.stage.fold_share", "ratio", "lower"),
    m("exec.stage.replica_sync_share", "ratio", "lower"),
    m("server.submit_us", "us", "lower"),
    m("server.first_frame_us", "us", "lower"),
    m("server.overhead_us", "us", "lower"),
    m("server.write_frame_ns", "ns", "lower"),
    m("server.read_response_ns_per_row", "ns", "lower"),
    m("server.rejected_share", "ratio", "lower"),
    m("server.peak_in_flight", "count", "higher"),
    m("server.stats_json_us", "us", "lower"),
    m("trace.overhead_share", "ratio", "lower"),
    m("trace.spans_per_query", "count", "lower"),
    m("baselines.load_then_first_query_ms", "ms", "lower"),
    m("bench.span.front_self_share", "ratio", "lower"),
    m("bench.span.execute_self_share", "ratio", "lower"),
    m("bench.span.output_self_share", "ratio", "lower"),
    m("bench.span.response_self_share", "ratio", "lower"),
];
