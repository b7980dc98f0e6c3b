//! `reproduce` — entry point for replaying the paper's experiments.
//!
//! The binary runs a smoke-level demonstration of the cache-locality
//! experiment so the wiring (workload generator → comprehension front-end →
//! a resident `Engine`'s sessions → cost model → cache stats) is exercised
//! end to end, and hosts two artifact utilities (`validate-json`,
//! `bench-compare`). Timings live in the repo benchmark
//! (`bash benchmark/run.sh`), not here.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use vida_bench::fixtures;
use vida_cache::CacheManager;
use vida_exec::{Engine, ExecStats, JitOptions, MemoryCatalog, SourceProvider};
use vida_formats::csv::CsvFile;
use vida_formats::json::JsonFile;
use vida_formats::plugin::{CsvPlugin, JsonPlugin};
use vida_formats::MapMode;
use vida_optimizer::CostModel;
use vida_server::{read_response, QueryRequest, QueryServer, ServerConfig, SharedBuffer};
use vida_trace::{chrome_trace_json, global_metrics, MetricsSnapshot, QueryTrace};
use vida_workload::{
    generate, generate_append_replay, generate_join_heavy, generate_nested_heavy,
    generate_scan_heavy, WorkloadConfig,
};

const USAGE: &str = "\
reproduce — replay the ViDa (CIDR'15) experiments

USAGE:
    reproduce <figure> [OPTIONS]
    reproduce validate-json <path>...
    reproduce bench-compare <A.json[,A2.json..]> <B.json[,B2.json..]>

FIGURES:
    cache-locality    HBP-style query mix over raw CSV/JSON; reports the
                      share of queries served entirely from column caches
                      (the paper reports ~80% for the HBP workload) and the
                      replica layouts the cost model picked

    Response times across raw formats (the paper's Figure 5) and generated
    pipelines vs static operators are measured by the repo benchmark:
    `bash benchmark/run.sh --workload fig5_cold` and the
    `exec.volcano_over_jit` metric of its traced run.

UTILITIES:
    validate-json     parse each file with the engine's own JSON reader and
                      exit non-zero if any is missing or malformed (CI uses
                      this to check --trace-out / --stats-json artifacts)
    bench-compare     compare two `bash benchmark/run.sh` set artifacts
                      (BENCH_<pr>.json) under BENCHMARK.json's bounds: one
                      row per workload x end-to-end metric (A, B, B/A,
                      bound, verdict); exits 1 if B is worse than A beyond
                      a bound or a workload's failed share rose. Either side
                      may list several runs, comma-separated: medians are
                      compared and the spread between runs decides whether
                      a metric is resolved

OPTIONS:
    --threads N       worker threads of the morsel driver (default 1: the
                      grid runs inline; clamped here to the machine's
                      available parallelism; the benchmark's
                      `parallel.scan_speedup` metric is the thread sweep)
    --queries N       number of workload queries to generate (default 200)
    --mix MIX         workload mix: 'hbp' (selections, joins, and
                      aggregates with the paper's locality skew; default),
                      'scan-heavy' (full-column scans and folds),
                      'nested' (unnests over nested JSON and non-equi
                      theta joins — the shapes the unnest/theta pipelines
                      compile), 'join' (equi-join chains in bad syntactic
                      order — the shapes the cost-based join reorder
                      fixes), or 'append' (append-replay: rows are
                      appended to the raw inputs between batches and the
                      same batch re-runs — reports tail rows scanned and
                      fold partials resumed, the O(delta) re-query
                      counters)
    --locality F      fraction of selections drawn from the hot key range,
                      0.0..=1.0 (default 0.8 — the regime in which the
                      paper reports ~80% of queries served from caches)
    --budget-mb N     cache budget in MiB (default 8); smaller budgets push
                      the cost model toward compact replica layouts
    --no-cost-model   disable cost-model layout selection (every replica is
                      cached as parsed values, the pre-model behaviour)
    --no-plan-opt     disable plan-level optimization (cost-based join
                      reordering, build-side choice, and selectivity-
                      ordered fused conjuncts): every plan runs in its
                      syntactic order
    --no-mmap         read the raw inputs into owned buffers instead of
                      memory-mapping them (the escape hatch for filesystems
                      where mmap misbehaves; the default maps every input)
    --assert-fused    exit non-zero unless streaming execution fused every
                      pipeline: each query that did not fall back to
                      Volcano wholesale must report fused_stage_depth >= 2,
                      and at least one must (the CI smoke contract)
    --serve           run the workload through the vida-server front end
                      instead of the serial driver: a resident engine plus
                      a query service with admission control, concurrent
                      executors time-slicing one shared worker pool, and
                      length-prefixed streaming responses; prints the
                      admission / peak-in-flight / time-slicing counters
                      and exits non-zero if any response fails
    --clients N       in-process client threads submitting to the server
                      (default 4; implies --serve)
    --trace-out PATH  record a span trace for every query (JitOptions::
                      trace) and write the whole workload as Chrome
                      trace-event JSON — open it in Perfetto or
                      chrome://tracing, one track per worker — plus print
                      EXPLAIN ANALYZE for the slowest query
    --stats-json PATH write accumulated ExecStats, cache counters, the
                      engine metrics delta for this run, and per-query
                      timing aggregates as a JSON object

Run with no arguments to print this message.";

struct Args {
    figure: Option<String>,
    threads: usize,
    queries: usize,
    mix: String,
    locality: f64,
    budget_mb: usize,
    cost_model: bool,
    plan_opt: bool,
    assert_fused: bool,
    mmap: bool,
    serve: bool,
    clients: usize,
    trace_out: Option<PathBuf>,
    stats_json: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        figure: None,
        threads: 1,
        queries: 200,
        mix: "hbp".to_string(),
        locality: 0.8,
        budget_mb: 8,
        cost_model: true,
        plan_opt: true,
        assert_fused: false,
        mmap: true,
        serve: false,
        clients: 4,
        trace_out: None,
        stats_json: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = argv.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--threads" => {
                args.threads = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--threads expects a positive integer")?;
            }
            "--queries" => {
                args.queries = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--queries expects a positive integer")?;
            }
            "--mix" => {
                let m = iter
                    .next()
                    .ok_or("--mix expects 'hbp', 'scan-heavy', 'nested', 'join', or 'append'")?;
                if !["hbp", "scan-heavy", "nested", "join", "append"].contains(&m.as_str()) {
                    return Err(format!(
                        "unknown mix '{m}' (use 'hbp', 'scan-heavy', 'nested', 'join', or \
                         'append')"
                    ));
                }
                args.mix = m.clone();
            }
            "--locality" => {
                args.locality = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|f| (0.0..=1.0).contains(f))
                    .ok_or("--locality expects a float in 0.0..=1.0")?;
            }
            "--budget-mb" => {
                args.budget_mb = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--budget-mb expects a positive integer")?;
            }
            "--serve" => args.serve = true,
            "--clients" => {
                args.clients = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--clients expects a positive integer")?;
                args.serve = true;
            }
            "--no-cost-model" => args.cost_model = false,
            "--no-plan-opt" => args.plan_opt = false,
            "--assert-fused" => args.assert_fused = true,
            "--no-mmap" => args.mmap = false,
            "--trace-out" => {
                args.trace_out = Some(PathBuf::from(
                    iter.next().ok_or("--trace-out expects a path")?,
                ));
            }
            "--stats-json" => {
                args.stats_json = Some(PathBuf::from(
                    iter.next().ok_or("--stats-json expects a path")?,
                ));
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if args.figure.is_none() && !other.starts_with('-') => {
                args.figure = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() {
    // The utilities take positional paths, not figure options — dispatch
    // before the flag parser.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("validate-json") => return validate_json(&argv[1..]),
        Some("bench-compare") => return bench_compare(&argv[1..]),
        _ => {}
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    match args.figure.as_deref() {
        Some("cache-locality") => cache_locality(&args),
        Some(other) => {
            eprintln!("unknown figure '{other}'\n\n{USAGE}");
            std::process::exit(2);
        }
        None => println!("{USAGE}"),
    }
}

/// Check each file parses with the engine's own JSON reader (the same one
/// the query path uses); exit non-zero on the first failure.
fn validate_json(paths: &[String]) {
    if paths.is_empty() {
        eprintln!("validate-json expects at least one path\n\n{USAGE}");
        std::process::exit(2);
    }
    for path in paths {
        let data = match std::fs::read(path) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("FAIL: {path}: {e}");
                std::process::exit(1);
            }
        };
        match vida_formats::json::parse_json(&data, 0, path) {
            Ok((_, end)) if data[end..].iter().all(|b| b.is_ascii_whitespace()) => {
                println!("ok: {path} ({} bytes)", data.len());
            }
            Ok((_, end)) => {
                eprintln!("FAIL: {path}: trailing garbage after byte {end}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("FAIL: {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Print the comparison table of two sides of benchmark artifacts (each a
/// comma-separated list of runs); exit 1 when the second regressed, 2 when
/// the arguments or files are unusable.
fn bench_compare(paths: &[String]) {
    let [a, b] = paths else {
        eprintln!("bench-compare expects exactly two paths\n\n{USAGE}");
        std::process::exit(2);
    };
    let read = |list: &String| -> Vec<String> {
        list.split(',')
            .map(|path| {
                std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("FAIL: {path}: {e}");
                    std::process::exit(2);
                })
            })
            .collect()
    };
    // The contract is the one this binary was built beside.
    let contract = include_str!("../../../../BENCHMARK.json");
    match vida_bench::compare::compare(contract, &read(a), &read(b)) {
        Ok((table, pass)) => {
            print!("{table}");
            if !pass {
                eprintln!("FAIL: {b} is worse than {a} beyond a BENCHMARK.json bound");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("FAIL: {e}");
            std::process::exit(2);
        }
    }
}

fn cache_locality(args: &Args) {
    // Stage the raw inputs as real files so queries run against the same
    // ingest path users get: mmap'd by default, owned reads with --no-mmap.
    let dir = std::env::temp_dir().join(format!("vida-reproduce-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    let patients_path = dir.join("patients.csv");
    let genetics_path = dir.join("genetics.json");
    let regions_path = dir.join("regions.json");
    std::fs::write(&patients_path, fixtures::patients_csv(500, 11)).expect("write fixture");
    std::fs::write(&genetics_path, fixtures::genetics_json(500, 13)).expect("write fixture");
    std::fs::write(&regions_path, fixtures::regions_json(250, 17)).expect("write fixture");
    let mode = if args.mmap {
        MapMode::Auto
    } else {
        MapMode::Never
    };

    let catalog = MemoryCatalog::new();
    let patients = CsvFile::open_with(
        "Patients",
        &patients_path,
        b',',
        true,
        fixtures::patients_schema(),
        mode,
    )
    .expect("fixture parses");
    catalog.register(Arc::new(CsvPlugin::new(patients)));
    let genetics = JsonFile::open_with(
        "Genetics",
        &genetics_path,
        fixtures::genetics_schema(),
        mode,
    )
    .expect("fixture parses");
    catalog.register(Arc::new(JsonPlugin::new(genetics)));
    let regions = JsonFile::open_with("Regions", &regions_path, fixtures::regions_schema(), mode)
        .expect("fixture parses");
    catalog.register(Arc::new(JsonPlugin::new(regions)));
    let catalog = Arc::new(catalog);

    let cache = Arc::new(CacheManager::new(args.budget_mb << 20));
    let model = args.cost_model.then(|| Arc::new(CostModel::new()));
    // The library honours `threads` as given; oversubscribing a core only
    // adds scheduling overhead, so the CLI is where the request is clamped.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = JitOptions {
        cache: Some(Arc::clone(&cache)),
        cost_model: model.clone(),
        threads: args.threads.min(cores),
        trace: args.trace_out.is_some(),
        plan_opt: args.plan_opt,
        ..Default::default()
    };
    let config = WorkloadConfig {
        queries: args.queries,
        locality: args.locality,
        ..Default::default()
    };
    let queries = match args.mix.as_str() {
        "scan-heavy" => generate_scan_heavy(&config),
        "nested" => generate_nested_heavy(&config),
        "join" => generate_join_heavy(&config),
        "append" => generate_append_replay(&config),
        _ => generate(&config),
    };
    if args.serve {
        // The server path runs the batch once (no append replay) through
        // the vida-server front end and prints its own counters.
        serve_smoke(args, catalog, opts, &queries);
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }
    // The append-replay mix re-runs the same batch after each of three
    // on-disk appends (~2% of each input per round); every other mix runs
    // its batch once over static files.
    let rounds = if args.mix == "append" { 4 } else { 1 };

    let mut cached = 0usize;
    let mut total = 0usize;
    // Pipeline-covered queries, and those of them that ran as one fused
    // push chain (checked per query: `accumulate` only keeps the maximum).
    let mut pipelined = 0usize;
    let mut fused = 0usize;
    // One resident engine for the whole batch: its session accumulates the
    // workload-level stats every report line below reads.
    let engine = Engine::new(catalog.clone(), opts);
    let mut session = engine.session();
    // Per-query traces on a shared workload timeline (offset ns from t0)
    // and per-query wall times, for --trace-out / --stats-json.
    let mut traces: Vec<(u64, QueryTrace)> = Vec::new();
    let mut timings_ns: Vec<u64> = Vec::new();
    let mut slowest: Option<(u64, usize, String)> = None;
    let metrics_before = global_metrics().snapshot();
    let t0 = Instant::now();
    for round in 0..rounds {
        if round > 0 {
            // Grow the raw inputs in place; the resident catalog notices
            // at query description time and pays only for the suffix.
            use std::io::Write;
            let grow = |path: &PathBuf, bytes: Vec<u8>| {
                let mut fh = std::fs::OpenOptions::new()
                    .append(true)
                    .open(path)
                    .expect("reopen fixture for append");
                fh.write_all(&bytes).expect("append fixture rows");
            };
            grow(
                &patients_path,
                fixtures::patients_csv_rows(500 + (round - 1) * 10, 500 + round * 10, 11),
            );
            grow(
                &genetics_path,
                fixtures::genetics_json_rows(500 + (round - 1) * 10, 500 + round * 10, 13),
            );
            grow(
                &regions_path,
                fixtures::regions_json_rows(250 + (round - 1) * 5, 250 + round * 5, 17),
            );
        }
        for q in &queries {
            let expr = match vida_lang::parse(&q.text) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("skipping unparseable query: {e}");
                    continue;
                }
            };
            let plan = vida_algebra::rewrite(&vida_algebra::lower(&expr).expect("lowers"));
            let offset_ns = t0.elapsed().as_nanos() as u64;
            match session.execute_with_stats(&plan) {
                Ok((_, mut stats)) => {
                    let elapsed_ns = (t0.elapsed().as_nanos() as u64).saturating_sub(offset_ns);
                    total += 1;
                    timings_ns.push(elapsed_ns);
                    if stats.served_from_cache {
                        cached += 1;
                    }
                    if stats.whole_query_fallbacks == 0 {
                        pipelined += 1;
                        fused += (stats.fused_stage_depth >= 2) as usize;
                    }
                    if let Some(trace) = stats.trace.take() {
                        if slowest.as_ref().map_or(true, |(ns, _, _)| elapsed_ns > *ns) {
                            slowest = Some((elapsed_ns, traces.len(), q.text.clone()));
                        }
                        traces.push((offset_ns, *trace));
                    }
                }
                Err(e) => eprintln!("query failed ({e}): {}", q.text),
            }
        }
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let accum = session.stats();
    let metrics_delta = global_metrics().snapshot().since(&metrics_before);
    let pct = 100.0 * cached as f64 / total.max(1) as f64;
    println!(
        "workload mix:            {} ({} queries, locality {:.2})",
        args.mix, total, args.locality
    );
    println!(
        "worker threads:          {} (effective {})",
        args.threads,
        engine.threads()
    );
    let mapped = ["Patients", "Genetics", "Regions"]
        .iter()
        .filter(|n| catalog.plugin(n).map(|p| p.is_mapped()).unwrap_or(false))
        .count();
    println!(
        "input backing:           {} (3 raw inputs, {mapped} mmap'd)",
        if args.mmap {
            "mmap"
        } else {
            "owned (--no-mmap)"
        }
    );
    println!(
        "cache budget:            {} MiB (used {} KiB)",
        args.budget_mb,
        cache.used_bytes() >> 10
    );
    println!("served fully from cache: {cached} ({pct:.1}%)");
    println!(
        "pipeline coverage:       {} unnest stages, {} theta joins, {} whole-query fallbacks",
        accum.unnest_pipelines, accum.theta_pipelines, accum.whole_query_fallbacks
    );
    println!(
        "streaming fusion:        {fused} of {pipelined} pipeline queries fused, max fused depth {}",
        accum.fused_stage_depth
    );
    if args.plan_opt {
        println!(
            "plan optimizer:          {} joins reordered, {} conjuncts reordered, \
             cardinality error {:.3}",
            accum.joins_reordered,
            accum.conjuncts_reordered,
            accum.cardinality_error()
        );
    } else {
        println!("plan optimizer:          off (--no-plan-opt)");
    }
    println!(
        "cache hit rate:          {:.1}%",
        cache.stats().hit_rate() * 100.0
    );
    if args.mix == "append" {
        println!(
            "incremental re-query:    {} tail rows scanned, {} fold partials resumed \
             ({} replay rounds)",
            accum.tail_rows_scanned,
            accum.partials_reused,
            rounds - 1
        );
    }
    match &model {
        Some(m) => {
            let layouts: Vec<String> = cache
                .layout_counts()
                .iter()
                .map(|(l, n)| format!("{}={n}", l.name()))
                .collect();
            println!(
                "cost model:              on ({} fields tracked)",
                m.fields_tracked()
            );
            println!("replica layouts:         {}", layouts.join(" "));
        }
        None => println!("cost model:              off (all replicas parsed values)"),
    }

    if let Some(path) = &args.trace_out {
        let refs: Vec<(u64, &QueryTrace)> = traces.iter().map(|(o, t)| (*o, t)).collect();
        std::fs::write(path, chrome_trace_json(&refs)).expect("write trace JSON");
        println!(
            "trace:                   {} queries, {} spans -> {}",
            traces.len(),
            traces.iter().map(|(_, t)| t.spans().len()).sum::<usize>(),
            path.display()
        );
        if let Some((ns, idx, text)) = &slowest {
            println!(
                "\nslowest query ({:.3} ms): {}",
                *ns as f64 / 1e6,
                text.trim()
            );
            print!("{}", traces[*idx].1.explain_analyze());
        }
    }

    if let Some(path) = &args.stats_json {
        std::fs::write(
            path,
            stats_json(
                args,
                total,
                wall_ns,
                &timings_ns,
                accum,
                &cache,
                &metrics_delta,
            ),
        )
        .expect("write stats JSON");
        println!("stats:                   -> {}", path.display());
    }

    let _ = std::fs::remove_dir_all(&dir);
    if args.assert_fused && (fused == 0 || fused != pipelined) {
        eprintln!(
            "FAIL: --assert-fused: {fused} of {pipelined} pipeline queries reported a fused \
             chain (streaming execution must fuse every pipeline-covered shape)"
        );
        std::process::exit(1);
    }
}

/// The `--serve` path: the same staged catalog and workload mix, but
/// driven through the `vida-server` query service — one resident
/// [`Engine`] behind a bounded admission queue, `--clients` in-process
/// client threads submitting concurrently, and executor threads
/// time-slicing the one shared worker pool at morsel granularity.
/// Streams every response through the length-prefixed wire protocol into
/// a per-query buffer, verifies each one parses and succeeded, prints
/// the admission / peak-in-flight / time-slicing counters the CI legs
/// grep, and exits non-zero if any response failed.
fn serve_smoke(
    args: &Args,
    catalog: Arc<MemoryCatalog>,
    opts: JitOptions,
    queries: &[vida_workload::QuerySpec],
) {
    let executors = args.clients.max(2);
    let engine = Arc::new(Engine::new(catalog, opts));
    let server = QueryServer::start(
        Arc::clone(&engine),
        ServerConfig {
            executors,
            queue_depth: 64,
        },
    );
    let metrics_before = global_metrics().snapshot();
    let t0 = Instant::now();
    let buffers: Vec<(usize, SharedBuffer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|client| {
                let server = &server;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for (i, q) in queries.iter().enumerate() {
                        if i % args.clients != client {
                            continue;
                        }
                        let buf = SharedBuffer::default();
                        // Admission control is a bounded queue: a rejected
                        // submit already wrote a busy response into the
                        // sink, so clear it and resubmit after a beat.
                        while !server
                            .submit(QueryRequest::new(q.text.clone(), Box::new(buf.clone())))
                        {
                            buf.take();
                            std::thread::yield_now();
                        }
                        mine.push((i, buf));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    server.drain();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let metrics_delta = global_metrics().snapshot().since(&metrics_before);
    let stats = server.stats();

    let mut rows = 0usize;
    let mut failed = 0usize;
    for (i, buf) in &buffers {
        let bytes = buf.take();
        match read_response(&mut bytes.as_slice()) {
            Ok(resp) if resp.is_ok() => rows += resp.rows.len(),
            Ok(resp) => {
                failed += 1;
                eprintln!(
                    "query #{i} failed: {}",
                    resp.error.as_deref().unwrap_or("unknown")
                );
            }
            Err(e) => {
                failed += 1;
                eprintln!("query #{i}: malformed response ({e})");
            }
        }
    }

    println!(
        "server smoke:            {} clients -> {executors} executors over {} shared workers \
         ({wall_ms:.1} ms)",
        args.clients,
        engine.threads()
    );
    println!(
        "admission:               {} admitted, {} rejected (bounded queue), {} completed, \
         {} failed",
        stats.admitted, stats.rejected, stats.completed, stats.failed
    );
    println!(
        "concurrent queries:      peak in flight {}",
        stats.peak_in_flight
    );
    println!(
        "time slicing:            {} runs attached to the resident pool, {} multiplexed \
         morsel claims",
        metrics_delta.pool_runs, metrics_delta.pool_multiplexed_claims
    );
    println!(
        "responses:               {} ok, {rows} rows streamed, {failed} malformed/failed",
        buffers.len() - failed
    );
    if let Some(path) = &args.stats_json {
        std::fs::write(path, server.stats_json()).expect("write stats JSON");
        println!("stats:                   -> {}", path.display());
    }
    server.shutdown();
    if failed > 0 {
        std::process::exit(1);
    }
}

/// The --stats-json document: run parameters, accumulated `ExecStats`,
/// cache counters, the engine-metrics delta for this run, and per-query
/// timing aggregates. Hand-rolled JSON, parseable by `validate-json`.
#[allow(clippy::too_many_arguments)]
fn stats_json(
    args: &Args,
    total: usize,
    wall_ns: u64,
    timings_ns: &[u64],
    accum: &ExecStats,
    cache: &CacheManager,
    metrics: &MetricsSnapshot,
) -> String {
    let cs = cache.stats();
    let probes = (cs.hits + cs.misses).max(1);
    let min = timings_ns.iter().min().copied().unwrap_or(0);
    let max = timings_ns.iter().max().copied().unwrap_or(0);
    let sum: u64 = timings_ns.iter().sum();
    let mean = sum / timings_ns.len().max(1) as u64;
    format!(
        "{{\"figure\":\"cache-locality\",\"mix\":\"{}\",\"queries_run\":{total},\
         \"threads\":{},\"mmap\":{},\"locality\":{:.3},\"budget_mb\":{},\
         \"wall_ns\":{wall_ns},\
         \"timings_ns\":{{\"count\":{},\"total\":{sum},\"min\":{min},\"max\":{max},\
         \"mean\":{mean}}},\
         \"exec\":{},\
         \"cache\":{{\"hits\":{},\"misses\":{},\"hit_rate\":{:.6},\"used_bytes\":{}}},\
         \"metrics\":{}}}",
        args.mix,
        args.threads,
        args.mmap,
        args.locality,
        args.budget_mb,
        timings_ns.len(),
        accum.to_json(),
        cs.hits,
        cs.misses,
        cs.hits as f64 / probes as f64,
        cache.used_bytes(),
        metrics.to_json(),
    )
}
