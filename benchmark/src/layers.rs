//! The per-layer probes: wall-clock around public calls into each crate,
//! over seeded probe files of fixed size (layer = crate, measured from
//! outside only). They do not depend on the workload; the workload-derived
//! per-layer numbers (counters, shares) are added by `main`.
//!
//! README.md maps each probe to the end-to-end metric, and the workload,
//! it should move. The `ref.*` numbers are rooflines measured in the same
//! process over the same buffers, so `io.*` can be read as a fraction of
//! what the hardware gives.

use crate::fixtures::{Dataset, Kind, WIDE_COLS};
use crate::harness::{nproc, open_engine, run_text, Sizing};
use crate::served::FrameSink;
use crate::spans::Spans;
use crate::stats::{median, Report};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vida_algebra::{lower, rewrite, Plan};
use vida_baselines::LoadedBaseline;
use vida_cache::{CacheKey, CacheManager, CachedData, Layout};
use vida_exec::{run_jit, run_volcano, JitOptions, MemoryCatalog, OutputFormat};
use vida_formats::csv::{parse_field, CsvFile};
use vida_formats::json::JsonFile;
use vida_formats::{InputPlugin, MapMode};
use vida_io::json::next_record_boundary;
use vida_io::swar::find_byte;
use vida_io::{CsvTokenizer, RawData};
use vida_jit::{FrameBuilder, FrameLayout, JitCompiler, SelectKernel, SlotType, StringInterner};
use vida_lang::{parse, typecheck, TypeEnv};
use vida_optimizer::{reorder_joins, CostModel, FieldObservation, TableStats};
use vida_parallel::{plan_scan, WorkerPool};
use vida_server::{read_response, write_frame, QueryRequest, QueryServer, ServerConfig};
use vida_sql::sql_to_comprehension;
use vida_types::{Type, Value};

/// Rows of the probe files (HBP ones; Regions a third, wide a tenth).
const ROWS: usize = 20_000;

/// Median seconds per call of `f` over `samples` timed calls, after one
/// untimed call (page faults, lazy statics).
fn secs<R>(samples: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

fn plan_of(text: &str) -> Plan {
    rewrite(&lower(&parse(text).expect("probe query parses")).expect("probe query lowers"))
}

fn mb_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs
}

struct Files<'a> {
    dir: &'a Path,
    patients: Dataset,
    genetics: Dataset,
    regions: Dataset,
    wide_csv: Dataset,
    wide_json: Dataset,
}

impl Files<'_> {
    /// A dataset of its own in a sub-directory, for probes that rewrite or
    /// grow their file (the shared ones stay as generated).
    fn private(&self, sub: &str, kind: Kind, rows: usize) -> Dataset {
        let dir = self.dir.join(sub);
        std::fs::create_dir_all(&dir).expect("create probe dir");
        Dataset::create(kind, &dir, rows, 7).0
    }

    fn hbp(&self) -> [Dataset; 3] {
        [
            self.patients.clone(),
            self.genetics.clone(),
            self.regions.clone(),
        ]
    }

    fn sizing(threads: usize) -> Sizing {
        Sizing {
            datasets: Vec::new(),
            threads,
            cache_bytes: 64 << 20,
            append_share: 0.01,
        }
    }
}

pub fn run(seed: u64, dir: &Path, report: &mut Report) {
    let make = |kind, rows| Dataset::create(kind, dir, rows, seed).0;
    let files = Files {
        dir,
        patients: make(Kind::Patients, ROWS),
        genetics: make(Kind::Genetics, ROWS),
        regions: make(Kind::Regions, ROWS / 3),
        wide_csv: make(Kind::WideCsv, ROWS / 10),
        wide_json: make(Kind::WideJson, ROWS / 10),
    };
    reference_and_io(&files, report);
    formats(&files, report);
    front_end(report);
    jit(report);
    cache(report);
    parallel(&files, report);
    exec(&files, report);
    server(&files, report);
}

fn reference_and_io(files: &Files, report: &mut Report) {
    let plain = std::fs::read(&files.patients.path).expect("probe file");
    let quoted = std::fs::read(&files.wide_csv.path).expect("probe file");
    let ndjson = std::fs::read(&files.genetics.path).expect("probe file");

    let s = secs(9, || plain.iter().map(|&b| b as u64).sum::<u64>());
    report.set("ref.seq_read_mb_s", mb_s(plain.len(), s));
    const CALLS: usize = 1_000_000;
    // The shape of a compiled kernel: a boxed closure over a frame.
    type Kernel = Box<dyn Fn(&[i64]) -> i64>;
    let noop: Kernel = black_box(Box::new(|frame| frame[0]));
    let frame = [7i64, 11];
    let s = secs(5, || {
        (0..CALLS).map(|_| noop(black_box(&frame))).sum::<i64>()
    });
    report.set("ref.noop_closure_call_ns", s * 1e9 / CALLS as f64);
    let cursor = AtomicUsize::new(0);
    let s = secs(5, || {
        (0..CALLS)
            .map(|_| cursor.fetch_add(1, Ordering::Relaxed))
            .sum::<usize>()
    });
    report.set("ref.atomic_claim_ns", s * 1e9 / CALLS as f64);

    let s = secs(9, || {
        let (mut pos, mut lines) = (0, 0usize);
        while let Some(d) = find_byte(&plain[pos..], b'\n') {
            pos += d + 1;
            lines += 1;
        }
        lines
    });
    report.set("io.find_byte_mb_s", mb_s(plain.len(), s));
    let tok = CsvTokenizer::new(b',');
    for (name, data) in [
        ("io.csv_record_scan_mb_s", &plain),
        ("io.csv_record_scan_quoted_mb_s", &quoted),
    ] {
        let s = secs(9, || {
            let mut rows = 0usize;
            tok.scan_record_ends(data, 0, &mut |_| rows += 1);
            rows
        });
        report.set(name, mb_s(data.len(), s));
    }
    let s = secs(9, || {
        let (mut pos, mut records) = (0, 0usize);
        while let Some(end) = next_record_boundary(&ndjson, pos) {
            pos = end + 1;
            records += 1;
        }
        records
    });
    report.set("io.json_record_scan_mb_s", mb_s(ndjson.len(), s));
    let path = &files.wide_json.path;
    let s = secs(15, || {
        RawData::open_with(path, MapMode::Auto).expect("maps").len()
    });
    report.set("io.open_mmap_us", s * 1e6);
    let s = secs(9, || {
        RawData::open_with(path, MapMode::Never)
            .expect("reads")
            .len()
    });
    report.set("io.open_owned_ms", s * 1e3);
}

fn open_csv(ds: &Dataset) -> CsvFile {
    CsvFile::open_with(
        ds.kind.name(),
        &ds.path,
        b',',
        true,
        ds.kind.schema(),
        MapMode::Auto,
    )
    .expect("probe CSV opens")
}

fn open_json(ds: &Dataset) -> JsonFile {
    JsonFile::open_with(ds.kind.name(), &ds.path, ds.kind.schema(), MapMode::Auto)
        .expect("probe NDJSON opens")
}

fn formats(files: &Files, report: &mut Report) {
    let s = secs(9, || open_csv(&files.patients).num_rows());
    report.set(
        "formats.csv_open_index_mb_s",
        mb_s(files.patients.raw_bytes(), s),
    );
    let s = secs(9, || open_json(&files.genetics).num_objects());
    report.set(
        "formats.json_open_index_mb_s",
        mb_s(files.genetics.raw_bytes(), s),
    );

    // Cold projections of every field: positional map / semi-index build
    // plus field parse, on a fresh reader each time.
    let fields = (files.wide_csv.rows * WIDE_COLS) as f64;
    let cols: Vec<usize> = (0..WIDE_COLS).collect();
    let s = secs(5, || {
        let mut rows = 0usize;
        open_csv(&files.wide_csv)
            .scan_project(&cols, &mut |_, _| {
                rows += 1;
                Ok(())
            })
            .expect("scans");
        rows
    });
    report.set("formats.csv_scan_project_ns_per_field", s * 1e9 / fields);
    let names: Vec<String> = (0..WIDE_COLS).map(|c| format!("c{c}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let s = secs(5, || {
        let file = open_json(&files.wide_json);
        let mut rows = 0usize;
        file.scan_project_range(&names, 0..file.num_objects(), &mut |_, _| {
            rows += 1;
            Ok(())
        })
        .expect("scans");
        rows
    });
    report.set("formats.json_scan_project_ns_per_field", s * 1e9 / fields);

    let cells: [(&[u8], Type); 3] = [
        (b"48213", Type::Int),
        (b"0.4375", Type::Float),
        (b"w417", Type::Str),
    ];
    const PARSES: usize = 30_000;
    let s = secs(9, || {
        for i in 0..PARSES {
            let (text, ty) = &cells[i % 3];
            black_box(parse_field(black_box(text), ty, "probe")).ok();
        }
    });
    report.set("formats.csv_parse_field_ns", s * 1e9 / PARSES as f64);

    // Re-reading a late column once the positional structures know it.
    let csv = open_csv(&files.wide_csv);
    let rows = csv.num_rows();
    let s = secs(9, || {
        (0..rows).filter(|&r| csv.read_field(r, 20).is_ok()).count()
    });
    report.set(
        "formats.csv_posmap_rescan_ns_per_field",
        s * 1e9 / rows as f64,
    );
    let json = open_json(&files.wide_json);
    let s = secs(9, || {
        (0..rows)
            .filter(|&r| json.read_field(r, "c20").is_ok())
            .count()
    });
    report.set(
        "formats.json_semi_index_rescan_ns_per_field",
        s * 1e9 / rows as f64,
    );

    // Revalidation: the re-stat every query pays, and the incremental
    // index extension after an append (each sample appends again).
    let mut grown = files.private("grow", Kind::Patients, ROWS);
    let mut plugin: Arc<dyn InputPlugin> = grown.open();
    let s = secs(15, || plugin.revalidate().is_ok());
    report.set("formats.revalidate_unchanged_us", s * 1e6);
    let mut per_kb = Vec::new();
    for _ in 0..7 {
        let appended = grown.append(ROWS / 50).len();
        let t0 = Instant::now();
        let outcome = plugin.revalidate().expect("revalidates");
        per_kb.push(t0.elapsed().as_secs_f64() * 1e6 / (appended as f64 / 1024.0));
        if let vida_formats::plugin::Revalidation::Extended { plugin: next, .. } = outcome {
            plugin = Arc::from(next);
        } else {
            panic!("an append must revalidate as Extended");
        }
    }
    report.set_median("formats.revalidate_extended_us_per_kb", &per_kb);
}

/// The HBP templates, one of each, as the fixed front-end corpus.
const CORPUS: [&str; 6] = [
    "for { p <- Patients, p.id < 1234 } yield avg p.age",
    "for { p <- Patients, p.id < 1234 } yield bag (id := p.id, age := p.age)",
    "for { p <- Patients, g <- Genetics, p.id = g.id, p.age > 47 } yield sum g.snp",
    "for { g <- Genetics, g.id < 1234 } yield any g.snp > 0.5",
    "for { r <- Regions, v <- r.voxels, g <- Genetics, v = g.id, r.id < 1234 } yield count v",
    "for { g <- Genetics, p <- Patients, r <- Regions, p.id = g.id, p.id = r.id, p.id < 1234 } yield count p",
];

fn front_end(report: &mut Report) {
    let per_query = |s: f64| s * 1e6 / CORPUS.len() as f64;
    let s = secs(15, || CORPUS.iter().filter(|q| parse(q).is_ok()).count());
    report.set("lang.parse_us", per_query(s));
    let exprs: Vec<_> = CORPUS.iter().map(|q| parse(q).expect("parses")).collect();
    let mut env = TypeEnv::new();
    for kind in [Kind::Patients, Kind::Genetics, Kind::Regions] {
        env.bind(kind.name(), kind.schema().dataset_type());
    }
    let s = secs(15, || {
        exprs.iter().filter(|e| typecheck(e, &env).is_ok()).count()
    });
    report.set("lang.typecheck_us", per_query(s));
    let s = secs(15, || {
        exprs
            .iter()
            .filter(|e| lower(e).map(|p| rewrite(&p)).is_ok())
            .count()
    });
    report.set("algebra.lower_rewrite_us", per_query(s));

    let sql = [
        "SELECT p.id, p.age AS years FROM Patients p WHERE p.age > 40",
        "SELECT COUNT(*) FROM Genetics g WHERE g.snp > 0.5",
    ];
    let s = secs(15, || {
        sql.iter()
            .filter(|q| sql_to_comprehension(q).is_ok())
            .count()
    });
    report.set("sql.translate_us", s * 1e6 / sql.len() as f64);

    // `reorder_joins` takes what is under the reduce.
    let Plan::Reduce {
        input: three_way, ..
    } = plan_of(CORPUS[5])
    else {
        panic!("comprehensions lower to a reduce");
    };
    let stats = TableStats::with_rows(&[
        ("Patients", ROWS as f64),
        ("Genetics", ROWS as f64),
        ("Regions", ROWS as f64 / 3.0),
    ]);
    assert!(
        reorder_joins(&three_way, &stats).1.eligible,
        "the probe must time a real order search"
    );
    let s = secs(15, || reorder_joins(&three_way, &stats).1.eligible);
    report.set("optimizer.reorder_joins_us", s * 1e6);
    let model = CostModel::new();
    for _ in 0..8 {
        model.observe(
            "Patients",
            "age",
            FieldObservation {
                rows: ROWS as u64,
                avg_value_bytes: 16.0,
                avg_binary_bytes: 33.0,
                raw_cost_factor: 3.0,
                has_spans: true,
            },
        );
    }
    const CHOICES: usize = 10_000;
    let s = secs(9, || {
        (0..CHOICES)
            .filter(|_| model.choose_layout("Patients", "age", black_box(0.5)) == Layout::Values)
            .count()
    });
    report.set("optimizer.choose_layout_ns", s * 1e9 / CHOICES as f64);
}

fn jit(report: &mut Report) {
    let mut layout = FrameLayout::new();
    layout.slot("p.age", SlotType::Int);
    layout.slot("p.id", SlotType::Int);
    layout.slot("p.snp", SlotType::Float);
    let preds = ["p.age > 40", "p.id < 1000", "p.snp * 2.0 > 0.5"];
    let exprs: Vec<_> = preds.iter().map(|p| parse(p).expect("parses")).collect();
    let compile_all = || {
        let mut interner = StringInterner::new();
        exprs
            .iter()
            .map(|e| {
                JitCompiler::new()
                    .and_then(|c| c.compile(e, &layout, &mut interner))
                    .expect("predicate compiles")
            })
            .collect::<Vec<_>>()
    };
    let s = secs(15, || compile_all().len());
    report.set("jit.compile_us_per_kernel", s * 1e6 / preds.len() as f64);

    let kernels = compile_all();
    let frame = [57i64, 12, 0.75f64.to_bits() as i64];
    const CALLS: usize = 1_000_000;
    let s = secs(5, || {
        (0..CALLS)
            .map(|_| kernels[0].call(black_box(&frame)))
            .sum::<i64>()
    });
    report.set("jit.kernel_call_ns", s * 1e9 / CALLS as f64);
    let select = SelectKernel::new(kernels);
    let s = secs(5, || {
        (0..CALLS)
            .filter(|_| select.admit(black_box(&frame)))
            .count()
    });
    report.set("jit.select_admit_ns", s * 1e9 / CALLS as f64);

    let mut builder = FrameBuilder::new(layout);
    let values = [Value::Int(57), Value::Int(12), Value::Float(0.75)];
    let mut slots = [0i64; 3];
    const FILLS: usize = 300_000;
    let s = secs(5, || {
        (0..FILLS)
            .filter(|i| builder.fill_slot(&mut slots, i % 3, black_box(&values[i % 3])))
            .count()
    });
    report.set("jit.frame_fill_ns_per_slot", s * 1e9 / FILLS as f64);
}

fn cache(report: &mut Report) {
    let rows: Vec<Value> = (0..ROWS as i64)
        .map(|i| Value::record([("id", Value::Int(i)), ("snp", Value::Float(i as f64 / 1e3))]))
        .collect();
    let fp = (1, 1);
    let key = |field: &str| CacheKey::new("Probe", field, Layout::Values);
    let manager = CacheManager::new(256 << 20);
    let per_row = |s: f64| s * 1e9 / ROWS as f64;

    let s = secs(5, || {
        let data = CachedData::from_values(&rows, Layout::Values).expect("values");
        manager.put(key("put"), data, fp)
    });
    report.set("cache.put_values_ns_per_row", per_row(s));
    let s = secs(5, || {
        CachedData::from_values(&rows, Layout::BinaryJson)
            .expect("bson")
            .len()
    });
    report.set("cache.encode_bson_ns_per_row", per_row(s));
    let bson = CachedData::from_values(&rows, Layout::BinaryJson).expect("bson");
    let s = secs(5, || (0..ROWS).filter(|&r| bson.get(r).is_ok()).count());
    report.set("cache.decode_bson_ns_per_row", per_row(s));

    const PROBES: usize = 100_000;
    let preference = [Layout::BinaryJson, Layout::Values];
    let s = secs(5, || {
        (0..PROBES)
            .filter(|_| manager.get_any("Probe", "put", &preference).is_some())
            .count()
    });
    report.set("cache.get_any_hit_ns", s * 1e9 / PROBES as f64);

    // Each sample splices a fresh 1% tail onto the resident column.
    let tail_rows = ROWS / 100;
    let mut samples = Vec::new();
    for version in 1..=9u64 {
        let tail = rows[..tail_rows].to_vec();
        let keep = manager.get(&key("put")).expect("resident").len();
        let t0 = Instant::now();
        let grown = manager.extend_values(&key("put"), (version, 1), keep, tail, (version + 1, 1));
        samples.push(t0.elapsed().as_secs_f64() * 1e9 / tail_rows as f64);
        assert!(grown.is_some(), "extend_values found the resident replica");
    }
    report.set_median("cache.extend_values_ns_per_row", &samples);
}

fn parallel(files: &Files, report: &mut Report) {
    const MORSELS: usize = 100_000;
    let resident = WorkerPool::resident(nproc());
    let claim = |pool: &WorkerPool, morsels: usize| {
        pool.run_morsels(morsels, |_| (), |_, m| Ok::<usize, ()>(m))
            .expect("no-op morsels")
            .len()
    };
    let s = secs(5, || claim(&resident, MORSELS));
    report.set("parallel.morsel_claim_ns", s * 1e9 / MORSELS as f64);
    let s = secs(25, || claim(&resident, nproc()));
    report.set("parallel.attach_run_us", s * 1e6);
    let spawning = WorkerPool::new(nproc());
    let s = secs(25, || claim(&spawning, nproc()));
    report.set("parallel.spawn_run_us", s * 1e6);

    let plugin = files.patients.open();
    let s = secs(15, || plan_scan(plugin.as_ref(), 0).len());
    report.set("parallel.plan_scan_us", s * 1e6);

    // The same cold scan+fold at one worker and at one per core.
    let plan = plan_of("for { p <- Patients } yield sum p.age");
    let cold_scan = |threads: usize| {
        let opts = JitOptions {
            threads,
            ..Default::default()
        };
        secs(5, || {
            let catalog = MemoryCatalog::new();
            catalog.register(files.patients.open());
            run_jit(&plan, &catalog, &opts).expect("cold scan runs")
        })
    };
    report.set("parallel.scan_speedup", cold_scan(1) / cold_scan(nproc()));
}

fn exec(files: &Files, report: &mut Report) {
    let mut off = Spans::off();
    let cold = |ds: &Dataset, text: &str| {
        let plan = plan_of(text);
        secs(5, || {
            let catalog = MemoryCatalog::new();
            catalog.register(ds.open());
            run_jit(&plan, &catalog, &JitOptions::default()).expect("cold query runs")
        })
    };
    let filter_sum = "for { p <- Patients, p.age > 40 } yield sum p.age";
    report.set(
        "exec.q_csv_filter_sum_cold_ms",
        cold(&files.patients, filter_sum) * 1e3,
    );
    let unnest = "for { r <- Regions, v <- r.voxels, v > 10 } yield sum v";
    report.set(
        "exec.q_json_unnest_cold_ms",
        cold(&files.regions, unnest) * 1e3,
    );

    let opened = open_engine(&files.hbp(), &Files::sizing(1), false, &mut off);
    let mut session = opened.engine.session();
    let mut warm = |text: &str| {
        secs(15, || {
            run_text(&mut session, text, &mut off)
                .expect("warm query runs")
                .0
        })
    };
    report.set("exec.q_warm_hit_us", warm(filter_sum) * 1e6);
    report.set("exec.q_join3_ms", warm(CORPUS[5]) * 1e3);

    // Interpreter over generated pipelines, on a prefix small enough for
    // the interpreter.
    let small = files.private("small", Kind::Patients, 2_000);
    let catalog = MemoryCatalog::new();
    catalog.register(small.open());
    let plan = plan_of(filter_sum);
    let volcano = secs(5, || run_volcano(&plan, &catalog).expect("volcano runs"));
    let jit = secs(5, || {
        run_jit(&plan, &catalog, &JitOptions::default()).expect("jit runs")
    });
    report.set("exec.volcano_over_jit", volcano / jit);

    let rows = 5_000;
    let bag = Value::bag(
        (0..rows)
            .map(|i| Value::record([("id", Value::Int(i)), ("age", Value::Int(18 + i % 70))]))
            .collect(),
    );
    for (name, format) in [
        ("exec.output_text_ns_per_row", OutputFormat::Text),
        ("exec.output_csv_ns_per_row", OutputFormat::Csv),
        ("exec.output_bson_ns_per_row", OutputFormat::BinaryJson),
    ] {
        let s = secs(9, || format.write(&bag).expect("writes").len());
        report.set(name, s * 1e9 / rows as f64);
    }

    // The paper's comparison: load everything first, then answer.
    let catalog = MemoryCatalog::new();
    for ds in files.hbp() {
        catalog.register(ds.open());
    }
    let first = plan_of(CORPUS[0]);
    let t0 = Instant::now();
    let loaded = LoadedBaseline::load(&catalog).expect("baseline loads");
    black_box(loaded.run(&first).expect("baseline answers"));
    report.set(
        "baselines.load_then_first_query_ms",
        t0.elapsed().as_secs_f64() * 1e3,
    );
}

fn server(files: &Files, report: &mut Report) {
    let mut off = Spans::off();
    let opened = open_engine(&files.hbp(), &Files::sizing(nproc()), false, &mut off);
    let small = "for { p <- Patients, p.id < 10 } yield count p";
    let mut session = opened.engine.session();
    run_text(&mut session, small, &mut off).expect("warms the columns");
    const EXCHANGES: usize = 300;
    let direct_us: Vec<f64> = (0..EXCHANGES)
        .map(|_| {
            let t0 = Instant::now();
            black_box(run_text(&mut session, small, &mut off).expect("direct query runs"));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    drop(session);

    let server = QueryServer::start(
        Arc::clone(&opened.engine),
        ServerConfig {
            executors: nproc(),
            queue_depth: crate::served::QUEUE_DEPTH,
        },
    );
    let (mut submit_us, mut first_us, mut total_us) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..EXCHANGES {
        let sink = FrameSink::default();
        let request = QueryRequest::new(small, Box::new(sink.clone()));
        let t0 = Instant::now();
        assert!(server.submit(request), "an idle server admits");
        submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let response = sink.wait().expect("the response terminates");
        first_us.push((response.first_byte_at - t0).as_secs_f64() * 1e6);
        total_us.push((response.terminated_at - t0).as_secs_f64() * 1e6);
    }
    report.set_median("server.submit_us", &submit_us);
    report.set_median("server.first_frame_us", &first_us);
    report.set_median("exec.q_small_served_us", &total_us);
    report.set("server.overhead_us", median(&total_us) - median(&direct_us));
    let s = secs(15, || server.stats_json().len());
    report.set("server.stats_json_us", s * 1e6);
    server.shutdown();

    const FRAMES: usize = 5_000;
    let payload = [b'x'; 32];
    let mut wire = Vec::with_capacity(FRAMES * 40);
    let s = secs(9, || {
        wire.clear();
        write_frame(&mut wire, b"+").expect("writes");
        for _ in 0..FRAMES {
            write_frame(&mut wire, black_box(&payload)).expect("writes");
        }
        wire.extend_from_slice(&0u32.to_le_bytes());
        wire.len()
    });
    report.set("server.write_frame_ns", s * 1e9 / FRAMES as f64);
    let s = secs(9, || {
        read_response(&mut wire.as_slice())
            .expect("reads")
            .rows
            .len()
    });
    report.set("server.read_response_ns_per_row", s * 1e9 / FRAMES as f64);
}
