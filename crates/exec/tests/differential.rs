//! Three-evaluator differential tests over raw CSV and JSON fixtures.
//!
//! The same comprehension is evaluated by:
//! 1. the calculus reference interpreter (`vida_lang::eval`), straight from
//!    the comprehension, with no plan;
//! 2. the plan interpreter (`vida_algebra::interp`), over the datasets
//!    materialized (`execute_plan`) and over the raw plugins one unit at a
//!    time (`run_volcano`) — one algorithm, two sources;
//! 3. the JIT pipeline engine (`run_jit`, cold and through a cache),
//!
//! and all five results must agree. The JIT pipelines share only the input
//! plugins with the interpreter, so agreement is strong evidence that
//! lowering, rewriting, kernel compilation, hash/theta joins, unnest
//! stages, and cache reads all preserve the calculus semantics. (The
//! seeded random-plan sweep lives in `fuzz_differential.rs`; this file
//! holds the curated fixtures.)

use std::sync::Arc;
use vida_algebra::{execute_plan, lower, rewrite};
use vida_cache::CacheManager;
use vida_exec::{run_jit, run_volcano, JitOptions, MemoryCatalog, SourceProvider};
use vida_formats::csv::CsvFile;
use vida_formats::json::JsonFile;
use vida_formats::plugin::{CsvPlugin, JsonPlugin};
use vida_lang::{eval, parse, Bindings};
use vida_types::{Schema, Type, Value};

/// Catalog over raw bytes: `Patients` parses from CSV text, `Genetics` and
/// the nested `Regions` from newline-delimited JSON — the text formats of
/// the paper's workload, including a genuinely nested array column.
fn catalog() -> MemoryCatalog {
    let cat = MemoryCatalog::new();
    let csv_data = b"id,age,city\n\
                     1,71,geneva\n\
                     2,34,bern\n\
                     3,65,geneva\n\
                     4,52,zurich\n\
                     5,29,bern\n"
        .to_vec();
    let csv = CsvFile::from_bytes(
        "Patients",
        csv_data,
        b',',
        true,
        Schema::from_pairs([("id", Type::Int), ("age", Type::Int), ("city", Type::Str)]),
    )
    .expect("csv fixture parses");
    cat.register(Arc::new(CsvPlugin::new(csv)));

    let json_data = b"{\"id\":1,\"snp\":0.9}\n\
                      {\"id\":2,\"snp\":0.1}\n\
                      {\"id\":3,\"snp\":0.5}\n\
                      {\"id\":4,\"snp\":0.7}\n\
                      {\"id\":5,\"snp\":0.2}\n"
        .to_vec();
    let json = JsonFile::from_bytes(
        "Genetics",
        json_data,
        Schema::from_pairs([("id", Type::Int), ("snp", Type::Float)]),
    )
    .expect("json fixture parses");
    cat.register(Arc::new(JsonPlugin::new(json)));

    let regions_data = b"{\"id\":1,\"voxels\":[3,15,7]}\n\
                         {\"id\":2,\"voxels\":[]}\n\
                         {\"id\":3,\"voxels\":[22,4]}\n\
                         {\"id\":4,\"voxels\":[11]}\n"
        .to_vec();
    let regions = JsonFile::from_bytes(
        "Regions",
        regions_data,
        Schema::from_pairs([
            ("id", Type::Int),
            (
                "voxels",
                Type::Collection(vida_types::CollectionKind::List, Box::new(Type::Int)),
            ),
        ]),
    )
    .expect("regions fixture parses");
    cat.register(Arc::new(JsonPlugin::new(regions)));
    cat
}

/// Run one query through all engines and assert agreement; returns the
/// agreed value for spot checks.
fn differential(q: &str) -> Value {
    let cat = catalog();
    let expr = parse(q).unwrap_or_else(|e| panic!("{q}: {e}"));

    // Oracle 1: direct calculus interpretation over materialized datasets.
    let mut env = Bindings::new();
    for name in cat.dataset_names() {
        env.insert(name.clone(), cat.materialize(&name).expect("materializes"));
    }
    let direct = eval(&expr, &env).unwrap_or_else(|e| panic!("eval {q}: {e}"));

    let plan = rewrite(&lower(&expr).expect("lowers"));

    // Oracle 2: the plan interpreter over materialized datasets.
    let algebra = execute_plan(&plan, &env).unwrap_or_else(|e| panic!("algebra {q}: {e}"));
    assert_eq!(algebra, direct, "algebra deviates for {q}");

    // Oracle 2 again over the plugins, one unit at a time.
    let volcano = run_volcano(&plan, &cat).unwrap_or_else(|e| panic!("volcano {q}: {e}"));
    assert_eq!(volcano, direct, "volcano deviates for {q}");

    // Engine 3: JIT pipelines, cold.
    let jit =
        run_jit(&plan, &cat, &JitOptions::default()).unwrap_or_else(|e| panic!("jit {q}: {e}"));
    assert_eq!(jit, direct, "jit deviates for {q}");

    // Engine 3 again through a cache: first run populates, second is served
    // from cached column replicas — the result must not change.
    let opts = JitOptions::with_cache(Arc::new(CacheManager::new(1 << 20)));
    let warm1 = run_jit(&plan, &cat, &opts).unwrap_or_else(|e| panic!("jit+cache {q}: {e}"));
    let warm2 = run_jit(&plan, &cat, &opts).unwrap_or_else(|e| panic!("jit warm {q}: {e}"));
    assert_eq!(warm1, direct, "jit with cold cache deviates for {q}");
    assert_eq!(warm2, direct, "jit with warm cache deviates for {q}");

    direct
}

// --- CSV source ----------------------------------------------------------

#[test]
fn csv_set_monoid() {
    let v = differential("for { p <- Patients, p.age > 30 } yield set p.city");
    assert_eq!(v.elements().unwrap().len(), 3); // geneva, zurich dedup'd
}

#[test]
fn csv_bag_monoid() {
    let v = differential(
        "for { p <- Patients, p.city = \"geneva\" } yield bag (id := p.id, a := p.age)",
    );
    assert_eq!(v.elements().unwrap().len(), 2);
}

#[test]
fn csv_list_monoid() {
    let v = differential("for { p <- Patients, p.age < 60 } yield list p.id");
    assert_eq!(
        v.elements().unwrap(),
        &[Value::Int(2), Value::Int(4), Value::Int(5)]
    );
}

#[test]
fn csv_aggregates() {
    assert_eq!(
        differential("for { p <- Patients } yield max p.age"),
        Value::Int(71)
    );
    assert_eq!(
        differential("for { p <- Patients, p.city != \"bern\" } yield count p"),
        Value::Int(3)
    );
}

// --- JSON source ---------------------------------------------------------

#[test]
fn json_set_monoid() {
    differential("for { g <- Genetics, g.snp >= 0.5 } yield set g.id");
}

#[test]
fn json_bag_monoid() {
    let v = differential("for { g <- Genetics } yield bag (i := g.id, s := g.snp)");
    assert_eq!(v.elements().unwrap().len(), 5);
}

#[test]
fn json_list_monoid() {
    differential("for { g <- Genetics, g.snp < 0.6 } yield list g.snp");
}

#[test]
fn json_aggregates() {
    assert_eq!(
        differential("for { g <- Genetics } yield sum g.snp"),
        Value::Float(0.9 + 0.1 + 0.5 + 0.7 + 0.2)
    );
    assert_eq!(
        differential("for { g <- Genetics } yield any g.snp > 0.8"),
        Value::Bool(true)
    );
}

// --- Cross-format join (CSV ⋈ JSON) --------------------------------------

#[test]
fn cross_format_join_aggregate() {
    assert_eq!(
        differential(
            "for { p <- Patients, g <- Genetics, p.id = g.id, p.age > 60 } \
             yield sum g.snp"
        ),
        Value::Float(0.9 + 0.5)
    );
}

#[test]
fn cross_format_join_projection() {
    let v = differential(
        "for { p <- Patients, g <- Genetics, p.id = g.id, g.snp > 0.4 } \
         yield bag (city := p.city, snp := g.snp)",
    );
    assert_eq!(v.elements().unwrap().len(), 3);
}

#[test]
fn cross_format_avg_and_quantifier() {
    differential(
        "for { p <- Patients, g <- Genetics, p.id = g.id, p.city = \"geneva\" } \
         yield avg g.snp",
    );
    differential("for { p <- Patients, g <- Genetics, p.id = g.id } yield all g.snp < 1.0");
}

// --- Unnest, theta-join, and product pipelines -----------------------------
//
// These shapes took the whole-query Volcano fallback before the generated
// unnest/theta pipelines landed; they now run through `run_jit`'s compiled
// stages and must still agree with every oracle.

#[test]
fn unnest_over_nested_json_column() {
    assert_eq!(
        differential("for { r <- Regions, v <- r.voxels, v > 10 } yield sum v"),
        Value::Int(15 + 22 + 11)
    );
    let v = differential("for { r <- Regions, v <- r.voxels } yield list v");
    assert_eq!(
        v.elements().unwrap(),
        &[3, 15, 7, 22, 4, 11].map(Value::Int) as &[Value]
    );
}

#[test]
fn unnest_elements_join_flat_table() {
    differential(
        "for { r <- Regions, v <- r.voxels, g <- Genetics, v = g.id } \
         yield bag (v := v, s := g.snp)",
    );
}

#[test]
fn theta_band_join() {
    differential("for { p <- Patients, g <- Genetics, p.id < g.id } yield list g.snp");
    differential("for { p <- Patients, g <- Genetics, p.id >= g.id, p.age > 40 } yield count p");
}

#[test]
fn theta_nested_loop_join_and_product() {
    differential("for { p <- Patients, g <- Genetics, p.id != g.id, p.age > 50 } yield count g");
    differential("for { p <- Patients, g <- Genetics } yield count p");
}

#[test]
fn previously_fallback_shapes_report_zero_whole_query_fallbacks() {
    // Regression for the pipeline-coverage tentpole: the shapes above must
    // compile (no whole-query fallback), and `fallback_tuples` stays
    // reserved for null/type-mismatch tuples — of which these fixtures have
    // none on the touched columns.
    let cat = catalog();
    let cases: [(&str, u32, u32); 4] = [
        (
            "for { r <- Regions, v <- r.voxels, v > 10 } yield sum v",
            1,
            0,
        ),
        (
            "for { r <- Regions, v <- r.voxels, g <- Genetics, v = g.id } yield count v",
            1,
            0,
        ),
        (
            "for { p <- Patients, g <- Genetics, p.id < g.id } yield list g.snp",
            0,
            1,
        ),
        (
            "for { p <- Patients, g <- Genetics, p.id != g.id, p.age > 50 } yield count g",
            0,
            1,
        ),
    ];
    for (q, unnests, thetas) in cases {
        let plan = rewrite(&lower(&parse(q).unwrap()).unwrap());
        let (_, stats) = vida_exec::run_jit_with_stats(&plan, &cat, &JitOptions::default())
            .unwrap_or_else(|e| panic!("{q}: {e}"));
        assert_eq!(stats.whole_query_fallbacks, 0, "{q}: {stats:?}");
        assert_eq!(stats.unnest_pipelines, unnests, "{q}: {stats:?}");
        assert_eq!(stats.theta_pipelines, thetas, "{q}: {stats:?}");
        assert_eq!(stats.fallback_tuples, 0, "{q}: {stats:?}");
    }
}

// --- Shapes that exercise the interpreted fallback ------------------------

#[test]
fn nested_head_comprehension_agrees() {
    differential(
        "for { g <- Genetics, g.snp > 0.4 } yield list \
         (id := g.id, \
          cities := for { p <- Patients, p.id = g.id } yield list p.city)",
    );
}

#[test]
fn division_stays_interpreted_but_agrees() {
    differential("for { p <- Patients, p.age > 30 } yield sum (p.age / 2)");
}

// --- Morsel-driven parallel execution --------------------------------------
//
// The same queries through the JIT engine at 1, 2, and 8 worker threads,
// with morsels shrunk so even these fixtures split into many morsels.
// Results must be identical at every thread count and equal to the Volcano
// oracle. Float columns use dyadic rationals (k/64), whose sums are exact in
// f64 — so these tests catch real parallelism bugs (lost/duplicated tuples,
// misordered list elements, bad partitioning) rather than benign
// floating-point reassociation.

/// A larger raw-data catalog: `Patients` CSV (with some null ages) and
/// `Genetics` JSON, each `n` units.
fn big_catalog(n: usize) -> MemoryCatalog {
    let cat = MemoryCatalog::new();
    let cities = ["geneva", "bern", "zurich", "basel"];
    let mut csv = String::from("id,age,city\n");
    for i in 0..n {
        if i % 17 == 0 {
            csv.push_str(&format!("{i},,{}\n", cities[i % 4])); // null age
        } else {
            csv.push_str(&format!("{i},{},{}\n", 18 + (i * 7) % 70, cities[i % 4]));
        }
    }
    let csv = CsvFile::from_bytes(
        "Patients",
        csv.into_bytes(),
        b',',
        true,
        Schema::from_pairs([("id", Type::Int), ("age", Type::Int), ("city", Type::Str)]),
    )
    .expect("csv fixture parses");
    cat.register(Arc::new(CsvPlugin::new(csv)));

    let mut json = String::new();
    for i in 0..n {
        // Dyadic snp values: exact under any summation order.
        json.push_str(&format!(
            "{{\"id\":{i},\"snp\":{}}}\n",
            (i % 64) as f64 / 64.0
        ));
    }
    let json = JsonFile::from_bytes(
        "Genetics",
        json.into_bytes(),
        Schema::from_pairs([("id", Type::Int), ("snp", Type::Float)]),
    )
    .expect("json fixture parses");
    cat.register(Arc::new(JsonPlugin::new(json)));

    // Nested regions: ragged voxel arrays (some empty).
    let mut regions = String::new();
    for i in 0..n / 2 {
        let voxels: Vec<String> = (0..(i % 5))
            .map(|j| format!("{}", (i + 3 * j) % 40))
            .collect();
        regions.push_str(&format!(
            "{{\"id\":{i},\"voxels\":[{}]}}\n",
            voxels.join(",")
        ));
    }
    let regions = JsonFile::from_bytes(
        "Regions",
        regions.into_bytes(),
        Schema::from_pairs([
            ("id", Type::Int),
            (
                "voxels",
                Type::Collection(vida_types::CollectionKind::List, Box::new(Type::Int)),
            ),
        ]),
    )
    .expect("regions fixture parses");
    cat.register(Arc::new(JsonPlugin::new(regions)));
    cat
}

/// Run `q` at several thread counts over `big_catalog(n)`; every result
/// must equal the Volcano oracle (and hence each other). Returns the value.
fn thread_sweep(q: &str, n: usize) -> Value {
    let cat = big_catalog(n);
    let expr = parse(q).unwrap_or_else(|e| panic!("{q}: {e}"));
    let plan = rewrite(&lower(&expr).expect("lowers"));
    let oracle = run_volcano(&plan, &cat).unwrap_or_else(|e| panic!("volcano {q}: {e}"));
    for threads in [1usize, 2, 8] {
        let opts = JitOptions {
            threads,
            morsel_rows: 16,
            ..Default::default()
        };
        let v = run_jit(&plan, &cat, &opts).unwrap_or_else(|e| panic!("jit x{threads} {q}: {e}"));
        assert_eq!(v, oracle, "threads={threads} deviates for {q}");
    }
    oracle
}

#[test]
fn parallel_scan_aggregates_across_thread_counts() {
    thread_sweep("for { p <- Patients, p.age > 40 } yield count p", 200);
    thread_sweep("for { p <- Patients } yield max p.age", 200);
    thread_sweep("for { g <- Genetics } yield sum g.snp", 200);
    thread_sweep("for { g <- Genetics, g.snp > 0.5 } yield avg g.snp", 200);
    thread_sweep("for { p <- Patients } yield any p.age > 80", 200);
}

#[test]
fn float_aggregates_are_bit_identical_at_every_thread_count() {
    // Non-dyadic floats (k/10, (k%7+1)/3): their sums round at every step,
    // so any difference in association order shows up in the last ulp. One
    // morsel grid at every worker count — 1 included — means one
    // association order, hence one bit pattern. (The Volcano oracle folds
    // flat, so it is deliberately not part of this comparison.)
    let cat = MemoryCatalog::new();
    let rows: Vec<Value> = (0..200)
        .map(|k| {
            Value::record([
                ("id", Value::Int(k)),
                ("x", Value::Float(k as f64 / 10.0)),
                ("y", Value::Float(((k % 7) + 1) as f64 / 3.0)),
            ])
        })
        .collect();
    cat.register_records(
        "F",
        Schema::from_pairs([("id", Type::Int), ("x", Type::Float), ("y", Type::Float)]),
        &rows,
    )
    .unwrap();
    // The build side of a join→fold chain: probe order decides the
    // association order of the fold, so it must be the same everywhere.
    let g: Vec<Value> = (0..300)
        .map(|k| {
            Value::record([
                ("id", Value::Int(k % 150)),
                ("w", Value::Float(k as f64 / 7.0)),
            ])
        })
        .collect();
    cat.register_records(
        "G",
        Schema::from_pairs([("id", Type::Int), ("w", Type::Float)]),
        &g,
    )
    .unwrap();
    for q in [
        "for { f <- F } yield sum f.x",
        "for { f <- F, f.x > 1.5 } yield avg f.x",
        "for { f <- F } yield avg f.y",
        "for { f <- F, f.x < 4.0 } yield prod f.y",
        "for { f <- F, g <- G, f.id = g.id } yield sum g.w",
        "for { f <- F, g <- G, f.id = g.id, f.x > 2.5 } yield avg (f.y * g.w)",
    ] {
        let plan = rewrite(&lower(&parse(q).unwrap()).expect("lowers"));
        let bits = |threads: usize| {
            let opts = JitOptions {
                threads,
                morsel_rows: 16,
                ..Default::default()
            };
            match run_jit(&plan, &cat, &opts).unwrap_or_else(|e| panic!("x{threads} {q}: {e}")) {
                Value::Float(f) => f.to_bits(),
                other => panic!("{q}: expected a float, got {other}"),
            }
        };
        let one = bits(1);
        for threads in [2, 8] {
            assert_eq!(bits(threads), one, "threads={threads} drifts for {q}");
        }
    }
}

/// `q` over `cat` at 1/2/8 workers with 2-row morsels: every result —
/// value or error — must equal the Volcano oracle's.
fn sweep_against_volcano(cat: &MemoryCatalog, q: &str) -> vida_types::Result<Value> {
    let plan = rewrite(&lower(&parse(q).unwrap()).expect("lowers"));
    let oracle = run_volcano(&plan, cat);
    for threads in [1usize, 2, 8] {
        let opts = JitOptions {
            threads,
            morsel_rows: 2,
            ..Default::default()
        };
        let got = run_jit(&plan, cat, &opts);
        assert_eq!(
            got.as_ref().map_err(ToString::to_string),
            oracle.as_ref().map_err(ToString::to_string),
            "threads={threads} deviates for {q}"
        );
    }
    oracle
}

#[test]
fn typed_sum_overflow_across_a_morsel_boundary_is_volcanos_error() {
    // Two-row morsels: [MAX - 10, 1] and [20, 1] each fold without
    // overflow; merging the partials overflows, where Volcano's flat fold
    // overflows at the third element — with the same error.
    let cat = MemoryCatalog::new();
    let xs = [i64::MAX - 10, 1, 20, 1];
    let rows: Vec<Value> = xs
        .iter()
        .map(|&x| Value::record([("x", Value::Int(x))]))
        .collect();
    cat.register_records("I", Schema::from_pairs([("x", Type::Int)]), &rows)
        .unwrap();
    let err = sweep_against_volcano(&cat, "for { i <- I } yield sum i.x").unwrap_err();
    assert_eq!(err.to_string(), "execution error: integer overflow in sum");
    // Without the overflowing tail the same fold is exact.
    let v = sweep_against_volcano(&cat, "for { i <- I, i.x < 10 } yield sum i.x").unwrap();
    assert_eq!(v, Value::Int(2));
}

#[test]
fn typed_folds_over_no_rows_are_the_monoid_zero() {
    // Empty and fully filtered inputs: `sum` is `Int(0)` (not `Float(0.0)`),
    // `avg`/`max` are `Null`, exactly as Volcano folds them.
    let cat = big_catalog(40);
    cat.register_records("E", Schema::from_pairs([("x", Type::Float)]), &[])
        .unwrap();
    for (q, zero) in [
        ("for { e <- E } yield sum e.x", Value::Int(0)),
        ("for { e <- E } yield avg e.x", Value::Null),
        (
            "for { p <- Patients, p.age > 1000 } yield sum p.age",
            Value::Int(0),
        ),
        (
            "for { p <- Patients, p.age > 1000 } yield avg p.age",
            Value::Null,
        ),
        (
            "for { g <- Genetics, g.snp > 2.0 } yield max g.snp",
            Value::Null,
        ),
        (
            "for { p <- Patients, p.age > 1000 } yield count p",
            Value::Int(0),
        ),
    ] {
        assert_eq!(sweep_against_volcano(&cat, q).unwrap(), zero, "{q}");
    }
}

#[test]
fn parallel_collections_preserve_order_across_thread_counts() {
    let v = thread_sweep("for { p <- Patients, p.age < 30 } yield list p.id", 200);
    assert!(!v.elements().unwrap().is_empty());
    thread_sweep("for { p <- Patients } yield set p.city", 200);
    thread_sweep(
        "for { g <- Genetics, g.snp >= 0.75 } yield bag (i := g.id, s := g.snp)",
        200,
    );
}

#[test]
fn parallel_cross_format_hash_join_across_thread_counts() {
    thread_sweep(
        "for { p <- Patients, g <- Genetics, p.id = g.id, p.age > 50 } yield sum g.snp",
        300,
    );
    // Null ages route probe tuples through the interpreted fallback; list
    // output additionally pins the exact pair order.
    thread_sweep(
        "for { p <- Patients, g <- Genetics, p.id = g.id, g.snp > 0.5 } yield list p.id",
        300,
    );
}

#[test]
fn parallel_unnest_and_theta_join_across_thread_counts() {
    // The new pipeline stages under the same determinism contract: raw
    // nested JSON, null-riddled probe sides, list monoids pinning order.
    thread_sweep(
        "for { r <- Regions, v <- r.voxels, v > 5 } yield list v",
        200,
    );
    thread_sweep(
        "for { r <- Regions, v <- r.voxels } yield bag (id := r.id, v := v)",
        200,
    );
    thread_sweep(
        "for { r <- Regions, v <- r.voxels, g <- Genetics, v = g.id } yield sum g.snp",
        200,
    );
    // Band sort-probe with null ages routing probes through the fallback.
    thread_sweep(
        "for { p <- Patients, g <- Genetics, p.age < g.id, g.id > 190 } yield list g.id",
        200,
    );
    // Block-nested-loop inequality join.
    thread_sweep(
        "for { p <- Patients, g <- Genetics, p.id != g.id, g.id < 4, p.id < 30 } yield count p",
        100,
    );
}

#[test]
fn parallel_warm_cache_run_is_identical() {
    let cat = big_catalog(200);
    let plan = rewrite(
        &lower(
            &parse("for { p <- Patients, g <- Genetics, p.id = g.id } yield sum g.snp").unwrap(),
        )
        .expect("lowers"),
    );
    let cache = Arc::new(CacheManager::new(8 << 20));
    let mut results = Vec::new();
    // Cold run at 8 threads populates the cache in parallel; warm runs at
    // every thread count read the same replicas.
    for threads in [8usize, 2, 1] {
        let opts = JitOptions {
            cache: Some(Arc::clone(&cache)),
            threads,
            morsel_rows: 16,
            ..Default::default()
        };
        let (v, stats) = vida_exec::run_jit_with_stats(&plan, &cat, &opts)
            .unwrap_or_else(|e| panic!("threads={threads}: {e}"));
        if threads != 8 {
            assert!(stats.served_from_cache, "warm run should hit the cache");
        }
        results.push(v);
    }
    assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:?}");
    assert_eq!(results[0], run_volcano(&plan, &cat).unwrap());
}

#[test]
fn integer_overflow_is_an_exec_error_everywhere() {
    // `i64::MIN / -1` and `i64::MIN % -1` overflow: every engine must
    // return an ordinary `exec` error, none may panic.
    let cat = MemoryCatalog::new();
    cat.register_records(
        "T",
        Schema::from_pairs([("x", Type::Int), ("y", Type::Int)]),
        &[Value::record([
            ("x", Value::Int(i64::MIN)),
            ("y", Value::Int(-1)),
        ])],
    )
    .unwrap();
    let cat = Arc::new(cat);
    let mut env = Bindings::new();
    env.insert("T".into(), cat.materialize("T").unwrap());
    for q in [
        "for { t <- T } yield sum t.x / t.y",
        "for { t <- T } yield sum t.x % t.y",
    ] {
        let plan = rewrite(&lower(&parse(q).unwrap()).expect("lowers"));
        let mut errors = vec![
            ("volcano".to_string(), run_volcano(&plan, &*cat)),
            ("algebra".to_string(), execute_plan(&plan, &env)),
        ];
        for threads in [1usize, 2, 8] {
            let opts = JitOptions {
                threads,
                ..Default::default()
            };
            let engine = vida_exec::Engine::new(cat.clone(), opts);
            errors.push((format!("engine x{threads}"), engine.execute(&plan)));
        }
        for (engine, result) in errors {
            let err = result.expect_err(&format!("{engine} {q}: overflow must error"));
            assert_eq!(err.kind(), "exec", "{engine} {q}: {err}");
            assert!(
                err.to_string().contains("integer overflow"),
                "{engine} {q}: {err}"
            );
            assert!(
                !err.to_string().contains("query panicked"),
                "{engine} {q}: {err}"
            );
        }
    }
}
