//! The nested-heavy workload runs through generated pipelines — not the
//! Volcano fallback — and nested columns participate in the cache/cost
//! machinery.
//!
//! Three proofs:
//! 1. every `generate_nested_heavy` query compiles to a pipeline
//!    (`whole_query_fallbacks == 0`) fused into one chunk pipeline
//!    (`fused_stage_depth >= 2`), and the stats counters show which new
//!    stage ran (`unnest_pipelines`, `theta_pipelines`);
//! 2. an unnest is served from a cached `BinaryJson` replica of the nested
//!    column (the ROADMAP's "unnest over cached nested columns first");
//! 3. with a cost model attached, the pipeline records access statistics
//!    for the nested field, so it participates in layout selection.

use std::sync::Arc;
use vida_algebra::{lower, rewrite};
use vida_cache::{bson, CacheKey, CacheManager, CachedData, Layout};
use vida_exec::{run_jit_with_stats, run_volcano, ExecStats, JitOptions, MemoryCatalog};
use vida_formats::csv::CsvFile;
use vida_formats::json::JsonFile;
use vida_formats::plugin::{CsvPlugin, JsonPlugin};
use vida_lang::parse;
use vida_optimizer::CostModel;
use vida_types::{CollectionKind, Schema, Type, Value};
use vida_workload::{generate_nested_heavy, Template, WorkloadConfig};

/// Raw-data catalog over the nested-heavy workload schema: `Patients` CSV,
/// `Genetics` and `Regions` newline-delimited JSON — `Regions.voxels` is a
/// genuinely nested JSON array column.
fn catalog(n: usize) -> MemoryCatalog {
    let cat = MemoryCatalog::new();
    let cities = ["geneva", "bern", "zurich", "basel"];
    let mut csv = String::from("id,age,city\n");
    for i in 0..n {
        csv.push_str(&format!("{i},{},{}\n", 18 + (i * 7) % 70, cities[i % 4]));
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

    cat.register(Arc::new(JsonPlugin::new(regions_json(n / 4))));
    cat
}

fn regions_schema() -> Schema {
    Schema::from_pairs([
        ("id", Type::Int),
        (
            "voxels",
            Type::Collection(CollectionKind::List, Box::new(Type::Int)),
        ),
    ])
}

fn regions_json(n: usize) -> JsonFile {
    let mut json = String::new();
    for i in 0..n.max(1) {
        let voxels: Vec<String> = (0..(i % 5)).map(|j| format!("{}", i + 10 * j)).collect();
        json.push_str(&format!(
            "{{\"id\":{i},\"voxels\":[{}]}}\n",
            voxels.join(",")
        ));
    }
    JsonFile::from_bytes("Regions", json.into_bytes(), regions_schema()).expect("regions parse")
}

#[test]
fn nested_heavy_workload_hits_the_new_pipelines() {
    let cat = catalog(64);
    let queries = generate_nested_heavy(&WorkloadConfig {
        queries: 40,
        ..Default::default()
    });
    let mut total = ExecStats::default();
    for q in &queries {
        let plan = rewrite(&lower(&parse(&q.text).unwrap()).unwrap());
        let oracle = run_volcano(&plan, &cat).unwrap_or_else(|e| panic!("{}: {e}", q.text));
        let (v, stats) = run_jit_with_stats(&plan, &cat, &JitOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", q.text));
        assert_eq!(v, oracle, "jit deviates for {}", q.text);
        assert_eq!(
            stats.whole_query_fallbacks, 0,
            "{} took the fallback: {stats:?}",
            q.text
        );
        // Every pipeline-covered query runs as one fused chunk pipeline
        // (at least the scan and the fold).
        assert!(
            stats.fused_stage_depth >= 2,
            "{} did not fuse: {stats:?}",
            q.text
        );
        // Each template exercises the stage it was built for.
        match q.template {
            Template::UnnestFold | Template::UnnestJoin => {
                assert!(stats.unnest_pipelines >= 1, "{}: {stats:?}", q.text)
            }
            Template::ThetaBand | Template::ThetaLoop => {
                assert!(stats.theta_pipelines >= 1, "{}: {stats:?}", q.text)
            }
            Template::UnnestTheta => assert!(
                stats.unnest_pipelines >= 1 && stats.theta_pipelines >= 1,
                "{}: {stats:?}",
                q.text
            ),
            _ => {}
        }
        total.accumulate(&stats);
    }
    assert_eq!(total.whole_query_fallbacks, 0);
    assert!(total.unnest_pipelines > 0 && total.theta_pipelines > 0);
}

#[test]
fn unnest_is_served_from_cached_binary_json_replica() {
    let cat = catalog(64);
    let cache = Arc::new(CacheManager::new(1 << 20));
    let opts = JitOptions::with_cache(Arc::clone(&cache));
    let plan = rewrite(
        &lower(&parse("for { r <- Regions, v <- r.voxels, v > 10 } yield sum v").unwrap()).unwrap(),
    );
    let oracle = run_volcano(&plan, &cat).unwrap();

    // Cold run populates replicas of both touched Regions columns.
    let (v1, s1) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
    assert_eq!(v1, oracle);
    assert!(s1.raw_columns > 0 && s1.unnest_pipelines == 1, "{s1:?}");

    // Re-shape the nested column's replica to binary JSON by hand (as the
    // cost model does for fat nested fields; the insert retires the parsed
    // one): the warm unnest must rehydrate through the BinaryJson decode
    // path.
    let plugin = vida_exec::SourceProvider::plugin(&cat, "Regions").unwrap();
    let nested_col: Vec<Value> = (0..plugin.num_units())
        .map(|r| plugin.read_field(r, 1).unwrap())
        .collect();
    let replica = CachedData::from_values(&nested_col, Layout::BinaryJson).unwrap();
    // Nested values round-trip through the binary codec.
    let (decoded, _) = bson::decode_value(&bson::to_bytes(&nested_col[1]), 0).unwrap();
    assert_eq!(decoded, nested_col[1]);
    assert!(cache.put(
        CacheKey::new("Regions", "voxels", Layout::BinaryJson),
        replica,
        plugin.fingerprint(),
    ));
    assert!(!cache.contains(&CacheKey::new("Regions", "voxels", Layout::Values)));

    let (v2, s2) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
    assert_eq!(v2, oracle);
    assert!(s2.served_from_cache, "{s2:?}");
    assert_eq!(s2.raw_columns, 0, "{s2:?}");
    assert_eq!(s2.unnest_pipelines, 1);
}

#[test]
fn nested_fields_feed_the_cost_model() {
    let cat = catalog(64);
    let cache = Arc::new(CacheManager::new(1 << 20));
    let model = Arc::new(CostModel::new());
    let opts = JitOptions::with_cost_model(Arc::clone(&cache), Arc::clone(&model));
    let plan = rewrite(
        &lower(&parse("for { r <- Regions, v <- r.voxels } yield count v").unwrap()).unwrap(),
    );
    let (_, s1) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
    assert_eq!(s1.whole_query_fallbacks, 0, "{s1:?}");
    // The unnest pipeline observed the nested column: it now participates
    // in layout selection like any scalar field.
    let profile = model
        .profile("Regions", "voxels")
        .expect("nested field tracked by the cost model");
    assert_eq!(profile.touches, 1);
    assert!(profile.avg_value_bytes > 0.0);
    // And warm runs are served from whatever layout the model picked.
    let (v2, s2) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
    assert_eq!(v2, run_volcano(&plan, &cat).unwrap());
    assert!(s2.served_from_cache, "{s2:?}");
}

/// `T(id, d, flag)` over 100 rows and `U(id)` over 20. With `bad`, row 3's
/// `flag` is null (the row cannot encode) and row 80's `d` is 0.
fn error_order_catalog(bad: bool) -> MemoryCatalog {
    let cat = MemoryCatalog::new();
    let t: Vec<Value> = (0..100i64)
        .map(|i| {
            let d = match (bad, i) {
                (true, 80) => 0,
                _ => 1 + i % 3,
            };
            let flag = match (bad, i) {
                (true, 3) => Value::Null,
                _ => Value::Bool(i % 2 == 0),
            };
            Value::record([("id", Value::Int(i)), ("d", Value::Int(d)), ("flag", flag)])
        })
        .collect();
    let schema = Schema::from_pairs([("id", Type::Int), ("d", Type::Int), ("flag", Type::Bool)]);
    cat.register_records("T", schema, &t).unwrap();
    let u: Vec<Value> = (0..20i64)
        .map(|i| Value::record([("id", Value::Int(i))]))
        .collect();
    cat.register_records("U", Schema::from_pairs([("id", Type::Int)]), &u)
        .unwrap();
    // `R(id, c, xs)` over 100 rows: with `bad`, row 1's elements overflow
    // a sum and row 60's `c` is false.
    let r: Vec<Value> = (0..100i64)
        .map(|i| {
            let xs = match (bad, i) {
                (true, 1) => vec![Value::Int(i64::MAX), Value::Int(1)],
                _ => (0..i % 3).map(|j| Value::Int(i + j)).collect(),
            };
            let c = Value::Bool(!(bad && i == 60));
            Value::record([("id", Value::Int(i)), ("c", c), ("xs", Value::bag(xs))])
        })
        .collect();
    let schema = Schema::from_pairs([
        ("id", Type::Int),
        ("c", Type::Bool),
        ("xs", Type::bag(Type::Int)),
    ]);
    cat.register_records("R", schema, &r).unwrap();
    cat
}

#[test]
fn the_first_error_in_row_order_wins() {
    // Each plan meets two errors at one worker and in one morsel: one on
    // an early row, raised late in the pipeline, and one on a late row,
    // raised early. The early row's error is the first in row order.
    let cases = [
        // An interpreted scan select (division does not compile) divides
        // by zero on row 80; row 3 cannot encode, so it pairs with every
        // build row through the interpreter, where the join predicate
        // meets its null `flag` in an `or`.
        (
            "for { t <- T, u <- U, t.id / t.d >= 0, \
             t.id = u.id and (t.flag or u.id > 1000) } yield list t.id",
            "execution error: 'or' on non-boolean null",
        ),
        // An interpreted unnest path is no collection on row 60; the sum
        // overflows on row 1's elements.
        (
            "for { r <- R, v <- (if r.c then r.xs else r.id) } yield sum v",
            "execution error: integer overflow in sum",
        ),
    ];
    let opts = JitOptions {
        threads: 1,
        morsel_rows: 1 << 20,
        ..Default::default()
    };
    for (q, expected) in cases {
        let plan = rewrite(&lower(&parse(q).unwrap()).unwrap());
        // Without the bad rows the plan runs in a generated pipeline.
        let good = error_order_catalog(false);
        let (v, stats) = run_jit_with_stats(&plan, &good, &opts).unwrap();
        assert_eq!(v, run_volcano(&plan, &good).unwrap(), "{q}");
        assert_eq!(stats.whole_query_fallbacks, 0, "{q}");
        let bad = error_order_catalog(true);
        let err = run_jit_with_stats(&plan, &bad, &opts).unwrap_err();
        assert_eq!(err.to_string(), expected, "{q}");
    }
}
