//! The hash-join build over more than 1,024 rows, with duplicate keys and
//! null keys: every bucket must list its rows in build order and the null
//! rows must interleave with them in that order, at every worker count and
//! morsel size, so `list` heads and float sums equal the plan interpreter.
//! A warm one-join query attaches to the worker pool exactly twice: once
//! for the build-side scan and once for the drive.
//!
//! One test in this binary: the pool counters are process-wide.

use std::sync::Arc;
use vida_algebra::{lower, rewrite, Plan};
use vida_cache::CacheManager;
use vida_exec::{run_jit_with_stats, run_volcano, Engine, JitOptions, MemoryCatalog};
use vida_lang::parse;
use vida_trace::global_metrics;
use vida_types::{Schema, Type, Value};

const BUILD_ROWS: usize = 1100;
const PROBE_ROWS: usize = 1200;
const KEYS: i64 = 100;

/// `L` (probe side, no nulls) and `R` (build side): `R.k` repeats every
/// `KEYS` rows and is null on every 20th row; `R.v` is dyadic, so every
/// association of a sum gives the same bits.
fn catalog() -> MemoryCatalog {
    let cat = MemoryCatalog::new();
    let left: Vec<Value> = (0..PROBE_ROWS as i64)
        .map(|i| Value::record([("id", Value::Int(i * 7 % (KEYS + 50)))]))
        .collect();
    cat.register_records("L", Schema::from_pairs([("id", Type::Int)]), &left)
        .unwrap();
    let right: Vec<Value> = (0..BUILD_ROWS)
        .map(|i| {
            let k = match i % 20 == 7 {
                true => Value::Null,
                false => Value::Int((i as i64 * 13) % KEYS),
            };
            let v = Value::Float((i % 64) as f64 / 8.0);
            Value::record([("k", k), ("v", v)])
        })
        .collect();
    let schema = Schema::from_pairs([("k", Type::Int), ("v", Type::Float)]);
    cat.register_records("R", schema, &right).unwrap();
    cat
}

fn plan_of(q: &str) -> Plan {
    rewrite(&lower(&parse(q).unwrap()).expect("lowers"))
}

#[test]
fn large_hash_builds_keep_build_order_and_attach_twice() {
    let cat = catalog();
    for q in [
        "for { l <- L, r <- R, l.id = r.k } yield list r.v",
        "for { l <- L, r <- R, l.id = r.k } yield sum r.v",
        "for { l <- L, r <- R, l.id = r.k } yield count r",
    ] {
        let plan = plan_of(q);
        let oracle = run_volcano(&plan, &cat).unwrap();
        for threads in [1usize, 2, 8] {
            for morsel_rows in [64, JitOptions::default().morsel_rows] {
                let opts = JitOptions {
                    threads,
                    morsel_rows,
                    ..Default::default()
                };
                let (v, stats) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
                assert_eq!(
                    v, oracle,
                    "threads={threads} morsel_rows={morsel_rows}: {q}"
                );
                assert_eq!(stats.whole_query_fallbacks, 0, "{q}: {stats:?}");
                assert_eq!(stats.joins_reordered, 0, "R stays the build side: {q}");
            }
        }
    }

    // Warm: the second run of the same one-join query on a 2-worker engine.
    let cache = Arc::new(CacheManager::new(1 << 24));
    let engine = Engine::new(
        Arc::new(cat),
        JitOptions {
            threads: 2,
            ..JitOptions::with_cache(cache)
        },
    );
    let plan = plan_of("for { l <- L, r <- R, l.id = r.k } yield count r");
    engine.execute(&plan).unwrap();
    let before = global_metrics().snapshot();
    engine.execute(&plan).unwrap();
    let runs = global_metrics().snapshot().since(&before).pool_runs;
    assert_eq!(
        runs, 2,
        "a warm one-join query attaches the build scan and the drive"
    );
}
