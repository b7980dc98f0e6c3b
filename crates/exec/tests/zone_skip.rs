//! Block skipping on cached `Int` replicas: a scan whose leading selects
//! compare a column with an int literal skips every chunk whose blocks'
//! min/max refute one of them. The skip must be invisible in the answer:
//! a cached engine's second run (the one the block summaries serve) must
//! equal the interpreter and a cacheless engine — result, error and row
//! order — for every key layout, every comparison at the block edges, and
//! every worker count and morsel size; and the rows it skipped are pinned.

use std::sync::Arc;
use vida_algebra::{lower, rewrite, Plan};
use vida_cache::CacheManager;
use vida_exec::{run_volcano, Engine, ExecStats, JitOptions, MemoryCatalog};
use vida_lang::parse;
use vida_types::{Result, Schema, Type, Value};

const ROWS: i64 = 2600;

/// `T(k, v)` over `ROWS` rows: `k` is laid out by `layout`, null on every
/// 37th row; `v` is the row number.
fn table(layout: &str) -> Arc<MemoryCatalog> {
    let key = |i: i64| match layout {
        "ascending" => Value::Int(i),
        "descending" => Value::Int(ROWS - 1 - i),
        "shuffled" => Value::Int(i * 1031 % ROWS),
        // Clustered in row order, with a far outlier in the second block
        // and a string cell in the third (which is then never skipped).
        "outliers" => match i {
            1500 => Value::Int(1_000_000),
            2100 => Value::str("x"),
            i => Value::Int(i),
        },
        _ => unreachable!("unknown layout {layout}"),
    };
    let rows: Vec<Value> = (0..ROWS)
        .map(|i| {
            let k = if i % 37 == 36 { Value::Null } else { key(i) };
            Value::record([("k", k), ("v", Value::Int(i))])
        })
        .collect();
    let cat = MemoryCatalog::new();
    let schema = Schema::from_pairs([("k", Type::Int), ("v", Type::Int)]);
    cat.register_records("T", schema, &rows).unwrap();
    Arc::new(cat)
}

fn plan_of(q: &str) -> Plan {
    rewrite(&lower(&parse(q).expect("parses")).expect("lowers"))
}

/// The queries of the sweep: every op at literals on the block edges and
/// past the largest key, the literal on the left once per op, a two-sided
/// range, under an order-sensitive head and two folds.
fn queries() -> Vec<String> {
    let max = ROWS - 1;
    let ops = ["<", "<=", ">", ">=", "="];
    let mut qs = Vec::new();
    for (i, lit) in [0, 1023, 1024, 1025, max, max + 1].into_iter().enumerate() {
        for op in ops {
            qs.push(format!("for {{ t <- T, t.k {op} {lit} }} yield sum t.v"));
        }
        let op = ops[i % ops.len()];
        qs.push(format!("for {{ t <- T, {lit} {op} t.k }} yield list t.v"));
    }
    qs.push("for { t <- T, t.k >= 1000, t.k < 1100 } yield list t.v".into());
    qs.push("for { t <- T, t.k >= 2048, t.k < 2100 } yield count t".into());
    qs
}

fn opts(threads: usize, morsel_rows: usize, cache: bool) -> JitOptions {
    JitOptions {
        threads,
        morsel_rows,
        cache: cache.then(|| Arc::new(CacheManager::new(64 << 20))),
        ..JitOptions::default()
    }
}

/// Run `plan` twice on one cached engine — the first run parses and
/// caches, the second is served by the replicas and their summaries —
/// and return the second.
fn warm(cat: &Arc<MemoryCatalog>, plan: &Plan, opts: JitOptions) -> Result<(Value, ExecStats)> {
    let engine = Engine::new(Arc::clone(cat) as _, opts);
    let mut session = engine.session();
    let _ = session.execute_with_stats(plan);
    session.execute_with_stats(plan)
}

#[test]
fn warm_skipping_runs_equal_the_interpreter_and_a_cacheless_run() {
    for layout in ["ascending", "descending", "shuffled", "outliers"] {
        let cat = table(layout);
        let mut skipped = 0;
        for q in queries() {
            let plan = plan_of(&q);
            let want = run_volcano(&plan, cat.as_ref()).expect("volcano runs");
            for morsel_rows in [1, 64, 1000, 0] {
                let mut counts = Vec::new();
                for threads in [1, 2, 8] {
                    let ctx = format!("{layout} {q} threads={threads} morsel_rows={morsel_rows}");
                    let (got, stats) = warm(&cat, &plan, opts(threads, morsel_rows, true))
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    assert_eq!(got, want, "{ctx}: warm");
                    assert!(stats.served_from_cache, "{ctx}");
                    let engine =
                        Engine::new(Arc::clone(&cat) as _, opts(threads, morsel_rows, false));
                    let (cold, cold_stats) = engine.execute_with_stats(&plan).unwrap();
                    assert_eq!(cold, want, "{ctx}: cacheless");
                    assert_eq!(cold_stats.rows_skipped, 0, "{ctx}: uncached");
                    counts.push(stats.rows_skipped);
                }
                // The skip depends on the morsel grid, never on the workers.
                assert!(
                    counts.windows(2).all(|w| w[0] == w[1]),
                    "{layout} {q}: {counts:?}"
                );
                skipped += counts[0];
            }
        }
        assert!(skipped > 0, "{layout}: nothing skipped");
    }
}

#[test]
fn blocks_with_outliers_or_strings_are_kept() {
    let cat = table("outliers");
    let rows = |q: &str| {
        let plan = plan_of(q);
        let (got, stats) = warm(&cat, &plan, opts(1, 0, true)).unwrap();
        assert_eq!(got, run_volcano(&plan, cat.as_ref()).unwrap(), "{q}");
        stats.rows_skipped
    };
    // `k < 100` keeps block 0 and refutes block 1 (1024..2047, outlier
    // 1_000_000 included); block 2 holds the string cell, so it stays.
    assert_eq!(rows("for { t <- T, t.k < 100 } yield sum t.v"), 1024);
    // `k = 1000000` finds the outlier in block 1: block 0 alone is refuted.
    assert_eq!(rows("for { t <- T, t.k = 1000000 } yield count t"), 1024);
    // `k > 3000` holds on block 1's outlier; block 0 is refuted.
    assert_eq!(rows("for { t <- T, t.k > 3000 } yield list t.v"), 1024);
}

/// A select on a nested path never borrows the summary of a top-level
/// column with the same field name: `t.r.k` is 5,000 on every row, while
/// the top-level `t.k` (`0..ROWS`) would refute `> 3000` on every block.
#[test]
fn a_nested_path_never_uses_a_top_level_summary() {
    let rows: Vec<Value> = (0..ROWS)
        .map(|i| {
            let r = Value::record([("k", Value::Int(5_000))]);
            Value::record([("k", Value::Int(i)), ("r", r)])
        })
        .collect();
    let cat = MemoryCatalog::new();
    let nested = Type::record([("k", Type::Int)]);
    let schema = Schema::from_pairs([("k", Type::Int), ("r", nested)]);
    cat.register_records("N", schema, &rows).unwrap();
    let cat = Arc::new(cat);
    let plan = plan_of("for { t <- N, t.r.k > 3000 } yield sum t.k");
    let want = run_volcano(&plan, cat.as_ref()).unwrap();
    assert_eq!(want, Value::Int(ROWS * (ROWS - 1) / 2));
    for threads in [1, 2] {
        let (got, stats) = warm(&cat, &plan, opts(threads, 0, true)).unwrap();
        assert_eq!((got, stats.rows_skipped), (want.clone(), 0));
    }
}

/// 20k ascending ids, the table of the error-order and skip-count tests.
fn ids() -> Arc<MemoryCatalog> {
    let rows: Vec<Value> = (0..20_000)
        .map(|i| Value::record([("id", Value::Int(i))]))
        .collect();
    let cat = MemoryCatalog::new();
    cat.register_records("P", Schema::from_pairs([("id", Type::Int)]), &rows)
        .unwrap();
    Arc::new(cat)
}

#[test]
fn a_refuted_block_never_reaches_a_step_that_could_error() {
    let cat = ids();
    let ok = plan_of("for { p <- P, p.id < 10, 1 / (p.id - 5000) > 0 } yield sum p.id");
    let err = plan_of("for { p <- P, 1 / (p.id - 5000) > 0, p.id < 10 } yield sum p.id");
    for threads in [1, 2, 8] {
        for morsel_rows in [1, 64, 1000, 0] {
            let o = opts(threads, morsel_rows, true);
            let want = run_volcano(&ok, cat.as_ref()).unwrap();
            let (got, stats) = warm(&cat, &ok, o.clone()).unwrap();
            assert_eq!(got, want);
            assert_eq!(got, Value::Int(0), "ids 0..10 all fail 1 / (id - 5000) > 0");
            assert!(stats.rows_skipped > 0);
            let want = run_volcano(&err, cat.as_ref()).unwrap_err();
            let got = warm(&cat, &err, o).unwrap_err();
            assert_eq!(got.to_string(), want.to_string());
            assert!(got.to_string().contains("division by zero"), "{got}");
        }
    }
}

#[test]
fn skip_count_is_pinned() {
    let cat = ids();
    let plan = plan_of("for { p <- P, p.id < 100 } yield count p");
    for threads in [1, 2, 8] {
        let mut o = opts(threads, 0, true);
        o.trace = true;
        let (got, stats) = warm(&cat, &plan, o).unwrap();
        assert_eq!(got, Value::Int(100));
        // Every chunk past the first: 20,000 - 1,024 rows.
        assert_eq!(stats.rows_skipped, 18_976);
        let text = stats.query_trace().unwrap().explain_analyze();
        assert!(
            text.contains("block skip p <- P: (p.id < 100) refuted 18976 of 20000 rows"),
            "{text}"
        );
    }
    // Uncached, nothing is summarized and the decision line says so.
    let mut o = opts(1, 0, false);
    o.trace = true;
    let engine = Engine::new(Arc::clone(&cat) as _, o);
    let (_, stats) = engine.execute_with_stats(&plan).unwrap();
    assert_eq!(stats.rows_skipped, 0);
    let text = stats.query_trace().unwrap().explain_analyze();
    assert!(text.contains("block skip p <- P: no leading"), "{text}");
}

#[test]
fn join_build_sides_skip_too() {
    let cat = ids();
    let plan = plan_of("for { a <- P, b <- P, b.id < 50, a.id = b.id } yield count a");
    for threads in [1, 2, 8] {
        for morsel_rows in [1, 64, 0] {
            let (got, stats) = warm(&cat, &plan, opts(threads, morsel_rows, true)).unwrap();
            assert_eq!(got, run_volcano(&plan, cat.as_ref()).unwrap());
            assert_eq!(got, Value::Int(50));
            assert!(
                stats.rows_skipped > 0,
                "threads={threads} morsel_rows={morsel_rows}"
            );
        }
    }
}
