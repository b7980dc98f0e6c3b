//! Plan-snapshot regression tests for the cost-based plan optimizer
//! (PR 8): join reordering must put the small relation on the build
//! side, already-optimal plans must pass through untouched, ordered
//! monoids must never be reordered, and selectivity-ordered conjuncts
//! must kick in once the cost model has observed predicate hit rates.
//! On the workload scale, the join-heavy mix on one resident engine must
//! reorder joins and keep every answer equal to the oracle.
//!
//! The "snapshot" surface is deliberately behavioral rather than a plan
//! pretty-print: `ExecStats::{joins_reordered, conjuncts_reordered}`
//! pins *that* the optimizer acted, and the counted `BUILD_SIDE` trace
//! span pins *what* it chose (the build-side cardinality), so a future
//! regression that re-derives the same counters from a worse plan still
//! trips the span assertion.

use std::sync::Arc;
use vida_algebra::{lower, rewrite, Plan};
use vida_cache::CacheManager;
use vida_exec::{run_jit_with_stats, run_volcano, Engine, ExecStats, JitOptions, MemoryCatalog};
use vida_formats::csv::CsvFile;
use vida_formats::json::JsonFile;
use vida_formats::plugin::{CsvPlugin, JsonPlugin};
use vida_lang::parse;
use vida_optimizer::CostModel;
use vida_trace::stage;
use vida_types::{Schema, Type, Value};
use vida_workload::{generate_join_heavy, WorkloadConfig};

/// Dim: 4 rows, Fact: 600 rows (fid = i % 4, every row matches), Fact2:
/// 300 rows (gid = i % 4). A join that builds on Fact instead of Dim is
/// misordered by a factor of 150.
fn catalog() -> MemoryCatalog {
    let cat = MemoryCatalog::new();
    let dims: Vec<Value> = (0..4)
        .map(|i| Value::record([("id", Value::Int(i)), ("kind", Value::Int(i % 2))]))
        .collect();
    cat.register_records(
        "Dim",
        Schema::from_pairs([("id", Type::Int), ("kind", Type::Int)]),
        &dims,
    )
    .unwrap();
    let facts: Vec<Value> = (0..600)
        .map(|i| {
            Value::record([
                ("fid", Value::Int(i % 4)),
                ("v", Value::Int(i)),
                ("tag", Value::Int(7)),
            ])
        })
        .collect();
    cat.register_records(
        "Fact",
        Schema::from_pairs([("fid", Type::Int), ("v", Type::Int), ("tag", Type::Int)]),
        &facts,
    )
    .unwrap();
    let facts2: Vec<Value> = (0..300)
        .map(|i| Value::record([("gid", Value::Int(i % 4)), ("w", Value::Int(i))]))
        .collect();
    cat.register_records(
        "Fact2",
        Schema::from_pairs([("gid", Type::Int), ("w", Type::Int)]),
        &facts2,
    )
    .unwrap();
    cat
}

fn plan_of(q: &str) -> Plan {
    rewrite(&lower(&parse(q).expect("parses")).expect("lowers"))
}

/// Serial traced run so the one counted `BUILD_SIDE` span per join is
/// exactly the build-side materialization (`build_side_tuples`).
fn run(q: &str, cat: &MemoryCatalog) -> (Value, ExecStats) {
    let opts = JitOptions::with_threads(1).with_trace();
    run_jit_with_stats(&plan_of(q), cat, &opts).expect("query runs")
}

/// Total tuples materialized across every build side of the query.
fn build_tuples(stats: &ExecStats) -> u64 {
    stats
        .query_trace()
        .expect("trace recorded")
        .stage_totals()
        .iter()
        .find(|t| t.stage == stage::BUILD_SIDE)
        .map(|t| t.tuples)
        .unwrap_or(0)
}

#[test]
fn misordered_two_way_join_builds_on_the_small_side() {
    // Syntactically the 600-row Fact is the build (right) side.
    let q = "for { d <- Dim, f <- Fact, d.id = f.fid } yield sum f.v";
    let cat = catalog();
    let oracle = run_volcano(&plan_of(q), &cat).unwrap();

    let (on_val, on) = run(q, &cat);
    assert_eq!(on_val, oracle, "reordered join diverged from volcano");
    assert_eq!(on.whole_query_fallbacks, 0);
    assert_eq!(
        on.joins_reordered, 2,
        "both relations move when the pair swaps"
    );
    assert_eq!(build_tuples(&on), 4, "optimized plan builds on Dim");
    assert!(on.estimated_rows > 0, "reordered plans carry an estimate");
}

#[test]
fn misordered_three_way_join_is_reordered() {
    // Worst syntactic order: the blind left-deep plan builds on Fact
    // (600 rows) and then Dim (4); greedy joins Fact⋈Dim first, shrinking
    // the build footprint to Dim (4) + Fact2 (300).
    const BLIND_BUILD_TUPLES: u64 = 600 + 4;
    let q = "for { g <- Fact2, f <- Fact, d <- Dim, f.fid = g.gid, f.fid = d.id } \
             yield sum f.v";
    let cat = catalog();
    let oracle = run_volcano(&plan_of(q), &cat).unwrap();

    let (on_val, on) = run(q, &cat);
    assert_eq!(on_val, oracle, "reordered 3-way join diverged from volcano");
    assert_eq!(on.whole_query_fallbacks, 0);
    assert!(
        on.joins_reordered >= 1,
        "3-way misordered join was left alone"
    );
    assert!(
        build_tuples(&on) < BLIND_BUILD_TUPLES,
        "reordering must shrink the total build-side footprint \
         (got {} vs blind {BLIND_BUILD_TUPLES})",
        build_tuples(&on)
    );
}

#[test]
fn already_optimal_join_is_left_untouched() {
    // Dim is already on the build side: the greedy search arrives at the
    // identity order and the counters must stay zero.
    let q = "for { f <- Fact, d <- Dim, f.fid = d.id } yield sum f.v";
    let cat = catalog();
    let oracle = run_volcano(&plan_of(q), &cat).unwrap();
    let (val, stats) = run(q, &cat);
    assert_eq!(val, oracle);
    assert_eq!(stats.joins_reordered, 0);
    assert_eq!(stats.whole_query_fallbacks, 0);
    assert_eq!(build_tuples(&stats), 4);
}

#[test]
fn ordered_monoids_keep_the_syntactic_join_order() {
    // Bag output observes tuple order, so even a badly misordered join
    // must keep Fact on the build side.
    let q = "for { d <- Dim, f <- Fact, d.id = f.fid } \
             yield bag (id := d.id, v := f.v)";
    let cat = catalog();
    let oracle = run_volcano(&plan_of(q), &cat).unwrap();
    let (val, stats) = run(q, &cat);
    assert_eq!(val, oracle, "ordered output diverged from volcano");
    assert_eq!(stats.joins_reordered, 0, "bag monoid must not be reordered");
    assert_eq!(
        build_tuples(&stats),
        600,
        "the optimizer changed the build side of an ordered query"
    );
}

#[test]
fn observed_selectivities_reorder_fused_conjuncts() {
    // Syntactic and heuristic order agree on the first run (the equality
    // defaults to selectivity 0.1 and already sits first), so nothing
    // moves. The sampled counters then reveal that `f.tag = 7` passes
    // every row while `f.v < 8` passes almost none — the second run must
    // flip the chain to test the range first.
    let q = "for { f <- Fact, f.tag = 7, f.v < 8 } yield count f";
    let cat = catalog();
    let oracle = run_volcano(&plan_of(q), &cat).unwrap();
    let model = Arc::new(CostModel::new());
    let opts = JitOptions {
        threads: 1,
        cost_model: Some(Arc::clone(&model)),
        ..JitOptions::default()
    };

    let (first_val, first) = run_jit_with_stats(&plan_of(q), &cat, &opts).unwrap();
    assert_eq!(first_val, oracle);
    assert_eq!(
        first.conjuncts_reordered, 0,
        "no observations yet: syntactic order must hold"
    );
    assert!(
        model.sketch().predicates_tracked() >= 2,
        "the build must have sampled both scan conjuncts"
    );

    let (second_val, second) = run_jit_with_stats(&plan_of(q), &cat, &opts).unwrap();
    assert_eq!(second_val, oracle, "conjunct reorder changed the result");
    assert_eq!(
        second.conjuncts_reordered, 2,
        "observed selectivities must move the range test first"
    );
}

#[test]
fn predicate_history_is_kept_per_dataset() {
    // `A` and `B` share the predicate text but not its pass rates: `t.x > 5`
    // passes every row of `A` and no row of `B`. A's history must not steer
    // B's conjunct order: B's second run ranks from B's own counters, as it
    // would under a model that never saw `A`.
    let cat = MemoryCatalog::new();
    for (name, x) in [("A", 10), ("B", 0)] {
        let rows: Vec<Value> = (0..64)
            .map(|i| Value::record([("x", Value::Int(x)), ("y", Value::Int(3 + i % 2))]))
            .collect();
        cat.register_records(
            name,
            Schema::from_pairs([("x", Type::Int), ("y", Type::Int)]),
            &rows,
        )
        .unwrap();
    }
    let q = |d: &str| {
        plan_of(&format!(
            "for {{ t <- {d}, t.y = 3, t.x > 5 }} yield count t"
        ))
    };
    for saw_a in [false, true] {
        let opts = JitOptions {
            threads: 1,
            cost_model: Some(Arc::new(CostModel::new())),
            ..JitOptions::default()
        };
        if saw_a {
            run_jit_with_stats(&q("A"), &cat, &opts).unwrap();
        }
        run_jit_with_stats(&q("B"), &cat, &opts).unwrap();
        let (v, stats) = run_jit_with_stats(&q("B"), &cat, &opts).unwrap();
        assert_eq!(v, Value::Int(0));
        assert_eq!(stats.conjuncts_reordered, 2, "saw A: {saw_a}");
    }
}

/// HBP-shaped raw inputs for the join-heavy mix: `Patients` CSV (500
/// rows), `Genetics` (500) and `Regions` (250) newline-delimited JSON.
fn hbp_catalog() -> MemoryCatalog {
    let cat = MemoryCatalog::new();
    let cities = ["geneva", "bern", "zurich", "basel"];
    let mut csv = String::from("id,age,city\n");
    for i in 0..500 {
        csv.push_str(&format!("{i},{},{}\n", 18 + (i * 7) % 70, cities[i % 4]));
    }
    let patients = CsvFile::from_bytes(
        "Patients",
        csv.into_bytes(),
        b',',
        true,
        Schema::from_pairs([("id", Type::Int), ("age", Type::Int), ("city", Type::Str)]),
    )
    .unwrap();
    cat.register(Arc::new(CsvPlugin::new(patients)));
    let genetics: String = (0..500)
        .map(|i| format!("{{\"id\":{i},\"snp\":{}}}\n", (i % 64) as f64 / 64.0))
        .collect();
    let genetics = JsonFile::from_bytes(
        "Genetics",
        genetics.into_bytes(),
        Schema::from_pairs([("id", Type::Int), ("snp", Type::Float)]),
    )
    .unwrap();
    cat.register(Arc::new(JsonPlugin::new(genetics)));
    let regions: String = (0..250).map(|i| format!("{{\"id\":{i}}}\n")).collect();
    let regions = JsonFile::from_bytes(
        "Regions",
        regions.into_bytes(),
        Schema::from_pairs([("id", Type::Int)]),
    )
    .unwrap();
    cat.register(Arc::new(JsonPlugin::new(regions)));
    cat
}

#[test]
fn join_heavy_mix_is_reordered_on_a_resident_engine() {
    // The mix writes its equi-join chains in deliberately bad syntactic
    // order. One resident engine with a cache runs all of it: every answer
    // matches the oracle, some joins move, and the optimizer's estimates
    // stay comparable with what ran.
    let cat = Arc::new(hbp_catalog());
    let queries = generate_join_heavy(&WorkloadConfig {
        queries: 40,
        ..Default::default()
    });
    let engine = Engine::new(
        cat.clone(),
        JitOptions::with_cache(Arc::new(CacheManager::new(8 << 20))),
    );
    let mut session = engine.session();
    for q in &queries {
        let plan = plan_of(&q.text);
        let oracle = run_volcano(&plan, &*cat).unwrap_or_else(|e| panic!("{}: {e}", q.text));
        let (v, stats) = session
            .execute_with_stats(&plan)
            .unwrap_or_else(|e| panic!("{}: {e}", q.text));
        assert_eq!(v, oracle, "jit deviates for {}", q.text);
        assert_eq!(stats.whole_query_fallbacks, 0, "{}", q.text);
    }
    let total = session.stats();
    assert!(total.joins_reordered >= 1, "no join reordered: {total:?}");
    assert!(
        total.cardinality_error().is_finite(),
        "cardinality error {} over {total:?}",
        total.cardinality_error()
    );
}
