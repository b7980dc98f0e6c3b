//! The batch hash-join probe: a primitive fold over a hash join whose left
//! input is a scan runs a vector at a time (key vector, bucket lookups,
//! pair vectors, refined pair selection, head kernel, typed fold). Every
//! answer must equal the plan interpreter's at every worker count and
//! morsel size, with duplicate and null keys on both sides — so left rows
//! that cannot encode and loose build rows take the row probe, interleaved
//! in pair order — and mixed int/float keys. `vector_probe_pipelines`
//! tells which shapes ran the batch probe, and the per-kernel trace hits
//! are the row probe's: one per valid left row for the left key, one per
//! valid build row for the right key, one per valid pair for the join
//! predicate, and one per pair a kernel receives after it — as is the
//! number of tuples the interpreter evaluates.

use std::sync::Arc;
use vida_algebra::{lower, rewrite, Plan};
use vida_exec::{run_volcano, Engine, ExecStats, JitOptions, MemoryCatalog};
use vida_lang::parse;
use vida_types::{Schema, Type, Value};

const LEFT_ROWS: i64 = 600;
const RIGHT_ROWS: i64 = 200;

/// `L.id`, or `None` (null) on every 11th row: keys `0..70` repeat, so
/// most left rows meet several build rows and some meet none.
fn left_id(i: i64) -> Option<i64> {
    (i % 11 != 4).then_some(i * 7 % 70)
}

/// `R.k`, or `None` (null) on every 13th row: keys `0..60` repeat.
fn right_k(i: i64) -> Option<i64> {
    (i % 13 != 5).then_some(i * 17 % 60)
}

/// `L(id, x, f, fk)` and `R(k, v, w)`. `f` and `v` are dyadic, so every
/// association of a float sum gives the same bits; `fk` is `id` as a
/// float, for joins that compare keys across the numeric tower.
fn catalog() -> Arc<MemoryCatalog> {
    let cat = MemoryCatalog::new();
    let left: Vec<Value> = (0..LEFT_ROWS)
        .map(|i| {
            let id = left_id(i).map_or(Value::Null, Value::Int);
            let fk = left_id(i).map_or(Value::Null, |k| Value::Float(k as f64));
            Value::record([
                ("id", id),
                ("x", Value::Int(i % 9)),
                ("f", Value::Float((i % 16) as f64 / 4.0)),
                ("fk", fk),
            ])
        })
        .collect();
    let schema = Schema::from_pairs([
        ("id", Type::Int),
        ("x", Type::Int),
        ("f", Type::Float),
        ("fk", Type::Float),
    ]);
    cat.register_records("L", schema, &left).unwrap();
    let right: Vec<Value> = (0..RIGHT_ROWS)
        .map(|i| {
            let k = right_k(i).map_or(Value::Null, Value::Int);
            Value::record([
                ("k", k),
                ("v", Value::Float((i % 8) as f64 / 2.0)),
                ("w", Value::Int(i % 23 - 5)),
            ])
        })
        .collect();
    let schema = Schema::from_pairs([("k", Type::Int), ("v", Type::Float), ("w", Type::Int)]);
    cat.register_records("R", schema, &right).unwrap();
    Arc::new(cat)
}

/// The plan of `q`, with the select `above` (if any) between the join and
/// the fold: selection pushdown merges every comprehension condition over
/// both sides into the join predicate, so a select above a join comes
/// only from a plan built directly.
fn plan_of(q: &str, above: Option<&str>) -> Plan {
    let plan = rewrite(&lower(&parse(q).expect("parses")).expect("lowers"));
    let (
        Some(above),
        Plan::Reduce {
            input,
            monoid,
            head,
        },
    ) = (above, &plan)
    else {
        return plan;
    };
    Plan::Reduce {
        input: Box::new(Plan::Select {
            input: input.clone(),
            predicate: parse(above).expect("parses"),
        }),
        monoid: *monoid,
        head: head.clone(),
    }
}

/// Run `plan` on a fresh engine with `threads` workers and `morsel_rows`,
/// traced.
fn run(
    cat: &Arc<MemoryCatalog>,
    plan: &Plan,
    threads: usize,
    morsel_rows: usize,
) -> (Value, ExecStats) {
    let opts = JitOptions {
        threads,
        morsel_rows,
        ..JitOptions::default()
    };
    let engine = Engine::new(Arc::clone(cat) as _, opts);
    let mut session = engine.session();
    session.options_mut().trace = true;
    session.execute_with_stats(plan).expect("query runs")
}

/// (query, a select above the join, whether the fold runs the batch probe)
const QUERIES: [(&str, Option<&str>, bool); 15] = [
    // Int and float sums over a right-side slot, `count`, `avg`, `max`.
    (
        "for { l <- L, r <- R, l.id = r.k } yield sum r.w",
        None,
        true,
    ),
    (
        "for { l <- L, r <- R, l.id = r.k } yield sum r.v",
        None,
        true,
    ),
    (
        "for { l <- L, r <- R, l.id = r.k } yield count l",
        None,
        true,
    ),
    (
        "for { l <- L, r <- R, l.id = r.k } yield avg l.f",
        None,
        true,
    ),
    (
        "for { l <- L, r <- R, l.id = r.k } yield max (r.w + l.x)",
        None,
        true,
    ),
    // A boolean head under `any`.
    (
        "for { l <- L, r <- R, l.id = r.k } yield any r.v > 3.0",
        None,
        true,
    ),
    // A fused left select; a condition over both sides, which joins the
    // predicate; a compiled select above the join.
    (
        "for { l <- L, r <- R, l.id = r.k, l.x > 3 } yield sum r.v",
        None,
        true,
    ),
    (
        "for { l <- L, r <- R, l.id = r.k, r.w + l.x > 6 } yield sum l.f",
        None,
        true,
    ),
    (
        "for { l <- L, r <- R, l.id = r.k } yield sum l.f",
        Some("r.w + l.x > 6"),
        true,
    ),
    // Mixed int/float keys: the int side promotes to float bits.
    (
        "for { l <- L, r <- R, l.fk = r.k } yield sum r.w",
        None,
        true,
    ),
    // A band join probed by a scan runs the batch probe too
    // (`theta_batch.rs` covers theta joins).
    (
        "for { l <- L, r <- R, l.id < r.k } yield count l",
        None,
        true,
    ),
    // Row probe: an interpreted left select (division does not compile),
    // an interpreted select above the join, a collection head and an
    // interpreted head.
    (
        "for { l <- L, r <- R, l.id = r.k, l.x / 2 > 1 } yield sum r.w",
        None,
        false,
    ),
    (
        "for { l <- L, r <- R, l.id = r.k } yield sum r.w",
        Some("r.w / 2 > 1"),
        false,
    ),
    (
        "for { l <- L, r <- R, l.id = r.k } yield list r.v",
        None,
        false,
    ),
    (
        "for { l <- L, r <- R, l.id = r.k } yield sum (r.w / 2)",
        None,
        false,
    ),
];

#[test]
fn batch_probe_agrees_with_the_interpreter_everywhere() {
    let cat = catalog();
    let default_rows = JitOptions::default().morsel_rows;
    for (q, above, vector) in QUERIES {
        let plan = plan_of(q, above);
        let oracle = run_volcano(&plan, cat.as_ref()).unwrap();
        let mut first: Option<(Vec<u64>, u64)> = None;
        for threads in [1usize, 2, 8] {
            for morsel_rows in [1, 64, default_rows] {
                let (v, stats) = run(&cat, &plan, threads, morsel_rows);
                let at = format!(
                    "{q} (above: {above:?}) at threads={threads} morsel_rows={morsel_rows}"
                );
                assert_eq!(v, oracle, "{at}");
                assert_eq!(stats.whole_query_fallbacks, 0, "{at}");
                assert_eq!(stats.joins_reordered, 0, "L stays the probe side: {at}");
                assert_eq!(stats.vector_probe_pipelines, vector as u32, "{at}");
                // Trace hits and fallbacks do not depend on the grid.
                let hits = stats.query_trace().unwrap().kernel_invocations().to_vec();
                let seen = first.get_or_insert((hits.clone(), stats.fallback_tuples));
                assert_eq!(*seen, (hits, stats.fallback_tuples), "{at}");
            }
        }
    }
}

#[test]
fn batch_probe_credits_each_kernel_with_the_rows_it_received() {
    // Kernels compile in this order: the join predicate, the left key, the
    // right key, a select above the join, then the head. Null keys make
    // left rows and build rows invalid, which no kernel sees.
    let cat = catalog();
    let valid_left: Vec<i64> = (0..LEFT_ROWS).filter_map(left_id).collect();
    let valid_right: Vec<i64> = (0..RIGHT_ROWS).filter_map(right_k).collect();
    let pairs = valid_left
        .iter()
        .map(|&id| valid_right.iter().filter(|&&k| k == id).count() as u64)
        .sum::<u64>();
    let plan = plan_of("for { l <- L, r <- R, l.id = r.k } yield sum r.w", None);
    let (_, stats) = run(&cat, &plan, 2, 64);
    assert_eq!(stats.vector_probe_pipelines, 1);
    let hits = stats.query_trace().unwrap().kernel_invocations().to_vec();
    let (nl, nr) = (valid_left.len() as u64, valid_right.len() as u64);
    assert_eq!(hits, [pairs, nl, nr, pairs], "predicate, keys, head");
    // The interpreter sees what the row probe sends it: each valid left
    // row against each null-keyed build row (the predicate fails), and
    // each null-keyed left row against every build row (the predicate,
    // then the head where null meets null).
    let (null_left, null_right) = (LEFT_ROWS as u64 - nl, RIGHT_ROWS as u64 - nr);
    let interpreted = nl * null_right + null_left * (RIGHT_ROWS as u64 + null_right);
    assert_eq!(stats.fallback_tuples, interpreted, "fallback tuples");

    // Each kernel after the predicate runs on the pairs the ones before it
    // kept: a condition over both sides joins the predicate, and the head
    // sees the pairs it keeps; a select above the join (compiled after the
    // keys) sees every pair the predicate kept.
    let kept = (0..LEFT_ROWS)
        .filter_map(|i| Some((left_id(i)?, i % 9)))
        .map(|(id, x)| {
            (0..RIGHT_ROWS)
                .filter(|&i| right_k(i) == Some(id) && i % 23 - 5 + x > 6)
                .count() as u64
        })
        .sum::<u64>();
    assert!(0 < kept && kept < pairs);
    let q = "for { l <- L, r <- R, l.id = r.k, r.w + l.x > 6 } yield sum l.f";
    let (_, stats) = run(&cat, &plan_of(q, None), 1, 0);
    let hits = stats.query_trace().unwrap().kernel_invocations().to_vec();
    assert_eq!(hits, [pairs, nl, nr, kept], "{q}");
    let q = "for { l <- L, r <- R, l.id = r.k } yield sum l.f";
    let (_, stats) = run(&cat, &plan_of(q, Some("r.w + l.x > 6")), 8, 1);
    let hits = stats.query_trace().unwrap().kernel_invocations().to_vec();
    assert_eq!(hits, [pairs, nl, nr, pairs, kept], "{q} under a select");
}
