//! The batch hash-join probe: every join of the chunk pipeline runs a
//! chunk at a time (key vector, bucket lookups, pair vectors, refined pair
//! selection), whatever sits on its left — a scan, an unnest or another
//! join — and under any head. Every answer must equal the plan
//! interpreter's at every worker count and morsel size, with duplicate and
//! null keys on both sides — so left rows that cannot encode and loose
//! build rows pair through the interpreter, in pair order — and mixed
//! int/float keys. The per-kernel trace hits are the row probe's: one per
//! valid left row for the left key, one per valid build row for the right
//! key, one per valid pair for the join predicate, and one per pair a
//! kernel receives after it — as are the tuples the interpreter evaluates
//! and the rows that reach the fold, pinned per plan.

mod common;

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

/// `L(id, x, f, fk)`, `R(k, v, w)` and `N(id, xs)` (see
/// [`common::register_nested_ints`]). `f`
/// and `v` are dyadic, so every association of a float sum gives the same
/// bits; `fk` is `id` as a float, for joins that compare keys across the
/// numeric tower.
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
    common::register_nested_ints(&cat);
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

/// What a plan did, as the tuple-at-a-time row probe that preceded the
/// chunk pipeline counted it: the per-kernel trace hits, the tuples the
/// interpreter evaluated (`fallback_tuples`) and the rows that reached the
/// fold (`actual_rows`).
type Counters = (&'static [u64], u64, u64);

/// (query, a select above the join, its counters)
const QUERIES: [(&str, Option<&str>, Counters); 22] = [
    // Int and float sums over a right-side slot, `count`, `avg`, `max`.
    (
        "for { l <- L, r <- R, l.id = r.k } yield sum r.w",
        None,
        (&[1580, 545, 185, 1580], 20000, 2405),
    ),
    (
        "for { l <- L, r <- R, l.id = r.k } yield sum r.v",
        None,
        (&[1580, 545, 185, 1580], 20000, 2405),
    ),
    (
        "for { l <- L, r <- R, l.id = r.k } yield count l",
        None,
        (&[1580, 545, 185], 19175, 2405),
    ),
    (
        "for { l <- L, r <- R, l.id = r.k } yield avg l.f",
        None,
        (&[1580, 545, 185, 1580], 20000, 2405),
    ),
    (
        "for { l <- L, r <- R, l.id = r.k } yield max (r.w + l.x)",
        None,
        (&[1580, 545, 185, 1580], 20000, 2405),
    ),
    // A boolean head under `any`.
    (
        "for { l <- L, r <- R, l.id = r.k } yield any r.v > 3.0",
        None,
        (&[1580, 545, 185, 1580], 20000, 2405),
    ),
    // A fused left select; a condition over both sides, which joins the
    // predicate; a compiled select above the join.
    (
        "for { l <- L, r <- R, l.id = r.k, l.x > 3 } yield sum r.v",
        None,
        (&[545, 875, 301, 185, 875], 11235, 1340),
    ),
    (
        "for { l <- L, r <- R, l.id = r.k, r.w + l.x > 6 } yield sum l.f",
        None,
        (&[1580, 545, 185, 986], 19670, 1481),
    ),
    (
        "for { l <- L, r <- R, l.id = r.k } yield sum l.f",
        Some("r.w + l.x > 6"),
        (&[1580, 545, 185, 1580, 986], 20495, 1481),
    ),
    // Mixed int/float keys: the int side promotes to float bits.
    (
        "for { l <- L, r <- R, l.fk = r.k } yield sum r.w",
        None,
        (&[1580, 545, 185, 1580], 20000, 2405),
    ),
    // A band join (`theta_batch.rs` covers theta joins).
    (
        "for { l <- L, r <- R, l.id < r.k } yield count l",
        None,
        (&[46766, 545, 185], 19175, 46766),
    ),
    // An interpreted left select (division does not compile), an
    // interpreted select above the join, a collection head and an
    // interpreted head: their compiled steps run by batch, the interpreted
    // ones a row at a time.
    (
        "for { l <- L, r <- R, l.id = r.k, l.x / 2 > 1 } yield sum r.w",
        None,
        (&[875, 301, 185, 875], 11780, 1340),
    ),
    (
        "for { l <- L, r <- R, l.id = r.k } yield sum r.w",
        Some("r.w / 2 > 1"),
        (&[1580, 545, 185, 926], 22020, 1366),
    ),
    (
        "for { l <- L, r <- R, l.id = r.k } yield list r.v",
        None,
        (&[1580, 545, 185, 1580], 20000, 2405),
    ),
    (
        "for { l <- L, r <- R, l.id = r.k } yield sum (r.w / 2)",
        None,
        (&[1580, 545, 185], 21580, 2405),
    ),
    // A 3-way hash chain, under `count` and a collection head.
    (
        "for { l <- L, r <- R, s <- R, l.id = r.k, r.w = s.w } yield count l",
        None,
        (&[1580, 545, 185, 13839, 1580, 200], 184175, 21044),
    ),
    (
        "for { l <- L, r <- R, s <- R, l.id = r.k, r.w = s.w } yield list (s.v + l.f)",
        None,
        (&[1580, 545, 185, 13839, 1580, 200, 13839], 191380, 21044),
    ),
    // An unnest on a join's left, and an unnest after a join.
    (
        "for { n <- N, v <- n.xs, r <- R, v = r.k } yield count v",
        None,
        (&[712, 266, 185], 10790, 1222),
    ),
    (
        "for { n <- N, v <- n.xs, r <- R, v = r.k } yield sum (r.w + n.id)",
        None,
        (&[712, 266, 185, 712], 11300, 1222),
    ),
    (
        "for { n <- N, l <- L, n.id = l.id, v <- n.xs, v > 20 } yield sum (v + l.x)",
        None,
        (&[545, 150, 545, 1036, 818], 8304, 818),
    ),
    (
        "for { n <- N, l <- L, n.id = l.id, v <- n.xs } yield count v",
        None,
        (&[545, 150, 545], 8250, 1090),
    ),
    (
        "for { n <- N, l <- L, n.id = l.id, v <- n.xs, v > 20 } yield list (v + l.x)",
        None,
        (&[545, 150, 545, 1036, 818], 8304, 818),
    ),
];

#[test]
fn batch_probe_agrees_with_the_interpreter_everywhere() {
    let cat = catalog();
    let default_rows = JitOptions::default().morsel_rows;
    for (q, above, (hits, fallbacks, rows)) in QUERIES {
        let plan = plan_of(q, above);
        let oracle = run_volcano(&plan, cat.as_ref()).unwrap();
        for threads in [1usize, 2, 8] {
            for morsel_rows in [1, 64, default_rows] {
                let (v, stats) = run(&cat, &plan, threads, morsel_rows);
                let at = format!(
                    "{q} (above: {above:?}) at threads={threads} morsel_rows={morsel_rows}"
                );
                assert_eq!(v, oracle, "{at}");
                assert_eq!(stats.whole_query_fallbacks, 0, "{at}");
                assert_eq!(stats.joins_reordered, 0, "L stays the probe side: {at}");
                let trace = stats.query_trace().unwrap();
                assert_eq!(trace.kernel_invocations(), hits, "kernel hits: {at}");
                assert_eq!(stats.fallback_tuples, fallbacks, "fallback tuples: {at}");
                assert_eq!(stats.actual_rows, rows, "rows folded: {at}");
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
