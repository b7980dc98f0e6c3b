//! The batch theta-join probe: a band or block-nested-loop join runs a
//! chunk at a time (band key vector, one range per left row or every build
//! row, pair vectors, refined pair selection), whatever sits on its left —
//! a scan or an unnest — and under any head, and a `count` right over a
//! band join whose predicate is the band comparison adds up range lengths
//! without expanding a pair. Every answer must equal the plan
//! interpreter's at every worker count and morsel size — over int, float
//! and mixed int/float keys with duplicate, null and NaN keys on both
//! sides, so left rows that cannot encode and loose build rows pair
//! through the interpreter in their place — and the per-kernel trace hits,
//! `fallback_tuples` and `actual_rows` must be the tuple-at-a-time row
//! probe's, pinned per plan.

mod common;

use std::sync::Arc;
use vida_algebra::{lower, rewrite, Plan};
use vida_exec::{run_volcano, Engine, ExecStats, JitOptions, MemoryCatalog};
use vida_lang::parse;
use vida_types::{Schema, Type, Value};

const LEFT_ROWS: i64 = 600;
const RIGHT_ROWS: i64 = 120;

/// `L.id`, or `None` (null) on every 11th row: keys `0..70` repeat.
fn left_id(i: i64) -> Option<i64> {
    (i % 11 != 4).then_some(i * 7 % 70)
}

/// `L.fk`: `id / 2` as a float, NaN on every 23rd row, null with `id`.
fn left_fk(i: i64) -> Value {
    match left_id(i) {
        None => Value::Null,
        Some(_) if i % 23 == 6 => Value::Float(f64::NAN),
        Some(id) => Value::Float(id as f64 / 2.0),
    }
}

/// `R.k`, or `None` (null) on every 13th row: keys `0..60` repeat in an
/// order unlike the build order.
fn right_k(i: i64) -> Option<i64> {
    (i % 13 != 5).then_some(i * 17 % 60)
}

/// `R.fk`: `k / 4` as a float, NaN on every 19th row, null with `k`.
fn right_fk(i: i64) -> Value {
    match right_k(i) {
        None => Value::Null,
        Some(_) if i % 19 == 7 => Value::Float(f64::NAN),
        Some(k) => Value::Float(k as f64 / 4.0),
    }
}

/// `L(id, x, f, fk)`, `R(k, n, v, w, fk)` and `N(id, xs)` (see
/// [`common::register_nested_ints`]). `n` is the row number (key order is
/// build order, and never null); `f` and `v` are dyadic, so every
/// association of a float sum gives the same bits.
fn catalog() -> Arc<MemoryCatalog> {
    let cat = MemoryCatalog::new();
    let left: Vec<Value> = (0..LEFT_ROWS)
        .map(|i| {
            Value::record([
                ("id", left_id(i).map_or(Value::Null, Value::Int)),
                ("x", Value::Int(i % 9)),
                ("f", Value::Float((i % 16) as f64 / 4.0)),
                ("fk", left_fk(i)),
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
            Value::record([
                ("k", right_k(i).map_or(Value::Null, Value::Int)),
                ("n", Value::Int(i)),
                ("v", Value::Float((i % 8) as f64 / 2.0)),
                ("w", Value::Int(i % 23 - 5)),
                ("fk", right_fk(i)),
            ])
        })
        .collect();
    let schema = Schema::from_pairs([
        ("k", Type::Int),
        ("n", Type::Int),
        ("v", Type::Float),
        ("w", Type::Int),
        ("fk", Type::Float),
    ]);
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
    match above {
        Some(above) => select_above(plan, above),
        None => plan,
    }
}

/// `plan` with the select `pred` added on top of its fold's input.
fn select_above(plan: Plan, pred: &str) -> Plan {
    let Plan::Reduce {
        input,
        monoid,
        head,
    } = plan
    else {
        panic!("a comprehension plan is a reduce");
    };
    Plan::Reduce {
        input: Box::new(Plan::Select {
            input,
            predicate: parse(pred).expect("parses"),
        }),
        monoid,
        head,
    }
}

/// A select above the join that holds on every pair and does not compile
/// (division stays interpreted): the plan's kernels and their order stay
/// the same, and each pair that reaches it adds one interpreted tuple.
const ROW_PROBE: &str = "r.w / 1 = r.w";

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

fn hits(stats: &ExecStats) -> Vec<u64> {
    stats.query_trace().unwrap().kernel_invocations().to_vec()
}

/// What a plan did, as the tuple-at-a-time row probe that preceded the
/// chunk pipeline counted it: the per-kernel trace hits, the tuples the
/// interpreter evaluated (`fallback_tuples`) and the rows that reached the
/// fold (`actual_rows`).
type Counters = (&'static [u64], u64, u64);

/// (query, a select above the join, its counters)
const QUERIES: [(&str, Option<&str>, Counters); 28] = [
    // The four band ops over int keys with nulls on both sides, under
    // `count` (the build has loose rows, so pairs expand), int and float
    // `sum`, `avg`, `max` and `any`.
    (
        "for { l <- L, r <- R, l.id < r.k } yield count l",
        None,
        (&[28277, 545, 111], 11505, 28277),
    ),
    (
        "for { l <- L, r <- R, l.id <= r.k } yield sum r.w",
        None,
        (&[29203, 545, 111, 29203], 11505, 29203),
    ),
    (
        "for { l <- L, r <- R, l.id > r.k } yield sum r.v",
        None,
        (&[31292, 545, 111, 31292], 11505, 31292),
    ),
    (
        "for { l <- L, r <- R, l.id >= r.k } yield avg l.f",
        None,
        (&[32218, 545, 111, 32218], 11505, 32218),
    ),
    (
        "for { l <- L, r <- R, l.id < r.k } yield max (r.w + l.x)",
        None,
        (&[28277, 545, 111, 28277], 11505, 28277),
    ),
    (
        "for { l <- L, r <- R, l.id > r.k } yield any r.v > 3.0",
        None,
        (&[31292, 545, 111, 31292], 11505, 31292),
    ),
    // A build without loose rows, whose key order is build order: `count`
    // adds up range lengths, under each op and under a fused left select.
    (
        "for { l <- L, r <- R, l.x < r.n } yield count l",
        None,
        (&[62684, 545, 120], 6600, 69009),
    ),
    (
        "for { l <- L, r <- R, l.x <= r.n } yield count r",
        None,
        (&[64407, 600, 111], 5400, 69609),
    ),
    (
        "for { l <- L, r <- R, l.id > r.n, l.x > 0 } yield count l",
        None,
        (&[545, 15169, 484, 120], 5935, 15169),
    ),
    (
        "for { l <- L, r <- R, l.id >= r.n } yield count l",
        None,
        (&[17660, 545, 120], 6600, 17660),
    ),
    (
        "for { l <- L, r <- R, l.x >= r.n } yield sum r.w",
        None,
        (&[2991, 600, 120, 2991], 0, 2991),
    ),
    // Float keys and mixed int/float keys, NaN on both sides.
    (
        "for { l <- L, r <- R, l.fk < r.fk } yield count l",
        None,
        (&[16909, 545, 111], 11505, 16909),
    ),
    (
        "for { l <- L, r <- R, l.fk >= r.fk } yield sum r.w",
        None,
        (&[43586, 545, 111, 43586], 11505, 43586),
    ),
    (
        "for { l <- L, r <- R, l.id <= r.fk } yield count l",
        None,
        (&[12020, 545, 111], 11505, 12020),
    ),
    (
        "for { l <- L, r <- R, l.fk > r.k } yield sum l.f",
        None,
        (&[17959, 545, 111, 17959], 11505, 17959),
    ),
    // A residual conjunct over both sides, which joins the predicate, and
    // a compiled select above the join.
    (
        "for { l <- L, r <- R, l.x < r.n, l.x != r.w } yield count l",
        None,
        (&[62684, 545, 120], 6600, 66009),
    ),
    (
        "for { l <- L, r <- R, l.x < r.n } yield count l",
        Some("r.w + l.x > 6"),
        (&[62684, 545, 120, 62684], 12925, 44427),
    ),
    // Block-nested loop and the product.
    (
        "for { l <- L, r <- R, l.id != r.k } yield sum r.w",
        None,
        (&[60495, 59569], 22515, 70579),
    ),
    (
        "for { l <- L, r <- R } yield count l",
        None,
        (&[65400], 6600, 72000),
    ),
    // An interpreted left select (division does not compile), a
    // collection head, and an interpreted head.
    (
        "for { l <- L, r <- R, l.id < r.k, l.x / 2 > 1 } yield sum r.w",
        None,
        (&[15677, 301, 111, 15677], 7029, 15677),
    ),
    (
        "for { l <- L, r <- R, l.id != r.k } yield list r.n",
        None,
        (&[60495, 59569], 22515, 70579),
    ),
    (
        "for { l <- L, r <- R, l.id < r.k } yield sum (r.w / 2)",
        None,
        (&[28277, 545, 111], 39782, 28277),
    ),
    // An unnest on a band join's left, with and without loose build rows
    // (`count` adds up range lengths without them), under `count` and
    // `sum`, and on a block-nested loop's left.
    (
        "for { n <- N, v <- n.xs, r <- R, v < r.k } yield count v",
        None,
        (&[12643, 266, 111], 6474, 12643),
    ),
    (
        "for { n <- N, v <- n.xs, r <- R, v < r.n } yield count v",
        None,
        (&[22592, 266, 120], 4080, 22592),
    ),
    (
        "for { n <- N, v <- n.xs, r <- R, v >= r.n } yield sum (v + r.w)",
        None,
        (&[9328, 266, 120, 9328], 4080, 9328),
    ),
    (
        "for { n <- N, v <- n.xs, r <- R, v != r.k } yield count n",
        None,
        (&[29526], 6474, 35271),
    ),
    // A collection head over a band join, and an interpreted select above
    // one.
    (
        "for { l <- L, r <- R, l.id < r.k } yield list (l.x + r.n)",
        None,
        (&[28277, 545, 111, 28277], 11505, 28277),
    ),
    (
        "for { l <- L, r <- R, l.id < r.k } yield count l",
        Some("(l.x + r.w) / 1 = l.x + r.w"),
        (&[28277, 545, 111], 39782, 28277),
    ),
];

#[test]
fn theta_batch_probe_agrees_with_the_interpreter_everywhere() {
    let cat = catalog();
    let default_rows = JitOptions::default().morsel_rows;
    for (q, above, (kernel_hits, fallbacks, rows)) in QUERIES {
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
                assert_eq!(stats.theta_pipelines, 1, "{at}");
                assert_eq!(stats.joins_reordered, 0, "L stays the probe side: {at}");
                assert_eq!(hits(&stats), kernel_hits, "kernel hits: {at}");
                assert_eq!(stats.fallback_tuples, fallbacks, "fallback tuples: {at}");
                assert_eq!(stats.actual_rows, rows, "rows folded: {at}");
            }
        }
    }
}

#[test]
fn theta_batch_probe_credits_what_the_row_probe_credits() {
    // The same plan with an always-true interpreted select on top runs the
    // same kernels over the same rows: the select's chain runs a row at a
    // time, and the interpreter sees the same tuples except the ones that
    // select adds — one per tuple that reaches the fold.
    let cat = catalog();
    for (q, above, _) in QUERIES {
        let plan = plan_of(q, above);
        let row_plan = select_above(plan.clone(), ROW_PROBE);
        for (threads, morsel_rows) in [(1, 0), (2, 64), (8, 1)] {
            let at = format!("{q} (above: {above:?}) at threads={threads}");
            let (v, batch) = run(&cat, &plan, threads, morsel_rows);
            let (w, row) = run(&cat, &row_plan, threads, morsel_rows);
            assert_eq!(v, w, "{at}");
            assert_eq!(hits(&batch), hits(&row), "kernel hits: {at}");
            assert_eq!(batch.actual_rows, row.actual_rows, "{at}");
            assert_eq!(
                batch.fallback_tuples + row.actual_rows,
                row.fallback_tuples,
                "fallback tuples: {at}"
            );
        }
    }
}

#[test]
fn range_count_credits_the_pairs_it_does_not_expand() {
    // `count` over `l.x < r.n`: the build has no loose row and every pair
    // of a left row's range passes, so the fold adds range lengths. The
    // kernels compile in this order: the predicate, then the left and the
    // right band key; each sees exactly the rows the row probe gives it.
    // (`count l.x` touches no other column of `L`, so no left row is null.)
    let cat = catalog();
    let plan = plan_of("for { l <- L, r <- R, l.x < r.n } yield count l.x", None);
    let pairs: i64 = (0..LEFT_ROWS)
        .map(|i| (0..RIGHT_ROWS).filter(|&n| i % 9 < n).count() as i64)
        .sum();
    for (threads, morsel_rows) in [(1, 0), (2, 64), (8, 1)] {
        let (v, stats) = run(&cat, &plan, threads, morsel_rows);
        assert_eq!(v, Value::Int(pairs));
        let (nl, nr) = (LEFT_ROWS as u64, RIGHT_ROWS as u64);
        assert_eq!(hits(&stats), [pairs as u64, nl, nr], "predicate, keys");
        assert_eq!(stats.fallback_tuples, 0);
        assert_eq!(stats.actual_rows, pairs as u64);
    }

    // Null left keys take the row probe against every build row, in the
    // interpreter; the valid ones still count by range.
    let plan = plan_of("for { l <- L, r <- R, l.id >= r.n } yield count l", None);
    let valid: Vec<i64> = (0..LEFT_ROWS).filter_map(left_id).collect();
    let pairs: u64 = valid
        .iter()
        .map(|&id| (0..RIGHT_ROWS).filter(|&n| id >= n).count() as u64)
        .sum();
    let (v, stats) = run(&cat, &plan, 2, 64);
    assert_eq!(v, Value::Int(pairs as i64));
    let nl = valid.len() as u64;
    assert_eq!(hits(&stats), [pairs, nl, RIGHT_ROWS as u64]);
    let null_left = LEFT_ROWS as u64 - nl;
    assert_eq!(stats.fallback_tuples, null_left * RIGHT_ROWS as u64);
}
