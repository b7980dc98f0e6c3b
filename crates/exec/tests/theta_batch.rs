//! The batch theta-join probe: a primitive fold over a band or
//! block-nested-loop join whose left input is a scan runs a vector at a
//! time (band key vector, one range per left row or every build row, pair
//! vectors, refined pair selection, head kernel, typed fold), and a
//! `count` over a band join whose predicate is the band comparison adds up
//! range lengths without expanding a pair. Every answer must equal the plan
//! interpreter's at every worker count and morsel size — over int, float
//! and mixed int/float keys with duplicate, null and NaN keys on both
//! sides, so left rows that cannot encode and loose build rows take the
//! row probe in their place — and the per-kernel trace hits and
//! `fallback_tuples` must be the row probe's.

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

/// `L(id, x, f, fk)` and `R(k, n, v, w, fk)`. `n` is the row number (key
/// order is build order, and never null); `f` and `v` are dyadic, so
/// every association of a float sum gives the same bits.
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
/// (division stays interpreted), so the fold takes the row probe: its
/// kernels and their order are the batch plan's, and each pair that
/// reaches it adds one interpreted tuple.
const ROW_PROBE: &str = "(l.x + r.w) / 1 = l.x + r.w";

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

/// (query, a select above the join, whether the fold runs the batch probe)
const QUERIES: [(&str, Option<&str>, bool); 22] = [
    // The four band ops over int keys with nulls on both sides, under
    // `count` (the build has loose rows, so pairs expand), int and float
    // `sum`, `avg`, `max` and `any`.
    (
        "for { l <- L, r <- R, l.id < r.k } yield count l",
        None,
        true,
    ),
    (
        "for { l <- L, r <- R, l.id <= r.k } yield sum r.w",
        None,
        true,
    ),
    (
        "for { l <- L, r <- R, l.id > r.k } yield sum r.v",
        None,
        true,
    ),
    (
        "for { l <- L, r <- R, l.id >= r.k } yield avg l.f",
        None,
        true,
    ),
    (
        "for { l <- L, r <- R, l.id < r.k } yield max (r.w + l.x)",
        None,
        true,
    ),
    (
        "for { l <- L, r <- R, l.id > r.k } yield any r.v > 3.0",
        None,
        true,
    ),
    // A build without loose rows, whose key order is build order: `count`
    // adds up range lengths, under each op and under a fused left select.
    (
        "for { l <- L, r <- R, l.x < r.n } yield count l",
        None,
        true,
    ),
    (
        "for { l <- L, r <- R, l.x <= r.n } yield count r",
        None,
        true,
    ),
    (
        "for { l <- L, r <- R, l.id > r.n, l.x > 0 } yield count l",
        None,
        true,
    ),
    (
        "for { l <- L, r <- R, l.id >= r.n } yield count l",
        None,
        true,
    ),
    (
        "for { l <- L, r <- R, l.x >= r.n } yield sum r.w",
        None,
        true,
    ),
    // Float keys and mixed int/float keys, NaN on both sides.
    (
        "for { l <- L, r <- R, l.fk < r.fk } yield count l",
        None,
        true,
    ),
    (
        "for { l <- L, r <- R, l.fk >= r.fk } yield sum r.w",
        None,
        true,
    ),
    (
        "for { l <- L, r <- R, l.id <= r.fk } yield count l",
        None,
        true,
    ),
    (
        "for { l <- L, r <- R, l.fk > r.k } yield sum l.f",
        None,
        true,
    ),
    // A residual conjunct over both sides, which joins the predicate, and
    // a compiled select above the join.
    (
        "for { l <- L, r <- R, l.x < r.n, l.x != r.w } yield count l",
        None,
        true,
    ),
    (
        "for { l <- L, r <- R, l.x < r.n } yield count l",
        Some("r.w + l.x > 6"),
        true,
    ),
    // Block-nested loop and the product.
    (
        "for { l <- L, r <- R, l.id != r.k } yield sum r.w",
        None,
        true,
    ),
    ("for { l <- L, r <- R } yield count l", None, true),
    // Row probe: an interpreted left select (division does not compile),
    // a collection head, and an interpreted head.
    (
        "for { l <- L, r <- R, l.id < r.k, l.x / 2 > 1 } yield sum r.w",
        None,
        false,
    ),
    (
        "for { l <- L, r <- R, l.id != r.k } yield list r.n",
        None,
        false,
    ),
    (
        "for { l <- L, r <- R, l.id < r.k } yield sum (r.w / 2)",
        None,
        false,
    ),
];

#[test]
fn theta_batch_probe_agrees_with_the_interpreter_everywhere() {
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
                assert_eq!(stats.theta_pipelines, 1, "{at}");
                assert_eq!(stats.joins_reordered, 0, "L stays the probe side: {at}");
                assert_eq!(stats.vector_probe_pipelines, vector as u32, "{at}");
                // Trace hits and fallbacks do not depend on the grid.
                let seen = first.get_or_insert((hits(&stats), stats.fallback_tuples));
                assert_eq!(*seen, (hits(&stats), stats.fallback_tuples), "{at}");
            }
        }
    }
}

#[test]
fn theta_batch_probe_credits_what_the_row_probe_credits() {
    // The same plan with an always-true interpreted select on top runs the
    // row probe over the same kernels: every kernel must see the same
    // rows, and the interpreter the same tuples except the ones that
    // select adds — one per tuple that reaches the fold.
    let cat = catalog();
    for (q, above, vector) in QUERIES.into_iter().filter(|(.., vector)| *vector) {
        let plan = plan_of(q, above);
        let row_plan = select_above(plan.clone(), ROW_PROBE);
        for (threads, morsel_rows) in [(1, 0), (2, 64), (8, 1)] {
            let at = format!("{q} (above: {above:?}) at threads={threads}");
            let (v, batch) = run(&cat, &plan, threads, morsel_rows);
            let (w, row) = run(&cat, &row_plan, threads, morsel_rows);
            assert_eq!(v, w, "{at}");
            assert_eq!(
                (batch.vector_probe_pipelines, row.vector_probe_pipelines),
                (vector as u32, 0),
                "{at}"
            );
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
        assert_eq!(stats.vector_probe_pipelines, 1);
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
