//! The vector-at-a-time scan stage at its edges: a morsel's rows encode,
//! select and fold in chunks of 1024, and rows that cannot encode (nulls)
//! take the interpreted path interleaved in row order with the selected
//! rows. The fixture scatters nulls across chunk and morsel edges, with
//! morsels of 2500 rows (not a multiple of the chunk size), so chunks end
//! inside morsels and morsels end inside chunks.
//!
//! Every query must equal the plan interpreter at 1, 2 and 8 threads —
//! the integer overflow error included — and exactly the null rows must
//! take the fallback.

use std::collections::BTreeSet;
use vida_algebra::{lower, rewrite, Plan};
use vida_exec::{run_jit_with_stats, run_volcano, JitOptions, MemoryCatalog};
use vida_lang::parse;
use vida_types::{Schema, Type, Value};

const ROWS: usize = 6000;
const MORSEL_ROWS: usize = 2500;

/// Rows whose `x` and `s` are null: both sides of every chunk edge
/// (1024-row chunks inside 2500-row morsels) and of every morsel edge, the
/// first and last row, and a scattering in between.
fn null_rows() -> BTreeSet<usize> {
    let edges = [
        0, 1023, 1024, 2047, 2048, 2499, 2500, 2501, 3523, 3524, 4547, 4548,
    ];
    let tail = [4999, 5000, 5001, 5999];
    let scattered = (0..ROWS).filter(|i| i % 97 == 13);
    edges.into_iter().chain(tail).chain(scattered).collect()
}

/// Dyadic, so every association of a sum gives the same bits, and the
/// interpreter's one sequential fold is an oracle for it.
fn f_of(i: usize) -> f64 {
    (i % 64) as f64 / 8.0
}

/// Not dyadic: only one association gives these bits.
fn g_of(i: usize) -> f64 {
    0.1 * (i % 50) as f64 + 0.01
}

fn catalog() -> MemoryCatalog {
    let nulls = null_rows();
    let strs = ["a", "b", "c"];
    let rows: Vec<Value> = (0..ROWS)
        .map(|i| {
            let null = nulls.contains(&i);
            let x = match null {
                true => Value::Null,
                false => Value::Int((i as i64 * 37) % 100),
            };
            let s = match null {
                true => Value::Null,
                false => Value::str(strs[i % 3]),
            };
            Value::record([
                ("x", x),
                ("y", Value::Int((i as i64 * 13) % 50)),
                ("f", Value::Float(f_of(i))),
                ("g", Value::Float(g_of(i))),
                ("big", Value::Int(i64::MAX / 4000)),
                ("s", s),
            ])
        })
        .collect();
    let schema = Schema::from_pairs([
        ("x", Type::Int),
        ("y", Type::Int),
        ("f", Type::Float),
        ("g", Type::Float),
        ("big", Type::Int),
        ("s", Type::Str),
    ]);
    let cat = MemoryCatalog::new();
    cat.register_records("T", schema, &rows).unwrap();
    cat
}

fn plan_of(q: &str) -> Plan {
    rewrite(&lower(&parse(q).expect("parses")).expect("lowers"))
}

fn opts(threads: usize) -> JitOptions {
    JitOptions {
        threads,
        morsel_rows: MORSEL_ROWS,
        ..JitOptions::default()
    }
}

#[test]
fn nulls_across_chunk_and_morsel_edges_match_the_interpreter() {
    let cat = catalog();
    let nulls = null_rows().len() as u64;
    let queries = [
        "for { t <- T } yield list t.x",
        "for { t <- T, t.x > 5 } yield sum t.f",
        "for { t <- T, t.x > 5 } yield avg t.x",
        "for { t <- T } yield any t.x > 98",
        "for { t <- T, t.s = \"b\", t.x > 5 } yield count t",
        "for { t <- T, t.x > 5, t.s != \"c\" } yield max t.y",
    ];
    for q in queries {
        let plan = plan_of(q);
        let oracle = run_volcano(&plan, &cat).unwrap();
        for threads in [1, 2, 8] {
            let (v, stats) = run_jit_with_stats(&plan, &cat, &opts(threads)).unwrap();
            assert_eq!(v, oracle, "{q} at {threads} threads");
            assert_eq!(stats.fallback_tuples, nulls, "{q} at {threads} threads");
        }
    }
}

/// What row `i` adds to a sum, if it reaches the fold.
type Addend<'a> = dyn Fn(usize) -> Option<f64> + 'a;

#[test]
fn float_sums_associate_in_row_order_within_each_morsel() {
    // Non-dyadic addends: any other association changes the bits. Each
    // morsel folds its rows in order, and the partials merge in morsel
    // order. In the second query the null rows reach the fold through the
    // interpreted head (`null > 50` is false there, so they add 0.3), so
    // they must be folded between their neighbours, not after them.
    let cat = catalog();
    let nulls = null_rows();
    let x_of = |i: usize| (!nulls.contains(&i)).then_some((i as i64 * 37) % 100);
    let filtered = |i: usize| x_of(i).filter(|&x| x > 5).map(|_| g_of(i));
    let branch = |i: usize| match x_of(i) {
        Some(x) if x > 50 => Some(g_of(i)),
        _ => Some(0.3),
    };
    let cases: [(&str, &Addend); 2] = [
        ("for { t <- T, t.x > 5 } yield sum t.g", &filtered),
        (
            "for { t <- T } yield sum (if t.x > 50 then t.g else 0.3)",
            &branch,
        ),
    ];
    for (q, addend) in cases {
        let want = (0..ROWS)
            .step_by(MORSEL_ROWS)
            .map(|m| {
                (m..(m + MORSEL_ROWS).min(ROWS))
                    .filter_map(addend)
                    .fold(0.0, |acc, g| acc + g)
            })
            .reduce(|a, b| a + b)
            .unwrap();
        let plan = plan_of(q);
        for threads in [1, 2, 8] {
            let (v, _) = run_jit_with_stats(&plan, &cat, &opts(threads)).unwrap();
            let Value::Float(got) = v else {
                panic!("{q} returned {v}")
            };
            assert_eq!(got.to_bits(), want.to_bits(), "{q} at {threads} threads");
        }
    }
}

#[test]
fn integer_overflow_errors_like_the_interpreter() {
    let cat = catalog();
    let plan = plan_of("for { t <- T, t.x >= 0 } yield sum t.big");
    let oracle = run_volcano(&plan, &cat).unwrap_err().to_string();
    assert!(oracle.contains("integer overflow in sum"), "{oracle}");
    for threads in [1, 2, 8] {
        let err = run_jit_with_stats(&plan, &cat, &opts(threads)).unwrap_err();
        assert_eq!(err.to_string(), oracle, "{threads} threads");
    }
}

#[test]
fn kernel_hit_counts_match_the_row_at_a_time_scan() {
    // Pinned from the row-at-a-time scan this stage replaced: the first
    // conjunct runs on every row that encodes, the second on the first's
    // survivors, and the head kernel on the rows both keep.
    let cat = catalog();
    let plan = plan_of("for { t <- T, t.x > 5, t.s != \"c\" } yield sum t.y");
    for threads in [1, 2, 8] {
        let (_, stats) = run_jit_with_stats(&plan, &cat, &opts(threads).with_trace()).unwrap();
        let hits = stats.query_trace().unwrap().kernel_invocations().to_vec();
        assert_eq!(hits, PINNED_HITS, "{threads} threads");
        assert_eq!(stats.fallback_tuples, null_rows().len() as u64);
    }
}

const PINNED_HITS: [u64; 3] = [5922, 5567, 3711];
