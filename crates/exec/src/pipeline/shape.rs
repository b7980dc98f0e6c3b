//! Which plans the generated pipelines accept, and which attribute paths a
//! query touches.

use vida_algebra::lower::UNIT_DATASET;
use vida_algebra::Plan;
use vida_jit::compile::path_of;
use vida_lang::{Expr, Qualifier};

/// Whether the generated pipelines accept `plan` (the `Reduce`'s input,
/// after `left_deepen` and join reordering): no scan of the unit dataset
/// (constant queries, literal collections), no nested `Reduce`, and every
/// join's right side is one scan under any selects. Bushy trees were
/// already rotated left-deep; what remains with another right side (an
/// unnest) stays interpreted. Decided before the lowering walk, so a
/// declined plan binds no column, compiles no kernel and reads no byte.
pub(super) fn pipelinable(plan: &Plan) -> bool {
    match plan {
        Plan::Scan { dataset, .. } => dataset != UNIT_DATASET,
        Plan::Select { input, .. } | Plan::Unnest { input, .. } => pipelinable(input),
        Plan::Join { left, right, .. } => {
            let mut scan = right.as_ref();
            while let Plan::Select { input, .. } = scan {
                scan = input;
            }
            matches!(scan, Plan::Scan { .. }) && pipelinable(scan) && pipelinable(left)
        }
        Plan::Reduce { .. } => false,
    }
}

/// Collect every maximal variable/projection path in an expression
/// (including inside nested comprehensions).
pub(super) fn collect_paths(e: &Expr, out: &mut Vec<String>) {
    if let Some(p) = path_of(e) {
        out.push(p);
        return;
    }
    match e {
        Expr::Const(_) | Expr::Var(_) | Expr::Zero(_) => {}
        Expr::Proj(inner, _) | Expr::UnOp(_, inner) | Expr::Singleton(_, inner) => {
            collect_paths(inner, out)
        }
        Expr::Lambda(_, body) => collect_paths(body, out),
        Expr::Record(fields) => {
            for (_, f) in fields {
                collect_paths(f, out);
            }
        }
        Expr::If(a, b, c) => {
            collect_paths(a, out);
            collect_paths(b, out);
            collect_paths(c, out);
        }
        Expr::BinOp(_, l, r) | Expr::Merge(_, l, r) | Expr::App(l, r) => {
            collect_paths(l, out);
            collect_paths(r, out);
        }
        Expr::Comprehension {
            head, qualifiers, ..
        } => {
            collect_paths(head, out);
            for q in qualifiers {
                match q {
                    Qualifier::Generator(_, src) => collect_paths(src, out),
                    Qualifier::Filter(f) => collect_paths(f, out),
                }
            }
        }
        Expr::ListLit(items) => {
            for i in items {
                collect_paths(i, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{catalog, nested_catalog, plan_of};
    use crate::pipeline::{run_jit_with_stats, JitOptions};
    use crate::SourceProvider;
    use vida_algebra::Plan;
    use vida_types::{Monoid, PrimitiveMonoid, Value};

    #[test]
    fn constant_queries_still_fall_back() {
        let cat = nested_catalog();
        cat.register(catalog().plugin("Patients").unwrap());
        let scan = |d: &str, b: &str| Plan::Scan {
            dataset: d.into(),
            binding: b.into(),
        };
        // A join whose right side is an unnest, built directly.
        let unnest_right = Plan::Reduce {
            input: Box::new(Plan::Join {
                left: Box::new(Plan::Select {
                    input: Box::new(scan("Patients", "p")),
                    predicate: vida_lang::parse("p.age > 40").unwrap(),
                }),
                right: Box::new(Plan::Unnest {
                    input: Box::new(scan("Regions", "r")),
                    binding: "v".into(),
                    path: vida_lang::parse("r.voxels").unwrap(),
                }),
                predicate: vida_lang::parse("p.id = r.id").unwrap(),
            }),
            monoid: Monoid::Primitive(PrimitiveMonoid::Sum),
            head: vida_lang::parse("v").unwrap(),
        };
        for (plan, want) in [
            (plan_of("1 + 2"), Value::Int(3)),
            // Literal-collection generators unnest over the unit row: also
            // degenerate, also the fallback engine.
            (plan_of("for { x <- [1, 2, 3] } yield sum x"), Value::Int(6)),
            // A join whose right side is a literal collection.
            (
                plan_of("for { p <- Patients, x <- [1, 2] } yield sum p.age"),
                Value::Int(340),
            ),
            (unnest_right, Value::Int(5 + 15)),
        ] {
            let (v, stats) = run_jit_with_stats(&plan, &cat, &JitOptions::default()).unwrap();
            assert_eq!(v, want, "{plan}");
            // Declined before the walk: nothing bound, compiled or read.
            assert_eq!(stats.whole_query_fallbacks, 1, "{plan}: {stats:?}");
            assert_eq!(stats.kernels_compiled, 0, "{plan}: {stats:?}");
            assert_eq!(stats.raw_columns, 0, "{plan}: {stats:?}");
            assert_eq!(stats.tuples_scanned, 0, "{plan}: {stats:?}");
        }
    }
}
