//! Shape analysis: which plans the generated pipelines accept, and which
//! attribute paths a query touches.

use vida_algebra::lower::{split_conjuncts, UNIT_DATASET};
use vida_algebra::Plan;
use vida_jit::compile::path_of;
use vida_lang::{Expr, Qualifier};

/// Plan shape accepted by the generated pipelines.
pub(super) enum Shape {
    Scan {
        binding: String,
        dataset: String,
        selects: Vec<Expr>,
    },
    Join {
        left: Box<Shape>,
        right: Box<Shape>, // always a Scan (Shape::of enforces it)
        predicate: Expr,
        selects: Vec<Expr>,
    },
    Unnest {
        input: Box<Shape>,
        binding: String,
        path: Expr,
        selects: Vec<Expr>,
    },
}

impl Shape {
    pub(super) fn of(plan: &Plan) -> Option<Shape> {
        match plan {
            Plan::Scan { dataset, binding } => {
                if dataset == UNIT_DATASET {
                    return None;
                }
                Some(Shape::Scan {
                    dataset: dataset.clone(),
                    binding: binding.clone(),
                    selects: Vec::new(),
                })
            }
            Plan::Select { input, predicate } => {
                let mut inner = Shape::of(input)?;
                // Split `p1 and p2` into separate select steps: kernels
                // compile per conjunct (so the plan optimizer can rank
                // them) and the step chain short-circuits left-to-right
                // exactly like the interpreter's `and`.
                let mut conjuncts = Vec::new();
                split_conjuncts(predicate, &mut conjuncts);
                match &mut inner {
                    Shape::Scan { selects, .. }
                    | Shape::Join { selects, .. }
                    | Shape::Unnest { selects, .. } => selects.extend(conjuncts),
                }
                Some(inner)
            }
            Plan::Join {
                left,
                right,
                predicate,
            } => {
                let l = Shape::of(left)?;
                let r = Shape::of(right)?;
                if !matches!(r, Shape::Scan { .. }) {
                    // Bushy trees were already rotated left-deep by
                    // `left_deepen`; what remains here is a right side that
                    // is itself an unnest — stay interpreted.
                    return None;
                }
                Some(Shape::Join {
                    left: Box::new(l),
                    right: Box::new(r),
                    predicate: predicate.clone(),
                    selects: Vec::new(),
                })
            }
            Plan::Unnest {
                input,
                binding,
                path,
            } => {
                let inner = Shape::of(input)?;
                Some(Shape::Unnest {
                    input: Box::new(inner),
                    binding: binding.clone(),
                    path: path.clone(),
                    selects: Vec::new(),
                })
            }
            Plan::Reduce { .. } => None,
        }
    }

    pub(super) fn exprs<'s>(&'s self, out: &mut Vec<&'s Expr>) {
        match self {
            Shape::Scan { selects, .. } => out.extend(selects.iter()),
            Shape::Join {
                left,
                right,
                predicate,
                selects,
            } => {
                left.exprs(out);
                right.exprs(out);
                out.push(predicate);
                out.extend(selects.iter());
            }
            Shape::Unnest {
                input,
                path,
                selects,
                ..
            } => {
                input.exprs(out);
                out.push(path);
                out.extend(selects.iter());
            }
        }
    }

    pub(super) fn bound_vars(&self) -> Vec<String> {
        match self {
            Shape::Scan { binding, .. } => vec![binding.clone()],
            Shape::Join { left, right, .. } => {
                let mut v = left.bound_vars();
                v.extend(right.bound_vars());
                v
            }
            Shape::Unnest { input, binding, .. } => {
                let mut v = input.bound_vars();
                v.push(binding.clone());
                v
            }
        }
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
    use super::super::testutil::{nested_catalog, plan_of};
    use crate::pipeline::{run_jit_with_stats, JitOptions};
    use vida_types::Value;

    #[test]
    fn constant_queries_still_fall_back() {
        let cat = nested_catalog();
        let plan = plan_of("1 + 2");
        let (v, stats) = run_jit_with_stats(&plan, &cat, &JitOptions::default()).unwrap();
        assert_eq!(v, Value::Int(3));
        assert_eq!(stats.whole_query_fallbacks, 1);
        // Literal-collection generators unnest over the unit row: also
        // degenerate, also the fallback engine.
        let plan = plan_of("for { x <- [1, 2, 3] } yield sum x");
        let (v, stats) = run_jit_with_stats(&plan, &cat, &JitOptions::default()).unwrap();
        assert_eq!(v, Value::Int(6));
        assert_eq!(stats.whole_query_fallbacks, 1);
    }
}
