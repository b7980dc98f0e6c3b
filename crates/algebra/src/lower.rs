//! Lowering: normalized comprehension → algebra plan.
//!
//! Qualifiers translate left to right:
//! - the first generator over a free source becomes a [`Plan::Scan`] (or a
//!   sub-plan if the source is itself a comprehension the normalizer chose
//!   to keep nested);
//! - later generators become [`Plan::Join`]s when their source is
//!   independent of earlier bindings, or [`Plan::Unnest`]s when the source
//!   is a path over an earlier binding (dependent generator);
//! - filters become [`Plan::Select`]s;
//! - the head and monoid become the terminal [`Plan::Reduce`].
//!
//! Non-comprehension expressions lower to a `Reduce` over a synthetic
//! single-row scan — queries like `1 + 1` are still valid plans.

use crate::plan::Plan;
use vida_lang::normalize::normalize;
use vida_lang::{Expr, Qualifier};
use vida_types::{Monoid, Result, VidaError};

/// Name of the synthetic one-row dataset used for constant queries.
pub const UNIT_DATASET: &str = "__unit";

/// Lower a calculus expression into an algebra plan. The expression is
/// normalized first (the paper's rewriting phase precedes translation).
pub fn lower(expr: &Expr) -> Result<Plan> {
    let normalized = normalize(expr);
    lower_normalized(&normalized)
}

/// Lower an already-normalized expression.
pub fn lower_normalized(expr: &Expr) -> Result<Plan> {
    match expr {
        Expr::Comprehension {
            monoid,
            head,
            qualifiers,
        } => lower_comprehension(*monoid, head, qualifiers),
        // Zero of a monoid: empty input reduced.
        Expr::Zero(m) => Ok(Plan::Reduce {
            input: Box::new(Plan::Select {
                input: Box::new(unit_scan()),
                predicate: Expr::bool(false),
            }),
            monoid: *m,
            head: Expr::int(0),
        }),
        // Scalar expression: evaluate once over the unit row. A `bag`
        // reduce of a single row yields a 1-element bag; to return the bare
        // scalar we use max (identity on a single value).
        other => Ok(Plan::Reduce {
            input: Box::new(unit_scan()),
            monoid: Monoid::Primitive(vida_types::PrimitiveMonoid::Max),
            head: other.clone(),
        }),
    }
}

/// Rotate bushy join trees into left-deep chains — the shape the generated
/// pipelines execute. `Join(L, Join(RL, RR, p2), p1)` becomes
/// `Join(Join(L, RL, p_inner), RR, p_outer)`, where the conjuncts of
/// `p2 ∧ p1` are partitioned by their free variables: those referencing
/// only `L`/`RL` bindings move into the rotated inner join (so an `L`–`RL`
/// equi-key still compiles to a hash join instead of degrading to a cross
/// product), the rest fuse into the outer join. Both shapes enumerate
/// `(l, rl, rr)` lexicographically in scan order and every conjunct is a
/// pure filter, so the result *and* tuple order are preserved (which
/// non-commutative monoids like `list` observe). Comprehension lowering
/// never produces bushy trees, but directly-constructed plans (fuzzers,
/// future join reordering) do. Returns the rotated plan and the number of
/// rotations applied.
pub fn left_deepen(plan: &Plan) -> (Plan, u32) {
    let mut rotations = 0;
    let p = deepen(plan, &mut rotations);
    (p, rotations)
}

fn deepen(plan: &Plan, rotations: &mut u32) -> Plan {
    let node = match plan {
        Plan::Scan { .. } => plan.clone(),
        Plan::Select { input, predicate } => Plan::Select {
            input: Box::new(deepen(input, rotations)),
            predicate: predicate.clone(),
        },
        Plan::Unnest {
            input,
            binding,
            path,
        } => Plan::Unnest {
            input: Box::new(deepen(input, rotations)),
            binding: binding.clone(),
            path: path.clone(),
        },
        Plan::Reduce {
            input,
            monoid,
            head,
        } => Plan::Reduce {
            input: Box::new(deepen(input, rotations)),
            monoid: *monoid,
            head: head.clone(),
        },
        Plan::Join {
            left,
            right,
            predicate,
        } => Plan::Join {
            left: Box::new(deepen(left, rotations)),
            right: Box::new(deepen(right, rotations)),
            predicate: predicate.clone(),
        },
    };
    if let Plan::Join {
        left,
        right,
        predicate,
    } = node
    {
        if let Plan::Join {
            left: rl,
            right: rr,
            predicate: p2,
        } = *right
        {
            *rotations += 1;
            // Partition the combined conjuncts: anything the rotated inner
            // join `L ⋈ RL` can already evaluate goes inside (preserving
            // hash/band opportunities there); the rest fuses into the outer
            // join. Filters commute, so result and tuple order are
            // unchanged.
            let inner_vars: Vec<String> = left
                .bound_vars()
                .into_iter()
                .chain(rl.bound_vars())
                .collect();
            let mut conjuncts = Vec::new();
            split_conjuncts(&p2, &mut conjuncts);
            split_conjuncts(&predicate, &mut conjuncts);
            let (inner, outer): (Vec<Expr>, Vec<Expr>) = conjuncts
                .into_iter()
                .partition(|c| c.free_vars().iter().all(|v| inner_vars.contains(v)));
            let rotated = Plan::Join {
                left: Box::new(Plan::Join {
                    left,
                    right: rl,
                    predicate: conjoin_all(inner),
                }),
                // `rr` is join-free (its subtree was already deepened), but
                // the new inner join's right child `rl` may be a join again:
                // re-deepen the rotated node until the spine is left-deep.
                right: rr,
                predicate: conjoin_all(outer),
            };
            return deepen(&rotated, rotations);
        }
        return Plan::Join {
            left,
            right,
            predicate,
        };
    }
    node
}

/// Flatten an `And` chain into its conjuncts, dropping literal `true`.
pub fn split_conjuncts(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::BinOp(vida_lang::BinOp::And, l, r) => {
            split_conjuncts(l, out);
            split_conjuncts(r, out);
        }
        Expr::Const(vida_types::Value::Bool(true)) => {}
        other => out.push(other.clone()),
    }
}

/// Conjunction of `conjuncts` (`true` when empty).
pub fn conjoin_all(conjuncts: Vec<Expr>) -> Expr {
    conjuncts
        .into_iter()
        .reduce(|a, b| Expr::bin(vida_lang::BinOp::And, a, b))
        .unwrap_or_else(|| Expr::bool(true))
}

fn unit_scan() -> Plan {
    Plan::Scan {
        dataset: UNIT_DATASET.to_string(),
        binding: "__u".to_string(),
    }
}

fn lower_comprehension(monoid: Monoid, head: &Expr, qualifiers: &[Qualifier]) -> Result<Plan> {
    let mut plan: Option<Plan> = None;
    let mut bound: Vec<String> = Vec::new();

    for q in qualifiers {
        match q {
            Qualifier::Generator(var, source) => {
                let depends_on_bound = source.free_vars().iter().any(|v| bound.contains(v));
                match (&mut plan, depends_on_bound) {
                    (None, false) => {
                        plan = Some(source_to_plan(source, var)?);
                    }
                    (None, true) => {
                        return Err(VidaError::Plan(format!(
                            "generator '{var}' depends on unbound variables"
                        )))
                    }
                    (Some(p), false) => {
                        // Independent source: a join (predicate true; the
                        // optimizer pairs it with a later Select).
                        let right = source_to_plan(source, var)?;
                        plan = Some(Plan::Join {
                            left: Box::new(std::mem::replace(p, unit_scan())),
                            right: Box::new(right),
                            predicate: Expr::bool(true),
                        });
                    }
                    (Some(p), true) => {
                        // Dependent source: unnest a path over earlier
                        // bindings.
                        plan = Some(Plan::Unnest {
                            input: Box::new(std::mem::replace(p, unit_scan())),
                            binding: var.clone(),
                            path: source.clone(),
                        });
                    }
                }
                bound.push(var.clone());
            }
            Qualifier::Filter(pred) => {
                let input = plan.take().unwrap_or_else(unit_scan);
                plan = Some(Plan::Select {
                    input: Box::new(input),
                    predicate: pred.clone(),
                });
            }
        }
    }

    Ok(Plan::Reduce {
        input: Box::new(plan.unwrap_or_else(unit_scan)),
        monoid,
        head: head.clone(),
    })
}

/// Turn a generator source into a plan producing bindings of `var`.
fn source_to_plan(source: &Expr, var: &str) -> Result<Plan> {
    match source {
        Expr::Var(dataset) => Ok(Plan::Scan {
            dataset: dataset.clone(),
            binding: var.to_string(),
        }),
        // Anything else — a comprehension the normalizer kept nested (e.g.
        // set inside sum), a literal collection, a merge — is a
        // collection-valued expression with no dependence on earlier
        // bindings: unnest it over the unit row. The operator's path
        // evaluator handles sub-comprehensions.
        other => Ok(Plan::Unnest {
            input: Box::new(unit_scan()),
            binding: var.to_string(),
            path: other.clone(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vida_lang::parse;
    use vida_types::PrimitiveMonoid;

    fn plan_of(q: &str) -> Plan {
        lower(&parse(q).unwrap()).unwrap()
    }

    #[test]
    fn single_scan_reduce() {
        let p = plan_of("for { e <- Employees } yield sum e.age");
        let Plan::Reduce { input, monoid, .. } = p else {
            panic!()
        };
        assert_eq!(monoid, Monoid::Primitive(PrimitiveMonoid::Sum));
        assert!(matches!(*input, Plan::Scan { .. }));
    }

    #[test]
    fn filters_become_selects() {
        let p = plan_of("for { e <- Employees, e.age > 40 } yield count e");
        let Plan::Reduce { input, .. } = p else {
            panic!()
        };
        let Plan::Select { input, .. } = *input else {
            panic!()
        };
        assert!(matches!(*input, Plan::Scan { .. }));
    }

    #[test]
    fn two_generators_become_join() {
        let p = plan_of("for { e <- Employees, d <- Departments, e.deptNo = d.id } yield sum 1");
        // After filter hoisting the join predicate stays as a Select above
        // the Join (the optimizer later fuses it into the join).
        let Plan::Reduce { input, .. } = p else {
            panic!()
        };
        let Plan::Select { input, predicate } = *input else {
            panic!()
        };
        assert_eq!(predicate.to_string(), "(e.deptNo = d.id)");
        assert!(matches!(*input, Plan::Join { .. }));
    }

    #[test]
    fn dependent_generator_becomes_unnest() {
        let p = plan_of("for { b <- Regions, v <- b.voxels, v > 10 } yield count v");
        let Plan::Reduce { input, .. } = p else {
            panic!()
        };
        let Plan::Select { input, .. } = *input else {
            panic!()
        };
        let Plan::Unnest {
            input,
            binding,
            path,
        } = *input
        else {
            panic!()
        };
        assert_eq!(binding, "v");
        assert_eq!(path.to_string(), "b.voxels");
        assert!(matches!(*input, Plan::Scan { .. }));
    }

    #[test]
    fn filter_hoisted_before_join() {
        let p =
            plan_of("for { p <- Patients, g <- Genetics, p.age > 60, p.id = g.id } yield sum 1");
        // Normalizer hoists p.age > 60 before the g generator, so the plan
        // is Select(join-pred) over Join(Select(age) over Scan, Scan).
        let Plan::Reduce { input, .. } = p else {
            panic!()
        };
        let Plan::Select { input, .. } = *input else {
            panic!()
        };
        let Plan::Join { left, .. } = *input else {
            panic!()
        };
        assert!(matches!(*left, Plan::Select { .. }));
    }

    #[test]
    fn constant_query_lowers_to_unit_scan() {
        let p = plan_of("1 + 1");
        let Plan::Reduce { input, head, .. } = p else {
            panic!()
        };
        assert_eq!(head, Expr::int(2)); // constant-folded by normalize
        let Plan::Scan { dataset, .. } = *input else {
            panic!()
        };
        assert_eq!(dataset, UNIT_DATASET);
    }

    #[test]
    fn list_literal_generator_unnests_over_unit() {
        let p = plan_of("for { x <- [1, 2, 3] } yield sum x");
        let Plan::Reduce { input, .. } = p else {
            panic!()
        };
        let Plan::Unnest { input, .. } = *input else {
            panic!()
        };
        assert!(matches!(*input, Plan::Scan { .. }));
    }

    #[test]
    fn left_deepen_rotates_bushy_joins() {
        let scan = |d: &str, b: &str| Plan::Scan {
            dataset: d.into(),
            binding: b.into(),
        };
        // A ⋈[a.k = c.k] (B ⋈[b.k = c.k] C): bushy, inner predicate only
        // references the right subtree.
        let bushy = Plan::Join {
            left: Box::new(scan("A", "a")),
            right: Box::new(Plan::Join {
                left: Box::new(scan("B", "b")),
                right: Box::new(scan("C", "c")),
                predicate: parse("b.k = c.k").unwrap(),
            }),
            predicate: parse("a.k = c.k").unwrap(),
        };
        let (deep, rotations) = left_deepen(&bushy);
        assert_eq!(rotations, 1);
        let Plan::Join { left, right, .. } = &deep else {
            panic!()
        };
        assert!(matches!(**right, Plan::Scan { .. }));
        let Plan::Join {
            left: ll,
            right: lr,
            ..
        } = &**left
        else {
            panic!("expected left-deep inner join, got:\n{left}")
        };
        assert!(matches!(**ll, Plan::Scan { .. }));
        assert!(matches!(**lr, Plan::Scan { .. }));
        // Binding order is preserved: a, b, c.
        assert_eq!(deep.bound_vars(), vec!["a", "b", "c"]);
        // Left-deep plans are untouched.
        let (same, n) = left_deepen(&deep);
        assert_eq!(n, 0);
        assert_eq!(same, deep);
    }

    #[test]
    fn left_deepen_pushes_left_side_conjuncts_into_inner_join() {
        let scan = |d: &str, b: &str| Plan::Scan {
            dataset: d.into(),
            binding: b.into(),
        };
        // `a.k = b.k` only references the rotated inner join's bindings: it
        // must land there (keeping the hash-join opportunity) instead of
        // leaving the inner join a cross product.
        let bushy = Plan::Join {
            left: Box::new(scan("A", "a")),
            right: Box::new(Plan::Join {
                left: Box::new(scan("B", "b")),
                right: Box::new(scan("C", "c")),
                predicate: parse("b.k < c.k").unwrap(),
            }),
            predicate: parse("a.k = b.k and a.k < c.k").unwrap(),
        };
        let (deep, rotations) = left_deepen(&bushy);
        assert_eq!(rotations, 1);
        let Plan::Join {
            left,
            predicate: outer,
            ..
        } = &deep
        else {
            panic!()
        };
        let Plan::Join {
            predicate: inner, ..
        } = &**left
        else {
            panic!()
        };
        assert_eq!(inner.to_string(), "(a.k = b.k)");
        let outer = outer.to_string();
        assert!(
            outer.contains("b.k < c.k") && outer.contains("a.k < c.k"),
            "{outer}"
        );
    }

    #[test]
    fn left_deepen_preserves_results_and_order() {
        use crate::interp::execute_plan;
        use vida_lang::Bindings;
        use vida_types::Value;
        let mut env = Bindings::new();
        let table = |ids: &[i64]| {
            Value::bag(
                ids.iter()
                    .map(|&i| Value::record([("k", Value::Int(i))]))
                    .collect(),
            )
        };
        env.insert("A".into(), table(&[1, 2, 3]));
        env.insert("B".into(), table(&[2, 3, 4]));
        env.insert("C".into(), table(&[3, 4, 5]));
        let scan = |d: &str, b: &str| Plan::Scan {
            dataset: d.into(),
            binding: b.into(),
        };
        // list monoid pins the exact tuple enumeration order.
        let bushy = Plan::Reduce {
            input: Box::new(Plan::Join {
                left: Box::new(scan("A", "a")),
                right: Box::new(Plan::Join {
                    left: Box::new(scan("B", "b")),
                    right: Box::new(scan("C", "c")),
                    predicate: parse("b.k < c.k").unwrap(),
                }),
                predicate: parse("a.k <= b.k").unwrap(),
            }),
            monoid: Monoid::Collection(vida_types::CollectionKind::List),
            head: parse("a.k + b.k + c.k").unwrap(),
        };
        let (deep, rotations) = left_deepen(&bushy);
        assert_eq!(rotations, 1);
        assert_eq!(
            execute_plan(&deep, &env).unwrap(),
            execute_plan(&bushy, &env).unwrap()
        );
    }

    #[test]
    fn left_deepen_never_reorders_bindings() {
        // Regression pin: `left_deepen` rotates bushy trees but NEVER
        // reorders relations or picks a cheaper build side, no matter how
        // misordered the plan is (a huge relation on the build side stays
        // there). Cost-based reordering is vida-optimizer's
        // `reorder_joins`, which the exec pipeline layers on top for
        // order-insensitive monoids.
        let scan = |d: &str, b: &str| Plan::Scan {
            dataset: d.into(),
            binding: b.into(),
        };
        // TinyDim ⋈ (HugeFact1 ⋈ HugeFact2): the worst possible order —
        // both facts end up as build sides after rotation.
        let bushy = Plan::Join {
            left: Box::new(scan("TinyDim", "d")),
            right: Box::new(Plan::Join {
                left: Box::new(scan("HugeFact1", "f1")),
                right: Box::new(scan("HugeFact2", "f2")),
                predicate: parse("f1.k = f2.k").unwrap(),
            }),
            predicate: parse("d.k = f1.k").unwrap(),
        };
        let (deep, rotations) = left_deepen(&bushy);
        assert_eq!(rotations, 1);
        // Binding order is exactly the syntactic order: d, f1, f2.
        assert_eq!(deep.bound_vars(), vec!["d", "f1", "f2"]);
        // And a misordered two-way join is left fully untouched.
        let two_way = Plan::Join {
            left: Box::new(scan("TinyDim", "d")),
            right: Box::new(scan("HugeFact1", "f")),
            predicate: parse("d.k = f.k").unwrap(),
        };
        let (same, n) = left_deepen(&two_way);
        assert_eq!(n, 0);
        assert_eq!(same, two_way);
    }

    #[test]
    fn nested_set_inside_sum_stays_subplan() {
        // Normalizer refuses to unnest set into sum; lowering wraps it as an
        // unnest path over the unit row.
        let p = plan_of("for { x <- for { y <- Ys } yield set y.b } yield sum x");
        let Plan::Reduce { input, monoid, .. } = p else {
            panic!()
        };
        assert_eq!(monoid, Monoid::Primitive(PrimitiveMonoid::Sum));
        let Plan::Unnest { path, .. } = *input else {
            panic!()
        };
        assert!(matches!(path, Expr::Comprehension { .. }));
    }
}
