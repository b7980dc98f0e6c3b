//! The interpreted engine over raw sources — the "pre-cooked static
//! operators" comparator of §4 and the pipelines' correctness oracle.
//!
//! [`run_volcano`] runs the one plan interpreter, [`vida_algebra::interp`],
//! with its scans reading whole units from the query's input plugins
//! (`InputPlugin::read_unit`, no query-specific projection — that is the
//! point of the comparison). It shares nothing with the generated
//! pipelines beyond the plugins and the calculus interpreter, so agreement
//! between the two is strong evidence for both.

use crate::catalog::{QueryBinding, SourceProvider};
use vida_algebra::interp::{interpret, Source};
use vida_algebra::Plan;
use vida_lang::{Bindings, Expr};
use vida_types::{Result, Value, VidaError};

/// Execute a plan with the interpreted engine, reading each dataset at one
/// file generation (re-stat'd once, through a per-query `QueryBinding`).
pub fn run_volcano(plan: &Plan, catalog: &dyn SourceProvider) -> Result<Value> {
    run_bound(plan, &QueryBinding::new(catalog))
}

/// [`run_volcano`] over a query's existing binding — the JIT executor's
/// whole-query fallback, which must not re-stat what it already bound.
pub(crate) fn run_bound(plan: &Plan, catalog: &QueryBinding) -> Result<Value> {
    // Datasets referenced by head/predicate sub-comprehensions need to be
    // available to the interpreter as whole values.
    let mut exprs: Vec<&Expr> = Vec::new();
    collect_exprs(plan, &mut exprs);
    let env = materialize_free_datasets(&exprs, &plan.bound_vars(), catalog)?;
    interpret(plan, catalog, &env)
}

/// A query's datasets as the interpreter scans them: one
/// `InputPlugin::read_unit` at a time.
impl Source for QueryBinding<'_> {
    fn scan(&self, dataset: &str, emit: &mut dyn FnMut(Value) -> Result<()>) -> Result<()> {
        let plugin = self.plugin(dataset)?;
        for row in 0..plugin.num_units() {
            emit(plugin.read_unit(row)?)?;
        }
        Ok(())
    }
}

/// Materialize every free variable of `exprs` that is not plan-bound and
/// resolves as a catalog dataset. Shared by both engines so their
/// nested-comprehension semantics cannot drift.
pub(crate) fn materialize_free_datasets(
    exprs: &[&Expr],
    bound: &[String],
    catalog: &dyn SourceProvider,
) -> Result<Bindings> {
    let mut env = Bindings::new();
    for e in exprs {
        for name in e.free_vars() {
            if !bound.contains(&name) && !env.contains_key(&name) {
                match catalog.plugin(&name) {
                    Ok(_) => {
                        let v = catalog.materialize(&name)?;
                        env.insert(name, v);
                    }
                    // Not a dataset: a name local to the comprehension.
                    Err(VidaError::Catalog(_)) => {}
                    Err(e) => return Err(e),
                }
            }
        }
    }
    Ok(env)
}

pub(crate) fn collect_exprs<'a>(plan: &'a Plan, out: &mut Vec<&'a Expr>) {
    match plan {
        Plan::Scan { .. } => {}
        Plan::Select { input, predicate } => {
            out.push(predicate);
            collect_exprs(input, out);
        }
        Plan::Join {
            left,
            right,
            predicate,
        } => {
            out.push(predicate);
            collect_exprs(left, out);
            collect_exprs(right, out);
        }
        Plan::Unnest { input, path, .. } => {
            out.push(path);
            collect_exprs(input, out);
        }
        Plan::Reduce { input, head, .. } => {
            out.push(head);
            collect_exprs(input, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::MemoryCatalog;
    use vida_algebra::{lower, rewrite};
    use vida_lang::{eval, parse};
    use vida_types::{Monoid, PrimitiveMonoid, Schema, Type};

    fn catalog() -> MemoryCatalog {
        let cat = MemoryCatalog::new();
        cat.register_records(
            "Patients",
            Schema::from_pairs([("id", Type::Int), ("age", Type::Int), ("city", Type::Str)]),
            &[
                Value::record([
                    ("id", Value::Int(1)),
                    ("age", Value::Int(71)),
                    ("city", Value::str("geneva")),
                ]),
                Value::record([
                    ("id", Value::Int(2)),
                    ("age", Value::Int(34)),
                    ("city", Value::str("bern")),
                ]),
                Value::record([
                    ("id", Value::Int(3)),
                    ("age", Value::Int(65)),
                    ("city", Value::str("geneva")),
                ]),
            ],
        )
        .unwrap();
        cat.register_records(
            "Genetics",
            Schema::from_pairs([("id", Type::Int), ("snp", Type::Float)]),
            &[
                Value::record([("id", Value::Int(1)), ("snp", Value::Float(0.9))]),
                Value::record([("id", Value::Int(2)), ("snp", Value::Float(0.1))]),
                Value::record([("id", Value::Int(3)), ("snp", Value::Float(0.5))]),
            ],
        )
        .unwrap();
        cat
    }

    fn run(q: &str) -> Value {
        let plan = rewrite(&lower(&parse(q).unwrap()).unwrap());
        run_volcano(&plan, &catalog()).unwrap()
    }

    #[test]
    fn scan_filter_aggregate() {
        assert_eq!(
            run("for { p <- Patients, p.age > 60 } yield count p"),
            Value::Int(2)
        );
        assert_eq!(run("for { p <- Patients } yield max p.age"), Value::Int(71));
    }

    #[test]
    fn join_via_nested_loop() {
        assert_eq!(
            run(
                "for { p <- Patients, g <- Genetics, p.id = g.id, p.age > 60 } \
                 yield sum g.snp"
            ),
            Value::Float(1.4)
        );
    }

    #[test]
    fn string_predicates() {
        assert_eq!(
            run("for { p <- Patients, p.city = \"geneva\" } yield count p"),
            Value::Int(2)
        );
    }

    #[test]
    fn projection_to_bag() {
        let v = run("for { p <- Patients, p.age > 60 } yield bag (id := p.id, c := p.city)");
        assert_eq!(v.elements().unwrap().len(), 2);
    }

    #[test]
    fn matches_reference_interpreter() {
        // Differential: volcano over plugins == calculus eval over values.
        let queries = [
            "for { p <- Patients } yield avg p.age",
            "for { p <- Patients, g <- Genetics, p.id = g.id } yield bag (a := p.age, s := g.snp)",
            "for { p <- Patients, p.city != \"bern\" } yield set p.city",
            "for { p <- Patients } yield all p.age > 20",
        ];
        let cat = catalog();
        let mut env = Bindings::new();
        env.insert("Patients".into(), cat.materialize("Patients").unwrap());
        env.insert("Genetics".into(), cat.materialize("Genetics").unwrap());
        for q in queries {
            let expr = parse(q).unwrap();
            let direct = eval(&expr, &env).unwrap();
            let plan = rewrite(&lower(&expr).unwrap());
            let via = run_volcano(&plan, &cat).unwrap();
            assert_eq!(direct, via, "volcano deviates for {q}");
        }
    }

    #[test]
    fn nested_head_materializes_dataset() {
        let v = run("for { g <- Genetics } yield bag \
             (id := g.id, \
              meta := for { p <- Patients, p.id = g.id } yield list p.city)");
        let items = v.elements().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(
            items[0].field("meta").unwrap().elements().unwrap(),
            &[Value::str("geneva")]
        );
    }

    #[test]
    fn every_executor_rejects_a_non_reduce_root_and_a_nested_reduce() {
        let cat = catalog();
        let mut env = Bindings::new();
        env.insert("Patients".into(), cat.materialize("Patients").unwrap());
        let reduce =
            rewrite(&lower(&parse("for { p <- Patients } yield count p").unwrap()).unwrap());
        let Plan::Reduce { input, .. } = &reduce else {
            panic!("lowering yields a Reduce root: {reduce}");
        };
        let nested = Plan::Reduce {
            input: Box::new(Plan::Select {
                input: Box::new(reduce.clone()),
                predicate: parse("true").unwrap(),
            }),
            monoid: Monoid::Primitive(PrimitiveMonoid::Count),
            head: parse("1").unwrap(),
        };
        for plan in [input.as_ref(), &nested] {
            let jit = crate::run_jit_with_stats(plan, &cat, &Default::default()).map(|(v, _)| v);
            for (engine, result) in [
                ("algebra", vida_algebra::execute_plan(plan, &env)),
                ("volcano", run_volcano(plan, &cat)),
                ("jit", jit),
            ] {
                let err = result.unwrap_err();
                assert_eq!(err.kind(), "plan", "{engine} {plan}: {err}");
            }
        }
    }

    #[test]
    fn unknown_dataset_is_catalog_error() {
        let plan = rewrite(&lower(&parse("for { x <- Missing } yield sum 1").unwrap()).unwrap());
        assert_eq!(
            run_volcano(&plan, &catalog()).unwrap_err().kind(),
            "catalog"
        );
    }
}
