//! The plan interpreter — the "pre-cooked static operators" engine of §4
//! and the semantic oracle of the generated pipelines.
//!
//! Executes a `Reduce`-rooted [`Plan`] tuple at a time: generic operators
//! over name→value binding maps, every predicate, path and head through the
//! calculus interpreter, nested-loop joins — exactly the interpretation
//! overheads code generation removes. Rows are pushed from the leftmost
//! scan into the fold; the right side of each join is the only thing
//! buffered.
//!
//! Scans read their units through a [`Source`]: [`execute_plan`] reads
//! in-memory datasets bound in a [`Bindings`] map, and `vida-exec`'s
//! `run_volcano` reads a query's input plugins one unit at a time.

use crate::lower::UNIT_DATASET;
use crate::plan::Plan;
use vida_lang::{eval, Bindings};
use vida_types::{Result, Value, VidaError};

/// Where a scan's units come from.
pub trait Source {
    /// Feed every unit of `dataset` to `emit`, in order.
    fn scan(&self, dataset: &str, emit: &mut dyn FnMut(Value) -> Result<()>) -> Result<()>;
}

/// Datasets as values: dataset name → collection.
impl Source for Bindings {
    fn scan(&self, dataset: &str, emit: &mut dyn FnMut(Value) -> Result<()>) -> Result<()> {
        let coll = self
            .get(dataset)
            .ok_or_else(|| VidaError::Unresolved(dataset.to_string()))?;
        let items = coll
            .elements()
            .ok_or_else(|| VidaError::Exec(format!("dataset '{dataset}' is not a collection")))?;
        items.iter().try_for_each(|item| emit(item.clone()))
    }
}

/// Execute a plan against datasets bound in `env` (dataset name → collection
/// value). Returns the reduced result.
pub fn execute_plan(plan: &Plan, env: &Bindings) -> Result<Value> {
    interpret(plan, env, env)
}

/// Execute a `Reduce`-rooted plan whose scans read `source`; `env` binds
/// the free names of its expressions (the datasets nested comprehensions
/// range over). Any other root, or a `Reduce` as an operator input, is a
/// `plan` error: nested reductions are evaluated through expression heads.
pub fn interpret(plan: &Plan, source: &dyn Source, env: &Bindings) -> Result<Value> {
    let Plan::Reduce {
        input,
        monoid,
        head,
    } = plan
    else {
        return Err(VidaError::Plan(
            "the plan interpreter expects a Reduce-rooted plan".into(),
        ));
    };
    let mut acc = monoid.zero();
    push_rows(input, source, env, &mut |row| {
        let v = eval(head, row)?;
        acc = monoid.merge(std::mem::replace(&mut acc, Value::Null), monoid.unit(v))?;
        Ok(())
    })?;
    monoid.finalize(acc)
}

/// Push every binding row `plan` produces into `emit`.
fn push_rows(
    plan: &Plan,
    source: &dyn Source,
    env: &Bindings,
    emit: &mut dyn FnMut(&Bindings) -> Result<()>,
) -> Result<()> {
    match plan {
        Plan::Scan { dataset, binding } => {
            let mut row = env.clone();
            let mut emit_unit = |unit: Value| {
                bind(&mut row, binding, unit);
                emit(&row)
            };
            if dataset == UNIT_DATASET {
                // The synthetic one-row relation for constant queries.
                emit_unit(Value::Null)
            } else {
                source.scan(dataset, &mut emit_unit)
            }
        }
        Plan::Select { input, predicate } => {
            push_rows(input, source, env, &mut |row| match eval(predicate, row)? {
                Value::Bool(true) => emit(row),
                Value::Bool(false) => Ok(()),
                other => Err(VidaError::Exec(format!(
                    "selection predicate not boolean: {other}"
                ))),
            })
        }
        Plan::Join {
            left,
            right,
            predicate,
        } => {
            // Nested loops over a buffered right side: the static engine has
            // no per-query key extraction.
            let right_vars = right.bound_vars();
            let mut right_rows: Vec<Vec<Value>> = Vec::new();
            push_rows(right, source, env, &mut |row| {
                right_rows.push(
                    right_vars
                        .iter()
                        .map(|v| row.get(v).cloned().unwrap_or(Value::Null))
                        .collect(),
                );
                Ok(())
            })?;
            push_rows(left, source, env, &mut |l| {
                let mut row = l.clone();
                for r in &right_rows {
                    for (var, val) in right_vars.iter().zip(r) {
                        bind(&mut row, var, val.clone());
                    }
                    match eval(predicate, &row)? {
                        Value::Bool(true) => emit(&row)?,
                        Value::Bool(false) => {}
                        other => {
                            return Err(VidaError::Exec(format!(
                                "join predicate not boolean: {other}"
                            )))
                        }
                    }
                }
                Ok(())
            })
        }
        Plan::Unnest {
            input,
            binding,
            path,
        } => push_rows(input, source, env, &mut |row| {
            let coll = eval(path, row)?;
            let items = coll.elements().ok_or_else(|| {
                VidaError::Exec(format!("unnest path {path} produced non-collection"))
            })?;
            let mut row = row.clone();
            for item in items {
                bind(&mut row, binding, item.clone());
                emit(&row)?;
            }
            Ok(())
        }),
        Plan::Reduce { .. } => Err(VidaError::Plan(
            "nested Reduce operators are evaluated through expression heads".into(),
        )),
    }
}

/// Bind `name` to `value` in `row`, reusing the key once it is there.
fn bind(row: &mut Bindings, name: &str, value: Value) {
    match row.get_mut(name) {
        Some(slot) => *slot = value,
        None => {
            row.insert(name.to_string(), value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use vida_lang::parse;

    fn env() -> Bindings {
        let mut e = Bindings::new();
        e.insert(
            "Employees".into(),
            Value::bag(vec![
                Value::record([
                    ("id", Value::Int(1)),
                    ("deptNo", Value::Int(10)),
                    ("age", Value::Int(45)),
                ]),
                Value::record([
                    ("id", Value::Int(2)),
                    ("deptNo", Value::Int(20)),
                    ("age", Value::Int(30)),
                ]),
                Value::record([
                    ("id", Value::Int(3)),
                    ("deptNo", Value::Int(10)),
                    ("age", Value::Int(52)),
                ]),
            ]),
        );
        e.insert(
            "Departments".into(),
            Value::bag(vec![
                Value::record([("id", Value::Int(10)), ("deptName", Value::str("HR"))]),
                Value::record([("id", Value::Int(20)), ("deptName", Value::str("Eng"))]),
            ]),
        );
        e.insert(
            "Regions".into(),
            Value::bag(vec![
                Value::record([
                    ("id", Value::Int(1)),
                    ("voxels", Value::list(vec![Value::Int(5), Value::Int(15)])),
                ]),
                Value::record([
                    ("id", Value::Int(2)),
                    ("voxels", Value::list(vec![Value::Int(25)])),
                ]),
            ]),
        );
        e
    }

    fn run(q: &str) -> Value {
        let plan = lower(&parse(q).unwrap()).unwrap();
        execute_plan(&plan, &env()).unwrap()
    }

    /// Differential check: algebra result == calculus interpreter result.
    fn differential(q: &str) {
        let expr = parse(q).unwrap();
        let direct = vida_lang::eval(&expr, &env()).unwrap();
        let via_plan = run(q);
        assert_eq!(direct, via_plan, "algebra deviates from calculus for {q}");
    }

    #[test]
    fn scan_select_reduce_matches_calculus() {
        differential("for { e <- Employees, e.age > 40 } yield sum e.age");
        differential("for { e <- Employees } yield count e");
        differential("for { e <- Employees } yield avg e.age");
        differential("for { e <- Employees, e.age > 100 } yield max e.age");
    }

    #[test]
    fn join_matches_calculus() {
        differential(
            "for { e <- Employees, d <- Departments, e.deptNo = d.id, \
             d.deptName = \"HR\" } yield sum 1",
        );
        differential(
            "for { e <- Employees, d <- Departments, e.deptNo = d.id } \
             yield bag (n := e.id, d := d.deptName)",
        );
    }

    #[test]
    fn unnest_matches_calculus() {
        differential("for { r <- Regions, v <- r.voxels } yield sum v");
        differential("for { r <- Regions, v <- r.voxels, v > 10 } yield count v");
        differential("for { r <- Regions, v <- r.voxels } yield bag (id := r.id, v := v)");
    }

    #[test]
    fn set_and_list_monoids() {
        differential("for { e <- Employees } yield set e.deptNo");
        differential("for { e <- Employees } yield list e.id");
    }

    #[test]
    fn three_way_join() {
        differential(
            "for { e <- Employees, d <- Departments, r <- Regions, \
             e.deptNo = d.id, r.id = e.id } yield count e",
        );
    }

    #[test]
    fn constant_queries() {
        assert_eq!(run("1 + 2"), Value::Int(3));
        assert_eq!(run("if 1 > 2 then 1 else 0"), Value::Int(0));
    }

    #[test]
    fn list_literal_source() {
        differential("for { x <- [1, 2, 3], x > 1 } yield sum x");
    }

    #[test]
    fn nested_head_comprehension() {
        differential(
            "for { d <- Departments } yield bag \
             (dept := d.deptName, \
              ages := for { e <- Employees, e.deptNo = d.id } yield list e.age)",
        );
    }

    #[test]
    fn unknown_dataset_errors() {
        let plan = lower(&parse("for { x <- Nope } yield sum 1").unwrap()).unwrap();
        assert_eq!(
            execute_plan(&plan, &env()).unwrap_err().kind(),
            "unresolved"
        );
    }
}
