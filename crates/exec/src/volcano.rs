//! The interpreted Volcano engine — the "pre-cooked static operators"
//! comparator (§4).
//!
//! Generic operators, tagged values, dynamic dispatch, per-tuple expression
//! interpretation: exactly the interpretation overheads code generation
//! removes. Every operator materializes `Bindings` (a name→value map) per
//! tuple; predicates run through the calculus interpreter.
//!
//! This engine is also a correctness oracle: it shares no code with the JIT
//! pipelines beyond the plugins, so agreement between the two is strong
//! evidence for both.

use crate::catalog::{QueryBinding, SourceProvider};
use vida_algebra::lower::UNIT_DATASET;
use vida_algebra::Plan;
use vida_lang::{eval, Bindings, Expr};
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
    match plan {
        Plan::Reduce {
            input,
            monoid,
            head,
        } => {
            let mut acc = monoid.zero();
            let mut iter = build_operator(input, catalog, &env)?;
            while let Some(row) = iter.next()? {
                let v = eval(head, &row)?;
                acc = monoid.merge(acc, monoid.unit(v))?;
            }
            monoid.finalize(acc)
        }
        _ => Err(VidaError::Plan(
            "volcano executor expects a Reduce-rooted plan".into(),
        )),
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

/// A pull-based operator: `next` yields one binding map per tuple.
trait Operator {
    fn next(&mut self) -> Result<Option<Bindings>>;
}

fn build_operator(
    plan: &Plan,
    catalog: &dyn SourceProvider,
    env: &Bindings,
) -> Result<Box<dyn Operator>> {
    match plan {
        Plan::Scan { dataset, binding } => {
            if dataset == UNIT_DATASET {
                return Ok(Box::new(UnitScan {
                    binding: binding.clone(),
                    env: env.clone(),
                    done: false,
                }));
            }
            let plugin = catalog.plugin(dataset)?;
            Ok(Box::new(ScanOp {
                plugin,
                binding: binding.clone(),
                env: env.clone(),
                row: 0,
            }))
        }
        Plan::Select { input, predicate } => Ok(Box::new(SelectOp {
            input: build_operator(input, catalog, env)?,
            predicate: predicate.clone(),
        })),
        Plan::Join {
            left,
            right,
            predicate,
        } => {
            // Generic nested-loop join with a materialized right side — the
            // static engine has no per-query key extraction.
            let mut right_rows = Vec::new();
            let mut r = build_operator(right, catalog, env)?;
            while let Some(row) = r.next()? {
                right_rows.push(row);
            }
            Ok(Box::new(NlJoinOp {
                left: build_operator(left, catalog, env)?,
                right_rows,
                right_vars: right.bound_vars(),
                predicate: predicate.clone(),
                current_left: None,
                right_pos: 0,
            }))
        }
        Plan::Unnest {
            input,
            binding,
            path,
        } => Ok(Box::new(UnnestOp {
            input: build_operator(input, catalog, env)?,
            binding: binding.clone(),
            path: path.clone(),
            pending: Vec::new(),
            current: None,
        })),
        Plan::Reduce { .. } => Err(VidaError::Plan(
            "nested Reduce operators are evaluated through expression heads".into(),
        )),
    }
}

struct UnitScan {
    binding: String,
    env: Bindings,
    done: bool,
}

impl Operator for UnitScan {
    fn next(&mut self) -> Result<Option<Bindings>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let mut row = self.env.clone();
        row.insert(self.binding.clone(), Value::Null);
        Ok(Some(row))
    }
}

struct ScanOp {
    plugin: std::sync::Arc<dyn vida_formats::InputPlugin>,
    binding: String,
    env: Bindings,
    row: usize,
}

impl Operator for ScanOp {
    fn next(&mut self) -> Result<Option<Bindings>> {
        if self.row >= self.plugin.num_units() {
            return Ok(None);
        }
        // The generic engine always materializes the whole unit — it has no
        // query-specific projection (that is the point of the comparison).
        let unit = self.plugin.read_unit(self.row)?;
        self.row += 1;
        let mut row = self.env.clone();
        row.insert(self.binding.clone(), unit);
        Ok(Some(row))
    }
}

struct SelectOp {
    input: Box<dyn Operator>,
    predicate: Expr,
}

impl Operator for SelectOp {
    fn next(&mut self) -> Result<Option<Bindings>> {
        while let Some(row) = self.input.next()? {
            match eval(&self.predicate, &row)? {
                Value::Bool(true) => return Ok(Some(row)),
                Value::Bool(false) => {}
                other => {
                    return Err(VidaError::Exec(format!(
                        "selection predicate not boolean: {other}"
                    )))
                }
            }
        }
        Ok(None)
    }
}

struct NlJoinOp {
    left: Box<dyn Operator>,
    right_rows: Vec<Bindings>,
    right_vars: Vec<String>,
    predicate: Expr,
    current_left: Option<Bindings>,
    right_pos: usize,
}

impl Operator for NlJoinOp {
    fn next(&mut self) -> Result<Option<Bindings>> {
        loop {
            if self.current_left.is_none() {
                self.current_left = self.left.next()?;
                self.right_pos = 0;
                if self.current_left.is_none() {
                    return Ok(None);
                }
            }
            let l = self.current_left.as_ref().expect("set above");
            while self.right_pos < self.right_rows.len() {
                let r = &self.right_rows[self.right_pos];
                self.right_pos += 1;
                let mut row = l.clone();
                for v in &self.right_vars {
                    if let Some(val) = r.get(v) {
                        row.insert(v.clone(), val.clone());
                    }
                }
                match eval(&self.predicate, &row)? {
                    Value::Bool(true) => return Ok(Some(row)),
                    Value::Bool(false) => {}
                    other => {
                        return Err(VidaError::Exec(format!(
                            "join predicate not boolean: {other}"
                        )))
                    }
                }
            }
            self.current_left = None;
        }
    }
}

struct UnnestOp {
    input: Box<dyn Operator>,
    binding: String,
    path: Expr,
    pending: Vec<Value>,
    current: Option<Bindings>,
}

impl Operator for UnnestOp {
    fn next(&mut self) -> Result<Option<Bindings>> {
        loop {
            if let Some(item) = self.pending.pop() {
                let mut row = self.current.clone().expect("current row set");
                row.insert(self.binding.clone(), item);
                return Ok(Some(row));
            }
            match self.input.next()? {
                None => return Ok(None),
                Some(row) => {
                    let coll = eval(&self.path, &row)?;
                    let items = coll.elements().ok_or_else(|| {
                        VidaError::Exec(format!(
                            "unnest path {} produced non-collection",
                            self.path
                        ))
                    })?;
                    // Reverse so pop() yields original order.
                    self.pending = items.iter().rev().cloned().collect();
                    self.current = Some(row);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::MemoryCatalog;
    use vida_algebra::{lower, rewrite};
    use vida_lang::parse;
    use vida_types::{Schema, Type};

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
    fn unknown_dataset_is_catalog_error() {
        let plan = rewrite(&lower(&parse("for { x <- Missing } yield sum 1").unwrap()).unwrap());
        assert_eq!(
            run_volcano(&plan, &catalog()).unwrap_err().kind(),
            "catalog"
        );
    }
}
