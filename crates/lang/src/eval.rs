//! Reference interpreter for the calculus.
//!
//! Direct, naive evaluation of comprehension expressions against in-memory
//! values. This is deliberately the *slow* semantics-first implementation:
//! the algebra lowering, the interpreted Volcano engine, and the JIT
//! pipelines are all differentially tested against it.
//!
//! Null semantics (documented choice, simpler than SQL's three-valued
//! logic): `=`/`!=` treat `null` as a comparable value (`null = null` is
//! true); ordered comparisons involving `null` are false; arithmetic on
//! `null` yields `null`; `null` in a boolean position is an error.

use crate::ast::{BinOp, Expr, Qualifier, UnOp};
use std::collections::HashMap;
use vida_types::{Monoid, Result, Value, VidaError};

/// Variable bindings for evaluation: maps names (dataset names, generator
/// variables) to values.
pub type Bindings = HashMap<String, Value>;

/// Evaluate an expression under the given bindings.
pub fn eval(expr: &Expr, env: &Bindings) -> Result<Value> {
    match expr {
        Expr::Const(v) => Ok(v.clone()),
        Expr::Var(name) => env
            .get(name)
            .cloned()
            .ok_or_else(|| VidaError::Unresolved(name.clone())),
        Expr::Proj(e, field) => {
            let v = eval(e, env)?;
            match &v {
                Value::Null => Ok(Value::Null),
                Value::Record(_) => v
                    .field(field)
                    .cloned()
                    .ok_or_else(|| VidaError::Exec(format!("no field '{field}' in {v}"))),
                other => Err(VidaError::Exec(format!(
                    "projection .{field} on non-record {other}"
                ))),
            }
        }
        Expr::Record(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (n, e) in fields {
                out.push((n.clone(), eval(e, env)?));
            }
            Ok(Value::Record(out))
        }
        Expr::If(c, t, f) => match eval(c, env)? {
            Value::Bool(true) => eval(t, env),
            Value::Bool(false) => eval(f, env),
            other => Err(VidaError::Exec(format!(
                "if condition not boolean: {other}"
            ))),
        },
        Expr::BinOp(op, l, r) => {
            // Short-circuit boolean connectives.
            match op {
                BinOp::And => {
                    let lv = eval(l, env)?;
                    match lv.as_bool() {
                        Some(false) => return Ok(Value::Bool(false)),
                        Some(true) => {}
                        None => return Err(VidaError::Exec(format!("'and' on non-boolean {lv}"))),
                    }
                    return eval(r, env);
                }
                BinOp::Or => {
                    let lv = eval(l, env)?;
                    match lv.as_bool() {
                        Some(true) => return Ok(Value::Bool(true)),
                        Some(false) => {}
                        None => return Err(VidaError::Exec(format!("'or' on non-boolean {lv}"))),
                    }
                    return eval(r, env);
                }
                _ => {}
            }
            let lv = eval(l, env)?;
            let rv = eval(r, env)?;
            apply_binop(*op, lv, rv)
        }
        Expr::UnOp(UnOp::Not, e) => match eval(e, env)? {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(VidaError::Exec(format!("'not' on non-boolean {other}"))),
        },
        Expr::UnOp(UnOp::Neg, e) => match eval(e, env)? {
            Value::Int(i) => i
                .checked_neg()
                .map(Value::Int)
                .ok_or_else(|| VidaError::Exec("integer overflow in -".into())),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Null => Ok(Value::Null),
            other => Err(VidaError::Exec(format!("negation of non-number {other}"))),
        },
        Expr::Lambda(..) => Err(VidaError::Exec(
            "bare lambda has no runtime value; apply it".into(),
        )),
        Expr::App(f, a) => match f.as_ref() {
            Expr::Lambda(v, body) => {
                let arg = eval(a, env)?;
                let mut env2 = env.clone();
                env2.insert(v.clone(), arg);
                eval(body, &env2)
            }
            other => Err(VidaError::Exec(format!(
                "application of non-lambda expression {other}"
            ))),
        },
        Expr::Zero(m) => Ok(m.zero()),
        Expr::Singleton(m, e) => {
            let v = eval(e, env)?;
            m.unit(v)
        }
        Expr::Merge(m, l, r) => {
            let lv = eval(l, env)?;
            let rv = eval(r, env)?;
            m.finalize(m.merge(lv, rv)?)
        }
        Expr::Comprehension {
            monoid,
            head,
            qualifiers,
        } => {
            let mut acc = monoid.zero();
            eval_qualifiers(qualifiers, 0, head, *monoid, &mut env.clone(), &mut acc)?;
            monoid.finalize(acc)
        }
        Expr::ListLit(items) => {
            let mut out = Vec::with_capacity(items.len());
            for e in items {
                out.push(eval(e, env)?);
            }
            Ok(Value::list(out))
        }
    }
}

/// Recursive qualifier evaluation: generators drive nested loops, filters
/// prune, and each complete binding evaluates the head into the accumulator.
fn eval_qualifiers(
    qualifiers: &[Qualifier],
    idx: usize,
    head: &Expr,
    monoid: Monoid,
    env: &mut Bindings,
    acc: &mut Value,
) -> Result<()> {
    if idx == qualifiers.len() {
        let v = eval(head, env)?;
        let merged = monoid.merge(std::mem::replace(acc, Value::Null), monoid.unit(v)?)?;
        *acc = merged;
        return Ok(());
    }
    match &qualifiers[idx] {
        Qualifier::Generator(var, source) => {
            let coll = eval(source, env)?;
            let items = match coll.elements() {
                Some(items) => items.to_vec(),
                None => {
                    return Err(VidaError::Exec(format!(
                        "generator '{var}' over non-collection {coll}"
                    )))
                }
            };
            let saved = env.get(var).cloned();
            for item in items {
                env.insert(var.clone(), item);
                eval_qualifiers(qualifiers, idx + 1, head, monoid, env, acc)?;
            }
            match saved {
                Some(v) => {
                    env.insert(var.clone(), v);
                }
                None => {
                    env.remove(var);
                }
            }
            Ok(())
        }
        Qualifier::Filter(pred) => match eval(pred, env)? {
            Value::Bool(true) => eval_qualifiers(qualifiers, idx + 1, head, monoid, env, acc),
            Value::Bool(false) => Ok(()),
            other => Err(VidaError::Exec(format!(
                "filter predicate not boolean: {other}"
            ))),
        },
    }
}

/// Apply a binary operator to two values (shared with the normalizer's
/// constant folder and the interpreted engine).
pub fn apply_binop(op: BinOp, l: Value, r: Value) -> Result<Value> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div | Mod => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            match (&l, &r) {
                (Value::Int(a), Value::Int(b)) => match op {
                    Add => a
                        .checked_add(*b)
                        .map(Value::Int)
                        .ok_or_else(|| VidaError::Exec("integer overflow in +".into())),
                    Sub => a
                        .checked_sub(*b)
                        .map(Value::Int)
                        .ok_or_else(|| VidaError::Exec("integer overflow in -".into())),
                    Mul => a
                        .checked_mul(*b)
                        .map(Value::Int)
                        .ok_or_else(|| VidaError::Exec("integer overflow in *".into())),
                    Div => {
                        if *b == 0 {
                            Err(VidaError::Exec("division by zero".into()))
                        } else {
                            a.checked_div(*b)
                                .map(Value::Int)
                                .ok_or_else(|| VidaError::Exec("integer overflow in /".into()))
                        }
                    }
                    Mod => {
                        if *b == 0 {
                            Err(VidaError::Exec("modulo by zero".into()))
                        } else {
                            a.checked_rem(*b)
                                .map(Value::Int)
                                .ok_or_else(|| VidaError::Exec("integer overflow in %".into()))
                        }
                    }
                    _ => unreachable!(),
                },
                (Value::Str(a), Value::Str(b)) if op == Add => Ok(Value::Str(format!("{a}{b}"))),
                _ => {
                    let a = l
                        .as_f64()
                        .ok_or_else(|| VidaError::Exec(format!("non-numeric operand {l}")))?;
                    let b = r
                        .as_f64()
                        .ok_or_else(|| VidaError::Exec(format!("non-numeric operand {r}")))?;
                    match op {
                        Add => Ok(Value::Float(a + b)),
                        Sub => Ok(Value::Float(a - b)),
                        Mul => Ok(Value::Float(a * b)),
                        Div => {
                            if b == 0.0 {
                                Err(VidaError::Exec("division by zero".into()))
                            } else {
                                Ok(Value::Float(a / b))
                            }
                        }
                        Mod => Err(VidaError::Exec("'%' requires integers".into())),
                        _ => unreachable!(),
                    }
                }
            }
        }
        Eq => Ok(Value::Bool(l.sem_eq(&r))),
        Ne => Ok(Value::Bool(!l.sem_eq(&r))),
        Lt | Le | Gt | Ge => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Bool(false));
            }
            let ord = l.total_cmp(&r);
            Ok(Value::Bool(match op {
                Lt => ord == std::cmp::Ordering::Less,
                Le => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            }))
        }
        And | Or => {
            let a = l
                .as_bool()
                .ok_or_else(|| VidaError::Exec(format!("boolean op on {l}")))?;
            let b = r
                .as_bool()
                .ok_or_else(|| VidaError::Exec(format!("boolean op on {r}")))?;
            Ok(Value::Bool(if op == And { a && b } else { a || b }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn employees() -> Value {
        Value::bag(vec![
            Value::record([
                ("id", Value::Int(1)),
                ("name", Value::str("ada")),
                ("deptNo", Value::Int(10)),
                ("age", Value::Int(45)),
            ]),
            Value::record([
                ("id", Value::Int(2)),
                ("name", Value::str("bob")),
                ("deptNo", Value::Int(20)),
                ("age", Value::Int(30)),
            ]),
            Value::record([
                ("id", Value::Int(3)),
                ("name", Value::str("cyd")),
                ("deptNo", Value::Int(10)),
                ("age", Value::Int(52)),
            ]),
        ])
    }

    fn departments() -> Value {
        Value::bag(vec![
            Value::record([("id", Value::Int(10)), ("deptName", Value::str("HR"))]),
            Value::record([("id", Value::Int(20)), ("deptName", Value::str("Eng"))]),
        ])
    }

    fn env() -> Bindings {
        let mut e = Bindings::new();
        e.insert("Employees".into(), employees());
        e.insert("Departments".into(), departments());
        e
    }

    fn run(q: &str) -> Value {
        eval(&parse(q).unwrap(), &env()).unwrap()
    }

    #[test]
    fn paper_count_query() {
        // SELECT COUNT(e.id) ... WHERE d.deptName = 'HR' — two HR employees.
        let v = run("for { e <- Employees, d <- Departments, \
             e.deptNo = d.id, d.deptName = \"HR\" } yield sum 1");
        assert_eq!(v, Value::Int(2));
    }

    #[test]
    fn join_projection_bag() {
        let v = run("for { e <- Employees, d <- Departments, e.deptNo = d.id } \
             yield bag (n := e.name, d := d.deptName)");
        let items = v.elements().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(
            items[0],
            Value::record([("n", Value::str("ada")), ("d", Value::str("HR"))])
        );
    }

    #[test]
    fn aggregates() {
        assert_eq!(
            run("for { e <- Employees } yield max e.age"),
            Value::Int(52)
        );
        assert_eq!(
            run("for { e <- Employees } yield min e.age"),
            Value::Int(30)
        );
        assert_eq!(
            run("for { e <- Employees } yield avg e.age"),
            Value::Float((45 + 30 + 52) as f64 / 3.0)
        );
        assert_eq!(
            run("for { e <- Employees } yield sum e.age"),
            Value::Int(127)
        );
    }

    #[test]
    fn quantifiers() {
        assert_eq!(
            run("for { e <- Employees } yield and e.age > 20"),
            Value::Bool(true)
        );
        assert_eq!(
            run("for { e <- Employees } yield any e.age > 50"),
            Value::Bool(true)
        );
        assert_eq!(
            run("for { e <- Employees } yield all e.age > 40"),
            Value::Bool(false)
        );
    }

    #[test]
    fn nested_comprehension_builds_nested_value() {
        let v = run("for { d <- Departments } yield list \
             (dept := d.deptName, \
              staff := for { e <- Employees, e.deptNo = d.id } yield list e.name)");
        let items = v.elements().unwrap();
        assert_eq!(items.len(), 2);
        let staff0 = items[0].field("staff").unwrap();
        assert_eq!(
            staff0.elements().unwrap(),
            &[Value::str("ada"), Value::str("cyd")]
        );
    }

    #[test]
    fn set_semantics_dedup() {
        let v = run("for { e <- Employees } yield set e.deptNo");
        assert_eq!(v.elements().unwrap().len(), 2);
    }

    #[test]
    fn filters_prune() {
        let v = run("for { e <- Employees, e.age >= 45, e.deptNo = 10 } yield count e");
        assert_eq!(v, Value::Int(2));
    }

    #[test]
    fn empty_generator_gives_zero() {
        let v = run("for { e <- Employees, e.age > 100 } yield sum e.age");
        assert_eq!(v, Value::Int(0));
        let m = run("for { e <- Employees, e.age > 100 } yield max e.age");
        assert_eq!(m, Value::Null);
    }

    #[test]
    fn if_and_arithmetic() {
        let v = run("for { e <- Employees } yield sum (if e.age > 40 then 1 else 0)");
        assert_eq!(v, Value::Int(2));
        assert_eq!(run("3 + 4 * 2"), Value::Int(11));
        assert_eq!(run("7 / 2"), Value::Int(3));
        assert_eq!(run("7.0 / 2"), Value::Float(3.5));
        assert_eq!(run("7 % 3"), Value::Int(1));
        assert_eq!(run("\"a\" + \"b\""), Value::str("ab"));
    }

    #[test]
    fn short_circuit_boolean() {
        // The right side would error (1/0) if evaluated.
        assert_eq!(run("false and (1 / 0 = 1)"), Value::Bool(false));
        assert_eq!(run("true or (1 / 0 = 1)"), Value::Bool(true));
    }

    #[test]
    fn null_semantics() {
        assert_eq!(run("null = null"), Value::Bool(true));
        assert_eq!(run("null != 3"), Value::Bool(true));
        assert_eq!(run("null < 3"), Value::Bool(false));
        assert_eq!(run("null + 3"), Value::Null);
        assert_eq!(run("-(null)"), Value::Null);
    }

    #[test]
    fn projection_through_null_propagates() {
        let mut e = Bindings::new();
        e.insert("x".into(), Value::Null);
        assert_eq!(
            eval(&parse("x.anything").unwrap(), &e).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn lambda_application() {
        assert_eq!(run("(\\x -> x * x)(7)"), Value::Int(49));
        assert_eq!(run("(\\f -> f)(1) + 1"), Value::Int(2));
    }

    #[test]
    fn runtime_errors() {
        assert_eq!(run_err("1 / 0"), "exec");
        assert_eq!(run_err("nosuchvar"), "unresolved");
        assert_eq!(run_err("1.noField"), "exec");
        assert_eq!(run_err("if 3 then 1 else 2"), "exec");
        assert_eq!(run_err("for { x <- 42 } yield sum x"), "exec");
        assert_eq!(run_err("for { e <- Employees, e.age } yield sum 1"), "exec");
    }

    #[test]
    fn integer_overflow_is_an_error_not_a_panic() {
        let mut e = Bindings::new();
        e.insert("x".into(), Value::Int(i64::MIN));
        e.insert("y".into(), Value::Int(-1));
        for (q, msg) in [
            ("x / y", "integer overflow in /"),
            ("x % y", "integer overflow in %"),
            ("-x", "integer overflow in -"),
        ] {
            let err = eval(&parse(q).unwrap(), &e).unwrap_err();
            assert_eq!(err.kind(), "exec", "{q}");
            assert!(err.to_string().contains(msg), "{q}: {err}");
        }
    }

    fn run_err(q: &str) -> &'static str {
        eval(&parse(q).unwrap(), &env()).unwrap_err().kind()
    }

    #[test]
    fn merge_and_unit_forms() {
        assert_eq!(run("merge[sum](3, 4)"), Value::Int(7));
        let v = run("merge[bag](unit[bag](1), unit[bag](2))");
        assert_eq!(v.elements().unwrap().len(), 2);
        assert_eq!(
            run("merge[avg](unit[avg](2), unit[avg](4))"),
            Value::Float(3.0)
        );
    }

    #[test]
    fn generator_over_list_literal() {
        assert_eq!(run("for { x <- [1, 2, 3] } yield sum x"), Value::Int(6));
    }

    #[test]
    fn generator_variable_restored_after_loop() {
        // Outer x rebound by the generator must be visible again afterwards
        // (checked by using x in a second comprehension in sequence).
        let mut e = env();
        e.insert("x".into(), Value::Int(99));
        let q = parse("for { x <- [1], x = 1 } yield sum x").unwrap();
        assert_eq!(eval(&q, &e).unwrap(), Value::Int(1));
        assert_eq!(e.get("x"), Some(&Value::Int(99)));
    }
}
