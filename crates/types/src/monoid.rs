//! The monoid framework (ViDa §3.2, Table 1).
//!
//! A monoid `(⊕, Z⊕)` is an associative binary *merge* with identity `Z⊕`.
//! Collection monoids additionally carry a *unit* function `U⊕(x)` building a
//! singleton collection. Comprehensions `⊕{ e | q1..qn }` evaluate `e` under
//! each binding produced by the qualifiers and fold the results with `⊕`.
//!
//! Primitive monoids here: `sum`, `prod`, `count`, `max`, `min`, `avg`
//! (tracked as a (sum,count) pair internally), `and` (∧), `or` (∨).
//! Collection monoids: `set`, `bag`, `list`, `array`.
//!
//! Primitive folds run unboxed: a [`Partial`] carries the accumulator as an
//! `i64`, `f64` or `bool` (`avg` as its `(sum, count)` pair), and
//! [`PrimitiveMonoid::merge`] is the one copy of the primitive semantics —
//! [`Monoid::merge`] on boxed [`Value`]s runs through it too.
//!
//! Properties (tested, incl. by proptest in this crate):
//! - all monoids: associativity, left/right identity;
//! - commutative monoids: `sum, prod, count, max, min, and, or, set, bag`;
//! - idempotent monoids: `max, min, and, or, set`.
//!
//! The optimizer relies on these properties: e.g. a non-commutative
//! accumulator (list) forbids generator reordering, and idempotence is what
//! makes duplicate elimination for sets correct.

use crate::error::{Result, VidaError};
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// Kinds of collection monoids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CollectionKind {
    Set,
    Bag,
    List,
    Array,
}

impl CollectionKind {
    pub fn name(&self) -> &'static str {
        match self {
            CollectionKind::Set => "set",
            CollectionKind::Bag => "bag",
            CollectionKind::List => "list",
            CollectionKind::Array => "array",
        }
    }

    /// Commutative merge? (element order irrelevant)
    pub fn commutative(&self) -> bool {
        matches!(self, CollectionKind::Set | CollectionKind::Bag)
    }

    /// Idempotent merge? (duplicates collapse)
    pub fn idempotent(&self) -> bool {
        matches!(self, CollectionKind::Set)
    }
}

/// Primitive (scalar-valued) monoids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimitiveMonoid {
    Sum,
    Prod,
    Count,
    Max,
    Min,
    Avg,
    /// Boolean conjunction (universal quantification).
    All,
    /// Boolean disjunction (existential quantification).
    Any,
}

impl PrimitiveMonoid {
    pub fn name(&self) -> &'static str {
        match self {
            PrimitiveMonoid::Sum => "sum",
            PrimitiveMonoid::Prod => "prod",
            PrimitiveMonoid::Count => "count",
            PrimitiveMonoid::Max => "max",
            PrimitiveMonoid::Min => "min",
            PrimitiveMonoid::Avg => "avg",
            PrimitiveMonoid::All => "all",
            PrimitiveMonoid::Any => "any",
        }
    }

    /// Parse a monoid name as it appears after `yield`.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "sum" => PrimitiveMonoid::Sum,
            "prod" => PrimitiveMonoid::Prod,
            "count" => PrimitiveMonoid::Count,
            "max" => PrimitiveMonoid::Max,
            "min" => PrimitiveMonoid::Min,
            "avg" => PrimitiveMonoid::Avg,
            "all" | "and" => PrimitiveMonoid::All,
            "any" | "or" | "some" => PrimitiveMonoid::Any,
            _ => return None,
        })
    }

    pub fn commutative(&self) -> bool {
        true // every primitive monoid here is commutative
    }

    pub fn idempotent(&self) -> bool {
        matches!(
            self,
            PrimitiveMonoid::Max
                | PrimitiveMonoid::Min
                | PrimitiveMonoid::All
                | PrimitiveMonoid::Any
        )
    }

    /// The zero element `Z⊕` as an unboxed accumulator.
    pub fn zero(self) -> Partial {
        match self {
            PrimitiveMonoid::Sum | PrimitiveMonoid::Count => Partial::Int(0),
            PrimitiveMonoid::Prod => Partial::Int(1),
            PrimitiveMonoid::Max | PrimitiveMonoid::Min => Partial::Null,
            PrimitiveMonoid::Avg => Partial::Avg(0.0, 0),
            PrimitiveMonoid::All => Partial::Bool(true),
            PrimitiveMonoid::Any => Partial::Bool(false),
        }
    }

    /// The unit function `U⊕(x)` over unboxed elements. An `avg` element
    /// must be a number: a null or non-numeric one fails as under `sum`.
    pub fn unit(self, x: Partial) -> Result<Partial> {
        Ok(match self {
            PrimitiveMonoid::Count => Partial::Int(1),
            PrimitiveMonoid::Avg => match x.as_f64() {
                Some(f) => Partial::Avg(f, 1),
                None => return Err(VidaError::Exec(format!("avg: non-numeric {x}"))),
            },
            _ => x,
        })
    }

    /// The merge function `a ⊕ b` — the one copy of the primitive
    /// semantics: checked integer arithmetic, int→float promotion, `Null`
    /// as the identity of `max`/`min`, and `avg`'s `(sum, count)` pair.
    /// [`Monoid::merge`] runs its primitive arms through here.
    pub fn merge(self, a: Partial, b: Partial) -> Result<Partial> {
        use PrimitiveMonoid::*;
        match self {
            Sum => numeric_binop(a, b, "sum", |x, y| x + y, |x, y| x.checked_add(y)),
            Prod => numeric_binop(a, b, "prod", |x, y| x * y, |x, y| x.checked_mul(y)),
            Count => numeric_binop(a, b, "count", |x, y| x + y, |x, y| x.checked_add(y)),
            Max | Min => Ok(match (a, b) {
                (Partial::Null, x) | (x, Partial::Null) => x,
                (x, y) => {
                    let (x, y) = (x.into_value(), y.into_value());
                    let keep = if self == Max {
                        Ordering::Less
                    } else {
                        Ordering::Greater
                    };
                    Partial::from(if x.total_cmp(&y) == keep { y } else { x })
                }
            }),
            Avg => {
                let (s1, c1) = avg_parts(&a)?;
                let (s2, c2) = avg_parts(&b)?;
                Ok(Partial::Avg(s1 + s2, c1 + c2))
            }
            All => bool_binop(a, b, "all", |x, y| x && y),
            Any => bool_binop(a, b, "any", |x, y| x || y),
        }
    }

    /// One fold step `acc ← acc ⊕ U⊕(x)`, in place. The unboxed cases
    /// update the accumulator directly; every other case — promotion,
    /// overflow, type errors, boxed values — falls through to
    /// [`PrimitiveMonoid::merge`], so both routes give the same result.
    #[inline(always)]
    pub fn step(self, acc: &mut Partial, x: Partial) -> Result<()> {
        match self.step_in_place(acc, &x) {
            true => Ok(()),
            false => self.step_by_merge(acc, x),
        }
    }

    /// The unboxed arms of [`PrimitiveMonoid::step`]: `false` (accumulator
    /// untouched) for every case they do not cover.
    #[inline(always)]
    fn step_in_place(self, acc: &mut Partial, x: &Partial) -> bool {
        use PrimitiveMonoid::*;
        match (self, acc, x) {
            (Sum, Partial::Int(a), Partial::Int(b)) => checked_in_place(a, a.checked_add(*b)),
            (Sum, Partial::Float(a), Partial::Float(b)) => {
                *a += b;
                true
            }
            (Sum, Partial::Float(a), Partial::Int(b)) => {
                *a += *b as f64;
                true
            }
            (Prod, Partial::Int(a), Partial::Int(b)) => checked_in_place(a, a.checked_mul(*b)),
            (Prod, Partial::Float(a), Partial::Float(b)) => {
                *a *= b;
                true
            }
            (Prod, Partial::Float(a), Partial::Int(b)) => {
                *a *= *b as f64;
                true
            }
            (Count, Partial::Int(a), _) => checked_in_place(a, a.checked_add(1)),
            (Avg, Partial::Avg(s, c), Partial::Int(b)) => {
                *s += *b as f64;
                *c += 1;
                true
            }
            (Avg, Partial::Avg(s, c), Partial::Float(b)) => {
                *s += b;
                *c += 1;
                true
            }
            (Max, Partial::Int(a), Partial::Int(b)) => {
                *a = (*a).max(*b);
                true
            }
            (Min, Partial::Int(a), Partial::Int(b)) => {
                *a = (*a).min(*b);
                true
            }
            (Max, Partial::Float(a), Partial::Float(b)) => {
                if a.total_cmp(b) == Ordering::Less {
                    *a = *b;
                }
                true
            }
            (Min, Partial::Float(a), Partial::Float(b)) => {
                if a.total_cmp(b) == Ordering::Greater {
                    *a = *b;
                }
                true
            }
            (All, Partial::Bool(a), Partial::Bool(b)) => {
                *a &= b;
                true
            }
            (Any, Partial::Bool(a), Partial::Bool(b)) => {
                *a |= b;
                true
            }
            _ => false,
        }
    }

    #[inline(never)]
    fn step_by_merge(self, acc: &mut Partial, x: Partial) -> Result<()> {
        *acc = self.merge(std::mem::take(acc), self.unit(x)?)?;
        Ok(())
    }
}

/// An unboxed primitive accumulator or element. A typed fold carries one per
/// morsel, so no [`Value`] — and for `avg` no `__sum`/`__count` record — is
/// built per element; [`Partial::into_value`] boxes it at the morsel
/// boundary. `From<Value>` unboxes the scalars and keeps anything else
/// (strings under `max`/`min`, bad inputs that must error) as `Boxed`.
#[derive(Debug, Clone, Default)]
pub enum Partial {
    #[default]
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    /// `avg`'s running `(sum, count)`.
    Avg(f64, i64),
    Boxed(Value),
}

impl Partial {
    /// The boxed accumulator `Monoid::merge` works on (`avg` becomes its
    /// `__sum`/`__count` record).
    pub fn into_value(self) -> Value {
        match self {
            Partial::Null => Value::Null,
            Partial::Bool(b) => Value::Bool(b),
            Partial::Int(i) => Value::Int(i),
            Partial::Float(f) => Value::Float(f),
            Partial::Avg(s, c) => {
                Value::record([("__sum", Value::Float(s)), ("__count", Value::Int(c))])
            }
            Partial::Boxed(v) => v,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Partial::Int(i) => Some(*i as f64),
            Partial::Float(f) => Some(*f),
            Partial::Boxed(v) => v.as_f64(),
            _ => None,
        }
    }
}

impl From<Value> for Partial {
    #[inline]
    fn from(v: Value) -> Partial {
        match v {
            Value::Null => Partial::Null,
            Value::Bool(b) => Partial::Bool(b),
            Value::Int(i) => Partial::Int(i),
            Value::Float(f) => Partial::Float(f),
            other => Partial::Boxed(other),
        }
    }
}

impl fmt::Display for Partial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.clone().into_value())
    }
}

/// A monoid: either primitive (scalar accumulator) or a collection kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Monoid {
    Primitive(PrimitiveMonoid),
    Collection(CollectionKind),
}

impl Monoid {
    /// Parse a monoid name (`sum`, `bag`, ...).
    pub fn from_name(name: &str) -> Option<Self> {
        if let Some(p) = PrimitiveMonoid::from_name(name) {
            return Some(Monoid::Primitive(p));
        }
        Some(Monoid::Collection(match name {
            "set" => CollectionKind::Set,
            "bag" => CollectionKind::Bag,
            "list" => CollectionKind::List,
            "array" => CollectionKind::Array,
            _ => return None,
        }))
    }

    pub fn name(&self) -> &'static str {
        match self {
            Monoid::Primitive(p) => p.name(),
            Monoid::Collection(k) => k.name(),
        }
    }

    pub fn commutative(&self) -> bool {
        match self {
            Monoid::Primitive(p) => p.commutative(),
            Monoid::Collection(k) => k.commutative(),
        }
    }

    pub fn idempotent(&self) -> bool {
        match self {
            Monoid::Primitive(p) => p.idempotent(),
            Monoid::Collection(k) => k.idempotent(),
        }
    }

    /// The zero element `Z⊕`.
    ///
    /// `Avg` uses an internal `(sum, count)` record accumulator that
    /// [`Monoid::finalize`] converts into a float.
    pub fn zero(&self) -> Value {
        match self {
            Monoid::Primitive(p) => p.zero().into_value(),
            Monoid::Collection(k) => Value::Collection(*k, Vec::new()),
        }
    }

    /// The unit function `U⊕(x)` lifting one element into the monoid
    /// carrier; fails only on a non-numeric `avg` element.
    pub fn unit(&self, v: Value) -> Result<Value> {
        Ok(match self {
            Monoid::Primitive(p) => p.unit(Partial::from(v))?.into_value(),
            Monoid::Collection(CollectionKind::Set) => Value::set(vec![v]),
            Monoid::Collection(k) => Value::Collection(*k, vec![v]),
        })
    }

    /// The merge function `a ⊕ b`.
    pub fn merge(&self, a: Value, b: Value) -> Result<Value> {
        match self {
            Monoid::Primitive(p) => Ok(p.merge(a.into(), b.into())?.into_value()),
            Monoid::Collection(kind) => {
                let mut xs = into_elements(a, *kind)?;
                let ys = into_elements(b, *kind)?;
                xs.extend(ys);
                Ok(match kind {
                    CollectionKind::Set => Value::set(xs),
                    k => Value::Collection(*k, xs),
                })
            }
        }
    }

    /// Convert an internal accumulator into the user-visible result
    /// (identity except for `avg`, and `max`/`min` of empty input → `Null`).
    pub fn finalize(&self, acc: Value) -> Result<Value> {
        match self {
            Monoid::Primitive(PrimitiveMonoid::Avg) => {
                let (s, c) = avg_parts(&acc.into())?;
                if c == 0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Float(s / c as f64))
                }
            }
            _ => Ok(acc),
        }
    }

    /// Fold an iterator of elements through `unit` + `merge` + `finalize`.
    pub fn fold<I: IntoIterator<Item = Value>>(&self, items: I) -> Result<Value> {
        let mut acc = self.zero();
        for item in items {
            acc = self.merge(acc, self.unit(item)?)?;
        }
        self.finalize(acc)
    }

    /// Merge per-partition accumulators **in the order given** (no
    /// `finalize`).
    ///
    /// This is the deterministic reduction step of parallel folds: each
    /// worker folds its morsels into partial accumulators, and the partials
    /// merge here in morsel order — so non-commutative monoids (`list`) see
    /// exactly the sequential element order, and any worker count produces
    /// the same merge tree. The first partial seeds the accumulator (rather
    /// than `zero`), so a single-partial merge is bit-identical to that
    /// partial — including float payloads.
    pub fn merge_partials<I: IntoIterator<Item = Value>>(&self, partials: I) -> Result<Value> {
        let mut iter = partials.into_iter();
        let mut acc = match iter.next() {
            Some(first) => first,
            None => return Ok(self.zero()),
        };
        for p in iter {
            acc = self.merge(acc, p)?;
        }
        Ok(acc)
    }
}

impl fmt::Display for Monoid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Store a checked result in place; `false` (accumulator untouched) on
/// overflow, which the caller leaves to `merge` to report.
#[inline]
fn checked_in_place(acc: &mut i64, result: Option<i64>) -> bool {
    match result {
        Some(v) => {
            *acc = v;
            true
        }
        None => false,
    }
}

fn avg_parts(p: &Partial) -> Result<(f64, i64)> {
    // A bare numeric value may reach the accumulator when merges mix units
    // (e.g. during parallel partial aggregation); treat it as (x, 1).
    let v = match p {
        Partial::Avg(s, c) => return Ok((*s, *c)),
        Partial::Boxed(v) => v,
        other => return other.as_f64().map(|x| (x, 1)).ok_or_else(missing_sum),
    };
    let s = v
        .field("__sum")
        .and_then(Value::as_f64)
        .ok_or_else(missing_sum)?;
    let c = v
        .field("__count")
        .and_then(Value::as_i64)
        .ok_or_else(|| VidaError::Exec("avg accumulator missing __count".into()))?;
    Ok((s, c))
}

fn missing_sum() -> VidaError {
    VidaError::Exec("avg accumulator missing __sum".into())
}

fn numeric_binop(
    a: Partial,
    b: Partial,
    name: &str,
    ff: fn(f64, f64) -> f64,
    fi: fn(i64, i64) -> Option<i64>,
) -> Result<Partial> {
    match (&a, &b) {
        (Partial::Int(x), Partial::Int(y)) => fi(*x, *y)
            .map(Partial::Int)
            .ok_or_else(|| VidaError::Exec(format!("integer overflow in {name}"))),
        _ => {
            let x = a
                .as_f64()
                .ok_or_else(|| VidaError::Exec(format!("{name}: non-numeric {a}")))?;
            let y = b
                .as_f64()
                .ok_or_else(|| VidaError::Exec(format!("{name}: non-numeric {b}")))?;
            Ok(Partial::Float(ff(x, y)))
        }
    }
}

fn bool_binop(a: Partial, b: Partial, name: &str, f: fn(bool, bool) -> bool) -> Result<Partial> {
    let as_bool = |p: &Partial| match p {
        Partial::Bool(b) => Ok(*b),
        other => Err(VidaError::Exec(format!("{name}: non-boolean {other}"))),
    };
    Ok(Partial::Bool(f(as_bool(&a)?, as_bool(&b)?)))
}

fn into_elements(v: Value, kind: CollectionKind) -> Result<Vec<Value>> {
    match v {
        Value::Collection(_, items) => Ok(items),
        Value::Array(a) => Ok(a.data),
        other => Err(VidaError::Exec(format!(
            "{} merge expects a collection, got {other}",
            kind.name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_monoids() -> Vec<Monoid> {
        vec![
            Monoid::Primitive(PrimitiveMonoid::Sum),
            Monoid::Primitive(PrimitiveMonoid::Prod),
            Monoid::Primitive(PrimitiveMonoid::Count),
            Monoid::Primitive(PrimitiveMonoid::Max),
            Monoid::Primitive(PrimitiveMonoid::Min),
            Monoid::Primitive(PrimitiveMonoid::Avg),
            Monoid::Primitive(PrimitiveMonoid::All),
            Monoid::Primitive(PrimitiveMonoid::Any),
            Monoid::Collection(CollectionKind::Set),
            Monoid::Collection(CollectionKind::Bag),
            Monoid::Collection(CollectionKind::List),
            Monoid::Collection(CollectionKind::Array),
        ]
    }

    fn sample_for(m: &Monoid) -> Vec<Value> {
        match m {
            Monoid::Primitive(PrimitiveMonoid::All) | Monoid::Primitive(PrimitiveMonoid::Any) => {
                vec![Value::Bool(true), Value::Bool(false), Value::Bool(true)]
            }
            _ => vec![Value::Int(3), Value::Int(1), Value::Int(2)],
        }
    }

    #[test]
    fn left_right_identity() {
        for m in all_monoids() {
            for x in sample_for(&m) {
                let u = m.unit(x).unwrap();
                let l = m.merge(m.zero(), u.clone()).unwrap();
                let r = m.merge(u.clone(), m.zero()).unwrap();
                assert!(l.sem_eq(&u), "{m}: left identity failed");
                assert!(r.sem_eq(&u), "{m}: right identity failed");
            }
        }
    }

    #[test]
    fn associativity() {
        for m in all_monoids() {
            let xs = sample_for(&m);
            let (a, b, c) = (
                m.unit(xs[0].clone()).unwrap(),
                m.unit(xs[1].clone()).unwrap(),
                m.unit(xs[2].clone()).unwrap(),
            );
            let ab_c = m
                .merge(m.merge(a.clone(), b.clone()).unwrap(), c.clone())
                .unwrap();
            let a_bc = m.merge(a, m.merge(b, c).unwrap()).unwrap();
            assert!(ab_c.sem_eq(&a_bc), "{m}: associativity failed");
        }
    }

    #[test]
    fn fold_matches_expected() {
        let xs = vec![Value::Int(3), Value::Int(1), Value::Int(2)];
        assert_eq!(
            Monoid::Primitive(PrimitiveMonoid::Sum)
                .fold(xs.clone())
                .unwrap(),
            Value::Int(6)
        );
        assert_eq!(
            Monoid::Primitive(PrimitiveMonoid::Count)
                .fold(xs.clone())
                .unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            Monoid::Primitive(PrimitiveMonoid::Max)
                .fold(xs.clone())
                .unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            Monoid::Primitive(PrimitiveMonoid::Min)
                .fold(xs.clone())
                .unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            Monoid::Primitive(PrimitiveMonoid::Avg)
                .fold(xs.clone())
                .unwrap(),
            Value::Float(2.0)
        );
        assert_eq!(
            Monoid::Primitive(PrimitiveMonoid::Prod).fold(xs).unwrap(),
            Value::Int(6)
        );
    }

    #[test]
    fn empty_folds() {
        assert_eq!(
            Monoid::Primitive(PrimitiveMonoid::Sum)
                .fold(vec![])
                .unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            Monoid::Primitive(PrimitiveMonoid::Max)
                .fold(vec![])
                .unwrap(),
            Value::Null
        );
        assert_eq!(
            Monoid::Primitive(PrimitiveMonoid::Avg)
                .fold(vec![])
                .unwrap(),
            Value::Null
        );
        assert_eq!(
            Monoid::Primitive(PrimitiveMonoid::All)
                .fold(vec![])
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Monoid::Primitive(PrimitiveMonoid::Any)
                .fold(vec![])
                .unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn merge_partials_matches_sequential_fold() {
        // Partition the same elements two different ways; the ordered merge
        // of partial accumulators must agree with the one-pass fold.
        let xs: Vec<Value> = (1..=10).map(Value::Int).collect();
        for m in all_monoids() {
            let xs = match m {
                Monoid::Primitive(PrimitiveMonoid::All)
                | Monoid::Primitive(PrimitiveMonoid::Any) => {
                    vec![Value::Bool(true); 10]
                }
                _ => xs.clone(),
            };
            let sequential = m.fold(xs.clone()).unwrap();
            for chunk in [1usize, 3, 10] {
                let partials: Vec<Value> = xs
                    .chunks(chunk)
                    .map(|c| {
                        let mut acc = m.zero();
                        for x in c {
                            acc = m.merge(acc, m.unit(x.clone()).unwrap()).unwrap();
                        }
                        acc
                    })
                    .collect();
                let merged = m.finalize(m.merge_partials(partials).unwrap()).unwrap();
                assert!(
                    merged.sem_eq(&sequential),
                    "{m}: chunk {chunk} deviates ({merged} vs {sequential})"
                );
            }
        }
    }

    #[test]
    fn typed_steps_agree_with_boxed_merges() {
        // The unboxed fold must be bit-for-bit the boxed one, errors
        // included: mixed ints and floats, a null, a string, and overflow.
        let inputs = [
            vec![Value::Int(3), Value::Float(0.1), Value::Int(2)],
            vec![Value::Float(-0.0), Value::Float(0.3), Value::Float(0.7)],
            vec![Value::Int(i64::MAX), Value::Int(1)],
            vec![Value::Bool(true), Value::Bool(false)],
            vec![Value::Null, Value::Int(4)],
            vec![Value::str("b"), Value::str("a")],
            // The in-place arms: long unboxed runs, the `i64` edges, NaN
            // and ±0.0 under max/min, and int↔float promotion mid-run.
            vec![Value::Int(i64::MIN), Value::Int(-1)],
            vec![Value::Int(i64::MAX / 2), Value::Int(3), Value::Int(-7)],
            vec![Value::Int(-3), Value::Int(9), Value::Int(9), Value::Int(-3)],
            vec![
                Value::Float(0.0),
                Value::Float(-0.0),
                Value::Float(f64::NAN),
            ],
            vec![
                Value::Float(f64::NAN),
                Value::Float(-0.0),
                Value::Float(0.0),
            ],
            vec![
                Value::Float(0.1),
                Value::Float(0.2),
                Value::Int(3),
                Value::Float(0.3),
            ],
            vec![Value::Float(2.5), Value::Int(i64::MAX), Value::Int(-4)],
            vec![Value::Bool(false), Value::Bool(true), Value::Bool(false)],
            vec![Value::Int(1), Value::Bool(true)],
        ];
        for m in all_monoids() {
            let Monoid::Primitive(p) = m else { continue };
            for xs in &inputs {
                let mut acc = p.zero();
                let typed = xs
                    .iter()
                    .try_for_each(|x| p.step(&mut acc, x.clone().into()))
                    .map(|()| acc.into_value());
                let boxed = xs
                    .iter()
                    .try_fold(m.zero(), |a, x| m.merge(a, m.unit(x.clone())?));
                // Debug renderings tell `-0.0` from `0.0`.
                let shown =
                    |r: Result<Value>| r.map(|v| format!("{v:?}")).map_err(|e| e.to_string());
                assert_eq!(shown(typed), shown(boxed), "{m} over {xs:?}");
            }
            assert_eq!(p.zero().into_value(), m.zero(), "{m}: zero");
        }
    }

    #[test]
    fn avg_rejects_a_null_element_like_sum() {
        // Through `unit` + `merge` (`Monoid::fold`) and through the typed
        // `step`, whose null element falls through to `step_by_merge`.
        let xs = [Value::Null, Value::Int(4)];
        for p in [PrimitiveMonoid::Sum, PrimitiveMonoid::Avg] {
            let want = format!("{}: non-numeric null", p.name());
            let folded = Monoid::Primitive(p).fold(xs.clone());
            let mut acc = p.zero();
            let stepped = xs
                .iter()
                .try_for_each(|x| p.step(&mut acc, x.clone().into()));
            for err in [folded.map(|_| ()), stepped] {
                let err = err.expect_err("a null element is not a number").to_string();
                assert!(err.contains(&want), "{want}: {err}");
            }
        }
    }

    #[test]
    fn merge_partials_of_nothing_is_zero() {
        let sum = Monoid::Primitive(PrimitiveMonoid::Sum);
        assert_eq!(sum.merge_partials(vec![]).unwrap(), Value::Int(0));
    }

    #[test]
    fn merge_partials_single_is_identity() {
        // Bit-identical pass-through, no zero merge.
        let sum = Monoid::Primitive(PrimitiveMonoid::Sum);
        let v = Value::Float(-0.0);
        let out = sum.merge_partials(vec![v]).unwrap();
        match out {
            Value::Float(f) => assert!(f.is_sign_negative(), "zero merge would lose -0.0"),
            other => panic!("expected float, got {other}"),
        }
    }

    #[test]
    fn merge_partials_preserves_list_order() {
        let list = Monoid::Collection(CollectionKind::List);
        let p1 = list.fold(vec![Value::Int(3), Value::Int(1)]).unwrap();
        let p2 = list.fold(vec![Value::Int(2)]).unwrap();
        let out = list.merge_partials(vec![p1, p2]).unwrap();
        assert_eq!(
            out.elements().unwrap(),
            &[Value::Int(3), Value::Int(1), Value::Int(2)]
        );
    }

    #[test]
    fn set_is_idempotent_bag_is_not() {
        let set = Monoid::Collection(CollectionKind::Set);
        let bag = Monoid::Collection(CollectionKind::Bag);
        let xs = vec![Value::Int(1), Value::Int(1), Value::Int(2)];
        let s = set.fold(xs.clone()).unwrap();
        let b = bag.fold(xs).unwrap();
        assert_eq!(s.elements().unwrap().len(), 2);
        assert_eq!(b.elements().unwrap().len(), 3);
        assert!(set.idempotent());
        assert!(!bag.idempotent());
    }

    #[test]
    fn list_preserves_order() {
        let list = Monoid::Collection(CollectionKind::List);
        let out = list
            .fold(vec![Value::Int(3), Value::Int(1), Value::Int(2)])
            .unwrap();
        assert_eq!(
            out.elements().unwrap(),
            &[Value::Int(3), Value::Int(1), Value::Int(2)]
        );
        assert!(!list.commutative());
    }

    #[test]
    fn overflow_is_an_error_not_a_panic() {
        let sum = Monoid::Primitive(PrimitiveMonoid::Sum);
        let e = sum.merge(Value::Int(i64::MAX), Value::Int(1)).unwrap_err();
        assert_eq!(e.kind(), "exec");
    }

    #[test]
    fn mixed_numeric_promotes_to_float() {
        let sum = Monoid::Primitive(PrimitiveMonoid::Sum);
        let out = sum.merge(Value::Int(1), Value::Float(2.5)).unwrap();
        assert_eq!(out, Value::Float(3.5));
    }

    #[test]
    fn from_name_round_trip() {
        for m in all_monoids() {
            assert_eq!(Monoid::from_name(m.name()), Some(m));
        }
        assert_eq!(Monoid::from_name("nope"), None);
        // aliases
        assert_eq!(
            Monoid::from_name("and"),
            Some(Monoid::Primitive(PrimitiveMonoid::All))
        );
        assert_eq!(
            Monoid::from_name("or"),
            Some(Monoid::Primitive(PrimitiveMonoid::Any))
        );
    }

    #[test]
    fn bad_merge_inputs_error() {
        let all = Monoid::Primitive(PrimitiveMonoid::All);
        assert!(all.merge(Value::Int(1), Value::Bool(true)).is_err());
        let bag = Monoid::Collection(CollectionKind::Bag);
        assert!(bag.merge(Value::Int(1), Value::bag(vec![])).is_err());
    }
}
