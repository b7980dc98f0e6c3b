//! Runtime values.
//!
//! [`Value`] is the dynamic representation that flows through the interpreted
//! engine, caches, and plugin boundaries. The JIT engine keeps scalars in
//! native registers (ViDa §4.1) and only materializes `Value`s at pipeline
//! breakers and result projection.
//!
//! Design notes:
//! - Records keep **field order** (`Vec<(String, Value)>`): comprehension
//!   record construction `(a := e1, b := e2)` is ordered, and round-tripping
//!   through output plugins must preserve it.
//! - `Value` implements a **total order** (floats ordered by IEEE total
//!   ordering) so sets can be represented canonically as sorted-deduped
//!   vectors — required for set-monoid idempotence and for `Eq` on results.

use crate::monoid::CollectionKind;
use std::cmp::Ordering;
use std::fmt;

/// A dynamically-typed ViDa runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL-style missing value.
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    /// Ordered field list. Field names are unique.
    Record(Vec<(String, Value)>),
    /// A collection of a given kind. For `Set`, the elements are kept
    /// sorted and deduplicated (canonical form).
    Collection(CollectionKind, Vec<Value>),
    /// Dense multi-dimensional array of values. Boxed: arrays are rare,
    /// and their two vectors inline would make every `Value` 48 bytes
    /// instead of 32 — a third more memory in every parsed column and
    /// cache replica.
    Array(Box<ArrayValue>),
}

/// The payload of [`Value::Array`]: `dims` describes the dimensionality of
/// `data`, in row-major element order.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayValue {
    pub dims: Vec<usize>,
    pub data: Vec<Value>,
}

impl Value {
    /// Build a record value from `(name, value)` pairs.
    pub fn record<I, S>(fields: I) -> Value
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<String>,
    {
        Value::Record(fields.into_iter().map(|(n, v)| (n.into(), v)).collect())
    }

    /// Build a dense array with dimensions `dims` over `data` (row-major).
    pub fn array(dims: Vec<usize>, data: Vec<Value>) -> Value {
        Value::Array(Box::new(ArrayValue { dims, data }))
    }

    /// Build a bag collection.
    pub fn bag(items: Vec<Value>) -> Value {
        Value::Collection(CollectionKind::Bag, items)
    }

    /// Build a list collection.
    pub fn list(items: Vec<Value>) -> Value {
        Value::Collection(CollectionKind::List, items)
    }

    /// Build a set collection; sorts and deduplicates into canonical form.
    pub fn set(mut items: Vec<Value>) -> Value {
        items.sort_by(Value::total_cmp);
        items.dedup();
        Value::Collection(CollectionKind::Set, items)
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Project a field out of a record. Returns `None` for non-records or
    /// missing fields.
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Record(fields) => fields.iter().find(|(n, _)| n == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// True if this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Coerce to `f64` if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Coerce to `i64` if an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Coerce to `bool` if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow the string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow collection elements regardless of kind (arrays included).
    pub fn elements(&self) -> Option<&[Value]> {
        match self {
            Value::Collection(_, items) => Some(items),
            Value::Array(a) => Some(&a.data),
            _ => None,
        }
    }

    /// Total ordering across all values. Numeric values compare numerically
    /// across `Int`/`Float`; disparate variants compare by a fixed variant
    /// rank. This makes sorting/deduplication well-defined for sets and for
    /// deterministic test output.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Record(a), Record(b)) => {
                for ((an, av), (bn, bv)) in a.iter().zip(b.iter()) {
                    match an.cmp(bn) {
                        Ordering::Equal => {}
                        o => return o,
                    }
                    match av.total_cmp(bv) {
                        Ordering::Equal => {}
                        o => return o,
                    }
                }
                a.len().cmp(&b.len())
            }
            (Collection(ka, a), Collection(kb, b)) => match ka.cmp(kb) {
                Ordering::Equal => Self::cmp_slices(a, b),
                o => o,
            },
            (Array(a), Array(b)) => match a.dims.cmp(&b.dims) {
                Ordering::Equal => Self::cmp_slices(&a.data, &b.data),
                o => o,
            },
            _ => self.variant_rank().cmp(&other.variant_rank()),
        }
    }

    fn cmp_slices(a: &[Value], b: &[Value]) -> Ordering {
        for (x, y) in a.iter().zip(b.iter()) {
            match x.total_cmp(y) {
                Ordering::Equal => {}
                o => return o,
            }
        }
        a.len().cmp(&b.len())
    }

    fn variant_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // numeric tower shares a rank
            Value::Str(_) => 3,
            Value::Record(_) => 4,
            Value::Collection(..) => 5,
            Value::Array(_) => 6,
        }
    }

    /// Structural equality used by join predicates and set semantics:
    /// `Int` and `Float` compare numerically (`1 == 1.0`).
    pub fn sem_eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }

    /// Rough in-memory footprint in bytes, used by the cache budget
    /// accounting. Not exact; stable across runs.
    pub fn approx_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 24 + s.len(),
            Value::Record(fs) => {
                24 + fs
                    .iter()
                    .map(|(n, v)| 24 + n.len() + v.approx_bytes())
                    .sum::<usize>()
            }
            Value::Collection(_, items) => {
                24 + items.iter().map(Value::approx_bytes).sum::<usize>()
            }
            Value::Array(a) => {
                24 + a.dims.len() * 8 + a.data.iter().map(Value::approx_bytes).sum::<usize>()
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Record(fields) => {
                write!(f, "(")?;
                for (i, (n, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n} := {v}")?;
                }
                write!(f, ")")
            }
            Value::Collection(kind, items) => {
                let (open, close) = match kind {
                    CollectionKind::Set => ("{", "}"),
                    CollectionKind::Bag => ("{|", "|}"),
                    CollectionKind::List => ("[", "]"),
                    CollectionKind::Array => ("[|", "|]"),
                };
                write!(f, "{open}")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "{close}")
            }
            Value::Array(a) => {
                write!(f, "array{:?}[", a.dims)?;
                for (i, v) in a.data.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_field_access() {
        let r = Value::record([("id", Value::Int(7)), ("name", Value::str("ada"))]);
        assert_eq!(r.field("id"), Some(&Value::Int(7)));
        assert_eq!(r.field("name"), Some(&Value::str("ada")));
        assert_eq!(r.field("missing"), None);
        assert_eq!(Value::Int(3).field("id"), None);
    }

    #[test]
    fn set_canonicalizes() {
        let s = Value::set(vec![Value::Int(2), Value::Int(1), Value::Int(2)]);
        assert_eq!(
            s,
            Value::Collection(CollectionKind::Set, vec![Value::Int(1), Value::Int(2)])
        );
    }

    #[test]
    fn numeric_tower_equality() {
        assert!(Value::Int(1).sem_eq(&Value::Float(1.0)));
        assert!(!Value::Int(1).sem_eq(&Value::Float(1.5)));
        assert!(!Value::Int(1).sem_eq(&Value::str("1")));
    }

    #[test]
    fn total_order_is_deterministic_for_mixed() {
        let mut vals = vec![
            Value::str("b"),
            Value::Null,
            Value::Int(5),
            Value::Bool(true),
            Value::Float(2.5),
        ];
        vals.sort_by(Value::total_cmp);
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Float(2.5),
                Value::Int(5),
                Value::str("b"),
            ]
        );
    }

    #[test]
    fn display_round_looks_right() {
        let r = Value::record([
            ("id", Value::Int(1)),
            (
                "xs",
                Value::list(vec![Value::Float(1.0), Value::Float(2.5)]),
            ),
        ]);
        assert_eq!(r.to_string(), "(id := 1, xs := [1.0, 2.5])");
    }

    #[test]
    fn approx_bytes_monotone_in_content() {
        let small = Value::str("a");
        let big = Value::str("aaaaaaaaaaaaaaaa");
        assert!(big.approx_bytes() > small.approx_bytes());
        let rec = Value::record([("x", small.clone())]);
        assert!(rec.approx_bytes() > small.approx_bytes());
    }

    #[test]
    fn nan_has_stable_order() {
        let mut v = [Value::Float(f64::NAN), Value::Float(1.0)];
        v.sort_by(Value::total_cmp);
        // IEEE total order puts positive NaN after all numbers.
        assert_eq!(v[0], Value::Float(1.0));
    }

    #[test]
    fn a_value_is_four_words() {
        // Parsed columns and cache replicas hold one `Value` per cell, so
        // its size is their per-cell footprint: the boxed array payload
        // keeps it at a tag word plus the largest common payload, a `Vec`.
        assert_eq!(std::mem::size_of::<Value>(), 32);
    }

    #[test]
    fn elements_view_spans_collections_and_arrays() {
        let c = Value::bag(vec![Value::Int(1)]);
        assert_eq!(c.elements().unwrap().len(), 1);
        let a = Value::array(
            vec![2, 2],
            vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)],
        );
        assert_eq!(a.elements().unwrap().len(), 4);
        assert_eq!(Value::Int(1).elements(), None);
    }
}
