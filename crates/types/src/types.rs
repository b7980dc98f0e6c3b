//! The static type system.
//!
//! Types mirror [`crate::value::Value`] one level up: scalars, records,
//! kinded collections, and dense arrays. The type checker in `vida-lang`
//! infers a [`Type`] for every expression; the optimizer and the JIT use it
//! to pick layouts and register classes.

use crate::monoid::CollectionKind;
use crate::value::Value;
use std::fmt;

/// A static ViDa type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// Type of `null` and of empty `max`/`min`; unifies with anything.
    Unknown,
    Bool,
    Int,
    Float,
    Str,
    /// Ordered, uniquely-named fields.
    Record(Vec<(String, Type)>),
    /// Collection of a given kind with homogeneous element type.
    Collection(CollectionKind, Box<Type>),
    /// Dense array with `dims` dimensions of the element type.
    Array {
        dims: usize,
        elem: Box<Type>,
    },
}

impl Type {
    /// Build a record type.
    pub fn record<I, S>(fields: I) -> Type
    where
        I: IntoIterator<Item = (S, Type)>,
        S: Into<String>,
    {
        Type::Record(fields.into_iter().map(|(n, t)| (n.into(), t)).collect())
    }

    /// Build a bag-of-records type (the common dataset shape).
    pub fn bag(elem: Type) -> Type {
        Type::Collection(CollectionKind::Bag, Box::new(elem))
    }

    /// Type of a record field, if this is a record with that field.
    pub fn field(&self, name: &str) -> Option<&Type> {
        match self {
            Type::Record(fs) => fs.iter().find(|(n, _)| n == name).map(|(_, t)| t),
            _ => None,
        }
    }

    /// Element type if this is any collection/array type.
    pub fn elem(&self) -> Option<&Type> {
        match self {
            Type::Collection(_, t) => Some(t),
            Type::Array { elem, .. } => Some(elem),
            _ => None,
        }
    }

    /// Is this a numeric scalar type?
    pub fn is_numeric(&self) -> bool {
        matches!(self, Type::Int | Type::Float | Type::Unknown)
    }

    /// Can a value of `self` be used where `other` is expected?
    ///
    /// `Unknown` unifies with everything; `Int` widens to `Float`; records
    /// are compatible field-wise (same names, same order); collections must
    /// match kinds and element compatibility.
    pub fn compatible(&self, other: &Type) -> bool {
        use Type::*;
        match (self, other) {
            (Unknown, _) | (_, Unknown) => true,
            (Int, Float) | (Float, Int) => true,
            (Record(a), Record(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|((an, at), (bn, bt))| an == bn && at.compatible(bt))
            }
            (Collection(ka, ta), Collection(kb, tb)) => ka == kb && ta.compatible(tb),
            (Array { dims: da, elem: ea }, Array { dims: db, elem: eb }) => {
                da == db && ea.compatible(eb)
            }
            (a, b) => a == b,
        }
    }

    /// Least upper bound of two compatible types, used when merging branches
    /// of `if`/monoid arms. Returns `None` when incompatible.
    pub fn unify(&self, other: &Type) -> Option<Type> {
        use Type::*;
        match (self, other) {
            (Unknown, t) | (t, Unknown) => Some(t.clone()),
            (Int, Float) | (Float, Int) => Some(Float),
            (Record(a), Record(b)) if a.len() == b.len() => {
                let mut fields = Vec::with_capacity(a.len());
                for ((an, at), (bn, bt)) in a.iter().zip(b.iter()) {
                    if an != bn {
                        return None;
                    }
                    fields.push((an.clone(), at.unify(bt)?));
                }
                Some(Record(fields))
            }
            (Collection(ka, ta), Collection(kb, tb)) if ka == kb => {
                Some(Collection(*ka, Box::new(ta.unify(tb)?)))
            }
            (Array { dims: da, elem: ea }, Array { dims: db, elem: eb }) if da == db => {
                Some(Array {
                    dims: *da,
                    elem: Box::new(ea.unify(eb)?),
                })
            }
            (a, b) if a == b => Some(a.clone()),
            _ => None,
        }
    }

    /// Infer the most specific type of a runtime value.
    pub fn of_value(v: &Value) -> Type {
        match v {
            Value::Null => Type::Unknown,
            Value::Bool(_) => Type::Bool,
            Value::Int(_) => Type::Int,
            Value::Float(_) => Type::Float,
            Value::Str(_) => Type::Str,
            Value::Record(fs) => Type::Record(
                fs.iter()
                    .map(|(n, v)| (n.clone(), Type::of_value(v)))
                    .collect(),
            ),
            Value::Collection(k, items) => {
                let elem = items
                    .iter()
                    .map(Type::of_value)
                    .try_fold(Type::Unknown, |acc, t| acc.unify(&t))
                    .unwrap_or(Type::Unknown);
                Type::Collection(*k, Box::new(elem))
            }
            Value::Array(a) => {
                let elem = a
                    .data
                    .iter()
                    .map(Type::of_value)
                    .try_fold(Type::Unknown, |acc, t| acc.unify(&t))
                    .unwrap_or(Type::Unknown);
                Type::Array {
                    dims: a.dims.len(),
                    elem: Box::new(elem),
                }
            }
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Unknown => write!(f, "?"),
            Type::Bool => write!(f, "bool"),
            Type::Int => write!(f, "int"),
            Type::Float => write!(f, "float"),
            Type::Str => write!(f, "string"),
            Type::Record(fs) => {
                write!(f, "(")?;
                for (i, (n, t)) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {t}")?;
                }
                write!(f, ")")
            }
            Type::Collection(k, t) => write!(f, "{}<{t}>", k.name()),
            Type::Array { dims, elem } => write!(f, "array{dims}<{elem}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_unifies_with_everything() {
        for t in [Type::Bool, Type::Int, Type::Float, Type::Str] {
            assert!(Type::Unknown.compatible(&t));
            assert_eq!(Type::Unknown.unify(&t), Some(t));
        }
    }

    #[test]
    fn numeric_widening() {
        assert_eq!(Type::Int.unify(&Type::Float), Some(Type::Float));
        assert!(Type::Int.compatible(&Type::Float));
        assert!(!Type::Int.compatible(&Type::Str));
    }

    #[test]
    fn record_unification_is_fieldwise() {
        let a = Type::record([("x", Type::Int), ("y", Type::Unknown)]);
        let b = Type::record([("x", Type::Float), ("y", Type::Str)]);
        assert_eq!(
            a.unify(&b),
            Some(Type::record([("x", Type::Float), ("y", Type::Str)]))
        );
        let c = Type::record([("z", Type::Int), ("y", Type::Str)]);
        assert_eq!(a.unify(&c), None);
    }

    #[test]
    fn collection_kinds_do_not_unify() {
        let s = Type::Collection(CollectionKind::Set, Box::new(Type::Int));
        let b = Type::bag(Type::Int);
        assert_eq!(s.unify(&b), None);
        assert!(!s.compatible(&b));
    }

    #[test]
    fn of_value_infers_element_lub() {
        let v = Value::bag(vec![Value::Int(1), Value::Float(2.0)]);
        assert_eq!(Type::of_value(&v), Type::bag(Type::Float));
        let v2 = Value::bag(vec![]);
        assert_eq!(Type::of_value(&v2), Type::bag(Type::Unknown));
    }

    #[test]
    fn of_value_nested_record() {
        let v = Value::record([
            ("id", Value::Int(1)),
            ("tags", Value::list(vec![Value::str("a")])),
        ]);
        assert_eq!(
            Type::of_value(&v),
            Type::record([
                ("id", Type::Int),
                (
                    "tags",
                    Type::Collection(CollectionKind::List, Box::new(Type::Str))
                ),
            ])
        );
    }

    #[test]
    fn display_is_readable() {
        let t = Type::bag(Type::record([("x", Type::Int)]));
        assert_eq!(t.to_string(), "bag<(x: int)>");
    }

    #[test]
    fn heterogeneous_collection_has_unknown_elem() {
        let v = Value::bag(vec![Value::Int(1), Value::str("a")]);
        assert_eq!(Type::of_value(&v), Type::bag(Type::Unknown));
    }
}
