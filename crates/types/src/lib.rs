//! # vida-types
//!
//! Foundational data model for ViDa: runtime values, the type system, dataset
//! schemas, and the monoid framework underlying the monoid comprehension
//! calculus (Fegaras & Maier; ViDa §3.2).
//!
//! ViDa queries combine data from heterogeneous models — relational tables,
//! hierarchies, arrays — so the value model here is deliberately richer than
//! a relational tuple: values nest arbitrarily, and collections carry their
//! kind (set / bag / list / array) because the *same* elements under a
//! different collection monoid have different semantics (idempotence,
//! commutativity, ordering).

pub mod error;
pub mod monoid;
pub mod schema;
pub mod sync;
pub mod types;
pub mod value;

pub use error::{Result, VidaError};
pub use monoid::{CollectionKind, Monoid, Partial, PrimitiveMonoid};
pub use schema::{AccessPath, Field, Schema};
pub use types::Type;
pub use value::{ArrayValue, Value};
