//! # vida-algebra
//!
//! The nested relational algebra ViDa lowers comprehensions into (§3.2, §4).
//!
//! "During query translation, ViDa translates the monoid calculus to an
//! intermediate algebraic representation, which is more amenable to
//! traditional optimization techniques. ViDa's executor and optimizer
//! operate over this algebraic form."
//!
//! The operator set follows Fegaras & Maier's algebra:
//!
//! - [`Plan::Scan`] — bind each unit of a dataset to a variable;
//! - [`Plan::Select`] — filter by a predicate over bound variables;
//! - [`Plan::Join`] — combine two sub-plans (predicate may be `true` for a
//!   product; equi-join detection enables hash joins downstream);
//! - [`Plan::Unnest`] — bind each element of a collection-valued path of an
//!   already-bound variable (the nested-data workhorse);
//! - [`Plan::Reduce`] — the paper's *generalized projection*: evaluates the
//!   head under each binding and folds with the output monoid. "The
//!   operator's behavior also changes depending on the type of collection to
//!   be returned" (§4) — dedup for `set`, order-preservation for `list`.
//!
//! [`lower()`] translates a normalized comprehension into a plan; [`rewrite()`]
//! applies algebra-level rules (selection pushdown, select-merging);
//! [`interp`] is the one plan interpreter — tuple at a time, pushing rows
//! from the scans into the fold — which `vida-exec` runs over raw sources as
//! its interpreted engine and semantic oracle beside the generated
//! pipelines.

pub mod interp;
pub mod lower;
pub mod plan;
pub mod rewrite;

pub use interp::execute_plan;
pub use lower::lower;
pub use plan::Plan;
pub use rewrite::rewrite;
