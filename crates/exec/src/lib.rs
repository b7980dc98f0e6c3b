//! # vida-exec
//!
//! ViDa's query executors (§4, §4.1).
//!
//! The way in is a resident [`Engine`] over a catalog and one [`Session`]
//! per query stream: [`Session::execute`] runs a plan, and
//! [`Session::stats`] / [`Engine::stats`] accumulate what it cost.
//!
//! Two engines over the same algebra plans:
//!
//! 1. **The JIT executor** ([`pipeline`]) — the paper's contribution. At
//!    query time it *generates* a specialized pipeline: input plugins bound
//!    to exactly the attributes the query touches, compiled
//!    predicate/projection kernels over register frames, hash joins when
//!    equi-keys exist, fused monoid accumulators, and layout-aware cache
//!    reads/writes. No general-purpose checks survive into the inner loop.
//!
//! 2. **The interpreted engine** ([`volcano`]) — the "static, pre-cooked
//!    operators" comparator (§4): [`run_volcano`] runs the one plan
//!    interpreter, `vida_algebra::interp`, over the query's input plugins —
//!    generic operators over tagged values with per-tuple interpretation
//!    overhead. It is the whole-query fallback for degenerate shapes and
//!    doubles as a semantic oracle in differential tests.
//!
//! [`output`] implements the output plugins of Figure 3/Figure 4: results
//! materialize as parsed values, text, binary JSON, or CSV rows.

pub mod catalog;
pub mod engine;
pub mod output;
pub mod pipeline;
pub mod stats;
pub mod volcano;

pub use catalog::{MemoryCatalog, SourceProvider};
pub use engine::{Engine, Session};
pub use output::OutputFormat;
pub use pipeline::JitOptions;
#[doc(hidden)]
pub use pipeline::{run_jit, run_jit_with_stats};
pub use stats::ExecStats;
pub use vida_trace::{chrome_trace_json, global_metrics, stage, QueryTrace};
pub use volcano::run_volcano;
