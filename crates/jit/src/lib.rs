//! # vida-jit
//!
//! Just-in-time compilation of scalar query kernels (ViDa §4, §4.1).
//!
//! The paper's executor uses LLVM to generate machine code per query. The
//! backend here ([`compile`]) is **portable**: it fuses each expression into
//! a tree of monomorphic closures over the register frame, with all type
//! dispatch resolved at compile time. ARCHITECTURE.md ("Why closures")
//! records the measurements that retired a native-code backend.
//!
//! What gets compiled: **scalar kernels** — filter predicates, arithmetic
//! projections, aggregate-head expressions — specialized to a flat register
//! [`frame::FrameLayout`] of the attributes a query actually touches. The
//! generated code contains no type tags, no branches on layout, no hash
//! lookups: exactly the "stripped from general-purpose checks" property §4.1
//! describes. Each kernel also has a batch form over a selection vector of
//! slot columns ([`CompiledKernel::call_batch`], [`SelectKernel::refine`])
//! that pays its closure calls per vector instead of per row. Operator *fusion* (pipelining data in registers across
//! operators) happens one level up, in `vida-exec`, which chains these
//! kernels into per-query pipelines.
//!
//! Strings participate through **interning**: the frame builder maps string
//! values to dense integer ids, so string equality compiles to an integer
//! compare. Expressions outside the compilable subset (string ordering,
//! division with its error semantics, nested-collection work) stay on the
//! interpreted path — the hybrid execution §6 describes for the prototype.

pub mod compile;
pub mod frame;

pub use compile::{BatchScratch, CompiledKernel, JitCompiler, KernelOutput, SelectKernel};
pub use frame::{FrameBuilder, FrameLayout, SharedInterner, SlotType, StringInterner};
