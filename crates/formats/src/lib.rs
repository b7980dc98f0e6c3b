//! # vida-formats
//!
//! Raw-data access layer: ViDa treats raw files as its native storage
//! (the "NoDB philosophy", ViDa §2), so this crate is the storage engine.
//!
//! It provides:
//! - the **source description grammar** (§3.1): a minimal catalog entry per
//!   dataset — schema, retrieval unit, access paths ([`description`]);
//! - a **CSV plugin** with NoDB-style *positional maps* that remember byte
//!   offsets of previously-parsed attributes so later queries seek instead of
//!   re-tokenizing ([`csv`]);
//! - a **JSON plugin** with a structural (semi-)index storing start/end byte
//!   positions of objects and top-level fields ([`json`]);
//! - a **binary array format** standing in for scientific array formats
//!   (ROOT/FITS/NetCDF-like) ([`binarray`]);
//! - the [`plugin::InputPlugin`] abstraction the JIT executor binds against,
//!   plus access statistics used by the optimizer's cost wrappers.

pub mod binarray;
pub mod csv;
pub mod description;
pub mod json;
pub mod plugin;
pub mod stats;

pub use description::{DataFormat, RetrievalUnit, SourceDescription};
pub use plugin::{open_plugin, open_plugin_with, Generation, InputPlugin, Revalidation};
pub use stats::AccessStats;
// Re-exported so downstream crates pick a raw-data backing without
// depending on vida-io directly.
pub use vida_io::MapMode;
