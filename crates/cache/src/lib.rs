//! # vida-cache
//!
//! ViDa's layout-aware data caches (§2.1, §5).
//!
//! ViDa caches previously-accessed raw data fields so that workload locality
//! (~80% in the paper's HBP workload) turns repeated raw-file accesses into
//! memory reads. Three ideas from the paper shape the design:
//!
//! 1. **Layout-aware replicas** — a field is cached in one of
//!    [`Layout::ALL`] (parsed values or binary JSON; Figure 4 (c) and (b))
//!    and the optimizer's cost model picks the one that fits the workload;
//!    the [`CacheManager`] holds one replica per field, so writing another
//!    layout re-shapes it.
//! 2. **Cache-pollution avoidance** — large nested objects can be cached as
//!    compact binary JSON rather than fully parsed objects (§5). Their raw
//!    byte positions (Figure 4 (d)) are not a replica: the format layer's
//!    positional map and semi-index already hold them.
//! 3. **Invalidation, not synchronization** — when a raw file changes, one
//!    call ([`CacheManager::retain_fingerprints`]) drops the entries of the
//!    generations it no longer vouches for (§2.1): the raw file stays the
//!    golden copy.
//!
//! Replicas, tenant accounts and fold partials share one lock in the
//! manager.

pub mod bson;
pub mod fold;
pub mod layout;
pub mod manager;

pub use bson::{decode_value, encode_value};
pub use fold::FoldPartial;
pub use layout::{CachedData, Layout};
pub use manager::{CacheKey, CacheManager, CacheStats, TenantStats};
