//! The cache manager: budgeted, layout-aware, invalidation-driven.
//!
//! Entries are keyed by `(dataset, field, layout)` so replicas of the same
//! field in different layouts coexist (§5 "Re-using and re-shaping
//! results"). A logical-clock LRU keeps the total footprint under a
//! configurable budget. When a raw file changes (fingerprint mismatch),
//! every entry of that dataset is dropped — the paper's §2.1 update story.
//!
//! Concurrency: lookups take only a **read** lock — LRU stamps, the logical
//! clock, byte accounting, and hit/miss counters are all atomics — so any
//! number of pipeline workers can read replicas while one worker briefly
//! holds the write lock to insert a replica it just parsed. The previous
//! whole-`Mutex` design serialized every worker on every column fetch.

use crate::fold::FoldCache;
use crate::layout::{CachedData, Layout};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use vida_trace::global_metrics;
use vida_types::sync::RwLock;
use vida_types::Value;

/// Identifies one cached column replica.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub dataset: String,
    /// Field name, or `"*"` for whole-unit records.
    pub field: String,
    pub layout: Layout,
}

impl CacheKey {
    pub fn new(dataset: impl Into<String>, field: impl Into<String>, layout: Layout) -> Self {
        CacheKey {
            dataset: dataset.into(),
            field: field.into(),
            layout,
        }
    }
}

/// Hit/miss/eviction counters (exposed in query stats; drives the §6
/// "80% of the workload was served from caches" measurement).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub invalidations: u64,
}

impl CacheStats {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-tenant budget and usage counters (see
/// [`CacheManager::set_tenant_budget`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant's quota, if one was set; quota-less tenants are tracked
    /// but unprotected.
    pub budget_bytes: Option<usize>,
    pub used_bytes: usize,
    pub insertions: u64,
    pub evictions: u64,
}

#[derive(Debug, Default)]
struct TenantState {
    budget: Option<usize>,
    used: usize,
    insertions: u64,
    evictions: u64,
}

struct Entry {
    data: Arc<CachedData>,
    bytes: usize,
    /// Owning tenant for budget scoping; `None` for untenanted (library)
    /// inserts.
    tenant: Option<String>,
    /// LRU stamp; atomic so lookups bump it under the shared read lock.
    last_used: AtomicU64,
    /// Eviction slack in LRU ticks: replicas that are expensive to rebuild
    /// survive as if they had been touched `rebuild_bonus` ticks more
    /// recently (GreedyDual-style; 0 = pure LRU).
    rebuild_bonus: f64,
    fingerprint: (u64, u64),
}

impl Entry {
    /// Eviction priority: the lowest goes first.
    fn priority(&self) -> f64 {
        self.last_used.load(Ordering::Relaxed) as f64 + self.rebuild_bonus
    }
}

#[derive(Default)]
struct AtomicStats {
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

/// Budgeted cache of raw-data column replicas.
///
/// # Example
///
/// Replicas of the same field coexist in several layouts; `get_any` probes
/// them in the caller's preference order (the optimizer's cost model
/// supplies that order in the engine):
///
/// ```
/// use std::sync::Arc;
/// use vida_cache::{CacheKey, CacheManager, CachedData, Layout};
/// use vida_types::Value;
///
/// let cache = CacheManager::new(1 << 20); // 1 MiB budget
/// let fingerprint = (42, 0); // (file length, mtime)
/// cache.put(
///     CacheKey::new("Patients", "age", Layout::Values),
///     CachedData::Values(Arc::new(vec![Value::Int(71), Value::Int(34)])),
///     fingerprint,
/// );
/// cache.put(
///     CacheKey::new("Patients", "age", Layout::Positions),
///     CachedData::Positions(vec![(12, 14), (20, 22)]),
///     fingerprint,
/// );
/// let (layout, data) = cache
///     .get_any("Patients", "age", &[Layout::Values, Layout::Positions])
///     .unwrap();
/// assert_eq!(layout, Layout::Values);
/// assert_eq!(data.get(0).unwrap(), Value::Int(71));
/// // The raw file changed: every replica of the dataset is dropped.
/// assert_eq!(cache.invalidate_stale("Patients", (43, 0)), 2);
/// ```
pub struct CacheManager {
    budget_bytes: usize,
    entries: RwLock<HashMap<CacheKey, Entry>>,
    clock: AtomicU64,
    /// Mutated only under the write lock; atomic so usage reads are
    /// lock-free.
    used_bytes: AtomicUsize,
    stats: AtomicStats,
    /// Per-tenant budgets and usage. Always locked *after* `entries` when
    /// both are held, and only mutated while holding the `entries` write
    /// lock, so usage never drifts from the entries it accounts for.
    tenants: RwLock<HashMap<String, TenantState>>,
    /// Side table of fold partials for incremental re-aggregation (small,
    /// count-bounded — see [`crate::fold`]).
    folds: FoldCache,
}

impl CacheManager {
    /// Create a manager with a memory budget in bytes.
    pub fn new(budget_bytes: usize) -> Self {
        CacheManager {
            budget_bytes,
            entries: RwLock::new(HashMap::new()),
            clock: AtomicU64::new(0),
            used_bytes: AtomicUsize::new(0),
            stats: AtomicStats::default(),
            tenants: RwLock::new(HashMap::new()),
            folds: FoldCache::new(),
        }
    }

    /// The fold-partial side table (incremental re-aggregation).
    pub fn folds(&self) -> &FoldCache {
        &self.folds
    }

    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    pub fn used_bytes(&self) -> usize {
        self.used_bytes.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            insertions: self.stats.insertions.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            invalidations: self.stats.invalidations.load(Ordering::Relaxed),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Give `tenant` a byte quota. Entries inserted for a budgeted tenant
    /// (via [`CacheManager::put_with_cost_for`]) are charged against it:
    /// the tenant's own lowest-priority entries are evicted to stay within
    /// quota, and while the tenant is at or under quota no *other* tenant's
    /// insert can victimize its entries. Untenanted entries and quota-less
    /// tenants keep the original pure global-budget behavior.
    pub fn set_tenant_budget(&self, tenant: &str, bytes: usize) {
        let mut tenants = self.tenants.write();
        tenants.entry(tenant.to_string()).or_default().budget = Some(bytes);
    }

    /// Budget/usage/eviction counters for one tenant (zeros if unknown).
    pub fn tenant_stats(&self, tenant: &str) -> TenantStats {
        let tenants = self.tenants.read();
        match tenants.get(tenant) {
            Some(s) => TenantStats {
                budget_bytes: s.budget,
                used_bytes: s.used,
                insertions: s.insertions,
                evictions: s.evictions,
            },
            None => TenantStats::default(),
        }
    }

    /// Every tenant the cache has seen (budgeted or not), sorted.
    pub fn tenant_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tenants.read().keys().cloned().collect();
        names.sort();
        names
    }

    fn tenant_quota(&self, tenant: &str) -> Option<usize> {
        self.tenants.read().get(tenant).and_then(|s| s.budget)
    }

    fn tenant_used(&self, tenant: &str) -> usize {
        self.tenants.read().get(tenant).map_or(0, |s| s.used)
    }

    fn credit_tenant(&self, tenant: &str, bytes: usize) {
        let mut tenants = self.tenants.write();
        let state = tenants.entry(tenant.to_string()).or_default();
        state.used += bytes;
        state.insertions += 1;
    }

    fn debit_tenant(&self, tenant: &Option<String>, bytes: usize, evicted: bool) {
        let Some(t) = tenant else { return };
        let mut tenants = self.tenants.write();
        if let Some(state) = tenants.get_mut(t) {
            state.used = state.used.saturating_sub(bytes);
            if evicted {
                state.evictions += 1;
            }
        }
    }

    /// May an insert on behalf of `inserting` victimize `e`? A tenant at or
    /// under its quota is protected from everyone but itself; untenanted
    /// entries and quota-less tenants are always fair game.
    fn entry_evictable(&self, inserting: Option<&str>, e: &Entry) -> bool {
        let Some(owner) = e.tenant.as_deref() else {
            return true;
        };
        if Some(owner) == inserting {
            return true;
        }
        let tenants = self.tenants.read();
        match tenants.get(owner) {
            Some(s) => match s.budget {
                Some(quota) => s.used > quota,
                None => true,
            },
            None => true,
        }
    }

    /// Remove `k`, updating global usage, eviction counters, and the owning
    /// tenant's account.
    fn evict_entry(&self, entries: &mut HashMap<CacheKey, Entry>, k: &CacheKey) {
        let e = entries.remove(k).expect("victim exists");
        self.used_bytes.fetch_sub(e.bytes, Ordering::Relaxed);
        self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        global_metrics().cache_evictions.inc();
        self.debit_tenant(&e.tenant, e.bytes, true);
    }

    /// Look up an entry; bumps LRU clock and hit/miss counters. Takes only
    /// the read lock, so concurrent lookups never serialize.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CachedData>> {
        let entries = self.entries.read();
        match entries.get(key) {
            Some(e) => {
                e.last_used.store(self.tick(), Ordering::Relaxed);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                global_metrics().cache_hits.inc();
                Some(Arc::clone(&e.data))
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                global_metrics().cache_misses.inc();
                None
            }
        }
    }

    /// Look up any layout of `(dataset, field)`, preferring the order given.
    pub fn get_any(
        &self,
        dataset: &str,
        field: &str,
        preference: &[Layout],
    ) -> Option<(Layout, Arc<CachedData>)> {
        let entries = self.entries.read();
        for &layout in preference {
            let key = CacheKey::new(dataset, field, layout);
            // Peek without counting misses for non-preferred layouts.
            if let Some(e) = entries.get(&key) {
                e.last_used.store(self.tick(), Ordering::Relaxed);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                global_metrics().cache_hits.inc();
                return Some((layout, Arc::clone(&e.data)));
            }
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        global_metrics().cache_misses.inc();
        None
    }

    /// [`CacheManager::get_any`], also reporting the fingerprint the entry
    /// was stored under. The incremental re-query path needs it: after a
    /// pure append, a replica stored under the *pre-append* fingerprint is
    /// not stale — it is valid for the unchanged prefix rows and only the
    /// tail needs scanning.
    pub fn get_any_versioned(
        &self,
        dataset: &str,
        field: &str,
        preference: &[Layout],
    ) -> Option<(Layout, Arc<CachedData>, (u64, u64))> {
        let entries = self.entries.read();
        for &layout in preference {
            let key = CacheKey::new(dataset, field, layout);
            if let Some(e) = entries.get(&key) {
                e.last_used.store(self.tick(), Ordering::Relaxed);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                global_metrics().cache_hits.inc();
                return Some((layout, Arc::clone(&e.data), e.fingerprint));
            }
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        global_metrics().cache_misses.inc();
        None
    }

    /// Insert (or replace) an entry, evicting entries to stay within budget.
    /// Entries larger than the whole budget are refused (returns false) —
    /// caching them would evict everything for a single query.
    ///
    /// Eviction is LRU; see [`CacheManager::put_with_cost`] for the
    /// rebuild-cost-weighted variant.
    pub fn put(&self, key: CacheKey, data: CachedData, fingerprint: (u64, u64)) -> bool {
        self.put_with_cost(key, data, fingerprint, 0.0)
    }

    /// [`CacheManager::put`] with an explicit **rebuild cost** expressed in
    /// LRU clock ticks: when eviction runs, the victim is the entry with the
    /// lowest `last_used + rebuild_cost`, so replicas that would be
    /// expensive to recreate (a fresh raw-file parse plus the layout build)
    /// outlive equally-recent cheap ones. A cost of `0.0` is pure LRU; the
    /// optimizer's `CostModel::eviction_bonus` supplies bounded costs.
    pub fn put_with_cost(
        &self,
        key: CacheKey,
        data: CachedData,
        fingerprint: (u64, u64),
        rebuild_cost: f64,
    ) -> bool {
        self.put_with_cost_for(None, key, data, fingerprint, rebuild_cost)
    }

    /// [`CacheManager::put_with_cost`] on behalf of a tenant. The insert is
    /// charged against the tenant's quota (see
    /// [`CacheManager::set_tenant_budget`]): first the tenant's own
    /// lowest-priority entries are evicted until the new entry fits within
    /// its quota, then the global budget is enforced by evicting
    /// lowest-priority *unprotected* entries — never another tenant's while
    /// that tenant is at or under its own quota. Returns false when the
    /// entry cannot fit without breaking a protection.
    pub fn put_with_cost_for(
        &self,
        tenant: Option<&str>,
        key: CacheKey,
        data: CachedData,
        fingerprint: (u64, u64),
        rebuild_cost: f64,
    ) -> bool {
        let bytes = data.approx_bytes();
        if bytes > self.budget_bytes {
            return false;
        }
        let quota = tenant.and_then(|t| self.tenant_quota(t));
        if quota.is_some_and(|q| bytes > q) {
            return false;
        }
        let mut entries = self.entries.write();
        let clock = self.tick();
        if let Some(old) = entries.remove(&key) {
            self.used_bytes.fetch_sub(old.bytes, Ordering::Relaxed);
            self.debit_tenant(&old.tenant, old.bytes, false);
        }
        // Quota enforcement: this tenant stays within its own budget by
        // shedding its own coldest entries first.
        if let (Some(t), Some(q)) = (tenant, quota) {
            while self.tenant_used(t) + bytes > q {
                let victim = entries
                    .iter()
                    .filter(|(_, e)| e.tenant.as_deref() == Some(t))
                    .min_by(|(_, a), (_, b)| {
                        a.priority()
                            .partial_cmp(&b.priority())
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .map(|(k, _)| k.clone());
                match victim {
                    Some(k) => self.evict_entry(&mut entries, &k),
                    None => return false,
                }
            }
        }
        // Global budget: evict lowest-priority unprotected entries until
        // the new entry fits.
        while self.used_bytes.load(Ordering::Relaxed) + bytes > self.budget_bytes {
            let victim = entries
                .iter()
                .filter(|(_, e)| self.entry_evictable(tenant, e))
                .min_by(|(_, a), (_, b)| {
                    a.priority()
                        .partial_cmp(&b.priority())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => self.evict_entry(&mut entries, &k),
                None => return false,
            }
        }
        self.used_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.stats.insertions.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = tenant {
            self.credit_tenant(t, bytes);
        }
        let metrics = global_metrics();
        metrics.cache_insertions.inc();
        metrics.cache_replica_bytes.record(bytes as u64);
        entries.insert(
            key,
            Entry {
                data: Arc::new(data),
                bytes,
                tenant: tenant.map(str::to_string),
                last_used: AtomicU64::new(clock),
                rebuild_bonus: rebuild_cost.max(0.0),
                fingerprint,
            },
        );
        true
    }

    /// Extend a resident `Values` replica in place with appended tail rows
    /// — the O(delta) half of incremental re-query over a grown file. The
    /// entry must be a `Values` replica stored under `expect_fingerprint`
    /// with at least `keep_rows` rows; rows beyond `keep_rows` (a
    /// re-parsed unterminated last unit) are dropped, `tail` is appended,
    /// and the entry is promoted to `fingerprint` so the next query is a
    /// plain full hit. Returns the full column, shared with the refreshed
    /// entry, or `None` when no qualifying entry exists (the caller then
    /// stitches prefix and tail by hand).
    ///
    /// The splice normally mutates the resident vector directly; a
    /// concurrent query still holding the column forces one copy-on-write.
    pub fn extend_values(
        &self,
        key: &CacheKey,
        expect_fingerprint: (u64, u64),
        keep_rows: usize,
        tail: Vec<Value>,
        fingerprint: (u64, u64),
    ) -> Option<Arc<Vec<Value>>> {
        let added: usize = tail.iter().map(Value::approx_bytes).sum();
        let mut entries = self.entries.write();
        let clock = self.tick();
        let (full, owner) = {
            let entry = entries.get_mut(key)?;
            if entry.fingerprint != expect_fingerprint
                || entry.data.layout() != Layout::Values
                || entry.data.len() < keep_rows
            {
                return None;
            }
            let CachedData::Values(vec) = Arc::make_mut(&mut entry.data) else {
                unreachable!("layout checked above");
            };
            let vec = Arc::make_mut(vec);
            let removed: usize = vec[keep_rows..].iter().map(Value::approx_bytes).sum();
            vec.truncate(keep_rows);
            vec.extend(tail);
            entry.bytes = (entry.bytes + added).saturating_sub(removed);
            entry.fingerprint = fingerprint;
            entry.last_used.store(clock, Ordering::Relaxed);
            if added >= removed {
                self.used_bytes
                    .fetch_add(added - removed, Ordering::Relaxed);
            } else {
                self.used_bytes
                    .fetch_sub(removed - added, Ordering::Relaxed);
            }
            if let Some(t) = &entry.tenant {
                let mut tenants = self.tenants.write();
                if let Some(state) = tenants.get_mut(t) {
                    state.used = (state.used + added).saturating_sub(removed);
                }
            }
            let CachedData::Values(vec) = &*entry.data else {
                unreachable!("layout checked above");
            };
            (Arc::clone(vec), entry.tenant.clone())
        };
        // The growth may push usage over budget: evict other *unprotected*
        // entries (same rule as an insert on the owner's behalf), never the
        // one just extended (an oversized survivor is the next put's
        // problem, exactly as with a fresh oversized insert).
        while self.used_bytes.load(Ordering::Relaxed) > self.budget_bytes {
            let victim = entries
                .iter()
                .filter(|(k, e)| *k != key && self.entry_evictable(owner.as_deref(), e))
                .min_by(|(_, a), (_, b)| {
                    a.priority()
                        .partial_cmp(&b.priority())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => self.evict_entry(&mut entries, &k),
                None => break,
            }
        }
        Some(full)
    }

    /// Whether an entry exists, without touching LRU stamps or counters.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.entries.read().contains_key(key)
    }

    /// Whether an entry exists **and** was written for `fingerprint`. The
    /// replica-sync step uses this instead of [`CacheManager::contains`]
    /// after an append: prior-generation replicas are deliberately retained
    /// (their prefix still serves), but they still need refreshing to the
    /// current generation or the next query would invalidate them.
    pub fn contains_fresh(&self, key: &CacheKey, fingerprint: (u64, u64)) -> bool {
        self.entries
            .read()
            .get(key)
            .is_some_and(|e| e.fingerprint == fingerprint)
    }

    /// Drop one entry (the optimizer re-shaping a replica supersedes the old
    /// layout). Returns whether it existed.
    pub fn remove(&self, key: &CacheKey) -> bool {
        let mut entries = self.entries.write();
        match entries.remove(key) {
            Some(e) => {
                self.used_bytes.fetch_sub(e.bytes, Ordering::Relaxed);
                self.debit_tenant(&e.tenant, e.bytes, false);
                true
            }
            None => false,
        }
    }

    /// Drop all entries of a dataset whose fingerprint differs from
    /// `current` — called when the engine notices a raw file changed
    /// (ViDa §2.1: updates drop the affected auxiliary structures).
    /// Returns the number of dropped entries.
    pub fn invalidate_stale(&self, dataset: &str, current: (u64, u64)) -> usize {
        // Every query re-validates fingerprints on its way in; stay on the
        // shared read lock for the common nothing-is-stale case.
        {
            let entries = self.entries.read();
            if !entries
                .iter()
                .any(|(k, e)| k.dataset == dataset && e.fingerprint != current)
            {
                return 0;
            }
        }
        let mut entries = self.entries.write();
        let stale: Vec<CacheKey> = entries
            .iter()
            .filter(|(k, e)| k.dataset == dataset && e.fingerprint != current)
            .map(|(k, _)| k.clone())
            .collect();
        for k in &stale {
            let e = entries.remove(k).expect("stale key exists");
            self.used_bytes.fetch_sub(e.bytes, Ordering::Relaxed);
            self.debit_tenant(&e.tenant, e.bytes, false);
        }
        self.stats
            .invalidations
            .fetch_add(stale.len() as u64, Ordering::Relaxed);
        global_metrics().cache_invalidations.add(stale.len() as u64);
        stale.len()
    }

    /// Drop all entries of a dataset whose fingerprint is in neither of
    /// the two accepted generations — the extension analogue of
    /// [`CacheManager::invalidate_stale`]. After a pure append, replicas
    /// under the pre-append fingerprint stay prefix-valid and replicas
    /// under the current fingerprint are fully valid; everything older is
    /// stale. Returns the number of dropped entries.
    pub fn retain_fingerprints(&self, dataset: &str, keep: &[(u64, u64)]) -> usize {
        {
            let entries = self.entries.read();
            if !entries
                .iter()
                .any(|(k, e)| k.dataset == dataset && !keep.contains(&e.fingerprint))
            {
                return 0;
            }
        }
        let mut entries = self.entries.write();
        let stale: Vec<CacheKey> = entries
            .iter()
            .filter(|(k, e)| k.dataset == dataset && !keep.contains(&e.fingerprint))
            .map(|(k, _)| k.clone())
            .collect();
        for k in &stale {
            let e = entries.remove(k).expect("stale key exists");
            self.used_bytes.fetch_sub(e.bytes, Ordering::Relaxed);
            self.debit_tenant(&e.tenant, e.bytes, false);
        }
        self.stats
            .invalidations
            .fetch_add(stale.len() as u64, Ordering::Relaxed);
        global_metrics().cache_invalidations.add(stale.len() as u64);
        stale.len()
    }

    /// Drop every entry of a dataset unconditionally, fold partials
    /// included.
    pub fn invalidate_dataset(&self, dataset: &str) -> usize {
        self.folds.invalidate_dataset(dataset);
        let mut entries = self.entries.write();
        let keys: Vec<CacheKey> = entries
            .keys()
            .filter(|k| k.dataset == dataset)
            .cloned()
            .collect();
        for k in &keys {
            let e = entries.remove(k).expect("key exists");
            self.used_bytes.fetch_sub(e.bytes, Ordering::Relaxed);
            self.debit_tenant(&e.tenant, e.bytes, false);
        }
        self.stats
            .invalidations
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
        global_metrics().cache_invalidations.add(keys.len() as u64);
        keys.len()
    }

    /// Clear everything (benchmark phase boundaries).
    pub fn clear(&self) {
        self.folds.clear();
        let mut entries = self.entries.write();
        entries.clear();
        self.used_bytes.store(0, Ordering::Relaxed);
        // Budgets and cumulative counters survive; usage resets with the
        // entries it accounted for.
        for state in self.tenants.write().values_mut() {
            state.used = 0;
        }
    }

    /// How many replicas exist per layout, across all datasets (sorted by
    /// layout name; layouts with zero replicas are omitted). The
    /// `reproduce` driver reports this to show which layouts the cost model
    /// actually picked.
    pub fn layout_counts(&self) -> Vec<(Layout, usize)> {
        let entries = self.entries.read();
        let mut counts: Vec<(Layout, usize)> = Vec::new();
        for k in entries.keys() {
            match counts.iter_mut().find(|(l, _)| *l == k.layout) {
                Some((_, n)) => *n += 1,
                None => counts.push((k.layout, 1)),
            }
        }
        counts.sort_by_key(|(l, _)| l.name());
        counts
    }

    /// [`CacheManager::layout_counts`] restricted to one tenant's entries —
    /// the per-tenant split the server's stats endpoint reports.
    pub fn layout_counts_for(&self, tenant: &str) -> Vec<(Layout, usize)> {
        let entries = self.entries.read();
        let mut counts: Vec<(Layout, usize)> = Vec::new();
        for (k, e) in entries.iter() {
            if e.tenant.as_deref() != Some(tenant) {
                continue;
            }
            match counts.iter_mut().find(|(l, _)| *l == k.layout) {
                Some((_, n)) => *n += 1,
                None => counts.push((k.layout, 1)),
            }
        }
        counts.sort_by_key(|(l, _)| l.name());
        counts
    }

    /// Which fields of a dataset are cached (any layout)?
    pub fn cached_fields(&self, dataset: &str) -> Vec<String> {
        let entries = self.entries.read();
        let mut fields: Vec<String> = entries
            .keys()
            .filter(|k| k.dataset == dataset)
            .map(|k| k.field.clone())
            .collect();
        fields.sort();
        fields.dedup();
        fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vida_types::Value;

    fn col(n: usize) -> CachedData {
        CachedData::Values(Arc::new((0..n).map(|i| Value::Int(i as i64)).collect()))
    }

    #[test]
    fn get_put_hit_miss() {
        let m = CacheManager::new(1 << 20);
        let key = CacheKey::new("Patients", "age", Layout::Values);
        assert!(m.get(&key).is_none());
        assert!(m.put(key.clone(), col(10), (1, 1)));
        let got = m.get(&key).unwrap();
        assert_eq!(got.len(), 10);
        let s = m.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn operations_feed_the_global_metrics_registry() {
        // The registry is process-global and shared with every other test,
        // so assert on deltas only.
        let before = global_metrics().snapshot();
        let m = CacheManager::new(1 << 20);
        let key = CacheKey::new("MetricsWiring", "age", Layout::Values);
        assert!(m.get(&key).is_none());
        assert!(m.put(key.clone(), col(10), (1, 1)));
        assert!(m.get(&key).is_some());
        m.invalidate_dataset("MetricsWiring");
        let delta = global_metrics().snapshot().since(&before);
        assert!(delta.cache_hits >= 1);
        assert!(delta.cache_misses >= 1);
        assert!(delta.cache_insertions >= 1);
        assert!(delta.cache_invalidations >= 1);
        assert!(delta.cache_replica_bytes.count() >= 1);
        assert!(delta.cache_replica_bytes.sum >= col(10).approx_bytes() as u64);
    }

    #[test]
    fn lru_eviction_under_budget() {
        // Budget fits roughly two of the three columns.
        let one = col(100).approx_bytes();
        let m = CacheManager::new(one * 2 + 10);
        m.put(CacheKey::new("d", "a", Layout::Values), col(100), (1, 1));
        m.put(CacheKey::new("d", "b", Layout::Values), col(100), (1, 1));
        // Touch "a" so "b" becomes LRU.
        m.get(&CacheKey::new("d", "a", Layout::Values)).unwrap();
        m.put(CacheKey::new("d", "c", Layout::Values), col(100), (1, 1));
        assert!(m.get(&CacheKey::new("d", "a", Layout::Values)).is_some());
        assert!(m.get(&CacheKey::new("d", "b", Layout::Values)).is_none());
        assert!(m.get(&CacheKey::new("d", "c", Layout::Values)).is_some());
        assert_eq!(m.stats().evictions, 1);
        assert!(m.used_bytes() <= m.budget_bytes());
    }

    #[test]
    fn oversized_entry_refused() {
        let m = CacheManager::new(64);
        assert!(!m.put(CacheKey::new("d", "big", Layout::Values), col(1000), (1, 1)));
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn invalidate_stale_by_fingerprint() {
        let m = CacheManager::new(1 << 20);
        m.put(CacheKey::new("d", "a", Layout::Values), col(5), (1, 1));
        m.put(CacheKey::new("d", "b", Layout::Values), col(5), (1, 1));
        m.put(CacheKey::new("e", "a", Layout::Values), col(5), (1, 1));
        // File "d" changed: fingerprint now (2, 2).
        let dropped = m.invalidate_stale("d", (2, 2));
        assert_eq!(dropped, 2);
        assert!(m.get(&CacheKey::new("d", "a", Layout::Values)).is_none());
        assert!(m.get(&CacheKey::new("e", "a", Layout::Values)).is_some());
        // Same fingerprint: nothing dropped.
        assert_eq!(m.invalidate_stale("e", (1, 1)), 0);
    }

    #[test]
    fn retain_fingerprints_keeps_two_generations() {
        let m = CacheManager::new(1 << 20);
        m.put(CacheKey::new("d", "old", Layout::Values), col(5), (1, 1));
        m.put(CacheKey::new("d", "prev", Layout::Values), col(5), (2, 2));
        m.put(CacheKey::new("d", "cur", Layout::Values), col(5), (3, 3));
        m.put(CacheKey::new("e", "old", Layout::Values), col(5), (1, 1));
        // Append happened: (2,2) is the prefix-valid generation, (3,3) the
        // current one; only the (1,1) relic of dataset "d" drops.
        assert_eq!(m.retain_fingerprints("d", &[(2, 2), (3, 3)]), 1);
        assert!(m.get(&CacheKey::new("d", "old", Layout::Values)).is_none());
        assert!(m.get(&CacheKey::new("d", "prev", Layout::Values)).is_some());
        assert!(m.get(&CacheKey::new("d", "cur", Layout::Values)).is_some());
        assert!(m.get(&CacheKey::new("e", "old", Layout::Values)).is_some());
        // Nothing stale: read-lock fast path returns 0.
        assert_eq!(m.retain_fingerprints("d", &[(2, 2), (3, 3)]), 0);
    }

    #[test]
    fn get_any_versioned_reports_stored_fingerprint() {
        let m = CacheManager::new(1 << 20);
        m.put(CacheKey::new("d", "a", Layout::Values), col(5), (10, 20));
        let (layout, data, fp) = m
            .get_any_versioned("d", "a", &[Layout::Values, Layout::Positions])
            .unwrap();
        assert_eq!(layout, Layout::Values);
        assert_eq!(data.len(), 5);
        assert_eq!(fp, (10, 20));
        assert!(m.get_any_versioned("d", "b", &[Layout::Values]).is_none());
    }

    #[test]
    fn extend_values_splices_tail_in_place() {
        let m = CacheManager::new(1 << 20);
        let key = CacheKey::new("d", "a", Layout::Values);
        m.put(key.clone(), col(5), (1, 1));
        let before = m.used_bytes();
        let full = m
            .extend_values(&key, (1, 1), 5, vec![Value::Int(5), Value::Int(6)], (2, 2))
            .unwrap();
        assert_eq!(full.len(), 7);
        assert_eq!(full[6], Value::Int(6));
        assert!(m.used_bytes() > before);
        // Promoted to the new generation, sharing storage with the caller.
        assert!(m.contains_fresh(&key, (2, 2)));
        let got = m.get(&key).unwrap();
        let CachedData::Values(resident) = &*got else {
            panic!("values replica expected");
        };
        assert!(Arc::ptr_eq(resident, &full));
    }

    #[test]
    fn extend_values_drops_rows_past_the_proven_prefix() {
        // The last resident row re-parsed an unterminated unit: keep_rows
        // trims it before the tail (which re-reads it whole) goes on.
        let m = CacheManager::new(1 << 20);
        let key = CacheKey::new("d", "a", Layout::Values);
        m.put(key.clone(), col(5), (1, 1));
        let full = m
            .extend_values(
                &key,
                (1, 1),
                4,
                vec![Value::Int(40), Value::Int(41)],
                (2, 2),
            )
            .unwrap();
        assert_eq!(&full[3..], &[Value::Int(3), Value::Int(40), Value::Int(41)]);
    }

    #[test]
    fn extend_values_refuses_mismatches() {
        let m = CacheManager::new(1 << 20);
        let key = CacheKey::new("d", "a", Layout::Values);
        assert!(m.extend_values(&key, (1, 1), 0, vec![], (2, 2)).is_none());
        m.put(key.clone(), col(5), (1, 1));
        // Wrong stored generation.
        assert!(m
            .extend_values(&key, (9, 9), 5, vec![Value::Int(5)], (2, 2))
            .is_none());
        // Prefix longer than the replica.
        assert!(m
            .extend_values(&key, (1, 1), 6, vec![Value::Int(5)], (2, 2))
            .is_none());
        // Not a values replica.
        let pos = CacheKey::new("d", "a", Layout::Positions);
        m.put(pos.clone(), CachedData::Positions(vec![(0, 4); 5]), (1, 1));
        assert!(m
            .extend_values(&pos, (1, 1), 5, vec![Value::Int(5)], (2, 2))
            .is_none());
        // The untouched entry still serves under its old generation.
        assert!(m.contains_fresh(&key, (1, 1)));
    }

    #[test]
    fn extend_values_evicts_others_when_growth_exceeds_budget() {
        let one = col(100).approx_bytes();
        let m = CacheManager::new(one * 2 + 64);
        let hot = CacheKey::new("d", "hot", Layout::Values);
        m.put(hot.clone(), col(100), (1, 1));
        m.put(CacheKey::new("d", "cold", Layout::Values), col(100), (1, 1));
        let tail: Vec<Value> = (100..120).map(|i| Value::Int(i as i64)).collect();
        assert!(m.extend_values(&hot, (1, 1), 100, tail, (2, 2)).is_some());
        assert!(m.contains(&hot), "the extended entry is never the victim");
        assert!(!m.contains(&CacheKey::new("d", "cold", Layout::Values)));
        assert!(m.used_bytes() <= m.budget_bytes());
    }

    #[test]
    fn invalidate_dataset_drops_fold_partials_too() {
        let m = CacheManager::new(1 << 20);
        m.put(CacheKey::new("d", "a", Layout::Values), col(5), (1, 1));
        m.folds().put(
            "d",
            42,
            crate::fold::FoldPartial {
                partial: Value::Int(9),
                rows: 5,
                fingerprint: (1, 1),
            },
        );
        m.invalidate_dataset("d");
        assert!(m.folds().get("d", 42).is_none());
        assert!(m.is_empty());
    }

    #[test]
    fn invalidate_dataset_unconditional() {
        let m = CacheManager::new(1 << 20);
        m.put(CacheKey::new("d", "a", Layout::Values), col(5), (1, 1));
        m.put(
            CacheKey::new("d", "a", Layout::BinaryJson),
            CachedData::from_values(&[Value::Int(1)], Layout::BinaryJson).unwrap(),
            (1, 1),
        );
        assert_eq!(m.invalidate_dataset("d"), 2);
        assert_eq!(m.used_bytes(), 0);
    }

    #[test]
    fn layout_replicas_coexist() {
        let m = CacheManager::new(1 << 20);
        m.put(CacheKey::new("d", "a", Layout::Values), col(3), (1, 1));
        m.put(
            CacheKey::new("d", "a", Layout::Positions),
            CachedData::Positions(vec![(0, 5); 3]),
            (1, 1),
        );
        assert_eq!(m.len(), 2);
        let (layout, _) = m
            .get_any("d", "a", &[Layout::Positions, Layout::Values])
            .unwrap();
        assert_eq!(layout, Layout::Positions);
        assert_eq!(m.cached_fields("d"), vec!["a".to_string()]);
    }

    #[test]
    fn get_any_miss_counts_once() {
        let m = CacheManager::new(1 << 20);
        assert!(m.get_any("d", "a", &Layout::ALL).is_none());
        assert_eq!(m.stats().misses, 1);
    }

    #[test]
    fn replacing_entry_updates_bytes() {
        let m = CacheManager::new(1 << 20);
        let key = CacheKey::new("d", "a", Layout::Values);
        m.put(key.clone(), col(100), (1, 1));
        let big = m.used_bytes();
        m.put(key.clone(), col(10), (1, 1));
        assert!(m.used_bytes() < big);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn clear_resets_usage() {
        let m = CacheManager::new(1 << 20);
        m.put(CacheKey::new("d", "a", Layout::Values), col(5), (1, 1));
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.used_bytes(), 0);
    }

    #[test]
    fn rebuild_cost_outweighs_recency_in_eviction() {
        // Budget fits two columns. "cheap" is the more recently used entry,
        // but "dear" carries a large rebuild bonus: eviction must pick
        // "cheap" even though pure LRU would keep it.
        let one = col(100).approx_bytes();
        let m = CacheManager::new(one * 2 + 10);
        m.put_with_cost(
            CacheKey::new("d", "dear", Layout::Values),
            col(100),
            (1, 1),
            50.0,
        );
        m.put(
            CacheKey::new("d", "cheap", Layout::Values),
            col(100),
            (1, 1),
        );
        m.get(&CacheKey::new("d", "cheap", Layout::Values)).unwrap();
        m.put(CacheKey::new("d", "new", Layout::Values), col(100), (1, 1));
        assert!(m.contains(&CacheKey::new("d", "dear", Layout::Values)));
        assert!(!m.contains(&CacheKey::new("d", "cheap", Layout::Values)));
        assert!(m.contains(&CacheKey::new("d", "new", Layout::Values)));
    }

    #[test]
    fn zero_cost_put_is_pure_lru() {
        let one = col(100).approx_bytes();
        let m = CacheManager::new(one * 2 + 10);
        m.put_with_cost(
            CacheKey::new("d", "a", Layout::Values),
            col(100),
            (1, 1),
            0.0,
        );
        m.put_with_cost(
            CacheKey::new("d", "b", Layout::Values),
            col(100),
            (1, 1),
            0.0,
        );
        m.get(&CacheKey::new("d", "a", Layout::Values)).unwrap();
        m.put(CacheKey::new("d", "c", Layout::Values), col(100), (1, 1));
        assert!(!m.contains(&CacheKey::new("d", "b", Layout::Values)));
    }

    #[test]
    fn remove_drops_entry_and_bytes() {
        let m = CacheManager::new(1 << 20);
        let key = CacheKey::new("d", "a", Layout::Values);
        m.put(key.clone(), col(10), (1, 1));
        assert!(m.used_bytes() > 0);
        assert!(m.remove(&key));
        assert!(!m.remove(&key));
        assert_eq!(m.used_bytes(), 0);
        assert!(!m.contains(&key));
    }

    #[test]
    fn contains_does_not_touch_counters() {
        let m = CacheManager::new(1 << 20);
        let key = CacheKey::new("d", "a", Layout::Values);
        m.put(key.clone(), col(3), (1, 1));
        assert!(m.contains(&key));
        assert!(!m.contains(&CacheKey::new("d", "b", Layout::Values)));
        let s = m.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn layout_counts_report_replica_mix() {
        let m = CacheManager::new(1 << 20);
        m.put(CacheKey::new("d", "a", Layout::Values), col(3), (1, 1));
        m.put(CacheKey::new("d", "b", Layout::Values), col(3), (1, 1));
        m.put(
            CacheKey::new("d", "c", Layout::Positions),
            CachedData::Positions(vec![(0, 5); 3]),
            (1, 1),
        );
        let counts = m.layout_counts();
        assert_eq!(counts, vec![(Layout::Positions, 1), (Layout::Values, 2)]);
    }

    #[test]
    fn tenant_quota_sheds_own_coldest_entries_first() {
        let one = col(100).approx_bytes();
        // Global budget is roomy; tenant "a" may hold only two columns.
        let m = CacheManager::new(one * 10);
        m.set_tenant_budget("a", one * 2 + 10);
        for f in ["x", "y"] {
            assert!(m.put_with_cost_for(
                Some("a"),
                CacheKey::new("d", f, Layout::Values),
                col(100),
                (1, 1),
                0.0,
            ));
        }
        m.get(&CacheKey::new("d", "x", Layout::Values)).unwrap();
        assert!(m.put_with_cost_for(
            Some("a"),
            CacheKey::new("d", "z", Layout::Values),
            col(100),
            (1, 1),
            0.0,
        ));
        // "y" was a's LRU entry and pays for a's own growth.
        assert!(m.contains(&CacheKey::new("d", "x", Layout::Values)));
        assert!(!m.contains(&CacheKey::new("d", "y", Layout::Values)));
        assert!(m.contains(&CacheKey::new("d", "z", Layout::Values)));
        let stats = m.tenant_stats("a");
        assert_eq!(stats.evictions, 1);
        assert!(stats.used_bytes <= stats.budget_bytes.unwrap());
    }

    #[test]
    fn skewed_tenants_never_cross_evict_past_quota() {
        let one = col(100).approx_bytes();
        // Global budget fits four columns; "big" may hold three, "small" one.
        let m = CacheManager::new(one * 4 + 20);
        m.set_tenant_budget("big", one * 3 + 15);
        m.set_tenant_budget("small", one + 5);
        for f in ["b1", "b2", "b3"] {
            assert!(m.put_with_cost_for(
                Some("big"),
                CacheKey::new("d", f, Layout::Values),
                col(100),
                (1, 1),
                0.0,
            ));
        }
        assert!(m.put_with_cost_for(
            Some("small"),
            CacheKey::new("d", "s1", Layout::Values),
            col(100),
            (1, 1),
            0.0,
        ));
        // The cache is globally full and both tenants are at quota. Either
        // tenant churning stays inside its own allotment:
        assert!(m.put_with_cost_for(
            Some("small"),
            CacheKey::new("d", "s2", Layout::Values),
            col(100),
            (1, 1),
            0.0,
        ));
        assert!(!m.contains(&CacheKey::new("d", "s1", Layout::Values)));
        for f in ["b1", "b2", "b3"] {
            assert!(
                m.contains(&CacheKey::new("d", f, Layout::Values)),
                "small's churn evicted big's {f} despite big being under quota"
            );
        }
        assert!(m.put_with_cost_for(
            Some("big"),
            CacheKey::new("d", "b4", Layout::Values),
            col(100),
            (1, 1),
            0.0,
        ));
        assert!(m.contains(&CacheKey::new("d", "s2", Layout::Values)));
        // Eviction counters split per tenant.
        assert_eq!(m.tenant_stats("small").evictions, 1);
        assert_eq!(m.tenant_stats("big").evictions, 1);
        assert_eq!(m.tenant_stats("big").insertions, 4);
        assert_eq!(m.tenant_names(), vec!["big".to_string(), "small".into()]);
    }

    #[test]
    fn untenanted_insert_cannot_victimize_protected_tenants() {
        let one = col(100).approx_bytes();
        let m = CacheManager::new(one * 2 + 10);
        m.set_tenant_budget("a", one * 2 + 10);
        for f in ["x", "y"] {
            assert!(m.put_with_cost_for(
                Some("a"),
                CacheKey::new("d", f, Layout::Values),
                col(100),
                (1, 1),
                0.0,
            ));
        }
        // Globally full, every entry protected: the untenanted put must be
        // refused rather than break a's quota.
        assert!(!m.put(CacheKey::new("d", "anon", Layout::Values), col(100), (1, 1)));
        assert!(m.contains(&CacheKey::new("d", "x", Layout::Values)));
        assert!(m.contains(&CacheKey::new("d", "y", Layout::Values)));
    }

    #[test]
    fn entry_larger_than_tenant_quota_refused() {
        let m = CacheManager::new(1 << 20);
        m.set_tenant_budget("tiny", 16);
        assert!(!m.put_with_cost_for(
            Some("tiny"),
            CacheKey::new("d", "a", Layout::Values),
            col(100),
            (1, 1),
            0.0,
        ));
        assert_eq!(m.tenant_stats("tiny").used_bytes, 0);
    }

    #[test]
    fn layout_counts_split_per_tenant() {
        let m = CacheManager::new(1 << 20);
        m.put_with_cost_for(
            Some("a"),
            CacheKey::new("d", "x", Layout::Values),
            col(3),
            (1, 1),
            0.0,
        );
        m.put_with_cost_for(
            Some("a"),
            CacheKey::new("d", "y", Layout::Positions),
            CachedData::Positions(vec![(0, 5); 3]),
            (1, 1),
            0.0,
        );
        m.put_with_cost_for(
            Some("b"),
            CacheKey::new("d", "z", Layout::Values),
            col(3),
            (1, 1),
            0.0,
        );
        assert_eq!(
            m.layout_counts_for("a"),
            vec![(Layout::Positions, 1), (Layout::Values, 1)]
        );
        assert_eq!(m.layout_counts_for("b"), vec![(Layout::Values, 1)]);
        assert!(m.layout_counts_for("nobody").is_empty());
        // The global view still sees everything.
        assert_eq!(
            m.layout_counts(),
            vec![(Layout::Positions, 1), (Layout::Values, 2)]
        );
    }

    #[test]
    fn removal_paths_debit_tenant_usage() {
        let m = CacheManager::new(1 << 20);
        m.set_tenant_budget("a", 1 << 20);
        let key = CacheKey::new("d", "x", Layout::Values);
        m.put_with_cost_for(Some("a"), key.clone(), col(10), (1, 1), 0.0);
        assert!(m.tenant_stats("a").used_bytes > 0);
        m.remove(&key);
        assert_eq!(m.tenant_stats("a").used_bytes, 0);

        m.put_with_cost_for(Some("a"), key.clone(), col(10), (2, 2), 0.0);
        assert_eq!(m.invalidate_stale("d", (3, 3)), 1);
        assert_eq!(m.tenant_stats("a").used_bytes, 0);

        m.put_with_cost_for(Some("a"), key.clone(), col(10), (3, 3), 0.0);
        m.clear();
        assert_eq!(m.tenant_stats("a").used_bytes, 0);
        // The quota survives a clear.
        assert_eq!(m.tenant_stats("a").budget_bytes, Some(1 << 20));
    }

    #[test]
    fn concurrent_readers_while_one_worker_populates() {
        // Pipeline workers hammer lookups while another worker inserts
        // replicas; counters and byte accounting must stay consistent.
        let m = std::sync::Arc::new(CacheManager::new(1 << 20));
        let hot = CacheKey::new("d", "hot", Layout::Values);
        m.put(hot.clone(), col(64), (1, 1));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = std::sync::Arc::clone(&m);
                let hot = hot.clone();
                s.spawn(move || {
                    for _ in 0..500 {
                        assert!(m.get(&hot).is_some());
                    }
                });
            }
            let m = std::sync::Arc::clone(&m);
            s.spawn(move || {
                for i in 0..50 {
                    m.put(
                        CacheKey::new("d", format!("c{i}"), Layout::Values),
                        col(8),
                        (1, 1),
                    );
                }
            });
        });
        let s = m.stats();
        assert_eq!(s.hits, 2000);
        assert_eq!(s.insertions, 51);
        assert_eq!(m.len(), 51);
        assert!(m.used_bytes() <= m.budget_bytes());
    }
}
