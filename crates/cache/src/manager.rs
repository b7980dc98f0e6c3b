//! The cache manager: budgeted, layout-aware, invalidation-driven.
//!
//! A field of a dataset holds at most **one replica**, in one layout
//! (§5 "Re-using and re-shaping results"): inserting a field's replica in a
//! new layout retires the old one in the same step. A logical-clock LRU,
//! weighted by rebuild cost, keeps the total footprint under a configurable
//! budget and every budgeted tenant under its quota. When a raw file
//! changes, the entries of the generations it no longer vouches for are
//! dropped — the paper's §2.1 update story.
//!
//! Concurrency: one `RwLock` guards the whole cache state — replicas,
//! tenant accounts and fold partials — so every change to them happens in
//! one critical section and there is no lock order to keep. Lookups take
//! only the **read** lock: LRU stamps, the logical clock, byte usage and
//! hit/miss counters are atomics, so any number of pipeline workers read
//! replicas while one writer briefly holds the write lock.

use crate::fold::{FoldPartial, MAX_FOLD_ENTRIES};
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

/// Everything the lock guards. Replicas are keyed dataset → field, so a
/// field cannot hold two replicas: its layout is the stored data's.
#[derive(Default)]
struct State {
    entries: HashMap<String, HashMap<String, Entry>>,
    tenants: HashMap<String, TenantState>,
    /// Fold partials for incremental re-aggregation, keyed by `(dataset,
    /// query fingerprint)` and bounded by count (see [`crate::fold`]).
    folds: HashMap<(String, u64), FoldPartial>,
}

impl State {
    fn entry(&self, dataset: &str, field: &str) -> Option<&Entry> {
        self.entries.get(dataset)?.get(field)
    }

    fn iter(&self) -> impl Iterator<Item = (&str, &str, &Entry)> {
        self.entries
            .iter()
            .flat_map(|(d, fields)| fields.iter().map(move |(f, e)| (d.as_str(), f.as_str(), e)))
    }

    fn quota(&self, tenant: &str) -> Option<usize> {
        self.tenants.get(tenant).and_then(|s| s.budget)
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
/// A field holds one replica: writing it in another layout re-shapes it,
/// and lookups report the layout and the file generation it was built for:
///
/// ```
/// use std::sync::Arc;
/// use vida_cache::{CacheKey, CacheManager, CachedData, Layout};
/// use vida_types::Value;
///
/// let cache = CacheManager::new(1 << 20); // 1 MiB budget
/// let fingerprint = (42, 0); // (file length, mtime)
/// let ages = [Value::Int(71), Value::Int(34)];
/// cache.put(
///     CacheKey::new("Patients", "age", Layout::BinaryJson),
///     CachedData::from_values(&ages, Layout::BinaryJson).unwrap(),
///     fingerprint,
/// );
/// cache.put(
///     CacheKey::new("Patients", "age", Layout::Values),
///     CachedData::Values(Arc::new(ages.to_vec())),
///     fingerprint,
/// );
/// assert_eq!(cache.len(), 1); // the binary-JSON replica was retired
/// let (layout, data, stored) = cache.get_any("Patients", "age", &Layout::ALL).unwrap();
/// assert_eq!((layout, stored), (Layout::Values, fingerprint));
/// assert_eq!(data.get(0).unwrap(), Value::Int(71));
/// // The raw file changed: keep only replicas of the new generation.
/// assert_eq!(cache.retain_fingerprints("Patients", &[(43, 0)]), 1);
/// ```
pub struct CacheManager {
    budget_bytes: usize,
    state: RwLock<State>,
    clock: AtomicU64,
    /// Mutated only under the write lock; atomic so usage reads are
    /// lock-free.
    used_bytes: AtomicUsize,
    stats: AtomicStats,
}

impl CacheManager {
    /// Create a manager with a memory budget in bytes.
    pub fn new(budget_bytes: usize) -> Self {
        CacheManager {
            budget_bytes,
            state: RwLock::new(State::default()),
            clock: AtomicU64::new(0),
            used_bytes: AtomicUsize::new(0),
            stats: AtomicStats::default(),
        }
    }

    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    pub fn used_bytes(&self) -> usize {
        self.used_bytes.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.state.read().entries.values().map(HashMap::len).sum()
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
        let mut state = self.state.write();
        state.tenants.entry(tenant.to_string()).or_default().budget = Some(bytes);
    }

    /// Budget/usage/eviction counters for one tenant (zeros if unknown).
    pub fn tenant_stats(&self, tenant: &str) -> TenantStats {
        match self.state.read().tenants.get(tenant) {
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
        let mut names: Vec<String> = self.state.read().tenants.keys().cloned().collect();
        names.sort();
        names
    }

    /// Look up an entry; bumps LRU clock and hit/miss counters.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CachedData>> {
        self.get_any(&key.dataset, &key.field, &[key.layout])
            .map(|(_, data, _)| data)
    }

    /// Look up the replica of `(dataset, field)` if it is in one of
    /// `layouts`, with the layout and the fingerprint it was stored under.
    /// The incremental re-query path needs the fingerprint: after a pure
    /// append, a replica stored under the *pre-append* fingerprint is not
    /// stale — it is valid for the unchanged prefix rows and only the tail
    /// needs scanning. Takes only the read lock, so concurrent lookups
    /// never serialize.
    pub fn get_any(
        &self,
        dataset: &str,
        field: &str,
        layouts: &[Layout],
    ) -> Option<(Layout, Arc<CachedData>, (u64, u64))> {
        let state = self.state.read();
        let metrics = global_metrics();
        match state
            .entry(dataset, field)
            .filter(|e| layouts.contains(&e.data.layout()))
        {
            Some(e) => {
                e.last_used.store(self.tick(), Ordering::Relaxed);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                metrics.cache_hits.inc();
                Some((e.data.layout(), Arc::clone(&e.data), e.fingerprint))
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                metrics.cache_misses.inc();
                None
            }
        }
    }

    /// Insert (or replace) an untenanted entry with no rebuild cost — see
    /// [`CacheManager::put_with_cost_for`]. Returns whether it was stored.
    pub fn put(&self, key: CacheKey, data: CachedData, fingerprint: (u64, u64)) -> bool {
        self.put_with_cost_for(None, key, data, fingerprint, 0.0)
            .is_some()
    }

    /// Insert the field's replica on behalf of `tenant`, replacing the
    /// field's replica in any layout. Returns how many replicas in *other*
    /// layouts it retired (0 or 1), or `None` when the entry does not fit;
    /// a refused insert changes nothing.
    ///
    /// Eviction takes the entries with the lowest `last_used +
    /// rebuild_cost` first (`rebuild_cost` is in LRU clock ticks; `0.0` is
    /// pure LRU, and the optimizer's `CostModel::eviction_bonus` supplies
    /// bounded costs), so replicas that would be expensive to recreate
    /// outlive equally-recent cheap ones. A budgeted tenant (see
    /// [`CacheManager::set_tenant_budget`]) first sheds its own entries
    /// until the new one fits its quota; then the global budget is
    /// enforced by evicting *unprotected* entries — never another tenant's
    /// while that tenant is at or under its own quota.
    pub fn put_with_cost_for(
        &self,
        tenant: Option<&str>,
        key: CacheKey,
        data: CachedData,
        fingerprint: (u64, u64),
        rebuild_cost: f64,
    ) -> Option<usize> {
        let bytes = data.approx_bytes();
        let mut state = self.state.write();
        let victims = self.plan_evictions(&state, tenant, (&key.dataset, &key.field), bytes)?;
        self.evict(&mut state, victims);
        let retired = self
            .take(&mut state, &key.dataset, &key.field)
            .is_some_and(|old| old.data.layout() != key.layout);
        self.stats.insertions.fetch_add(1, Ordering::Relaxed);
        let metrics = global_metrics();
        metrics.cache_insertions.inc();
        metrics.cache_replica_bytes.record(bytes as u64);
        if let Some(t) = tenant {
            state.tenants.entry(t.to_string()).or_default().insertions += 1;
        }
        let entry = Entry {
            data: Arc::new(data),
            bytes,
            tenant: tenant.map(str::to_string),
            last_used: AtomicU64::new(self.tick()),
            rebuild_bonus: rebuild_cost.max(0.0),
            fingerprint,
        };
        self.place(&mut state, key.dataset, key.field, entry);
        Some(usize::from(retired))
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
    /// The growth is charged like an insert by the entry's owner: other
    /// entries are evicted to keep the owner within its quota and the
    /// cache within budget, never the extended entry itself. When no set
    /// of victims makes room, nothing is evicted and the grown entry stays.
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
        let mut state = self.state.write();
        let extendable = state.entry(&key.dataset, &key.field).is_some_and(|e| {
            e.fingerprint == expect_fingerprint
                && e.data.layout() == Layout::Values
                && key.layout == Layout::Values
                && e.data.len() >= keep_rows
        });
        if !extendable {
            return None;
        }
        let mut entry = self
            .take(&mut state, &key.dataset, &key.field)
            .expect("checked above");
        let CachedData::Values(vec) = Arc::make_mut(&mut entry.data) else {
            unreachable!("layout checked above");
        };
        let vec = Arc::make_mut(vec);
        let removed: usize = vec[keep_rows..].iter().map(Value::approx_bytes).sum();
        vec.truncate(keep_rows);
        vec.extend(tail);
        entry.bytes = (entry.bytes + added).saturating_sub(removed);
        entry.fingerprint = fingerprint;
        entry.last_used.store(self.tick(), Ordering::Relaxed);
        let CachedData::Values(full) = &*entry.data else {
            unreachable!("layout checked above");
        };
        let full = Arc::clone(full);
        let owner = entry.tenant.clone();
        let slot = (key.dataset.as_str(), key.field.as_str());
        if let Some(victims) = self.plan_evictions(&state, owner.as_deref(), slot, entry.bytes) {
            self.evict(&mut state, victims);
        }
        self.place(&mut state, key.dataset.clone(), key.field.clone(), entry);
        Some(full)
    }

    /// The eviction planner shared by inserts and
    /// [`CacheManager::extend_values`]: which entries must go so that the
    /// field `slot` can hold `bytes` on behalf of `owner`. The slot's
    /// current replica is replaced by the change and is never a victim.
    /// Victims are taken lowest priority first — the owner's own entries
    /// while the owner is over its quota, then any unprotected entry while
    /// the cache is over budget. `None` when no set of victims makes
    /// everything fit.
    fn plan_evictions(
        &self,
        state: &State,
        owner: Option<&str>,
        slot: (&str, &str),
        bytes: usize,
    ) -> Option<Vec<(String, String)>> {
        let shed = |e: &Entry, used: &mut HashMap<&str, usize>, global: &mut usize| {
            *global -= e.bytes;
            if let Some(u) = e.tenant.as_deref().and_then(|t| used.get_mut(t)) {
                *u -= e.bytes;
            }
        };
        // Usage once the slot holds `bytes`, globally and per tenant.
        let mut global = self.used_bytes() + bytes;
        let mut used: HashMap<&str, usize> = state
            .tenants
            .iter()
            .map(|(t, s)| (t.as_str(), s.used))
            .collect();
        if let Some(t) = owner {
            *used.entry(t).or_default() += bytes;
        }
        if let Some(replaced) = state.entry(slot.0, slot.1) {
            shed(replaced, &mut used, &mut global);
        }
        let over_quota = |used: &HashMap<&str, usize>, t: &str| {
            state
                .quota(t)
                .is_some_and(|q| used.get(t).copied().unwrap_or(0) > q)
        };
        let owner_over = |used: &HashMap<&str, usize>| owner.is_some_and(|t| over_quota(used, t));
        if global <= self.budget_bytes && !owner_over(&used) {
            return Some(Vec::new());
        }
        let mut candidates: Vec<(&str, &str, &Entry)> =
            state.iter().filter(|&(d, f, _)| (d, f) != slot).collect();
        candidates.sort_by(|a, b| a.2.priority().total_cmp(&b.2.priority()));
        let mut taken = vec![false; candidates.len()];
        // Quota: the owner sheds its own coldest entries.
        for (i, &(_, _, e)) in candidates.iter().enumerate() {
            if !owner_over(&used) {
                break;
            }
            if e.tenant.as_deref() == owner {
                taken[i] = true;
                shed(e, &mut used, &mut global);
            }
        }
        if owner_over(&used) {
            return None;
        }
        // Budget: a tenant at or under its quota is protected from everyone
        // but itself. Shedding only lowers usage, so an entry skipped as
        // protected stays protected: one pass in priority order picks what
        // repeated lowest-priority scans would.
        for (i, &(_, _, e)) in candidates.iter().enumerate() {
            if global <= self.budget_bytes {
                break;
            }
            let protected =
                |t: &str| Some(t) != owner && state.quota(t).is_some() && !over_quota(&used, t);
            if !taken[i] && !e.tenant.as_deref().is_some_and(protected) {
                taken[i] = true;
                shed(e, &mut used, &mut global);
            }
        }
        (global <= self.budget_bytes).then(|| {
            candidates
                .iter()
                .zip(taken)
                .filter(|(_, taken)| *taken)
                .map(|(&(d, f, _), _)| (d.to_string(), f.to_string()))
                .collect()
        })
    }

    /// Remove planned victims, counting the evictions.
    fn evict(&self, state: &mut State, victims: Vec<(String, String)>) {
        for (dataset, field) in victims {
            let e = self
                .take(state, &dataset, &field)
                .expect("planned victim is resident");
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            global_metrics().cache_evictions.inc();
            if let Some(s) = e.tenant.and_then(|t| state.tenants.get_mut(&t)) {
                s.evictions += 1;
            }
        }
    }

    /// Take one replica out of the map, releasing its bytes from the
    /// global and the owning tenant's usage.
    fn take(&self, state: &mut State, dataset: &str, field: &str) -> Option<Entry> {
        let fields = state.entries.get_mut(dataset)?;
        let e = fields.remove(field)?;
        if fields.is_empty() {
            state.entries.remove(dataset);
        }
        self.used_bytes.fetch_sub(e.bytes, Ordering::Relaxed);
        if let Some(s) = e.tenant.as_ref().and_then(|t| state.tenants.get_mut(t)) {
            s.used = s.used.saturating_sub(e.bytes);
        }
        Some(e)
    }

    /// Put one replica into the empty slot of its field, charging its
    /// bytes to the global and the owning tenant's usage.
    fn place(&self, state: &mut State, dataset: String, field: String, e: Entry) {
        self.used_bytes.fetch_add(e.bytes, Ordering::Relaxed);
        if let Some(t) = &e.tenant {
            state.tenants.entry(t.clone()).or_default().used += e.bytes;
        }
        state.entries.entry(dataset).or_default().insert(field, e);
    }

    /// Whether an entry exists, without touching LRU stamps or counters.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.state
            .read()
            .entry(&key.dataset, &key.field)
            .is_some_and(|e| e.data.layout() == key.layout)
    }

    /// Whether an entry exists **and** was written for `fingerprint`. The
    /// replica-sync step uses this instead of [`CacheManager::contains`]
    /// after an append: prior-generation replicas are deliberately retained
    /// (their prefix still serves), but they still need refreshing to the
    /// current generation or the next query would invalidate them.
    pub fn contains_fresh(&self, key: &CacheKey, fingerprint: (u64, u64)) -> bool {
        self.state
            .read()
            .entry(&key.dataset, &key.field)
            .is_some_and(|e| e.data.layout() == key.layout && e.fingerprint == fingerprint)
    }

    /// Drop every replica of `dataset` whose fingerprint is not in `keep`
    /// — the engine's one invalidation call (ViDa §2.1: updates drop the
    /// affected auxiliary structures). An unchanged file keeps its current
    /// fingerprint; a file grown by a pure append keeps two generations,
    /// since replicas under the pre-append fingerprint stay prefix-valid;
    /// a rebuilt file keeps only its new one. When a replica drops, the
    /// dataset's fold partials under other fingerprints drop with it.
    /// Returns the number of dropped replicas.
    pub fn retain_fingerprints(&self, dataset: &str, keep: &[(u64, u64)]) -> usize {
        let stale = |e: &Entry| !keep.contains(&e.fingerprint);
        // Every query re-validates fingerprints on its way in; stay on the
        // shared read lock for the common nothing-is-stale case. Partials
        // are not checked here: reuse matches their fingerprint anyway, so
        // a stale one only waits for the next replica invalidation.
        {
            let state = self.state.read();
            let fields = state.entries.get(dataset);
            if !fields.is_some_and(|fields| fields.values().any(stale)) {
                return 0;
            }
        }
        let mut state = self.state.write();
        state
            .folds
            .retain(|(d, _), p| d != dataset || keep.contains(&p.fingerprint));
        let dropped: Vec<String> = state.entries.get(dataset).map_or_else(Vec::new, |fields| {
            fields
                .iter()
                .filter(|(_, e)| stale(e))
                .map(|(f, _)| f.clone())
                .collect()
        });
        for field in &dropped {
            self.take(&mut state, dataset, field);
        }
        let n = dropped.len() as u64;
        self.stats.invalidations.fetch_add(n, Ordering::Relaxed);
        global_metrics().cache_invalidations.add(n);
        dropped.len()
    }

    /// The cached fold partial of one `(dataset, query fingerprint)` pair.
    pub fn fold_partial(&self, dataset: &str, query: u64) -> Option<FoldPartial> {
        let state = self.state.read();
        state.folds.get(&(dataset.to_string(), query)).cloned()
    }

    /// Insert or replace the fold partial of one `(dataset, query
    /// fingerprint)` pair. Past [`MAX_FOLD_ENTRIES`] an arbitrary partial
    /// makes room: the table is a performance hint, never a correctness
    /// dependency.
    pub fn put_fold_partial(&self, dataset: &str, query: u64, partial: FoldPartial) {
        let mut state = self.state.write();
        let key = (dataset.to_string(), query);
        if state.folds.len() >= MAX_FOLD_ENTRIES && !state.folds.contains_key(&key) {
            if let Some(victim) = state.folds.keys().next().cloned() {
                state.folds.remove(&victim);
            }
        }
        state.folds.insert(key, partial);
    }

    /// Clear everything (benchmark phase boundaries).
    pub fn clear(&self) {
        let mut state = self.state.write();
        state.entries.clear();
        state.folds.clear();
        self.used_bytes.store(0, Ordering::Relaxed);
        // Budgets and cumulative counters survive; usage resets with the
        // entries it accounted for.
        for s in state.tenants.values_mut() {
            s.used = 0;
        }
    }

    /// How many replicas exist per layout, across all datasets (sorted by
    /// layout name; layouts with zero replicas are omitted). The server's
    /// stats endpoint reports this to show which layouts the cost model
    /// actually picked.
    pub fn layout_counts(&self) -> Vec<(Layout, usize)> {
        self.count_layouts(|_| true)
    }

    /// [`CacheManager::layout_counts`] restricted to one tenant's entries —
    /// the per-tenant split the server's stats endpoint reports.
    pub fn layout_counts_for(&self, tenant: &str) -> Vec<(Layout, usize)> {
        self.count_layouts(|e| e.tenant.as_deref() == Some(tenant))
    }

    fn count_layouts(&self, include: impl Fn(&Entry) -> bool) -> Vec<(Layout, usize)> {
        let state = self.state.read();
        let mut counts: Vec<(Layout, usize)> = Vec::new();
        for (_, _, e) in state.iter().filter(|(_, _, e)| include(e)) {
            let layout = e.data.layout();
            match counts.iter_mut().find(|(l, _)| *l == layout) {
                Some((_, n)) => *n += 1,
                None => counts.push((layout, 1)),
            }
        }
        counts.sort_by_key(|(l, _)| l.name());
        counts
    }

    /// Which fields of a dataset are cached?
    pub fn cached_fields(&self, dataset: &str) -> Vec<String> {
        let state = self.state.read();
        let mut fields: Vec<String> = state
            .entries
            .get(dataset)
            .map_or_else(Vec::new, |fields| fields.keys().cloned().collect());
        fields.sort();
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

    fn binary(n: usize) -> CachedData {
        let vals: Vec<Value> = (0..n).map(|i| Value::Int(i as i64)).collect();
        CachedData::from_values(&vals, Layout::BinaryJson).unwrap()
    }

    /// A zero-cost insert of field `f` of dataset `d` on behalf of `tenant`.
    fn put_for(m: &CacheManager, tenant: &str, f: &str, data: CachedData) -> bool {
        let key = CacheKey::new("d", f, data.layout());
        m.put_with_cost_for(Some(tenant), key, data, (1, 1), 0.0)
            .is_some()
    }

    fn values(f: &str) -> CacheKey {
        CacheKey::new("d", f, Layout::Values)
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
        m.retain_fingerprints("MetricsWiring", &[]);
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
        m.put(values("a"), col(100), (1, 1));
        m.put(values("b"), col(100), (1, 1));
        // Touch "a" so "b" becomes LRU.
        m.get(&values("a")).unwrap();
        m.put(values("c"), col(100), (1, 1));
        assert!(m.get(&values("a")).is_some());
        assert!(m.get(&values("b")).is_none());
        assert!(m.get(&values("c")).is_some());
        assert_eq!(m.stats().evictions, 1);
        assert!(m.used_bytes() <= m.budget_bytes());
    }

    #[test]
    fn oversized_entry_refused() {
        let m = CacheManager::new(64);
        assert!(!m.put(values("big"), col(1000), (1, 1)));
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn refused_insert_evicts_nothing() {
        // Two columns of tenant "a" (at its quota, so protected) and one
        // small untenanted entry fill the budget: freeing the small entry
        // cannot make room for a full column, so it must survive.
        let one = col(100).approx_bytes();
        let small = col(10).approx_bytes();
        let m = CacheManager::new(one * 2 + small + 10);
        m.set_tenant_budget("a", one * 2 + 10);
        assert!(put_for(&m, "a", "x", col(100)));
        assert!(put_for(&m, "a", "y", col(100)));
        assert!(m.put(values("small"), col(10), (1, 1)));
        assert!(!m.put(values("anon"), col(100), (1, 1)));
        assert!(m.contains(&values("small")));
        assert_eq!(m.stats().evictions, 0);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn refused_replace_keeps_the_old_replica() {
        let one = col(100).approx_bytes();
        let small = col(10).approx_bytes();
        let m = CacheManager::new(one * 2 + small + 10);
        m.set_tenant_budget("a", one * 2 + 10);
        assert!(put_for(&m, "a", "x", col(100)));
        assert!(put_for(&m, "a", "y", col(100)));
        assert!(m.put(values("small"), col(10), (1, 1)));
        let used = m.used_bytes();
        // Re-putting the small entry's key with a full column cannot fit.
        assert!(!m.put(values("small"), col(100), (1, 1)));
        assert_eq!(m.get(&values("small")).unwrap().len(), 10);
        assert_eq!(m.used_bytes(), used);
    }

    #[test]
    fn retain_current_fingerprint_drops_strangers() {
        let m = CacheManager::new(1 << 20);
        m.put(values("a"), col(5), (1, 1));
        m.put(values("b"), col(5), (1, 1));
        m.put(CacheKey::new("e", "a", Layout::Values), col(5), (1, 1));
        // File "d" changed: fingerprint now (2, 2).
        assert_eq!(m.retain_fingerprints("d", &[(2, 2)]), 2);
        assert!(m.get(&values("a")).is_none());
        assert!(m.get(&CacheKey::new("e", "a", Layout::Values)).is_some());
        // Same fingerprint: nothing dropped.
        assert_eq!(m.retain_fingerprints("e", &[(1, 1)]), 0);
        assert_eq!(m.stats().invalidations, 2);
    }

    #[test]
    fn retain_fingerprints_keeps_two_generations() {
        let m = CacheManager::new(1 << 20);
        m.put(values("old"), col(5), (1, 1));
        m.put(values("prev"), col(5), (2, 2));
        m.put(values("cur"), col(5), (3, 3));
        m.put(CacheKey::new("e", "old", Layout::Values), col(5), (1, 1));
        // Append happened: (2,2) is the prefix-valid generation, (3,3) the
        // current one; only the (1,1) relic of dataset "d" drops.
        assert_eq!(m.retain_fingerprints("d", &[(2, 2), (3, 3)]), 1);
        assert!(m.get(&values("old")).is_none());
        assert!(m.get(&values("prev")).is_some());
        assert!(m.get(&values("cur")).is_some());
        assert!(m.get(&CacheKey::new("e", "old", Layout::Values)).is_some());
        // Nothing stale: read-lock fast path returns 0.
        assert_eq!(m.retain_fingerprints("d", &[(2, 2), (3, 3)]), 0);
    }

    #[test]
    fn invalidate_dataset_unconditional() {
        let m = CacheManager::new(1 << 20);
        m.put(values("a"), col(5), (1, 1));
        m.put(
            CacheKey::new("d", "b", Layout::BinaryJson),
            CachedData::from_values(&[Value::Int(1)], Layout::BinaryJson).unwrap(),
            (2, 2),
        );
        m.put(CacheKey::new("e", "a", Layout::Values), col(5), (1, 1));
        // A rebuilt file vouches only for its new generation: every replica
        // of the dataset drops, whatever its layout or fingerprint.
        assert_eq!(m.retain_fingerprints("d", &[(3, 3)]), 2);
        assert_eq!(m.cached_fields("d"), Vec::<String>::new());
        assert!(m.get(&CacheKey::new("e", "a", Layout::Values)).is_some());
        assert_eq!(m.used_bytes(), col(5).approx_bytes());
        assert_eq!(m.stats().invalidations, 2);
    }

    #[test]
    fn invalidate_dataset_drops_fold_partials_too() {
        let m = CacheManager::new(1 << 20);
        let partial = |fingerprint| FoldPartial {
            partial: Value::Int(9),
            rows: 5,
            fingerprint,
        };
        m.put(values("a"), col(5), (1, 1));
        m.put_fold_partial("d", 1, partial((1, 1)));
        m.put_fold_partial("d", 2, partial((2, 2)));
        m.put_fold_partial("e", 1, partial((1, 1)));
        // Partials follow the replicas' rule: the (1,1) generation goes,
        // the kept (2,2) one stays, and other datasets are untouched.
        assert_eq!(m.retain_fingerprints("d", &[(2, 2)]), 1);
        assert!(m.get(&values("a")).is_none());
        assert!(m.fold_partial("d", 1).is_none());
        assert!(m.fold_partial("d", 2).is_some());
        assert!(m.fold_partial("e", 1).is_some());
        // With no stale replica the read-lock fast path returns at once
        // and leaves partials alone: reuse checks their fingerprint.
        assert_eq!(m.retain_fingerprints("e", &[(3, 3)]), 0);
        assert!(m.fold_partial("e", 1).is_some());
        assert!(m.is_empty());
    }

    #[test]
    fn get_any_reports_stored_fingerprint() {
        let m = CacheManager::new(1 << 20);
        m.put(values("a"), col(5), (10, 20));
        let (layout, data, fp) = m
            .get_any("d", "a", &[Layout::Values, Layout::BinaryJson])
            .unwrap();
        assert_eq!(layout, Layout::Values);
        assert_eq!(data.len(), 5);
        assert_eq!(fp, (10, 20));
        assert!(m.get_any("d", "b", &[Layout::Values]).is_none());
        // A replica outside the accepted layouts is a miss.
        assert!(m.get_any("d", "a", &[Layout::BinaryJson]).is_none());
        assert_eq!(m.stats().misses, 2);
    }

    #[test]
    fn extend_values_splices_tail_in_place() {
        let m = CacheManager::new(1 << 20);
        let key = values("a");
        m.put(key.clone(), col(5), (1, 1));
        let before = m.used_bytes();
        let full = m
            .extend_values(&key, (1, 1), 5, vec![Value::Int(5), Value::Int(6)], (2, 2))
            .unwrap();
        assert_eq!(full.len(), 7);
        assert_eq!(full[6], Value::Int(6));
        assert_eq!(m.used_bytes(), before + 16);
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
        let key = values("a");
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
        let key = values("a");
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
        let bin = CacheKey::new("d", "b", Layout::BinaryJson);
        m.put(bin.clone(), binary(5), (1, 1));
        assert!(m
            .extend_values(&bin, (1, 1), 5, vec![Value::Int(5)], (2, 2))
            .is_none());
        assert!(m
            .extend_values(&values("b"), (1, 1), 5, vec![Value::Int(5)], (2, 2))
            .is_none());
        // The untouched entry still serves under its old generation.
        assert!(m.contains_fresh(&key, (1, 1)));
    }

    #[test]
    fn extend_values_evicts_others_when_growth_exceeds_budget() {
        let one = col(100).approx_bytes();
        let m = CacheManager::new(one * 2 + 64);
        let hot = values("hot");
        m.put(hot.clone(), col(100), (1, 1));
        m.put(values("cold"), col(100), (1, 1));
        let tail: Vec<Value> = (100..120).map(|i| Value::Int(i as i64)).collect();
        assert!(m.extend_values(&hot, (1, 1), 100, tail, (2, 2)).is_some());
        assert!(m.contains(&hot), "the extended entry is never the victim");
        assert!(!m.contains(&values("cold")));
        assert!(m.used_bytes() <= m.budget_bytes());
    }

    #[test]
    fn extend_values_keeps_the_owner_within_its_quota() {
        let one = col(100).approx_bytes();
        let m = CacheManager::new(1 << 20);
        m.set_tenant_budget("a", one * 2 + 10);
        assert!(put_for(&m, "a", "x", col(100)));
        assert!(put_for(&m, "a", "hot", col(100)));
        let tail: Vec<Value> = (100..150).map(|i| Value::Int(i as i64)).collect();
        let full = m.extend_values(&values("hot"), (1, 1), 100, tail, (2, 2));
        assert_eq!(full.unwrap().len(), 150);
        let stats = m.tenant_stats("a");
        assert!(stats.used_bytes <= stats.budget_bytes.unwrap(), "{stats:?}");
        assert!(m.contains(&values("hot")), "the extended entry stays");
        assert!(!m.contains(&values("x")));
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.used_bytes, m.used_bytes());
    }

    #[test]
    fn insert_retires_the_fields_other_layouts() {
        let m = CacheManager::new(1 << 20);
        let insert = |data: CachedData| {
            let key = CacheKey::new("d", "a", data.layout());
            m.put_with_cost_for(None, key, data, (1, 1), 0.0)
        };
        assert_eq!(insert(col(3)), Some(0));
        // Same layout again: a replacement, not a retirement.
        assert_eq!(insert(col(3)), Some(0));
        assert_eq!(insert(binary(3)), Some(1));
        assert_eq!(m.len(), 1);
        assert_eq!(m.used_bytes(), binary(3).approx_bytes());
        assert!(!m.contains(&values("a")));
        let (layout, _, _) = m.get_any("d", "a", &Layout::ALL).unwrap();
        assert_eq!(layout, Layout::BinaryJson);
        assert_eq!(insert(col(1)), Some(1));
        assert_eq!(m.layout_counts(), vec![(Layout::Values, 1)]);
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
        let key = values("a");
        m.put(key.clone(), col(100), (1, 1));
        let big = m.used_bytes();
        m.put(key.clone(), col(10), (1, 1));
        assert!(m.used_bytes() < big);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn clear_resets_usage() {
        let m = CacheManager::new(1 << 20);
        m.put(values("a"), col(5), (1, 1));
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
        m.put_with_cost_for(None, values("dear"), col(100), (1, 1), 50.0);
        m.put(values("cheap"), col(100), (1, 1));
        m.get(&values("cheap")).unwrap();
        m.put(values("new"), col(100), (1, 1));
        assert!(m.contains(&values("dear")));
        assert!(!m.contains(&values("cheap")));
        assert!(m.contains(&values("new")));
    }

    #[test]
    fn zero_cost_put_is_pure_lru() {
        let one = col(100).approx_bytes();
        let m = CacheManager::new(one * 2 + 10);
        m.put(values("a"), col(100), (1, 1));
        m.put(values("b"), col(100), (1, 1));
        m.get(&values("a")).unwrap();
        m.put(values("c"), col(100), (1, 1));
        assert!(!m.contains(&values("b")));
    }

    #[test]
    fn contains_does_not_touch_counters() {
        let m = CacheManager::new(1 << 20);
        let key = values("a");
        m.put(key.clone(), col(3), (1, 1));
        assert!(m.contains(&key));
        assert!(!m.contains(&values("b")));
        assert!(!m.contains(&CacheKey::new("d", "a", Layout::BinaryJson)));
        let s = m.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn layout_counts_report_replica_mix() {
        let m = CacheManager::new(1 << 20);
        m.put(values("a"), col(3), (1, 1));
        m.put(values("b"), col(3), (1, 1));
        m.put(
            CacheKey::new("d", "c", Layout::BinaryJson),
            binary(3),
            (1, 1),
        );
        let counts = m.layout_counts();
        assert_eq!(counts, vec![(Layout::BinaryJson, 1), (Layout::Values, 2)]);
    }

    #[test]
    fn tenant_quota_sheds_own_coldest_entries_first() {
        let one = col(100).approx_bytes();
        // Global budget is roomy; tenant "a" may hold only two columns.
        let m = CacheManager::new(one * 10);
        m.set_tenant_budget("a", one * 2 + 10);
        assert!(put_for(&m, "a", "x", col(100)));
        assert!(put_for(&m, "a", "y", col(100)));
        m.get(&values("x")).unwrap();
        assert!(put_for(&m, "a", "z", col(100)));
        // "y" was a's LRU entry and pays for a's own growth.
        assert!(m.contains(&values("x")));
        assert!(!m.contains(&values("y")));
        assert!(m.contains(&values("z")));
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
            assert!(put_for(&m, "big", f, col(100)));
        }
        assert!(put_for(&m, "small", "s1", col(100)));
        // The cache is globally full and both tenants are at quota. Either
        // tenant churning stays inside its own allotment:
        assert!(put_for(&m, "small", "s2", col(100)));
        assert!(!m.contains(&values("s1")));
        for f in ["b1", "b2", "b3"] {
            assert!(
                m.contains(&values(f)),
                "small's churn evicted big's {f} despite big being under quota"
            );
        }
        assert!(put_for(&m, "big", "b4", col(100)));
        assert!(m.contains(&values("s2")));
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
        assert!(put_for(&m, "a", "x", col(100)));
        assert!(put_for(&m, "a", "y", col(100)));
        // Globally full, every entry protected: the untenanted put must be
        // refused rather than break a's quota.
        assert!(!m.put(values("anon"), col(100), (1, 1)));
        assert!(m.contains(&values("x")));
        assert!(m.contains(&values("y")));
    }

    #[test]
    fn entry_larger_than_tenant_quota_refused() {
        let m = CacheManager::new(1 << 20);
        m.set_tenant_budget("tiny", 16);
        assert!(!put_for(&m, "tiny", "a", col(100)));
        assert_eq!(m.tenant_stats("tiny").used_bytes, 0);
    }

    #[test]
    fn layout_counts_split_per_tenant() {
        let m = CacheManager::new(1 << 20);
        put_for(&m, "a", "x", col(3));
        put_for(&m, "a", "y", binary(3));
        put_for(&m, "b", "z", col(3));
        assert_eq!(
            m.layout_counts_for("a"),
            vec![(Layout::BinaryJson, 1), (Layout::Values, 1)]
        );
        assert_eq!(m.layout_counts_for("b"), vec![(Layout::Values, 1)]);
        assert!(m.layout_counts_for("nobody").is_empty());
        // The global view still sees everything.
        assert_eq!(
            m.layout_counts(),
            vec![(Layout::BinaryJson, 1), (Layout::Values, 2)]
        );
    }

    #[test]
    fn removal_paths_debit_tenant_usage() {
        let m = CacheManager::new(1 << 20);
        m.set_tenant_budget("a", 1 << 20);
        let key = values("x");
        put_for(&m, "a", "x", col(10));
        assert!(m.tenant_stats("a").used_bytes > 0);
        // Re-shaping the field by an untenanted insert debits "a".
        m.put(
            CacheKey::new("d", "x", Layout::BinaryJson),
            binary(10),
            (1, 1),
        );
        assert_eq!(m.tenant_stats("a").used_bytes, 0);

        m.put_with_cost_for(Some("a"), key.clone(), col(10), (2, 2), 0.0);
        assert_eq!(m.retain_fingerprints("d", &[(3, 3)]), 1);
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
        let hot = values("hot");
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
                    m.put(values(&format!("c{i}")), col(8), (1, 1));
                }
            });
        });
        let s = m.stats();
        assert_eq!(s.hits, 2000);
        assert_eq!(s.insertions, 51);
        assert_eq!(m.len(), 51);
        assert!(m.used_bytes() <= m.budget_bytes());
    }

    #[test]
    fn tenant_usage_matches_resident_entries_under_concurrency() {
        // Six threads of two tenants (and one untenanted) insert, re-shape,
        // extend, invalidate and look up the same fields under a budget and
        // quotas tight enough to evict constantly.
        let one = col(100).approx_bytes();
        let m = CacheManager::new(one * 6);
        m.set_tenant_budget("t0", one * 3);
        m.set_tenant_budget("t1", one * 2);
        let start = std::sync::Barrier::new(6);
        std::thread::scope(|s| {
            for w in 0..6usize {
                let (m, start) = (&m, &start);
                s.spawn(move || {
                    let tenant = ["t0", "t1", "t0", "t1", "t0", ""][w];
                    let tenant = (!tenant.is_empty()).then_some(tenant);
                    start.wait();
                    for i in 0..400usize {
                        let field = format!("f{}", (i * 7 + w) % 9);
                        let gen = (i % 3) as u64;
                        let data = if (i + w) % 4 == 0 {
                            binary(60)
                        } else {
                            col(60 + i % 50)
                        };
                        let key = CacheKey::new("d", field.as_str(), data.layout());
                        m.put_with_cost_for(tenant, key, data, (gen, gen), (i % 5) as f64);
                        let tail = vec![Value::Int(1); i % 30];
                        m.extend_values(&values(&field), (gen, gen), 40, tail, (gen + 1, gen + 1));
                        if i % 25 == 0 {
                            m.retain_fingerprints("d", &[(gen, gen), (gen + 1, gen + 1)]);
                        }
                        m.get_any("d", &field, &Layout::ALL);
                    }
                });
            }
        });
        let state = m.state.read();
        let total: usize = state.iter().map(|(_, _, e)| e.bytes).sum();
        assert_eq!(m.used_bytes(), total);
        for t in ["t0", "t1"] {
            let owned: usize = state
                .iter()
                .filter(|(_, _, e)| e.tenant.as_deref() == Some(t))
                .map(|(_, _, e)| e.bytes)
                .sum();
            assert_eq!(state.tenants[t].used, owned, "tenant {t}");
        }
        assert!(m.stats().evictions > 0 && m.stats().invalidations > 0);
    }
}
