//! The resident query engine: one long-lived owner of all cross-query
//! execution state.
//!
//! [`Engine`] and [`Session`] are the way in: build one engine over a
//! catalog, open a session per query stream, call [`Session::execute`].
//! The engine keeps everything a query can share with the next one:
//!
//! - **one worker pool** ([`WorkerPool`]): workers spawn once and park
//!   between queries; parallel phases *attach* runs to the pool instead of
//!   spawning threads, and concurrent sessions' morsels interleave on the
//!   same workers (morsel-granularity time slicing);
//! - **the shared catalog, cache, and cost model** (the cache carried
//!   inside the engine's default [`JitOptions`]; the model is the defaults'
//!   one, or one the engine creates, and it steers the cache for every
//!   session whose options carry none): replica caches, sketches, and
//!   plugin revalidation all accumulate across queries;
//! - **one string interner** ([`SharedInterner`]): kernel string ids are
//!   stable across sessions, and `Str` unnest elements can intern at
//!   runtime from parallel workers;
//! - **accumulated [`ExecStats`]**: every session's per-query stats fold
//!   into an engine-wide tally ([`Engine::stats`]).
//!
//! Per-query state lives in a [`Session`]: its own `JitOptions` overrides
//! (tracing, morsel size, cache and cost model — anything except the
//! worker count, which the pool fixes), its own accumulated stats, and an
//! optional **tenant id** that cache replica writes are billed to
//! (`CacheManager::put_with_cost_for`), so one tenant's working set cannot
//! evict another in-quota tenant's.
//!
//! Results are bit-identical at every worker count and under any number
//! of concurrent sessions: morsel boundaries depend only on the data —
//! never on which pool runs them or what else is attached to it. (The
//! hidden per-call `run_jit` wrappers that older call sites compile
//! against run the same internal path on a throwaway pool and interner.)
//!
//! A query that panics — in a kernel, a plugin, or on a pool worker — fails
//! with an `exec` error for its own session only; the pool's workers, the
//! engine's shared state and every other session carry on.

use crate::catalog::SourceProvider;
use crate::pipeline::{execute_with_context, ExecContext, JitOptions};
use crate::stats::ExecStats;
use std::sync::Arc;
use vida_algebra::Plan;
use vida_cache::CacheManager;
use vida_jit::SharedInterner;
use vida_optimizer::CostModel;
use vida_parallel::WorkerPool;
use vida_types::sync::Mutex;
use vida_types::{Result, Value};

/// A resident query engine: one parked worker pool, one interner, one
/// catalog, and the shared cache/cost-model state, serving any number of
/// concurrent [`Session`]s.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use vida_algebra::{lower, rewrite};
/// use vida_exec::{Engine, JitOptions, MemoryCatalog};
/// use vida_lang::parse;
/// use vida_types::{Schema, Type, Value};
///
/// let cat = MemoryCatalog::new();
/// cat.register_records(
///     "T",
///     Schema::from_pairs([("x", Type::Int)]),
///     &[Value::record([("x", Value::Int(41))])],
/// )
/// .unwrap();
/// let engine = Engine::new(Arc::new(cat), JitOptions::default());
/// let plan = rewrite(&lower(&parse("for { t <- T } yield sum t.x").unwrap()).unwrap());
/// assert_eq!(engine.execute(&plan).unwrap(), Value::Int(41));
/// assert_eq!(engine.stats().queries, 1);
/// ```
pub struct Engine {
    catalog: Arc<dyn SourceProvider>,
    /// Session defaults; also the owner of the shared cache + cost model.
    defaults: JitOptions,
    /// The resident pool — workers spawned once, parked between queries.
    pool: WorkerPool,
    /// Engine-wide string table: ids stable across sessions.
    interner: Arc<SharedInterner>,
    /// The model steering the cache for sessions whose options carry none
    /// (the defaults' own model when they set one).
    cost_model: Arc<CostModel>,
    /// Every session's per-query stats, accumulated.
    stats: Mutex<ExecStats>,
}

impl Engine {
    /// Build an engine over `catalog`. `defaults.threads` fixes the
    /// resident pool's size for the engine's lifetime; the other options
    /// (cache, cost model, tracing, …) become per-session defaults.
    pub fn new(catalog: Arc<dyn SourceProvider>, defaults: JitOptions) -> Self {
        let pool = WorkerPool::new(defaults.threads);
        Engine {
            catalog,
            cost_model: defaults.cost_model.clone().unwrap_or_default(),
            defaults,
            pool,
            interner: Arc::new(SharedInterner::new()),
            stats: Mutex::new(ExecStats::default()),
        }
    }

    /// Open an untenanted session with the engine's default options.
    pub fn session(&self) -> Session<'_> {
        self.session_with(None)
    }

    /// Open a session whose cache replica writes are billed to `tenant`
    /// (see `CacheManager::set_tenant_budget`).
    pub fn session_for(&self, tenant: impl Into<String>) -> Session<'_> {
        self.session_with(Some(tenant.into()))
    }

    fn session_with(&self, tenant: Option<String>) -> Session<'_> {
        Session {
            engine: self,
            opts: self.defaults.clone(),
            tenant,
            stats: ExecStats::default(),
        }
    }

    /// Execute one plan through a throwaway untenanted session.
    pub fn execute(&self, plan: &Plan) -> Result<Value> {
        self.session().execute(plan)
    }

    /// Execute one plan, returning its [`ExecStats`].
    pub fn execute_with_stats(&self, plan: &Plan) -> Result<(Value, ExecStats)> {
        self.session().execute_with_stats(plan)
    }

    /// The resident pool's worker count (fixed at construction).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The catalog every session scans.
    pub fn catalog(&self) -> &Arc<dyn SourceProvider> {
        &self.catalog
    }

    /// The shared replica cache, when one is attached.
    pub fn cache(&self) -> Option<&Arc<CacheManager>> {
        self.defaults.cache.as_ref()
    }

    /// The engine-wide string interner.
    pub fn interner(&self) -> &Arc<SharedInterner> {
        &self.interner
    }

    /// Accumulated stats across every query any session ran.
    pub fn stats(&self) -> ExecStats {
        self.stats.lock().clone()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("threads", &self.pool.threads())
            .field("cached", &self.defaults.cache.is_some())
            .field("interned", &self.interner.len())
            .finish()
    }
}

/// One query stream's handle on an [`Engine`]: per-session option
/// overrides, a tenant id for cache billing, and accumulated stats.
/// Sessions are cheap — open one per client thread; every session's
/// parallel work shares (and time-slices on) the engine's one pool.
pub struct Session<'e> {
    engine: &'e Engine,
    opts: JitOptions,
    tenant: Option<String>,
    stats: ExecStats,
}

impl Session<'_> {
    /// Per-session option overrides (tracing, morsel size, cache, …).
    /// The worker count is the engine pool's and cannot be changed here —
    /// `threads` edits are ignored at execution.
    pub fn options_mut(&mut self) -> &mut JitOptions {
        &mut self.opts
    }

    /// The tenant this session's cache writes are billed to.
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// Execute one plan on the engine's resident pool.
    ///
    /// The plan must be `Reduce`-rooted (every lowered comprehension is);
    /// plan shapes outside the generated pipelines transparently fall back
    /// to the interpreted Volcano engine, so execution is total over valid
    /// plans.
    ///
    /// # Example
    ///
    /// ```
    /// use std::sync::Arc;
    /// use vida_algebra::{lower, rewrite};
    /// use vida_exec::{Engine, JitOptions, MemoryCatalog};
    /// use vida_lang::parse;
    /// use vida_types::{Schema, Type, Value};
    ///
    /// let cat = MemoryCatalog::new();
    /// cat.register_records(
    ///     "Patients",
    ///     Schema::from_pairs([("id", Type::Int), ("age", Type::Int)]),
    ///     &[
    ///         Value::record([("id", Value::Int(1)), ("age", Value::Int(71))]),
    ///         Value::record([("id", Value::Int(2)), ("age", Value::Int(34))]),
    ///     ],
    /// )
    /// .unwrap();
    /// let engine = Engine::new(Arc::new(cat), JitOptions::default());
    /// let mut session = engine.session();
    /// let expr = parse("for { p <- Patients, p.age > 60 } yield count p").unwrap();
    /// let plan = rewrite(&lower(&expr).unwrap());
    /// assert_eq!(session.execute(&plan).unwrap(), Value::Int(1));
    /// let (v, stats) = session.execute_with_stats(&plan).unwrap();
    /// assert_eq!((v, stats.tuples_scanned), (Value::Int(1), 2));
    /// assert_eq!(session.stats().queries, 2);
    /// ```
    pub fn execute(&mut self, plan: &Plan) -> Result<Value> {
        self.execute_with_stats(plan).map(|(v, _)| v)
    }

    /// Execute one plan, returning its per-query [`ExecStats`] (also
    /// folded into the session's and engine's accumulators).
    pub fn execute_with_stats(&mut self, plan: &Plan) -> Result<(Value, ExecStats)> {
        let ctx = ExecContext {
            pool: self.engine.pool.clone(),
            interner: Arc::clone(&self.engine.interner),
            tenant: self.tenant.clone(),
            cost_model: Arc::clone(&self.engine.cost_model),
        };
        let (value, stats) =
            execute_with_context(plan, self.engine.catalog.as_ref(), &self.opts, &ctx)?;
        self.stats.accumulate(&stats);
        self.engine.stats.lock().accumulate(&stats);
        Ok((value, stats))
    }

    /// Accumulated stats across this session's queries.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::MemoryCatalog;
    use crate::pipeline::{run_jit, run_jit_with_stats};
    use vida_algebra::{lower, rewrite};
    use vida_lang::parse;
    use vida_types::{Schema, Type};

    fn catalog() -> Arc<MemoryCatalog> {
        let cat = MemoryCatalog::new();
        cat.register_records(
            "Patients",
            Schema::from_pairs([("id", Type::Int), ("age", Type::Int), ("city", Type::Str)]),
            &[
                Value::record([
                    ("id", Value::Int(1)),
                    ("age", Value::Int(71)),
                    ("city", Value::str("geneva")),
                ]),
                Value::record([
                    ("id", Value::Int(2)),
                    ("age", Value::Int(34)),
                    ("city", Value::str("bern")),
                ]),
                Value::record([
                    ("id", Value::Int(3)),
                    ("age", Value::Int(65)),
                    ("city", Value::str("geneva")),
                ]),
            ],
        )
        .unwrap();
        Arc::new(cat)
    }

    fn plan_of(q: &str) -> Plan {
        rewrite(&lower(&parse(q).unwrap()).unwrap())
    }

    #[test]
    fn engine_execute_matches_run_jit() {
        let cat = catalog();
        let engine = Engine::new(cat.clone(), JitOptions::default());
        for q in [
            "for { p <- Patients, p.age > 60 } yield count p",
            "for { p <- Patients } yield avg p.age",
            "for { p <- Patients, p.city = \"geneva\" } yield list p.id",
        ] {
            let plan = plan_of(q);
            let via_shim = run_jit(&plan, cat.as_ref(), &JitOptions::default()).unwrap();
            assert_eq!(engine.execute(&plan).unwrap(), via_shim, "{q}");
        }
        assert_eq!(engine.stats().queries, 3);
    }

    #[test]
    fn sessions_accumulate_stats_independently() {
        let engine = Engine::new(catalog(), JitOptions::default());
        let plan = plan_of("for { p <- Patients } yield sum p.age");
        let mut a = engine.session();
        let mut b = engine.session_for("tenant-b");
        a.execute(&plan).unwrap();
        a.execute(&plan).unwrap();
        b.execute(&plan).unwrap();
        assert_eq!(a.stats().queries, 2);
        assert_eq!(b.stats().queries, 1);
        assert_eq!(b.tenant(), Some("tenant-b"));
        assert_eq!(engine.stats().queries, 3);
    }

    #[test]
    fn engine_interner_is_shared_across_sessions() {
        let engine = Engine::new(catalog(), JitOptions::default());
        let plan = plan_of("for { p <- Patients, p.city = \"geneva\" } yield count p");
        engine.execute(&plan).unwrap();
        let interned_once = engine.interner().len();
        assert!(interned_once > 0, "string constant should intern");
        engine.execute(&plan).unwrap();
        // The second session reuses the resident table instead of
        // rebuilding it.
        assert_eq!(engine.interner().len(), interned_once);
    }

    #[test]
    fn session_options_override_per_query_behaviour() {
        let engine = Engine::new(catalog(), JitOptions::default());
        // `Str` ordering and division are outside the compiled subset, so
        // the session also drives interpreted select and head steps.
        let plan = plan_of("for { p <- Patients, p.city < \"c\" } yield sum p.age / 2");
        let mut s = engine.session();
        assert!(s.execute_with_stats(&plan).unwrap().1.trace.is_none());
        s.options_mut().trace = true;
        let (v, stats) = s.execute_with_stats(&plan).unwrap();
        assert_eq!(v, Value::Int(17));
        assert_eq!(stats.kernels_compiled, 0);
        assert!(stats.trace.is_some());
        // Overrides are per session: a sibling keeps the engine defaults.
        assert!(engine.execute_with_stats(&plan).unwrap().1.trace.is_none());
    }

    #[test]
    fn sessions_without_a_model_share_the_engines_model() {
        let model = Arc::new(CostModel::new());
        let opts =
            JitOptions::with_cost_model(Arc::new(CacheManager::new(1 << 20)), Arc::clone(&model));
        let engine = Engine::new(catalog(), opts);
        let plan = plan_of("for { p <- Patients } yield sum p.age");
        engine.execute(&plan).unwrap();
        let mut bare = engine.session();
        bare.options_mut().cost_model = None;
        bare.execute(&plan).unwrap();
        assert_eq!(model.profile("Patients", "age").unwrap().touches, 2);
    }

    #[test]
    fn shim_and_engine_share_one_execution_path() {
        // The hidden wrapper's per-call context (fresh interner, per-call
        // pool) must not drift from the session path: identical stats shape.
        let cat = catalog();
        let plan = plan_of("for { p <- Patients, p.age > 60 } yield count p");
        let (v, stats) = run_jit_with_stats(&plan, cat.as_ref(), &JitOptions::default()).unwrap();
        let engine = Engine::new(cat, JitOptions::default());
        let (ev, estats) = engine.execute_with_stats(&plan).unwrap();
        assert_eq!(v, ev);
        assert_eq!(stats.kernels_compiled, estats.kernels_compiled);
        assert_eq!(stats.tuples_scanned, estats.tuples_scanned);
        assert_eq!(stats.morsels, estats.morsels);
        assert_eq!(stats.fused_stage_depth, estats.fused_stage_depth);
    }
}
