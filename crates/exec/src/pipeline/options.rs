//! [`JitOptions`]: the per-query knobs of pipeline generation.

use std::sync::Arc;
use vida_cache::CacheManager;
use vida_optimizer::CostModel;

/// Options controlling pipeline generation.
///
/// # Example
///
/// Build an engine with a cache and the optimizer's cost model attached,
/// then run the same query twice: the second run is served from
/// adaptively-chosen column replicas.
///
/// ```
/// use std::sync::Arc;
/// use vida_algebra::{lower, rewrite};
/// use vida_cache::CacheManager;
/// use vida_exec::{Engine, JitOptions, MemoryCatalog};
/// use vida_lang::parse;
/// use vida_optimizer::CostModel;
/// use vida_types::{Schema, Type, Value};
///
/// let cat = MemoryCatalog::new();
/// cat.register_records(
///     "T",
///     Schema::from_pairs([("x", Type::Int)]),
///     &[Value::record([("x", Value::Int(41))])],
/// )
/// .unwrap();
/// let opts = JitOptions::with_cost_model(
///     Arc::new(CacheManager::new(1 << 20)),
///     Arc::new(CostModel::new()),
/// );
/// let plan = rewrite(&lower(&parse("for { t <- T } yield sum t.x").unwrap()).unwrap());
/// let engine = Engine::new(Arc::new(cat), opts);
/// let (_, cold) = engine.execute_with_stats(&plan).unwrap();
/// let (v, warm) = engine.execute_with_stats(&plan).unwrap();
/// assert_eq!(v, Value::Int(41));
/// assert!(!cold.served_from_cache && warm.served_from_cache);
/// ```
#[derive(Clone, Default)]
pub struct JitOptions {
    /// Cache consulted for column replicas and populated on raw reads.
    pub cache: Option<Arc<CacheManager>>,
    /// Cost model deciding replica layouts (§5). A cache is always steered
    /// by a model: the pipeline records per-field access statistics after
    /// every query, writes replicas in the layout the model chooses
    /// (`Values` or `BinaryJson`), serves whichever one the field holds,
    /// and weighs eviction by rebuild cost. `None` next to a cache
    /// selects the engine's shared model (a per-call one under the hidden
    /// `run_jit` wrappers), not a second policy. Without a cache, a model
    /// only lends its sketches to plan optimization.
    pub cost_model: Option<Arc<CostModel>>,
    /// Worker threads of the morsel driver, honoured as given (`0` means
    /// 1; callers that want a machine-sized pool pass
    /// `std::thread::available_parallelism()`). One worker runs the morsel
    /// grid inline on the caller; more split scans, decodes, join builds,
    /// and folds across workers. The grid depends only on the data and
    /// partial folds merge in morsel order, so every thread count —
    /// including 1 — produces the same result bit for bit, float
    /// aggregates included. A resident `Engine` fixes the count at
    /// construction; its sessions ignore later edits.
    pub threads: usize,
    /// Units per morsel for unit-count morsel plans (`0` = the
    /// `vida-parallel` default). Mainly for tests, which shrink it to force
    /// multi-morsel coverage on small fixtures.
    pub morsel_rows: usize,
    /// Record a per-query span trace (opt-in observability): nested stage
    /// spans on the coordinator track, per-morsel spans on worker tracks,
    /// and per-kernel invocation counts, all collected into
    /// `ExecStats::trace`. Export with [`vida_trace::chrome_trace_json`] or
    /// render with `QueryTrace::explain_analyze`. Off (the default) the
    /// tracing hooks compile to single `Option` checks.
    pub trace: bool,
}

impl JitOptions {
    /// Options with a cache attached.
    pub fn with_cache(cache: Arc<CacheManager>) -> Self {
        JitOptions {
            cache: Some(cache),
            ..JitOptions::default()
        }
    }

    /// Options with a cache and the cost model steering its replica
    /// layouts.
    pub fn with_cost_model(cache: Arc<CacheManager>, model: Arc<CostModel>) -> Self {
        JitOptions {
            cache: Some(cache),
            cost_model: Some(model),
            ..JitOptions::default()
        }
    }

    /// Options running `threads` morsel-driven workers.
    pub fn with_threads(threads: usize) -> Self {
        JitOptions {
            threads,
            ..JitOptions::default()
        }
    }

    /// Enable per-query span tracing on these options.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{catalog, plan_of};
    use super::*;
    use crate::pipeline::run_jit_with_stats;

    #[test]
    fn default_options_run_one_worker() {
        let plan = plan_of("for { p <- Patients } yield sum p.age");
        let (_, stats) = run_jit_with_stats(&plan, &catalog(), &JitOptions::default()).unwrap();
        assert_eq!(stats.threads, 1);
        let (_, stats) =
            run_jit_with_stats(&plan, &catalog(), &JitOptions::with_threads(0)).unwrap();
        assert_eq!(stats.threads, 1);
    }
}
