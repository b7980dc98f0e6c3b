//! # vida-core
//!
//! Facade crate: one dependency pulling in the whole ViDa engine, with the
//! common types re-exported at the top level. Downstream code (benchmarks,
//! services, notebooks) can depend on `vida-core` alone and follow the
//! query lifecycle end to end — parse, lower, rewrite, then execute through
//! a [`Session`] of a resident [`Engine`]:
//!
//! ```
//! use std::sync::Arc;
//! use vida_core::{lower, parse, rewrite, Engine, JitOptions, MemoryCatalog, Schema, Type, Value};
//!
//! let cat = MemoryCatalog::new();
//! cat.register_records(
//!     "Patients",
//!     Schema::from_pairs([("id", Type::Int), ("age", Type::Int)]),
//!     &[Value::record([("id", Value::Int(1)), ("age", Value::Int(71))])],
//! )
//! .unwrap();
//! let plan = rewrite(&lower(&parse("for { p <- Patients, p.age > 60 } yield count p").unwrap()).unwrap());
//! let engine = Engine::new(Arc::new(cat), JitOptions::default());
//! let mut session = engine.session();
//! assert_eq!(session.execute(&plan).unwrap(), Value::Int(1));
//! assert_eq!(session.stats().queries, 1);
//! ```

pub use vida_algebra::{execute_plan, lower, rewrite, Plan};
pub use vida_cache::{CacheKey, CacheManager, CacheStats, CachedData, Layout, TenantStats};
pub use vida_exec::{
    run_volcano, Engine, ExecStats, JitOptions, MemoryCatalog, OutputFormat, Session,
    SourceProvider,
};
pub use vida_formats::{open_plugin, DataFormat, InputPlugin, SourceDescription};
pub use vida_jit::{CompiledKernel, FrameLayout, JitCompiler, SlotType};
pub use vida_lang::{eval, parse, typecheck, Bindings, Expr, TypeEnv};
pub use vida_optimizer::{CostModel, FieldObservation};
pub use vida_parallel::{MorselPlan, WorkerPool};
pub use vida_server::{QueryRequest, QueryServer, ServerConfig, ServerStats};
pub use vida_sql::sql_to_comprehension;
pub use vida_trace::{chrome_trace_json, global_metrics, MetricsRegistry, QueryTrace};
pub use vida_types::{Monoid, Result, Schema, Type, Value, VidaError};

/// Lower crates, for callers that need the full module paths.
pub use vida_algebra as algebra;
pub use vida_cache as cache;
pub use vida_exec as exec;
pub use vida_formats as formats;
pub use vida_jit as jit;
pub use vida_lang as lang;
pub use vida_optimizer as optimizer;
pub use vida_parallel as parallel;
pub use vida_server as server;
pub use vida_sql as sql;
pub use vida_trace as trace;
pub use vida_types as types;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn facade_runs_the_full_lifecycle() {
        let cat = MemoryCatalog::new();
        cat.register_records(
            "T",
            Schema::from_pairs([("x", Type::Int)]),
            &[
                Value::record([("x", Value::Int(2))]),
                Value::record([("x", Value::Int(40))]),
            ],
        )
        .unwrap();
        let expr = parse("for { t <- T } yield sum t.x").unwrap();
        let plan = rewrite(&lower(&expr).unwrap());
        assert_eq!(run_volcano(&plan, &cat).unwrap(), Value::Int(42));
        let engine = Engine::new(Arc::new(cat), JitOptions::default());
        assert_eq!(engine.execute(&plan).unwrap(), Value::Int(42));
    }

    #[test]
    fn facade_runs_parallel_pipelines() {
        let cat = MemoryCatalog::new();
        cat.register_records(
            "T",
            Schema::from_pairs([("x", Type::Int)]),
            &(0..100)
                .map(|i| Value::record([("x", Value::Int(i))]))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let plan =
            rewrite(&lower(&parse("for { t <- T, t.x > 9 } yield sum t.x").unwrap()).unwrap());
        let cat = Arc::new(cat);
        let serial = Engine::new(cat.clone(), JitOptions::default());
        let parallel = Engine::new(cat, JitOptions::with_threads(4));
        assert_eq!(
            serial.execute(&plan).unwrap(),
            parallel.execute(&plan).unwrap()
        );
    }

    #[test]
    fn facade_exposes_the_cost_model() {
        let cat = MemoryCatalog::new();
        cat.register_records(
            "T",
            Schema::from_pairs([("x", Type::Int)]),
            &[Value::record([("x", Value::Int(7))])],
        )
        .unwrap();
        let cache = Arc::new(CacheManager::new(1 << 20));
        let model = Arc::new(CostModel::new());
        let opts = JitOptions::with_cost_model(Arc::clone(&cache), Arc::clone(&model));
        let plan = rewrite(&lower(&parse("for { t <- T } yield sum t.x").unwrap()).unwrap());
        Engine::new(Arc::new(cat), opts).execute(&plan).unwrap();
        assert_eq!(model.profile("T", "x").unwrap().touches, 1);
        assert!(!cache.layout_counts().is_empty());
    }

    #[test]
    fn facade_runs_a_resident_engine() {
        let cat = MemoryCatalog::new();
        cat.register_records(
            "T",
            Schema::from_pairs([("x", Type::Int)]),
            &[
                Value::record([("x", Value::Int(2))]),
                Value::record([("x", Value::Int(40))]),
            ],
        )
        .unwrap();
        let engine = Engine::new(Arc::new(cat), JitOptions::default());
        let plan = rewrite(&lower(&parse("for { t <- T } yield sum t.x").unwrap()).unwrap());
        let mut session = engine.session();
        assert_eq!(session.execute(&plan).unwrap(), Value::Int(42));
        assert_eq!(engine.execute(&plan).unwrap(), Value::Int(42));
        assert_eq!(engine.stats().queries, 2);
    }

    #[test]
    fn facade_translates_sql() {
        let expr = sql_to_comprehension("SELECT COUNT(*) FROM T t WHERE t.x > 1").unwrap();
        assert!(matches!(expr, Expr::Comprehension { .. }));
    }
}
