//! Data-source resolution for the executors.
//!
//! Executors see datasets through [`SourceProvider`] — the runtime face of
//! the catalog. [`MemoryCatalog`] implements it over registered plugins
//! (engines, tests and benchmarks all use it). The one other implementation
//! is the crate-private `QueryBinding` each query reads the catalog
//! through, which fixes one file generation per dataset for the whole
//! query.

use std::collections::HashMap;
use std::sync::Arc;
use vida_formats::plugin::MemPlugin;
use vida_formats::{Generation, InputPlugin, Revalidation};
use vida_types::sync::{Mutex, RwLock};
use vida_types::{Result, Schema, Value, VidaError};

/// Resolves dataset names to bound input plugins.
pub trait SourceProvider: Send + Sync {
    fn plugin(&self, dataset: &str) -> Result<Arc<dyn InputPlugin>>;

    /// All registered dataset names (diagnostics).
    fn dataset_names(&self) -> Vec<String>;

    /// Swap in a replacement plugin for `dataset` — called by a query's
    /// `QueryBinding` when revalidation found the backing file changed,
    /// so later queries start from the fresh reader. `grown_from` is the
    /// generation the file grew from when the change was an append. The
    /// default is a no-op for catalogs without resident plugin state.
    fn install(
        &self,
        _dataset: &str,
        _plugin: Arc<dyn InputPlugin>,
        _grown_from: Option<Generation>,
    ) {
    }

    /// The generation `plugin`, installed for `dataset` after an append,
    /// grew from — `None` for any other plugin. Until the file changes
    /// again, replicas and fold partials of that generation still serve
    /// their unchanged prefix, so a column the first query after the
    /// append did not read is extended by the tail when a later query
    /// reads it, not re-read whole.
    fn installed_growth(
        &self,
        _dataset: &str,
        _plugin: &Arc<dyn InputPlugin>,
    ) -> Option<Generation> {
        None
    }

    /// Materialize a whole dataset as a bag value (used for datasets
    /// referenced inside nested head comprehensions).
    fn materialize(&self, dataset: &str) -> Result<Value> {
        let plugin = self.plugin(dataset)?;
        let mut items = Vec::with_capacity(plugin.num_units());
        for row in 0..plugin.num_units() {
            items.push(plugin.read_unit(row)?);
        }
        Ok(Value::bag(items))
    }
}

/// A simple in-memory catalog of plugins, each with the generation it grew
/// from when a query installed it for an append.
#[derive(Default)]
pub struct MemoryCatalog {
    plugins: RwLock<HashMap<String, Bound>>,
}

impl MemoryCatalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register any plugin under its own name.
    pub fn register(&self, plugin: Arc<dyn InputPlugin>) {
        self.plugins
            .write()
            .insert(plugin.name().to_string(), (plugin, None));
    }

    /// Convenience: register an in-memory dataset from record values.
    pub fn register_records(
        &self,
        name: impl Into<String>,
        schema: Schema,
        records: &[Value],
    ) -> Result<()> {
        let name = name.into();
        let plugin = MemPlugin::from_records(name, schema, records)?;
        self.register(Arc::new(plugin));
        Ok(())
    }
}

impl SourceProvider for MemoryCatalog {
    fn plugin(&self, dataset: &str) -> Result<Arc<dyn InputPlugin>> {
        self.plugins
            .read()
            .get(dataset)
            .map(|(plugin, _)| Arc::clone(plugin))
            .ok_or_else(|| VidaError::Catalog(format!("unknown dataset '{dataset}'")))
    }

    fn dataset_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.plugins.read().keys().cloned().collect();
        names.sort();
        names
    }

    fn install(&self, dataset: &str, plugin: Arc<dyn InputPlugin>, grown_from: Option<Generation>) {
        self.plugins
            .write()
            .insert(dataset.to_string(), (plugin, grown_from));
    }

    fn installed_growth(&self, dataset: &str, plugin: &Arc<dyn InputPlugin>) -> Option<Generation> {
        match self.plugins.read().get(dataset) {
            Some((installed, grown_from)) if Arc::ptr_eq(installed, plugin) => *grown_from,
            _ => None,
        }
    }
}

/// One query's view of a catalog: the first read of a dataset re-stats it
/// ([`InputPlugin::revalidate`]), installs any replacement plugin in the
/// catalog and records the verdict; every later read in the query gets
/// that same plugin. Scans, cardinality estimates, nested-comprehension
/// datasets and the Volcano engine all read through it, so a query sees
/// each dataset at exactly one file generation.
pub(crate) struct QueryBinding<'a> {
    catalog: &'a dyn SourceProvider,
    bound: Mutex<HashMap<String, Bound>>,
}

/// A dataset's plugin, and the generation its file grew from when the
/// plugin came from an append.
type Bound = (Arc<dyn InputPlugin>, Option<Generation>);

impl<'a> QueryBinding<'a> {
    pub(crate) fn new(catalog: &'a dyn SourceProvider) -> Self {
        QueryBinding {
            catalog,
            bound: Mutex::new(HashMap::new()),
        }
    }

    /// The generation `dataset` grew from by the append behind its
    /// plugin — revalidated in this query, or by an earlier query that
    /// installed the plugin: replicas and fold partials written under it
    /// serve the unchanged prefix. `None` when the plugin was not
    /// installed for an append (or the dataset is not read yet).
    pub(crate) fn grown_from(&self, dataset: &str) -> Option<Generation> {
        self.bound.lock().get(dataset).and_then(|b| b.1)
    }
}

impl SourceProvider for QueryBinding<'_> {
    fn plugin(&self, dataset: &str) -> Result<Arc<dyn InputPlugin>> {
        // The lock spans the re-stat, so a dataset is revalidated at most
        // once per query.
        let mut bound = self.bound.lock();
        if let Some((plugin, _)) = bound.get(dataset) {
            return Ok(Arc::clone(plugin));
        }
        let plugin = self.catalog.plugin(dataset)?;
        let (fresh, grown_from) = match plugin.revalidate()? {
            Revalidation::Unchanged => (None, self.catalog.installed_growth(dataset, &plugin)),
            Revalidation::Extended { plugin, prev } => (Some(plugin), Some(prev)),
            Revalidation::Rebuilt { plugin } => (Some(plugin), None),
        };
        let plugin = match fresh {
            Some(fresh) => {
                let fresh: Arc<dyn InputPlugin> = Arc::from(fresh);
                self.catalog
                    .install(dataset, Arc::clone(&fresh), grown_from);
                fresh
            }
            None => plugin,
        };
        bound.insert(dataset.to_string(), (Arc::clone(&plugin), grown_from));
        Ok(plugin)
    }

    fn dataset_names(&self) -> Vec<String> {
        self.catalog.dataset_names()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vida_types::Type;

    #[test]
    fn register_and_resolve() {
        let cat = MemoryCatalog::new();
        cat.register_records(
            "T",
            Schema::from_pairs([("id", Type::Int)]),
            &[Value::record([("id", Value::Int(1))])],
        )
        .unwrap();
        let p = cat.plugin("T").unwrap();
        assert_eq!(p.num_units(), 1);
        assert!(cat.plugin("missing").is_err());
        assert_eq!(cat.dataset_names(), vec!["T"]);
    }

    #[test]
    fn install_swaps_the_resident_plugin() {
        let cat = MemoryCatalog::new();
        cat.register_records(
            "T",
            Schema::from_pairs([("id", Type::Int)]),
            &[Value::record([("id", Value::Int(1))])],
        )
        .unwrap();
        let replacement = MemPlugin::from_records(
            "T",
            Schema::from_pairs([("id", Type::Int)]),
            &[
                Value::record([("id", Value::Int(1))]),
                Value::record([("id", Value::Int(2))]),
            ],
        )
        .unwrap();
        let grown_from = Generation {
            fingerprint: (7, 7),
            units: 1,
            prefix_units: 1,
        };
        cat.install("T", Arc::new(replacement), Some(grown_from));
        // Later resolutions bind the fresh reader, not the stale one, and
        // the growth belongs to that reader alone.
        let fresh = cat.plugin("T").unwrap();
        assert_eq!(fresh.num_units(), 2);
        assert_eq!(cat.dataset_names(), vec!["T"]);
        assert_eq!(cat.installed_growth("T", &fresh), Some(grown_from));
        let other: Arc<dyn InputPlugin> = Arc::new(
            MemPlugin::from_records("T", Schema::from_pairs([("id", Type::Int)]), &[]).unwrap(),
        );
        assert_eq!(cat.installed_growth("T", &other), None);
        cat.register(other);
        assert_eq!(cat.installed_growth("T", &cat.plugin("T").unwrap()), None);
    }

    #[test]
    fn materialize_returns_bag() {
        let cat = MemoryCatalog::new();
        cat.register_records(
            "T",
            Schema::from_pairs([("id", Type::Int)]),
            &[
                Value::record([("id", Value::Int(1))]),
                Value::record([("id", Value::Int(2))]),
            ],
        )
        .unwrap();
        let v = cat.materialize("T").unwrap();
        assert_eq!(v.elements().unwrap().len(), 2);
    }
}
