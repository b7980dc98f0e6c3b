//! Touched-column materialization: cache probe, morsel-driven raw scan and
//! replica decode, the incremental tail of grown files, and the post-query
//! replica sync that keeps each field in the cost model's chosen layout.

use super::bind::PipelineBuilder;
use super::drive::morsel_fold;
use std::sync::Arc;
use vida_cache::{bson, CacheKey, CacheManager, CachedData, Layout};
use vida_optimizer::FieldObservation;
use vida_parallel::{plan_scan_tail, MorselPlan};
use vida_trace::stage;
use vida_types::{Result, Value};

impl PipelineBuilder<'_> {
    /// Touched columns, cache-first: replicas in either layout are
    /// rehydrated (parsed values directly, binary JSON by decoding),
    /// anything missing is read from the raw file in one projected scan.
    /// The cache holds one replica per field, and the post-query
    /// [`PipelineBuilder::sync_replicas`] step is its only writer, in the
    /// layout the model chooses.
    pub(super) fn materialize_columns(
        &mut self,
        dataset: &str,
        plugin: &Arc<dyn vida_formats::InputPlugin>,
        touched: &[usize],
        nrows: usize,
    ) -> Result<Vec<Arc<Vec<Value>>>> {
        let schema = plugin.schema();
        let fingerprint = plugin.fingerprint();
        let grown_from = self.catalog.grown_from(dataset);
        // Prefix-validity window when the file grew in place: replicas of
        // the previous generation with exactly its unit count still serve
        // their first `prefix_units` rows.
        let prefix = grown_from.filter(|prev| prev.prefix_units > 0);
        let mut out: Vec<Option<Arc<Vec<Value>>>> = vec![None; touched.len()];
        // Positions into `touched` that need a full raw scan.
        let mut missing: Vec<usize> = Vec::new();
        // Prefix-served columns awaiting the appended rows from one shared
        // tail scan: `(position into touched, decoded prefix)`, where the
        // prefix is `None` for `Values` replicas — those splice the tail
        // into the resident vector instead of decoding row by row.
        let mut grown: Vec<(usize, Option<Vec<Value>>)> = Vec::new();

        if let Some(cache) = &self.opts.cache {
            // Counts live on the span that did the work: this span carries
            // the pointer-shared `Values` replicas (one "tuple" per served
            // row, one "morsel" per column); decoded replicas are counted
            // by `decode_replica`'s per-morsel worker spans.
            self.stats.span_begin(stage::CACHE_PROBE);
            let mut shared = 0u64;
            let mut shared_rows = 0u64;
            // Revalidation verdict → the generations the cache may keep:
            // the current one, plus the previous one when the file grew
            // (its prefix still serves). A rebuilt file's older generations
            // all go.
            let keep: &[(u64, u64)] = match grown_from {
                None => &[fingerprint],
                Some(prev) => &[prev.fingerprint, fingerprint],
            };
            cache.retain_fingerprints(dataset, keep);
            for (i, &col) in touched.iter().enumerate() {
                let field = &schema.fields()[col].name;
                match cache.get_any(dataset, field, &Layout::ALL) {
                    Some((_, data, fp)) if fp == fingerprint && data.len() == nrows => {
                        let vals = match &*data {
                            // Parsed replicas serve by pointer share — no
                            // per-row decode, no copy.
                            CachedData::Values(v) => {
                                shared += 1;
                                shared_rows += nrows as u64;
                                Arc::clone(v)
                            }
                            _ => Arc::new(self.decode_replica(&data, nrows)?),
                        };
                        out[i] = Some(vals);
                        self.stats.cached_columns += 1;
                    }
                    Some((_, data, fp))
                        if prefix.is_some_and(|p| fp == p.fingerprint && data.len() == p.units) =>
                    {
                        // Old-generation replica over a grown file: the
                        // appended rows come from one shared tail scan
                        // below. A `Values` replica needs no prefix work at
                        // all (the tail splices into the resident vector);
                        // a `BinaryJson` replica decodes only the proven
                        // prefix.
                        let prefix_units = prefix.expect("guard").prefix_units;
                        let prefix = match &*data {
                            CachedData::Values(_) => {
                                shared += 1;
                                shared_rows += prefix_units as u64;
                                None
                            }
                            _ => Some(self.decode_replica(&data, prefix_units)?),
                        };
                        grown.push((i, prefix));
                        self.stats.cached_columns += 1;
                    }
                    _ => missing.push(i),
                }
            }
            self.stats.span_end_counted(shared_rows, shared);
        } else {
            missing = (0..touched.len()).collect();
        }

        if !grown.is_empty() {
            let prev = prefix.expect("grown implies a prefix");
            let from = prev.prefix_units;
            self.stats.span_begin(stage::SCAN);
            let cols: Vec<usize> = grown.iter().map(|&(i, _)| touched[i]).collect();
            let tails = self.scan_columns(plugin, &cols, from)?;
            self.stats.tail_rows_scanned += (nrows - from) as u64;
            self.stats.span_end();
            for ((i, prefix), tail) in grown.into_iter().zip(tails) {
                let cache = self.opts.cache.as_ref().expect("grown implies cache");
                let field = &schema.fields()[touched[i]].name;
                let key = CacheKey::new(dataset, field.clone(), Layout::Values);
                let full = match prefix {
                    // `Values` replica: splice the tail into the resident
                    // vector under the cache lock — O(delta), and the entry
                    // is promoted to the current generation in the same
                    // step, so the next query is a plain full hit.
                    None => {
                        match cache.extend_values(&key, prev.fingerprint, from, tail, fingerprint) {
                            Some(full) => full,
                            // The replica vanished between probe and splice
                            // (concurrent eviction): re-read the whole column
                            // from raw — correctness over speed on this rare
                            // race; `sync_replicas` re-caches it.
                            None => {
                                let vals = self.scan_columns(plugin, &[touched[i]], 0)?;
                                Arc::new(vals.into_iter().next().expect("one column"))
                            }
                        }
                    }
                    // `BinaryJson`: stitch decoded prefix + scanned tail;
                    // `sync_replicas` refreshes the replica to the current
                    // generation in the model's chosen layout.
                    Some(mut vals) => {
                        vals.extend(tail);
                        Arc::new(vals)
                    }
                };
                out[i] = Some(full);
            }
        }

        if !missing.is_empty() {
            self.stats.span_begin(stage::SCAN);
            let cols: Vec<usize> = missing.iter().map(|&i| touched[i]).collect();
            let read = self.scan_columns(plugin, &cols, 0)?;
            self.stats.span_end();
            for (&i, col_vals) in missing.iter().zip(read) {
                out[i] = Some(Arc::new(col_vals));
                self.stats.raw_columns += 1;
            }
        }

        let columns: Vec<Arc<Vec<Value>>> = out
            .into_iter()
            .map(|c| c.expect("all columns filled"))
            .collect();
        self.sync_replicas(dataset, plugin, touched, &columns, fingerprint);
        Ok(columns)
    }

    /// Decode the first `nrows` rows of a cached replica into a parsed
    /// column, morsel by morsel (the warm-cache half of the morsel driver).
    fn decode_replica(&mut self, data: &CachedData, nrows: usize) -> Result<Vec<Value>> {
        let plan = MorselPlan::fixed(nrows, self.opts.morsel_rows);
        morsel_fold(
            &self.ctx.pool,
            &plan,
            stage::CACHE_PROBE,
            self.stats,
            |range, _| {
                let rows = range.len() as u64;
                let chunk = range.map(|r| data.get(r)).collect::<Result<Vec<Value>>>()?;
                Ok((chunk, rows))
            },
            Vec::with_capacity(nrows),
            |mut out, chunk| {
                out.extend(chunk);
                Ok(out)
            },
        )
    }

    /// The post-query cost-model step (§5): fold this query's access
    /// evidence into the model, then make the cache hold each touched
    /// field's replica in the layout the model now prefers — building it
    /// from the materialized column; the insert retires the field's replica
    /// in the other layout. The only writer of replicas; no-op without a
    /// cache, and no cache write at all for a field whose chosen replica is
    /// fresh.
    fn sync_replicas(
        &mut self,
        dataset: &str,
        plugin: &Arc<dyn vida_formats::InputPlugin>,
        touched: &[usize],
        columns: &[Arc<Vec<Value>>],
        fingerprint: (u64, u64),
    ) {
        let Some(cache) = &self.opts.cache else {
            return;
        };
        let model = self.cache_model();
        let grown_from = self.catalog.grown_from(dataset);
        self.stats.span_begin(stage::REPLICA_SYNC);
        let written_before = self.stats.replicas_written;
        model.set_budget_bytes(cache.budget_bytes() as u64);
        let schema = plugin.schema();
        for (i, &col) in touched.iter().enumerate() {
            let field = &schema.fields()[col].name;
            model.observe(dataset, field, observe_column(plugin, col, &columns[i]));
            // Same hook feeds the plan optimizer's distinct sketch, which
            // folds in each file generation once: a warm query over an
            // unchanged file skips it, an append inserts only the tail.
            model
                .sketch()
                .observe_values(dataset, field, fingerprint, grown_from, &columns[i]);
            let chosen = model.choose_layout(dataset, field, cache_pressure(cache));
            let key = CacheKey::new(dataset, field.clone(), chosen);
            // Fingerprint-aware guard: a retained prior-generation replica
            // (kept for prefix serving over a grown file) counts as
            // missing, so the stitched column replaces it under the
            // current generation instead of being invalidated next query.
            if cache.contains_fresh(&key, fingerprint) {
                continue;
            }
            let replica = match chosen {
                // The values replica shares storage with the materialized
                // column instead of copying it.
                Layout::Values => CachedData::Values(Arc::clone(&columns[i])),
                Layout::BinaryJson => {
                    CachedData::BinaryJson(columns[i].iter().map(bson::to_bytes).collect())
                }
            };
            let bonus = model
                .profile(dataset, field)
                .map(|p| model.eviction_bonus(&p, chosen))
                .unwrap_or(0.0);
            // Replica storage is billed to the session's tenant: its budget
            // sheds its own coldest entries first, and in-quota strangers
            // are never victimized. The insert retires the field's replica
            // in a superseded layout (the re-shaping half of "re-using and
            // re-shaping results").
            if let Some(retired) = cache.put_with_cost_for(
                self.ctx.tenant.as_deref(),
                key,
                replica,
                fingerprint,
                bonus,
            ) {
                self.stats.replicas_written += 1;
                self.stats.replicas_dropped += retired as u32;
            }
        }
        let written = (self.stats.replicas_written - written_before) as u64;
        self.stats.span_end_counted(written, 0);
    }

    /// The raw scan: the dispatcher splits the file into aligned morsels
    /// (newline-aligned CSV byte ranges, record-aligned JSON spans) and
    /// workers parse disjoint ranges, sharing only the atomic positional
    /// structures. `from` restricts the scan to units `from..num_units()`
    /// — the appended tail of a grown file (`0` scans everything).
    fn scan_columns(
        &mut self,
        plugin: &Arc<dyn vida_formats::InputPlugin>,
        cols: &[usize],
        from: usize,
    ) -> Result<Vec<Vec<Value>>> {
        let plan = plan_scan_tail(plugin.as_ref(), self.opts.morsel_rows, from);
        morsel_fold(
            &self.ctx.pool,
            &plan,
            stage::SCAN,
            self.stats,
            |range, _| {
                let rows = range.len() as u64;
                let mut chunk: Vec<Vec<Value>> = vec![Vec::with_capacity(range.len()); cols.len()];
                plugin.scan_project_range(cols, range, &mut |_, vals| {
                    for (c, v) in chunk.iter_mut().zip(vals) {
                        c.push(v);
                    }
                    Ok(())
                })?;
                Ok((chunk, rows))
            },
            vec![Vec::with_capacity(plan.units()); cols.len()],
            |mut out: Vec<Vec<Value>>, chunk| {
                for (o, c) in out.iter_mut().zip(chunk) {
                    o.extend(c);
                }
                Ok(out)
            },
        )
    }
}

/// Cache byte pressure in `[0, 1]` — the cost model's storage-rent signal.
fn cache_pressure(cache: &CacheManager) -> f64 {
    cache.used_bytes() as f64 / cache.budget_bytes().max(1) as f64
}

/// One query's access evidence for a column: sampled per-row footprints of
/// the candidate layouts plus the plugin's raw fetch cost.
fn observe_column(
    plugin: &Arc<dyn vida_formats::InputPlugin>,
    col: usize,
    vals: &[Value],
) -> FieldObservation {
    /// Sampled rows per observation: enough to estimate footprints, cheap
    /// enough to run after every query.
    const SAMPLE_ROWS: usize = 64;
    /// Per-row container overhead `CachedData::approx_bytes` charges for a
    /// binary-JSON replica (one `Vec<u8>` per row).
    const BINARY_ROW_OVERHEAD: usize = 24;
    let n = vals.len().min(SAMPLE_ROWS);
    let (mut value_bytes, mut binary_bytes) = (0usize, 0usize);
    for v in vals.iter().take(n) {
        value_bytes += v.approx_bytes();
        binary_bytes += bson::to_bytes(v).len() + BINARY_ROW_OVERHEAD;
    }
    let denom = n.max(1) as f64;
    FieldObservation {
        rows: vals.len() as u64,
        avg_value_bytes: value_bytes as f64 / denom,
        avg_binary_bytes: binary_bytes as f64 / denom,
        raw_cost_factor: plugin.field_cost_factor(col),
        has_spans: false,
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{catalog, plan_of};
    use super::*;
    use crate::catalog::MemoryCatalog;
    use crate::pipeline::{run_jit, run_jit_with_stats, JitOptions};
    use vida_types::{Schema, Type};

    #[test]
    fn cache_serves_second_run() {
        let cache = Arc::new(CacheManager::new(1 << 20));
        let opts = JitOptions::with_cache(Arc::clone(&cache));
        let cat = catalog();
        let plan = plan_of("for { p <- Patients, p.age > 60 } yield sum p.age");
        let (v1, s1) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert_eq!(v1, Value::Int(136));
        assert!(s1.raw_columns > 0);
        assert!(!s1.served_from_cache);
        // No model in the options: the per-call fallback model steers the
        // cache, and its sync is the one writer of the replicas.
        assert!(s1.replicas_written > 0, "{s1:?}");
        let (v2, s2) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert_eq!(v2, v1);
        assert_eq!(s2.raw_columns, 0);
        assert!(s2.served_from_cache, "{s2:?}");
        assert!(cache.stats().hits > 0);
    }

    /// `Docs`: 64 NDJSON rows of a scalar `id` next to a fat nested `rec`
    /// record of 12 string fields — parsed, `rec` costs more than twice
    /// its binary-JSON footprint per row.
    fn fat_records() -> Arc<dyn vida_formats::InputPlugin> {
        use vida_formats::json::JsonFile;
        use vida_formats::plugin::JsonPlugin;
        let mut json = String::new();
        for i in 0..64 {
            let fields: Vec<String> = (0..12)
                .map(|j| format!("\"f{j}\":\"v{i:02}-{j:02}-payload\""))
                .collect();
            json.push_str(&format!(
                "{{\"id\":{i},\"rec\":{{{}}}}}\n",
                fields.join(",")
            ));
        }
        let rec = Type::record((0..12).map(|j| (format!("f{j}"), Type::Str)));
        let file = JsonFile::from_bytes(
            "Docs",
            json.into_bytes(),
            Schema::from_pairs([("id", Type::Int), ("rec", rec)]),
        )
        .unwrap();
        Arc::new(JsonPlugin::new(file))
    }

    #[test]
    fn cost_model_reshapes_wide_nested_column_to_binary_json() {
        use vida_optimizer::CostModel;

        // Under byte pressure the model re-shapes the fat nested column to
        // a compact binary-JSON replica while the scalar stays parsed
        // values. (Raw byte positions are the format layer's semi-index,
        // not a replica.)
        let cat = MemoryCatalog::new();
        cat.register(fat_records());
        // Budget a little above the parsed-values footprint of both
        // columns, so the values replica of `rec` alone would fill most of
        // it.
        let cache = Arc::new(CacheManager::new(64 << 10));
        let model = Arc::new(CostModel::new());
        let opts = JitOptions::with_cost_model(Arc::clone(&cache), Arc::clone(&model));
        let plan = plan_of("for { d <- Docs, d.id >= 0 } yield count d.rec");

        let (v1, s1) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert_eq!(v1, Value::Int(64));
        assert!(s1.replicas_written > 0, "{s1:?}");
        let (v2, s2) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert_eq!(v2, v1);
        assert!(s2.served_from_cache, "{s2:?}");
        // After two runs the cache holds the nested column as binary JSON
        // while the scalar column stays parsed values.
        assert!(
            cache.contains(&CacheKey::new("Docs", "rec", Layout::BinaryJson)),
            "layouts: {:?}, stats: {s2:?}",
            cache.layout_counts()
        );
        assert!(!cache.contains(&CacheKey::new("Docs", "rec", Layout::Values)));
        assert!(cache.contains(&CacheKey::new("Docs", "id", Layout::Values)));
        let (layout, _, _) = cache.get_any("Docs", "rec", &Layout::ALL).unwrap();
        assert_eq!(layout, Layout::BinaryJson);
        // A third run decodes the binary-JSON replica and still counts as
        // fully cache-served.
        let (v3, s3) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert_eq!(v3, v1);
        assert!(s3.served_from_cache, "{s3:?}");
    }

    #[test]
    fn cost_model_retires_legacy_values_replicas() {
        use vida_formats::csv::CsvFile;
        use vida_formats::plugin::CsvPlugin;
        use vida_optimizer::CostModel;

        let mut csv = String::from("id,body\n");
        for i in 0..64 {
            csv.push_str(&format!("{i},{}\n", "y".repeat(160)));
        }
        let file = CsvFile::from_bytes(
            "Notes",
            csv.into_bytes(),
            b',',
            true,
            Schema::from_pairs([("id", Type::Int), ("body", Type::Str)]),
        )
        .unwrap();
        let plugin = Arc::new(CsvPlugin::new(file));
        let cat = MemoryCatalog::new();
        cat.register(Arc::clone(&plugin) as Arc<dyn vida_formats::InputPlugin>);

        let cache = Arc::new(CacheManager::new(16 << 10));
        let plan = plan_of("for { n <- Notes, n.id >= 0 } yield count n.body");
        // Plant stale replicas of the text field in both layouts (as if the
        // model had chosen differently in the past): the second retires
        // the first, since a field holds one replica.
        let fingerprint = vida_formats::InputPlugin::fingerprint(plugin.as_ref());
        for layout in [Layout::Values, Layout::BinaryJson] {
            cache.put(
                CacheKey::new("Notes", "body", layout),
                CachedData::from_values(&[Value::str("stale")], layout).unwrap(),
                fingerprint,
            );
        }
        assert!(!cache.contains(&CacheKey::new("Notes", "body", Layout::Values)));
        assert!(cache.contains(&CacheKey::new("Notes", "body", Layout::BinaryJson)));

        // The first model-driven run writes the text column as parsed
        // values (its binary JSON is no smaller) and retires the
        // superseded replica.
        let opts = JitOptions::with_cost_model(Arc::clone(&cache), Arc::new(CostModel::new()));
        let (_, stats) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert_eq!(stats.replicas_dropped, 1, "{stats:?}");
        assert!(cache.contains(&CacheKey::new("Notes", "body", Layout::Values)));
        assert!(!cache.contains(&CacheKey::new("Notes", "body", Layout::BinaryJson)));
    }

    #[test]
    fn cost_model_default_keeps_scalar_columns_as_values() {
        use vida_optimizer::CostModel;
        let cache = Arc::new(CacheManager::new(1 << 20));
        let model = Arc::new(CostModel::new());
        let opts = JitOptions::with_cost_model(Arc::clone(&cache), Arc::clone(&model));
        let cat = catalog();
        let plan = plan_of("for { p <- Patients, p.age > 60 } yield sum p.age");
        for _ in 0..3 {
            assert_eq!(run_jit(&plan, &cat, &opts).unwrap(), Value::Int(136));
        }
        // Roomy budget, hot scalar field: parsed values stay the layout.
        assert!(cache.contains(&CacheKey::new("Patients", "age", Layout::Values)));
        let p = model.profile("Patients", "age").unwrap();
        assert_eq!(p.touches, 3);
    }

    #[test]
    fn warm_cache_decode_is_morselized() {
        use vida_optimizer::CostModel;
        let cache = Arc::new(CacheManager::new(1 << 20));
        let model = Arc::new(CostModel::new());
        let opts = JitOptions {
            cache: Some(Arc::clone(&cache)),
            cost_model: Some(model),
            threads: 2,
            morsel_rows: 1,
            ..Default::default()
        };
        let cat = catalog();
        let plan = plan_of("for { p <- Patients } yield sum p.age");
        let (v1, _) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        let (v2, s2) = run_jit_with_stats(&plan, &cat, &opts).unwrap();
        assert_eq!(v1, v2);
        assert!(s2.served_from_cache, "{s2:?}");
        // The warm run decoded the replica morsel-wise (3 rows, 1-row
        // morsels) in addition to the execution-phase morsels.
        assert!(s2.morsels >= 3, "{s2:?}");
    }
}
