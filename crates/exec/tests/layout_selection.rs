//! Layout-selection differential tests: the same query must produce the
//! same result whichever cache layout serves its columns.
//!
//! Two angles:
//!
//! 1. **Forced layouts** — replicas of every touched field are pre-seeded
//!    in one specific layout (`Values`, `BinaryJson`, or `Positions`) and
//!    the warm run must agree with the Volcano oracle. This pins the
//!    rehydration paths (in-memory decode, exact-seek span parses)
//!    independently of what the cost model would pick.
//! 2. **Adaptive selection** — a query mix runs repeatedly with the
//!    [`CostModel`] steering replica layouts; results must be identical
//!    run over run, and the acceptance property of the §5 reproduction
//!    holds: after two runs of the same mix the cache contains at least
//!    one non-`Values` replica chosen by the model, and `get_any` in model
//!    preference order serves it.

use std::sync::Arc;
use vida_cache::{CacheKey, CacheManager, CachedData, Layout};
use vida_exec::{run_jit, run_jit_with_stats, run_volcano, JitOptions, MemoryCatalog};
use vida_formats::csv::CsvFile;
use vida_formats::json::JsonFile;
use vida_formats::plugin::{CsvPlugin, JsonPlugin};
use vida_formats::InputPlugin;
use vida_lang::parse;
use vida_optimizer::CostModel;
use vida_types::{Schema, Type, Value};

fn patients_csv() -> CsvPlugin {
    let mut data = String::from("id,age,city\n");
    let cities = ["geneva", "bern", "zurich", "basel"];
    for i in 0..40 {
        data.push_str(&format!("{i},{},{}\n", 20 + (i * 7) % 60, cities[i % 4]));
    }
    CsvPlugin::new(
        CsvFile::from_bytes(
            "Patients",
            data.into_bytes(),
            b',',
            true,
            Schema::from_pairs([("id", Type::Int), ("age", Type::Int), ("city", Type::Str)]),
        )
        .expect("csv fixture parses"),
    )
}

fn genetics_json() -> JsonPlugin {
    let mut data = String::new();
    for i in 0..40 {
        data.push_str(&format!(
            "{{\"id\":{i},\"snp\":{:.3}}}\n",
            ((i * 37) % 100) as f64 / 100.0
        ));
    }
    JsonPlugin::new(
        JsonFile::from_bytes(
            "Genetics",
            data.into_bytes(),
            Schema::from_pairs([("id", Type::Int), ("snp", Type::Float)]),
        )
        .expect("json fixture parses"),
    )
}

fn plan_of(q: &str) -> vida_algebra::Plan {
    vida_algebra::rewrite(&vida_algebra::lower(&parse(q).expect("parses")).expect("lowers"))
}

/// Seed `cache` with a replica of every column of `plugin` in `layout`.
/// Positions replicas are built from the plugin's field byte spans.
fn seed_replicas(cache: &CacheManager, plugin: &dyn InputPlugin, layout: Layout) {
    let schema = plugin.schema().clone();
    let nrows = plugin.num_units();
    for (col, field) in schema.fields().iter().enumerate() {
        let data = match layout {
            Layout::Positions => {
                let spans = (0..nrows)
                    .map(|row| {
                        plugin
                            .field_byte_span(row, col)
                            .expect("span lookup")
                            .expect("text formats report spans")
                    })
                    .collect();
                CachedData::Positions(spans)
            }
            layout => {
                let mut vals = Vec::with_capacity(nrows);
                plugin
                    .scan_project(&[col], &mut |_, mut v| {
                        vals.push(v.pop().expect("one value"));
                        Ok(())
                    })
                    .expect("scan");
                CachedData::from_values(&vals, layout).expect("converts")
            }
        };
        cache.put(
            CacheKey::new(plugin.name(), field.name.clone(), layout),
            data,
            plugin.fingerprint(),
        );
    }
}

const QUERIES: &[&str] = &[
    "for { p <- Patients, p.age > 40 } yield count p",
    "for { p <- Patients } yield max p.age",
    "for { p <- Patients, p.age < 50 } yield list p.id",
    "for { p <- Patients, p.age > 30 } yield set p.city",
    "for { g <- Genetics, g.snp > 0.5 } yield avg g.snp",
    "for { p <- Patients, g <- Genetics, p.id = g.id, p.age > 35 } yield sum g.snp",
    "for { p <- Patients, g <- Genetics, p.id = g.id } yield bag (a := p.age, s := g.snp)",
];

#[test]
fn every_forced_layout_agrees_with_the_oracle() {
    for layout in Layout::ALL {
        // Fresh plugins per layout so positional structures never leak
        // state between sub-cases.
        let cat = MemoryCatalog::new();
        let patients = Arc::new(patients_csv());
        let genetics = Arc::new(genetics_json());
        cat.register(Arc::clone(&patients) as Arc<dyn InputPlugin>);
        cat.register(Arc::clone(&genetics) as Arc<dyn InputPlugin>);

        let cache = Arc::new(CacheManager::new(8 << 20));
        seed_replicas(&cache, patients.as_ref(), layout);
        seed_replicas(&cache, genetics.as_ref(), layout);
        // A model whose preference order will find the seeded layout.
        let opts = JitOptions::with_cost_model(Arc::clone(&cache), Arc::new(CostModel::new()));

        for q in QUERIES {
            let plan = plan_of(q);
            let oracle = run_volcano(&plan, &cat).expect("volcano");
            let (v, stats) = run_jit_with_stats(&plan, &cat, &opts)
                .unwrap_or_else(|e| panic!("{layout:?} {q}: {e}"));
            assert_eq!(v, oracle, "layout {layout:?} deviates for {q}");
            assert!(
                stats.cached_columns > 0 && stats.raw_columns == 0,
                "layout {layout:?} not served from cache for {q}: {stats:?}"
            );
        }
    }
}

#[test]
fn forced_layouts_agree_under_parallel_decode() {
    // The morselized warm-cache decode must produce identical columns: run
    // each forced layout at 1 and 4 workers and compare.
    for layout in Layout::ALL {
        let cat = MemoryCatalog::new();
        let patients = Arc::new(patients_csv());
        cat.register(Arc::clone(&patients) as Arc<dyn InputPlugin>);
        let cache = Arc::new(CacheManager::new(8 << 20));
        seed_replicas(&cache, patients.as_ref(), layout);

        let plan = plan_of("for { p <- Patients, p.age > 25 } yield list p.city");
        let mut results = Vec::new();
        for threads in [1usize, 4] {
            let opts = JitOptions {
                cache: Some(Arc::clone(&cache)),
                cost_model: Some(Arc::new(CostModel::new())),
                threads,
                morsel_rows: 8,
                ..Default::default()
            };
            results.push(run_jit(&plan, &cat, &opts).expect("runs"));
        }
        assert_eq!(
            results[0], results[1],
            "parallel decode deviates for {layout:?}"
        );
    }
}

#[test]
fn adaptive_selection_is_stable_and_reshapes_at_least_one_field() {
    // The §5 acceptance property: run the same query mix twice with the
    // cost model under a tight budget; results are identical, and the cache
    // ends up holding a model-chosen non-Values replica that get_any
    // serves. A wide text column makes parsed values unaffordable.
    let mut csv = String::from("id,age,notes\n");
    for i in 0..64 {
        csv.push_str(&format!("{i},{},{}\n", 20 + i % 60, "n".repeat(150)));
    }
    let cat = MemoryCatalog::new();
    cat.register(Arc::new(CsvPlugin::new(
        CsvFile::from_bytes(
            "Visits",
            csv.into_bytes(),
            b',',
            true,
            Schema::from_pairs([("id", Type::Int), ("age", Type::Int), ("notes", Type::Str)]),
        )
        .expect("csv fixture parses"),
    )));

    let cache = Arc::new(CacheManager::new(16 << 10));
    let model = Arc::new(CostModel::new());
    let opts = JitOptions::with_cost_model(Arc::clone(&cache), Arc::clone(&model));
    let mix = [
        "for { v <- Visits, v.age > 30 } yield count v.notes",
        "for { v <- Visits } yield max v.age",
        "for { v <- Visits, v.id < 32 } yield count v.notes",
    ];

    let run_mix = || -> Vec<Value> {
        mix.iter()
            .map(|q| run_jit(&plan_of(q), &cat, &opts).expect("runs"))
            .collect()
    };
    let first = run_mix();
    let second = run_mix();
    assert_eq!(first, second, "adaptive layouts changed query results");

    // At least one non-Values replica chosen by the model is in the cache…
    let non_values: usize = cache
        .layout_counts()
        .iter()
        .filter(|(l, _)| *l != Layout::Values)
        .map(|(_, n)| n)
        .sum();
    assert!(
        non_values > 0,
        "expected a non-Values replica, cache holds {:?}",
        cache.layout_counts()
    );
    // …and it is the notes field's one replica.
    let (served, _, _) = cache
        .get_any("Visits", "notes", &Layout::ALL)
        .expect("notes replica exists");
    assert_ne!(served, Layout::Values, "model should have re-shaped notes");

    // A third pass still agrees and is served from the cache.
    for q in &mix {
        let plan = plan_of(q);
        let (v, stats) = run_jit_with_stats(&plan, &cat, &opts).expect("runs");
        assert_eq!(v, first[mix.iter().position(|m| m == q).unwrap()]);
        assert!(stats.served_from_cache, "{q}: {stats:?}");
    }
}
