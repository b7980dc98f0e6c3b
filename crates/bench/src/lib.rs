//! # vida-bench
//!
//! Benchmark support: deterministic raw-data fixtures, a minimal timing
//! harness, and the [`compare`] gate over two `BENCH_<pr>.json` artifacts.
//! The workspace builds offline with no external dependencies, so the two
//! contract benches under `benches/` use this harness (plain `fn main`,
//! `harness = false`); every other performance number comes from the repo
//! benchmark (`bash benchmark/run.sh`, metric names in `BENCHMARK.json`).

pub mod compare;

use std::time::{Duration, Instant};
use vida_types::{Schema, Type};
use vida_workload::Rng;

/// Deterministic fixture generators for the HBP-like schema.
pub mod fixtures {
    use super::*;

    /// Schema of the `Patients` CSV fixture.
    pub fn patients_schema() -> Schema {
        Schema::from_pairs([("id", Type::Int), ("age", Type::Int), ("city", Type::Str)])
    }

    /// Schema of the `Genetics` JSON fixture.
    pub fn genetics_schema() -> Schema {
        Schema::from_pairs([("id", Type::Int), ("snp", Type::Float)])
    }

    /// A `Patients` CSV file with a header row and `n` rows.
    pub fn patients_csv(n: usize, seed: u64) -> Vec<u8> {
        patients_csv_rows(0, n, seed)
    }

    /// Rows `lo..hi` of the `Patients` fixture (header only when `lo` is
    /// 0). The generator burns the same RNG draws as rows `0..lo`, so
    /// appending `rows(lo, hi)` to a file holding `rows(0, lo)` produces
    /// exactly `rows(0, hi)` — the `incremental` bench grows its file with
    /// suffixes the cold oracle can regenerate.
    pub fn patients_csv_rows(lo: usize, hi: usize, seed: u64) -> Vec<u8> {
        let mut rng = Rng::new(seed);
        let cities = ["geneva", "bern", "zurich", "basel"];
        let mut out = if lo == 0 {
            String::from("id,age,city\n")
        } else {
            String::new()
        };
        for id in 0..hi {
            let age = 18 + rng.below(70);
            let city = cities[rng.below(cities.len() as u64) as usize];
            if id >= lo {
                out.push_str(&format!("{id},{age},{city}\n"));
            }
        }
        out.into_bytes()
    }

    /// A `Genetics` newline-delimited JSON file with `n` objects.
    pub fn genetics_json(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = Rng::new(seed);
        let mut out = String::new();
        for id in 0..n {
            let snp = (rng.below(1000) as f64) / 1000.0;
            out.push_str(&format!("{{\"id\":{id},\"snp\":{snp:.3}}}\n"));
        }
        out.into_bytes()
    }

    /// Schema of the nested `Regions` JSON fixture.
    pub fn regions_schema() -> Schema {
        use vida_types::CollectionKind;
        Schema::from_pairs([
            ("id", Type::Int),
            (
                "voxels",
                Type::Collection(CollectionKind::List, Box::new(Type::Int)),
            ),
        ])
    }

    /// A nested `Regions` newline-delimited JSON file: `n` objects with
    /// ragged integer `voxels` arrays (0–7 elements, some rows empty).
    pub fn regions_json(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = Rng::new(seed);
        let mut out = String::new();
        for id in 0..n {
            let len = rng.below(8);
            let voxels: Vec<String> = (0..len).map(|_| format!("{}", rng.below(100))).collect();
            out.push_str(&format!(
                "{{\"id\":{id},\"voxels\":[{}]}}\n",
                voxels.join(",")
            ));
        }
        out.into_bytes()
    }
}

/// One timed measurement: the best-of-samples wall time for `iters`
/// executions of `f`.
pub fn time<F: FnMut()>(samples: usize, iters: usize, mut f: F) -> Duration {
    // Warm-up run keeps one-time costs (lazy stats, page faults) out of the
    // measurement.
    f();
    let mut best = Duration::MAX;
    for _ in 0..samples.max(1) {
        let t0 = Instant::now();
        for _ in 0..iters.max(1) {
            f();
        }
        best = best.min(t0.elapsed() / iters.max(1) as u32);
    }
    best
}

/// Run and report one benchmark case.
pub fn case<F: FnMut()>(name: &str, samples: usize, iters: usize, f: F) -> Duration {
    let d = time(samples, iters, f);
    println!("{name:<44} {:>12.3} µs/iter", d.as_secs_f64() * 1e6);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use vida_formats::csv::CsvFile;
    use vida_formats::json::JsonFile;

    #[test]
    fn fixtures_parse_with_the_plugins() {
        let csv = CsvFile::from_bytes(
            "Patients",
            fixtures::patients_csv(50, 1),
            b',',
            true,
            fixtures::patients_schema(),
        )
        .unwrap();
        assert_eq!(csv.num_rows(), 50);
        let json = JsonFile::from_bytes(
            "Genetics",
            fixtures::genetics_json(30, 1),
            fixtures::genetics_schema(),
        )
        .unwrap();
        assert_eq!(json.num_objects(), 30);
    }

    #[test]
    fn row_range_generators_compose_by_append() {
        // The suffix contract the `incremental` bench relies on: gluing
        // rows(lo, hi) after rows(0, lo) is byte-identical to rows(0, hi).
        let mut glued = fixtures::patients_csv_rows(0, 12, 3);
        glued.extend(fixtures::patients_csv_rows(12, 20, 3));
        assert_eq!(glued, fixtures::patients_csv(20, 3));
    }

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(fixtures::patients_csv(10, 3), fixtures::patients_csv(10, 3));
        assert_ne!(fixtures::patients_csv(10, 3), fixtures::patients_csv(10, 4));
    }

    #[test]
    fn timer_reports_positive_durations() {
        let mut x = 0u64;
        let d = time(2, 10, || x = x.wrapping_add(1));
        assert!(d <= Duration::from_secs(1));
        assert!(x >= 20);
    }
}
