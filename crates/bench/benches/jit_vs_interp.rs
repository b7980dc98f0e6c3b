//! Generated pipelines vs static pre-cooked operators (ViDa §4, Figure 6's
//! motivation): the same plan through `run_jit` and `run_volcano`.

use std::sync::Arc;
use vida_algebra::{lower, rewrite};
use vida_bench::{case, fixtures};
use vida_exec::{run_jit, run_volcano, JitOptions, MemoryCatalog};
use vida_formats::csv::CsvFile;
use vida_formats::plugin::CsvPlugin;
use vida_lang::parse;

fn main() {
    let catalog = MemoryCatalog::new();
    let csv = CsvFile::from_bytes(
        "Patients",
        fixtures::patients_csv(2_000, 7),
        b',',
        true,
        fixtures::patients_schema(),
    )
    .expect("fixture parses");
    catalog.register(Arc::new(CsvPlugin::new(csv)));

    let plan = rewrite(
        &lower(&parse("for { p <- Patients, p.age > 40 } yield sum p.age").expect("parses"))
            .expect("lowers"),
    );
    let opts = JitOptions::default();

    let jit = case("jit: scan+filter+sum (2k rows)", 5, 10, || {
        run_jit(&plan, &catalog, &opts).expect("runs");
    });
    let volcano = case("volcano: scan+filter+sum (2k rows)", 5, 10, || {
        run_volcano(&plan, &catalog).expect("runs");
    });
    println!(
        "speedup (volcano/jit): {:.2}x",
        volcano.as_secs_f64() / jit.as_secs_f64().max(1e-12)
    );
}
