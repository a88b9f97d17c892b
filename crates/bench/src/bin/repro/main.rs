//! Every reproduction experiment behind one binary: `repro <name>`.
//!
//! `table1`, `table2`, `table3`, `fig2`, `fig3`, `fig5a`, `fig5b` and
//! `fig5c` regenerate one table or figure of the paper and print it next
//! to the published values; `all` runs the whole evaluation section and
//! writes the combined report to `target/reads-artifacts/repro_report.json`.
//! `seu_study`, `qat_study`, `ablation_study`, `fault_campaign` and
//! `soak_campaign` run the extension studies.
//!
//! ```sh
//! cargo run --release -p reads-bench --bin repro -- table1
//! ```

mod studies;

use reads_bench::runners;
use serde::Serialize;

/// Subcommand names and what each runs.
const EXPERIMENTS: [(&str, fn()); 14] = [
    ("table1", || drop(runners::run_table1())),
    ("table2", || drop(runners::run_table2())),
    ("table3", || drop(runners::run_table3())),
    ("fig2", || drop(runners::run_fig2_precisions())),
    ("fig3", || drop(runners::run_fig3())),
    ("fig5a", || drop(runners::run_fig5a())),
    ("fig5b", || drop(runners::run_fig5b())),
    ("fig5c", || drop(runners::run_fig5c())),
    ("all", all),
    ("seu_study", studies::seu_study),
    ("qat_study", studies::qat_study),
    ("ablation_study", studies::ablation_study),
    ("fault_campaign", studies::fault_campaign),
    ("soak_campaign", studies::soak_campaign),
];

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    if let Some((_, run)) = EXPERIMENTS.iter().find(|(n, _)| *n == name) {
        run();
    } else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: repro <{}>", names.join("|"));
        std::process::exit(2);
    }
}

#[derive(Serialize)]
struct Report {
    table1: Vec<runners::Table1Row>,
    fig3: Vec<runners::Fig3Bar>,
    table2: Vec<reads_core::experiments::Table2Row>,
    table3: runners::Table3Summary,
    fig5a: Vec<reads_core::experiments::BitSweepPoint>,
    fig5b: Vec<reads_core::experiments::BitSweepPoint>,
    fig5c_unet_mean_ms: f64,
    fig5c_mlp_mean_ms: f64,
    fig5c_unet_below_1_9ms: f64,
}

/// Runs the entire evaluation section and writes the combined report.
fn all() {
    let _ = runners::run_fig2_precisions();
    let table1 = runners::run_table1();
    let fig3 = runners::run_fig3();
    let table2 = runners::run_table2();
    let table3 = runners::run_table3();
    let fig5a = runners::run_fig5a();
    let fig5b = runners::run_fig5b();
    let fig5c = runners::run_fig5c();
    let report = Report {
        table1,
        fig3,
        table2,
        table3,
        fig5a,
        fig5b,
        fig5c_unet_below_1_9ms: {
            let q = reads_sim::Quantiles::from_samples(fig5c.unet.samples_ms.clone());
            q.fraction_below(1.9)
        },
        fig5c_unet_mean_ms: fig5c.unet.mean_ms,
        fig5c_mlp_mean_ms: fig5c.mlp.mean_ms,
    };
    let path = reads_bench::write_trajectory("target/reads-artifacts/repro_report.json", &report);
    println!("\nreport written to {}", path.display());
}
