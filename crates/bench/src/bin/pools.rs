//! The paper's **Figure 2b** organization: register write specialization
//! over pools of identical functional units (load/store pool, simple-ALU
//! pool, FP/complex pool, branch pool), compared against the monolithic
//! 8-way machine it specializes.
//!
//! Demonstrates §2's claim for the pool organization: write specialization
//! with a static (opcode-determined, predecoded) allocation does not impair
//! performance, while each register keeps only one pool's write ports.

use wsrs_bench::{render_grid, run_grid, RunEnv};
use wsrs_core::SimConfig;
use wsrs_regfile::RenameStrategy;
use wsrs_workloads::Workload;

fn main() {
    let env = RunEnv::from_env();
    let configs = [
        ("mono 256", SimConfig::monolithic(256)),
        (
            "pool-WS 384",
            SimConfig::pooled_write_specialized(384, RenameStrategy::ExactCount),
        ),
        (
            "pool-WS 512",
            SimConfig::pooled_write_specialized(512, RenameStrategy::ExactCount),
        ),
    ];
    let names: Vec<&str> = configs.iter().map(|(n, _)| *n).collect();
    let workloads = Workload::all();

    let grid = run_grid(&env, &workloads, &configs, &|w, name, r, _| {
        eprintln!(
            "  {:<8} {:<12} ipc {:>6.3}  rename stalls {}",
            w.name(),
            name,
            r.ipc(),
            r.rename.alloc_refusals
        );
    })
    .reports;

    let rows: Vec<(String, Vec<f64>)> = workloads
        .iter()
        .zip(&grid)
        .map(|(w, reports)| {
            (
                w.name().to_string(),
                reports.iter().map(wsrs_core::Report::ipc).collect(),
            )
        })
        .collect();
    println!(
        "{}",
        render_grid(
            "Figure 2b — pooled write specialization (IPC)",
            &names,
            &rows,
            3
        )
    );
}
