//! Regenerates the paper's **Figure 5**: unbalancing degrees of the WSRS
//! `RC` and `RM` allocation policies over the twelve benchmarks (groups of
//! 128 µops; a group is unbalanced when any cluster receives fewer than 24
//! or more than 40 of them).

use wsrs_bench::manifest::{artifacts_dir, grid_manifest, telemetry_on, write_manifest};
use wsrs_bench::{render_csv, render_grid, run_grid, RunEnv};
use wsrs_core::{AllocPolicy, SimConfig};
use wsrs_regfile::RenameStrategy;
use wsrs_workloads::Workload;

fn main() {
    let env = RunEnv::from_env();
    let configs = [
        (
            "WSRS RC",
            telemetry_on(&SimConfig::wsrs(
                512,
                AllocPolicy::RandomCommutative,
                RenameStrategy::ExactCount,
            )),
        ),
        (
            "WSRS RM",
            telemetry_on(&SimConfig::wsrs(
                512,
                AllocPolicy::RandomMonadic,
                RenameStrategy::ExactCount,
            )),
        ),
    ];
    let names: Vec<&str> = configs.iter().map(|(n, _)| *n).collect();
    let workloads = Workload::all();

    let t0 = std::time::Instant::now();
    let run = run_grid(&env, &workloads, &configs, &|w, name, r, _| {
        eprintln!(
            "  {:<8} {:<8} unbalancing {:>5.1}%",
            w.name(),
            name,
            r.unbalance_percent
        );
    });
    let grid = &run.reports;

    let mut int_rows = Vec::new();
    let mut fp_rows = Vec::new();
    for (w, reports) in workloads.iter().zip(grid) {
        let vals: Vec<f64> = reports.iter().map(|r| r.unbalance_percent).collect();
        if w.is_fp() {
            fp_rows.push((w.name().to_string(), vals));
        } else {
            int_rows.push((w.name().to_string(), vals));
        }
    }

    println!(
        "{}",
        render_grid(
            "Figure 5 — unbalancing degree (%), integer benchmarks",
            &names,
            &int_rows,
            1
        )
    );
    println!(
        "{}",
        render_grid(
            "Figure 5 — unbalancing degree (%), floating-point benchmarks",
            &names,
            &fp_rows,
            1
        )
    );
    println!("(round-robin on the conventional architecture is 0% by construction)");

    let mut all_rows = int_rows;
    all_rows.extend(fp_rows);
    env.write_csv("figure5", &render_csv(&names, &all_rows));

    let m = grid_manifest(
        "figure5",
        &workloads,
        &configs,
        env.params,
        env.threads,
        t0.elapsed().as_secs_f64(),
        grid,
        &run.batched,
        &run.samples,
        Some(&run.provenance),
    );
    match write_manifest(&m, &artifacts_dir()) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("manifest not written: {e}"),
    }
}
