//! Regenerates the paper's **Figure 4**: IPC of the six configurations
//! (RR 256, WSRR 384/512, WSRS RC 384/512, WSRS RM 512) over the twelve
//! benchmarks.
//!
//! Window sizes come from `WSRS_WARMUP` / `WSRS_MEASURE` (defaults: 1 M +
//! 2 M µops — the paper used 20 M + 10 M; see `EXPERIMENTS.md`). Cells are
//! fanned across `WSRS_THREADS` workers (default: all cores), each
//! workload's trace emulated once and shared across configurations.

use wsrs_bench::manifest::{artifacts_dir, grid_manifest, telemetry_on, write_manifest};
use wsrs_bench::{figure4_configs, render_bars, render_csv, render_grid, run_grid, RunEnv};
use wsrs_workloads::Workload;

fn main() {
    let env = RunEnv::from_env();
    let configs: Vec<(&str, _)> = figure4_configs()
        .into_iter()
        .map(|(n, c)| (n, telemetry_on(&c)))
        .collect();
    let names: Vec<&str> = configs.iter().map(|(n, _)| *n).collect();
    let workloads = Workload::all();
    eprintln!(
        "figure4: warmup {} µops, measure {} µops per cell ({} cells, {} threads)",
        env.params.warmup,
        env.params.measure,
        workloads.len() * configs.len(),
        env.threads
    );

    let t0 = std::time::Instant::now();
    let run = run_grid(&env, &workloads, &configs, &|w, name, r, elapsed| {
        eprintln!(
            "  {:<8} {:<14} ipc {:>6.3}  mr {:>5.3}  unbal {:>5.1}%  ({elapsed:.1?})",
            w.name(),
            name,
            r.ipc(),
            r.mispredict_rate(),
            r.unbalance_percent,
        );
    });
    let grid = &run.reports;

    let mut int_rows = Vec::new();
    let mut fp_rows = Vec::new();
    for (w, reports) in workloads.iter().zip(grid) {
        let vals: Vec<f64> = reports.iter().map(wsrs_core::Report::ipc).collect();
        if w.is_fp() {
            fp_rows.push((w.name().to_string(), vals));
        } else {
            int_rows.push((w.name().to_string(), vals));
        }
    }

    println!(
        "{}",
        render_grid("Figure 4 — IPC, integer benchmarks", &names, &int_rows, 3)
    );
    println!(
        "{}",
        render_grid(
            "Figure 4 — IPC, floating-point benchmarks",
            &names,
            &fp_rows,
            3
        )
    );

    // Bar rendering, matching the paper's chart form.
    let max = int_rows
        .iter()
        .chain(&fp_rows)
        .flat_map(|(_, v)| v.iter().copied())
        .fold(0.1f64, f64::max);
    println!(
        "{}",
        render_bars("Figure 4 (bars), integer", &names, &int_rows, max)
    );
    println!(
        "{}",
        render_bars("Figure 4 (bars), floating point", &names, &fp_rows, max)
    );

    let mut all_rows = int_rows;
    all_rows.extend(fp_rows);
    env.write_csv("figure4", &render_csv(&names, &all_rows));

    if let Some(summary) = run.sample_summary() {
        eprintln!("{summary}");
    }
    let m = grid_manifest(
        "figure4",
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
