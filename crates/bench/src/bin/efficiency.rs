//! Complexity-effectiveness synthesis: the paper's titular argument,
//! quantified by joining Figure 4 (performance) with Table 1 (hardware
//! cost).
//!
//! For each machine, geometric-mean IPC across the twelve kernels is
//! divided by its register file's peak power and silicon area. The paper
//! never prints this table, but it *is* the paper's thesis: WSRS gives up
//! little or no IPC while dividing register-file power by ~2.3 and area by
//! more than 6 — so IPC-per-nJ and IPC-per-area jump accordingly.

use wsrs_bench::manifest::{artifacts_dir, grid_manifest, telemetry_on, write_manifest};
use wsrs_bench::{run_grid, RunEnv};
use wsrs_complexity::{total_area_w2, CactiModel, RegFileOrg};
use wsrs_core::{AllocPolicy, SimConfig};
use wsrs_regfile::RenameStrategy;
use wsrs_workloads::Workload;

fn main() {
    let env = RunEnv::from_env();
    let model = CactiModel::paper();

    // (name, timing config, register-file organization)
    let machines = [
        (
            "conv 4-cluster (noWS-D)",
            SimConfig::conventional_rr(256),
            RegFileOrg::nows_distributed(256),
        ),
        (
            "WS RR 512",
            SimConfig::write_specialized_rr(512, RenameStrategy::ExactCount),
            RegFileOrg::write_specialized(512),
        ),
        (
            "WSRS RC 512",
            SimConfig::wsrs(
                512,
                AllocPolicy::RandomCommutative,
                RenameStrategy::ExactCount,
            ),
            RegFileOrg::wsrs(512),
        ),
    ];

    // One grid over all machines: each workload's trace is emulated once
    // and shared, and the geometric mean is taken down each column.
    let configs: Vec<(&str, SimConfig)> = machines
        .iter()
        .map(|(n, c, _)| (*n, telemetry_on(c)))
        .collect();
    let workloads = Workload::all();
    let t0 = std::time::Instant::now();
    let run = run_grid(&env, &workloads, &configs, &|w, name, r, _| {
        eprintln!("  {:<8} {:<24} ipc {:>6.3}", w.name(), name, r.ipc());
    });
    let grid = &run.reports;
    let geomean = |col: usize| {
        let log_sum: f64 = grid.iter().map(|row| row[col].ipc().ln()).sum();
        (log_sum / grid.len() as f64).exp()
    };

    println!(
        "{:<26}{:>10}{:>12}{:>12}{:>14}{:>14}",
        "machine", "gm IPC", "nJ/cycle", "rel. area", "IPC/nJ", "IPC/area"
    );
    let base_area = total_area_w2(&machines[0].2, 64) as f64;
    for (col, (name, _, org)) in machines.iter().enumerate() {
        let ipc = geomean(col);
        let energy = model.org_energy_nj(org);
        let area = total_area_w2(org, 64) as f64 / base_area;
        println!(
            "{name:<26}{ipc:>10.3}{energy:>12.2}{area:>12.3}{:>14.3}{:>14.3}",
            ipc / energy,
            ipc / area
        );
    }
    println!(
        "\n(gm IPC = geometric mean over the 12 kernels; area relative to the\n\
         conventional distributed file; energy/area from the Table 1 models)"
    );

    let m = grid_manifest(
        "efficiency",
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
