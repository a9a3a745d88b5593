//! Virtual-physical registers (the paper's §6 \[13\], Monreal et al.)
//! combined with write specialization — the paper notes these techniques
//! "are orthogonal with WSRS and can be applied at cluster level".
//!
//! Sweeps the per-subset *physical* capacity of a VP machine and compares
//! against plain write specialization at the paper's register counts. VP
//! occupies a register only from issue to superseding-commit, so far fewer
//! physical registers sustain the same 224-µop window.

use wsrs_bench::{render_grid, run_grid_full, RunEnv};
use wsrs_core::SimConfig;
use wsrs_regfile::RenameStrategy;
use wsrs_workloads::Workload;

fn main() {
    let env = RunEnv::from_env();
    let subset = [
        Workload::Gzip,
        Workload::Crafty,
        Workload::Wupwise,
        Workload::Facerec,
    ];

    let base = || SimConfig::write_specialized_rr(512, RenameStrategy::ExactCount);
    let vp = |cap: usize| {
        let mut cfg = base();
        cfg.set_virtual_physical(cap);
        cfg
    };

    let caps = [36usize, 40, 48, 64, 96];
    let vp_names: Vec<String> = caps.iter().map(|c| format!("VP {c}/sub")).collect();
    let configs: Vec<(&str, SimConfig)> = std::iter::once(("WS 512", base()))
        .chain(vp_names.iter().zip(caps).map(|(n, c)| (n.as_str(), vp(c))))
        .collect();
    let names: Vec<&str> = configs.iter().map(|(n, _)| *n).collect();

    // Exact cells (no sampling spec), sharing one recorded trace per
    // workload through the store.
    let grid = run_grid_full(
        &subset,
        &configs,
        env.params,
        env.threads,
        Some(env.store.clone()),
        None,
        &|_, _, _, _| {},
    )
    .reports;
    let rows: Vec<(String, Vec<f64>)> = subset
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
            "Virtual-physical registers over WS (IPC; physical regs per subset)",
            &names,
            &rows,
            3
        )
    );
    println!(
        "WS 512 holds 128 physical registers per subset; VP sustains the same\n\
         window with a fraction of that — the [13] effect, composed with WS."
    );
}
