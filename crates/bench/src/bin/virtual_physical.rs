//! Virtual-physical registers (the paper's §6 \[13\], Monreal et al.)
//! combined with write specialization — the paper notes these techniques
//! "are orthogonal with WSRS and can be applied at cluster level".
//!
//! Sweeps the per-subset *physical* capacity of a VP machine and compares
//! against plain write specialization at the paper's register counts. VP
//! occupies a register only from issue to superseding-commit, so far fewer
//! physical registers sustain the same 224-µop window.

use wsrs_bench::{render_grid, run_cell, RunEnv};
use wsrs_core::{SimConfig, SimConfigBuilder};
use wsrs_regfile::RenameStrategy;
use wsrs_workloads::Workload;

fn main() {
    let params = RunEnv::from_env().params;
    let subset = [
        Workload::Gzip,
        Workload::Crafty,
        Workload::Wupwise,
        Workload::Facerec,
    ];

    let base = || SimConfig::write_specialized_rr(512, RenameStrategy::ExactCount);
    let vp = |cap: usize| SimConfigBuilder::from(base()).virtual_physical(cap).build();

    let configs: Vec<(String, SimConfig)> = std::iter::once(("WS 512".to_string(), base()))
        .chain(
            [36usize, 40, 48, 64, 96]
                .iter()
                .map(|&c| (format!("VP {c}/sub"), vp(c))),
        )
        .collect();
    let names: Vec<&str> = configs.iter().map(|(n, _)| n.as_str()).collect();

    let mut rows = Vec::new();
    for w in subset {
        let vals: Vec<f64> = configs
            .iter()
            .map(|(_, cfg)| run_cell(w, cfg, params).ipc())
            .collect();
        rows.push((w.name().to_string(), vals));
    }
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
