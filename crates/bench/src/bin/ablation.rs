//! Ablation studies beyond the paper's figures, for the design choices
//! `DESIGN.md` calls out:
//!
//! 1. **allocation policy** on WSRS: `RM` vs `RC` vs our load-balancing
//!    extension (`LB`, the §5.4 "future research" direction);
//! 2. **physical register count** sweep on WSRS-RC (the paper only shows
//!    384 vs 512);
//! 3. **renaming strategy** 1 (recycling, 1 extra stage) vs 2 (exact
//!    count, 3 extra stages) on WS and WSRS;
//! 4. **fast-forwarding scope** (§4.3.1): intra-cluster vs adjacent-pair
//!    vs complete bypass;
//! 5. **branch predictor** quality under the deep-pipeline penalties that
//!    motivate the paper's choice of an EV8-class predictor;
//! 6. **window size** around the paper's 224-µop point;
//! 7. **related work** (§6): the register-file cache \[4\] as the
//!    alternative route to a shorter register-read pipeline, next to WS
//!    and WSRS.
//!
//! A representative subset of benchmarks keeps runtime moderate.

use wsrs_bench::manifest::{
    artifacts_dir, cell_record, repo_root, telemetry_on, trace_records, write_manifest,
};
use wsrs_bench::{render_grid, run_grid, RunEnv, TraceProvenance};
use wsrs_core::{AllocPolicy, FastForward, SimConfig};
use wsrs_regfile::RenameStrategy;
use wsrs_telemetry::manifest::{git_revision, SCHEMA_VERSION};
use wsrs_telemetry::{CellRecord, RunManifest};
use wsrs_workloads::Workload;

const SUBSET: [Workload; 5] = [
    Workload::Gzip,
    Workload::Crafty,
    Workload::Mcf,
    Workload::Wupwise,
    Workload::Facerec,
];

/// Runs one sweep; prints its IPC table and appends its cells (config
/// names prefixed with `tag` so sweeps can reuse short labels) to the
/// combined ablation manifest.
fn sweep(
    tag: &str,
    title: &str,
    configs: &[(&str, SimConfig)],
    env: &RunEnv,
    cells: &mut Vec<CellRecord>,
    provenance: &mut TraceProvenance,
) {
    let configs: Vec<(String, SimConfig)> = configs
        .iter()
        .map(|(n, c)| (format!("{tag}/{n}"), telemetry_on(c)))
        .collect();
    let refs: Vec<(&str, SimConfig)> = configs.iter().map(|(n, c)| (n.as_str(), *c)).collect();
    let names: Vec<&str> = configs
        .iter()
        .map(|(n, _)| n.split('/').nth(1).unwrap_or(n))
        .collect();
    let run = run_grid(env, &SUBSET, &refs, &|_, _, _, _| {});
    provenance.absorb(run.provenance);
    for (wi, (w, reports)) in SUBSET.iter().zip(&run.reports).enumerate() {
        for (ci, ((name, cfg), r)) in refs.iter().zip(reports).enumerate() {
            let sample = run.samples.get(wi).and_then(|row| row.get(ci)?.as_ref());
            cells.push(cell_record(*w, name, cfg, r, run.batched[ci], sample));
        }
    }
    let rows: Vec<(String, Vec<f64>)> = SUBSET
        .iter()
        .zip(&run.reports)
        .map(|(w, reports)| {
            (
                w.name().to_string(),
                reports.iter().map(wsrs_core::Report::ipc).collect(),
            )
        })
        .collect();
    println!("{}", render_grid(title, &names, &rows, 3));
}

fn main() {
    let env = RunEnv::from_env();
    let t0 = std::time::Instant::now();
    let mut cells = Vec::new();
    let cells = &mut cells;
    let mut provenance = TraceProvenance::default();
    let prov = &mut provenance;

    sweep(
        "a1",
        "Ablation 1 — WSRS allocation policy (IPC)",
        &[
            (
                "RM",
                SimConfig::wsrs(512, AllocPolicy::RandomMonadic, RenameStrategy::ExactCount),
            ),
            (
                "RC",
                SimConfig::wsrs(
                    512,
                    AllocPolicy::RandomCommutative,
                    RenameStrategy::ExactCount,
                ),
            ),
            (
                "LB",
                SimConfig::wsrs(512, AllocPolicy::LoadBalance, RenameStrategy::ExactCount),
            ),
        ],
        &env,
        cells,
        prov,
    );

    let reg_sweep: Vec<(String, SimConfig)> = [320usize, 384, 448, 512, 640]
        .iter()
        .map(|&regs| {
            (
                format!("{regs}"),
                SimConfig::wsrs(
                    regs,
                    AllocPolicy::RandomCommutative,
                    RenameStrategy::ExactCount,
                ),
            )
        })
        .collect();
    let reg_refs: Vec<(&str, SimConfig)> =
        reg_sweep.iter().map(|(n, c)| (n.as_str(), *c)).collect();
    sweep(
        "a2",
        "Ablation 2 — WSRS-RC physical register count (IPC)",
        &reg_refs,
        &env,
        cells,
        prov,
    );

    sweep(
        "a3",
        "Ablation 3 — renaming strategy (IPC)",
        &[
            (
                "WS strat1",
                SimConfig::write_specialized_rr(512, RenameStrategy::Recycling),
            ),
            (
                "WS strat2",
                SimConfig::write_specialized_rr(512, RenameStrategy::ExactCount),
            ),
            (
                "WSRS strat1",
                SimConfig::wsrs(
                    512,
                    AllocPolicy::RandomCommutative,
                    RenameStrategy::Recycling,
                ),
            ),
            (
                "WSRS strat2",
                SimConfig::wsrs(
                    512,
                    AllocPolicy::RandomCommutative,
                    RenameStrategy::ExactCount,
                ),
            ),
        ],
        &env,
        cells,
        prov,
    );

    let ff = |scope| {
        let mut c = SimConfig::wsrs(
            512,
            AllocPolicy::RandomCommutative,
            RenameStrategy::ExactCount,
        );
        c.fast_forward = scope;
        c
    };
    let ff_conv = |scope| {
        let mut c = SimConfig::conventional_rr(256);
        c.fast_forward = scope;
        c
    };
    sweep(
        "a4",
        "Ablation 4 — fast-forwarding scope (IPC)",
        &[
            ("conv intra", ff_conv(FastForward::IntraCluster)),
            ("conv full", ff_conv(FastForward::Complete)),
            ("wsrs intra", ff(FastForward::IntraCluster)),
            ("wsrs pair", ff(FastForward::AdjacentPair)),
            ("wsrs full", ff(FastForward::Complete)),
        ],
        &env,
        cells,
        prov,
    );

    use wsrs_frontend::PredictorKind;
    let pred = |kind| {
        let mut c = SimConfig::wsrs(
            512,
            AllocPolicy::RandomCommutative,
            RenameStrategy::ExactCount,
        );
        c.predictor = kind;
        c
    };
    sweep(
        "a5",
        "Ablation 5 — branch predictor on WSRS-RC (IPC)",
        &[
            ("2bcgskew", pred(PredictorKind::TwoBcGskew512K)),
            ("gshare", pred(PredictorKind::Gshare64K)),
            ("bimodal", pred(PredictorKind::Bimodal64K)),
            ("taken", pred(PredictorKind::AlwaysTaken)),
            ("perfect", pred(PredictorKind::Perfect)),
        ],
        &env,
        cells,
        prov,
    );

    let win = |per: usize, rob: usize| SimConfig {
        window_per_cluster: per,
        rob,
        ..SimConfig::wsrs(
            512,
            AllocPolicy::RandomCommutative,
            RenameStrategy::ExactCount,
        )
    };
    sweep(
        "a6",
        "Ablation 6 — in-flight window size on WSRS-RC (IPC)",
        &[
            ("28/112", win(28, 112)),
            ("56/224", win(56, 224)),
            ("112/448", win(112, 448)),
        ],
        &env,
        cells,
        prov,
    );

    use wsrs_core::RegCache;
    sweep(
        "a7",
        "Ablation 7 — related work: register-file cache [4] vs specialization (IPC)",
        &[
            ("conv", SimConfig::conventional_rr(256)),
            (
                "conv+RFcache",
                SimConfig::conventional_reg_cache(
                    256,
                    RegCache {
                        retention_cycles: 24,
                        slow_read_penalty: 2,
                    },
                ),
            ),
            (
                "WS 512",
                SimConfig::write_specialized_rr(512, RenameStrategy::ExactCount),
            ),
            (
                "WSRS RC 512",
                SimConfig::wsrs(
                    512,
                    AllocPolicy::RandomCommutative,
                    RenameStrategy::ExactCount,
                ),
            ),
        ],
        &env,
        cells,
        prov,
    );

    let manifest = RunManifest {
        schema: SCHEMA_VERSION,
        experiment: "ablation".to_string(),
        git_rev: git_revision(&repo_root()),
        warmup: env.params.warmup,
        measure: env.params.measure,
        workers: env.threads as u64,
        wall_secs: t0.elapsed().as_secs_f64(),
        cells: std::mem::take(cells),
        traces: trace_records(&provenance),
        trace_cache: Some(provenance.counters),
    };
    match write_manifest(&manifest, &artifacts_dir()) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("manifest not written: {e}"),
    }
}
