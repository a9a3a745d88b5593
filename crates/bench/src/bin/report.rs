//! Run manifests and the regression gate.
//!
//! ```sh
//! # refresh the committed baselines (BENCH_<experiment>.json at the root)
//! cargo run --release -p wsrs-bench --bin report
//!
//! # compare a fresh run against the committed baselines; exit 1 on
//! # IPC regression (>2%), a cell invariant broken (slot conservation,
//! # stalls beyond the measured window) or determinism drift
//! cargo run --release -p wsrs-bench --bin report -- gate
//!
//! # check that the committed baselines parse and hold the cell invariants
//! cargo run --release -p wsrs-bench --bin report -- check
//!
//! # submit a whole grid to a running wsrs-serve and stream the results
//! cargo run --release -p wsrs-bench --bin report -- submit figure4 \
//!     --addr 127.0.0.1:8787 --check-baseline
//!
//! # re-stream an existing job
//! cargo run --release -p wsrs-bench --bin report -- watch 1
//! ```
//!
//! Both modes run the same reduced fixed grids (250 k warm-up + 500 k
//! measured µops per cell), with cycle-attribution telemetry enabled so
//! every manifest carries a full stall breakdown. The gate additionally
//! re-runs a small sub-grid serially and with three workers and demands
//! byte-identical normalized manifests — the determinism contract of the
//! parallel harness.

use std::io::Write;
use std::time::Instant;
use wsrs_bench::client;
use wsrs_bench::manifest::{
    artifacts_dir, baseline_path, grid_manifest, load_baseline, repo_root, telemetry_on,
    write_manifest,
};
use wsrs_bench::windows::{gate_params, probe_params};
use wsrs_bench::{figure4_configs, gate_experiments, run_grid, run_grid_full, RunEnv, RunParams};
use wsrs_core::{SampleSpec, SimConfig};
use wsrs_telemetry::{CellRecord, GateOutcome, Json, RunManifest, Tolerances};
use wsrs_workloads::Workload;

/// Default `wsrs-serve` address for `submit`/`watch`.
const DEFAULT_ADDR: &str = "127.0.0.1:8787";

/// Runs one experiment grid on `env` and assembles its manifest.
/// `env.sample` is `None` for the exact path (baselines, the gate); `Some`
/// runs every cell interval-sampled — the manifest then carries the
/// `<experiment>-sampled` name and a greppable `sampled:` summary line
/// goes to stdout.
fn run_experiment(
    env: &RunEnv,
    experiment: &str,
    workloads: &[Workload],
    configs: &[(&str, SimConfig)],
) -> RunManifest {
    eprintln!(
        "{experiment}: {} cells, {}+{} µops, {} worker(s)",
        workloads.len() * configs.len(),
        env.params.warmup,
        env.params.measure,
        env.threads,
    );
    let t0 = Instant::now();
    let run = run_grid(env, workloads, configs, &|w, name, r, _| {
        eprintln!("  {:<8} {:<14} ipc {:>6.3}", w.name(), name, r.ipc());
    });
    let lanes = run.batched.iter().filter(|&&b| b).count();
    if lanes > 0 {
        eprintln!(
            "{experiment}: path: lockstep batch ({lanes} lane(s)/workload, \
             {} scalar cell(s))",
            configs.len() - lanes
        );
    } else {
        eprintln!("{experiment}: path: scalar (incompatible configs)");
    }
    if let Some(summary) = run.sample_summary() {
        // Stdout on purpose: CI's sample-smoke step greps this line to
        // assert a warm store replays with zero fast-forwarded µops.
        println!("{summary}");
    }
    grid_manifest(
        experiment,
        workloads,
        configs,
        env.params,
        env.threads,
        t0.elapsed().as_secs_f64(),
        &run.reports,
        &run.batched,
        &run.samples,
        Some(&run.provenance),
    )
}

/// Writes fresh baselines for every experiment at the repo root.
fn write_baselines(env: &RunEnv) {
    for (experiment, configs, workloads) in gate_experiments() {
        let m = run_experiment(env, experiment, &workloads, &configs);
        let path = write_manifest(&m, &repo_root()).expect("write baseline");
        println!("wrote {}", path.display());
    }
}

/// The gate's determinism probe: a 2×2 sub-grid run serially and with
/// three workers must yield byte-identical normalized manifests.
fn determinism_drift(params: RunParams) -> Option<String> {
    let workloads = [Workload::Gzip, Workload::Mcf];
    let configs: Vec<(&str, SimConfig)> = figure4_configs()
        .into_iter()
        .take(2)
        .map(|(n, c)| (n, telemetry_on(&c)))
        .collect();
    let probe = probe_params(params);
    let run = |threads: usize| {
        let grid = run_grid_full(
            &workloads,
            &configs,
            probe,
            threads,
            None,
            None,
            &|_, _, _, _| {},
        );
        grid_manifest(
            "determinism",
            &workloads,
            &configs,
            probe,
            threads,
            0.0,
            &grid.reports,
            &grid.batched,
            &grid.samples,
            None,
        )
        .normalized_json_string()
    };
    let serial = run(1);
    let parallel = run(3);
    (serial != parallel).then(|| {
        "determinism drift: normalized manifests differ between 1 and 3 workers".to_string()
    })
}

/// Compares fresh runs against the committed baselines; returns the exit
/// code.
fn gate(env: &RunEnv) -> i32 {
    let fresh_dir = artifacts_dir();
    let mut outcome = GateOutcome::default();

    for (experiment, configs, workloads) in gate_experiments() {
        let fresh = run_experiment(env, experiment, &workloads, &configs);
        let path = write_manifest(&fresh, &fresh_dir).expect("write fresh manifest");
        eprintln!("wrote {}", path.display());
        match load_baseline(experiment) {
            Some(baseline) => outcome.absorb(baseline.compare(&fresh, &Tolerances::default())),
            None => outcome.failures.push(format!(
                "no committed baseline at {} — run `report` and commit it",
                baseline_path(experiment).display()
            )),
        }
    }

    eprintln!("determinism: re-running a 2x2 sub-grid with 1 and 3 workers");
    if let Some(drift) = determinism_drift(env.params) {
        outcome.failures.push(drift);
    }

    for w in &outcome.warnings {
        println!("warning: {w}");
    }
    for f in &outcome.failures {
        println!("FAIL: {f}");
    }
    if outcome.passed() {
        println!("gate passed ({} warning(s))", outcome.warnings.len());
        0
    } else {
        println!(
            "gate FAILED: {} failure(s), {} warning(s)",
            outcome.failures.len(),
            outcome.warnings.len()
        );
        1
    }
}

/// `report sample-error <experiment>`: runs the experiment grid
/// interval-sampled with the default [`SampleSpec`] and
/// compares every cell's IPC estimate against the committed **exact**
/// baseline. The sampled manifest lands under `artifacts/` only — the
/// `<experiment>-sampled` rename inside [`grid_manifest`] guarantees it
/// can never shadow the exact baseline. Returns the exit code.
///
/// Pass/fail criteria (the EXPERIMENTS.md accuracy contract):
/// * each cell: `|estimate − exact| ≤ max(3 × error_bound, 2% × exact)`,
/// * overall: mean absolute relative error ≤ 2%.
fn sample_error(env: &RunEnv, experiment: &str) -> i32 {
    let Some((exp, configs, workloads)) = gate_experiments()
        .into_iter()
        .find(|(e, _, _)| *e == experiment)
    else {
        eprintln!(
            "unknown experiment '{experiment}' (have: {})",
            gate_experiments()
                .iter()
                .map(|(e, _, _)| *e)
                .collect::<Vec<_>>()
                .join(", ")
        );
        return 2;
    };
    let Some(baseline) = load_baseline(exp) else {
        eprintln!(
            "no committed exact baseline at {} — run `report` and commit it",
            baseline_path(exp).display()
        );
        return 1;
    };
    let spec = SampleSpec::default();
    eprintln!(
        "{exp}: sampling {} interval(s) × {} µops, {} µops detailed warmup each",
        spec.intervals, spec.interval_uops, spec.detail_warmup
    );
    let env = RunEnv {
        sample: Some(spec),
        ..env.clone()
    };
    let fresh = run_experiment(&env, exp, &workloads, &configs);
    let path = write_manifest(&fresh, &artifacts_dir()).expect("write sampled manifest");
    eprintln!("wrote {}", path.display());

    let mut failures = 0usize;
    let mut abs_rel_sum = 0.0f64;
    let mut checked = 0usize;
    for cell in &fresh.cells {
        let Some(s) = cell.sampled else {
            eprintln!(
                "{}/{}: ran exact, expected sampled",
                cell.workload, cell.config
            );
            failures += 1;
            continue;
        };
        let Some(exact) = baseline.cell(&cell.workload, &cell.config) else {
            eprintln!("{}/{}: not in exact baseline", cell.workload, cell.config);
            failures += 1;
            continue;
        };
        let err = (s.ipc_estimate - exact.ipc).abs();
        let rel = err / exact.ipc;
        abs_rel_sum += rel;
        checked += 1;
        let budget = (3.0 * s.error_bound).max(0.02 * exact.ipc);
        let verdict = if err <= budget { "ok" } else { "FAIL" };
        if err > budget {
            failures += 1;
        }
        println!(
            "  {:<8} {:<14} sampled {:>6.4} ± {:>6.4}  exact {:>6.4}  err {:>5.2}%  {}",
            cell.workload,
            cell.config,
            s.ipc_estimate,
            s.error_bound,
            exact.ipc,
            100.0 * rel,
            verdict
        );
    }
    let mean_rel = if checked == 0 {
        f64::NAN
    } else {
        abs_rel_sum / checked as f64
    };
    println!(
        "sample-error {exp}: {checked} cell(s), mean abs rel error {:.2}%",
        100.0 * mean_rel
    );
    if mean_rel.is_nan() || mean_rel > 0.02 {
        println!("FAIL: mean abs rel error exceeds 2%");
        failures += 1;
    }
    i32::from(failures > 0)
}

/// Streams `/v1/jobs/<id>/stream` from `addr` to stdout; returns the
/// full stream body.
fn stream_job(addr: &str, job: u64) -> std::io::Result<String> {
    let mut out = std::io::stdout();
    let resp = client::get_streaming(addr, &format!("/v1/jobs/{job}/stream"), &mut |chunk| {
        let _ = out.write_all(chunk);
        let _ = out.flush();
    })?;
    if resp.status != 200 {
        eprintln!("stream failed: HTTP {} — {}", resp.status, resp.body_str());
        std::process::exit(1);
    }
    Ok(resp.body_str())
}

/// Prints a finished job's origin counters (memoized / attached /
/// simulated) to stderr.
fn report_job_status(addr: &str, job: u64) {
    let Ok(resp) = client::get(addr, &format!("/v1/jobs/{job}")) else {
        return;
    };
    if let Ok(v) = Json::parse(&resp.body_str()) {
        let n = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
        eprintln!(
            "job {job}: {} cell(s) — {} memoized, {} attached, {} simulated",
            n("cells"),
            n("memoized"),
            n("attached"),
            n("simulated")
        );
    }
}

/// Checks every streamed cell line against the committed baseline of
/// `experiment`: the IPC of each (workload, config) cell must match
/// exactly (the service and the local harness are byte-deterministic
/// twins). Returns the exit code.
fn check_stream_against_baseline(experiment: &str, streamed: &str) -> i32 {
    let Some(baseline) = load_baseline(experiment) else {
        eprintln!(
            "no committed baseline at {}",
            baseline_path(experiment).display()
        );
        return 1;
    };
    let mut checked = 0usize;
    let mut failures = 0usize;
    for line in streamed.lines().filter(|l| !l.is_empty()) {
        let Ok(v) = Json::parse(line) else {
            eprintln!("malformed stream line: {line}");
            failures += 1;
            continue;
        };
        let (Some(w), Some(c)) = (
            v.get("workload").and_then(Json::as_str),
            v.get("config").and_then(Json::as_str),
        ) else {
            continue; // the stream header line
        };
        let Some(cell) = baseline.cell(w, c) else {
            eprintln!("{w}/{c}: not in baseline");
            failures += 1;
            continue;
        };
        let ipc = v.get("ipc").and_then(Json::as_f64).unwrap_or(f64::NAN);
        if ipc != cell.ipc {
            eprintln!(
                "{w}/{c}: streamed IPC {ipc} != baseline {} — determinism drift",
                cell.ipc
            );
            failures += 1;
        }
        checked += 1;
    }
    if checked != baseline.cells.len() {
        eprintln!(
            "stream covered {checked} cell(s), baseline has {}",
            baseline.cells.len()
        );
        failures += 1;
    }
    if failures == 0 {
        eprintln!("stream matches baseline: {checked} cell(s), IPC byte-exact");
        0
    } else {
        eprintln!("stream/baseline mismatch: {failures} failure(s)");
        1
    }
}

/// `report submit <experiment>`: submit a whole grid to a running
/// `wsrs-serve`, stream the results to stdout, and optionally verify
/// them against the committed baseline.
fn submit(experiment: &str, addr: &str, check_baseline: bool) -> i32 {
    let body = Json::Obj(vec![(
        "experiment".to_string(),
        Json::Str(experiment.to_string()),
    )])
    .to_string_compact();
    let resp = match client::post(addr, "/v1/jobs", &body) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot reach wsrs-serve at {addr}: {e}");
            return 1;
        }
    };
    if resp.status != 200 {
        eprintln!("submit failed: HTTP {} — {}", resp.status, resp.body_str());
        return 1;
    }
    let Some(job) = Json::parse(&resp.body_str())
        .ok()
        .and_then(|v| v.get("job").and_then(Json::as_u64))
    else {
        eprintln!("malformed submit response: {}", resp.body_str());
        return 1;
    };
    eprintln!("submitted {experiment} as job {job}");
    let streamed = match stream_job(addr, job) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("stream failed: {e}");
            return 1;
        }
    };
    report_job_status(addr, job);
    if check_baseline {
        check_stream_against_baseline(experiment, &streamed)
    } else {
        0
    }
}

/// `report watch <job>`: stream an existing job to stdout.
fn watch(job: &str, addr: &str) -> i32 {
    let Ok(job) = job.parse::<u64>() else {
        eprintln!("watch needs a numeric job id, got '{job}'");
        return 2;
    };
    match stream_job(addr, job) {
        Ok(_) => {
            report_job_status(addr, job);
            0
        }
        Err(e) => {
            eprintln!("stream failed: {e}");
            1
        }
    }
}

/// Extracts `--addr HOST:PORT` from `args` (mutating them), defaulting
/// to [`DEFAULT_ADDR`].
fn take_addr(args: &mut Vec<String>) -> String {
    if let Some(i) = args.iter().position(|a| a == "--addr") {
        if i + 1 < args.len() {
            let addr = args.remove(i + 1);
            args.remove(i);
            return addr;
        }
        eprintln!("--addr needs a value");
        std::process::exit(2);
    }
    DEFAULT_ADDR.to_string()
}

fn main() {
    // Every mode runs the gate's fixed window, exact unless it samples.
    let env = RunEnv {
        params: gate_params(),
        sample: None,
        ..RunEnv::from_env()
    };
    let mut args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        None | Some("baseline") => write_baselines(&env),
        Some("gate") => std::process::exit(gate(&env)),
        Some("sample-error") => {
            let experiment = args
                .get(2)
                .cloned()
                .unwrap_or_else(|| "figure4".to_string());
            std::process::exit(sample_error(&env, &experiment));
        }
        Some("submit") => {
            let addr = take_addr(&mut args);
            let check = if let Some(i) = args.iter().position(|a| a == "--check-baseline") {
                args.remove(i);
                true
            } else {
                false
            };
            let experiment = args
                .get(2)
                .cloned()
                .unwrap_or_else(|| "figure4".to_string());
            std::process::exit(submit(&experiment, &addr, check));
        }
        Some("watch") => {
            let addr = take_addr(&mut args);
            let Some(job) = args.get(2).cloned() else {
                eprintln!("usage: report watch <job-id> [--addr HOST:PORT]");
                std::process::exit(2);
            };
            std::process::exit(watch(&job, &addr));
        }
        Some("check") => {
            // The committed baselines parse, and every cell holds the
            // invariants the gate demands of a fresh run.
            let mut ok = true;
            for (experiment, _, _) in gate_experiments() {
                let path = baseline_path(experiment);
                match load_baseline(experiment) {
                    Some(m) => {
                        println!(
                            "{}: schema {}, {} cells",
                            path.display(),
                            m.schema,
                            m.cells.len()
                        );
                        for f in m.cells.iter().flat_map(CellRecord::invariant_failures) {
                            println!("FAIL: {f}");
                            ok = false;
                        }
                    }
                    None => {
                        println!("{}: missing or malformed", path.display());
                        ok = false;
                    }
                }
            }
            if !ok {
                std::process::exit(1);
            }
        }
        Some(other) => {
            eprintln!(
                "usage: report [baseline|gate|check|\
                 sample-error <experiment>|submit <experiment>|watch <job>]  (got '{other}')"
            );
            std::process::exit(2);
        }
    }
}
