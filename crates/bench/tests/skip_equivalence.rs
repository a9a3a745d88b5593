//! Event-horizon cycle skipping and event-driven issue are pure
//! wall-clock optimizations: every cell of every gated experiment, and of
//! the virtual-physical experiment, at the full gate window, must report
//! exactly what the cycle-by-cycle loop and the O(window) selection scan
//! report. Every such report must also hold the invariants `report
//! check` holds a baseline cell to; every cell runs with cycle attribution
//! on, so the frontend-stall bound applies to the virtual-physical cells
//! too.
//!
//! Ignored by default because it simulates every cell three times;
//! run it in release with
//!
//! ```sh
//! cargo test --release -p wsrs-bench --test skip_equivalence -- --ignored
//! ```
//!
//! Traces replay from (or are recorded into) the run environment's trace
//! store, the same one `report gate` uses.

use wsrs_bench::manifest::{cell_record, telemetry_on};
use wsrs_bench::windows::gate_params;
use wsrs_bench::{gate_experiments, virtual_physical_experiment, RunEnv, TraceCache};
use wsrs_core::{Reference, RunSpec, Simulator};

#[test]
#[ignore = "simulates every cell three times; run in release with --ignored"]
fn skipping_and_event_issue_match_their_oracles_on_every_gate_and_vp_cell() {
    let params = gate_params();
    let cache = TraceCache::new(params).with_store(Some(RunEnv::from_env().store));
    let mut cells = 0;
    let experiments = gate_experiments()
        .into_iter()
        .chain([virtual_physical_experiment()]);
    for (experiment, configs, workloads) in experiments {
        for w in workloads {
            let trace = cache.checkout(w);
            for (name, cfg) in &configs {
                let cfg = telemetry_on(cfg);
                let sim = Simulator::new(cfg);
                let skip = sim.run_measured(trace.iter().copied(), params.warmup, params.measure);
                let reference = |reference| {
                    let spec = RunSpec {
                        warmup: params.warmup,
                        reference: Some(reference),
                        ..RunSpec::default()
                    };
                    // The cached trace is already bounded to the window.
                    sim.execute(&spec, [trace.iter().copied()]).report
                };
                let exact = reference(Reference::NoSkip);
                let scan = reference(Reference::Scan);
                let failures = cell_record(w, name, &cfg, &skip, false, None).invariant_failures();
                assert!(failures.is_empty(), "{experiment}: {failures:?}");
                // A Report's Debug rendering covers every field.
                let skip = format!("{skip:?}");
                assert_eq!(
                    skip,
                    format!("{exact:?}"),
                    "{experiment} {}/{name}: skipping changed the report",
                    w.name()
                );
                assert_eq!(
                    skip,
                    format!("{scan:?}"),
                    "{experiment} {}/{name}: event issue diverged from the scan",
                    w.name()
                );
                cells += 1;
            }
        }
    }
    assert!(cells > 0, "no gate cells ran");
}
