//! Event-horizon cycle skipping and event-driven issue are pure
//! wall-clock optimizations: every cell of every gated experiment, at the
//! full gate window, must report exactly what the cycle-by-cycle loop and
//! the O(window) selection scan report.
//!
//! Ignored by default because it simulates the whole gate three times;
//! run it in release with
//!
//! ```sh
//! cargo test --release -p wsrs-bench --test skip_equivalence -- --ignored
//! ```
//!
//! Traces replay from (or are recorded into) the run environment's trace
//! store, the same one `report gate` uses.

use wsrs_bench::windows::gate_params;
use wsrs_bench::{gate_experiments, RunEnv, TraceCache};
use wsrs_core::{Reference, RunSpec, Simulator};

#[test]
#[ignore = "simulates every gate cell three times; run in release with --ignored"]
fn skipping_and_event_issue_match_their_oracles_on_every_gate_cell() {
    let params = gate_params();
    let cache = TraceCache::new(params).with_store(Some(RunEnv::from_env().store));
    let mut cells = 0;
    for (experiment, configs, workloads) in gate_experiments() {
        for w in workloads {
            let trace = cache.checkout(w);
            for (name, cfg) in &configs {
                let sim = Simulator::new(*cfg);
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
