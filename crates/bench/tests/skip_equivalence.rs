//! Event-horizon cycle skipping is a pure wall-clock optimization: every
//! cell of every gated experiment, at the full gate window, must report
//! exactly what the cycle-by-cycle loop reports.
//!
//! Ignored by default because it simulates the whole gate twice; run it
//! in release with
//!
//! ```sh
//! cargo test --release -p wsrs-bench --test skip_equivalence -- --ignored
//! ```
//!
//! Traces replay from (or are recorded into) the run environment's trace
//! store, the same one `report gate` uses.

use wsrs_bench::windows::gate_params;
use wsrs_bench::{gate_experiments, RunEnv, TraceCache};
use wsrs_core::Simulator;

#[test]
#[ignore = "simulates every gate cell twice; run in release with --ignored"]
fn skipping_matches_cycle_by_cycle_on_every_gate_cell() {
    let params = gate_params();
    let cache = TraceCache::new(params).with_store(Some(RunEnv::from_env().store));
    let mut cells = 0;
    for (experiment, configs, workloads) in gate_experiments() {
        for w in workloads {
            let trace = cache.checkout(w);
            for (name, cfg) in &configs {
                let sim = Simulator::new(*cfg);
                let skip = sim.run_measured(trace.iter().copied(), params.warmup, params.measure);
                let exact =
                    sim.run_measured_no_skip(trace.iter().copied(), params.warmup, params.measure);
                // A Report's Debug rendering covers every field.
                assert_eq!(
                    format!("{skip:?}"),
                    format!("{exact:?}"),
                    "{experiment} {}/{name}: skipping changed the report",
                    w.name()
                );
                cells += 1;
            }
        }
    }
    assert!(cells > 0, "no gate cells ran");
}
