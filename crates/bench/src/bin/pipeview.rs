//! Pipeline-timeline viewer: renders per-µop fetch/dispatch/issue/
//! complete/retire timestamps for a workload slice, side by side on the
//! conventional round-robin machine and on WSRS — the inter-cluster
//! forwarding bubbles and redirect shadows become directly visible.
//!
//! ```sh
//! cargo run --release -p wsrs-bench --bin pipeview -- gzip 48
//! # machine-readable JSON lines (one object per µop, `machine` tagged):
//! cargo run --release -p wsrs-bench --bin pipeview -- gzip 48 --json
//! ```

use wsrs_core::{pipeview, AllocPolicy, Outcome, RunSpec, SimConfig, Simulator};
use wsrs_regfile::RenameStrategy;
use wsrs_telemetry::Json;

fn main() {
    let (flags, positional): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with("--"));
    let json = flags.iter().any(|f| f == "--json");
    if let Some(unknown) = flags.iter().find(|f| *f != "--json") {
        eprintln!("unknown flag '{unknown}' (supported: --json)");
        std::process::exit(2);
    }
    let name = positional.first().map_or("gzip", |s| s.as_str());
    let count: usize = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(40);

    let Ok(w) = name.parse::<wsrs_workloads::Workload>() else {
        eprintln!("unknown workload '{name}'");
        std::process::exit(1);
    };

    for (label, cfg) in [
        ("conventional RR 256", SimConfig::conventional_rr(256)),
        (
            "WSRS RC 512",
            SimConfig::wsrs(
                512,
                AllocPolicy::RandomCommutative,
                RenameStrategy::ExactCount,
            ),
        ),
    ] {
        let spec = RunSpec {
            timeline: count,
            ..RunSpec::default()
        };
        let Outcome { report, timeline } =
            Simulator::new(cfg).execute(&spec, [w.trace().take(count * 4)]);
        if json {
            // JSON lines: each record is one µop, tagged with its machine.
            for t in &timeline {
                let Json::Obj(mut fields) = t.to_json() else {
                    unreachable!("UopTiming::to_json returns an object");
                };
                fields.insert(0, ("machine".into(), Json::Str(label.to_string())));
                println!("{}", Json::Obj(fields).to_string_compact());
            }
        } else {
            println!(
                "== {label} — {name} (IPC {:.3} over the slice) ==",
                report.ipc()
            );
            println!("{}", pipeview::render(&timeline, 96));
        }
    }
    if !json {
        println!("legend: f fetch, d dispatch, i issue, c complete, r retire");
        println!("(marks landing on the same cycle overwrite: d over f, etc.)");
    }
}
