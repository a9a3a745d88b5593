//! Criterion benches: timing-simulator throughput per architecture
//! configuration (µops simulated per wall-clock second). These are the
//! hot paths behind Figures 4 and 5; the configurations cover the paper's
//! three machine classes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use wsrs_bench::windows::BENCH_UOPS as UOPS;
use wsrs_core::{AllocPolicy, SimConfig, Simulator};
use wsrs_regfile::RenameStrategy;
use wsrs_workloads::Workload;

fn sim_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.throughput(Throughput::Elements(UOPS));
    g.sample_size(10);

    let configs = [
        ("conventional_rr", SimConfig::conventional_rr(256)),
        (
            "write_specialized",
            SimConfig::write_specialized_rr(512, RenameStrategy::ExactCount),
        ),
        (
            "wsrs_rc",
            SimConfig::wsrs(
                512,
                AllocPolicy::RandomCommutative,
                RenameStrategy::ExactCount,
            ),
        ),
    ];
    for (name, cfg) in configs {
        for w in [Workload::Gzip, Workload::Swim] {
            g.bench_with_input(BenchmarkId::new(name, w.name()), &cfg, |b, cfg| {
                b.iter(|| Simulator::new(*cfg).run_measured(w.trace(), 0, UOPS).cycles)
            });
        }
    }
    g.finish();
}

/// The issue stage in isolation, as far as the harness can isolate it: the
/// same (workload, configuration) cell driven from a pre-emulated trace, so
/// emulation cost is out of the loop and the event-driven wakeup/select
/// logic dominates. `crafty` (high-ILP integer) stresses the ready pool;
/// `mcf` (pointer chasing) stresses the producer→consumer wakeup path,
/// since almost every slot waits in the calendar for a load. Each workload
/// also runs pinned to the cycle-by-cycle loop (`<name>_no_skip`,
/// `run_measured_no_skip`) so the gain from event-horizon cycle skipping is
/// measurable in isolation — the gap is largest on stall-heavy `mcf`,
/// where most cycles are skippable memory stalls.
fn simulator_issue(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator_issue");
    g.throughput(Throughput::Elements(UOPS));
    g.sample_size(10);

    let cfg = SimConfig::wsrs(
        512,
        AllocPolicy::RandomCommutative,
        RenameStrategy::ExactCount,
    );
    for w in [Workload::Crafty, Workload::Mcf] {
        let trace: Vec<_> = w.trace().take(UOPS as usize).collect();
        g.bench_with_input(BenchmarkId::from_parameter(w.name()), &trace, |b, trace| {
            b.iter(|| {
                Simulator::new(cfg)
                    .run_measured(trace.iter().copied(), 0, UOPS)
                    .cycles
            })
        });
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{}_no_skip", w.name())),
            &trace,
            |b, trace| {
                b.iter(|| {
                    Simulator::new(cfg)
                        .run_measured_no_skip(trace.iter().copied(), 0, UOPS)
                        .cycles
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, sim_throughput, simulator_issue);
criterion_main!(benches);
