//! Criterion benches for the event scheduler's data structures.
//!
//! `calendar` races the fixed-horizon [`CalendarWheel`] against the
//! `BTreeMap<u64, Vec<u64>>` calendar it replaced, on a booking stream
//! derived from a recorded workload trace (each µop books one completion
//! event at its class latency). `engine` measures the end-to-end effect:
//! the wheel + intrusive-list engine versus the retained O(window) scan
//! oracle on the same pre-emulated trace, for an integer (mcf) and an FP
//! (applu) kernel.

use std::collections::BTreeMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use wsrs_bench::windows::BENCH_UOPS as UOPS;
use wsrs_core::{AllocPolicy, CalendarWheel, SimConfig, Simulator};
use wsrs_isa::latency;
use wsrs_regfile::RenameStrategy;
use wsrs_workloads::Workload;

/// Per-event delays from a recorded trace: µop `i` completes
/// `latency::of(class)` cycles after it is booked, eight bookings per
/// simulated cycle (the machine's dispatch width).
fn delay_stream() -> Vec<(u64, u64)> {
    Workload::Mcf
        .trace()
        .take(UOPS as usize)
        .enumerate()
        .map(|(i, d)| (i as u64 / 8, u64::from(latency::of(d.class))))
        .collect()
}

fn calendar_structures(c: &mut Criterion) {
    let stream = delay_stream();
    let mut g = c.benchmark_group("scheduler/calendar");
    g.throughput(Throughput::Elements(stream.len() as u64));
    g.sample_size(20);

    g.bench_with_input(
        BenchmarkId::from_parameter("wheel"),
        &stream,
        |b, stream| {
            b.iter(|| {
                let mut wheel = CalendarWheel::new(128);
                let mut out = Vec::new();
                let mut fired = 0u64;
                let mut next = 0usize;
                let last = stream.last().expect("stream is non-empty").0;
                for cycle in 0..=last + 64 {
                    while next < stream.len() && stream[next].0 == cycle {
                        let (at, delay) = stream[next];
                        wheel.schedule(at + delay.max(1), next as u64);
                        next += 1;
                    }
                    out.clear();
                    wheel.drain_due(cycle, &mut out);
                    fired += out.len() as u64;
                }
                assert_eq!(fired, stream.len() as u64);
                fired
            })
        },
    );

    g.bench_with_input(
        BenchmarkId::from_parameter("btreemap"),
        &stream,
        |b, stream| {
            b.iter(|| {
                let mut calendar: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
                let mut fired = 0u64;
                let mut next = 0usize;
                let last = stream.last().expect("stream is non-empty").0;
                for cycle in 0..=last + 64 {
                    while next < stream.len() && stream[next].0 == cycle {
                        let (at, delay) = stream[next];
                        calendar
                            .entry(at + delay.max(1))
                            .or_default()
                            .push(next as u64);
                        next += 1;
                    }
                    while let Some(entry) = calendar.first_entry() {
                        if *entry.key() > cycle {
                            break;
                        }
                        fired += entry.remove().len() as u64;
                    }
                }
                assert_eq!(fired, stream.len() as u64);
                fired
            })
        },
    );
    g.finish();
}

fn engine_vs_oracle(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler/engine");
    g.throughput(Throughput::Elements(UOPS));
    g.sample_size(10);

    let cfg = SimConfig::wsrs(
        512,
        AllocPolicy::RandomCommutative,
        RenameStrategy::ExactCount,
    );
    // mcf is stall-bound (cycle skipping's case); applu is FP and
    // memory-bound, with dozens of operand-ready loads and stores queued
    // behind each thread's memory order (memory-order parking's case).
    for kernel in [Workload::Mcf, Workload::Applu] {
        let trace: Vec<_> = kernel.trace().take(UOPS as usize).collect();
        let id = |engine: &str| BenchmarkId::new(kernel.name(), engine);
        g.bench_with_input(id("event"), &trace, |b, trace| {
            b.iter(|| {
                Simulator::new(cfg)
                    .run_measured(trace.iter().copied(), 0, UOPS)
                    .cycles
            })
        });
        // The event engine pinned to the cycle-by-cycle loop
        // (`run_measured_no_skip`): isolates the wall-clock contribution of
        // event-horizon cycle skipping from the wheel + bitset machinery.
        g.bench_with_input(id("event_no_skip"), &trace, |b, trace| {
            b.iter(|| {
                Simulator::new(cfg)
                    .run_measured_no_skip(trace.iter().copied(), 0, UOPS)
                    .cycles
            })
        });
        g.bench_with_input(id("scan_oracle"), &trace, |b, trace| {
            b.iter(|| {
                Simulator::new(cfg)
                    .run_measured_scan_oracle(trace.iter().copied(), 0, UOPS)
                    .cycles
            })
        });
    }
    g.finish();
}

criterion_group!(benches, calendar_structures, engine_vs_oracle);
criterion_main!(benches);
