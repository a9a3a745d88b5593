//! Property tests for the telemetry subsystem: every issue-width slot of
//! every cycle must be charged to exactly one attribution bucket
//! (`sum(buckets) == cycles × width`) for random programs and machine
//! classes, and the manifest pipeline must be byte-deterministic across
//! worker counts.

use proptest::prelude::*;
use wsrs::core::{AllocPolicy, RunSpec, SimConfig, Simulator};
use wsrs::isa::{Assembler, Emulator, Program, Reg};
use wsrs::regfile::RenameStrategy;
use wsrs::telemetry::SlotBucket;
use wsrs::workloads::Workload;

/// A register-register / register-immediate op in the generated subset.
#[derive(Clone, Debug)]
enum Op {
    Li(u8, i32),
    Add(u8, u8, u8),
    Mul(u8, u8, u8),
    Addi(u8, u8, i32),
    Sw(u8, u16, u8),
    Lw(u8, u8, u16),
}

const NREGS: u8 = 12; // r1..r12

fn op_strategy() -> impl Strategy<Value = Op> {
    let r = 1..=NREGS;
    prop_oneof![
        (r.clone(), any::<i32>()).prop_map(|(d, i)| Op::Li(d, i)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(d, a, b)| Op::Add(d, a, b)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(d, a, b)| Op::Mul(d, a, b)),
        (r.clone(), r.clone(), any::<i32>()).prop_map(|(d, a, i)| Op::Addi(d, a, i)),
        (r.clone(), 0u16..512, r.clone()).prop_map(|(a, off, b)| Op::Sw(a, off * 8, b)),
        (r.clone(), r.clone(), 0u16..512).prop_map(|(d, a, off)| Op::Lw(d, a, off * 8)),
    ]
}

fn assemble(ops: &[Op]) -> Program {
    let mut a = Assembler::new();
    for op in ops {
        match *op {
            Op::Li(d, i) => a.li(Reg::new(d), i64::from(i)),
            Op::Add(d, x, y) => a.add(Reg::new(d), Reg::new(x), Reg::new(y)),
            Op::Mul(d, x, y) => a.mul(Reg::new(d), Reg::new(x), Reg::new(y)),
            Op::Addi(d, x, i) => a.addi(Reg::new(d), Reg::new(x), i64::from(i)),
            Op::Sw(x, off, y) => a.sw(Reg::new(x), i64::from(off), Reg::new(y)),
            Op::Lw(d, x, off) => a.lw(Reg::new(d), Reg::new(x), i64::from(off)),
        }
    }
    a.halt();
    a.assemble()
}

/// The machine classes the conservation invariant must hold on.
fn machines() -> [SimConfig; 4] {
    let with_telemetry = |cfg: SimConfig| SimConfig {
        telemetry: true,
        ..cfg
    };
    [
        with_telemetry(SimConfig::conventional_rr(256)),
        with_telemetry(SimConfig::write_specialized_rr(
            384,
            RenameStrategy::Recycling,
        )),
        with_telemetry(SimConfig::wsrs(
            512,
            AllocPolicy::RandomCommutative,
            RenameStrategy::ExactCount,
        )),
        with_telemetry(SimConfig::wsrs(
            512,
            AllocPolicy::RandomMonadic,
            RenameStrategy::ExactCount,
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn attribution_conserves_on_random_programs(
        ops in prop::collection::vec(op_strategy(), 1..100),
        machine in 0usize..4,
    ) {
        let program = assemble(&ops);
        let cfg = machines()[machine];
        let trace = Emulator::new(program, 1 << 20);
        let r = Simulator::new(cfg).execute(&RunSpec::default(), [trace]).report;
        let attr = r.attribution.expect("telemetry enabled");
        prop_assert!(attr.conserved(), "sum(buckets) != cycles × width");
        // Every retired µop fills exactly one committed slot.
        prop_assert_eq!(attr.slots(SlotBucket::Committed), r.uops);
        // The final (break) iteration may be charged without the report's
        // cycle counter advancing; never more than one cycle apart.
        prop_assert!(attr.cycles() >= r.cycles);
        prop_assert!(attr.cycles() - r.cycles <= 1);
    }

    #[test]
    fn attribution_conserves_over_measured_windows(
        warmup in 0u64..20_000,
        measure in 1_000u64..30_000,
        machine in 0usize..4,
    ) {
        // Exercises the warm-up snapshot subtraction path on a real kernel.
        let cfg = machines()[machine];
        let r = Simulator::new(cfg).run_measured(Workload::Gzip.trace(), warmup, measure);
        let attr = r.attribution.expect("telemetry enabled");
        prop_assert!(attr.conserved());
        // µops retired in the cycle that crosses the warm-up boundary count
        // toward the warm-up total, but the whole crossing cycle is charged
        // to the measured attribution — so committed slots may lead the
        // measured µop count by less than one cycle's width.
        prop_assert!(attr.slots(SlotBucket::Committed) >= r.uops);
        prop_assert!(attr.slots(SlotBucket::Committed) - r.uops < attr.width());
        prop_assert!(attr.cycles() >= r.cycles);
        prop_assert!(attr.cycles() - r.cycles <= 1);
    }
}

/// The attribution breakdown (inside the manifest) must be byte-identical
/// for any worker count — what `WSRS_THREADS` selects at runtime.
#[test]
fn manifests_are_worker_count_invariant() {
    use wsrs_bench::manifest::{grid_manifest, telemetry_on};
    use wsrs_bench::{run_grid_full, RunParams};

    let workloads = [Workload::Gzip, Workload::Wupwise];
    let configs = [
        ("conv", telemetry_on(&SimConfig::conventional_rr(256))),
        (
            "wsrs-rc",
            telemetry_on(&SimConfig::wsrs(
                512,
                AllocPolicy::RandomCommutative,
                RenameStrategy::ExactCount,
            )),
        ),
    ];
    let params = RunParams {
        warmup: 20_000,
        measure: 40_000,
    };
    let manifest = |threads: usize| {
        let grid = run_grid_full(
            &workloads,
            &configs,
            params,
            threads,
            None,
            None,
            &|_, _, _, _| {},
        );
        grid_manifest(
            "prop",
            &workloads,
            &configs,
            params,
            threads,
            1.0,
            &grid.reports,
            &grid.batched,
            &grid.samples,
            None,
        )
        .normalized_json_string()
    };
    let serial = manifest(1);
    assert_eq!(serial, manifest(2));
    assert_eq!(serial, manifest(4));
    assert!(serial.contains("\"attribution\""), "attribution recorded");
}
