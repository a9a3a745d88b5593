//! Batched lockstep simulation: N configurations of the *same* workload
//! advance in coarse lockstep over one shared, pre-annotated trace.
//!
//! Grid columns (figure 4/5, pools, ablations) replay one workload trace
//! through a family of sibling configurations. Run scalar, every cell
//! re-walks the trace and re-runs the direction predictor — per-µop work
//! that depends only on *trace order*, never on any machine's timing.
//! The batched path hoists it: `annotate` runs the family's predictor
//! once over the shared trace, recording per-µop `(cond_branch,
//! mispredicted)` outcomes, and each lane's fetch replays those flags
//! instead of predicting. Lane timing state stays fully independent —
//! each lane owns its engine (`Rob` lanes keyed by
//! `(config_lane, seq)`, its own `CalendarWheel` and waiter lists) — so
//! every lane's [`Report`] is bit-identical to its scalar run; the
//! lockstep differential fuzz in `tests/proptest_scheduler.rs` enforces
//! exactly that.
//!
//! The hoisting is sound because prediction is a pure function of the
//! trace prefix: the engine consults the predictor for every conditional
//! branch in fetch (= trace) order, timing never feeds back into it, and
//! the engine's exit condition guarantees every µop of the bounded trace
//! is eventually fetched. Lanes at different IPC sit at different trace
//! positions, but each position's annotation is the same for all of them.

use crate::config::SimConfig;
use crate::metrics::Report;
use crate::sim::{predict_uop, AnnUop, Engine, FetchStream, RunSpec};
use wsrs_frontend::PredictorKind;
use wsrs_isa::DynInst;

/// Per-µop annotation flag: the µop is a conditional branch.
const A_COND: u8 = 1 << 0;
/// Per-µop annotation flag: the family predictor mispredicted it.
const A_MISP: u8 = 1 << 1;

/// Sweep block, in cycles per lane per round-robin turn. Sized so a
/// lane's working set (SoA ROB, wheel, rename state) stays hot in cache
/// for its whole slice instead of being evicted by its siblings every
/// cycle, while lanes still walk the same region of the shared annotated
/// trace within a sweep or two of each other. Reports do not depend on
/// it: lanes share nothing mutable.
const STRIDE: u32 = 8192;

/// Whether `configs` can share one lockstep batch: every lane
/// single-threaded (SMT interleaves traces per-machine), no
/// virtual-physical registers (the lockstep differential fuzz draws only
/// VP-free families), and one common predictor kind (the annotation is
/// predictor state, run once).
#[must_use]
pub fn lockstep_compatible(configs: &[SimConfig]) -> bool {
    let Some(first) = configs.first() else {
        return false;
    };
    configs
        .iter()
        .all(|c| c.threads == 1 && c.vp_phys_per_subset.is_none() && c.predictor == first.predictor)
}

/// Runs the family predictor over `trace` once, producing one flag byte
/// per µop. Identical to what each scalar engine would compute inline,
/// because the predictor sees conditional branches in the same (trace)
/// order with the same tagged PCs.
fn annotate(kind: PredictorKind, trace: &[DynInst]) -> Vec<u8> {
    let mut predictor = kind.build();
    trace
        .iter()
        .map(|d| {
            if !d.is_cond_branch() {
                return 0;
            }
            let mut f = A_COND;
            if predict_uop(&mut predictor, 0, d) {
                f |= A_MISP;
            }
            f
        })
        .collect()
}

/// One lane's view of the shared trace: a private position over the
/// common µop array and flag array. Fetch is a pair of indexed loads —
/// the predictor ran at annotation time.
struct LaneStream<'t> {
    trace: &'t [DynInst],
    flags: &'t [u8],
    pos: usize,
}

impl FetchStream for LaneStream<'_> {
    fn next(&mut self, tid: usize) -> Option<AnnUop> {
        debug_assert_eq!(tid, 0, "lockstep lanes are single-threaded");
        let d = *self.trace.get(self.pos)?;
        let f = self.flags[self.pos];
        self.pos += 1;
        Some(AnnUop {
            d,
            cond_branch: f & A_COND != 0,
            mispredicted: f & A_MISP != 0,
        })
    }
}

/// Simulates every configuration in `configs` over `trace` (bounded to
/// `warmup + measure` µops, the [`crate::Simulator::run_measured`]
/// convention), advancing all lanes in coarse lockstep — round-robin
/// sweeps of a fixed cycle block per lane — over one shared annotated
/// trace. Returns one [`Report`] per lane, in `configs` order, each
/// bit-identical to the corresponding scalar `run_measured` call (lanes
/// share only read-only state, so the interleaving granularity is
/// unobservable in the results).
///
/// # Panics
///
/// Panics if `configs` is empty or not [`lockstep_compatible`], or if any
/// configuration is invalid.
#[must_use]
pub fn run_lockstep(
    configs: &[SimConfig],
    trace: &[DynInst],
    warmup: u64,
    measure: u64,
) -> Vec<Report> {
    assert!(
        lockstep_compatible(configs),
        "configs cannot share a lockstep batch"
    );
    for c in configs {
        c.validate();
    }
    let take = (warmup + measure).min(trace.len() as u64) as usize;
    let trace = &trace[..take];
    let flags = annotate(configs[0].predictor, trace);
    let spec = RunSpec {
        warmup,
        ..RunSpec::default()
    };

    let mut lanes: Vec<(Engine<'_>, LaneStream<'_>, bool)> = configs
        .iter()
        .map(|cfg| {
            let stream = LaneStream {
                trace,
                flags: &flags,
                pos: 0,
            };
            (Engine::new(cfg, &spec, None), stream, true)
        })
        .collect();

    // Coarse lockstep: each sweep advances every live lane by a block of
    // cycles. Lanes share nothing mutable — only the read-only trace and
    // flag arrays — so any interleaving granularity yields bit-identical
    // reports. Each lane's engine skips dead cycles independently inside
    // its sweep block (a skipped jump counts as one `step`), so stall-
    // heavy lanes burn through their blocks faster without perturbing
    // their siblings.
    let mut active = lanes.len();
    while active > 0 {
        for (engine, stream, live) in &mut lanes {
            if !*live {
                continue;
            }
            for _ in 0..STRIDE {
                if !engine.step(stream) {
                    *live = false;
                    active -= 1;
                    break;
                }
            }
        }
    }

    lanes
        .into_iter()
        .map(|(engine, _, _)| engine.finish().report)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocPolicy;
    use crate::sim::Simulator;
    use wsrs_regfile::RenameStrategy;

    /// A short synthetic trace with branches, loads and stores.
    fn trace() -> Vec<DynInst> {
        use wsrs_isa::{Assembler, Emulator, Reg};
        let mut a = Assembler::new();
        let (i, n, t) = (Reg::new(1), Reg::new(2), Reg::new(3));
        a.li(i, 0);
        a.li(n, 400);
        let top = a.bind_label();
        for k in 4..9 {
            a.addi(Reg::new(k), Reg::new(k), 1);
        }
        a.lw(t, i, 16);
        a.add(t, t, i);
        a.sw(i, 32, t);
        a.addi(i, i, 1);
        a.blt(i, n, top);
        a.halt();
        Emulator::new(a.assemble(), 4096).collect()
    }

    fn family() -> Vec<SimConfig> {
        vec![
            SimConfig::wsrs(
                512,
                AllocPolicy::RandomCommutative,
                RenameStrategy::ExactCount,
            ),
            SimConfig::conventional_rr(256),
            SimConfig::monolithic(256),
            SimConfig::wsrs(384, AllocPolicy::LoadBalance, RenameStrategy::Recycling),
        ]
    }

    #[test]
    fn lockstep_matches_scalar_per_lane() {
        let trace = trace();
        let configs = family();
        let reports = run_lockstep(&configs, &trace, 500, trace.len() as u64 - 500);
        for (cfg, batched) in configs.iter().zip(&reports) {
            let scalar = Simulator::new(*cfg).run_measured(
                trace.iter().copied(),
                500,
                trace.len() as u64 - 500,
            );
            assert_eq!(
                format!("{batched:?}"),
                format!("{scalar:?}"),
                "lane diverged from scalar run"
            );
        }
    }

    #[test]
    fn single_lane_batch_is_scalar() {
        let trace = trace();
        let cfg = SimConfig::conventional_rr(256);
        let batched = run_lockstep(&[cfg], &trace, 0, trace.len() as u64);
        let scalar = Simulator::new(cfg).execute(&RunSpec::default(), [trace.iter().copied()]);
        assert_eq!(format!("{:?}", batched[0]), format!("{:?}", scalar.report));
    }

    #[test]
    fn compatibility_gate() {
        let mut smt = SimConfig::conventional_rr(256);
        smt.threads = 2;
        assert!(!lockstep_compatible(&[smt]));

        let mut vp = SimConfig::conventional_rr(256);
        vp.vp_phys_per_subset = Some(48);
        assert!(!lockstep_compatible(&[vp]));

        let mut perfect = SimConfig::conventional_rr(256);
        perfect.predictor = wsrs_frontend::PredictorKind::Perfect;
        assert!(!lockstep_compatible(&[
            SimConfig::conventional_rr(256),
            perfect
        ]));

        assert!(!lockstep_compatible(&[]));
        assert!(lockstep_compatible(&family()));
    }
}
