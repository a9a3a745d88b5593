//! Shared warmup/measure window constants for the experiment binaries.
//!
//! Every binary used to carry its own copy of these numbers; they live
//! here once so the trace store (which keys files on the exact window)
//! sees consistent windows across binaries, and so scaling decisions are
//! made in one place.
//!
//! The paper warms 20 M and measures 10 M instructions per benchmark
//! (§5.3). The defaults below are scaled so the full Figure 4 grid runs
//! in about a minute; override with `WSRS_WARMUP` / `WSRS_MEASURE`.

use crate::RunParams;

/// Default warm-up µops per cell (also clears every kernel's in-trace
/// initialization loops; mcf's is the longest at ~770 k µops).
pub const DEFAULT_WARMUP: u64 = 1_000_000;
/// Default measured µops per cell.
pub const DEFAULT_MEASURE: u64 = 2_000_000;

/// Regression-gate warm-up window: small enough for CI, large enough that
/// IPC is stable to well under the gate's 2% failure tolerance.
pub const GATE_WARMUP: u64 = 250_000;
/// Regression-gate measured window.
pub const GATE_MEASURE: u64 = 500_000;

/// Instruction-mix study (`mix`): skip the initialization loops, then a
/// window long enough for stable arity/commutativity fractions.
pub const MIX_WARMUP: u64 = DEFAULT_WARMUP;
/// Instruction-mix measured window.
pub const MIX_MEASURE: u64 = 500_000;

/// µops per hardware thread in the SMT study (`smt`) — long enough to
/// clear every kernel's initialization inside the measured stream.
pub const SMT_PER_THREAD: u64 = 1_500_000;

/// Warm-up cap for the regression gate's determinism probe.
pub const PROBE_WARMUP_CAP: u64 = 50_000;
/// Measured-window cap for the regression gate's determinism probe.
pub const PROBE_MEASURE_CAP: u64 = 100_000;

/// The `mix` binary's fixed window.
#[must_use]
pub fn mix_params() -> RunParams {
    RunParams {
        warmup: MIX_WARMUP,
        measure: MIX_MEASURE,
    }
}

/// The `smt` binary's fixed window (no warm-up; the whole stream is
/// measured).
#[must_use]
pub fn smt_params() -> RunParams {
    RunParams {
        warmup: 0,
        measure: SMT_PER_THREAD,
    }
}

/// The regression gate's window: [`GATE_WARMUP`] + [`GATE_MEASURE`].
#[must_use]
pub const fn gate_params() -> RunParams {
    RunParams {
        warmup: GATE_WARMUP,
        measure: GATE_MEASURE,
    }
}

/// The gate's determinism-probe window: the gate window capped at
/// [`PROBE_WARMUP_CAP`] + [`PROBE_MEASURE_CAP`], so the probe stays cheap.
#[must_use]
pub fn probe_params(gate: RunParams) -> RunParams {
    RunParams {
        warmup: gate.warmup.min(PROBE_WARMUP_CAP),
        measure: gate.measure.min(PROBE_MEASURE_CAP),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_windows_are_consistent() {
        assert_eq!(RunParams::default_scaled().warmup, DEFAULT_WARMUP);
        assert_eq!(RunParams::default_scaled().measure, DEFAULT_MEASURE);
        let m = mix_params();
        assert_eq!((m.warmup, m.measure), (MIX_WARMUP, MIX_MEASURE));
        let s = smt_params();
        assert_eq!((s.warmup, s.measure), (0, SMT_PER_THREAD));
    }
}
