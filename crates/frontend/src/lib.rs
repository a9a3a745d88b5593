//! # wsrs-frontend — branch prediction for the WSRS reproduction
//!
//! The paper's performance evaluation (§5.2) uses a very large
//! **2Bc-gskew** conditional branch predictor with a 512 Kbit budget — the
//! EV8-class predictor of Seznec et al. — together with perfect branch-target
//! prediction (PC-relative targets resolve early, returns come from a return
//! address stack, indirect jumps are rare). This crate provides:
//!
//! * [`TwoBcGskew`] — the 512 Kbit 2Bc-gskew predictor (bimodal + two
//!   skewed gshare banks + meta chooser, partial update);
//! * [`Bimodal`] and [`Gshare`] — simpler predictors used for ablations;
//! * the [`DirectionPredictor`] trait the timing simulator is generic over.
//!
//! # Example
//!
//! ```
//! use wsrs_frontend::{DirectionPredictor, TwoBcGskew};
//!
//! let mut p = TwoBcGskew::ev8_budget();
//! // A strongly biased branch becomes well predicted after warm-up.
//! for _ in 0..64 {
//!     let pred = p.predict(0x40);
//!     p.update(0x40, true);
//!     let _ = pred;
//! }
//! assert!(p.predict(0x40));
//! ```

pub mod bimodal;
pub mod counter;
pub mod gshare;
pub mod gskew;
pub mod kind;

pub use bimodal::Bimodal;
pub use counter::{Counter2, CounterTable};
pub use gshare::Gshare;
pub use gskew::TwoBcGskew;
pub use kind::{AlwaysTaken, PredictorKind};

/// A conditional-branch direction predictor.
///
/// The timing simulator calls [`predict`](Self::predict) at fetch and
/// [`update`](Self::update) with the resolved outcome. Because the
/// simulator models only the correct path (wrong-path fetch is idealized
/// away, as in the paper), updates always carry the architecturally correct
/// direction and the global history is maintained inside `update`.
pub trait DirectionPredictor {
    /// Predicts the direction of the conditional branch at `pc`.
    fn predict(&self, pc: u64) -> bool;

    /// Informs the predictor of the actual outcome of the branch at `pc`,
    /// updating tables and global history.
    fn update(&mut self, pc: u64, taken: bool);

    /// Total storage budget in bits (for reporting).
    fn storage_bits(&self) -> usize;

    /// Appends the predictor's full mutable state (tables and history)
    /// to `out`, for warmup checkpointing. Stateless predictors append
    /// nothing. The encoding carries no framing of its own — callers
    /// store the byte length and hand back exactly those bytes to
    /// [`load_state`](Self::load_state).
    fn dump_state(&self, _out: &mut Vec<u8>) {}

    /// Restores state previously produced by [`dump_state`](Self::dump_state)
    /// on a predictor of the same geometry. Returns `false` (state
    /// unspecified) when `bytes` does not match that geometry.
    fn load_state(&mut self, bytes: &[u8]) -> bool {
        bytes.is_empty()
    }
}

/// Measured accuracy of a predictor over a branch stream; convenience used
/// by tests and examples.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Accuracy {
    /// Number of predicted branches.
    pub branches: u64,
    /// Number of correct predictions.
    pub correct: u64,
}

impl Accuracy {
    /// Fraction of branches predicted correctly, `0.0` if none were seen.
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.correct as f64 / self.branches as f64
        }
    }

    /// Feeds one (pc, outcome) pair through `p`, recording accuracy.
    pub fn observe<P: DirectionPredictor>(&mut self, p: &mut P, pc: u64, taken: bool) {
        let pred = p.predict(pc);
        p.update(pc, taken);
        self.branches += 1;
        if pred == taken {
            self.correct += 1;
        }
    }
}
