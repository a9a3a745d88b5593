//! Property tests for the branch predictors: totality, determinism, and
//! learning guarantees on arbitrary branch streams.

use proptest::prelude::*;
use wsrs_frontend::{Accuracy, Bimodal, DirectionPredictor, Gshare, TwoBcGskew};

fn exercise<P: DirectionPredictor>(p: &mut P, stream: &[(u64, bool)]) -> Accuracy {
    let mut acc = Accuracy::default();
    for &(pc, taken) in stream {
        acc.observe(p, pc, taken);
    }
    acc
}

proptest! {
    /// All predictors accept arbitrary (pc, outcome) streams and report a
    /// rate within [0, 1].
    #[test]
    fn predictors_are_total(stream in prop::collection::vec((any::<u64>(), any::<bool>()), 1..500)) {
        let rate_bim = exercise(&mut Bimodal::new(10), &stream).rate();
        let rate_gsh = exercise(&mut Gshare::new(10, 8), &stream).rate();
        let rate_skew = exercise(&mut TwoBcGskew::new(10, 6, 12, 9), &stream).rate();
        for r in [rate_bim, rate_gsh, rate_skew] {
            prop_assert!((0.0..=1.0).contains(&r));
        }
    }

    /// Predictors are deterministic: the same stream yields the same
    /// prediction sequence.
    #[test]
    fn predictors_are_deterministic(stream in prop::collection::vec((0u64..1024, any::<bool>()), 1..300)) {
        let mut a = TwoBcGskew::new(10, 6, 12, 9);
        let mut b = TwoBcGskew::new(10, 6, 12, 9);
        for &(pc, taken) in &stream {
            prop_assert_eq!(a.predict(pc), b.predict(pc));
            a.update(pc, taken);
            b.update(pc, taken);
        }
    }

    /// A branch with a constant direction is eventually predicted
    /// perfectly by every predictor, whatever its PC.
    #[test]
    fn constant_branches_converge(pc in any::<u64>(), dir in any::<bool>()) {
        let mut p = TwoBcGskew::ev8_budget();
        for _ in 0..8 {
            p.update(pc, dir);
        }
        prop_assert_eq!(p.predict(pc), dir);
        let mut b = Bimodal::new(12);
        for _ in 0..4 {
            b.update(pc, dir);
        }
        prop_assert_eq!(b.predict(pc), dir);
    }

    /// The gskew chooser never makes the predictor worse than BOTH of its
    /// components on a strongly biased stream.
    #[test]
    fn gskew_not_worse_than_both_components(bias in 0.7f64..1.0, seed in any::<u64>()) {
        // Deterministic pseudo-random stream with the given bias.
        let mut x = seed | 1;
        let mut stream = Vec::new();
        for i in 0..3000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let taken = (x as f64 / u64::MAX as f64) < bias;
            stream.push((0x100 + (i % 8), taken));
        }
        let skew = exercise(&mut TwoBcGskew::new(12, 6, 14, 10), &stream).rate();
        let bim = exercise(&mut Bimodal::new(12), &stream).rate();
        let gsh = exercise(&mut Gshare::new(12, 10), &stream).rate();
        prop_assert!(
            skew >= bim.min(gsh) - 0.03,
            "gskew {skew} vs bimodal {bim} / gshare {gsh}"
        );
    }
}
