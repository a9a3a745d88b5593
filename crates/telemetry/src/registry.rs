//! Statistics primitives with static registration.
//!
//! Everything here is plain-old-data (`Copy` where the embedding stats
//! structs need it) and free of interior mutability or locks: a simulator
//! engine owns its counters outright, updates are straight-line integer
//! arithmetic, and the *enable gate* lives one level up — the engine holds
//! an `Option` of its telemetry state, so hot loops pay a single branch
//! when telemetry is off.
//!
//! Counter *names* are registered statically: a subsystem declares a
//! `&'static [StatDef]` table describing its counters once, and pairs it
//! with a value slice at export time (see [`StatDef::render`]). That keeps
//! the per-event path free of any string handling.

use crate::json::Json;

/// A statically-registered counter definition: the name under which a
/// counter value is exported, plus a one-line description for reports.
#[derive(Clone, Copy, Debug)]
pub struct StatDef {
    /// Stable export name (JSON key).
    pub name: &'static str,
    /// One-line human description.
    pub help: &'static str,
}

impl StatDef {
    /// Pairs a definition table with its value slice and renders a JSON
    /// object `{name: value, ...}` in table order.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length — a definition table and
    /// its values are two views of the same static registration.
    #[must_use]
    pub fn render(defs: &'static [StatDef], values: &[u64]) -> Json {
        assert_eq!(defs.len(), values.len(), "static registration mismatch");
        Json::Obj(
            defs.iter()
                .zip(values)
                .map(|(d, &v)| (d.name.to_string(), Json::UInt(v)))
                .collect(),
        )
    }
}

/// Bucket count of [`Histogram`] — fixed so histograms stay `Copy` and can
/// live inside `Copy` stats structs.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// A power-of-two-bucket histogram of `u64` samples.
///
/// Bucket `0` holds the value `0`, bucket `i` holds values in
/// `[2^(i-1), 2^i)`, and the last bucket absorbs everything larger.
/// Recording is branch-light (`leading_zeros` + two adds), suitable for
/// per-event hot paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    samples: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; HISTOGRAM_BUCKETS],
            samples: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one sample. The sum saturates rather than wrapping, so a
    /// pathological sample can't corrupt the mean's sign.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
        self.samples += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }

    /// Raw bucket counts.
    #[must_use]
    pub fn counts(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.counts
    }

    /// Inclusive upper bound of bucket `i` (for labelling).
    #[must_use]
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// The samples recorded since `base` was snapshotted.
    #[must_use]
    pub fn since(&self, base: &Histogram) -> Histogram {
        let mut counts = [0u64; HISTOGRAM_BUCKETS];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = self.counts[i] - base.counts[i];
        }
        Histogram {
            counts,
            samples: self.samples - base.samples,
            sum: self.sum - base.sum,
        }
    }

    /// JSON export: `{samples, sum, mean, buckets: [..]}` with trailing
    /// empty buckets trimmed.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let used = self
            .counts
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        Json::Obj(vec![
            ("samples".into(), Json::UInt(self.samples)),
            ("sum".into(), Json::UInt(self.sum)),
            ("mean".into(), Json::Float(self.mean())),
            (
                "buckets".into(),
                Json::Arr(self.counts[..used].iter().map(|&c| Json::UInt(c)).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_pow2() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.samples(), 7);
        assert_eq!(h.counts()[0], 1, "zero bucket");
        assert_eq!(h.counts()[1], 1, "value 1");
        assert_eq!(h.counts()[2], 2, "values 2..4");
        assert_eq!(h.counts()[3], 1, "value 4");
        assert_eq!(h.counts()[HISTOGRAM_BUCKETS - 1], 1, "overflow bucket");
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(3), 7);
    }

    #[test]
    fn histogram_since_and_mean() {
        let mut h = Histogram::new();
        h.record(4);
        let snap = h;
        h.record(8);
        h.record(0);
        let d = h.since(&snap);
        assert_eq!(d.samples(), 2);
        assert_eq!(d.sum(), 8);
        assert!((d.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn static_registration_renders() {
        static DEFS: [StatDef; 2] = [
            StatDef {
                name: "a",
                help: "first",
            },
            StatDef {
                name: "b",
                help: "second",
            },
        ];
        let j = StatDef::render(&DEFS, &[1, 2]);
        assert_eq!(j.to_string_pretty(), "{\n  \"a\": 1,\n  \"b\": 2\n}");
    }
}
