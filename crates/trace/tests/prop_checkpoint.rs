//! Property tests for the warmup-checkpoint codec: round trips on
//! randomized keys and section payloads, and rejection of truncated or
//! bit-flipped images — the same contract the trace-file codec is held
//! to in `prop_codec.rs`.

use proptest::prelude::*;
use wsrs_trace::{Artifact, CheckpointKey, CheckpointRecord, StoreKey};

/// Builds a record from raw random draws. Section tags may repeat
/// (`section()` returns the first match; the codec must still round-trip
/// the full list) and payloads may be empty.
fn build_record(
    raw_key: (u64, u64, u64, u64, u32),
    ff_uops: u64,
    raw_sections: &[(u32, Vec<u8>)],
) -> CheckpointRecord {
    let (trace, sim, spec, warm, interval) = raw_key;
    CheckpointRecord {
        key: CheckpointKey {
            trace,
            sim,
            spec,
            warm,
            interval,
        },
        ff_uops,
        sections: raw_sections.to_vec(),
    }
}

fn sections_strategy() -> impl Strategy<Value = Vec<(u32, Vec<u8>)>> {
    prop::collection::vec(
        (any::<u32>(), prop::collection::vec(any::<u8>(), 0..300)),
        0..8,
    )
}

proptest! {
    /// Arbitrary records survive an encode/parse round trip, and their
    /// filenames round-trip through the store-naming scheme.
    #[test]
    fn record_round_trips(
        raw_key in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>()),
        ff_uops in any::<u64>(),
        sections in sections_strategy(),
    ) {
        let rec = build_record(raw_key, ff_uops, &sections);
        let back = CheckpointRecord::from_image(rec.encode()).expect("parse");
        prop_assert_eq!(&back, &rec);
        prop_assert_eq!(
            CheckpointKey::parse_file_name(&rec.key.file_name()),
            Some(rec.key)
        );
    }

    /// No truncation of a valid image is accepted.
    #[test]
    fn truncations_never_parse(
        raw_key in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>()),
        ff_uops in any::<u64>(),
        sections in sections_strategy(),
        cut_seed in any::<u64>(),
    ) {
        let image = build_record(raw_key, ff_uops, &sections).encode();
        let cut = (cut_seed % image.len() as u64) as usize;
        prop_assert!(CheckpointRecord::from_image(image[..cut].to_vec()).is_err());
    }

    /// No single bit flip of a valid image is accepted — header, key,
    /// section payloads and checksum alike.
    #[test]
    fn bit_flips_never_parse(
        raw_key in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>()),
        ff_uops in any::<u64>(),
        sections in sections_strategy(),
        flip_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut image = build_record(raw_key, ff_uops, &sections).encode();
        let at = (flip_seed % image.len() as u64) as usize;
        image[at] ^= 1 << bit;
        prop_assert!(
            CheckpointRecord::from_image(image).is_err(),
            "flip bit {} at {} accepted", bit, at
        );
    }
}
