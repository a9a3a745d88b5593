//! Property tests for the trace codec and file format: round trips on
//! randomized µop streams, and rejection of truncated or bit-flipped
//! images.

use proptest::prelude::*;
use wsrs_isa::reg::{Freg, Reg, NUM_FP_REGS, NUM_INT_REGS};
use wsrs_isa::{DynInst, OpClass, Opcode};
use wsrs_trace::{codec, file, TraceFile, TraceHeader};

/// Builds one µop from raw random draws, exercising every field shape the
/// emulator can produce (and some it can't — the codec is field-general).
fn build_uop(pc: u64, seed: u64, target: u64, addr: u64, uop: u8, taken: bool) -> DynInst {
    let op = Opcode::ALL[(seed % Opcode::ALL.len() as u64) as usize];
    let mut d = DynInst::new(pc, op);
    d.taken = taken;
    d.uop = uop;
    // Derive register presence/class/index bits from the seed.
    let reg = |bits: u64| {
        let idx = (bits >> 2) as u8;
        match bits & 0b11 {
            0 => None,
            1 => Some(Reg::new(idx % NUM_INT_REGS).into()),
            _ => Some(Freg::new(idx % NUM_FP_REGS).into()),
        }
    };
    d.dst = reg(seed >> 8);
    d.srcs[0] = reg(seed >> 19);
    d.srcs[1] = reg(seed >> 30);
    d.class = OpClass::ALL[((seed >> 41) % OpClass::ALL.len() as u64) as usize];
    d.target = target;
    if seed >> 63 == 1 {
        d.eff_addr = Some(addr);
    }
    d
}

fn build_stream(raw: &[(u64, u64, u64, u64, u8, bool)]) -> Vec<DynInst> {
    raw.iter()
        .map(|&(pc, seed, target, addr, uop, taken)| build_uop(pc, seed, target, addr, uop, taken))
        .collect()
}

fn header_for(uops: &[DynInst], block_uops: u32) -> TraceHeader {
    TraceHeader {
        rev: 0x1234_5678_9abc_def0,
        warmup: 0,
        measure: uops.len() as u64,
        uop_count: uops.len() as u64,
        block_uops,
        workload: "prop".into(),
    }
}

proptest! {
    /// Arbitrary µop streams survive a block encode/decode round trip.
    #[test]
    fn block_codec_round_trips(raw in prop::collection::vec(
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u8>(), any::<bool>()),
        0..200,
    )) {
        let uops = build_stream(&raw);
        let mut bytes = Vec::new();
        codec::encode_block(&uops, &mut bytes);
        let mut back = Vec::new();
        codec::decode_block(&bytes, uops.len(), &mut back).expect("decode");
        prop_assert_eq!(back, uops);
    }

    /// Whole files round trip across block sizes, including short final
    /// blocks and windowed reads.
    #[test]
    fn file_round_trips_any_block_size(
        raw in prop::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u8>(), any::<bool>()),
            1..150,
        ),
        block_uops in 1u32..64,
        window in (0usize..150, 0usize..150),
    ) {
        let uops = build_stream(&raw);
        let image = file::encode(&header_for(&uops, block_uops), &uops);
        let tf = TraceFile::from_bytes(image).expect("parse");
        prop_assert_eq!(tf.read_all().expect("read_all"), uops.clone());

        let start = window.0 % uops.len();
        let count = window.1 % (uops.len() - start + 1);
        let got: Vec<_> = tf.uops_from(start as u64).take(count).collect();
        prop_assert_eq!(got, uops[start..start + count].to_vec());
        prop_assert!(tf.stream_error().is_none());
    }

    /// No truncation of a valid image is accepted.
    #[test]
    fn truncations_never_parse(
        raw in prop::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u8>(), any::<bool>()),
            1..40,
        ),
        cut_seed in any::<u64>(),
    ) {
        let uops = build_stream(&raw);
        let image = file::encode(&header_for(&uops, 16), &uops);
        let cut = (cut_seed % image.len() as u64) as usize;
        prop_assert!(TraceFile::from_bytes(image[..cut].to_vec()).is_err());
    }

    /// No single bit flip of a valid image is accepted.
    #[test]
    fn bit_flips_never_parse(
        raw in prop::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u8>(), any::<bool>()),
            1..40,
        ),
        flip_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let uops = build_stream(&raw);
        let mut image = file::encode(&header_for(&uops, 16), &uops);
        let at = (flip_seed % image.len() as u64) as usize;
        image[at] ^= 1 << bit;
        prop_assert!(TraceFile::from_bytes(image).is_err(), "flip bit {bit} at {at}");
    }
}

/// Real emulated workload prefixes round trip exactly through the full
/// file format — the shape of data the store actually carries.
#[test]
fn emulated_workload_prefix_round_trips() {
    for w in [
        wsrs_workloads::Workload::Gzip,
        wsrs_workloads::Workload::Swim,
    ] {
        let uops: Vec<DynInst> = w.trace().take(30_000).collect();
        let header = TraceHeader {
            rev: w.trace_fingerprint(),
            warmup: 10_000,
            measure: 20_000,
            uop_count: uops.len() as u64,
            block_uops: 4096,
            workload: w.name().into(),
        };
        let image = file::encode(&header, &uops);
        // Sanity: the compressed form beats a naive fixed-width encoding
        // (DynInst is ~48 bytes in memory) by a wide margin.
        assert!(
            image.len() < uops.len() * 8,
            "{w}: {} bytes for {} µops",
            image.len(),
            uops.len()
        );
        let tf = TraceFile::from_bytes(image).unwrap();
        assert_eq!(tf.read_all().unwrap(), uops, "{w}");
        assert_eq!(
            tf.uops_from(10_000).take(20_000).collect::<Vec<_>>(),
            uops[10_000..],
            "{w} measured window"
        );
    }
}
