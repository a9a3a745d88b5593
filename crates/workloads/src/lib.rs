//! # wsrs-workloads — benchmark kernels standing in for SPEC CPU2000
//!
//! The paper simulates 5 SPECint2000 and 7 SPECfp2000 benchmarks (§5.3).
//! SPEC sources and SPARC binaries are not redistributable, so this crate
//! provides twelve hand-written kernels, one per benchmark, each built with
//! the `wsrs-isa` assembler and executed by the functional emulator. Every
//! kernel is written to reproduce the *dynamic properties WSRS is
//! sensitive to* of its namesake:
//!
//! | kernel   | models                          | character |
//! |----------|---------------------------------|-----------|
//! | gzip     | LZ77 hash-chain compressor      | high-IPC int, hash loads |
//! | vpr      | annealing placement             | data-dependent accept branches |
//! | gcc      | expression-tree interpreter     | branchy, irregular |
//! | mcf      | network-simplex pointer chasing | L2 misses, low IPC |
//! | crafty   | bitboard move generation        | 64-bit logic ops, high IPC |
//! | wupwise  | blocked matrix multiply         | FP chains, invariant operands |
//! | swim     | shallow-water 2-D stencil       | FP, large grid |
//! | mgrid    | 3-D multigrid relaxation        | FP, strided 3-D access |
//! | applu    | SSOR triangular sweeps          | FP recurrences |
//! | galgel   | Galerkin eigen-iteration        | FP with div/sqrt |
//! | equake   | sparse matrix-vector product    | indirect FP loads |
//! | facerec  | windowed image correlation      | FP dot products, reuse |
//!
//! All kernels take an `outer` repetition count so traces can be made
//! arbitrarily long; [`Workload::trace`] uses a practically unbounded
//! count, so **always bound consumption with `.take(n)`**.
//!
//! # Example
//!
//! ```
//! use wsrs_workloads::Workload;
//!
//! let trace: Vec<_> = Workload::Gzip.trace().take(10_000).collect();
//! assert_eq!(trace.len(), 10_000);
//! let stats = wsrs_workloads::stats::TraceStats::measure(trace.iter().copied());
//! assert!(stats.branch_fraction() > 0.05);
//! ```

pub mod applu;
pub mod common;
pub mod crafty;
pub mod equake;
pub mod facerec;
pub mod galgel;
pub mod gcc;
pub mod gzip;
pub mod mcf;
pub mod mgrid;
pub mod stats;
pub mod swim;
pub mod vpr;
pub mod wupwise;

use std::sync::{Arc, OnceLock, RwLock};
use wsrs_isa::{Emulator, Program};

/// Default emulated-memory size (bytes) — large enough for the biggest
/// kernel footprints (mcf/equake stride through multiple megabytes).
pub const DEFAULT_MEM_BYTES: usize = 32 << 20;

/// An effectively unbounded outer-loop count for streaming traces.
const UNBOUNDED: i64 = i64::MAX / 2;

/// Handle to a registered generated workload: an index into the
/// process-global registry filled by [`register_generated`]. Two `GenId`s
/// are equal exactly when they name the same registry slot, and slots are
/// deduplicated by name, so `GenId` equality matches name equality.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GenId(u16);

/// One registered generated workload.
struct GenEntry {
    /// Content-addressed name, `gen:<profile-hash>:<seed>` by convention
    /// (leaked once at registration so [`Workload::name`] can stay
    /// `&'static str`). Must not contain `-`: trace-store file names use
    /// `-` as their field separator.
    name: &'static str,
    /// Whether the generated program exercises the FP register file.
    fp: bool,
    /// Trace fingerprint, same construction as the named kernels'
    /// (emulator revision + assembled unbounded program + memory size),
    /// computed once at registration.
    fingerprint: u64,
    /// Builds the program with a given outer-repetition count.
    build: Box<dyn Fn(i64) -> Program + Send + Sync>,
}

fn gen_registry() -> &'static RwLock<Vec<Arc<GenEntry>>> {
    static REGISTRY: OnceLock<RwLock<Vec<Arc<GenEntry>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(Vec::new()))
}

fn gen_entry(id: GenId) -> Arc<GenEntry> {
    Arc::clone(&gen_registry().read().expect("workload registry poisoned")[id.0 as usize])
}

/// Registers a generated workload under `name` and returns its
/// [`Workload`] handle. The builder must be a pure function of its
/// `outer` argument — the registry assumes (and the `gen:<hash>:<seed>`
/// naming convention guarantees) that the name content-addresses the
/// program, so a second registration under an existing name returns the
/// original handle without invoking the new builder.
///
/// # Panics
///
/// Panics if `name` contains `-` (reserved as the trace-store file-name
/// field separator) or if the registry is full (65 536 entries).
pub fn register_generated(
    name: &str,
    fp: bool,
    build: impl Fn(i64) -> Program + Send + Sync + 'static,
) -> Workload {
    assert!(
        !name.contains('-'),
        "generated workload name {name:?} may not contain '-'"
    );
    let mut reg = gen_registry().write().expect("workload registry poisoned");
    if let Some(i) = reg.iter().position(|e| e.name == name) {
        return Workload::Generated(GenId(i as u16));
    }
    let program = build(UNBOUNDED);
    let mut h = wsrs_isa::Fnv1a::new();
    h.write(b"wsrs-trace-key-v1;");
    h.write_u64(wsrs_isa::emulator_revision());
    h.write_u64(program.fingerprint());
    h.write_u64(DEFAULT_MEM_BYTES as u64);
    let entry = GenEntry {
        name: Box::leak(name.to_string().into_boxed_str()),
        fp,
        fingerprint: h.finish(),
        build: Box::new(build),
    };
    let id = u16::try_from(reg.len()).expect("generated-workload registry full");
    reg.push(Arc::new(entry));
    Workload::Generated(GenId(id))
}

/// The twelve benchmark kernels (5 integer + 7 floating point), plus
/// registered generated workloads (see [`register_generated`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Workload {
    /// LZ77 hash-chain compressor (SPECint 164.gzip analogue).
    Gzip,
    /// Annealing-style placement (175.vpr).
    Vpr,
    /// Expression-tree interpreter (176.gcc).
    Gcc,
    /// Network-simplex pointer chasing (181.mcf).
    Mcf,
    /// Bitboard move generation (186.crafty).
    Crafty,
    /// Blocked matrix multiply (168.wupwise).
    Wupwise,
    /// Shallow-water stencil (171.swim).
    Swim,
    /// Multigrid relaxation (172.mgrid).
    Mgrid,
    /// SSOR sweeps (173.applu).
    Applu,
    /// Galerkin eigen-iteration (178.galgel).
    Galgel,
    /// Sparse matrix-vector product (183.equake).
    Equake,
    /// Windowed correlation (187.facerec).
    Facerec,
    /// A profile-synthesized workload from the process registry
    /// (`wsrs-workgen`); named `gen:<profile-hash>:<seed>`.
    Generated(GenId),
}

impl Workload {
    /// All workloads, integer benchmarks first (the paper's Figure 4
    /// ordering).
    #[must_use]
    pub fn all() -> [Workload; 12] {
        [
            Workload::Gzip,
            Workload::Vpr,
            Workload::Gcc,
            Workload::Mcf,
            Workload::Crafty,
            Workload::Wupwise,
            Workload::Swim,
            Workload::Mgrid,
            Workload::Applu,
            Workload::Galgel,
            Workload::Equake,
            Workload::Facerec,
        ]
    }

    /// The five integer benchmarks.
    #[must_use]
    pub fn integer() -> [Workload; 5] {
        [
            Workload::Gzip,
            Workload::Vpr,
            Workload::Gcc,
            Workload::Mcf,
            Workload::Crafty,
        ]
    }

    /// The seven floating-point benchmarks.
    #[must_use]
    pub fn floating_point() -> [Workload; 7] {
        [
            Workload::Wupwise,
            Workload::Swim,
            Workload::Mgrid,
            Workload::Applu,
            Workload::Galgel,
            Workload::Equake,
            Workload::Facerec,
        ]
    }

    /// Display name (lower-case, as in the paper's figures).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Gzip => "gzip",
            Workload::Vpr => "vpr",
            Workload::Gcc => "gcc",
            Workload::Mcf => "mcf",
            Workload::Crafty => "crafty",
            Workload::Wupwise => "wupwise",
            Workload::Swim => "swim",
            Workload::Mgrid => "mgrid",
            Workload::Applu => "applu",
            Workload::Galgel => "galgel",
            Workload::Equake => "equake",
            Workload::Facerec => "facerec",
            Workload::Generated(id) => gen_entry(id).name,
        }
    }

    /// Whether this kernel is part of the floating-point set (for
    /// generated workloads: whether the profile requested FP µops).
    #[must_use]
    pub fn is_fp(self) -> bool {
        match self {
            Workload::Gzip | Workload::Vpr | Workload::Gcc | Workload::Mcf | Workload::Crafty => {
                false
            }
            Workload::Generated(id) => gen_entry(id).fp,
            _ => true,
        }
    }

    /// Builds the kernel program with `outer` outer-loop repetitions.
    #[must_use]
    pub fn program(self, outer: i64) -> Program {
        match self {
            Workload::Gzip => gzip::build(outer),
            Workload::Vpr => vpr::build(outer),
            Workload::Gcc => gcc::build(outer),
            Workload::Mcf => mcf::build(outer),
            Workload::Crafty => crafty::build(outer),
            Workload::Wupwise => wupwise::build(outer),
            Workload::Swim => swim::build(outer),
            Workload::Mgrid => mgrid::build(outer),
            Workload::Applu => applu::build(outer),
            Workload::Galgel => galgel::build(outer),
            Workload::Equake => equake::build(outer),
            Workload::Facerec => facerec::build(outer),
            Workload::Generated(id) => (gen_entry(id).build)(outer),
        }
    }

    /// An emulator over an effectively unbounded run of the kernel — bound
    /// it with `.take(n)`.
    #[must_use]
    pub fn trace(self) -> Emulator {
        Emulator::new(self.program(UNBOUNDED), DEFAULT_MEM_BYTES)
    }

    /// Fingerprint of everything the dynamic µop stream of [`Self::trace`]
    /// depends on: the emulator's semantics revision, the assembled kernel
    /// program (unbounded form), and the emulated-memory size. Recorded
    /// traces are keyed on this hash, so editing a kernel — or the
    /// emulator — invalidates its stale trace files instead of silently
    /// replaying them.
    ///
    /// Deriving the hash assembles the kernel, so the result is memoized
    /// process-wide: trace-store keys are looked up once per workload and
    /// shared by every grid cell, bench binary sweep and `wsrs-serve` job
    /// in the process, instead of re-assembling the kernel per derivation.
    /// The memoized and direct paths are byte-identical by construction
    /// (the fingerprint inputs are compile-time constants), which the
    /// cold-vs-warm trace determinism test exercises end to end.
    #[must_use]
    pub fn trace_fingerprint(self) -> u64 {
        // Generated workloads fingerprint at registration time (their
        // programs are built once there anyway); the named kernels keep
        // a per-kernel memo slot.
        if let Workload::Generated(id) = self {
            return gen_entry(id).fingerprint;
        }
        static FINGERPRINTS: [OnceLock<u64>; 12] = [const { OnceLock::new() }; 12];
        let slot = Workload::all()
            .iter()
            .position(|&w| w == self)
            .expect("named kernel");
        *FINGERPRINTS[slot].get_or_init(|| {
            let mut h = wsrs_isa::Fnv1a::new();
            h.write(b"wsrs-trace-key-v1;");
            h.write_u64(wsrs_isa::emulator_revision());
            h.write_u64(self.program(UNBOUNDED).fingerprint());
            h.write_u64(DEFAULT_MEM_BYTES as u64);
            h.finish()
        })
    }
}

impl std::str::FromStr for Workload {
    type Err = UnknownWorkload;

    fn from_str(s: &str) -> Result<Self, UnknownWorkload> {
        if s.starts_with("gen:") {
            // Generated workloads resolve against the process registry:
            // whoever parses a `gen:` name (CLI, job decode, grid plan)
            // must have registered the profile family first.
            let reg = gen_registry().read().expect("workload registry poisoned");
            return reg
                .iter()
                .position(|e| e.name == s)
                .map(|i| Workload::Generated(GenId(i as u16)))
                .ok_or_else(|| UnknownWorkload(s.to_string()));
        }
        Workload::all()
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| UnknownWorkload(s.to_string()))
    }
}

/// Error returned when parsing an unknown workload name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownWorkload(String);

impl std::fmt::Display for UnknownWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown workload '{}'", self.0)
    }
}

impl std::error::Error for UnknownWorkload {}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_workloads_partition() {
        assert_eq!(Workload::all().len(), 12);
        assert_eq!(Workload::integer().len(), 5);
        assert_eq!(Workload::floating_point().len(), 7);
        for w in Workload::integer() {
            assert!(!w.is_fp());
        }
        for w in Workload::floating_point() {
            assert!(w.is_fp());
        }
    }

    #[test]
    fn names_parse_round_trip() {
        for w in Workload::all() {
            let parsed: Workload = w.name().parse().unwrap();
            assert_eq!(parsed, w);
        }
        assert!("nonesuch".parse::<Workload>().is_err());
    }

    #[test]
    fn every_kernel_terminates_on_short_run() {
        for w in Workload::all() {
            let mut emu = Emulator::new(w.program(2), DEFAULT_MEM_BYTES);
            let n = emu.by_ref().count();
            assert!(emu.is_halted(), "{w} did not halt");
            assert!(n > 500, "{w} too short: {n} µops");
        }
    }

    #[test]
    fn trace_fingerprints_distinguish_kernels() {
        let mut seen = std::collections::HashSet::new();
        for w in Workload::all() {
            assert_eq!(w.trace_fingerprint(), w.trace_fingerprint(), "{w}");
            assert!(seen.insert(w.trace_fingerprint()), "{w} collides");
        }
    }

    #[test]
    fn every_kernel_streams_unbounded() {
        for w in Workload::all() {
            let n = w.trace().take(5_000).count();
            assert_eq!(n, 5_000, "{w} trace ended early");
        }
    }

    fn tiny_gen_builder(outer: i64) -> Program {
        use wsrs_isa::{Assembler, Reg};
        let mut a = Assembler::new();
        let (oc, x) = (Reg::new(1), Reg::new(2));
        let top = common::begin_outer_loop(&mut a, oc, outer);
        a.addi(x, x, 1);
        common::end_outer_loop(&mut a, oc, top);
        a.assemble()
    }

    #[test]
    fn generated_workloads_register_parse_and_dedupe() {
        let w = register_generated("gen:cafef00d:1", false, tiny_gen_builder);
        assert_eq!(w.name(), "gen:cafef00d:1");
        assert!(!w.is_fp());
        // Same name ⟹ same handle, new builder not invoked.
        let again = register_generated("gen:cafef00d:1", false, |_| unreachable!("deduped"));
        assert_eq!(w, again);
        // `gen:` names parse against the registry; unregistered ones fail.
        assert_eq!("gen:cafef00d:1".parse::<Workload>().unwrap(), w);
        assert!("gen:nonesuch:0".parse::<Workload>().is_err());
        // Fingerprint is stable and distinct from every named kernel's.
        assert_eq!(w.trace_fingerprint(), w.trace_fingerprint());
        for k in Workload::all() {
            assert_ne!(w.trace_fingerprint(), k.trace_fingerprint(), "{k}");
        }
        // The handle streams like any kernel.
        assert_eq!(w.trace().take(100).count(), 100);
    }

    #[test]
    #[should_panic(expected = "may not contain '-'")]
    fn generated_names_reject_dashes() {
        let _ = register_generated("gen:bad-name:0", false, tiny_gen_builder);
    }

    #[test]
    fn fp_kernels_actually_use_fp() {
        use wsrs_isa::OpClass;
        for w in Workload::floating_point() {
            // Skip past data-initialization loops into steady state.
            let fp = w
                .trace()
                .skip(1_000_000)
                .take(20_000)
                .filter(|d| {
                    matches!(
                        d.class,
                        OpClass::FpAdd | OpClass::FpMul | OpClass::FpDivSqrt | OpClass::FpMove
                    )
                })
                .count();
            assert!(fp > 2_000, "{w}: only {fp} FP µops in 20k");
        }
    }

    #[test]
    fn int_kernels_avoid_fp() {
        use wsrs_isa::OpClass;
        for w in Workload::integer() {
            let fp = w
                .trace()
                .take(20_000)
                .filter(|d| {
                    matches!(
                        d.class,
                        OpClass::FpAdd | OpClass::FpMul | OpClass::FpDivSqrt | OpClass::FpMove
                    )
                })
                .count();
            assert_eq!(fp, 0, "{w} uses FP");
        }
    }
}
