//! Host-speed sampler. The benchmark's host is a small virtual machine on
//! a shared machine, and its speed drifts: over seconds by ±15 %, and for
//! minutes at a time by up to 2×. The drift is not steal time: it stretches
//! the CPU time of any work as much as its wall time. So while a run
//! lasts, a background thread times a small fixed kernel, which depends on
//! none of the code under test, every [`PERIOD`] on its own CPU clock; the
//! wall time of each timed unit of work (a grid pass, a round of service
//! jobs, a set-up) is rescaled to the speed the host had when the kernel
//! took [`NOMINAL_US`], using the median of the samples taken during that
//! unit. A change to the program moves the unit's time and not the
//! kernel's, so it shows in full; a slow stretch of the host moves both,
//! and cancels.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Time between samples. Each sample takes about 1/40 of it, which the
/// workloads lose to the sampler.
const PERIOD: Duration = Duration::from_millis(20);
/// Entries of the kernel's random-access table (64 KiB of `u32`): it
/// fits a core's private caches once warm, and is refilled from the
/// shared cache after the workload's own data evicted it.
const TABLE: usize = 1 << 14;
/// Table steps per sample.
const STEPS: usize = 1 << 16;

/// How much more a workload's timed units slow than the kernel when the
/// host slows: the exponent `s` in
/// `normalized = wall × (NOMINAL_US / kernel_us)^s`. Fitted on the host
/// `README.md` names by regressing the log of each run's wall-clock
/// throughput on the log of its median kernel time, over five runs per
/// workload whose wall-clock throughput ranged over 1.5–2× (correlation
/// 0.99 or better): 1.5 for the grids, 1.3 for `serve`, whose jobs also
/// wait on sockets.
pub fn sensitivity(workload: &str) -> f64 {
    match workload {
        "serve" => 1.3,
        _ => 1.5,
    }
}

/// The same exponent for set-ups, fitted the same way (0.85–1.08 across
/// the workloads): emulating and writing traces slows with the host about
/// as much as the kernel does.
pub const SETUP_SENSITIVITY: f64 = 1.0;

/// The kernel's median time on a quiet host of the kind `README.md`
/// names, in µs. It only sets the scale: normalized times read as wall
/// times on a host as fast as that one was.
pub const NOMINAL_US: f64 = 500.0;

/// One kernel run: a xorshift walk over `table` with a data-dependent
/// branch per step, exercising the branch predictor, the caches and the
/// integer units as an instruction-level simulator does.
fn kernel(table: &mut [u32], seed: u64) -> u64 {
    let mask = table.len() - 1;
    let (mut x, mut acc) = (seed | 1, 0u64);
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        let v = table[i];
        if (v ^ x as u32) & 1 == 0 {
            table[i] = v.wrapping_add(x as u32);
        } else {
            acc = acc.wrapping_add(u64::from(v).rotate_left(7));
        }
    }
    acc
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const THREAD_CPU_CLOCK: i32 = 3;

/// CPU time the calling thread has used, in µs. The kernel is timed on
/// this clock rather than the wall clock, so a sample the guest scheduler
/// preempts in favour of a workload thread does not read as a slow host.
fn thread_cpu_us() -> f64 {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable `timespec`; the clock id is valid.
    unsafe { clock_gettime(THREAD_CPU_CLOCK, &mut t) };
    t.sec as f64 * 1e6 + t.nsec as f64 / 1e3
}

/// The background sampler; stops and joins its thread when dropped.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    /// Per sample: when it started and the kernel's CPU time in µs.
    samples: Arc<Mutex<Vec<(Instant, f64)>>>,
    thread: Option<JoinHandle<()>>,
}

impl Sampler {
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(Vec::new()));
        let thread = {
            let (stop, samples) = (stop.clone(), samples.clone());
            std::thread::spawn(move || {
                let mut table: Vec<u32> = (0..TABLE as u32).collect();
                let mut seed = 0;
                while !stop.load(Ordering::Relaxed) {
                    let (t0, cpu0) = (Instant::now(), thread_cpu_us());
                    seed += 1;
                    std::hint::black_box(kernel(&mut table, seed));
                    let us = thread_cpu_us() - cpu0;
                    samples.lock().expect("samples poisoned").push((t0, us));
                    std::thread::sleep(PERIOD.saturating_sub(t0.elapsed()));
                }
            })
        };
        Sampler {
            stop,
            samples,
            thread: Some(thread),
        }
    }

    /// The median kernel time (µs) of the samples taken between `from`
    /// and `to`; when none was, of the one taken nearest `from`.
    pub fn kernel_us(&self, from: Instant, to: Instant) -> f64 {
        let samples = self.samples.lock().expect("samples poisoned");
        let within: Vec<f64> = samples
            .iter()
            .filter(|(t, _)| (from..=to).contains(t))
            .map(|s| s.1)
            .collect();
        if !within.is_empty() {
            return crate::median(&within);
        }
        let gap = |t: Instant| t.max(from) - t.min(from);
        samples
            .iter()
            .min_by_key(|(t, _)| gap(*t))
            .map_or(NOMINAL_US, |s| s.1)
    }

    /// The factor that rescales wall time spent between `from` and `to`
    /// to the nominal host, for work with the given `sensitivity`.
    pub fn factor(&self, from: Instant, to: Instant, sensitivity: f64) -> f64 {
        (NOMINAL_US / self.kernel_us(from, to)).powf(sensitivity)
    }

    /// Every sample's kernel time, in µs.
    pub fn all_us(&self) -> Vec<f64> {
        let samples = self.samples.lock().expect("samples poisoned");
        samples.iter().map(|s| s.1).collect()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Times `f` with `sampler` running; returns its result, its wall seconds
/// and its seconds rescaled to the nominal host for work of the given
/// `sensitivity`.
pub fn timed<T>(sampler: &Sampler, sensitivity: f64, f: impl FnOnce() -> T) -> (T, f64, f64) {
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    let wall = (t1 - t0).as_secs_f64();
    (out, wall, wall * sampler.factor(t0, t1, sensitivity))
}
