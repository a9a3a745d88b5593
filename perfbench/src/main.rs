//! The repository benchmark: three workloads driven end to end through
//! stable surfaces (`run_grid_full` and the `wsrs-serve` HTTP API), plus a
//! traced mode that times each layer through its public functions.
//!
//! ```sh
//! perfbench --workload grid-int|grid-fp|serve --seed N --seconds S \
//!           --trace 0|1 --work DIR --out DIR --serve-bin PATH
//! ```
//!
//! `run.py` builds this package and supplies `--work` (a fresh scratch
//! directory it deletes afterwards), `--out` (where traced runs leave
//! their span dumps) and `--serve-bin`. The last
//! line of stdout is the result object; everything human-readable goes
//! to stderr. See `README.md` for the metric definitions.

mod grid;
mod host;
mod serve;
mod spans;

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: PathBuf,
    pub out: PathBuf,
    pub serve_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut work, mut out, mut serve_bin) = (None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds needs a number")?),
            "--trace" => trace = Some(value == "1"),
            "--work" => work = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work: work.ok_or("--work is required")?,
        out: out.ok_or("--out is required")?,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back for the result line.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (grid cells or service jobs).
    pub attempted: u64,
    /// Attempted operations that panicked, errored or produced a wrong
    /// output.
    pub failed: u64,
    /// Checks that are not tied to one operation (determinism, setup).
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one operation, failing it with `why` when `why` is `Some`.
    pub fn check(&mut self, why: Option<String>) {
        self.attempted += 1;
        if let Some(why) = why {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("wrong: {why}");
            }
        }
    }

    fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // Non-finite values cannot be written as JSON numbers.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Deterministic input generator (SplitMix64): every seed-dependent choice
/// the benchmark makes comes from here, so one seed is one set of inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5157_5253_2d62_656e)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The geometric mean of `samples` (0 for none): the typical time of a
/// cell when cell costs differ tenfold across workloads.
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|s| s.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// The nearest-rank `q`-quantile of `samples`, or `None` when fewer than
/// ten samples lie beyond it — a tail read off fewer points is noise.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= 10).then(|| s[rank - 1])
}

/// Prints `name` with its median, the highest reportable tail and the
/// sample count, so every figure carries its base.
pub fn print_latency(name: &str, samples_ms: &[f64]) {
    let p50 = match percentile(samples_ms, 0.5) {
        Some(_) => format!("{:.1} ms", median(samples_ms)),
        None => "n/a (<10 samples beyond it)".into(),
    };
    let tail = [0.99, 0.9]
        .into_iter()
        .find_map(|q| percentile(samples_ms, q).map(|v| format!("p{:.0} {v:.1} ms", q * 100.0)))
        .unwrap_or_else(|| "p90 n/a (<10 samples beyond it)".into());
    eprintln!("  {name:<12} p50 {p50}, {tail}  (n = {})", samples_ms.len());
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A fresh, empty directory under `root`.
pub fn fresh_dir(root: &Path, name: &str) -> PathBuf {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Milliseconds since `t0`.
pub fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// The traced run: two complete traced drives of the workload, each from
/// fresh stores (and, for `serve`, a fresh server). The exact per-layer
/// counts of the two must be identical, bit for bit — drift means
/// nondeterminism, not noise. Reports the second drive's metrics, whose
/// spans are the ones written out.
fn traced_twice(args: &Args) -> Outcome {
    let drive = || match args.workload.as_str() {
        "serve" => serve::traced(args),
        _ => grid::traced(args),
    };
    let first = drive();
    let mut second = drive();
    let bits = |o: &Outcome, name: &str| {
        o.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value.to_bits())
    };
    let mut repeated = 0;
    for name in spans::EXACT_COUNTS {
        let (a, b) = (bits(&first, name), bits(&second, name));
        if a.is_none() || a != b {
            second.problems.push(format!(
                "exact count {name} differs between the two traced drives: {:?} vs {:?}",
                a.map(f64::from_bits),
                b.map(f64::from_bits)
            ));
        } else {
            repeated += 1;
        }
    }
    eprintln!(
        "{repeated} of {} exact counts repeat across the two traced drives",
        spans::EXACT_COUNTS.len()
    );
    second.attempted += first.attempted;
    second.failed += first.failed;
    second.problems.extend(first.problems);
    second
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Knobs the program reads from the environment would change what is
    // measured; run.py clears them, and a stray one is a setup error.
    if let Some((k, _)) = std::env::vars().find(|(k, _)| k.starts_with("WSRS_")) {
        eprintln!("perfbench: {k} is set; run through run.py, which clears WSRS_* variables");
        std::process::exit(2);
    }
    let _ = std::fs::create_dir_all(&args.out);
    let outcome = match (args.workload.as_str(), args.trace) {
        ("grid-int" | "grid-fp" | "serve", true) => traced_twice(&args),
        ("grid-int" | "grid-fp", false) => grid::run(&args),
        ("serve", false) => serve::run(&args),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other} (grid-int, grid-fp, serve)");
            std::process::exit(2);
        }
    };
    for p in &outcome.problems {
        eprintln!("problem: {p}");
    }
    eprintln!(
        "error_rate {} ({} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("{}", outcome.to_json_line());
}
