//! The run environment: the `WSRS_*` variables (README lists them),
//! parsed once at binary entry into one typed [`RunEnv`]. This is the
//! only reader of the process environment; library code takes these
//! values as arguments. A malformed value is an error naming the
//! variable, never a silent fall-back to the default; an empty value
//! counts as unset.

use std::ffi::OsStr;
use std::num::{NonZeroU64, NonZeroUsize};
use std::path::PathBuf;
use wsrs_core::SampleSpec;
use wsrs_trace::TraceStore;

use crate::{manifest, RunParams};

/// Everything a run takes from its environment.
#[derive(Clone, Debug)]
pub struct RunEnv {
    /// Warm-up and measured µops per cell.
    pub params: RunParams,
    /// Grid and `wsrs-serve` worker count (at least 1).
    pub threads: usize,
    /// The disk trace store grids replay from and record into.
    pub store: TraceStore,
    /// Where grid binaries also write `<name>.csv`, if anywhere.
    pub csv_dir: Option<PathBuf>,
    /// `Some` runs every single-thread grid cell interval-sampled.
    pub sample: Option<SampleSpec>,
}

impl RunEnv {
    /// Reads the process environment. Call once, at binary entry, and
    /// pass the result down. On a malformed value, prints the error and
    /// exits with status 2.
    #[must_use]
    pub fn from_env() -> RunEnv {
        let vars: Vec<_> = std::env::vars_os()
            .filter_map(|(k, v)| Some((k.into_string().ok()?, v)))
            .collect();
        RunEnv::from_vars(&vars).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Parses an explicit variable list; other names are ignored and
    /// absent ones take their defaults.
    ///
    /// # Errors
    ///
    /// The first malformed value, naming its variable. A zero window or
    /// thread count is malformed, and so is a window whose length does
    /// not fit in a `u64`.
    pub fn from_vars<K: AsRef<str>, V: AsRef<OsStr>>(vars: &[(K, V)]) -> Result<RunEnv, String> {
        let positive = "a positive integer";
        let window = |var| parse(vars, var, positive, |s| s.parse::<NonZeroU64>().ok());
        let flag = |s: &str| match s.to_ascii_lowercase().as_str() {
            "1" | "true" | "on" => Some(true),
            "0" | "false" | "off" => Some(false),
            _ => None,
        };
        let d = RunParams::default_scaled();
        let params = RunParams {
            warmup: window("WSRS_WARMUP")?.map_or(d.warmup, NonZeroU64::get),
            measure: window("WSRS_MEASURE")?.map_or(d.measure, NonZeroU64::get),
        };
        if params.window().is_none() {
            return Err("WSRS_WARMUP + WSRS_MEASURE must fit in a u64".to_string());
        }
        Ok(RunEnv {
            params,
            threads: parse(vars, "WSRS_THREADS", positive, |s| s.parse().ok())?
                .or_else(|| std::thread::available_parallelism().ok())
                .map_or(1, NonZeroUsize::get),
            store: TraceStore::at(
                get(vars, "WSRS_TRACE_DIR")
                    .map_or_else(|| manifest::artifacts_dir().join("traces"), PathBuf::from),
            ),
            csv_dir: get(vars, "WSRS_CSV_DIR").map(PathBuf::from),
            sample: parse(vars, "WSRS_SAMPLED", "1/true/on or 0/false/off", flag)?
                .unwrap_or(false)
                .then(SampleSpec::default),
        })
    }

    /// Writes `contents` to `<csv_dir>/<name>.csv` when a CSV directory
    /// is set (`None` otherwise) and reports the outcome on stderr. A
    /// failed write is reported, not fatal: the run's other outputs stand.
    pub fn write_csv(&self, name: &str, contents: &str) -> Option<std::io::Result<PathBuf>> {
        let path = self.csv_dir.as_ref()?.join(format!("{name}.csv"));
        let written = std::fs::write(&path, contents);
        match &written {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("csv not written to {}: {e}", path.display()),
        }
        Some(written.map(|()| path))
    }
}

/// `var`'s value in `vars`; `None` when absent or empty.
fn get<'a>(vars: &'a [(impl AsRef<str>, impl AsRef<OsStr>)], var: &str) -> Option<&'a OsStr> {
    let (_, v) = vars
        .iter()
        .find(|(k, v)| k.as_ref() == var && !v.as_ref().is_empty())?;
    Some(v.as_ref())
}

/// `var`'s value parsed by `f`: `None` when unset, an error naming the
/// variable and what it accepts when `f` rejects the value.
fn parse<T>(
    vars: &[(impl AsRef<str>, impl AsRef<OsStr>)],
    var: &str,
    expected: &str,
    f: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    get(vars, var)
        .map(|v| {
            v.to_str()
                .and_then(|s| f(s.trim()))
                .ok_or_else(|| format!("{var}={v:?}: expected {expected}"))
        })
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(vars: &[(&str, &str)]) -> Result<RunEnv, String> {
        RunEnv::from_vars(vars)
    }

    #[test]
    fn unset_and_empty_take_the_defaults() {
        for vars in [&[][..], &[("WSRS_WARMUP", ""), ("WSRS_SAMPLED", "")][..]] {
            let env = parse(vars).unwrap();
            let d = RunParams::default_scaled();
            assert_eq!(
                (env.params.warmup, env.params.measure),
                (d.warmup, d.measure)
            );
            assert!(env.threads >= 1);
            assert_eq!(env.store.dir(), manifest::artifacts_dir().join("traces"));
            assert!(env.csv_dir.is_none());
            assert!(env.sample.is_none());
        }
    }

    #[test]
    fn valid_values_parse() {
        let env = parse(&[
            ("WSRS_WARMUP", "250000"),
            ("WSRS_MEASURE", " 500000 "),
            ("WSRS_THREADS", "3"),
            ("WSRS_TRACE_DIR", "/tmp/traces"),
            ("WSRS_CSV_DIR", "/tmp/csv"),
            ("WSRS_SAMPLED", "ON"),
            ("WSRS_UNRELATED", "x"),
        ])
        .unwrap();
        assert_eq!((env.params.warmup, env.params.measure), (250_000, 500_000));
        assert_eq!(env.threads, 3);
        assert_eq!(env.store.dir(), std::path::Path::new("/tmp/traces"));
        assert_eq!(
            env.csv_dir.as_deref(),
            Some(std::path::Path::new("/tmp/csv"))
        );
        assert_eq!(env.sample, Some(SampleSpec::default()));
        assert!(parse(&[("WSRS_SAMPLED", "off")]).unwrap().sample.is_none());
    }

    #[test]
    fn malformed_values_name_their_variable() {
        for (var, value) in [
            ("WSRS_THREADS", "abc"),
            ("WSRS_THREADS", "0"),
            ("WSRS_THREADS", "-1"),
            ("WSRS_WARMUP", "1e6"),
            ("WSRS_WARMUP", "0"),
            ("WSRS_MEASURE", "0"),
            ("WSRS_SAMPLED", "maybe"),
        ] {
            let err = parse(&[(var, value)]).unwrap_err();
            assert!(
                err.starts_with(&format!("{var}={value:?}: expected ")),
                "{err}"
            );
        }
    }

    #[test]
    fn a_window_longer_than_u64_is_malformed() {
        let max = u64::MAX.to_string();
        let err = parse(&[("WSRS_WARMUP", max.as_str()), ("WSRS_MEASURE", "1")]).unwrap_err();
        assert!(err.contains("WSRS_WARMUP + WSRS_MEASURE"), "{err}");
        let (w, m) = ((u64::MAX - 1).to_string(), "1");
        let env = parse(&[("WSRS_WARMUP", w.as_str()), ("WSRS_MEASURE", m)]).unwrap();
        assert_eq!(env.params.window(), Some(u64::MAX));
    }

    #[test]
    fn csv_is_written_only_when_a_directory_is_set() {
        let dir = std::env::temp_dir().join(format!("wsrs-bench-csv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dir_str = dir.to_str().unwrap();
        assert!(parse(&[]).unwrap().write_csv("x", "y").is_none());
        let env = parse(&[("WSRS_CSV_DIR", dir_str)]).unwrap();
        let path = env.write_csv("x", "y").unwrap().unwrap();
        assert_eq!(path, dir.join("x.csv"));
        assert_eq!(std::fs::read_to_string(path).unwrap(), "y");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn unwritable_csv_directory_is_reported_not_fatal() {
        // A directory path under a regular file can never be created.
        let file = std::env::temp_dir().join(format!("wsrs-bench-csv-file-{}", std::process::id()));
        std::fs::write(&file, "").unwrap();
        let env = parse(&[("WSRS_CSV_DIR", file.join("sub").to_str().unwrap())]).unwrap();
        assert!(matches!(env.write_csv("x", "y"), Some(Err(_))));
        let _ = std::fs::remove_file(file);
    }
}
