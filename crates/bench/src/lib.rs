//! # jmb-bench — benchmark and figure-regeneration harness
//!
//! One binary per figure of the paper's evaluation (§11). Each binary
//! prints the figure's series as rows and writes a CSV under `results/`:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig00_drift_motivation` | §1/§5.2 motivation: naive CFO extrapolation vs direct phase measurement |
//! | `fig06_misalignment` | Fig. 6 — SNR reduction vs phase misalignment |
//! | `fig07_misalignment_cdf` | Fig. 7 — CDF of achieved misalignment (sample-level probe) |
//! | `fig08_inr_scaling` | Fig. 8 — INR vs number of AP-client pairs |
//! | `fig09_throughput_scaling` | Fig. 9 — throughput vs number of APs, 3 SNR bands |
//! | `fig10_fairness` | Fig. 10 — CDFs of per-client throughput gain |
//! | `fig11_diversity` | Fig. 11 — diversity throughput vs SNR |
//! | `fig12_compat_throughput` | Fig. 12 — 802.11n-compat throughput per band |
//! | `fig13_compat_fairness` | Fig. 13 — CDF of 802.11n-compat gain |
//! | `ablation_phase_sync` | Fig. 9 with slave corrections disabled |
//! | `run_all_figures` | everything above in sequence |
//! | `perf_baseline` | hot-path timing suite → `BENCH_<date>.json` |
//! | `traffic_sweep` | goodput/latency vs offered load and AP count, plus a lead-AP failover run |
//! | `city_sweep` | area capacity (bits/s/km²) vs frequency-reuse factor on a sharded multi-cell grid |
//! | `sync_shootout` | pluggable sync backends side by side: phase-error CDF, control-overhead fraction, storm scaling |
//!
//! All binaries accept `--quick` (or env `JMB_QUICK=1`), `--seed N`,
//! `--out DIR` and `--threads N`; `--help` prints usage. Criterion
//! micro-benchmarks for the hot code paths live under `benches/`.

#![warn(missing_docs)]

pub mod sweeps;

use std::path::PathBuf;

/// Usage text shared by every figure binary.
pub const USAGE: &str = "\
Options:
  --quick        reduced sweep for smoke runs (also: env JMB_QUICK=1)
  --seed N       master seed (default 1)
  --out DIR      output directory for CSVs (default results/)
  --threads N    worker threads for the topology sweep (default: all cores)
  --trace-out F  dump the structured event trace of one cell to F (.jsonl)
  --help, -h     print this help";

/// Command-line options shared by every figure binary.
#[derive(Debug, Clone)]
pub struct FigOpts {
    /// Reduced sweep for smoke runs.
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
    /// Output directory for CSVs.
    pub out_dir: PathBuf,
    /// Worker-thread override for the topology sweep (`None` = all cores).
    pub threads: Option<usize>,
    /// Dump one representative cell's event trace to this JSON-lines file.
    pub trace_out: Option<PathBuf>,
}

impl FigOpts {
    /// Parses `--quick`, `--seed N`, `--out DIR`, `--threads N` from
    /// `std::env::args`, honouring `JMB_QUICK=1`. `--help`/`-h` prints
    /// usage and exits 0; an unknown or malformed argument prints usage to
    /// stderr and exits 2 (no panic, no backtrace).
    pub fn from_args() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(Some(opts)) => opts,
            Ok(None) => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            Err(msg) => {
                eprintln!("error: {msg}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// The testable core of [`Self::from_args`]: `Ok(None)` means help was
    /// requested; `Err` carries the message for a malformed invocation.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Option<Self>, String> {
        let mut opts = FigOpts {
            quick: std::env::var("JMB_QUICK")
                .map(|v| v != "0")
                .unwrap_or(false),
            seed: 1,
            out_dir: PathBuf::from("results"),
            threads: None,
            trace_out: None,
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--help" | "-h" => return Ok(None),
                "--quick" => opts.quick = true,
                "--seed" => {
                    opts.seed = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--seed needs an integer")?;
                }
                "--out" => {
                    opts.out_dir = args.next().map(PathBuf::from).ok_or("--out needs a path")?;
                }
                "--threads" => {
                    let n: usize = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--threads needs a positive integer")?;
                    if n == 0 {
                        return Err("--threads needs a positive integer".into());
                    }
                    opts.threads = Some(n);
                }
                "--trace-out" => {
                    opts.trace_out = Some(
                        args.next()
                            .map(PathBuf::from)
                            .ok_or("--trace-out needs a path")?,
                    );
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Some(opts))
    }

    /// Sweep size scaled by quick mode.
    pub fn topologies(&self, full: usize) -> usize {
        if self.quick {
            (full / 4).max(2)
        } else {
            full
        }
    }

    /// The experiment sweep config for this run.
    pub fn sweep(&self, full_topologies: usize) -> jmb_core::experiment::SweepConfig {
        let mut cfg = jmb_core::experiment::SweepConfig {
            n_topologies: self.topologies(full_topologies),
            seed: self.seed,
            ..Default::default()
        };
        if let Some(n) = self.threads {
            cfg.parallelism = n;
        }
        cfg
    }

    /// CSV path under the output directory.
    pub fn csv_path(&self, name: &str) -> PathBuf {
        self.out_dir.join(name)
    }
}

/// Checks an acceptance property under the sweep exit-code contract
/// (shared with `jmb-scenario run`): exit 0 on pass, exit 1 on a failed
/// acceptance property or runtime error, exit 2 on invalid CLI. A failed
/// property prints the evidence and exits 1 instead of panicking, so CI
/// and scripts can branch on the code.
pub fn accept(ok: bool, msg: &str) {
    if !ok {
        eprintln!("acceptance failure: {msg}");
        std::process::exit(1);
    }
}

/// Unwraps a runtime result under the sweep exit-code contract: on error,
/// prints `error: <what>: <cause>` and exits 1 (runtime failure — the
/// CLI itself was valid).
pub fn or_fail<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {what}: {e}");
            std::process::exit(1);
        }
    }
}

/// Prints a header banner for a figure run.
pub fn banner(fig: &str, what: &str, opts: &FigOpts) {
    println!("=== {fig}: {what} ===");
    println!(
        "    (seed {}, {}; CSV → {})",
        opts.seed,
        if opts.quick {
            "quick sweep"
        } else {
            "full sweep"
        },
        opts.out_dir.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> FigOpts {
        FigOpts {
            quick: true,
            seed: 1,
            out_dir: PathBuf::from("results"),
            threads: None,
            trace_out: None,
        }
    }

    #[test]
    fn quick_scales_topologies() {
        let o = opts();
        assert_eq!(o.topologies(20), 5);
        assert_eq!(o.topologies(4), 2);
        let f = FigOpts { quick: false, ..o };
        assert_eq!(f.topologies(20), 20);
    }

    #[test]
    fn csv_path_joins() {
        let o = FigOpts {
            quick: false,
            out_dir: PathBuf::from("/tmp/x"),
            ..opts()
        };
        assert_eq!(o.csv_path("a.csv"), PathBuf::from("/tmp/x/a.csv"));
    }

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_accepts_all_flags() {
        let o = FigOpts::parse(sv(&[
            "--quick",
            "--seed",
            "9",
            "--out",
            "/tmp/o",
            "--threads",
            "3",
            "--trace-out",
            "/tmp/t.jsonl",
        ]))
        .unwrap()
        .unwrap();
        assert!(o.quick);
        assert_eq!(o.seed, 9);
        assert_eq!(o.out_dir, PathBuf::from("/tmp/o"));
        assert_eq!(o.threads, Some(3));
        assert_eq!(o.trace_out, Some(PathBuf::from("/tmp/t.jsonl")));
    }

    #[test]
    fn parse_help_is_ok_none() {
        assert!(FigOpts::parse(sv(&["--help"])).unwrap().is_none());
        assert!(FigOpts::parse(sv(&["-h"])).unwrap().is_none());
    }

    #[test]
    fn parse_rejects_bad_args() {
        assert!(FigOpts::parse(sv(&["--bogus"])).is_err());
        assert!(FigOpts::parse(sv(&["--seed"])).is_err());
        assert!(FigOpts::parse(sv(&["--seed", "x"])).is_err());
        assert!(FigOpts::parse(sv(&["--threads", "0"])).is_err());
        assert!(FigOpts::parse(sv(&["--trace-out"])).is_err());
    }

    #[test]
    fn threads_overrides_sweep_parallelism() {
        let mut o = opts();
        o.threads = Some(2);
        assert_eq!(o.sweep(20).parallelism, 2);
        o.threads = None;
        assert!(o.sweep(20).parallelism >= 1);
    }
}
