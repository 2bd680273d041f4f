//! `jmb-scenario` — run declarative scenario manifests headless.
//!
//! ```text
//! jmb-scenario run <manifest.scn> [--out DIR] [--seed N] [--threads N]
//! jmb-scenario check <manifest.scn>
//! ```
//!
//! `run` executes the manifest and writes `result.json` + `trace.jsonl`
//! into the output directory (default `results/scenario/<name>`), then
//! exits 0 (pass), 1 (assertion failed), 2 (invalid manifest/CLI), or 3
//! (resource limit hit). `check` parses and validates only.

// Hot path: no panicking calls outside tests (DESIGN.md §3.10).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_macros
    )
)]

use jmb_scenario::{
    run_manifest, Manifest, RunOptions, ScenarioError, ScenarioReport, EXIT_INVALID, EXIT_PASS,
};
use std::path::{Path, PathBuf};

const USAGE: &str = "\
usage: jmb-scenario run <manifest.scn> [--out DIR] [--seed N] [--threads N]
       jmb-scenario check <manifest.scn>

exit codes: 0 pass | 1 assertion failed | 2 invalid manifest or CLI | 3 limit exceeded";

fn main() {
    std::process::exit(real_main(&std::env::args().skip(1).collect::<Vec<_>>()));
}

fn real_main(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            EXIT_PASS
        }
        Some(other) => {
            eprintln!("error: unknown command `{other}`\n{USAGE}");
            EXIT_INVALID
        }
        None => {
            eprintln!("{USAGE}");
            EXIT_INVALID
        }
    }
}

struct RunArgs {
    manifest: PathBuf,
    out: Option<PathBuf>,
    seed: Option<u64>,
    threads: Option<usize>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut manifest: Option<PathBuf> = None;
    let mut out = None;
    let mut seed = None;
    let mut threads = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => {
                let v = it.next().ok_or("--out needs a directory")?;
                out = Some(PathBuf::from(v));
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed `{v}`"))?);
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let t: usize = v.parse().map_err(|_| format!("bad --threads `{v}`"))?;
                if t == 0 {
                    return Err("--threads must be at least 1".into());
                }
                threads = Some(t);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => {
                if manifest.is_some() {
                    return Err(format!("unexpected extra argument `{path}`"));
                }
                manifest = Some(PathBuf::from(path));
            }
        }
    }
    Ok(RunArgs {
        manifest: manifest.ok_or("missing manifest path")?,
        out,
        seed,
        threads,
    })
}

/// The artifact directory for a manifest: `--out` if given, else
/// `results/scenario/<file stem>`.
fn out_dir(args: &RunArgs) -> PathBuf {
    match &args.out {
        Some(d) => d.clone(),
        None => {
            let stem = args
                .manifest
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "scenario".to_string());
            Path::new("results").join("scenario").join(stem)
        }
    }
}

fn load(path: &Path) -> Result<Manifest, ScenarioError> {
    let text = std::fs::read_to_string(path)?;
    Manifest::parse(&text)
}

/// Writes `result.json` (+ optionally `trace.jsonl`) into `dir`. Failures
/// here are reported but do not change the verdict-derived exit code —
/// except that an unwritable result for a *passing* run is still a
/// failure the caller must see, so IO errors map to exit 2.
fn write_artifacts(
    dir: &Path,
    report_json: &str,
    trace_jsonl: Option<&str>,
) -> Result<(), ScenarioError> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("result.json"), report_json)?;
    if let Some(t) = trace_jsonl {
        std::fs::write(dir.join("trace.jsonl"), t)?;
    }
    Ok(())
}

fn stem_of(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "scenario".to_string())
}

fn cmd_run(args: &[String]) -> i32 {
    let args = match parse_run_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return EXIT_INVALID;
        }
    };
    let dir = out_dir(&args);
    let manifest = match load(&args.manifest) {
        Ok(m) => m,
        Err(e) => {
            // Even a manifest that never ran leaves a machine-readable
            // record for CI to upload.
            let report = ScenarioReport::invalid(&stem_of(&args.manifest), &e);
            let _ = write_artifacts(&dir, &report.to_json(), None);
            eprintln!("error: {e}");
            return EXIT_INVALID;
        }
    };
    let opts = RunOptions {
        seed: args.seed,
        threads: args.threads,
    };
    match run_manifest(&manifest, &opts) {
        Ok(out) => {
            if let Err(e) = write_artifacts(&dir, &out.report.to_json(), Some(&out.trace_jsonl)) {
                eprintln!("error: {e}");
                return EXIT_INVALID;
            }
            let r = &out.report;
            println!(
                "{}: {} (seed {}, {} events, stop {}); artifacts in {}",
                r.name,
                r.verdict.name(),
                r.seed,
                r.events,
                r.stop_cause.name(),
                dir.display()
            );
            for a in &r.assertions {
                println!(
                    "  [{}] {} — {} (actual {})",
                    a.index,
                    a.text,
                    if a.passed { "pass" } else { "FAIL" },
                    a.actual
                );
            }
            r.verdict.exit_code()
        }
        Err(e) => {
            let report = ScenarioReport::invalid(&manifest.name, &e);
            let _ = write_artifacts(&dir, &report.to_json(), None);
            eprintln!("error: {e}");
            EXIT_INVALID
        }
    }
}

fn cmd_check(args: &[String]) -> i32 {
    let [path] = args else {
        eprintln!("error: check takes exactly one manifest path\n{USAGE}");
        return EXIT_INVALID;
    };
    match load(Path::new(path)) {
        Ok(m) => {
            println!(
                "ok: {} ({} assertions, {} fault windows, {} outages)",
                m.name,
                m.assertions.len(),
                m.faults.windows.len(),
                m.faults.outages.len()
            );
            EXIT_PASS
        }
        Err(e) => {
            eprintln!("error: {e}");
            EXIT_INVALID
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_args_parse_and_reject() {
        let ok = parse_run_args(&[
            "a.scn".into(),
            "--seed".into(),
            "3".into(),
            "--threads".into(),
            "4".into(),
        ])
        .unwrap();
        assert_eq!(ok.seed, Some(3));
        assert_eq!(ok.threads, Some(4));
        assert!(parse_run_args(&["--seed".into()]).is_err());
        assert!(parse_run_args(&["a".into(), "b".into()]).is_err());
        assert!(parse_run_args(&["--bogus".into()]).is_err());
        assert!(parse_run_args(&[]).is_err());
    }

    #[test]
    fn default_out_dir_uses_the_stem() {
        let a = parse_run_args(&["scenarios/stadium.scn".into()]).unwrap();
        assert_eq!(
            out_dir(&a),
            Path::new("results").join("scenario").join("stadium")
        );
    }

    #[test]
    fn unknown_command_is_invalid() {
        assert_eq!(real_main(&["frobnicate".into()]), EXIT_INVALID);
        assert_eq!(real_main(&[]), EXIT_INVALID);
        assert_eq!(real_main(&["--help".into()]), EXIT_PASS);
    }
}
