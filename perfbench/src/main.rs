//! `perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! [--pins FILE] [--spans-out FILE]`
//!
//! Prints one `metric <name> <value> <unit>` line per metric, the digest
//! of every operation, and, as the last line, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. Exits 0 when every
//! operation matched its digest, 1 when one failed, 2 on bad arguments.

use perfbench::bench::{end_to_end, per_layer, Gate, Metric};
use perfbench::digest::{parse_pins, Expect, BUILTIN_PINS, PINNED_SEED};
use perfbench::workloads::{Ctx, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <fast_array|city_grid|sample_cell|scenario_corpus|all> \
[--seed N] [--seconds S] [--trace 0|1] [--pins FILE] [--spans-out FILE]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    pins: Option<PathBuf>,
    spans_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: PINNED_SEED,
        seconds: 10.0,
        trace: false,
        pins: None,
        spans_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                out.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(v).ok_or_else(|| format!("unknown workload `{v}`"))?]
                };
            }
            "--seed" => {
                let v = value()?;
                out.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                out.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (0 or 1)")),
                };
            }
            "--pins" => out.pins = Some(PathBuf::from(value()?)),
            "--spans-out" => out.spans_out = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Err(String::new()),
            f => return Err(format!("unknown argument `{f}`")),
        }
    }
    if out.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(out)
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let pin_text = match &args.pins {
        Some(p) => std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?,
        None => BUILTIN_PINS.to_string(),
    };
    let pins = parse_pins(&pin_text)?;
    let scenarios = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../scenarios");
    let ctx = Ctx::new(args.seed, Ctx::host_threads(), &scenarios)?;
    let mut all_ok = true;
    let mut spans_jsonl = String::new();
    for &w in &args.workloads {
        println!(
            "perfbench {} seed={} seconds={} trace={} threads={}",
            w.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            ctx.threads
        );
        let mut gate = Gate::new(Expect::for_seed(args.seed, pins.clone()));
        let mut outcome = if args.trace {
            per_layer(w, &ctx, args.seconds, &mut gate)?
        } else {
            end_to_end(w, &ctx, args.seconds, &mut gate)
        };
        let failed = gate.failed();
        let fail_frac = failed as f64 / gate.attempted.max(1) as f64;
        if args.trace {
            outcome.metrics.push(Metric {
                name: "fail_frac".into(),
                value: fail_frac,
                unit: "fraction",
            });
        }
        for (op, d) in &gate.digests {
            println!("digest {op} {d}");
        }
        for f in &gate.failures {
            println!("FAIL {f}");
        }
        for m in &outcome.metrics {
            println!("metric {} {} {}", m.name, m.value, m.unit);
        }
        if !args.trace {
            println!("metric fail_frac {fail_frac} fraction");
        }
        for (name, count, total_s, self_s) in outcome.spans.summary() {
            println!("span {name} count={count} total_s={total_s:.6} self_s={self_s:.6}");
        }
        spans_jsonl.push_str(&outcome.spans.to_jsonl());
        let correct = failed == 0 && gate.attempted > 0;
        all_ok &= correct;
        println!(
            "{}",
            json_result(correct, gate.attempted, failed, &outcome.metrics)
        );
    }
    if let Some(path) = &args.spans_out {
        std::fs::write(path, spans_jsonl).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("perfbench: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
