//! Robustness sweep: goodput vs control-frame loss.
//!
//! The claim under test: JMB's control plane degrades *gracefully*. Losing
//! sync headers or measurement frames costs throughput proportionally —
//! re-measurement backs off, desynchronized slaves drop out of individual
//! joint batches — but never collapses the network or stalls the queue.
//!
//! Three sections, all through the discrete-event traffic simulator over
//! the per-subcarrier PHY ([`jmb_traffic::FastBackend`]):
//!
//! * `sync` — saturating load at 4 APs / 4 clients with the per-batch
//!   sync-header loss probability ramping 0 → 30%: goodput must fall
//!   smoothly (at 10% loss it stays within 25% of fault-free — the
//!   acceptance bound, asserted);
//! * `meas` — the same ramp applied to measurement-frame loss: lost
//!   measurements trigger capped-exponential-backoff re-measurement, CSI
//!   ages but transmissions continue on the stale precoder;
//! * `storm` — a mid-run window in which one slave loses *every* sync
//!   header: it degrades out of the array (K consecutive misses), the rest
//!   keep serving, and it is restored when the storm passes.
//!
//! Beyond the shared figure flags, `--sync-loss P` / `--meas-loss P`
//! switch to single-cell mode (used by the CI fault matrix): one pooled
//! operating point at those probabilities, written to
//! `robustness_cell.csv`. Every simulation is seeded; rows are
//! byte-identical across runs and `--threads` settings, and the row
//! generation lives in [`jmb_bench::sweeps`], shared with the
//! `sync_equivalence` fixture test. Exit codes follow the sweep contract:
//! 0 pass, 1 failed acceptance property or runtime error, 2 invalid CLI
//! (out-of-range fault probabilities are reported via `FaultError`'s
//! field-name message).

use jmb_bench::sweeps::{self, SweepSettings};
use jmb_bench::{accept, banner, or_fail, FigOpts, TRACE_USAGE, USAGE};
use jmb_core::experiment::write_csv;
use jmb_sim::FaultConfig;
use jmb_traffic::TrafficMetrics;

const EXTRA_USAGE: &str = "  --sync-loss P  single-cell mode: sync-header loss probability
  --meas-loss P  single-cell mode: measurement-frame loss probability";

fn print_header() {
    println!("loss_pct  goodput_mbps  sync_misses  remeas_fail  degraded  restored");
}

fn print_row(loss: f64, m: &TrafficMetrics) {
    println!(
        "{:>8.1}  {:>12.1}  {:>11}  {:>11}  {:>8}  {:>8}",
        loss * 100.0,
        m.goodput_bps() / 1e6,
        m.sync_misses,
        m.remeasure_failed,
        m.aps_degraded,
        m.aps_restored
    );
}

fn main() {
    let usage = format!("{USAGE}\n{TRACE_USAGE}\n{EXTRA_USAGE}");
    // Strip the robustness-specific flags before handing the rest to the
    // shared parser (which rejects unknown arguments).
    let mut sync_loss: Option<f64> = None;
    let mut meas_loss: Option<f64> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let slot = match a.as_str() {
            "--sync-loss" => &mut sync_loss,
            "--meas-loss" => &mut meas_loss,
            _ => {
                rest.push(a);
                continue;
            }
        };
        match args.next().and_then(|s| s.parse::<f64>().ok()) {
            Some(p) => *slot = Some(p),
            None => {
                eprintln!("error: {a} needs a numeric probability\n{usage}");
                std::process::exit(2);
            }
        }
    }
    let opts = FigOpts::or_exit(FigOpts::parse(rest, true), &usage);
    banner(
        "robustness_sweep",
        "goodput vs control-frame loss (graceful degradation)",
        &opts,
    );
    let set = SweepSettings::from_opts(&opts);

    // --- Single-cell mode for the CI fault matrix. ---
    if sync_loss.is_some() || meas_loss.is_some() {
        // Range validation is the fault layer's job: out-of-range values
        // surface `FaultError`'s field-name message (e.g. "fault
        // probability `sync_loss_chance` = 1.5 outside [0, 1]") as the
        // CLI diagnostic, exit 2.
        let fault = match FaultConfig::builder()
            .sync_loss_chance(sync_loss.unwrap_or(0.0))
            .meas_loss_chance(meas_loss.unwrap_or(0.0))
            .build()
        {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: {e}\n{usage}");
                std::process::exit(2);
            }
        };
        let (m, header, rows) = sweeps::robustness_cell(&set, fault);
        println!(
            "cell: sync-loss {:.0}%, meas-loss {:.0}%",
            sync_loss.unwrap_or(0.0) * 100.0,
            meas_loss.unwrap_or(0.0) * 100.0
        );
        print_header();
        print_row(sync_loss.unwrap_or(0.0).max(meas_loss.unwrap_or(0.0)), &m);
        accept(m.delivered > 0, "faulted cell stalled");
        or_fail(
            write_csv(&opts.csv_path("robustness_cell.csv"), &header, rows),
            "write robustness_cell.csv",
        );
        return;
    }

    let out = sweeps::robustness_sweep(&set);

    println!("sync-header loss:");
    print_header();
    for (l, m) in &out.sync {
        print_row(*l, m);
    }
    let clean = out.sync[0].1.goodput_bps();
    let at_10 = out
        .sync
        .iter()
        .find(|(l, _)| *l == 0.1)
        .expect("10% point")
        .1
        .goodput_bps();
    println!(
        "  goodput at 10% sync loss: {:.1}% of fault-free",
        100.0 * at_10 / clean
    );
    // The acceptance bound: graceful, not a cliff.
    accept(
        at_10 >= 0.75 * clean,
        &format!("10% sync loss cost more than 25% of goodput ({at_10:.0} vs {clean:.0} b/s)"),
    );

    println!("\nmeasurement-frame loss:");
    print_header();
    for (l, m) in &out.meas {
        print_row(*l, m);
        accept(
            m.delivered > 0,
            &format!("meas-loss {l} stalled the network"),
        );
    }

    println!("\nstorm (slave 1 misses every header, middle third):");
    print_header();
    print_row(1.0, &out.storm);
    accept(
        out.storm.aps_degraded >= 1 && out.storm.aps_restored >= 1,
        "storm must degrade the slave and restore it afterwards",
    );

    or_fail(
        write_csv(
            &opts.csv_path("robustness_sweep.csv"),
            &out.header,
            out.rows,
        ),
        "write robustness_sweep.csv",
    );

    // --- Optional: dump one representative cell's event trace. ---
    // A dedicated re-run of the storm cell (seed = master seed) so the
    // sweep rows above stay byte-identical whether or not tracing is on.
    if let Some(path) = &opts.trace_out {
        sweeps::robustness_storm_trace(&set, path);
        println!("trace of the storm cell → {}", path.display());
    }
    println!("\n§7: control-frame loss degrades JMB smoothly — no cliff, no stall.");
}
