//! City sweep: area capacity vs frequency-reuse factor on a sharded
//! multi-cell deployment.
//!
//! Lays hundreds of JMB cells on a rectangular grid (`jmb-city`), couples
//! co-channel cells through distance-based path loss, and runs every cell's
//! traffic event loop as a deterministic shard. The full sweep deploys a
//! 16×16 grid with 4 APs and 400 clients per cell — 1024 APs serving
//! 102,400 clients — at reuse 1, 3, and 7; `--quick` shrinks it to an 8×8
//! grid with small cells for smoke runs.
//!
//! The headline trade: reuse 1 gives every cell the full band but the most
//! interference; reuse 7 is quiet but splits the band seven ways. Which
//! wins in bits/s/km² depends on load and cell pitch — that is the
//! figure this binary draws.
//!
//! Every simulation is seeded; the CSV is byte-identical across runs and
//! `--threads` settings, and the row generation lives in
//! [`jmb_bench::sweeps`], shared with the `sync_equivalence` fixture test.
//! Exit codes follow the sweep contract: 0 pass, 1 failed acceptance
//! property or runtime error, 2 invalid CLI.

use jmb_bench::sweeps::{self, SweepSettings};
use jmb_bench::{accept, banner, or_fail, FigOpts, TRACE_USAGE, USAGE};
use jmb_city::Reuse;
use jmb_core::experiment::write_csv;

const EXTRA_USAGE: &str =
    "  --reuse LIST   comma-separated reuse factors from {1,3,7} (default 1,3,7)";

fn main() {
    let usage = format!("{USAGE}\n{TRACE_USAGE}\n{EXTRA_USAGE}");
    // Strip --reuse before handing the rest to the shared parser.
    let mut reuses: Vec<Reuse> = Reuse::ALL.to_vec();
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--reuse" {
            let spec = args.next().unwrap_or_default();
            let parsed: Option<Vec<Reuse>> = spec.split(',').map(Reuse::parse).collect();
            match parsed {
                Some(list) if !list.is_empty() => reuses = list,
                _ => {
                    eprintln!("error: --reuse needs factors from {{1,3,7}}\n{usage}");
                    std::process::exit(2);
                }
            }
        } else {
            rest.push(a);
        }
    }
    let opts = FigOpts::or_exit(FigOpts::parse(rest, true), &usage);
    banner(
        "city_sweep",
        "area capacity vs frequency-reuse factor",
        &opts,
    );
    let set = SweepSettings::from_opts(&opts);

    let mut rows: Vec<Vec<String>> = Vec::new();
    println!(
        "{:>5} {:>6} {:>8} {:>9} {:>12} {:>13} {:>9}",
        "reuse", "cells", "aps", "clients", "mean_inr_db", "area_mbps_km2", "delivery"
    );
    for (ri, &reuse) in reuses.iter().enumerate() {
        // Trace the first reuse point's city-level event feed if asked.
        let trace_out = if ri == 0 {
            opts.trace_out.as_deref()
        } else {
            None
        };
        let report = or_fail(
            sweeps::city_point(&set, reuse, trace_out, &mut rows),
            "run city",
        );
        // The acceptance property: every reuse point delivers.
        accept(
            report.pooled.delivered > 0,
            &format!("reuse-{} city delivered nothing", reuse.factor()),
        );
        if let Some(path) = trace_out {
            println!(
                "trace of the reuse-{} city → {}",
                reuse.factor(),
                path.display()
            );
        }
        let cfg = sweeps::city_config(set.quick, reuse, set.seed, set.threads);
        println!(
            "{:>5} {:>6} {:>8} {:>9} {:>12.2} {:>13.2} {:>8.1}%",
            reuse.factor(),
            report.cells.len(),
            cfg.total_aps(),
            cfg.total_clients(),
            report.mean_inr_db(),
            report.area_capacity_bps_per_km2() / 1e6,
            report.delivery_ratio() * 100.0
        );
    }

    or_fail(
        write_csv(
            &opts.csv_path("city_sweep.csv"),
            &sweeps::city_header(),
            rows,
        ),
        "write city_sweep.csv",
    );
    println!(
        "\n§11 at city scale: spectral aggression (reuse 1) vs isolation (reuse 7) in bits/s/km²."
    );
}
