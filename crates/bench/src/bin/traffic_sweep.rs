//! Traffic sweep: goodput and latency vs offered load and AP count, plus
//! a lead-AP failover run.
//!
//! Three sections, all through the discrete-event traffic simulator over
//! the per-subcarrier PHY ([`jmb_traffic::FastBackend`]):
//!
//! * `scaling` — saturating load, 1–10 APs serving as many clients:
//!   goodput should grow with the number of APs (the paper's headline
//!   claim, now under queueing instead of back-to-back frames);
//! * `load` — 4 APs / 4 clients, offered load ramping from light to
//!   beyond saturation: goodput tracks the offered line then flattens,
//!   latency shows the classic knee;
//! * `failover` — moderate load with the lead AP down for the middle
//!   third of the run: goodput degrades, the queue keeps draining, and
//!   full service resumes on recovery.
//!
//! Every simulation is seeded; rows are byte-identical across runs and
//! `--threads` settings (parallelism is across simulations, each of which
//! is single-threaded). The row generation itself lives in
//! [`jmb_bench::sweeps`], shared with the `sync_equivalence` fixture test.
//! Exit codes follow the sweep contract: 0 pass, 1 failed acceptance
//! property or runtime error, 2 invalid CLI.

use jmb_bench::sweeps::{self, SweepSettings};
use jmb_bench::{accept, banner, or_fail, FigOpts, TRACE_USAGE, USAGE};
use jmb_core::experiment::write_csv;

fn main() {
    let opts = FigOpts::or_exit(
        FigOpts::parse(std::env::args().skip(1), true),
        &format!("{USAGE}\n{TRACE_USAGE}"),
    );
    banner(
        "traffic_sweep",
        "goodput/latency vs offered load, AP count, and failover",
        &opts,
    );
    let set = SweepSettings::from_opts(&opts);
    let out = sweeps::traffic_sweep(&set);

    println!("n_aps  offered_mbps  goodput_mbps  p99_ms");
    for (n, m) in &out.scaling {
        println!(
            "{n:>5}  {:>12.1}  {:>12.1}  {:>6.1}",
            m.offered_bps / 1e6,
            m.goodput_bps() / 1e6,
            m.p99_latency_s() * 1e3
        );
    }

    println!("\nrate_pps  offered_mbps  goodput_mbps  median_ms  p99_ms");
    for (r, m) in &out.ramp {
        println!(
            "{r:>8.0}  {:>12.1}  {:>12.1}  {:>9.2}  {:>6.1}",
            m.offered_bps / 1e6,
            m.goodput_bps() / 1e6,
            m.median_latency_s() * 1e3,
            m.p99_latency_s() * 1e3
        );
    }

    println!("\nfailover (lead AP down for the middle third):");
    println!(
        "  healthy : goodput {:>6.1} Mb/s, p99 {:>6.1} ms, backlog {}",
        out.healthy.goodput_bps() / 1e6,
        out.healthy.p99_latency_s() * 1e3,
        out.healthy.queued_at_end
    );
    println!(
        "  failover: goodput {:>6.1} Mb/s, p99 {:>6.1} ms, backlog {}, delivery {:.1}%",
        out.failover.goodput_bps() / 1e6,
        out.failover.p99_latency_s() * 1e3,
        out.failover.queued_at_end,
        out.failover.delivery_ratio() * 100.0
    );
    // The acceptance property: degraded, not stalled.
    accept(
        out.failover.delivered > 0 && out.failover.goodput_bps() > 0.0,
        "failover run stalled",
    );

    or_fail(
        write_csv(&opts.csv_path("traffic_sweep.csv"), &out.header, out.rows),
        "write traffic_sweep.csv",
    );

    // --- Optional: dump one representative cell's event trace. ---
    // A dedicated re-run of the failover cell (seed = master seed) so the
    // sweep rows above stay byte-identical whether or not tracing is on.
    if let Some(path) = &opts.trace_out {
        sweeps::traffic_failover_trace(&set, path);
        println!("trace of the failover cell → {}", path.display());
    }
    println!("\n§9/§11: capacity — and now queueing delay — scale with the number of APs.");
}
