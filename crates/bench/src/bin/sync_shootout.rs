//! Sync-strategy shootout: every pluggable synchronization backend
//! through the same probes and storms.
//!
//! Three sections, all strategies side by side:
//!
//! * `phase` — CDF of achieved phase misalignment from the sample-level
//!   probe (the Fig. 7 pipeline with the slave's correction source
//!   swapped): the paper's lead/slave resync must stay inside its
//!   0.35 rad budget (asserted); the out-of-band rivals trade update
//!   cadence and estimate quality for control cost, so their envelopes
//!   are wider and documented here rather than pinned;
//! * `storm` — the robustness storm (one slave loses every sync header
//!   for the middle third) at 4 APs: in-band resync degrades the slave
//!   and restores it, the out-of-band rivals never consult the headers
//!   so the storm cannot stall them (asserted: everyone keeps
//!   delivering); the control-overhead fraction
//!   (`control_airtime_s / airtime_s`) makes the rivals' hidden cost
//!   visible — pilot broadcasts charge airtime even when no data flows;
//! * `scaling` — goodput vs AP count under the same storm, per strategy.
//!
//! Writes `sync_shootout.csv` (storm + scaling sections) and
//! `sync_shootout_phase.csv` (per-strategy misalignment percentiles).
//! Both are byte-identical across runs and `--threads` settings; the CI
//! `sync-shootout` job compares them. Exit codes follow the sweep
//! contract: 0 pass, 1 failed acceptance property, 2 invalid CLI.

use jmb_bench::sweeps::{self, SweepSettings};
use jmb_bench::{accept, banner, or_fail, FigOpts};
use jmb_core::experiment::write_csv;
use jmb_core::sync::{SyncStrategyId, SYNC_ERROR_BUDGET_RAD};

fn main() {
    let opts = FigOpts::from_args();
    banner(
        "sync_shootout",
        "pluggable sync backends: phase error, control overhead, storms",
        &opts,
    );
    let set = SweepSettings::from_opts(&opts);
    let out = or_fail(sweeps::sync_shootout(&set), "sync_shootout pipeline");

    println!("phase-error CDF (radians, sample-level probe):");
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8} {:>6}",
        "strategy", "p50", "p90", "p99", "max", "n"
    );
    for row in &out.phase_rows {
        println!(
            "{:<22} {:>8} {:>8} {:>8} {:>8} {:>6}",
            row[0], row[1], row[2], row[3], row[4], row[5]
        );
    }
    let jmb = &out.phase[0];
    assert_eq!(jmb.0, SyncStrategyId::JmbLeadSlave);
    let jmb_worst = jmb.1.last().copied().unwrap_or(0.0);
    accept(
        jmb_worst <= SYNC_ERROR_BUDGET_RAD,
        &format!(
            "JMB lead/slave misalignment {jmb_worst:.3} rad exceeds the \
             {SYNC_ERROR_BUDGET_RAD} rad budget"
        ),
    );

    println!("\nstorm cell (slave 1 misses every header, middle third):");
    println!(
        "{:<22} {:>12} {:>10} {:>8} {:>8} {:>8}",
        "strategy", "goodput_mbps", "ctrl_frac", "misses", "degraded", "restored"
    );
    for (s, m) in &out.storm {
        let ctrl_frac = if m.airtime_s > 0.0 {
            m.control_airtime_s / m.airtime_s
        } else {
            0.0
        };
        println!(
            "{:<22} {:>12.1} {:>10.4} {:>8} {:>8} {:>8}",
            s.token(),
            m.goodput_bps() / 1e6,
            ctrl_frac,
            m.sync_misses,
            m.aps_degraded,
            m.aps_restored
        );
        accept(
            m.delivered > 0,
            &format!("{} stalled under the storm", s.token()),
        );
        if *s == SyncStrategyId::JmbLeadSlave {
            accept(
                m.aps_degraded >= 1 && m.aps_restored >= 1,
                "JMB lead/slave must degrade the slave and restore it afterwards",
            );
        } else {
            accept(
                m.sync_misses == 0 && m.aps_degraded == 0,
                &format!(
                    "{} consults no in-band headers, so the storm must not \
                     produce misses or degradations",
                    s.token()
                ),
            );
        }
    }

    println!("\nthroughput vs APs under the storm:");
    for (s, series) in &out.scaling {
        let pts: Vec<String> = series
            .iter()
            .map(|(n, m)| format!("{n}:{:.1}", m.goodput_bps() / 1e6))
            .collect();
        println!("  {:<22} {}", s.token(), pts.join("  "));
    }

    or_fail(
        write_csv(&opts.csv_path("sync_shootout.csv"), &out.header, out.rows),
        "write sync_shootout.csv",
    );
    or_fail(
        write_csv(
            &opts.csv_path("sync_shootout_phase.csv"),
            &out.phase_header,
            out.phase_rows,
        ),
        "write sync_shootout_phase.csv",
    );
    println!(
        "\nshootout: in-band resync holds the paper's {SYNC_ERROR_BUDGET_RAD} rad budget; \
         the rivals ride out header storms at their own control cost."
    );
}
