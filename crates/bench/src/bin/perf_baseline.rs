//! Machine-readable performance baseline for the hot code paths.
//!
//! Runs the same suite as `benches/hotpaths.rs` — FFT, Viterbi, precoder,
//! phase-sync correction, sample-level medium, end-to-end PHY packet — plus
//! a full `FastNet::joint_transmit` step, and writes the medians to
//! `BENCH_<date>.json` at the repo root so perf regressions are diffable
//! across commits.
//!
//! `--quick` (or `JMB_QUICK=1`) shrinks the measurement budget for smoke
//! runs; the JSON shape is identical.
//!
//! `--compare PATH` diffs this run against a previously written
//! `BENCH_<date>.json` and exits nonzero when any shared entry regressed by
//! more than `--regress-threshold PCT` (default 10%), so CI can gate on the
//! checked-in baseline.

use jmb_bench::{FigOpts, USAGE};
use jmb_channel::oscillator::PhaseTrajectory;
use jmb_channel::Link;
use jmb_dsp::rng::{complex_gaussian, rng_from_seed};
use jmb_dsp::{fft, CMat, Complex64};
use jmb_phy::frame::{FrameRx, FrameTx};
use jmb_phy::params::OfdmParams;
use jmb_phy::rates::Mcs;
use jmb_phy::{convcode, viterbi};
use jmb_sim::Medium;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// One benchmark result row.
struct Entry {
    name: &'static str,
    ns_per_op: f64,
    /// Optional derived throughput: `(value, unit)`.
    throughput: Option<(f64, &'static str)>,
}

/// Median ns/op of `f`, measured in adaptive batches like the criterion
/// harness: batch size doubles until one batch takes ≥ `min_batch`, then
/// `samples` batches are timed and the median per-op time is returned.
fn time_median(samples: usize, min_batch: Duration, mut f: impl FnMut()) -> f64 {
    let mut batch = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t0.elapsed() >= min_batch || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }
    let mut per_op: Vec<f64> = (0..samples.max(3))
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    per_op.sort_by(|a, b| a.total_cmp(b));
    per_op[per_op.len() / 2]
}

/// Civil date (UTC) from the Unix epoch via days-to-date conversion, so we
/// need no date dependency. Algorithm: Howard Hinnant's `civil_from_days`.
fn today_utc() -> (i64, u32, u32) {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    let z = secs.div_euclid(86_400) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn json_escape_free(name: &str) -> &str {
    // Benchmark names are static identifiers; assert rather than escape.
    assert!(name
        .chars()
        .all(|c| c.is_ascii_graphic() && c != '"' && c != '\\'));
    name
}

/// `(name, ns_per_op)` rows extracted from a `BENCH_<date>.json` written by
/// this binary. The format is our own (flat, one `"name"`/`"ns_per_op"` pair
/// per entry), so a string scan is enough — no JSON dependency.
fn parse_bench_entries(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for chunk in text.split("\"name\":").skip(1) {
        let Some(q0) = chunk.find('"') else { continue };
        let rest = &chunk[q0 + 1..];
        let Some(q1) = rest.find('"') else { continue };
        let name = rest[..q1].to_string();
        let Some(p) = rest.find("\"ns_per_op\":") else {
            continue;
        };
        let num: String = rest[p + "\"ns_per_op\":".len()..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((name, v));
        }
    }
    out
}

const EXTRA_USAGE: &str =
    "  --compare PATH           diff against a prior BENCH_<date>.json; exit 1 on regression
  --regress-threshold PCT  regression tolerance for --compare (default 10)";

fn main() {
    // Strip the compare-specific flags before handing the rest to the
    // shared parser (which rejects unknown arguments).
    let mut compare: Option<std::path::PathBuf> = None;
    let mut threshold = 10.0f64;
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--compare" => match args.next() {
                Some(p) => compare = Some(std::path::PathBuf::from(p)),
                None => {
                    eprintln!("error: --compare needs a path\n{USAGE}\n{EXTRA_USAGE}");
                    std::process::exit(2);
                }
            },
            "--regress-threshold" => match args.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(p) if p.is_finite() && p >= 0.0 => threshold = p,
                _ => {
                    eprintln!(
                            "error: --regress-threshold needs a non-negative percentage\n{USAGE}\n{EXTRA_USAGE}"
                        );
                    std::process::exit(2);
                }
            },
            _ => rest.push(a),
        }
    }
    let opts = match FigOpts::parse(rest) {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{USAGE}\n{EXTRA_USAGE}");
            return;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}\n{EXTRA_USAGE}");
            std::process::exit(2);
        }
    };
    // Span-instrumented kernels (FFT, ZF precoder, traffic event loop)
    // accumulate wall-clock stats into the global jmb-obs span table; the
    // report at the end cross-checks the medians measured here.
    jmb_obs::set_spans_enabled(true);
    let (samples, min_batch) = if opts.quick {
        (5, Duration::from_micros(200))
    } else {
        (15, Duration::from_millis(2))
    };
    let mut entries: Vec<Entry> = Vec::new();
    let params = OfdmParams::default();

    // --- FFT (cached plan, in place) -----------------------------------
    {
        let mut buf: Vec<Complex64> = (0..64).map(|i| Complex64::cis(i as f64 * 0.37)).collect();
        let ns = time_median(samples, min_batch, || {
            fft::fft_in_place(&mut buf);
        });
        entries.push(Entry {
            name: "fft64_forward_cached",
            ns_per_op: ns,
            throughput: Some((64.0 / (ns * 1e-9), "samples/s")),
        });
        println!("fft64_forward_cached        {ns:>12.1} ns/op");
    }

    // --- Viterbi --------------------------------------------------------
    {
        let data: Vec<u8> = (0..864).map(|i| ((i * 31 + 7) % 2) as u8).collect();
        let coded = convcode::encode(&data);
        let soft: Vec<f64> = coded
            .iter()
            .map(|&b| if b == 0 { 1.0 } else { -1.0 })
            .collect();
        let ns = time_median(samples, min_batch, || {
            viterbi::decode(&soft).unwrap();
        });
        entries.push(Entry {
            name: "viterbi_864b",
            ns_per_op: ns,
            throughput: Some((864.0 / (ns * 1e-9), "bits/s")),
        });
        println!("viterbi_864b                {ns:>12.1} ns/op");
    }

    // --- ZF precoder, 10×10 over 52 subcarriers -------------------------
    {
        let mut rng = rng_from_seed(1);
        let hs: Vec<CMat> = (0..52)
            .map(|_| {
                CMat::from_vec(
                    10,
                    10,
                    (0..100).map(|_| complex_gaussian(&mut rng, 1.0)).collect(),
                )
            })
            .collect();
        let ns = time_median(samples, min_batch, || {
            jmb_core::precoder::Precoder::zero_forcing(&hs).unwrap();
        });
        entries.push(Entry {
            name: "zf_precoder_10x10_52sc",
            ns_per_op: ns,
            throughput: Some((52.0 / (ns * 1e-9), "subcarriers/s")),
        });
        println!("zf_precoder_10x10_52sc      {ns:>12.1} ns/op");
    }

    // --- Phase-sync correction ------------------------------------------
    {
        use jmb_phy::chanest::ChannelEstimate;
        let subs = params.occupied_subcarriers();
        let reference = ChannelEstimate {
            subcarriers: subs.clone(),
            gains: subs
                .iter()
                .map(|&k| Complex64::cis(0.05 * k as f64))
                .collect(),
        };
        let now = ChannelEstimate {
            subcarriers: subs.clone(),
            gains: subs
                .iter()
                .map(|&k| Complex64::cis(0.05 * k as f64 + 0.8))
                .collect(),
        };
        let mut ps = jmb_core::phasesync::PhaseSync::new();
        ps.set_reference(reference);
        let ns = time_median(samples, min_batch, || {
            ps.correction(&now).unwrap();
        });
        entries.push(Entry {
            name: "phasesync_correction",
            ns_per_op: ns,
            throughput: None,
        });
        println!("phasesync_correction        {ns:>12.1} ns/op");
    }

    // --- Sample-level medium render -------------------------------------
    {
        let mut m = Medium::new(params.clone(), 1);
        let tx = m.add_node(PhaseTrajectory::fixed(2.437e9, 1000.0), 0.0);
        let rx = m.add_node(PhaseTrajectory::fixed(2.437e9, -500.0), 1e-6);
        m.set_link(tx, rx, Link::ideal());
        let wave = jmb_phy::preamble::preamble(&params);
        m.transmit(tx, 0.0, wave);
        let ns = time_median(samples, min_batch, || {
            m.render_rx(rx, 0.0, 320);
        });
        entries.push(Entry {
            name: "medium_render_320_samples",
            ns_per_op: ns,
            throughput: Some((320.0 / (ns * 1e-9), "samples/s")),
        });
        println!("medium_render_320_samples   {ns:>12.1} ns/op");
    }

    // --- End-to-end PHY packet ------------------------------------------
    {
        let tx = FrameTx::new(params.clone());
        let rx = FrameRx::new(params.clone());
        let payload: Vec<u8> = (0..1500).map(|i| i as u8).collect();
        let ns_tx = time_median(samples, min_batch, || {
            tx.tx_frame(Mcs::ALL[5], &payload).unwrap();
        });
        entries.push(Entry {
            name: "phy_tx_1500B_qam16",
            ns_per_op: ns_tx,
            throughput: Some((1500.0 * 8.0 / (ns_tx * 1e-9), "bits/s")),
        });
        println!("phy_tx_1500B_qam16          {ns_tx:>12.1} ns/op");
        let wave = tx.tx_frame(Mcs::ALL[5], &payload).unwrap();
        let ns_rx = time_median(samples, min_batch, || {
            rx.rx_frame(&wave).unwrap();
        });
        entries.push(Entry {
            name: "phy_rx_1500B_qam16",
            ns_per_op: ns_rx,
            throughput: Some((1500.0 * 8.0 / (ns_rx * 1e-9), "bits/s")),
        });
        println!("phy_rx_1500B_qam16          {ns_rx:>12.1} ns/op");
        // The modulation extremes bracket the rx pipeline's mix: BPSK is
        // Viterbi-dominated (longest symbol count per bit), QAM-64 leans on
        // the soft demapper and deinterleaver.
        for (name, mcs) in [
            ("phy_rx_1500B_bpsk", Mcs::ALL[0]),
            ("phy_rx_1500B_qam64", Mcs::ALL[7]),
        ] {
            let wave = tx.tx_frame(mcs, &payload).unwrap();
            let ns = time_median(samples, min_batch, || {
                rx.rx_frame(&wave).unwrap();
            });
            entries.push(Entry {
                name,
                ns_per_op: ns,
                throughput: Some((1500.0 * 8.0 / (ns * 1e-9), "bits/s")),
            });
            println!("{name:<27} {ns:>12.1} ns/op");
        }
    }

    // --- FastNet joint-transmit step (the figure-sweep inner loop) ------
    {
        use jmb_core::fastnet::{FastConfig, FastNet};
        let cfg = FastConfig::default_with(4, 4, vec![25.0; 4], opts.seed);
        let mut net = FastNet::new(cfg).expect("fastnet setup");
        net.run_measurement().expect("measurement");
        net.advance(2e-3);
        let ns = time_median(samples, min_batch, || {
            net.joint_transmit(1e-3, 4, &[], true).unwrap();
        });
        entries.push(Entry {
            name: "fastnet_joint_transmit_4x4",
            ns_per_op: ns,
            throughput: Some((1.0 / (ns * 1e-9), "packets/s")),
        });
        println!("fastnet_joint_transmit_4x4  {ns:>12.1} ns/op");
    }

    // --- City quick sweep (the sharded multi-cell outer loop) -----------
    // One op = a whole 4×4-grid city run (16 cells × 2 coupling epochs),
    // timed at 1 and 4 worker threads so `--compare` catches regressions
    // in both the per-cell cost and the shard dispatch overhead.
    {
        use jmb_city::{City, CityConfig, Reuse};
        for (name, threads) in [("city_quick_4x4_t1", 1usize), ("city_quick_4x4_t4", 4usize)] {
            let mut cfg = CityConfig::default_with(4, 4, Reuse::Three, opts.seed);
            cfg.aps_per_cell = 2;
            cfg.clients_per_cell = 4;
            cfg.duration_s = 0.02;
            cfg.rate_pps = 200.0;
            cfg.threads = threads;
            let cells_per_run = (cfg.cols * cfg.rows * cfg.epochs) as f64;
            let ns = time_median(samples.min(5), min_batch, || {
                City::new(cfg.clone())
                    .expect("city config")
                    .run()
                    .expect("city run");
            });
            entries.push(Entry {
                name,
                ns_per_op: ns,
                throughput: Some((cells_per_run / (ns * 1e-9), "cells/s")),
            });
            println!("{name:<27} {ns:>12.1} ns/op");
        }
    }

    // --- Span report ----------------------------------------------------
    let spans = jmb_obs::span_report();
    if !spans.is_empty() {
        println!("\ninstrumented spans (wall clock, whole run):");
        println!(
            "{:<24} {:>10} {:>14} {:>14}",
            "span", "count", "mean_ns", "max_ns"
        );
        for (name, s) in &spans {
            println!(
                "{name:<24} {:>10} {:>14.1} {:>14}",
                s.count,
                s.mean_ns(),
                s.max_ns
            );
        }
    }

    // --- Optional: dump the joint-transmit step's event trace -----------
    // FastNet only emits events on control-plane faults, so the traced run
    // injects a 30% sync-loss schedule to give the dump something to show.
    if let Some(path) = &opts.trace_out {
        use jmb_core::fastnet::{FastConfig, FastNet};
        use jmb_sim::{FaultConfig, FaultSchedule, JsonLinesSink};
        let cfg = FastConfig::default_with(4, 4, vec![25.0; 4], opts.seed);
        let mut net = FastNet::new(cfg).expect("fastnet setup");
        net.set_fault_schedule(FaultSchedule::constant(
            FaultConfig::builder()
                .sync_loss_chance(0.3)
                .build()
                .expect("valid probability"),
        ));
        net.trace.enable();
        net.trace.set_buffering(false);
        net.trace
            .attach_sink(JsonLinesSink::create(path).expect("open --trace-out file"));
        net.run_measurement().expect("measurement");
        net.advance(2e-3);
        for _ in 0..8 {
            net.joint_transmit_subset(&[0, 1, 2, 3], &[0, 1, 2, 3], 1500, 4, true)
                .unwrap();
            net.advance(1e-3);
        }
        net.trace.flush();
        net.trace.query().assert_monotone_time();
        println!("trace of 8 joint-transmit steps → {}", path.display());
    }

    // --- Emit BENCH_<date>.json at the repo root ------------------------
    let (y, mo, d) = today_utc();
    let date = format!("{y:04}-{mo:02}-{d:02}");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| std::path::PathBuf::from("."));
    let path = root.join(format!("BENCH_{date}.json"));
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"date\": \"{date}\",\n"));
    json.push_str(&format!("  \"seed\": {},\n", opts.seed));
    json.push_str(&format!("  \"quick\": {},\n", opts.quick));
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let name = json_escape_free(e.name);
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"ns_per_op\": {:.1}",
            e.ns_per_op
        ));
        if let Some((v, unit)) = e.throughput {
            json.push_str(&format!(
                ", \"throughput\": {{\"value\": {v:.3e}, \"unit\": \"{unit}\"}}"
            ));
        }
        json.push_str(if i + 1 == entries.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&path, &json).expect("write BENCH json");
    println!("\nwrote {}", path.display());

    // --- Optional comparison against a prior baseline -------------------
    if let Some(base_path) = compare {
        let text = match std::fs::read_to_string(&base_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", base_path.display());
                std::process::exit(2);
            }
        };
        let baseline = parse_bench_entries(&text);
        if baseline.is_empty() {
            eprintln!("error: no entries found in {}", base_path.display());
            std::process::exit(2);
        }
        println!(
            "\ncomparison vs {} (regression threshold +{threshold:.1}%):",
            base_path.display()
        );
        println!(
            "{:<27} {:>14} {:>14} {:>9}",
            "name", "old ns/op", "new ns/op", "delta"
        );
        let mut regressions = Vec::new();
        for e in &entries {
            match baseline.iter().find(|(n, _)| n == e.name) {
                Some((_, old)) => {
                    let delta = (e.ns_per_op - old) / old * 100.0;
                    let flag = if delta > threshold {
                        "  REGRESSION"
                    } else {
                        ""
                    };
                    println!(
                        "{:<27} {:>14.1} {:>14.1} {:>+8.1}%{flag}",
                        e.name, old, e.ns_per_op, delta
                    );
                    if delta > threshold {
                        regressions.push(e.name);
                    }
                }
                None => {
                    println!(
                        "{:<27} {:>14} {:>14.1} {:>9}",
                        e.name, "(new)", e.ns_per_op, "-"
                    );
                }
            }
        }
        for (name, _) in &baseline {
            if !entries.iter().any(|e| e.name == name) {
                println!("{name:<27} {:>14} {:>14} {:>9}", "-", "(gone)", "-");
            }
        }
        if regressions.is_empty() {
            println!("no regressions beyond +{threshold:.1}%");
        } else {
            eprintln!(
                "error: {} entr{} regressed beyond +{threshold:.1}%: {}",
                regressions.len(),
                if regressions.len() == 1 { "y" } else { "ies" },
                regressions.join(", ")
            );
            std::process::exit(1);
        }
    }
}
