//! Runs a workload for a time budget, checks every operation, and turns
//! the passes into the end-to-end or per-layer metrics.

use crate::clock::{median, now_ns, percentile, secs, SpanLog};
use crate::digest::Expect;
use crate::probes;
use crate::workloads::{run_pass, Ctx, Pass, PassTrace, Workload};
use crate::wrap::CallKind;
use std::collections::BTreeMap;

/// Passes every measurement takes the median over, at least.
pub const MIN_PASSES: usize = 3;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
        unit,
    }
}

/// The correctness gate: every operation's digest against its expected
/// value.
#[derive(Debug)]
pub struct Gate {
    expect: Expect,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that errored, panicked or missed their digest, each
    /// with the reason.
    pub failures: Vec<String>,
    /// The first digest seen per operation, in label order.
    pub digests: BTreeMap<String, String>,
}

impl Gate {
    /// A gate checking against `expect`.
    pub fn new(expect: Expect) -> Self {
        Gate {
            expect,
            attempted: 0,
            failures: Vec::new(),
            digests: Default::default(),
        }
    }

    /// Checks every operation of `pass`.
    pub fn check(&mut self, pass: &Pass) {
        for op in &pass.ops {
            self.attempted += 1;
            let res = op.result.clone().and_then(|d| {
                self.digests
                    .entry(op.label.clone())
                    .or_insert_with(|| d.clone());
                self.expect.check(&op.label, &d)
            });
            if let Err(e) = res {
                self.failures.push(format!("{}: {e}", op.label));
            }
        }
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Benchmark-side spans of the traced passes, under one root per run.
    pub spans: SpanLog,
}

/// Peak resident memory of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `w` untraced for about `seconds` after one warm-up pass and
/// returns the end-to-end metrics: `wall_s` sums each operation's median
/// repetition, `setup_s` is the median pass's set-up.
pub fn end_to_end(w: Workload, ctx: &Ctx, seconds: f64, gate: &mut Gate) -> Outcome {
    gate.check(&run_pass(w, ctx, ctx.threads, false));
    let t0 = now_ns();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || secs(t0, now_ns()) < seconds {
        let p = run_pass(w, ctx, ctx.threads, false);
        gate.check(&p);
        println!(
            "pass {} setup_s={:.6} wall_s={:.6} frames={}",
            passes.len(),
            p.setup_s,
            p.wall_s(),
            p.ops.iter().map(|o| o.frames).sum::<u64>()
        );
        passes.push(p);
    }
    // Every pass repeats identical work (the gate checks that each
    // operation reproduces its digest): per operation, the median
    // repetition.
    let mut reps: BTreeMap<&str, (Vec<f64>, u64)> = BTreeMap::new();
    for op in passes.iter().flat_map(|p| &p.ops) {
        let e = reps.entry(&op.label).or_default();
        e.0.push(op.wall_s);
        e.1 = op.frames;
    }
    let wall_s: f64 = reps.values().map(|v| median(&v.0)).sum();
    let frames: u64 = reps.values().map(|v| v.1).sum();
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    Outcome {
        metrics: vec![
            metric("wall_s", wall_s, "s"),
            metric("frames_per_s", frames as f64 / wall_s, "frames/s"),
            metric("setup_s", median(&setups), "s"),
            metric("peak_rss_mb", peak_rss_mib(), "MiB"),
        ],
        spans: SpanLog::default(),
    }
}

/// The backend layer a workload's cells run on, if the benchmark can wrap
/// it.
fn wrapped_layer(w: Workload) -> Option<&'static str> {
    match w {
        Workload::FastArray => Some("fastnet"),
        Workload::SampleCell => Some("net"),
        Workload::CityGrid | Workload::ScenarioCorpus => None,
    }
}

/// Runs `w` traced: untraced and traced passes alternate for about
/// `seconds` (the city adds single-threaded passes to the rotation), then
/// the layer probes run. Returns the per-layer metrics.
pub fn per_layer(w: Workload, ctx: &Ctx, seconds: f64, gate: &mut Gate) -> Result<Outcome, String> {
    gate.check(&run_pass(w, ctx, ctx.threads, false));
    let mut spans = SpanLog::default();
    let root = spans.open(&format!("run.{}", w.name()), None);
    let mut single: Vec<f64> = Vec::new();
    let mut traced: Vec<PassTrace> = Vec::new();
    // Ratios of passes run back to back, so that a host slowdown lasting
    // longer than a pass cancels: traced ÷ untraced, 1 thread ÷ all.
    let mut overhead: Vec<f64> = Vec::new();
    let mut speedup: Vec<f64> = Vec::new();
    let t0 = now_ns();
    while traced.len() < MIN_PASSES || secs(t0, now_ns()) < 0.8 * seconds {
        let p = run_pass(w, ctx, ctx.threads, false);
        gate.check(&p);
        let bare_s = p.wall_s();
        let mut p = run_pass(w, ctx, ctx.threads, true);
        gate.check(&p);
        overhead.push(p.wall_s() / bare_s - 1.0);
        if let Some(t) = p.trace.take() {
            spans.adopt(t.log.clone(), Some(root));
            traced.push(t);
        }
        if w == Workload::CityGrid {
            let p = run_pass(w, ctx, 1, false);
            gate.check(&p);
            single.push(p.wall_s());
            speedup.push(p.wall_s() / bare_s);
        }
    }
    let probe_budget_s = (0.02 * seconds).clamp(0.05, 0.5);
    let probes = probes::run(ctx.seed, probe_budget_s)?;
    let obs = match traced.first() {
        Some(t) if !t.traces.is_empty() => Some(probes::obs(&t.traces, 2.0 * probe_budget_s)?),
        _ => None,
    };
    spans.close(root);

    let per_pass = |f: &dyn Fn(&PassTrace) -> f64| -> f64 {
        median(&traced.iter().map(f).collect::<Vec<_>>())
    };
    let obs_span = |t: &PassTrace, names: &[&str]| -> (f64, f64) {
        t.obs
            .iter()
            .filter(|(n, _)| names.contains(n))
            .fold((0.0, 0.0), |(c, s), (_, st)| {
                (c + st.count as f64, s + st.total_ns as f64 * 1e-9)
            })
    };
    let mut m = Vec::new();

    // jmb-traffic + core::mac: the event loop's own time, outside the
    // wrapped backend.
    let self_s = per_pass(&|t| t.log.self_s("traffic.run"));
    let events = per_pass(&|t| t.events as f64);
    m.push(metric("traffic.self_s", self_s, "s"));
    m.push(metric("traffic.events", events, "count"));
    m.push(metric(
        "traffic.ns_per_event",
        if events > 0.0 && wrapped_layer(w).is_some() {
            self_s * 1e9 / events
        } else {
            0.0
        },
        "ns/event",
    ));
    let fills: Vec<f64> = traced
        .iter()
        .flat_map(|t| &t.calls)
        .filter(|c| c.kind == CallKind::Transmit && c.active_aps > 0)
        .map(|c| c.dests as f64 / c.active_aps as f64)
        .collect();
    m.push(metric(
        "mac.batch_fill",
        fills.iter().sum::<f64>() / fills.len().max(1) as f64,
        "ratio",
    ));
    m.push(metric(
        "traffic.retry_frac",
        per_pass(&|t| t.retries as f64 / t.transmissions.max(1) as f64),
        "ratio",
    ));

    // The wrapped backends: core::fastnet (FastBackend) and core::net
    // (SampleBackend).
    for layer in ["fastnet", "net"] {
        let on = wrapped_layer(w) == Some(layer);
        let tx_name = format!("{layer}.transmit_batch");
        let tx_us: Vec<f64> = traced
            .iter()
            .flat_map(|t| t.log.durations_ns(&tx_name))
            .map(|ns| ns as f64 * 1e-3)
            .collect();
        let calls = per_pass(&|t| t.log.durations_ns(&tx_name).len() as f64);
        m.push(metric(format!("{layer}.tx_calls"), calls, "count"));
        m.push(metric(
            format!("{layer}.tx_busy_s"),
            per_pass(&|t| t.log.total_s(&tx_name)),
            "s",
        ));
        m.push(metric(
            format!("{layer}.tx_us_p50"),
            percentile(&tx_us, 0.5),
            "us",
        ));
        m.push(metric(
            format!("{layer}.tx_us_p90"),
            percentile(&tx_us, 0.9),
            "us",
        ));
        if layer == "fastnet" {
            m.push(metric(
                "fastnet.advance_busy_s",
                per_pass(&|t| t.log.total_s("fastnet.advance")),
                "s",
            ));
            let remeasure_us: Vec<f64> = traced
                .iter()
                .flat_map(|t| &t.calls)
                .filter(|c| on && c.remeasured)
                .map(|c| secs(c.start_ns, c.end_ns) * 1e6)
                .collect();
            m.push(metric(
                "fastnet.remeasure_calls",
                if on {
                    per_pass(&|t| t.calls.iter().filter(|c| c.remeasured).count() as f64)
                } else {
                    0.0
                },
                "count",
            ));
            m.push(metric(
                "fastnet.remeasure_us_p50",
                percentile(&remeasure_us, 0.5),
                "us",
            ));
        }
    }

    // core::precoder and dsp::fft, from the program's own jmb-obs spans.
    m.push(metric(
        "precoder.calls",
        per_pass(&|t| obs_span(t, &["zf_precoder"]).0),
        "count",
    ));
    m.push(metric(
        "precoder.busy_s",
        per_pass(&|t| obs_span(t, &["zf_precoder"]).1),
        "s",
    ));
    m.push(metric("precoder.zf_10x10_us", probes.zf_big_us, "us"));
    m.push(metric("precoder.zf_2x2_us", probes.zf_small_us, "us"));
    m.push(metric(
        "medium.render_ns_per_sample",
        probes.medium_render_ns_per_sample,
        "ns/sample",
    ));
    m.push(metric("phy.tx_frame_us", probes.phy_tx_frame_us, "us"));
    m.push(metric("phy.rx_frame_us", probes.phy_rx_frame_us, "us"));
    const FFT: &[&str] = &["fft_forward", "fft_inverse"];
    m.push(metric(
        "dsp.fft_calls",
        per_pass(&|t| obs_span(t, FFT).0),
        "count",
    ));
    m.push(metric(
        "dsp.fft_busy_s",
        per_pass(&|t| obs_span(t, FFT).1),
        "s",
    ));

    // jmb-city + experiment::parallel_map.
    let city = w == Workload::CityGrid;
    const LOOP: &[&str] = &["traffic_event_loop"];
    let (cell_runs, cell_busy_s) = if city {
        (
            per_pass(&|t| obs_span(t, LOOP).0),
            per_pass(&|t| obs_span(t, LOOP).1),
        )
    } else {
        (0.0, 0.0)
    };
    m.push(metric("city.cell_runs", cell_runs, "count"));
    m.push(metric("city.cell_busy_s", cell_busy_s, "s"));
    m.push(metric("experiment.t1_wall_s", median(&single), "s"));
    m.push(metric("experiment.speedup", median(&speedup), "ratio"));

    // jmb-scenario.
    m.push(metric(
        "scenario.parse_us",
        per_pass(&|t| t.scenarios.iter().map(|s| s.1).sum::<f64>() * 1e6),
        "us",
    ));
    for (name, _) in &ctx.manifests {
        m.push(metric(
            format!("scenario.run_s.{name}"),
            per_pass(&|t| {
                t.scenarios
                    .iter()
                    .find(|s| &s.0 == name)
                    .map_or(0.0, |s| s.2)
            }),
            "s",
        ));
    }

    // jmb-obs JSON over the corpus's own traces.
    let obs = obs.unwrap_or_default();
    m.push(metric("obs.trace_bytes", obs.bytes as f64, "bytes"));
    m.push(metric("obs.encode_mb_per_s", obs.encode_mb_per_s, "MB/s"));
    m.push(metric("obs.decode_mb_per_s", obs.decode_mb_per_s, "MB/s"));

    // The instrument itself.
    m.push(metric(
        "bench.trace_overhead_frac",
        median(&overhead),
        "ratio",
    ));
    Ok(Outcome { metrics: m, spans })
}
