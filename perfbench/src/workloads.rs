//! The four workloads, each run as a sequence of passes.
//!
//! A pass is one repetition of a workload's timed phase: set-up (backend,
//! city or manifest construction, including the initial channel
//! measurement), then the simulation. It returns one digest per operation
//! — a cell run, a city run or a scenario run — for the correctness gate.
//! A traced pass additionally wraps the backend in [`Timed`], switches on
//! the `jmb-obs` span table, and returns what it measured in [`PassTrace`].

use crate::clock::{now_ns, secs, timed, SpanLog};
use crate::digest::fnv64;
use crate::wrap::{push_call_spans, Call, Timed};
use jmb_bench::sweeps::{city_config, city_header, csv_text};
use jmb_city::{City, Reuse};
use jmb_core::error::JmbError;
use jmb_core::fastnet::FastConfig;
use jmb_core::net::NetConfig;
use jmb_obs::SpanStat;
use jmb_scenario::{run_manifest, Manifest, RunOptions};
use jmb_traffic::{
    ClientLoad, FastBackend, RunLimits, SampleBackend, TrafficConfig, TrafficSim, TransmitBackend,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One 10 AP × 10 client cell on the per-subcarrier fast path under
    /// saturating load: the paper's Fig. 9 endpoint.
    FastArray,
    /// The 8×8 reuse-3 city of `city_sweep --quick`, sharded over all
    /// cores.
    CityGrid,
    /// One 2×2 cell at sample fidelity: real OFDM frames through the
    /// medium, CRC-checked decodes.
    SampleCell,
    /// Every manifest in `scenarios/`, parsed and run in-process.
    ScenarioCorpus,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::FastArray,
        Workload::CityGrid,
        Workload::SampleCell,
        Workload::ScenarioCorpus,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FastArray => "fast_array",
            Workload::CityGrid => "city_grid",
            Workload::SampleCell => "sample_cell",
            Workload::ScenarioCorpus => "scenario_corpus",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// `fast_array`: APs = clients.
pub const FAST_N: usize = 10;
/// `fast_array`: per-client SNR, dB.
pub const FAST_SNR_DB: f64 = 30.0;
/// `fast_array`: per-client Poisson rate (saturating), packets/s.
pub const FAST_PPS: f64 = 2500.0;
/// `fast_array`: packet size, bytes.
pub const FAST_BYTES: usize = 1500;
/// `fast_array`: load horizon, simulated seconds (drain: half of it).
pub const FAST_DURATION_S: f64 = 0.2;

/// `sample_cell`: APs = clients.
pub const SAMPLE_N: usize = 2;
/// `sample_cell`: per-client SNR, dB.
pub const SAMPLE_SNR_DB: f64 = 22.0;
/// `sample_cell`: per-client Poisson rate, packets/s.
pub const SAMPLE_PPS: f64 = 5000.0;
/// `sample_cell`: packet size, bytes.
pub const SAMPLE_BYTES: usize = 100;
/// `sample_cell`: seed of the cell's channel realization. The realization
/// fixes the MCS the cell selects, and with it the frame length and the
/// host cost of every frame (31–66 ms per frame across channel seeds), so
/// it is held fixed; `--seed` drives the traffic.
pub const SAMPLE_CHANNEL_SEED: u64 = 1;
/// `sample_cell`: load horizon, simulated seconds (drain: half of it).
pub const SAMPLE_DURATION_S: f64 = 0.005;

/// Inputs shared by every pass of a run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Master seed of every generated input.
    pub seed: u64,
    /// Worker threads for the city (the host's core count).
    pub threads: usize,
    /// The scenario corpus: `(file stem, manifest text)`, by file name.
    pub manifests: Vec<(String, String)>,
}

impl Ctx {
    /// Builds the context, reading the corpus from `scenario_dir`.
    pub fn new(seed: u64, threads: usize, scenario_dir: &Path) -> Result<Ctx, String> {
        let mut manifests = Vec::new();
        let dir = std::fs::read_dir(scenario_dir)
            .map_err(|e| format!("{}: {e}", scenario_dir.display()))?;
        for entry in dir {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.extension().is_some_and(|x| x == "scn") {
                let stem = path
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default();
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                manifests.push((stem, text));
            }
        }
        if manifests.is_empty() {
            return Err(format!("{}: no .scn manifests", scenario_dir.display()));
        }
        manifests.sort();
        Ok(Ctx {
            seed,
            threads,
            manifests,
        })
    }

    /// The host's core count, as the city sweep resolves it.
    pub fn host_threads() -> usize {
        city_config(true, Reuse::Three, 1, None).threads
    }
}

/// One checked operation of a pass: a cell run, a city run or a scenario
/// run.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// `<workload>/<operation>`.
    pub label: String,
    /// The output digest, or why the operation failed.
    pub result: Result<String, String>,
    /// Host seconds of the operation's simulation.
    pub wall_s: f64,
    /// Joint transmissions the operation simulated.
    pub frames: u64,
}

impl Op {
    /// An operation that errored or panicked.
    pub fn failed(label: String, why: impl ToString) -> Op {
        Op {
            label,
            result: Err(why.to_string()),
            wall_s: 0.0,
            frames: 0,
        }
    }
}

/// Everything a traced pass measured.
#[derive(Debug, Clone, Default)]
pub struct PassTrace {
    /// Benchmark-side spans; the root is the pass.
    pub log: SpanLog,
    /// Calls into the wrapped backend.
    pub calls: Vec<Call>,
    /// `jmb-obs` span totals over the pass.
    pub obs: Vec<(&'static str, SpanStat)>,
    /// Simulation events processed.
    pub events: u64,
    /// MAC retries.
    pub retries: u64,
    /// Joint transmissions.
    pub transmissions: u64,
    /// Per manifest: `(name, parse seconds, run seconds)`.
    pub scenarios: Vec<(String, f64, f64)>,
    /// The corpus's `trace.jsonl` texts.
    pub traces: Vec<String>,
}

/// One repetition of a workload's timed phase.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host seconds of set-up.
    pub setup_s: f64,
    /// The operations run, with their digests and timings.
    pub ops: Vec<Op>,
    /// Layer measurements, for a traced pass.
    pub trace: Option<PassTrace>,
}

impl Pass {
    /// Host seconds of simulation, summed over the operations.
    pub fn wall_s(&self) -> f64 {
        self.ops.iter().map(|o| o.wall_s).sum()
    }
}

/// Runs one pass of `w`. `threads` overrides the city's worker count.
/// Errors and panics come back as failed operations, never as a panic.
pub fn run_pass(w: Workload, ctx: &Ctx, threads: usize, traced: bool) -> Pass {
    if traced {
        jmb_obs::reset_spans();
        jmb_obs::set_spans_enabled(true);
    }
    let out = catch_unwind(AssertUnwindSafe(|| match w {
        Workload::FastArray => fast_array(ctx, traced),
        Workload::CityGrid => city_grid(ctx, threads, traced),
        Workload::SampleCell => sample_cell(ctx, traced),
        Workload::ScenarioCorpus => scenario_corpus(ctx, threads, traced),
    }));
    jmb_obs::set_spans_enabled(false);
    let mut pass = out.unwrap_or_else(|p| {
        let why = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string());
        failed(format!("{}/pass", w.name()), format!("panicked: {why}"))
    });
    if let Some(t) = pass.trace.as_mut() {
        t.obs = jmb_obs::span_report();
    }
    pass
}

/// Runs `f` repeatedly until a millisecond has passed and returns the
/// last result with the mean seconds per call, so that set-ups too short
/// to time singly are still measured.
fn repeated_setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let t0 = now_ns();
    let mut n = 1u32;
    let mut out = f();
    while secs(t0, now_ns()) < 1e-3 && n < 10_000 {
        out = f();
        n += 1;
    }
    (out, secs(t0, now_ns()) / f64::from(n))
}

fn failed(label: String, why: impl ToString) -> Pass {
    Pass {
        ops: vec![Op::failed(label, why)],
        ..Pass::default()
    }
}

/// The `fast_array` cell's configuration.
pub fn fast_array_config(seed: u64) -> (FastConfig, TrafficConfig) {
    let cfg = FastConfig::default_with(FAST_N, FAST_N, vec![FAST_SNR_DB; FAST_N], seed);
    let loads = vec![ClientLoad::poisson(FAST_PPS, FAST_BYTES); FAST_N];
    let mut tcfg = TrafficConfig::default_with(loads, seed);
    tcfg.duration_s = FAST_DURATION_S;
    tcfg.drain_timeout_s = FAST_DURATION_S * 0.5;
    (cfg, tcfg)
}

/// The `sample_cell` cell's configuration: channel from
/// [`SAMPLE_CHANNEL_SEED`], arrivals and backoff from `seed`.
pub fn sample_cell_config(seed: u64) -> (NetConfig, TrafficConfig) {
    let cfg = NetConfig::default_with(SAMPLE_N, SAMPLE_N, SAMPLE_SNR_DB, SAMPLE_CHANNEL_SEED);
    let loads = vec![ClientLoad::poisson(SAMPLE_PPS, SAMPLE_BYTES); SAMPLE_N];
    let mut tcfg = TrafficConfig::default_with(loads, seed);
    tcfg.duration_s = SAMPLE_DURATION_S;
    tcfg.drain_timeout_s = SAMPLE_DURATION_S * 0.5;
    (cfg, tcfg)
}

fn fast_array(ctx: &Ctx, traced: bool) -> Pass {
    let (cfg, tcfg) = fast_array_config(ctx.seed);
    cell_pass(Workload::FastArray, "fastnet", tcfg, traced, || {
        FastBackend::new(cfg)
    })
}

fn sample_cell(ctx: &Ctx, traced: bool) -> Pass {
    let (cfg, tcfg) = sample_cell_config(ctx.seed);
    cell_pass(Workload::SampleCell, "net", tcfg, traced, || {
        SampleBackend::new(cfg)
    })
}

/// Digest of one cell run: its CSV row plus the transmission count.
pub fn cell_digest(m: &jmb_traffic::TrafficMetrics) -> String {
    fnv64(format!("{},{}", m.csv_row().join(","), m.transmissions).as_bytes())
}

/// One single-cell pass: backend construction is set-up, the traffic
/// event loop is the timed simulation. Traced, the backend is wrapped and
/// its calls become children of the `traffic.run` span.
fn cell_pass<B: TransmitBackend>(
    w: Workload,
    layer: &str,
    tcfg: TrafficConfig,
    traced: bool,
    build: impl FnOnce() -> Result<B, JmbError>,
) -> Pass {
    let label = format!("{}/cell", w.name());
    let t0 = now_ns();
    let backend = match build() {
        Ok(b) => b,
        Err(e) => return failed(label, e),
    };
    let t1 = now_ns();
    let (run, calls, t2) = if traced {
        let mut sim = match TrafficSim::new(tcfg, Timed::new(backend)) {
            Ok(s) => s,
            Err(e) => return failed(label, e),
        };
        let run = sim.run_bounded(RunLimits::none());
        let t2 = now_ns();
        (run, Some(sim.backend_mut().calls().to_vec()), t2)
    } else {
        let mut sim = match TrafficSim::new(tcfg, backend) {
            Ok(s) => s,
            Err(e) => return failed(label, e),
        };
        let run = sim.run_bounded(RunLimits::none());
        (run, None, now_ns())
    };
    let m = &run.metrics;
    let trace = calls.map(|calls| {
        let mut log = SpanLog::default();
        let root = log.push("pass", t0, t2, None);
        log.push("setup", t0, t1, Some(root));
        let loop_span = log.push("traffic.run", t1, t2, Some(root));
        push_call_spans(&mut log, &calls, layer, Some(loop_span));
        PassTrace {
            log,
            calls,
            events: run.events,
            retries: m.retries,
            transmissions: m.transmissions,
            ..PassTrace::default()
        }
    });
    Pass {
        setup_s: secs(t0, t1),
        ops: vec![Op {
            label,
            result: Ok(cell_digest(m)),
            wall_s: secs(t1, t2),
            frames: m.transmissions,
        }],
        trace,
    }
}

/// The city's CSV rows, formatted exactly as `sweeps::city_point` writes
/// them.
pub fn city_rows(report: &jmb_city::CityReport) -> Vec<Vec<String>> {
    let reuse = report.cfg.reuse.factor().to_string();
    let mut rows = Vec::new();
    for c in &report.cells {
        let mut row = vec![
            reuse.clone(),
            c.cell.to_string(),
            c.color.to_string(),
            format!("{:.6}", c.inr_db),
        ];
        row.extend(c.metrics.csv_row());
        rows.push(row);
    }
    let mut pooled = vec![
        reuse,
        "all".to_string(),
        "-".to_string(),
        format!("{:.6}", report.mean_inr_db()),
    ];
    pooled.extend(report.pooled.csv_row());
    rows.push(pooled);
    rows
}

fn city_grid(ctx: &Ctx, threads: usize, traced: bool) -> Pass {
    let label = "city_grid/city".to_string();
    let t0 = now_ns();
    let (city, setup_s) =
        repeated_setup(|| City::new(city_config(true, Reuse::Three, ctx.seed, Some(threads))));
    let mut city = match city {
        Ok(c) => c,
        Err(e) => return failed(label, e),
    };
    let t1 = now_ns();
    let report = match city.run() {
        Ok(r) => r,
        Err(e) => return failed(label, e),
    };
    let t2 = now_ns();
    let digest = fnv64(csv_text(&city_header(), &city_rows(&report)).as_bytes());
    let trace = traced.then(|| {
        let mut log = SpanLog::default();
        let root = log.push("pass", t0, t2, None);
        log.push("setup", t0, t1, Some(root));
        log.push("city.run", t1, t2, Some(root));
        PassTrace {
            log,
            retries: report.pooled.retries,
            transmissions: report.pooled.transmissions,
            ..PassTrace::default()
        }
    });
    Pass {
        setup_s,
        ops: vec![Op {
            label,
            result: Ok(digest),
            wall_s: secs(t1, t2),
            frames: report.pooled.transmissions,
        }],
        trace,
    }
}

/// Joint transmissions recorded in a scenario trace.
fn batches_in_trace(trace_jsonl: &str) -> u64 {
    trace_jsonl.matches("\"kind\":\"BatchSelected\"").count() as u64
}

fn scenario_corpus(ctx: &Ctx, threads: usize, traced: bool) -> Pass {
    let opts = RunOptions {
        seed: Some(ctx.seed),
        threads: Some(threads),
    };
    let mut pass = Pass::default();
    let mut t = PassTrace::default();
    let root = t.log.open("pass", None);
    for (name, text) in &ctx.manifests {
        let label = format!("scenario_corpus/{name}");
        let t0 = now_ns();
        let (parsed, parse_s) = repeated_setup(|| Manifest::parse(text));
        pass.setup_s += parse_s;
        let m = match parsed {
            Ok(m) => m,
            Err(e) => {
                pass.ops.push(Op::failed(label, e));
                continue;
            }
        };
        let t1 = now_ns();
        let (out, run_s) = timed(|| run_manifest(&m, &opts));
        let t2 = now_ns();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                pass.ops.push(Op::failed(label, e));
                continue;
            }
        };
        let result_json = out.report.to_json();
        let batches = batches_in_trace(&out.trace_jsonl);
        pass.ops.push(Op {
            label,
            result: Ok(format!(
                "result={},trace={},verdict={}",
                fnv64(result_json.as_bytes()),
                fnv64(out.trace_jsonl.as_bytes()),
                out.report.verdict.name()
            )),
            wall_s: run_s,
            frames: batches,
        });
        if traced {
            let s = t.log.push("scenario", t0, t2, Some(root));
            t.log.push("scenario.parse", t0, t1, Some(s));
            t.log.push("scenario.run", t1, t2, Some(s));
            t.events += out.report.events;
            t.transmissions += batches;
            t.retries += out
                .report
                .metrics
                .iter()
                .find(|(k, _)| k == "retries")
                .map_or(0, |&(_, v)| v as u64);
            t.scenarios.push((name.clone(), parse_s, run_s));
            t.traces.push(out.trace_jsonl);
        }
    }
    t.log.close(root);
    if traced {
        pass.trace = Some(t);
    }
    pass
}
