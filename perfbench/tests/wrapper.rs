//! The instrument must not change what it measures: the wrapped, traced
//! run produces the untraced run's bytes, and its spans account for the
//! run's wall time.

use jmb_bench::sweeps::{city_point, SweepSettings};
use jmb_city::Reuse;
use jmb_core::experiment::SchedulePolicy;
use jmb_traffic::{FastBackend, SampleBackend, TrafficSim};
use perfbench::digest::{parse_pins, BUILTIN_PINS, PINNED_SEED};
use perfbench::workloads::{
    cell_digest, city_rows, fast_array_config, run_pass, sample_cell_config, Ctx, Workload,
};
use perfbench::wrap::Timed;
use std::path::Path;

fn ctx() -> Ctx {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../scenarios");
    Ctx::new(PINNED_SEED, 2, &dir).expect("scenario corpus")
}

#[test]
fn wrapped_fast_backend_is_a_pass_through() {
    let (cfg, tcfg) = fast_array_config(PINNED_SEED);
    let bare = TrafficSim::new(tcfg.clone(), FastBackend::new(cfg.clone()).unwrap())
        .unwrap()
        .run();
    let mut sim = TrafficSim::new(tcfg, Timed::new(FastBackend::new(cfg).unwrap())).unwrap();
    let wrapped = sim.run();
    assert_eq!(cell_digest(&bare), cell_digest(&wrapped));
    assert!(sim.backend_mut().calls().len() as u64 > wrapped.transmissions);
}

#[test]
fn wrapped_sample_backend_is_a_pass_through() {
    let (cfg, tcfg) = sample_cell_config(PINNED_SEED);
    let bare = TrafficSim::new(tcfg.clone(), SampleBackend::new(cfg.clone()).unwrap())
        .unwrap()
        .run();
    let wrapped = TrafficSim::new(tcfg, Timed::new(SampleBackend::new(cfg).unwrap()))
        .unwrap()
        .run();
    assert_eq!(cell_digest(&bare), cell_digest(&wrapped));
}

/// Traced and untraced passes give the same, pinned digests on every
/// workload, and a traced cell's event-loop self time plus backend busy
/// time covers at least 95% of its simulation wall time. One test, since
/// the `jmb-obs` span table a traced pass switches on is process-global.
#[test]
fn traced_passes_match_pins_and_account_for_their_wall_time() {
    let ctx = ctx();
    let pins = parse_pins(BUILTIN_PINS).unwrap();
    for w in Workload::ALL {
        let bare = run_pass(w, &ctx, ctx.threads, false);
        let traced = run_pass(w, &ctx, ctx.threads, true);
        let digests = |p: &perfbench::workloads::Pass| -> Vec<_> {
            p.ops
                .iter()
                .map(|o| (o.label.clone(), o.result.clone()))
                .collect()
        };
        assert_eq!(digests(&bare), digests(&traced), "{}", w.name());
        for op in &bare.ops {
            assert_eq!(op.result.as_ref().ok(), pins.get(&op.label), "{}", op.label);
        }
        let layer = match w {
            Workload::FastArray => "fastnet",
            Workload::SampleCell => "net",
            Workload::CityGrid | Workload::ScenarioCorpus => continue,
        };
        let wall_s = traced.wall_s();
        let t = traced.trace.expect("traced pass");
        let busy = t.log.total_s(&format!("{layer}.transmit_batch"))
            + t.log.total_s(&format!("{layer}.advance"));
        let self_s = t.log.self_s("traffic.run");
        let share = (self_s + busy) / wall_s;
        assert!(share >= 0.95, "{}: spans cover {share:.3}", w.name());
    }
}

#[test]
fn city_rows_match_the_city_sweep() {
    let set = SweepSettings {
        seed: PINNED_SEED,
        quick: true,
        threads: Some(2),
        schedule: SchedulePolicy::Natural,
    };
    let mut rows = Vec::new();
    let report = city_point(&set, Reuse::Three, None, &mut rows).unwrap();
    assert_eq!(city_rows(&report), rows);
}
