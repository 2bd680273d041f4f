//! Direct probes of single layers, sized from the workloads.
//!
//! `sample_cell` supplies the MCS its backend selected, its payload size,
//! its links and its frame length; `fast_array` supplies the array size.
//! Each probe warms up, then reports the median over batches of calls.

use crate::clock::{median_call_ns, timed};
use crate::workloads::{sample_cell_config, FAST_N, SAMPLE_BYTES, SAMPLE_N};
use jmb_core::precoder::Precoder;
use jmb_dsp::matrix::CMat;
use jmb_obs::Event;
use jmb_phy::frame::{FrameRx, FrameTx};
use jmb_traffic::SampleBackend;
use std::hint::black_box;

/// Occupied subcarriers the precoder solves for.
pub const SUBCARRIERS: usize = 52;

/// Probe results, host time.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeReport {
    /// `FrameTx::tx_frame` at the sample cell's MCS and payload, µs.
    pub phy_tx_frame_us: f64,
    /// `FrameRx::rx_frame` of that frame, µs.
    pub phy_rx_frame_us: f64,
    /// `Medium::render_rx` of the cell's joint frame at one client, ns
    /// per rendered sample.
    pub medium_render_ns_per_sample: f64,
    /// `Precoder::zero_forcing` at the fast array's size, µs.
    pub zf_big_us: f64,
    /// `Precoder::zero_forcing` at the sample cell's size, µs.
    pub zf_small_us: f64,
}

/// Runs every layer probe, spending about `budget_s` on each.
pub fn run(seed: u64, budget_s: f64) -> Result<ProbeReport, String> {
    let (cfg, _) = sample_cell_config(seed);
    let params = cfg.params.clone();
    let mut backend = SampleBackend::new(cfg).map_err(|e| e.to_string())?;
    let mcs = backend.mcs();
    let payload: Vec<u8> = (0..SAMPLE_BYTES)
        .map(|i| (i as u8).wrapping_mul(7))
        .collect();

    let tx = FrameTx::new(params.clone());
    let rx = FrameRx::new(params.clone());
    let wave = tx.tx_frame(mcs, &payload).map_err(|e| e.to_string())?;
    rx.rx_frame(&wave).map_err(|e| e.to_string())?;
    let phy_tx_frame_us = median_call_ns(budget_s, || {
        black_box(tx.tx_frame(mcs, black_box(&payload)).ok());
    }) * 1e-3;
    let phy_rx_frame_us = median_call_ns(budget_s, || {
        black_box(rx.rx_frame(black_box(&wave)).ok());
    }) * 1e-3;

    // Every AP of the cell transmits the frame at once; one client renders
    // it through the cell's own links, oscillators and noise.
    let net = backend.net_mut();
    let aps = net.ap_nodes().to_vec();
    let client = net.client_nodes()[0];
    let t = net.now() + 1e-3;
    let medium = net.medium_mut();
    medium.clear_transmissions();
    for &ap in &aps {
        medium.transmit(ap, t, wave.clone());
    }
    let n = wave.len() + 16;
    let medium_render_ns_per_sample = median_call_ns(budget_s, || {
        black_box(medium.render_rx(client, t, n));
    }) / n as f64;

    let zf_big_us = zf_probe(FAST_N, seed, budget_s)?;
    let zf_small_us = zf_probe(SAMPLE_N, seed, budget_s)?;
    Ok(ProbeReport {
        phy_tx_frame_us,
        phy_rx_frame_us,
        medium_render_ns_per_sample,
        zf_big_us,
        zf_small_us,
    })
}

/// Median µs of one `n × n` zero-forcing solve over [`SUBCARRIERS`]
/// Rayleigh channel matrices drawn from `seed`.
fn zf_probe(n: usize, seed: u64, budget_s: f64) -> Result<f64, String> {
    let mut rng = jmb_dsp::rng::derive_rng(seed, 0x2F00 + n as u64);
    let h: Vec<CMat> = (0..SUBCARRIERS)
        .map(|_| {
            let data = (0..n * n)
                .map(|_| jmb_dsp::rng::complex_gaussian(&mut rng, 1.0))
                .collect();
            CMat::from_vec(n, n, data)
        })
        .collect();
    Precoder::zero_forcing(&h).map_err(|e| e.to_string())?;
    Ok(median_call_ns(budget_s, || {
        black_box(Precoder::zero_forcing(black_box(&h)).ok());
    }) * 1e-3)
}

/// `jmb-obs` JSON throughput over real traces.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsReport {
    /// Bytes of trace text.
    pub bytes: u64,
    /// `Event::to_json`, MB of JSON produced per host second.
    pub encode_mb_per_s: f64,
    /// `Event::from_json`, MB of JSON consumed per host second.
    pub decode_mb_per_s: f64,
}

/// Decodes every line of `traces` with `Event::from_json` and re-encodes
/// the events with `Event::to_json`, for about `budget_s` each. `Err` if
/// a line fails to decode or does not re-encode to the same bytes.
pub fn obs(traces: &[String], budget_s: f64) -> Result<ObsReport, String> {
    let lines: Vec<&str> = traces.iter().flat_map(|t| t.lines()).collect();
    let bytes: usize = lines.iter().map(|l| l.len()).sum();
    let events: Vec<Event> = lines
        .iter()
        .map(|l| Event::from_json(l).ok_or_else(|| format!("undecodable trace line: {l}")))
        .collect::<Result<_, _>>()?;
    if let Some((l, e)) = lines.iter().zip(&events).find(|(l, e)| e.to_json() != **l) {
        return Err(format!(
            "trace line does not round-trip: {l} -> {}",
            e.to_json()
        ));
    }
    let mb = bytes as f64 / 1e6;
    let decode_s = repeat_median(budget_s, || {
        for l in &lines {
            black_box(Event::from_json(black_box(l)));
        }
    });
    let encode_s = repeat_median(budget_s, || {
        for e in &events {
            black_box(black_box(e).to_json());
        }
    });
    Ok(ObsReport {
        bytes: bytes as u64,
        encode_mb_per_s: mb / encode_s,
        decode_mb_per_s: mb / decode_s,
    })
}

/// Median host seconds of `f` over at least three repetitions filling
/// about `budget_s`.
fn repeat_median(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let mut xs = Vec::new();
    let mut spent = 0.0;
    while xs.len() < 3 || spent < budget_s {
        let ((), s) = timed(&mut f);
        xs.push(s);
        spent += s;
    }
    crate::clock::median(&xs)
}
