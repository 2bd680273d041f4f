//! The sample-level JMB protocol testbench.
//!
//! This module wires the whole system together over the physical
//! ([`jmb_sim::Medium`]) simulator: a lead AP, slave APs, and clients, each
//! with a free-running oscillator, exchanging real OFDM waveforms.
//!
//! A [`JmbNetwork`] runs the paper's two protocol phases:
//!
//! * [`JmbNetwork::run_measurement`] — the channel-measurement phase
//!   (§5.1): the interleaved measurement packet of [`crate::measure`] is
//!   transmitted; every client estimates per-AP channels referred to one
//!   reference time and "feeds them back" (returned as data — the paper's
//!   feedback is an ordinary wireless transfer we model as reliable);
//!   every slave stores its reference channel `h_lead(0)`.
//! * [`JmbNetwork::joint_transmit`] — the data-transmission phase (§5.2):
//!   the lead prefixes a sync header; slaves re-measure the lead channel,
//!   compute their direct phase correction, and join after the software
//!   turnaround (`t_Δ = 150 µs`, §10a); clients receive the superposition
//!   and decode with a completely standard 802.11-style receiver.
//!
//! [`JmbNetwork::misalignment_probe`] reproduces the Fig. 7 experiment: the
//! lead and one slave alternate OFDM symbols and the receiver tracks the
//! deviation of their relative phase from its first observation.

// Hot path: no panicking calls outside tests (DESIGN.md §3.10).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_macros
    )
)]

use crate::csi::SyncHealth;
use crate::error::JmbError;
use crate::measure::{self, MeasurementPlan};
use crate::phasesync::PhaseSync;
use crate::precoder::Precoder;
use jmb_channel::multipath::{Multipath, MultipathSpec};
use jmb_channel::oscillator::{OscillatorSpec, PhaseTrajectory};
use jmb_channel::Link;
use jmb_dsp::rng::{normal, JmbRng};
use jmb_dsp::{fft, CMat, Complex64};
use jmb_phy::chanest::ChannelEstimate;
use jmb_phy::frame::{FrameRx, FrameTx, RxResult};
use jmb_phy::params::OfdmParams;
use jmb_phy::preamble;
use jmb_phy::rates::Mcs;
use jmb_sim::{Medium, NodeId};
use rand::Rng;

/// Configuration of a sample-level JMB network.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// OFDM numerology.
    pub params: OfdmParams,
    /// Total number of APs (the first is the lead).
    pub n_aps: usize,
    /// Number of clients.
    pub n_clients: usize,
    /// Oscillator population for every node.
    pub osc_spec: OscillatorSpec,
    /// Per-sample noise variance at clients.
    pub client_noise_var: f64,
    /// Per-sample noise variance at APs (infrastructure RX chains).
    pub ap_noise_var: f64,
    /// Target per-subcarrier SNR of the AP↔AP links, dB (APs are mounted on
    /// ledges with line of sight to each other — a strong link).
    pub ap_ap_snr_db: f64,
    /// Target per-subcarrier SNR (dB) of each client's *strongest* AP link.
    pub client_snr_db: Vec<f64>,
    /// Software turnaround between the lead header and the joint
    /// transmission (the paper's `t_Δ` = 150 µs).
    pub turnaround_s: f64,
    /// Static per-slave trigger-timing offset, RMS (\[30\] synchronises APs
    /// "up to a few nanoseconds"; the error is a slowly varying clock
    /// offset). Being quasi-constant, it is captured by channel measurement
    /// and inverted by beamforming — exactly as §5.2 argues for propagation
    /// delays.
    pub trigger_offset_s: f64,
    /// Packet-to-packet *innovation* of the trigger timing (sub-ns): the
    /// part of the timing error that changes between transmissions and
    /// therefore cannot be absorbed into the measured channel.
    pub trigger_jitter_s: f64,
    /// Interleaved rounds in the measurement packet.
    pub rounds: usize,
    /// Slot ordering of the measurement packet (the paper's interleaving,
    /// or the sequential ablation of §5.1a's design rationale).
    pub slot_order: crate::measure::SlotOrder,
    /// Master seed.
    pub seed: u64,
}

impl NetConfig {
    /// A conference-room default: USRP profile, 150 µs turnaround, 30 dB
    /// AP↔AP links. The number of interleaved measurement rounds adapts so
    /// the rounds section spans ≥ 32 symbol slots (~256 µs): the slave's
    /// initial CFO estimate is phase-limited by that span, and it must be
    /// good enough (σ ≈ 10–15 Hz) to carry within-packet tracking until
    /// cross-header refinement takes over.
    pub fn default_with(n_aps: usize, n_clients: usize, client_snr_db: f64, seed: u64) -> Self {
        NetConfig {
            params: OfdmParams::default(),
            n_aps,
            n_clients,
            osc_spec: OscillatorSpec::usrp2(),
            client_noise_var: 1e-6,
            ap_noise_var: 1e-6,
            ap_ap_snr_db: 30.0,
            client_snr_db: vec![client_snr_db; n_clients],
            turnaround_s: 150e-6,
            trigger_offset_s: 5e-9,
            trigger_jitter_s: 0.5e-9,
            rounds: 4.max(32usize.div_ceil(n_aps.max(1))),
            slot_order: crate::measure::SlotOrder::Interleaved,
            seed,
        }
    }
}

/// The sample-level network.
pub struct JmbNetwork {
    cfg: NetConfig,
    medium: Medium,
    aps: Vec<NodeId>,
    clients: Vec<NodeId>,
    /// Per-slave phase synchronisation state (index 0 belongs to AP 1).
    sync_state: Vec<PhaseSync>,
    /// Measured joint channel, one matrix per occupied subcarrier
    /// (rows = clients, cols = APs).
    h: Option<Vec<CMat>>,
    /// Per-client noise estimate (per bin), from the measurement phase.
    client_noise_bins: Vec<f64>,
    /// Static per-AP trigger offsets (index 0 = lead = 0).
    trigger_offsets: Vec<f64>,
    /// Corrections applied in the most recent joint transmission (index =
    /// AP; lead is `None`). Kept for experiment introspection.
    last_corrections: Vec<Option<crate::phasesync::PhaseCorrection>>,
    precoder: Option<Precoder>,
    ftx: FrameTx,
    frx: FrameRx,
    /// Receive-path scratch reused across every client decode: equalised
    /// symbols, LLR/depuncture buffers and the Viterbi decision lanes are
    /// allocated once per network, not once per frame.
    rx_scratch: jmb_phy::frame::RxScratch,
    now: f64,
    rng: JmbRng,
    /// Per-slave sync-header health (index 0 belongs to AP 1): a slave that
    /// misses K consecutive headers is suppressed from joint transmissions
    /// until it hears one again.
    sync_health: Vec<SyncHealth>,
}

impl JmbNetwork {
    /// Builds the network: places nodes, draws oscillators, calibrates
    /// links to the configured SNR targets.
    pub fn new(cfg: NetConfig) -> Result<Self, JmbError> {
        if cfg.n_aps == 0 || cfg.n_clients == 0 {
            return Err(JmbError::BadConfig("need at least one AP and one client"));
        }
        if cfg.client_snr_db.len() != cfg.n_clients {
            return Err(JmbError::BadConfig("client_snr_db length mismatch"));
        }
        if cfg.n_aps < cfg.n_clients {
            return Err(JmbError::BadConfig(
                "need at least as many AP antennas as clients",
            ));
        }
        let mut rng = jmb_dsp::rng::rng_from_seed(cfg.seed);
        let mut medium = Medium::new(cfg.params.clone(), rng.gen());
        let carrier = cfg.params.carrier_freq;

        let aps: Vec<NodeId> = (0..cfg.n_aps)
            .map(|_| {
                let traj = PhaseTrajectory::new(cfg.osc_spec, carrier, &mut rng);
                medium.add_node(traj, cfg.ap_noise_var)
            })
            .collect();
        let clients: Vec<NodeId> = (0..cfg.n_clients)
            .map(|_| {
                let traj = PhaseTrajectory::new(cfg.osc_spec, carrier, &mut rng);
                medium.add_node(traj, cfg.client_noise_var)
            })
            .collect();

        // Per-bin noise (a 64-point FFT sums 64 samples' noise variance).
        let ap_bin_noise = 64.0 * cfg.ap_noise_var;
        let client_bin_noise = 64.0 * cfg.client_noise_var;

        // AP ↔ AP links: strong, mildly dispersive, reciprocal.
        for i in 0..cfg.n_aps {
            for j in i + 1..cfg.n_aps {
                let mut link = Link::new(
                    Complex64::from_polar(1.0, jmb_dsp::rng::random_phase(&mut rng)),
                    rng.gen::<f64>() * 30e-9, // ≤ 30 ns of separation
                    Multipath::new(MultipathSpec::indoor_los(), &mut rng),
                );
                link.calibrate_snr(cfg.ap_ap_snr_db, ap_bin_noise);
                medium.set_reciprocal_link(aps[i], aps[j], link);
            }
        }
        // AP → client links: the strongest AP hits the client's SNR target,
        // the others fall up to 6 dB below it (random placement spread).
        for (j, &c) in clients.iter().enumerate() {
            let strongest = rng.gen_range(0..cfg.n_aps);
            for (i, &a) in aps.iter().enumerate() {
                let snr = if i == strongest {
                    cfg.client_snr_db[j]
                } else {
                    cfg.client_snr_db[j] - rng.gen::<f64>() * 6.0
                };
                let mut link = Link::new(
                    Complex64::from_polar(1.0, jmb_dsp::rng::random_phase(&mut rng)),
                    rng.gen::<f64>() * 60e-9, // ≤ 60 ns ≪ the 1.6 µs CP
                    Multipath::new(MultipathSpec::indoor_nlos(), &mut rng),
                );
                link.calibrate_snr(snr, client_bin_noise);
                medium.set_reciprocal_link(a, c, link);
            }
        }

        let sync_state = (1..cfg.n_aps).map(|_| PhaseSync::new()).collect();
        let sync_health = (1..cfg.n_aps).map(|_| SyncHealth::default()).collect();
        let trigger_offsets: Vec<f64> = (0..cfg.n_aps)
            .map(|i| {
                if i == 0 {
                    0.0
                } else {
                    normal(&mut rng, cfg.trigger_offset_s)
                }
            })
            .collect();
        let params = cfg.params.clone();
        Ok(JmbNetwork {
            cfg,
            medium,
            aps,
            clients,
            sync_state,
            h: None,
            client_noise_bins: Vec::new(),
            trigger_offsets,
            last_corrections: Vec::new(),
            precoder: None,
            ftx: FrameTx::new(params.clone()),
            frx: FrameRx::new(params),
            rx_scratch: jmb_phy::frame::RxScratch::new(),
            now: 1e-4,
            rng,
            sync_health,
        })
    }

    /// Per-slave sync health (index 0 = AP 1), for inspection.
    pub fn sync_health(&self) -> &[SyncHealth] {
        &self.sync_health
    }

    /// Current simulation time, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Advances time without any transmissions (e.g. to let oscillators
    /// drift between the measurement and the data phases).
    #[expect(
        clippy::disallowed_macros,
        reason = "a negative dt is a harness programming error; simulated time only flows forward"
    )]
    pub fn advance(&mut self, dt: f64) {
        assert!(dt >= 0.0, "cannot rewind time");
        self.now += dt;
        self.medium.expire(self.now - 0.05);
    }

    /// Direct access to the medium (fault injection, traces).
    pub fn medium_mut(&mut self) -> &mut Medium {
        &mut self.medium
    }

    /// The measured joint channel (after [`JmbNetwork::run_measurement`]).
    pub fn measured_channel(&self) -> Option<&[CMat]> {
        self.h.as_deref()
    }

    /// The power-normalisation `k̂` of the current precoder.
    pub fn k_hat(&self) -> Option<f64> {
        self.precoder.as_ref().map(|p| p.k_hat())
    }

    /// Corrections applied in the most recent joint transmission.
    pub fn last_corrections(&self) -> &[Option<crate::phasesync::PhaseCorrection>] {
        &self.last_corrections
    }

    /// The current zero-forcing precoder, for inspection.
    pub fn precoder(&self) -> Option<&Precoder> {
        self.precoder.as_ref()
    }

    /// Per-slave phase-sync state (index 0 = AP 1), for inspection.
    pub fn sync_state(&self) -> &[PhaseSync] {
        &self.sync_state
    }

    /// Medium node ids of the APs (index 0 = lead).
    pub fn ap_nodes(&self) -> &[NodeId] {
        &self.aps
    }

    /// Medium node ids of the clients.
    pub fn client_nodes(&self) -> &[NodeId] {
        &self.clients
    }

    /// Raises every client's effective noise floor by `extra_var` (per
    /// time-domain sample, same normalised units as
    /// [`NetConfig::client_noise_var`]) to model aggregate out-of-cell
    /// interference as Gaussian noise. Takes effect at the next
    /// measurement/transmission; pass `0.0` to restore the clean floor.
    pub fn set_external_interference(&mut self, extra_var: f64) -> Result<(), JmbError> {
        if !extra_var.is_finite() || extra_var < 0.0 {
            return Err(JmbError::BadConfig(
                "external interference must be finite and non-negative",
            ));
        }
        let floor = self.cfg.client_noise_var + extra_var;
        for i in 0..self.clients.len() {
            let node = self.clients[i];
            self.medium.set_noise_var(node, floor);
        }
        Ok(())
    }

    /// Runs the channel-measurement phase (§5.1) at the current time.
    ///
    /// On return, the joint channel matrix is stored (feedback modelled as
    /// reliable), every slave holds its reference channel, and the
    /// zero-forcing precoder is (re)computed.
    pub fn run_measurement(&mut self) -> Result<(), JmbError> {
        let params = self.cfg.params.clone();
        let plan =
            MeasurementPlan::with_order(self.cfg.n_aps, self.cfg.rounds, self.cfg.slot_order);
        let ts = params.sample_period();
        let t0 = self.now;

        // Control-plane fault injection: a lost measurement exchange still
        // occupies the air, but no CSI is produced and every stored state
        // (references, precoder) stays as it was — stale.
        if self.medium.draw_meas_loss(t0) {
            let total = plan.total_len(&params);
            self.now = t0 + total as f64 * ts + 50e-6;
            self.medium.expire(self.now);
            return Err(JmbError::MeasurementLost);
        }

        // Schedule every AP's segments (slaves add trigger jitter).
        for (i, &ap) in self.aps.iter().enumerate() {
            for (off, seg) in plan.ap_segments(&params, i) {
                let jitter = if i == 0 {
                    0.0
                } else {
                    self.trigger_offsets[i] + normal(&mut self.rng, self.cfg.trigger_jitter_s)
                };
                self.medium.transmit(ap, t0 + off as f64 * ts + jitter, seg);
            }
        }

        // Clients estimate.
        let total = plan.total_len(&params);
        let occupied = params.occupied_subcarriers();
        let mut h = vec![CMat::zeros(self.cfg.n_clients, self.cfg.n_aps); occupied.len()];
        self.client_noise_bins.clear();
        for (j, &c) in self.clients.iter().enumerate() {
            let window = self.medium.render_rx(c, t0, total + 8);
            let m = measure::client_estimate(&params, &plan, &window)?;
            for (i, est) in m.per_ap.iter().enumerate() {
                for (k_idx, g) in est.gains.iter().enumerate() {
                    h[k_idx][(j, i)] = *g;
                }
            }
            self.client_noise_bins.push(m.noise_var);
        }

        // Slaves store their reference channel + a refined CFO seed. The
        // slave hears the whole measurement packet too (minus its own
        // slots), so it can run the same two-pass CFO refinement a client
        // runs on the lead's interleaved symbols — giving it a far better
        // initial frequency estimate than one header provides.
        for s in 1..self.cfg.n_aps {
            let window = self.medium.render_rx(self.aps[s], t0, total + 8);
            let (est, header_cfo) = measure::slave_header_measurement(&params, &window)?;
            // The multi-slot refinement accuracy improves with the span of
            // the interleaved rounds (≈ phase noise over the span): ~50 Hz
            // for a 2-AP packet, better as packets grow.
            let span_s = (plan.rounds * plan.n_aps) as f64 * params.symbol_len() as f64 * ts;
            let (refined_cfo, sigma) = match measure::client_estimate(&params, &plan, &window) {
                Ok(m) => (
                    m.cfo_per_ap[0],
                    (0.02 / (2.0 * std::f64::consts::PI * span_s)).max(10.0),
                ),
                Err(_) => (header_cfo, 200.0),
            };
            self.sync_state[s - 1].set_reference(est.clone());
            self.sync_state[s - 1].seed_cfo(&est, refined_cfo, sigma, t0 + 240.0 * ts);
        }

        self.precoder = Some(Precoder::zero_forcing(&h)?);
        self.h = Some(h);
        self.now = t0 + total as f64 * ts + 50e-6;
        self.medium.expire(self.now);
        Ok(())
    }

    /// Per-subcarrier SNR (dB) every client will see under the current
    /// precoder — `k̂²/N` per §9 — and the rate the effective-SNR algorithm
    /// selects from it.
    pub fn select_rate(&self) -> Option<Mcs> {
        let p = self.precoder.as_ref()?;
        let h = self.h.as_ref()?;
        // Per-client per-subcarrier received amplitude under the precoder
        // (the diagonal of H·W), against that client's fed-back noise; the
        // joint rate must clear every client (§9: same rate for all).
        let per_client: Vec<Vec<f64>> = (0..self.cfg.n_clients)
            .map(|j| {
                let noise = self.client_noise_bins.get(j).copied().unwrap_or(1e-12);
                (0..h.len())
                    .map(|k_idx| {
                        let g = p.stream_gain(k_idx, &h[k_idx], j);
                        jmb_dsp::stats::lin_to_db(g * g / noise)
                    })
                    .collect()
            })
            .collect();
        crate::baseline::select_joint_mcs(&per_client)
    }

    /// One joint data transmission (§5.2): all APs beamform `payloads[j]`
    /// to client `j` concurrently, at the same MCS for every client (§9).
    ///
    /// All payloads must have equal length (the MAC pads, §9). Returns each
    /// client's decode result.
    ///
    /// `apply_phase_sync = false` disables the slave corrections — the
    /// ablation showing why distributed phase synchronisation is necessary.
    pub fn joint_transmit(
        &mut self,
        payloads: &[Vec<u8>],
        mcs: Mcs,
        apply_phase_sync: bool,
    ) -> Result<Vec<Result<RxResult, JmbError>>, JmbError> {
        self.joint_transmit_masked(payloads, mcs, apply_phase_sync, None)
    }

    /// [`JmbNetwork::joint_transmit`] with an AP liveness mask: APs whose
    /// mask entry is `false` radiate nothing (mid-run failure). The precoder
    /// is *not* rebuilt — the surviving APs transmit their original weights,
    /// so the clients' nulls are imperfect and SINR degrades, exactly the
    /// transient the §9 failover (designated-AP re-election plus a fresh
    /// subset precoder on the fast path) exists to clean up.
    ///
    /// When the lead (AP 0) is masked out there is no sync header; slaves
    /// reuse the corrections from the most recent successful joint
    /// transmission (stale phase state — decoding degrades further with
    /// time, it does not error).
    #[expect(
        clippy::disallowed_macros,
        reason = "debug_assert! checks an internal invariant in debug builds only"
    )]
    pub fn joint_transmit_masked(
        &mut self,
        payloads: &[Vec<u8>],
        mcs: Mcs,
        apply_phase_sync: bool,
        active_aps: Option<&[bool]>,
    ) -> Result<Vec<Result<RxResult, JmbError>>, JmbError> {
        if payloads.len() != self.cfg.n_clients {
            return Err(JmbError::BadConfig("one payload per client required"));
        }
        if payloads.windows(2).any(|w| w[0].len() != w[1].len()) {
            return Err(JmbError::BadConfig("payloads must have equal length"));
        }
        if let Some(mask) = active_aps {
            if mask.len() != self.cfg.n_aps {
                return Err(JmbError::BadConfig("one mask entry per AP required"));
            }
            if mask.iter().all(|&a| !a) {
                return Err(JmbError::BadConfig("every AP masked out"));
            }
        }
        let is_active = |i: usize| active_aps.is_none_or(|m| m[i]);
        let precoder = self.precoder.clone().ok_or(JmbError::NoReference)?;
        let params = self.cfg.params.clone();
        let ts = params.sample_period();
        let t_h = self.now;

        // 1. Lead sync header (only if the lead's data path is up).
        if is_active(0) {
            self.medium
                .transmit(self.aps[0], t_h, preamble::preamble(&params));
        }

        // 2. Slaves measure and compute corrections. The measurement anchor
        //    is the LTF midpoint: t_h + 240 samples. A downed slave measures
        //    nothing; with the lead down, every slave falls back to its
        //    correction from the last successful transmission.
        let t_meas = t_h + 240.0 * ts;
        let mut corrections: Vec<Option<crate::phasesync::PhaseCorrection>> =
            vec![None; self.cfg.n_aps];
        // Slaves suppressed for this batch: degraded sync health means the
        // slave radiates nothing rather than transmitting misaligned energy.
        let mut suppressed = vec![false; self.cfg.n_aps];
        if is_active(0) {
            for (s, slot) in corrections.iter_mut().enumerate().skip(1) {
                if !is_active(s) {
                    continue;
                }
                // Fault injection: the slave fails to receive the header.
                if self.medium.draw_sync_miss(s, t_meas) {
                    self.medium
                        .trace
                        .emit(t_meas, jmb_sim::EventKind::SyncMissed { slave: s });
                    if self.sync_health[s - 1].record_miss() {
                        self.medium
                            .trace
                            .emit(t_meas, jmb_sim::EventKind::ApDegraded { ap: s });
                    }
                    if self.sync_health[s - 1].is_degraded() {
                        suppressed[s] = true;
                    } else {
                        // Stale fallback: reuse the correction from the last
                        // successful joint transmission (degrades with age).
                        *slot = self.last_corrections.get(s).cloned().flatten();
                    }
                    continue;
                }
                let window = self.medium.render_rx(self.aps[s], t_h, 320 + 8);
                let (est, cfo) = measure::slave_header_measurement(&params, &window)
                    .map_err(|_| JmbError::SyncHeaderMissed { slave: s })?;
                if self.sync_health[s - 1].record_sync() {
                    self.medium
                        .trace
                        .emit(t_meas, jmb_sim::EventKind::ApRestored { ap: s });
                }
                self.sync_state[s - 1].observe_header(&est, cfo, t_meas);
                *slot = Some(self.sync_state[s - 1].correction(&est)?);
            }
        } else {
            for (s, slot) in corrections.iter_mut().enumerate().skip(1) {
                if !is_active(s) {
                    continue;
                }
                *slot = self.last_corrections.get(s).cloned().flatten();
            }
        }

        self.last_corrections = corrections.clone();

        // 3. Build per-AP precoded waveforms.
        let streams: Vec<jmb_phy::frame::StreamBins> = payloads
            .iter()
            .map(|p| self.ftx.build_bins(mcs, p))
            .collect::<Result<_, _>>()?;
        let n_sym = streams[0].symbols.len();
        debug_assert!(streams.iter().all(|s| s.symbols.len() == n_sym));

        let t_d = t_h + 320.0 * ts + self.cfg.turnaround_s;
        let occupied = params.occupied_subcarriers();
        let ofdm = jmb_phy::ofdm::Ofdm::new(params.clone());

        for (m_idx, &ap) in self.aps.iter().enumerate() {
            if !is_active(m_idx) || suppressed[m_idx] {
                continue;
            }
            // Preamble bins: the same training sequence on every stream ⇒
            // this AP radiates seq × Σ_j W[m][j].
            let mut stf_b = preamble::stf_bins(&params);
            let mut ltf_b = preamble::ltf_bins(&params);
            // Data/SIGNAL symbol bins.
            let mut sym_bins: Vec<Vec<Complex64>> =
                vec![vec![Complex64::ZERO; params.fft_size]; n_sym];
            for (k_idx, &k) in occupied.iter().enumerate() {
                let b = params.bin(k);
                let w = precoder.weights_at(k_idx);
                let wsum: Complex64 = (0..precoder.n_streams()).map(|j| w[(m_idx, j)]).sum();
                // Per-subcarrier phase-sync correction.
                let corr = if apply_phase_sync {
                    corrections[m_idx]
                        .as_ref()
                        .map_or(Complex64::ONE, |c| c.phasor_at(k))
                } else {
                    Complex64::ONE
                };
                stf_b[b] *= wsum * corr;
                ltf_b[b] *= wsum * corr;
                for (s_idx, sym) in sym_bins.iter_mut().enumerate() {
                    let mut acc = Complex64::ZERO;
                    for (j, stream) in streams.iter().enumerate() {
                        acc = w[(m_idx, j)].mul_add(stream.symbols[s_idx][b], acc);
                    }
                    sym[b] = acc * corr;
                }
            }
            // Assemble the waveform.
            let mut wave = preamble::stf_from_bins(&params, &stf_b);
            wave.extend(preamble::ltf_from_bins(&params, &ltf_b));
            for sym in &sym_bins {
                wave.extend(ofdm.bins_to_samples(sym));
            }
            // Within-packet tracking (slaves only): rotate by the EWMA CFO
            // continuing from the header-measurement anchor (§5.2b).
            if apply_phase_sync && m_idx > 0 {
                let f_hat = corrections[m_idx].as_ref().map_or(0.0, |c| c.cfo_hz);
                if f_hat != 0.0 {
                    for (n, x) in wave.iter_mut().enumerate() {
                        let t = t_d + n as f64 * ts - t_meas;
                        *x *= Complex64::cis(2.0 * std::f64::consts::PI * f_hat * t);
                    }
                }
            }
            let jitter = if m_idx == 0 {
                0.0
            } else {
                self.trigger_offsets[m_idx] + normal(&mut self.rng, self.cfg.trigger_jitter_s)
            };
            self.medium.transmit(ap, t_d + jitter, wave);
        }

        // 4. Clients decode.
        let pkt_len = 320 + n_sym * params.symbol_len();
        let mut results = Vec::with_capacity(self.cfg.n_clients);
        for &c in &self.clients {
            let pad = 64usize;
            let window = self
                .medium
                .render_rx(c, t_d - pad as f64 * ts, pkt_len + 2 * pad);
            results.push(
                self.frx
                    .rx_frame_with(&mut self.rx_scratch, &window)
                    .map_err(JmbError::Rx),
            );
        }

        self.now = t_d + pkt_len as f64 * ts + 50e-6;
        self.medium.expire(self.now - 1e-3);
        Ok(results)
    }

    /// Diversity transmission (§8): every AP beamforms the *same* payload
    /// to client 0 with maximum-ratio weights.
    pub fn diversity_transmit(
        &mut self,
        payload: &[u8],
        mcs: Mcs,
    ) -> Result<Result<RxResult, JmbError>, JmbError> {
        let h = self.h.as_ref().ok_or(JmbError::NoReference)?;
        // MRT rows: channel from each AP to client 0 per subcarrier.
        let rows: Vec<Vec<Complex64>> = (0..h.len())
            .map(|k_idx| (0..self.cfg.n_aps).map(|i| h[k_idx][(0, i)]).collect())
            .collect();
        let mrt = Precoder::mrt(&rows)?;
        // Temporarily swap the precoder and client count, reuse the joint
        // pipeline with a single stream.
        let saved = self.precoder.replace(mrt);
        let saved_clients = self.cfg.n_clients;
        self.cfg.n_clients = 1;
        let out = self.joint_transmit(&[payload.to_vec()], mcs, true);
        self.cfg.n_clients = saved_clients;
        self.precoder = saved;
        Ok(out?.remove(0))
    }

    /// The Fig. 7 probe: lead and slave 1 alternate channel-estimation
    /// symbols; client 0 tracks the relative phase between them. Returns
    /// one misalignment sample (radians) per round after the first,
    /// measured against the first round's relative phase.
    ///
    /// Call [`JmbNetwork::run_measurement`] first (the slave needs its
    /// reference); `inter_round_gap_s` of oscillator drift separates rounds.
    pub fn misalignment_probe(
        &mut self,
        n_rounds: usize,
        inter_round_gap_s: f64,
    ) -> Result<Vec<f64>, JmbError> {
        self.misalignment_probe_with(
            n_rounds,
            inter_round_gap_s,
            crate::sync::SyncStrategyId::JmbLeadSlave,
        )
    }

    /// Strategy-aware variant of [`JmbNetwork::misalignment_probe`]: the
    /// waveform timeline (lead header, alternating chanest symbols) is
    /// identical, but the slave's correction source follows the chosen
    /// backend. `JmbLeadSlave` re-measures the in-band header every round
    /// (byte-identical to [`JmbNetwork::misalignment_probe`]); the
    /// out-of-band backends absorb a header observation only when their
    /// pilot/recalibration tick is due and extrapolate in between —
    /// reciprocity additionally sees noisier estimates (implicit CSI rides
    /// uncontrolled uplink frames).
    pub fn misalignment_probe_with(
        &mut self,
        n_rounds: usize,
        inter_round_gap_s: f64,
        strategy: crate::sync::SyncStrategyId,
    ) -> Result<Vec<f64>, JmbError> {
        if self.cfg.n_aps < 2 {
            return Err(JmbError::BadConfig("probe needs a lead and a slave"));
        }
        if !self.sync_state[0].has_reference() {
            return Err(JmbError::NoReference);
        }
        let params = self.cfg.params.clone();
        let ts = params.sample_period();
        let sym = measure::chanest_symbol(&params);
        let sym_len = params.symbol_len();
        let ofdm = jmb_phy::ofdm::Ofdm::new(params.clone());
        let mut reference_rel: Option<Complex64> = None;
        let mut out = Vec::with_capacity(n_rounds.saturating_sub(1));
        // Out-of-band update schedule (rival strategies): ticks are
        // quantized to round headers — the probe's rounds are the only
        // instants the sample-level medium renders.
        let update_interval_s = match strategy {
            crate::sync::SyncStrategyId::JmbLeadSlave => 0.0,
            crate::sync::SyncStrategyId::AirSyncPilot => crate::sync::AIRSYNC_PILOT_INTERVAL_S,
            crate::sync::SyncStrategyId::ReciprocityImplicit => {
                crate::sync::RECIPROCITY_RECAL_INTERVAL_S
            }
        };
        let mut next_update: Option<f64> = None;

        for _ in 0..n_rounds {
            let t_h = self.now;
            // Lead header; slave measures and corrects.
            self.medium
                .transmit(self.aps[0], t_h, preamble::preamble(&params));
            let window = self.medium.render_rx(self.aps[1], t_h, 320 + 8);
            let t_meas = t_h + 240.0 * ts;
            let (corr, t_anchor) = match strategy {
                crate::sync::SyncStrategyId::JmbLeadSlave => {
                    let (est, cfo) = measure::slave_header_measurement(&params, &window)
                        .map_err(|_| JmbError::SyncHeaderMissed { slave: 1 })?;
                    self.sync_state[0].observe_header(&est, cfo, t_meas);
                    (self.sync_state[0].correction(&est)?, t_meas)
                }
                crate::sync::SyncStrategyId::AirSyncPilot
                | crate::sync::SyncStrategyId::ReciprocityImplicit => {
                    if next_update.is_none_or(|t| t_meas >= t) {
                        let (mut est, mut cfo) =
                            measure::slave_header_measurement(&params, &window)
                                .map_err(|_| JmbError::SyncHeaderMissed { slave: 1 })?;
                        if strategy == crate::sync::SyncStrategyId::ReciprocityImplicit {
                            // Implicit estimates are noisier: 4× the
                            // header's estimation variance (the header
                            // averages two clean LTF repetitions; an
                            // overheard uplink frame does not).
                            for g in est.gains.iter_mut() {
                                *g += jmb_dsp::rng::complex_gaussian(
                                    &mut self.rng,
                                    1.5 * self.cfg.ap_noise_var,
                                );
                            }
                            cfo += normal(&mut self.rng, 300.0);
                        }
                        self.sync_state[0].observe_header(&est, cfo, t_meas);
                        next_update = Some(t_meas + update_interval_s);
                    }
                    self.sync_state[0].extrapolated_correction()?
                }
            };

            // Alternating symbols: lead at t_d, slave at t_d + 80·Ts.
            let t_d = t_h + 320.0 * ts + self.cfg.turnaround_s;
            self.medium.transmit(self.aps[0], t_d, sym.clone());
            // Slave applies per-subcarrier correction + within-packet CFO.
            let mut slave_bins = preamble::ltf_bins(&params);
            for &k in &params.occupied_subcarriers() {
                let b = params.bin(k);
                slave_bins[b] *= corr.phasor_at(k);
            }
            let mut slave_sym = ofdm.bins_to_samples(&slave_bins);
            let t_slave = t_d + sym_len as f64 * ts;
            for (n, x) in slave_sym.iter_mut().enumerate() {
                let t = t_slave + n as f64 * ts - t_anchor;
                *x *= Complex64::cis(2.0 * std::f64::consts::PI * corr.cfo_hz * t);
            }
            let jitter = self.trigger_offsets[1] + normal(&mut self.rng, self.cfg.trigger_jitter_s);
            self.medium
                .transmit(self.aps[1], t_slave + jitter, slave_sym);

            // Client: estimate both slots and compare their relative phase.
            let c = self.clients[0];
            let window = self.medium.render_rx(c, t_d, 2 * sym_len + 8);
            let lead_est = estimate_slot(&params, &window[..sym_len]);
            let slave_est = estimate_slot(&params, &window[sym_len..2 * sym_len]);
            let mut rel = Complex64::ZERO;
            for (a, b) in slave_est.gains.iter().zip(&lead_est.gains) {
                rel += *a * b.conj();
            }
            let rel = rel.normalize();
            match reference_rel {
                None => reference_rel = Some(rel),
                Some(r) => out.push(measure::misalignment(rel, r)),
            }

            self.now = t_d + 2.0 * sym_len as f64 * ts + inter_round_gap_s;
            self.medium.expire(self.now - 1e-3);
        }
        Ok(out)
    }
}

/// Estimates the channel from one 80-sample chanest slot (known LTF
/// content), without CFO correction (the probe arranges slots close enough
/// that residual rotation is part of what is being measured).
fn estimate_slot(params: &OfdmParams, slot: &[Complex64]) -> ChannelEstimate {
    let mut bins = slot[params.cp_len..params.symbol_len()].to_vec();
    fft::fft_in_place(&mut bins);
    let l = preamble::ltf_freq();
    let subcarriers = params.occupied_subcarriers();
    let gains = subcarriers
        .iter()
        .map(|&k| bins[params.bin(k)].scale(l[(k + 26) as usize]))
        .collect();
    ChannelEstimate { subcarriers, gains }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads(n: usize, len: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|j| (0..len).map(|i| (i * 7 + j * 13 + 1) as u8).collect())
            .collect()
    }

    #[test]
    fn two_by_two_joint_transmission_decodes() {
        // The headline behaviour: 2 independent APs with offset oscillators
        // deliver 2 concurrent packets to 2 single-antenna clients.
        let cfg = NetConfig::default_with(2, 2, 22.0, 42);
        let mut net = JmbNetwork::new(cfg).unwrap();
        net.run_measurement().unwrap();
        net.advance(2e-3);
        let data = payloads(2, 100);
        let results = net.joint_transmit(&data, Mcs::ALL[2], true).unwrap();
        for (j, r) in results.iter().enumerate() {
            let rx = r.as_ref().unwrap_or_else(|e| panic!("client {j}: {e}"));
            assert_eq!(rx.payload, data[j], "client {j}");
        }
    }

    #[test]
    fn three_by_three_joint_transmission_decodes() {
        let cfg = NetConfig::default_with(3, 3, 22.0, 7);
        let mut net = JmbNetwork::new(cfg).unwrap();
        net.run_measurement().unwrap();
        net.advance(1e-3);
        let data = payloads(3, 60);
        let results = net.joint_transmit(&data, Mcs::ALL[1], true).unwrap();
        for (j, r) in results.iter().enumerate() {
            assert_eq!(r.as_ref().expect("decode").payload, data[j], "client {j}");
        }
    }

    #[test]
    fn without_phase_sync_transmission_fails() {
        // The ablation: identical system, corrections disabled. After a
        // couple of milliseconds of oscillator drift the effective channel
        // is no longer what the clients measured and decoding collapses.
        let cfg = NetConfig::default_with(2, 2, 22.0, 43);
        let mut net = JmbNetwork::new(cfg).unwrap();
        net.run_measurement().unwrap();
        net.advance(2e-3);
        let data = payloads(2, 100);
        let results = net.joint_transmit(&data, Mcs::ALL[2], false).unwrap();
        let failures = results.iter().filter(|r| r.is_err()).count();
        assert!(
            failures >= 1,
            "expected decode failures without phase sync, got {failures}"
        );
    }

    #[test]
    fn repeated_transmissions_amortise_one_measurement() {
        // §5: "a single channel measurement phase can be followed by
        // multiple data transmissions" — run several packets several ms
        // apart on one measurement.
        let cfg = NetConfig::default_with(2, 2, 22.0, 44);
        let mut net = JmbNetwork::new(cfg).unwrap();
        net.run_measurement().unwrap();
        // Use the network's own rate selection (this seed draws a poorly
        // conditioned channel; a fixed aggressive MCS would not be what the
        // real system transmits at).
        let mcs = net.select_rate().unwrap_or(Mcs::BASE);
        let data = payloads(2, 80);
        let mut ok = 0;
        let mut total = 0;
        for _ in 0..5 {
            net.advance(3e-3);
            let results = net.joint_transmit(&data, mcs, true).unwrap();
            for r in &results {
                total += 1;
                if r.is_ok() {
                    ok += 1;
                }
            }
        }
        assert!(
            ok * 10 >= total * 8,
            "delivery {ok}/{total} below 80% across rounds"
        );
    }

    #[test]
    fn select_rate_reports_usable_mcs() {
        let cfg = NetConfig::default_with(2, 2, 22.0, 45);
        let mut net = JmbNetwork::new(cfg).unwrap();
        net.run_measurement().unwrap();
        let mcs = net.select_rate().expect("usable rate at 22 dB");
        assert!(mcs.index() >= 2, "rate too low: {mcs}");
    }

    #[test]
    fn diversity_transmission_decodes() {
        let cfg = NetConfig::default_with(3, 1, 12.0, 46);
        let mut net = JmbNetwork::new(cfg).unwrap();
        net.run_measurement().unwrap();
        net.advance(1e-3);
        let payload: Vec<u8> = (0..50).map(|i| i as u8).collect();
        let r = net.diversity_transmit(&payload, Mcs::ALL[0]).unwrap();
        assert_eq!(r.expect("diversity decode").payload, payload);
    }

    #[test]
    fn misalignment_probe_is_small() {
        let cfg = NetConfig::default_with(2, 1, 25.0, 47);
        let mut net = JmbNetwork::new(cfg).unwrap();
        net.run_measurement().unwrap();
        let samples = net.misalignment_probe(20, 2e-3).unwrap();
        assert_eq!(samples.len(), 19);
        let median = jmb_dsp::stats::median(&samples.iter().map(|s| s.abs()).collect::<Vec<_>>());
        assert!(median < 0.1, "median misalignment {median} rad");
    }

    #[test]
    fn config_validation() {
        assert!(JmbNetwork::new(NetConfig::default_with(0, 1, 20.0, 1)).is_err());
        assert!(JmbNetwork::new(NetConfig::default_with(1, 2, 20.0, 1)).is_err());
        let mut cfg = NetConfig::default_with(2, 2, 20.0, 1);
        cfg.client_snr_db.pop();
        assert!(JmbNetwork::new(cfg).is_err());
    }

    #[test]
    fn joint_transmit_requires_measurement() {
        let cfg = NetConfig::default_with(2, 2, 20.0, 48);
        let mut net = JmbNetwork::new(cfg).unwrap();
        let data = payloads(2, 10);
        assert!(matches!(
            net.joint_transmit(&data, Mcs::ALL[0], true),
            Err(JmbError::NoReference)
        ));
    }

    #[test]
    fn masked_transmit_skips_downed_aps() {
        let cfg = NetConfig::default_with(3, 2, 22.0, 51);
        let mut net = JmbNetwork::new(cfg).unwrap();
        net.run_measurement().unwrap();
        net.advance(1e-3);
        let data = payloads(2, 40);
        // One healthy transmission to populate last_corrections.
        let r = net.joint_transmit(&data, Mcs::BASE, true).unwrap();
        assert_eq!(r.len(), 2);
        // Slave AP 2 fails: the call still completes and returns per-client
        // results (decoding may degrade — the precoder is stale).
        net.advance(1e-3);
        let n_before = net.medium_mut().trace.transmit_count();
        net.medium_mut().trace.enable();
        let r = net
            .joint_transmit_masked(&data, Mcs::BASE, true, Some(&[true, true, false]))
            .unwrap();
        assert_eq!(r.len(), 2);
        let n_tx = net.medium_mut().trace.transmit_count() - n_before;
        assert_eq!(n_tx, 3, "header + 2 live AP waveforms, not 4");
        // Lead fails: no sync header, slaves reuse stale corrections, the
        // queue still moves (no error).
        net.advance(1e-3);
        let r = net
            .joint_transmit_masked(&data, Mcs::BASE, true, Some(&[false, true, true]))
            .unwrap();
        assert_eq!(r.len(), 2);
        // Mask validation.
        assert!(net
            .joint_transmit_masked(&data, Mcs::BASE, true, Some(&[true, true]))
            .is_err());
        assert!(net
            .joint_transmit_masked(&data, Mcs::BASE, true, Some(&[false, false, false]))
            .is_err());
    }

    #[test]
    fn sync_loss_storm_degrades_then_restores() {
        let cfg = NetConfig::default_with(3, 2, 22.0, 52);
        let mut net = JmbNetwork::new(cfg).unwrap();
        net.run_measurement().unwrap();
        net.advance(1e-3);
        let data = payloads(2, 40);
        // One healthy transmission to populate last_corrections.
        net.joint_transmit(&data, Mcs::BASE, true).unwrap();
        net.medium_mut().trace.enable();
        // Slave 1 loses every header: stale fallback for K−1 batches, then
        // suppressed — never a panic, every call returns per-client results.
        let storm = jmb_sim::FaultConfig::builder()
            .per_slave_sync_loss(1, 1.0)
            .build()
            .unwrap();
        net.medium_mut().set_fault(storm);
        for _ in 0..4 {
            net.advance(1e-3);
            let r = net.joint_transmit(&data, Mcs::BASE, true).unwrap();
            assert_eq!(r.len(), 2);
        }
        assert!(net.sync_health()[0].is_degraded());
        let trace = &net.medium_mut().trace;
        assert_eq!(trace.sync_missed_count(), 4);
        assert_eq!(trace.degraded_count(), 1);
        // The storm clears: the next header restores the slave.
        net.medium_mut().set_fault(jmb_sim::FaultConfig::none());
        net.advance(1e-3);
        net.joint_transmit(&data, Mcs::BASE, true).unwrap();
        assert!(!net.sync_health()[0].is_degraded());
        assert_eq!(net.medium_mut().trace.restored_count(), 1);
    }

    #[test]
    fn measurement_loss_surfaces_typed_error() {
        let cfg = NetConfig::default_with(2, 2, 22.0, 53);
        let mut net = JmbNetwork::new(cfg).unwrap();
        let lossy = jmb_sim::FaultConfig::builder()
            .meas_loss_chance(1.0)
            .build()
            .unwrap();
        net.medium_mut().set_fault(lossy);
        let t0 = net.now();
        assert_eq!(net.run_measurement(), Err(JmbError::MeasurementLost));
        assert!(net.now() > t0, "the lost exchange still costs airtime");
        net.medium_mut().set_fault(jmb_sim::FaultConfig::none());
        net.run_measurement().unwrap();
    }

    #[test]
    fn unequal_payloads_rejected() {
        let cfg = NetConfig::default_with(2, 2, 20.0, 49);
        let mut net = JmbNetwork::new(cfg).unwrap();
        net.run_measurement().unwrap();
        let data = vec![vec![1u8; 10], vec![2u8; 20]];
        assert!(matches!(
            net.joint_transmit(&data, Mcs::ALL[0], true),
            Err(JmbError::BadConfig(_))
        ));
    }

    #[test]
    fn external_interference_backs_off_sample_path_rate() {
        // The sample-accurate path folds out-of-cell interference into the
        // client noise floor; the measurement *estimates* that floor from
        // the received window, so rate selection backs off automatically.
        let run = |extra_var: f64| {
            let cfg = NetConfig::default_with(2, 2, 25.0, 54);
            let clean_floor = cfg.client_noise_var;
            let mut net = JmbNetwork::new(cfg).unwrap();
            net.set_external_interference(extra_var).unwrap();
            let clients = net.client_nodes().to_vec();
            for c in clients {
                assert_eq!(net.medium_mut().noise_var(c), clean_floor + extra_var);
            }
            net.run_measurement().unwrap();
            net.select_rate()
        };
        // Clean floor: the effective-SNR algorithm finds a workable rate.
        assert!(run(0.0).is_some(), "clean cell must have a rate");
        // ~7 dB of extra floor (5x the 1e-6 default): the estimated noise
        // bins grow until no MCS clears every client — full back-off.
        assert!(run(5e-6).is_none(), "interference must force back-off");
        // Validation: rejects NaN and negative floors.
        let mut net = JmbNetwork::new(NetConfig::default_with(2, 1, 20.0, 55)).unwrap();
        assert!(net.set_external_interference(f64::NAN).is_err());
        assert!(net.set_external_interference(-1.0).is_err());
    }
}
