//! The fast (per-subcarrier) JMB protocol model.
//!
//! The paper's evaluation sweeps hundreds of topologies × up to 10 APs ×
//! 3 SNR bands (Figs. 8–13). Running the sample-level testbench for each
//! point would be prohibitively slow, so this module models the protocol at
//! the same level the paper's own analysis works (§4: `H(t) = R(t)·H·T(t)`):
//! channels are per-subcarrier gains over a [`SubcarrierMedium`], and each
//! protocol step — measurement with estimation noise, slave header
//! re-measurement, direct phase correction, within-packet CFO tracking —
//! is applied in the frequency domain.
//!
//! Every modelling constant (measurement noise per estimate, header
//! estimation noise, seed CFO accuracy) is inherited from the behaviour of
//! the sample-level chain in [`crate::net`], and the two are cross-validated
//! in the workspace integration tests.

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
use crate::precoder::Precoder;
use crate::sync::{strategy_for, SyncCtx, SyncStrategy, SyncStrategyId};
use jmb_channel::multipath::{Multipath, MultipathSpec};
use jmb_channel::oscillator::{OscillatorSpec, PhaseTrajectory};
use jmb_channel::Link;
use jmb_dsp::rng::{complex_gaussian, JmbRng};
use jmb_dsp::{CMat, Complex64};
use jmb_phy::chanest::ChannelEstimate;
use jmb_phy::params::OfdmParams;
use jmb_phy::rates::Mcs;
use jmb_sim::{EventKind, FaultConfig, FaultSchedule, NodeId, SubcarrierMedium, Trace};
use rand::Rng;

/// Configuration of a fast-path JMB network.
#[derive(Debug, Clone)]
pub struct FastConfig {
    /// OFDM numerology.
    pub params: OfdmParams,
    /// Total APs (first is lead).
    pub n_aps: usize,
    /// Number of clients.
    pub n_clients: usize,
    /// Oscillator population.
    pub osc_spec: OscillatorSpec,
    /// Per-bin noise variance at clients (links are calibrated against it).
    pub noise_var: f64,
    /// AP↔AP link SNR, dB.
    pub ap_ap_snr_db: f64,
    /// Per-client target SNR (strongest AP), dB.
    pub client_snr_db: Vec<f64>,
    /// Spread below the strongest AP for the other APs' links, dB (used
    /// only when `link_snr_db` is `None`).
    pub ap_spread_db: f64,
    /// Explicit per-link SNR targets `[client][ap]`, dB. When set (e.g.
    /// derived from a room topology and a path-loss model), it overrides
    /// the `client_snr_db`/`ap_spread_db` synthetic placement.
    pub link_snr_db: Option<Vec<Vec<f64>>>,
    /// Turnaround between header and joint transmission, seconds.
    pub turnaround_s: f64,
    /// Interleaved measurement rounds (sets measurement averaging and the
    /// seed-CFO accuracy).
    pub rounds: usize,
    /// Master seed.
    pub seed: u64,
    /// Synchronization backend (the paper's lead/slave resync by default;
    /// see [`crate::sync`] for the rivals).
    pub sync: SyncStrategyId,
}

impl FastConfig {
    /// Defaults mirroring [`crate::net::NetConfig::default_with`].
    pub fn default_with(
        n_aps: usize,
        n_clients: usize,
        client_snr_db: Vec<f64>,
        seed: u64,
    ) -> Self {
        FastConfig {
            params: OfdmParams::default(),
            n_aps,
            n_clients,
            osc_spec: OscillatorSpec::usrp2(),
            noise_var: 1.0,
            ap_ap_snr_db: 30.0,
            client_snr_db,
            ap_spread_db: 6.0,
            link_snr_db: None,
            turnaround_s: 150e-6,
            rounds: 32.max(128usize.div_ceil(n_aps.max(1))),
            seed,
            sync: SyncStrategyId::default(),
        }
    }
}

/// Per-client outcome of one (virtual) joint transmission.
#[derive(Debug, Clone)]
pub struct JointOutcome {
    /// Per-subcarrier SINR (dB) for each client, `[client][subcarrier]`.
    pub sinr_db: Vec<Vec<f64>>,
    /// Per-subcarrier interference-plus-leakage power for each client
    /// (linear, relative to the noise floor), `[client][subcarrier]`.
    pub interference: Vec<Vec<f64>>,
    /// The precoder's power normalisation `k̂`.
    pub k_hat: f64,
}

impl JointOutcome {
    /// Average interference-to-noise ratio (dB) across clients and
    /// subcarriers — the metric of Fig. 8.
    pub fn mean_inr_db(&self, noise_var: f64) -> f64 {
        let mut acc = 0.0;
        let mut n = 0usize;
        for per_client in &self.interference {
            for &i in per_client {
                acc += i / noise_var;
                n += 1;
            }
        }
        jmb_dsp::stats::lin_to_db(acc / n as f64)
    }
}

/// The fast-path network.
pub struct FastNet {
    cfg: FastConfig,
    medium: SubcarrierMedium,
    aps: Vec<NodeId>,
    clients: Vec<NodeId>,
    /// The pluggable synchronization backend ([`crate::sync`]). Owns the
    /// per-slave phase state; the network keeps the protocol timeline,
    /// fault draws, health bookkeeping and trace events.
    strategy: Box<dyn SyncStrategy>,
    /// Measured joint channel per occupied subcarrier.
    h_meas: Option<Vec<CMat>>,
    precoder: Option<Precoder>,
    occupied: Vec<i32>,
    now: f64,
    rng: JmbRng,
    /// Cached static AP→client responses (the multipath tap sums, which are
    /// the expensive part of every channel evaluation). Built lazily, and
    /// invalidated whenever link fading evolves.
    static_ap_client: Option<jmb_sim::StaticChannel>,
    /// Control-plane fault plan (clean by default).
    faults: FaultSchedule,
    /// Dedicated RNG stream for fault draws, derived from the master seed.
    /// Kept separate from `rng` so enabling faults never perturbs channel or
    /// noise draws, and clean runs make zero fault draws — byte-identical to
    /// runs of builds that predate fault injection.
    fault_rng: JmbRng,
    /// Per-slave sync health (index `s - 1` for slave AP `s`).
    health: Vec<SyncHealth>,
    /// Largest predicted phase error (radians) a CFO-extrapolated fallback
    /// correction may carry before the slave is excluded from the batch
    /// instead (≈ 20° by default — beyond that, the paper's Fig. 6 shows
    /// the joint SNR loss exceeds ~1 dB and keeps growing).
    sync_error_budget_rad: f64,
    /// Control-plane event trace. Events are stamped on the frame timeline
    /// (header at `now`, sync measurements at `t_meas`), which only moves
    /// forward — the stream is monotone in time by construction, and the
    /// integration tests assert it.
    pub trace: Trace,
    /// External (out-of-cell) interference power per occupied subcarrier,
    /// linear, in the same normalised units as `cfg.noise_var`. Zero by
    /// default; a multi-cell deployment sets it to the aggregate co-channel
    /// leakage from neighbouring cells, and it is added to the noise floor
    /// in every SINR denominator and rate selection.
    ext_intf: Vec<f64>,
}

impl FastNet {
    /// Builds the network and calibrates links.
    pub fn new(cfg: FastConfig) -> Result<Self, JmbError> {
        if cfg.n_aps == 0 || cfg.n_clients == 0 {
            return Err(JmbError::BadConfig("need at least one AP and one client"));
        }
        if cfg.client_snr_db.len() != cfg.n_clients {
            return Err(JmbError::BadConfig("client_snr_db length mismatch"));
        }
        let mut rng = jmb_dsp::rng::rng_from_seed(cfg.seed);
        let mut medium = SubcarrierMedium::new(cfg.params.clone(), rng.gen());
        let carrier = cfg.params.carrier_freq;
        let aps: Vec<NodeId> = (0..cfg.n_aps)
            .map(|_| {
                let traj = PhaseTrajectory::new(cfg.osc_spec, carrier, &mut rng);
                medium.add_node(traj, cfg.noise_var)
            })
            .collect();
        let clients: Vec<NodeId> = (0..cfg.n_clients)
            .map(|_| {
                let traj = PhaseTrajectory::new(cfg.osc_spec, carrier, &mut rng);
                medium.add_node(traj, cfg.noise_var)
            })
            .collect();

        for i in 0..cfg.n_aps {
            for j in 0..cfg.n_aps {
                if i == j {
                    continue;
                }
                let mut link = Link::new(
                    Complex64::from_polar(1.0, jmb_dsp::rng::random_phase(&mut rng)),
                    rng.gen::<f64>() * 30e-9,
                    Multipath::new(MultipathSpec::indoor_los(), &mut rng),
                );
                link.calibrate_snr(cfg.ap_ap_snr_db, cfg.noise_var);
                medium.set_link(aps[i], aps[j], link);
            }
        }
        if let Some(matrix) = &cfg.link_snr_db {
            if matrix.len() != cfg.n_clients || matrix.iter().any(|r| r.len() != cfg.n_aps) {
                return Err(JmbError::BadConfig("link_snr_db shape mismatch"));
            }
        }
        for (j, &c) in clients.iter().enumerate() {
            // Without an explicit link matrix, each client's strongest AP is
            // distinct (in a dense room with as many APs as clients, every
            // client is closest to a different AP almost surely) — this is
            // what keeps the joint channel well conditioned, as the paper
            // observes ("natural channel matrices can be considered random
            // and well conditioned", §11.2).
            let strongest = j % cfg.n_aps;
            for (i, &a) in aps.iter().enumerate() {
                let snr = match &cfg.link_snr_db {
                    Some(m) => m[j][i],
                    None if i == strongest => cfg.client_snr_db[j],
                    None => cfg.client_snr_db[j] - 3.0 - rng.gen::<f64>() * cfg.ap_spread_db,
                };
                // AP→client links are Rician (6 dB K): APs mounted on
                // ledges near the ceiling have a dominant path to most of
                // the room, so per-subcarrier fades are shallower than
                // Rayleigh. This matters for zero-forcing: Rayleigh-faded
                // diagonals produce deep per-subcarrier inversion wells
                // that the paper's testbed does not exhibit.
                let spec = MultipathSpec {
                    rician_k_db: Some(10.0),
                    ..MultipathSpec::indoor_los()
                };
                let mut link = Link::new(
                    Complex64::from_polar(1.0, jmb_dsp::rng::random_phase(&mut rng)),
                    rng.gen::<f64>() * 60e-9,
                    Multipath::new(spec, &mut rng),
                );
                link.calibrate_snr(snr, cfg.noise_var);
                medium.set_link(a, c, link);
            }
        }

        // Band calibration against the *realized* fading draw: the paper
        // places clients "such that all clients obtain an effective SNR in
        // the desired range" — the band is a property of the measured
        // effective SNR, fading included, not of the ensemble mean. Trim
        // every client's links so its designated link's mean (dB-domain,
        // across subcarriers) SNR equals its target.
        let occupied_list = cfg.params.occupied_subcarriers();
        for (j, &c) in clients.iter().enumerate() {
            let target = match &cfg.link_snr_db {
                Some(m) => m[j].iter().cloned().fold(f64::MIN, f64::max),
                None => cfg.client_snr_db[j],
            };
            // Designated = strongest realized link.
            let mut best = (0usize, f64::MIN);
            for (i, &a) in aps.iter().enumerate() {
                let mean_db = {
                    #[expect(
                        clippy::expect_used,
                        reason = "constructor-local — the loop above installed a link for every (ap, client) pair of this very medium"
                    )]
                    let link = medium
                        .link(a, c)
                        .expect("invariant: every (ap, client) link was installed above");
                    let acc: f64 = occupied_list
                        .iter()
                        .map(|&k| {
                            let f = k as f64 * cfg.params.subcarrier_spacing();
                            jmb_dsp::stats::lin_to_db(
                                link.freq_response_at(f).norm_sqr() / cfg.noise_var,
                            )
                        })
                        .sum();
                    acc / occupied_list.len() as f64
                };
                if mean_db > best.1 {
                    best = (i, mean_db);
                }
            }
            let delta_db = target - best.1;
            let scale = jmb_dsp::stats::db_to_lin(delta_db).sqrt();
            for &a in &aps {
                if let Some(link) = medium.link_mut(a, c) {
                    link.gain = link.gain * scale;
                }
            }
        }

        let strategy = strategy_for(cfg.sync, cfg.n_aps);
        let health = (1..cfg.n_aps).map(|_| SyncHealth::default()).collect();
        let fault_rng = jmb_dsp::rng::derive_rng(cfg.seed, 0xFA17);
        let occupied = cfg.params.occupied_subcarriers();
        Ok(FastNet {
            cfg,
            medium,
            aps,
            clients,
            strategy,
            h_meas: None,
            precoder: None,
            occupied,
            now: 1e-4,
            rng,
            static_ap_client: None,
            faults: FaultSchedule::none(),
            fault_rng,
            health,
            sync_error_budget_rad: crate::sync::SYNC_ERROR_BUDGET_RAD,
            trace: Trace::new(),
            ext_intf: Vec::new(),
        })
    }

    /// Sets the external (out-of-cell) interference floor, linear power in
    /// the same normalised units as `cfg.noise_var`.
    ///
    /// Accepts either one value per occupied subcarrier or a single value
    /// applied flat across the band; an empty slice clears it. The floor is
    /// added to the thermal noise in every SINR denominator
    /// ([`FastNet::joint_transmit`], [`FastNet::joint_transmit_subset`]) and
    /// in the `k̂²/(N+I)` rate selection, so the EESM effective SNR — and
    /// with it the PER margin a traffic backend derives — sees the
    /// interference too.
    pub fn set_external_interference(&mut self, per_bin: &[f64]) -> Result<(), JmbError> {
        if per_bin.iter().any(|&v| !v.is_finite() || v < 0.0) {
            return Err(JmbError::BadConfig(
                "external interference must be finite and non-negative",
            ));
        }
        match per_bin.len() {
            0 => self.ext_intf.clear(),
            1 => {
                self.ext_intf.clear();
                self.ext_intf.resize(self.occupied.len(), per_bin[0]);
            }
            n if n == self.occupied.len() => {
                self.ext_intf.clear();
                self.ext_intf.extend_from_slice(per_bin);
            }
            _ => {
                return Err(JmbError::BadConfig(
                    "external interference needs 0, 1, or one value per occupied subcarrier",
                ))
            }
        }
        Ok(())
    }

    /// The external interference floor per occupied subcarrier (empty when
    /// none is set).
    pub fn external_interference(&self) -> &[f64] {
        &self.ext_intf
    }

    /// External interference on subcarrier index `k_idx` (0 when unset).
    #[inline]
    fn ext_at(&self, k_idx: usize) -> f64 {
        self.ext_intf.get(k_idx).copied().unwrap_or(0.0)
    }

    /// Band-mean external interference (0 when unset) — the flat value the
    /// `k̂²/(N+I)` rate selection uses.
    fn ext_mean(&self) -> f64 {
        if self.ext_intf.is_empty() {
            0.0
        } else {
            self.ext_intf.iter().sum::<f64>() / self.ext_intf.len() as f64
        }
    }

    /// Installs a constant control-plane fault config (applies from now on).
    pub fn set_control_faults(&mut self, config: FaultConfig) {
        self.faults = FaultSchedule::constant(config);
    }

    /// Installs a time-varying fault schedule (loss storms etc.).
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.faults = schedule;
    }

    /// Sets the error budget (radians of predicted phase error) under which
    /// a slave that missed the sync header may still transmit on a
    /// CFO-extrapolated correction.
    pub fn set_sync_error_budget(&mut self, rad: f64) {
        self.sync_error_budget_rad = rad;
    }

    /// Per-slave sync health; index 0 is slave AP 1.
    pub fn sync_health(&self) -> &[SyncHealth] {
        &self.health
    }

    /// Airtime of one full channel-measurement exchange, including the
    /// post-packet turnaround — what a lost measurement still costs the air.
    /// Scaled by the sync backend's measurement factor: implicit-CSI
    /// strategies skip the explicit per-client measurement frames.
    pub fn measurement_airtime_s(&self) -> f64 {
        ((320 + self.cfg.rounds * self.cfg.n_aps * self.cfg.params.symbol_len()) as f64
            * self.cfg.params.sample_period()
            + 50e-6)
            * self.strategy.measurement_airtime_factor()
    }

    /// The active synchronization backend.
    pub fn sync_strategy(&self) -> SyncStrategyId {
        self.strategy.kind()
    }

    /// Swaps the synchronization backend, discarding per-slave sync state
    /// (the next [`FastNet::run_measurement`] re-seeds it). Emits
    /// [`EventKind::SyncStrategySwitched`] on the trace.
    pub fn set_sync_strategy(&mut self, kind: SyncStrategyId) {
        self.strategy = strategy_for(kind, self.cfg.n_aps);
        self.trace
            .emit(self.now, EventKind::SyncStrategySwitched { strategy: kind });
    }

    /// Worst-case predicted phase error (radians) across slaves at the
    /// current time — the per-strategy gauge the traffic layer exports.
    /// Infinite until the backend has references (before any measurement).
    pub fn sync_phase_error_rad(&self) -> f64 {
        (1..self.cfg.n_aps)
            .map(|s| self.strategy.phase_error_rad(s, self.now))
            .fold(0.0, f64::max)
    }

    /// Drains the out-of-band control airtime (seconds) the sync backend
    /// accrued since the last call (pilot broadcasts; zero for the default
    /// in-band strategy).
    pub fn take_sync_control_airtime_s(&mut self) -> f64 {
        self.strategy.take_control_airtime_s()
    }

    /// Whether the measurement frame at time `t` is lost to fault injection.
    /// Zero-probability configs make no RNG draw (determinism of clean runs).
    fn draw_meas_loss(&mut self, t: f64) -> bool {
        let p = self.faults.config_at(t).control.meas_loss_chance;
        p > 0.0 && self.fault_rng.gen::<f64>() < p
    }

    /// Whether slave `slave` misses the lead's sync header at time `t`.
    fn draw_sync_miss(&mut self, slave: usize, t: f64) -> bool {
        let p = self.faults.config_at(t).control.sync_loss_for(slave);
        p > 0.0 && self.fault_rng.gen::<f64>() < p
    }

    /// Returns the cached static AP→client channel snapshot, building it on
    /// first use after construction or fading evolution. Taken out of `self`
    /// (and restored by the caller) so the medium can be borrowed mutably
    /// alongside it.
    fn take_ap_client_static(&mut self) -> jmb_sim::StaticChannel {
        match self.static_ap_client.take() {
            Some(snap) => snap,
            None => self
                .medium
                .snapshot_static(&self.aps, &self.clients, &self.occupied),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The configuration.
    pub fn config(&self) -> &FastConfig {
        &self.cfg
    }

    /// Advances time (oscillators drift; call [`FastNet::evolve_fading`]
    /// separately to age the channels).
    #[expect(
        clippy::disallowed_macros,
        reason = "a negative dt is a harness programming error, not a runtime condition — time only flows forward in every caller"
    )]
    pub fn advance(&mut self, dt: f64) {
        assert!(dt >= 0.0, "cannot rewind simulation time (dt = {dt})");
        self.now += dt;
    }

    /// Ages every link's fading by `dt` seconds.
    pub fn evolve_fading(&mut self, dt: f64) {
        self.medium.evolve_fading(dt);
        self.static_ap_client = None;
    }

    /// Ages only one client's AP→client links by `dt` seconds — the §7
    /// scenario ("when a single receiver's channels change"): that client's
    /// row of `H` goes stale while everyone else's, and the lead→slave
    /// reference channels, stay valid.
    pub fn evolve_client_links(&mut self, client: usize, dt: f64) {
        let c = self.clients[client];
        let mut rng = jmb_dsp::rng::derive_rng(self.cfg.seed, 0xE70 ^ client as u64);
        for i in 0..self.cfg.n_aps {
            if let Some(link) = self.medium.link_mut(self.aps[i], c) {
                link.evolve(dt, &mut rng);
            }
        }
        self.static_ap_client = None;
    }

    /// The power normalisation of the current precoder.
    pub fn k_hat(&self) -> Option<f64> {
        self.precoder.as_ref().map(|p| p.k_hat())
    }

    /// The measured channel (after [`FastNet::run_measurement`]).
    pub fn measured_channel(&self) -> Option<&[CMat]> {
        self.h_meas.as_deref()
    }

    /// Ground-truth channel matrix at one subcarrier and time (for
    /// validation and ablation experiments).
    pub fn medium_true_channel(
        &mut self,
        txs: &[NodeId],
        rxs: &[NodeId],
        subcarrier: i32,
        t: f64,
    ) -> CMat {
        self.medium.channel_matrix(txs, rxs, subcarrier, t)
    }

    /// Medium node ids of the APs (index 0 = lead).
    pub fn ap_nodes(&self) -> &[NodeId] {
        &self.aps
    }

    /// Medium node ids of the clients.
    pub fn client_nodes(&self) -> &[NodeId] {
        &self.clients
    }

    /// Per-header estimation noise variance on the lead→slave channel,
    /// derived from the AP↔AP SNR (two LTF repetitions averaged).
    fn header_noise_var(&self) -> f64 {
        self.cfg.noise_var / 2.0
    }

    /// Measures a noisy per-subcarrier channel estimate of `tx → rx` at
    /// time `t`, averaging `n_avg` independent observations.
    fn noisy_estimate(&mut self, tx: NodeId, rx: NodeId, t: f64, n_avg: usize) -> ChannelEstimate {
        let var = self.cfg.noise_var / n_avg as f64;
        let mut gains = Vec::with_capacity(self.occupied.len());
        self.medium
            .channel_row_into(tx, rx, &self.occupied, t, &mut gains);
        for g in gains.iter_mut() {
            *g += complex_gaussian(&mut self.rng, var);
        }
        ChannelEstimate {
            subcarriers: self.occupied.clone(),
            gains,
        }
    }

    /// The channel-measurement phase (§5.1), frequency-domain model: every
    /// client measures every AP (averaged over `rounds`), slaves store
    /// their reference channel and a span-limited CFO seed.
    pub fn run_measurement(&mut self) -> Result<(), JmbError> {
        let t0 = self.now;
        if self.draw_meas_loss(t0) {
            // The exchange still occupied the air; CSI stays stale and the
            // caller owns the backoff re-measurement schedule.
            self.trace.emit(t0, EventKind::MeasurementLost);
            self.now = t0 + self.measurement_airtime_s();
            return Err(JmbError::MeasurementLost);
        }
        let n_k = self.occupied.len();
        let mut h = vec![CMat::zeros(self.cfg.n_clients, self.cfg.n_aps); n_k];
        // All estimates are taken at one instant, so the oscillator state
        // and the static tap sums are evaluated once (cached snapshot)
        // instead of once per (pair, subcarrier); only the per-round
        // estimation noise is drawn per pair and subcarrier, in the same
        // order as before.
        let snap = self.take_ap_client_static();
        let mut inst = jmb_sim::InstantPhasors::default();
        self.medium.instant_phasors(&snap, t0, &mut inst);
        let var = self.cfg.noise_var / self.cfg.rounds as f64;
        let mut row = Vec::with_capacity(n_k);
        for j in 0..self.cfg.n_clients {
            for i in 0..self.cfg.n_aps {
                snap.row_at(&inst, i, j, &mut row);
                for (k_idx, &g) in row.iter().enumerate() {
                    h[k_idx][(j, i)] = g + complex_gaussian(&mut self.rng, var);
                }
            }
        }
        self.static_ap_client = Some(snap);
        // Slave references + CFO seeds. Seed accuracy is phase-limited by
        // the rounds-section span (same formula as the sample-level net).
        let span_s = (self.cfg.rounds * self.cfg.n_aps) as f64
            * self.cfg.params.symbol_len() as f64
            * self.cfg.params.sample_period();
        let seed_sigma = (0.02 / (2.0 * std::f64::consts::PI * span_s)).max(10.0);
        let hnv = self.header_noise_var();
        self.strategy.on_measurement(
            &mut SyncCtx {
                medium: &mut self.medium,
                rng: &mut self.rng,
                aps: &self.aps,
                occupied: &self.occupied,
                header_noise_var: hnv,
            },
            t0,
            seed_sigma,
        );
        // A full-population precoder only exists when ZF is well posed
        // (clients ≤ AP antennas). An over-subscribed cell — the city-scale
        // case, hundreds of clients behind a handful of APs — still gets a
        // valid measurement: the MAC schedules ≤ n_aps clients per batch and
        // [`FastNet::joint_transmit_subset`] builds its per-batch precoder
        // from `h_meas` directly.
        self.precoder = if self.cfg.n_clients <= self.cfg.n_aps {
            Some(Precoder::zero_forcing(&h)?)
        } else {
            None
        };
        self.h_meas = Some(h);
        // Advance past the measurement packet.
        self.now = t0 + self.measurement_airtime_s();
        Ok(())
    }

    fn noisy_estimate_with_var(
        &mut self,
        tx: NodeId,
        rx: NodeId,
        t: f64,
        var: f64,
    ) -> ChannelEstimate {
        let mut gains = Vec::with_capacity(self.occupied.len());
        self.medium
            .channel_row_into(tx, rx, &self.occupied, t, &mut gains);
        for g in gains.iter_mut() {
            *g += complex_gaussian(&mut self.rng, var);
        }
        ChannelEstimate {
            subcarriers: self.occupied.clone(),
            gains,
        }
    }

    /// One virtual joint transmission (§5.2): slaves re-measure the lead
    /// from the header, apply their corrections, and the outcome is the
    /// per-client per-subcarrier SINR over the packet.
    ///
    /// `packet_duration_s` is the airtime of the data portion (drives
    /// within-packet tracking error); interference is averaged over
    /// `n_probes` instants across the packet. `mute_streams` lists stream
    /// indices carrying no data (used by the Fig. 8 nulling probe).
    ///
    /// `apply_phase_sync = false` is the ablation.
    pub fn joint_transmit(
        &mut self,
        packet_duration_s: f64,
        n_probes: usize,
        mute_streams: &[usize],
        apply_phase_sync: bool,
    ) -> Result<JointOutcome, JmbError> {
        if self.precoder.is_none() {
            return Err(JmbError::NoReference);
        }
        let t_h = self.now;
        let params = self.cfg.params.clone();
        let t_meas = t_h + 240.0 * params.sample_period();

        // Slave corrections from the sync backend (for the default JMB
        // strategy: a fresh in-band header measurement at `t_meas`). Each
        // correction carries its own anchor time: within-packet tracking
        // extrapolates from wherever the backend last observed the lead.
        let mut corr: Vec<Option<crate::phasesync::PhaseCorrection>> = vec![None; self.cfg.n_aps];
        let mut anchor = vec![t_meas; self.cfg.n_aps];
        let hnv = self.header_noise_var();
        for s in 1..self.cfg.n_aps {
            let (pc, t_anchor) = self.strategy.on_header(
                &mut SyncCtx {
                    medium: &mut self.medium,
                    rng: &mut self.rng,
                    aps: &self.aps,
                    occupied: &self.occupied,
                    header_noise_var: hnv,
                },
                s,
                t_meas,
            )?;
            anchor[s] = t_anchor;
            corr[s] = Some(pc);
        }

        let t_d = t_h + 320.0 * params.sample_period() + self.cfg.turnaround_s;
        let n_k = self.occupied.len();
        let n_clients = self.cfg.n_clients;
        let n_aps = self.cfg.n_aps;
        let nv = self.cfg.noise_var;
        let spacing = params.subcarrier_spacing();
        let carrier = params.carrier_freq;
        let mut sinr_db = vec![vec![0.0; n_k]; n_clients];
        let mut interference = vec![vec![0.0; n_k]; n_clients];

        let probes: Vec<f64> = (0..n_probes.max(1))
            .map(|p| t_d + packet_duration_s * (p as f64 + 0.5) / n_probes.max(1) as f64)
            .collect();

        // Take the precoder out of `self` for the duration of the hot loop
        // so we can borrow its weights without deep-cloning them while
        // `self.medium` is borrowed mutably. Restored below; there is no
        // fallible exit in between.
        let precoder = self.precoder.take().ok_or(JmbError::NoReference)?;
        let n_streams = precoder.n_streams();

        // Hot-loop scratch, reused across all (probe, subcarrier)
        // iterations: zero allocations inside the loops. The static link
        // responses (the multipath tap sums) come from the cached snapshot;
        // each probe instant then only pays the oscillator phasors, and
        // each subcarrier one rotation + one small mat-mul.
        let snap = self.take_ap_client_static();
        let mut inst = jmb_sim::InstantPhasors::default();
        let mut sig = vec![0.0f64; n_clients * n_k];
        let mut intf = vec![0.0f64; n_clients * n_k];
        let mut h_now = CMat::zeros(n_clients, n_aps);
        let mut eff = CMat::zeros(n_clients, n_aps);
        let mut g = CMat::zeros(n_clients, n_streams);

        for &t in &probes {
            self.medium.instant_phasors(&snap, t, &mut inst);
            for k_idx in 0..n_k {
                let k = self.occupied[k_idx];
                let w = precoder.weights_at(k_idx);
                // Effective channel at this instant: physical channel ×
                // per-AP correction (phase sync) per column.
                snap.matrix_at(&inst, k_idx, &mut h_now);
                eff.reset(n_clients, n_aps);
                for i in 0..n_aps {
                    let c = if apply_phase_sync {
                        match &corr[i] {
                            Some(c) => c.correction_at(k, t - anchor[i], spacing, carrier),
                            None => Complex64::ONE,
                        }
                    } else {
                        Complex64::ONE
                    };
                    for j in 0..n_clients {
                        eff[(j, i)] = h_now[(j, i)] * c;
                    }
                }
                #[expect(
                    clippy::expect_used,
                    reason = "eff (nb x n_tx), w (n_tx x nb), g (nb x nb) are sized from the same dims a few lines up; mul_into only errors on shape mismatch"
                )]
                eff.mul_into(w, &mut g)
                    .expect("invariant: eff/w/g allocated with matching dims just above");
                for j in 0..n_clients {
                    sig[j * n_k + k_idx] += g[(j, j)].norm_sqr();
                    for s in 0..n_streams {
                        if s != j && !mute_streams.contains(&s) {
                            intf[j * n_k + k_idx] += g[(j, s)].norm_sqr();
                        }
                    }
                }
            }
        }
        let np = probes.len() as f64;
        for j in 0..n_clients {
            for k_idx in 0..n_k {
                let s = sig[j * n_k + k_idx] / np;
                let i = intf[j * n_k + k_idx] / np;
                interference[j][k_idx] = i;
                sinr_db[j][k_idx] = jmb_dsp::stats::lin_to_db(s / (nv + self.ext_at(k_idx) + i));
            }
        }

        let k_hat = precoder.k_hat();
        self.precoder = Some(precoder);
        self.static_ap_client = Some(snap);

        self.now = t_d + packet_duration_s + 50e-6;
        Ok(JointOutcome {
            sinr_db,
            interference,
            k_hat,
        })
    }

    /// The Fig. 8 nulling probe: the signal for `victim` is zero, so
    /// whatever it receives is leakage plus its own noise floor. Returns
    /// the victim's INR in the paper's metric — total received power over
    /// noise, `10·log₁₀(1 + I/N)` — which is 0 dB under perfect alignment
    /// ("the ratio of the received signal power to noise should be 0 dB",
    /// §11.1c).
    pub fn null_probe(&mut self, victim: usize, packet_duration_s: f64) -> Result<f64, JmbError> {
        let outcome = self.joint_transmit(packet_duration_s, 4, &[victim], true)?;
        let nv = self.cfg.noise_var;
        let ratio = outcome.interference[victim]
            .iter()
            .map(|&i| (nv + i) / nv)
            .sum::<f64>()
            / outcome.interference[victim].len() as f64;
        Ok(jmb_dsp::stats::lin_to_db(ratio))
    }

    /// Diversity SNR (§8): all APs MRT-beamform to `client`; returns the
    /// per-subcarrier post-combining SNR in dB at one packet time.
    pub fn diversity_snr_db(&mut self, client: usize) -> Result<Vec<f64>, JmbError> {
        let h = self.h_meas.as_ref().ok_or(JmbError::NoReference)?;
        let rows: Vec<Vec<Complex64>> = (0..h.len())
            .map(|k_idx| (0..self.cfg.n_aps).map(|i| h[k_idx][(client, i)]).collect())
            .collect();
        let mrt = Precoder::mrt(&rows)?;
        let t_h = self.now;
        let params = self.cfg.params.clone();
        let t_meas = t_h + 240.0 * params.sample_period();
        let mut corr: Vec<Option<crate::phasesync::PhaseCorrection>> = vec![None; self.cfg.n_aps];
        let mut anchor = vec![t_meas; self.cfg.n_aps];
        let hnv = self.header_noise_var();
        for s in 1..self.cfg.n_aps {
            let (pc, t_anchor) = self.strategy.on_header(
                &mut SyncCtx {
                    medium: &mut self.medium,
                    rng: &mut self.rng,
                    aps: &self.aps,
                    occupied: &self.occupied,
                    header_noise_var: hnv,
                },
                s,
                t_meas,
            )?;
            anchor[s] = t_anchor;
            corr[s] = Some(pc);
        }
        let t = t_h + 320.0 * params.sample_period() + self.cfg.turnaround_s + 200e-6;
        let nv = self.cfg.noise_var;
        let spacing = params.subcarrier_spacing();
        let carrier = params.carrier_freq;
        // One row per AP at the single probe instant, so the static tap
        // sums (cached snapshot) and the per-pair oscillator state are
        // computed once instead of once per subcarrier.
        let snap = self.take_ap_client_static();
        let mut inst = jmb_sim::InstantPhasors::default();
        self.medium.instant_phasors(&snap, t, &mut inst);
        let mut rows: Vec<Vec<Complex64>> = Vec::with_capacity(self.cfg.n_aps);
        for i in 0..self.cfg.n_aps {
            let mut row = Vec::with_capacity(self.occupied.len());
            snap.row_at(&inst, i, client, &mut row);
            rows.push(row);
        }
        self.static_ap_client = Some(snap);
        let mut out = Vec::with_capacity(self.occupied.len());
        for k_idx in 0..self.occupied.len() {
            let k = self.occupied[k_idx];
            let w = mrt.weights_at(k_idx);
            let mut rx = Complex64::ZERO;
            for (i, row) in rows.iter().enumerate() {
                let c = match &corr[i] {
                    Some(c) => c.correction_at(k, t - anchor[i], spacing, carrier),
                    None => Complex64::ONE,
                };
                rx += row[k_idx] * c * w[(i, 0)];
            }
            out.push(jmb_dsp::stats::lin_to_db(rx.norm_sqr() / nv));
        }
        self.now = t + 300e-6;
        Ok(out)
    }

    /// The 802.11 baseline for one client: per-subcarrier SNR (dB) from its
    /// strongest (designated) AP transmitting alone at unit power.
    pub fn baseline_snr_db(&mut self, client: usize) -> Vec<f64> {
        let t = self.now;
        let nv = self.cfg.noise_var;
        let snap = self.take_ap_client_static();
        let mut inst = jmb_sim::InstantPhasors::default();
        self.medium.instant_phasors(&snap, t, &mut inst);
        // Designated AP = strongest mean channel power.
        let mut row = Vec::with_capacity(self.occupied.len());
        let mut best_ap = 0;
        let mut best_pw = -1.0;
        for i in 0..self.cfg.n_aps {
            snap.row_at(&inst, i, client, &mut row);
            let pw: f64 = row.iter().map(|h| h.norm_sqr()).sum();
            if pw > best_pw {
                best_pw = pw;
                best_ap = i;
            }
        }
        snap.row_at(&inst, best_ap, client, &mut row);
        self.static_ap_client = Some(snap);
        row.iter()
            .map(|h| jmb_dsp::stats::lin_to_db(h.norm_sqr() / nv))
            .collect()
    }

    /// Re-measures the channel rows of a *single* client (§7: decoupled
    /// measurements) without touching the other clients' rows.
    ///
    /// The newly measured row is taken at the current time `t_j`; every
    /// slave AP computes the accumulated lead-relative rotation
    /// `e^{j(ω_lead−ω_i)(t_j−t₁)}` from its two reference-channel
    /// observations, and the row is rotated back to the original reference
    /// time before being spliced into `H̃` (the appendix's factorisation).
    /// The precoder is rebuilt from the stitched matrix.
    pub fn remeasure_client(&mut self, client: usize) -> Result<(), JmbError> {
        if client >= self.cfg.n_clients {
            return Err(JmbError::BadConfig("no such client"));
        }
        let mut h = self.h_meas.clone().ok_or(JmbError::NoReference)?;
        let t_j = self.now;
        if self.draw_meas_loss(t_j) {
            // The decoupled exchange is much shorter than a full measurement.
            self.trace.emit(t_j, EventKind::MeasurementLost);
            self.now = t_j + 200e-6;
            return Err(JmbError::MeasurementLost);
        }
        // Per-slave rotation from fresh reference observations vs the
        // stored reference: ratio phase = (ω_lead − ω_i)(t_j − t₁) under the
        // medium's tx-minus-rx phase convention, in which the *same* factor
        // (not its conjugate) converts the fresh row's per-column oscillator
        // state back to the reference time. The accumulated rotation over a
        // many-ms gap carries a multi-radian sampling-offset ramp across
        // the band, so it is fitted (common phase + per-subcarrier slope,
        // with sequential unwrapping) rather than averaged flat.
        let ks: Vec<f64> = self.occupied.iter().map(|&k| k as f64).collect();
        let mut rotations: Vec<(f64, f64)> = vec![(0.0, 0.0)]; // lead: identity
        for s in 1..self.cfg.n_aps {
            let now_ref = self.noisy_estimate_with_var(
                self.aps[0],
                self.aps[s],
                t_j,
                self.header_noise_var(),
            );
            let stored = self
                .strategy
                .reference(s)
                .ok_or(JmbError::NoReference)?
                .clone();
            let ratios: Vec<Complex64> = now_ref
                .gains
                .iter()
                .zip(&stored.gains)
                .map(|(a, b)| *a * b.conj())
                .collect();
            rotations.push(jmb_dsp::complex::fit_linear_phase(&ks, &ratios));
        }
        // Fresh row for this client, rotated back to the reference time.
        let est = {
            let c = self.clients[client];
            let mut rows = Vec::with_capacity(self.cfg.n_aps);
            for i in 0..self.cfg.n_aps {
                rows.push(self.noisy_estimate(self.aps[i], c, t_j, self.cfg.rounds));
            }
            rows
        };
        for (k_idx, matrix) in h.iter_mut().enumerate() {
            let k = self.occupied[k_idx] as f64;
            for i in 0..self.cfg.n_aps {
                let (common, slope) = rotations[i];
                let rot = Complex64::cis(common + slope * k);
                matrix[(client, i)] = est[i].gains[k_idx] * rot;
            }
        }
        // Same well-posedness gate as `run_measurement`: over-subscribed
        // cells keep the stitched `h_meas` and rebuild per-batch precoders.
        self.precoder = if self.cfg.n_clients <= self.cfg.n_aps {
            Some(Precoder::zero_forcing(&h)?)
        } else {
            None
        };
        self.h_meas = Some(h);
        self.now = t_j + 200e-6;
        Ok(())
    }

    /// Rate selected for the joint transmission (same for every client,
    /// §9): from `k̂²/N`.
    pub fn select_joint_rate(&self) -> Option<Mcs> {
        let p = self.precoder.as_ref()?;
        let floor = self.cfg.noise_var + self.ext_mean();
        let snrs_db: Vec<f64> = p
            .k_hats()
            .iter()
            .map(|&k| jmb_dsp::stats::lin_to_db(k * k / floor))
            .collect();
        jmb_phy::esnr::select_mcs(&snrs_db)
    }

    /// One joint transmission to a *subset* of clients from a *subset* of
    /// APs — the MAC-driven case: a batch is rarely the full client
    /// population, and during an AP outage the array shrinks. A fresh
    /// zero-forcing precoder is built from the stored measurement `H̃`
    /// restricted to `(clients × active_aps)`, the MCS is selected from its
    /// `k̂²/N` (falling back to the base rate when even that is below
    /// threshold — the MAC's retry policy handles the resulting losses),
    /// and the airtime follows from MCS and `payload_bytes`.
    ///
    /// AP 0 stays the phase reference even when absent from `active_aps`
    /// (its oscillator is distributed over the wired backplane, §6 — a
    /// deliberate simplification so a lead data-path failure does not also
    /// destroy the slaves' phase references).
    ///
    /// Requires `run_measurement` first; `active_aps` must hold at least as
    /// many distinct APs as there are batch clients (ZF well-posedness).
    pub fn joint_transmit_subset(
        &mut self,
        clients: &[usize],
        active_aps: &[usize],
        payload_bytes: usize,
        n_probes: usize,
        apply_phase_sync: bool,
    ) -> Result<SubsetOutcome, JmbError> {
        if self.h_meas.is_none() {
            return Err(JmbError::NoReference);
        }
        let nb = clients.len();
        let na = active_aps.len();
        if nb == 0 || na == 0 {
            return Err(JmbError::BadConfig("empty batch or AP set"));
        }
        if clients.iter().any(|&j| j >= self.cfg.n_clients)
            || active_aps.iter().any(|&i| i >= self.cfg.n_aps)
        {
            return Err(JmbError::BadConfig("client or AP index out of range"));
        }
        for (x, &a) in clients.iter().enumerate() {
            if clients[..x].contains(&a) {
                return Err(JmbError::BadConfig("duplicate client in batch"));
            }
        }
        for (x, &a) in active_aps.iter().enumerate() {
            if active_aps[..x].contains(&a) {
                return Err(JmbError::BadConfig("duplicate AP in active set"));
            }
        }
        if na < nb {
            return Err(JmbError::BadConfig("fewer active APs than streams"));
        }

        // Sync headers first: which active slaves can phase-align for this
        // batch? A slave that misses the lead's header (fault injection) may
        // fall back to a CFO-extrapolated correction from its last heard
        // header — but only while healthy and within the error budget;
        // otherwise it is excluded from the batch and radiates nothing.
        let t_h = self.now;
        let params = self.cfg.params.clone();
        let t_meas = t_h + 240.0 * params.sample_period();
        let mut corr: Vec<Option<crate::phasesync::PhaseCorrection>> = vec![None; self.cfg.n_aps];
        // Anchor time of each AP's correction: fallback corrections are
        // anchored at the *old* header, so within-packet CFO tracking must
        // extrapolate from there rather than from this batch's header.
        let mut anchor = vec![t_meas; self.cfg.n_aps];
        let mut missed_slaves = Vec::new();
        let mut fallback_slaves = Vec::new();
        let mut newly_degraded = Vec::new();
        let mut newly_restored = Vec::new();
        let mut excluded = vec![false; self.cfg.n_aps];
        let hnv = self.header_noise_var();
        let inband = self.strategy.uses_inband_header();
        for &s in active_aps {
            if s == 0 {
                continue; // lead transmits the reference, needs no correction
            }
            // The miss/health machinery only exists for strategies that
            // listen for the in-band header: an out-of-band backend makes
            // no per-header fault draw (losing a frame header cannot
            // desynchronize it) and never degrades.
            if inband && self.draw_sync_miss(s, t_meas) {
                self.trace.emit(t_meas, EventKind::SyncMissed { slave: s });
                missed_slaves.push(s);
                if self.health[s - 1].record_miss() {
                    self.trace.emit(t_meas, EventKind::ApDegraded { ap: s });
                    newly_degraded.push(s);
                }
                let degraded = self.health[s - 1].is_degraded();
                let fallback =
                    self.strategy
                        .on_header_missed(s, t_meas, self.sync_error_budget_rad, degraded);
                match fallback {
                    Some((pc, t_old)) => {
                        anchor[s] = t_old;
                        corr[s] = Some(pc);
                        fallback_slaves.push(s);
                    }
                    None => excluded[s] = true,
                }
                continue;
            }
            if inband && self.health[s - 1].record_sync() {
                self.trace.emit(t_meas, EventKind::ApRestored { ap: s });
                newly_restored.push(s);
            }
            let (pc, t_anchor) = self.strategy.on_header(
                &mut SyncCtx {
                    medium: &mut self.medium,
                    rng: &mut self.rng,
                    aps: &self.aps,
                    occupied: &self.occupied,
                    header_noise_var: hnv,
                },
                s,
                t_meas,
            )?;
            anchor[s] = t_anchor;
            corr[s] = Some(pc);
        }

        // The effective AP set: everyone still able to phase-align. If too
        // few remain for the batch's streams, the transmission cannot go out
        // and the caller must shrink the batch or retry later.
        let eff_aps: Vec<usize> = active_aps
            .iter()
            .copied()
            .filter(|&i| !excluded[i])
            .collect();
        let na_eff = eff_aps.len();
        if na_eff < nb {
            let slave = excluded.iter().position(|&e| e).unwrap_or(0);
            return Err(JmbError::SyncHeaderMissed { slave });
        }

        // ZF over the measured channel restricted to the batch and the
        // effective AP set.
        let h_meas = self.h_meas.as_ref().ok_or(JmbError::NoReference)?;
        let n_k = self.occupied.len();
        let mut h_sub = vec![CMat::zeros(nb, na_eff); n_k];
        for k_idx in 0..n_k {
            for (r, &j) in clients.iter().enumerate() {
                for (c, &i) in eff_aps.iter().enumerate() {
                    h_sub[k_idx][(r, c)] = h_meas[k_idx][(j, i)];
                }
            }
        }
        let precoder = Precoder::zero_forcing(&h_sub)?;
        let floor = self.cfg.noise_var + self.ext_mean();
        let snrs_db: Vec<f64> = precoder
            .k_hats()
            .iter()
            .map(|&k| jmb_dsp::stats::lin_to_db(k * k / floor))
            .collect();
        let mcs = jmb_phy::esnr::select_mcs(&snrs_db).unwrap_or(Mcs::BASE);
        let airtime_s = crate::baseline::frame_airtime(&self.cfg.params, mcs, payload_bytes);

        let t_d = t_h + 320.0 * params.sample_period() + self.cfg.turnaround_s;
        let nv = self.cfg.noise_var;
        let spacing = params.subcarrier_spacing();
        let carrier = params.carrier_freq;
        let probes: Vec<f64> = (0..n_probes.max(1))
            .map(|p| t_d + airtime_s * (p as f64 + 0.5) / n_probes.max(1) as f64)
            .collect();

        let snap = self.take_ap_client_static();
        let mut inst = jmb_sim::InstantPhasors::default();
        let mut sig = vec![0.0f64; nb * n_k];
        let mut intf = vec![0.0f64; nb * n_k];
        // Channel rows for the (batch client × effective AP) pairs only —
        // `nb·na_eff` rows of `n_k` entries. A city-scale cell serves a few
        // hundred clients from a handful of APs, so building the full
        // `n_clients × n_aps` matrix per (probe, subcarrier) would dominate
        // the sweep; `row_at` is bit-identical to `matrix_at` per entry
        // (asserted by the sim crate's snapshot-equivalence test), so the
        // outcome is unchanged.
        let mut pair_rows: Vec<Vec<Complex64>> = vec![Vec::new(); nb * na_eff];
        let mut eff = CMat::zeros(nb, na_eff);
        let mut g = CMat::zeros(nb, nb);

        for &t in &probes {
            self.medium.instant_phasors(&snap, t, &mut inst);
            for (c, &i) in eff_aps.iter().enumerate() {
                for (r, &j) in clients.iter().enumerate() {
                    snap.row_at(&inst, i, j, &mut pair_rows[r * na_eff + c]);
                }
            }
            for k_idx in 0..n_k {
                let k = self.occupied[k_idx];
                let w = precoder.weights_at(k_idx);
                eff.reset(nb, na_eff);
                for (c, &i) in eff_aps.iter().enumerate() {
                    let corr_c = if apply_phase_sync {
                        match &corr[i] {
                            Some(pc) => pc.correction_at(k, t - anchor[i], spacing, carrier),
                            None => Complex64::ONE,
                        }
                    } else {
                        Complex64::ONE
                    };
                    for r in 0..nb {
                        eff[(r, c)] = pair_rows[r * na_eff + c][k_idx] * corr_c;
                    }
                }
                #[expect(
                    clippy::expect_used,
                    reason = "eff (nb x n_tx), w (n_tx x nb), g (nb x nb) are sized from the same dims a few lines up; mul_into only errors on shape mismatch"
                )]
                eff.mul_into(w, &mut g)
                    .expect("invariant: eff/w/g allocated with matching dims just above");
                for r in 0..nb {
                    sig[r * n_k + k_idx] += g[(r, r)].norm_sqr();
                    for s in 0..nb {
                        if s != r {
                            intf[r * n_k + k_idx] += g[(r, s)].norm_sqr();
                        }
                    }
                }
            }
        }
        self.static_ap_client = Some(snap);

        let np = probes.len() as f64;
        let mut sinr_db = vec![vec![0.0; n_k]; nb];
        for r in 0..nb {
            for k_idx in 0..n_k {
                let s = sig[r * n_k + k_idx] / np;
                let i = intf[r * n_k + k_idx] / np;
                sinr_db[r][k_idx] = jmb_dsp::stats::lin_to_db(s / (nv + self.ext_at(k_idx) + i));
            }
        }
        let eff_snr_db: Vec<f64> = sinr_db
            .iter()
            .map(|s| jmb_phy::esnr::effective_snr_db_eesm(mcs, s))
            .collect();

        self.now = t_d + airtime_s + 50e-6;
        Ok(SubsetOutcome {
            clients: clients.to_vec(),
            mcs,
            airtime_s,
            eff_snr_db,
            sinr_db,
            missed_slaves,
            fallback_slaves,
            newly_degraded,
            newly_restored,
        })
    }
}

/// Outcome of a [`FastNet::joint_transmit_subset`] call.
#[derive(Debug, Clone)]
pub struct SubsetOutcome {
    /// The batch clients, in stream order.
    pub clients: Vec<usize>,
    /// The MCS selected for the joint transmission (shared, §9).
    pub mcs: Mcs,
    /// Airtime of the data frame, seconds.
    pub airtime_s: f64,
    /// Per-batch-client EESM effective SNR (dB) at the selected MCS.
    pub eff_snr_db: Vec<f64>,
    /// Per-batch-client per-subcarrier SINR (dB).
    pub sinr_db: Vec<Vec<f64>>,
    /// Slave APs that missed the lead's sync header for this batch.
    pub missed_slaves: Vec<usize>,
    /// Slaves among [`SubsetOutcome::missed_slaves`] that still transmitted
    /// on a CFO-extrapolated fallback correction (within the error budget).
    pub fallback_slaves: Vec<usize>,
    /// Slaves newly marked degraded by this batch (K consecutive misses).
    pub newly_degraded: Vec<usize>,
    /// Previously degraded slaves that heard the header again and were
    /// restored to service by this batch.
    pub newly_restored: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize, snr: f64, seed: u64) -> FastConfig {
        FastConfig::default_with(n, n, vec![snr; n], seed)
    }

    #[test]
    fn joint_sinr_approaches_snr_with_sync() {
        let mut net = FastNet::new(cfg(4, 20.0, 1)).unwrap();
        net.run_measurement().unwrap();
        net.advance(5e-3);
        let out = net.joint_transmit(1e-3, 4, &[], true).unwrap();
        for (j, sinrs) in out.sinr_db.iter().enumerate() {
            let mean = jmb_dsp::stats::mean(sinrs);
            // ZF costs a few dB relative to the single-link SNR (channel
            // conditioning, per-client fairness through the shared k̂), but
            // the SINR must stay in the usable band.
            assert!(mean > 6.0, "client {j}: mean SINR {mean}");
        }
    }

    #[test]
    fn without_sync_sinr_collapses() {
        let mut net = FastNet::new(cfg(4, 20.0, 2)).unwrap();
        net.run_measurement().unwrap();
        net.advance(5e-3);
        let with = net.joint_transmit(1e-3, 4, &[], true).unwrap();
        // Rebuild identically and disable sync.
        let mut net2 = FastNet::new(cfg(4, 20.0, 2)).unwrap();
        net2.run_measurement().unwrap();
        net2.advance(5e-3);
        let without = net2.joint_transmit(1e-3, 4, &[], false).unwrap();
        let m_with = jmb_dsp::stats::mean(&with.sinr_db.concat());
        let m_without = jmb_dsp::stats::mean(&without.sinr_db.concat());
        assert!(
            m_with > m_without + 8.0,
            "sync {m_with} dB vs no-sync {m_without} dB"
        );
    }

    #[test]
    fn null_probe_inr_is_small() {
        let mut net = FastNet::new(cfg(3, 15.0, 3)).unwrap();
        net.run_measurement().unwrap();
        net.advance(2e-3);
        let inr = net.null_probe(0, 1e-3).unwrap();
        assert!(inr > 0.0, "INR {inr} dB cannot be below the noise floor");
        assert!(inr < 3.0, "INR {inr} dB");
    }

    #[test]
    fn diversity_snr_beats_baseline() {
        let n = 6;
        // Fig. 11 method: "roughly similar SNRs to all APs".
        let mut cfg = FastConfig::default_with(n, 1, vec![8.0], 4);
        cfg.ap_spread_db = 2.0;
        let mut net = FastNet::new(cfg).unwrap();
        net.run_measurement().unwrap();
        net.advance(1e-3);
        let base = jmb_dsp::stats::mean(&net.baseline_snr_db(0));
        let div = jmb_dsp::stats::mean(&net.diversity_snr_db(0).unwrap());
        // Coherent combining of 6 APs: ≥ ~10 dB over a single AP.
        assert!(div > base + 6.0, "diversity {div} dB vs baseline {base} dB");
    }

    #[test]
    fn baseline_snr_matches_calibration() {
        // Average over draws: per-subcarrier Rayleigh fading puts the mean
        // of dB-domain SNR ~2.5 dB below the calibrated (linear-mean)
        // target, with large per-draw spread.
        let mut means = Vec::new();
        for seed in 0..10 {
            let mut net = FastNet::new(cfg(2, 18.0, 50 + seed)).unwrap();
            net.run_measurement().unwrap();
            means.push(jmb_dsp::stats::mean(&net.baseline_snr_db(0)));
        }
        let mean = jmb_dsp::stats::mean(&means);
        assert!((mean - 15.5).abs() < 3.5, "baseline mean {mean}");
    }

    #[test]
    fn rate_selection_present_at_good_snr() {
        let mut net = FastNet::new(cfg(2, 25.0, 6)).unwrap();
        net.run_measurement().unwrap();
        assert!(net.select_joint_rate().is_some());
    }

    #[test]
    fn config_validation() {
        assert!(FastNet::new(FastConfig::default_with(0, 1, vec![10.0], 1)).is_err());
        assert!(FastNet::new(FastConfig::default_with(2, 2, vec![10.0], 1)).is_err());
    }

    #[test]
    fn joint_requires_measurement() {
        let mut net = FastNet::new(cfg(2, 20.0, 7)).unwrap();
        assert!(matches!(
            net.joint_transmit(1e-3, 2, &[], true),
            Err(JmbError::NoReference)
        ));
    }

    #[test]
    fn decoupled_remeasurement_restores_sinr() {
        // §7 end to end on the fast medium: one client's channel changes
        // (fading fully decorrelates); re-measuring only that client — at a
        // different time than the original measurement, stitched via the
        // lead→slave references — restores its SINR without re-measuring
        // anyone else.
        let mut net = FastNet::new(cfg(3, 20.0, 9)).unwrap();
        net.run_measurement().unwrap();
        net.advance(2e-3);
        let before = net.joint_transmit(5e-4, 2, &[], true).unwrap();
        let base = jmb_dsp::stats::mean(&before.sinr_db[0]);
        // Client 0's channels change drastically (its user walked across
        // the room); the stored H is stale for its row only, and the
        // lead→slave reference channels (static infrastructure) are intact.
        net.advance(10e-3);
        net.evolve_client_links(0, 60.0); // many coherence times
        let stale = net.joint_transmit(5e-4, 2, &[], true).unwrap();
        let stale_sinr = jmb_dsp::stats::mean(&stale.sinr_db[0]);
        assert!(stale_sinr < base - 6.0, "stale {stale_sinr} vs base {base}");
        // Re-measure only client 0, at a different time than the original
        // measurement, stitched via the lead→slave references (§7).
        net.advance(1e-3);
        net.remeasure_client(0).unwrap();
        net.advance(1e-3);
        let fixed = net.joint_transmit(5e-4, 2, &[], true).unwrap();
        let fixed_sinr = jmb_dsp::stats::mean(&fixed.sinr_db[0]);
        assert!(
            fixed_sinr > stale_sinr + 5.0,
            "decoupled remeasure must recover: stale {stale_sinr} → {fixed_sinr}"
        );
        // The other clients kept working throughout (their rows are valid).
        for j in 1..3 {
            let s = jmb_dsp::stats::mean(&fixed.sinr_db[j]);
            assert!(s > 8.0, "client {j} SINR {s}");
        }
    }

    #[test]
    fn remeasure_validates_client() {
        let mut net = FastNet::new(cfg(2, 20.0, 9)).unwrap();
        assert!(matches!(
            net.remeasure_client(0),
            Err(JmbError::NoReference)
        ));
        net.run_measurement().unwrap();
        assert!(matches!(
            net.remeasure_client(7),
            Err(JmbError::BadConfig(_))
        ));
        assert!(net.remeasure_client(0).is_ok());
    }

    #[test]
    fn reproducible_from_seed() {
        let run = |seed| {
            let mut net = FastNet::new(cfg(3, 15.0, seed)).unwrap();
            net.run_measurement().unwrap();
            net.advance(1e-3);
            net.joint_transmit(5e-4, 2, &[], true).unwrap().sinr_db
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn subset_transmit_serves_batch_with_fewer_aps() {
        let mut net = FastNet::new(cfg(4, 20.0, 11)).unwrap();
        net.run_measurement().unwrap();
        net.advance(2e-3);
        // A 2-client batch over the full array.
        let out = net
            .joint_transmit_subset(&[0, 2], &[0, 1, 2, 3], 1500, 2, true)
            .unwrap();
        assert_eq!(out.clients, vec![0, 2]);
        assert!(out.airtime_s > 0.0);
        for (r, &e) in out.eff_snr_db.iter().enumerate() {
            assert!(e > 5.0, "stream {r}: eff SNR {e} dB");
        }
        // AP 1 down: the 3-AP subset still serves both clients.
        let out = net
            .joint_transmit_subset(&[0, 2], &[0, 2, 3], 1500, 2, true)
            .unwrap();
        for (r, &e) in out.eff_snr_db.iter().enumerate() {
            assert!(e > 3.0, "stream {r} without AP 1: eff SNR {e} dB");
        }
    }

    #[test]
    fn subset_transmit_survives_lead_data_path_failure() {
        // AP 0 absent from the active set (data-path outage); its oscillator
        // stays the phase reference over the wired backplane.
        let mut net = FastNet::new(cfg(4, 20.0, 12)).unwrap();
        net.run_measurement().unwrap();
        net.advance(2e-3);
        let out = net
            .joint_transmit_subset(&[1, 3], &[1, 2, 3], 1500, 2, true)
            .unwrap();
        for (r, &e) in out.eff_snr_db.iter().enumerate() {
            assert!(e > 3.0, "stream {r} without AP 0: eff SNR {e} dB");
        }
    }

    #[test]
    fn subset_transmit_validates() {
        let mut net = FastNet::new(cfg(3, 20.0, 13)).unwrap();
        assert!(matches!(
            net.joint_transmit_subset(&[0], &[0, 1, 2], 100, 1, true),
            Err(JmbError::NoReference)
        ));
        net.run_measurement().unwrap();
        assert!(net
            .joint_transmit_subset(&[0, 0], &[0, 1, 2], 100, 1, true)
            .is_err());
        assert!(net
            .joint_transmit_subset(&[0, 1, 2], &[0, 1], 100, 1, true)
            .is_err());
        assert!(net.joint_transmit_subset(&[], &[0], 100, 1, true).is_err());
        assert!(net
            .joint_transmit_subset(&[5], &[0, 1, 2], 100, 1, true)
            .is_err());
    }

    #[test]
    fn measurement_loss_surfaces_and_charges_airtime() {
        let mut net = FastNet::new(cfg(2, 20.0, 21)).unwrap();
        let lossy = FaultConfig::builder()
            .meas_loss_chance(1.0)
            .build()
            .unwrap();
        net.set_control_faults(lossy.clone());
        let t0 = net.now();
        assert_eq!(net.run_measurement(), Err(JmbError::MeasurementLost));
        assert!(net.now() > t0, "the lost exchange still costs airtime");
        // Clearing the fault lets the measurement succeed; a lost decoupled
        // re-measurement surfaces the same way.
        net.set_control_faults(FaultConfig::none());
        net.run_measurement().unwrap();
        net.advance(1e-3);
        net.set_control_faults(lossy);
        assert_eq!(net.remeasure_client(0), Err(JmbError::MeasurementLost));
    }

    #[test]
    fn sync_miss_falls_back_then_degrades_then_restores() {
        let mut net = FastNet::new(cfg(3, 20.0, 22)).unwrap();
        net.run_measurement().unwrap();
        net.advance(1e-3);
        net.set_control_faults(
            FaultConfig::builder()
                .per_slave_sync_loss(1, 1.0)
                .build()
                .unwrap(),
        );
        // Misses 1 and 2: recent CSI keeps the extrapolation inside the
        // budget, so slave 1 still transmits on a fallback correction.
        for round in 0..2 {
            let out = net
                .joint_transmit_subset(&[0, 1], &[0, 1, 2], 1500, 1, true)
                .unwrap();
            assert_eq!(out.missed_slaves, vec![1], "round {round}");
            assert_eq!(out.fallback_slaves, vec![1], "round {round}");
            assert!(out.newly_degraded.is_empty(), "round {round}");
        }
        // Miss 3 degrades the slave: excluded, but the batch still fits the
        // remaining APs {0, 2}.
        let out = net
            .joint_transmit_subset(&[0, 1], &[0, 1, 2], 1500, 1, true)
            .unwrap();
        assert_eq!(out.newly_degraded, vec![1]);
        assert!(out.fallback_slaves.is_empty());
        assert!(net.sync_health()[0].is_degraded());
        // A 3-stream batch no longer has enough coherent APs: typed error,
        // no panic.
        assert_eq!(
            net.joint_transmit_subset(&[0, 1, 2], &[0, 1, 2], 1500, 1, true)
                .unwrap_err(),
            JmbError::SyncHeaderMissed { slave: 1 }
        );
        // Faults clear: the slave hears a header again and is restored.
        net.set_control_faults(FaultConfig::none());
        let out = net
            .joint_transmit_subset(&[0, 1], &[0, 1, 2], 1500, 1, true)
            .unwrap();
        assert_eq!(out.newly_restored, vec![1]);
        assert!(!net.sync_health()[0].is_degraded());
    }

    #[test]
    fn sync_loss_window_ending_on_the_resync_tick_is_half_open() {
        // The slave re-measures the lead 240 samples into the batch, so the
        // sync-miss fault draw happens at `t_meas = now + 240·T_s` — not at
        // the batch start. A storm window that ends *exactly* on that tick
        // must not swallow the header (windows are `[from_s, until_s)`),
        // while a window lasting any longer must.
        let base = cfg(2, 20.0, 31);
        let sp = base.params.sample_period();
        let storm = FaultConfig::builder()
            .per_slave_sync_loss(1, 1.0)
            .build()
            .unwrap();
        let run = |until_of: &dyn Fn(f64) -> f64| {
            let mut net = FastNet::new(base.clone()).unwrap();
            net.run_measurement().unwrap();
            net.advance(1e-3);
            let t_meas = net.now() + 240.0 * sp;
            net.set_fault_schedule(
                FaultSchedule::none()
                    .with_window(0.0, until_of(t_meas), storm.clone())
                    .unwrap(),
            );
            net.joint_transmit_subset(&[0, 1], &[0, 1], 1500, 1, true)
                .unwrap()
        };
        // Boundary tick: `t_meas == until_s` sits outside the window.
        let out = run(&|t_meas| t_meas);
        assert!(
            out.missed_slaves.is_empty(),
            "resync on the window's end tick must hear the header"
        );
        // One representable instant longer and the draw lands inside.
        let out = run(&|t_meas: f64| t_meas.next_up());
        assert_eq!(out.missed_slaves, vec![1]);
    }

    #[test]
    fn clean_fault_config_changes_nothing() {
        // Installing an all-zero fault schedule must not perturb results:
        // no fault-RNG draws happen on the clean path.
        let run = |set_faults: bool| {
            let mut net = FastNet::new(cfg(3, 15.0, 23)).unwrap();
            if set_faults {
                net.set_fault_schedule(FaultSchedule::none());
            }
            net.run_measurement().unwrap();
            net.advance(1e-3);
            net.joint_transmit_subset(&[0, 1], &[0, 1, 2], 1500, 2, true)
                .unwrap()
                .sinr_db
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn inr_grows_gently_with_aps() {
        // Fig. 8's qualitative property: more AP-client pairs ⇒ more
        // residual interference, but gently.
        let inr_at = |n: usize| {
            let samples: Vec<f64> = (0..6)
                .map(|s| {
                    let mut net = FastNet::new(cfg(n, 20.0, 100 + s)).unwrap();
                    net.run_measurement().unwrap();
                    net.advance(2e-3);
                    net.null_probe(0, 1e-3).unwrap()
                })
                .collect();
            jmb_dsp::stats::mean(&samples)
        };
        let small = inr_at(2);
        let large = inr_at(8);
        assert!(large > small, "INR must grow: {small} → {large}");
        // Paper Fig. 8: ~0.13 dB per added AP-client pair; allow 2-3x slack
        // for our simulated measurement-noise calibration.
        assert!(large < small + 0.4 * 6.0, "but gently: {small} → {large}");
    }

    #[test]
    fn external_interference_lowers_sinr_and_rate() {
        let run = |ext: Option<f64>| {
            let mut net = FastNet::new(cfg(4, 20.0, 31)).unwrap();
            if let Some(v) = ext {
                net.set_external_interference(&[v]).unwrap();
            }
            net.run_measurement().unwrap();
            net.advance(2e-3);
            let out = net
                .joint_transmit_subset(&[0, 1], &[0, 1, 2, 3], 1500, 2, true)
                .unwrap();
            (out.sinr_db, out.mcs)
        };
        let (clean, mcs_clean) = run(None);
        // Interference equal to 9x the noise floor: the denominator grows
        // from nv + leakage to 10·nv + leakage, so SINR falls by roughly
        // 10·log10(10) = 10 dB. Not exactly: the backed-off MCS changes the
        // batch airtime, so the probes sample slightly different fading
        // instants — allow a ±2 dB band around the nominal loss.
        let (loud, mcs_loud) = run(Some(9.0));
        for (c, l) in clean.concat().iter().zip(loud.concat().iter()) {
            let drop = c - l;
            assert!(
                (drop - 10.0).abs() < 2.0,
                "expected ~10 dB of SINR loss: {c} vs {l}"
            );
        }
        assert!(
            mcs_loud.index() < mcs_clean.index(),
            "rate must back off under interference: {mcs_clean} vs {mcs_loud}"
        );
        // An explicitly cleared floor is byte-identical to never setting one.
        let (cleared, _) = run(Some(0.0));
        assert_eq!(clean, cleared);
    }

    #[test]
    fn external_interference_validates() {
        let mut net = FastNet::new(cfg(2, 20.0, 32)).unwrap();
        assert!(net.set_external_interference(&[0.5, 0.5]).is_err());
        assert!(net.set_external_interference(&[-1.0]).is_err());
        assert!(net.set_external_interference(&[f64::NAN]).is_err());
        let n_k = net.config().params.occupied_subcarriers().len();
        assert!(net.set_external_interference(&vec![0.25; n_k]).is_ok());
        assert_eq!(net.external_interference().len(), n_k);
        assert!(net.set_external_interference(&[]).is_ok());
        assert!(net.external_interference().is_empty());
    }

    #[test]
    fn oversubscribed_cell_measures_and_serves_batches() {
        // City-scale shape: many more clients than AP antennas. The full
        // population has no joint precoder (ZF would be ill-posed), but
        // measurement succeeds and per-batch subset transmissions work.
        let mut c = FastConfig::default_with(4, 12, vec![20.0; 12], 33);
        c.rounds = 8; // keep the test fast
        let mut net = FastNet::new(c).unwrap();
        net.run_measurement().unwrap();
        assert!(net.select_joint_rate().is_none(), "no full-population rate");
        assert!(matches!(
            net.joint_transmit(1e-3, 1, &[], true),
            Err(JmbError::NoReference)
        ));
        net.advance(1e-3);
        let out = net
            .joint_transmit_subset(&[3, 7, 10, 11], &[0, 1, 2, 3], 1500, 1, true)
            .unwrap();
        assert_eq!(out.clients.len(), 4);
        for (r, &e) in out.eff_snr_db.iter().enumerate() {
            assert!(e.is_finite(), "stream {r}: eff SNR {e}");
        }
        // Decoupled re-measurement also keeps working without a precoder.
        net.advance(1e-3);
        net.remeasure_client(5).unwrap();
    }
}
