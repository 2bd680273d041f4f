//! The per-subcarrier (fast) radio medium.
//!
//! For the large throughput sweeps (Figs. 8–13 of the paper: hundreds of
//! topologies × up to 10 APs × 3 SNR bands) the sample-level medium is
//! needlessly expensive. This medium works directly on the paper's own
//! analytical decomposition (§4):
//!
//! ```text
//! H(t) = R(t) · H · T(t)
//! ```
//!
//! Per occupied subcarrier `k`, the channel from transmitter `i` to receiver
//! `j` at symbol time `t` is
//!
//! ```text
//! h_ji(k; t) = link_ji(k) · e^{j(φ_i(t) − φ_j(t))}
//! ```
//!
//! with `link_ji(k)` the static (within coherence time) frequency response
//! and `φ` the oscillators' accumulated phase errors. Sampling-frequency
//! offset appears as a per-subcarrier phase ramp that grows with time,
//! consistent with the sample-level medium.
//!
//! The medium transports whole 64-bin OFDM symbol vectors; noise is per-bin
//! AWGN. Cross-validated against [`crate::medium::Medium`] in the workspace
//! integration tests.

use jmb_channel::{Link, PhaseTrajectory};
use jmb_dsp::rng::{complex_gaussian, JmbRng};
use jmb_dsp::{CMat, Complex64};
use jmb_phy::params::OfdmParams;

pub use crate::medium::NodeId;

struct Node {
    traj: PhaseTrajectory,
    /// Complex AWGN variance per frequency bin.
    noise_var: f64,
}

/// Time-invariant channel snapshot from [`SubcarrierMedium::snapshot_static`]:
/// the static frequency responses of a fixed tx/rx node set on a subcarrier
/// list. Combine with [`InstantPhasors`] via [`Self::matrix_at`].
pub struct StaticChannel {
    txs: Vec<NodeId>,
    rxs: Vec<NodeId>,
    ks: Vec<i32>,
    spacing: f64,
    /// `resp[k_idx][(j, i)]` = static response of `rx_j ← tx_i`.
    resp: Vec<CMat>,
}

/// Per-instant oscillator state for a [`StaticChannel`]'s node sets, filled
/// by [`SubcarrierMedium::instant_phasors`]. Reusable scratch: both vectors
/// are cleared and refilled on each call.
#[derive(Default)]
pub struct InstantPhasors {
    /// `e^{j(φ_tx−φ_rx)}` per (rx, tx) pair, rx-major.
    pair_phasor: Vec<Complex64>,
    /// Sample-clock slip `(ratio_tx − ratio_rx)·t` per (rx, tx) pair.
    slip_s: Vec<f64>,
}

impl StaticChannel {
    /// The instantaneous channel matrix on subcarrier index `k_idx` at the
    /// instant captured by `inst`, into a reused matrix. Produces exactly
    /// `static_resp × e^{j(φ_tx−φ_rx)} × e^{j2πf_k·slip}` per entry — the
    /// same product, in the same order, as [`SubcarrierMedium::channel_at`].
    pub fn matrix_at(&self, inst: &InstantPhasors, k_idx: usize, out: &mut CMat) {
        let n_tx = self.txs.len();
        let n_rx = self.rxs.len();
        let f_k = self.ks[k_idx] as f64 * self.spacing;
        let resp = &self.resp[k_idx];
        out.reset(n_rx, n_tx);
        for j in 0..n_rx {
            for i in 0..n_tx {
                let p = j * n_tx + i;
                let sfo_rot = Complex64::cis(2.0 * std::f64::consts::PI * f_k * inst.slip_s[p]);
                out[(j, i)] = resp[(j, i)] * inst.pair_phasor[p] * sfo_rot;
            }
        }
    }

    /// One (tx, rx) pair's channel on every snapshotted subcarrier at the
    /// instant captured by `inst`, into a reused buffer — the row-shaped
    /// sibling of [`Self::matrix_at`], same per-entry arithmetic as
    /// [`SubcarrierMedium::channel_row_into`].
    pub fn row_at(
        &self,
        inst: &InstantPhasors,
        tx_idx: usize,
        rx_idx: usize,
        out: &mut Vec<Complex64>,
    ) {
        let p = rx_idx * self.txs.len() + tx_idx;
        let pair = inst.pair_phasor[p];
        let slip_s = inst.slip_s[p];
        out.clear();
        for (k_idx, &k) in self.ks.iter().enumerate() {
            let f_k = k as f64 * self.spacing;
            let sfo_rot = Complex64::cis(2.0 * std::f64::consts::PI * f_k * slip_s);
            out.push(self.resp[k_idx][(rx_idx, tx_idx)] * pair * sfo_rot);
        }
    }

    /// Number of subcarriers in the snapshot.
    pub fn n_subcarriers(&self) -> usize {
        self.ks.len()
    }
}

/// The fast, frequency-domain medium.
pub struct SubcarrierMedium {
    params: OfdmParams,
    nodes: Vec<Node>,
    /// `links[tx][rx]`.
    links: Vec<Vec<Option<Link>>>,
    rng: JmbRng,
}

impl SubcarrierMedium {
    /// Creates an empty medium.
    pub fn new(params: OfdmParams, seed: u64) -> Self {
        SubcarrierMedium {
            params,
            nodes: Vec::new(),
            links: Vec::new(),
            rng: jmb_dsp::rng::rng_from_seed(seed),
        }
    }

    /// The numerology in use.
    pub fn params(&self) -> &OfdmParams {
        &self.params
    }

    /// Registers a node (oscillator + per-bin noise variance).
    pub fn add_node(&mut self, traj: PhaseTrajectory, noise_var: f64) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node { traj, noise_var });
        for row in self.links.iter_mut() {
            row.push(None);
        }
        self.links.push(vec![None; self.nodes.len()]);
        id
    }

    /// Installs the directional link `tx → rx`.
    pub fn set_link(&mut self, tx: NodeId, rx: NodeId, link: Link) {
        self.links[tx.0][rx.0] = Some(link);
    }

    /// Mutable link access (for fading evolution).
    pub fn link_mut(&mut self, tx: NodeId, rx: NodeId) -> Option<&mut Link> {
        self.links[tx.0][rx.0].as_mut()
    }

    /// Shared link access.
    pub fn link(&self, tx: NodeId, rx: NodeId) -> Option<&Link> {
        self.links[tx.0][rx.0].as_ref()
    }

    /// Mutable oscillator access.
    pub fn trajectory_mut(&mut self, node: NodeId) -> &mut PhaseTrajectory {
        &mut self.nodes[node.0].traj
    }

    /// Per-bin noise variance of a node.
    pub fn noise_var(&self, node: NodeId) -> f64 {
        self.nodes[node.0].noise_var
    }

    /// The *instantaneous physical* channel from `tx` to `rx` on one
    /// subcarrier at global time `t` — static link response times the
    /// oscillators' relative phasor. SFO contributes a time-growing
    /// per-subcarrier ramp.
    pub fn channel_at(&mut self, tx: NodeId, rx: NodeId, subcarrier: i32, t: f64) -> Complex64 {
        let Some(link) = self.links[tx.0][rx.0].as_ref() else {
            return Complex64::ZERO;
        };
        let f_k = subcarrier as f64 * self.params.subcarrier_spacing();
        let static_resp = link.freq_response_at(f_k);
        let tx_phase = self.nodes[tx.0].traj.phase_at(t);
        let rx_phase = self.nodes[rx.0].traj.phase_at(t);
        // Sampling-offset-induced timing drift: the two sample clocks slip
        // by (ratio_tx − ratio_rx)·t seconds over time, which appears as a
        // per-subcarrier phase ramp (exactly what the sample-level medium's
        // resampling produces).
        let slip_s =
            (self.nodes[tx.0].traj.sample_ratio() - self.nodes[rx.0].traj.sample_ratio()) * t;
        let sfo_rot = Complex64::cis(2.0 * std::f64::consts::PI * f_k * slip_s);
        static_resp * Complex64::cis(tx_phase - rx_phase) * sfo_rot
    }

    /// The full channel matrix on one subcarrier at time `t`:
    /// `H[(j, i)] = h(rx_j ← tx_i)` — rows are receivers, columns are
    /// transmitters, matching the paper's `H` (§4).
    pub fn channel_matrix(
        &mut self,
        txs: &[NodeId],
        rxs: &[NodeId],
        subcarrier: i32,
        t: f64,
    ) -> CMat {
        let mut h = CMat::zeros(rxs.len(), txs.len());
        self.channel_matrix_into(txs, rxs, subcarrier, t, &mut h);
        h
    }

    /// Allocation-free variant of [`Self::channel_matrix`]: fills `out`
    /// (reshaped to `rxs.len() × txs.len()`, reusing its storage) instead of
    /// returning a fresh matrix. This is the form the per-subcarrier hot
    /// loops use so no matrix is allocated per (subcarrier, probe) pair.
    pub fn channel_matrix_into(
        &mut self,
        txs: &[NodeId],
        rxs: &[NodeId],
        subcarrier: i32,
        t: f64,
        out: &mut CMat,
    ) {
        out.reset(rxs.len(), txs.len());
        for (j, &rx) in rxs.iter().enumerate() {
            for (i, &tx) in txs.iter().enumerate() {
                out[(j, i)] = self.channel_at(tx, rx, subcarrier, t);
            }
        }
    }

    /// One link's channel on every subcarrier of `ks` at a single instant,
    /// into a reused buffer. Identical arithmetic to [`Self::channel_at`]
    /// per entry, but the oscillator phases, the pair phasor, and the clock
    /// slip — which do not depend on the subcarrier — are computed once
    /// instead of `ks.len()` times.
    pub fn channel_row_into(
        &mut self,
        tx: NodeId,
        rx: NodeId,
        ks: &[i32],
        t: f64,
        out: &mut Vec<Complex64>,
    ) {
        out.clear();
        let Some(link) = self.links[tx.0][rx.0].as_ref() else {
            out.resize(ks.len(), Complex64::ZERO);
            return;
        };
        let tx_phase = self.nodes[tx.0].traj.phase_at(t);
        let rx_phase = self.nodes[rx.0].traj.phase_at(t);
        let pair = Complex64::cis(tx_phase - rx_phase);
        let slip_s =
            (self.nodes[tx.0].traj.sample_ratio() - self.nodes[rx.0].traj.sample_ratio()) * t;
        let spacing = self.params.subcarrier_spacing();
        for &k in ks {
            let f_k = k as f64 * spacing;
            let static_resp = link.freq_response_at(f_k);
            let sfo_rot = Complex64::cis(2.0 * std::f64::consts::PI * f_k * slip_s);
            out.push(static_resp * pair * sfo_rot);
        }
    }

    /// Snapshots the *static* part of the channels between a fixed
    /// transmitter and receiver set on a subcarrier list: link gain ×
    /// fading response × delay rotation, per (rx, tx, subcarrier). The
    /// multipath tap sum is the expensive term of [`Self::channel_at`] and
    /// is time-invariant between fading evolutions, so packet-length hot
    /// loops build this once and then pay only the oscillator phasors per
    /// probe instant (see [`InstantPhasors`] and [`StaticChannel::matrix_at`]).
    ///
    /// The snapshot is stale once any involved link evolves; rebuild it.
    pub fn snapshot_static(&self, txs: &[NodeId], rxs: &[NodeId], ks: &[i32]) -> StaticChannel {
        let spacing = self.params.subcarrier_spacing();
        let resp = ks
            .iter()
            .map(|&k| {
                let f_k = k as f64 * spacing;
                let mut m = CMat::zeros(rxs.len(), txs.len());
                for (j, &rx) in rxs.iter().enumerate() {
                    for (i, &tx) in txs.iter().enumerate() {
                        if let Some(link) = self.links[tx.0][rx.0].as_ref() {
                            m[(j, i)] = link.freq_response_at(f_k);
                        }
                    }
                }
                m
            })
            .collect();
        StaticChannel {
            txs: txs.to_vec(),
            rxs: rxs.to_vec(),
            ks: ks.to_vec(),
            spacing,
            resp,
        }
    }

    /// Evaluates the oscillator state of `snap`'s node sets at instant `t`:
    /// pair phasors `e^{j(φ_tx−φ_rx)}` and per-pair sample-clock slips,
    /// once per instant instead of once per (pair, subcarrier).
    #[expect(
        clippy::disallowed_macros,
        reason = "debug_assert! checks an internal invariant in debug builds only"
    )]
    pub fn instant_phasors(&mut self, snap: &StaticChannel, t: f64, out: &mut InstantPhasors) {
        let n_tx = snap.txs.len();
        let tx_state: Vec<(f64, f64)> = snap
            .txs
            .iter()
            .map(|&n| {
                let traj = &mut self.nodes[n.0].traj;
                (traj.phase_at(t), traj.sample_ratio())
            })
            .collect();
        let rx_state: Vec<(f64, f64)> = snap
            .rxs
            .iter()
            .map(|&n| {
                let traj = &mut self.nodes[n.0].traj;
                (traj.phase_at(t), traj.sample_ratio())
            })
            .collect();
        out.pair_phasor.clear();
        out.slip_s.clear();
        for &(rx_phase, rx_ratio) in &rx_state {
            for &(tx_phase, tx_ratio) in &tx_state {
                out.pair_phasor.push(Complex64::cis(tx_phase - rx_phase));
                out.slip_s.push((tx_ratio - rx_ratio) * t);
            }
        }
        debug_assert_eq!(out.pair_phasor.len(), n_tx * snap.rxs.len());
    }

    /// Transports one OFDM symbol: each transmitter radiates its 64-bin
    /// vector at global time `t`; each receiver gets the superposition
    /// through the instantaneous channels plus per-bin AWGN.
    ///
    /// Returns one 64-bin vector per entry of `rxs`.
    ///
    /// # Panics
    ///
    /// Panics if any transmit vector is not `fft_size` long.
    #[expect(
        clippy::disallowed_macros,
        reason = "caller contract — every transmitter renders bins with the medium's own fft_size"
    )]
    pub fn transmit_symbol(
        &mut self,
        txs: &[(NodeId, &[Complex64])],
        rxs: &[NodeId],
        t: f64,
    ) -> Vec<Vec<Complex64>> {
        let n = self.params.fft_size;
        for (_, bins) in txs {
            assert_eq!(bins.len(), n, "tx bins must be fft_size long");
        }
        let occupied = self.params.occupied_subcarriers();
        let mut out = Vec::with_capacity(rxs.len());
        for &rx in rxs {
            let noise_var = self.nodes[rx.0].noise_var;
            let mut bins = vec![Complex64::ZERO; n];
            // Noise on occupied bins (unoccupied bins are ignored downstream).
            for &k in &occupied {
                let b = self.params.bin(k);
                bins[b] = complex_gaussian(&mut self.rng, noise_var);
            }
            for &(tx, tx_bins) in txs {
                if tx == rx {
                    continue;
                }
                if self.links[tx.0][rx.0].is_none() {
                    continue;
                }
                for &k in &occupied {
                    let b = self.params.bin(k);
                    if tx_bins[b] == Complex64::ZERO {
                        continue;
                    }
                    let h = self.channel_at(tx, rx, k, t);
                    bins[b] = h.mul_add(tx_bins[b], bins[b]);
                }
            }
            out.push(bins);
        }
        out
    }

    /// Evolves every link's fading by `dt` seconds.
    pub fn evolve_fading(&mut self, dt: f64) {
        // Use a derived RNG stream so fading evolution does not perturb the
        // noise stream (keeps experiments comparable across configurations).
        let mut rng = jmb_dsp::rng::derive_rng(self.rng.gen_seed(), 0xFAD);
        for row in self.links.iter_mut() {
            for l in row.iter_mut().flatten() {
                l.evolve(dt, &mut rng);
            }
        }
    }
}

/// Small extension trait to pull a derivation seed out of an RNG without
/// consuming its main stream semantics.
trait GenSeed {
    fn gen_seed(&mut self) -> u64;
}

impl GenSeed for JmbRng {
    fn gen_seed(&mut self) -> u64 {
        use rand::Rng;
        self.gen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmb_dsp::complex::mean_power;
    use jmb_phy::params::ChannelProfile;

    const FC: f64 = 2.437e9;

    fn medium(seed: u64) -> SubcarrierMedium {
        SubcarrierMedium::new(OfdmParams::new(ChannelProfile::Usrp10MHz), seed)
    }

    fn clean_node(m: &mut SubcarrierMedium) -> NodeId {
        m.add_node(PhaseTrajectory::fixed(FC, 0.0), 0.0)
    }

    #[test]
    fn ideal_link_identity_channel() {
        let mut m = medium(1);
        let a = clean_node(&mut m);
        let b = clean_node(&mut m);
        m.set_link(a, b, Link::ideal());
        for k in [-26, -7, 1, 26] {
            let h = m.channel_at(a, b, k, 0.0);
            assert!((h - Complex64::ONE).abs() < 1e-12, "k={k}");
        }
        assert_eq!(
            m.channel_at(b, a, 1, 0.0),
            Complex64::ZERO,
            "no reverse link"
        );
    }

    #[test]
    fn cfo_rotates_channel_over_time() {
        let mut m = medium(2);
        let cfo = 1_000.0;
        let a = m.add_node(PhaseTrajectory::fixed(FC, cfo), 0.0);
        let b = clean_node(&mut m);
        m.set_link(a, b, Link::ideal());
        let h0 = m.channel_at(a, b, 1, 0.0);
        let t = 1e-3;
        let h1 = m.channel_at(a, b, 1, t);
        let expected_rot = 2.0 * std::f64::consts::PI * cfo * t;
        let got = (h1 * h0.conj()).arg();
        // Tolerance admits the (physically correct) SFO phase ramp the
        // shared crystal adds: ~4e-4 rad here.
        assert!(
            (jmb_dsp::complex::wrap_phase(got - expected_rot)).abs() < 1e-3,
            "rotation {got} vs {expected_rot}"
        );
    }

    #[test]
    fn channel_matrix_shape_and_content() {
        let mut m = medium(3);
        let t1 = clean_node(&mut m);
        let t2 = clean_node(&mut m);
        let r1 = clean_node(&mut m);
        let r2 = clean_node(&mut m);
        let mut link = Link::ideal();
        link.gain = Complex64::new(0.5, 0.0);
        m.set_link(t1, r1, Link::ideal());
        m.set_link(t2, r2, link);
        let h = m.channel_matrix(&[t1, t2], &[r1, r2], 1, 0.0);
        assert_eq!(h.rows(), 2);
        assert_eq!(h.cols(), 2);
        assert!((h[(0, 0)] - Complex64::ONE).abs() < 1e-12);
        assert!((h[(1, 1)] - Complex64::new(0.5, 0.0)).abs() < 1e-12);
        assert_eq!(h[(0, 1)], Complex64::ZERO);
        assert_eq!(h[(1, 0)], Complex64::ZERO);
    }

    #[test]
    fn transmit_symbol_superposes() {
        let mut m = medium(4);
        let t1 = clean_node(&mut m);
        let t2 = clean_node(&mut m);
        let rx = clean_node(&mut m);
        m.set_link(t1, rx, Link::ideal());
        m.set_link(t2, rx, Link::ideal());
        let p = m.params().clone();
        let mut bins = vec![Complex64::ZERO; p.fft_size];
        bins[p.bin(5)] = Complex64::ONE;
        let neg: Vec<Complex64> = bins.iter().map(|&x| -x).collect();
        let out = m.transmit_symbol(&[(t1, &bins), (t2, &neg)], &[rx], 0.0);
        assert_eq!(out.len(), 1);
        assert!(out[0][p.bin(5)].abs() < 1e-12, "perfect null");
        let out2 = m.transmit_symbol(&[(t1, &bins), (t2, &bins)], &[rx], 0.0);
        assert!((out2[0][p.bin(5)] - Complex64::real(2.0)).abs() < 1e-12);
    }

    #[test]
    fn noise_power_per_bin() {
        let mut m = medium(5);
        let rx = m.add_node(PhaseTrajectory::fixed(FC, 0.0), 0.02);
        let p = m.params().clone();
        let mut acc = Vec::new();
        for i in 0..200 {
            let out = m.transmit_symbol(&[], &[rx], i as f64 * 8e-6);
            for &k in &p.occupied_subcarriers() {
                acc.push(out[0][p.bin(k)]);
            }
        }
        let pw = mean_power(&acc);
        assert!((pw - 0.02).abs() < 0.002, "noise power {pw}");
    }

    #[test]
    fn sfo_creates_subcarrier_ramp() {
        let mut m = medium(6);
        // +10 ppm transmitter.
        let offset = 10e-6 * FC;
        let a = m.add_node(PhaseTrajectory::fixed(FC, offset), 0.0);
        let b = clean_node(&mut m);
        m.set_link(a, b, Link::ideal());
        let t = 2e-3; // 2 ms of clock slip
        let h_low = m.channel_at(a, b, -20, t);
        let h_high = m.channel_at(a, b, 20, t);
        // CFO rotation is common; the differential phase across subcarriers
        // comes from SFO slip: Δφ = 2π·(f_high − f_low)·(ppm·t).
        let p = m.params().clone();
        let slip = 10e-6 * t;
        let expected = 2.0 * std::f64::consts::PI * 40.0 * p.subcarrier_spacing() * slip;
        let got = (h_high * h_low.conj()).arg();
        assert!(
            (jmb_dsp::complex::wrap_phase(got - expected)).abs() < 1e-6,
            "ramp {got} vs {expected}"
        );
    }

    #[test]
    fn decompose_like_paper_r_h_t() {
        // The medium must satisfy H(t) = R(t)·H·T(t) with diagonal R, T —
        // verify by checking h_ji(t)/h_ji(0) = e^{j(ω_i−ω_j)t} independent
        // of the static channel.
        let mut m = medium(7);
        let tx1 = m.add_node(PhaseTrajectory::fixed(FC, 500.0), 0.0);
        let tx2 = m.add_node(PhaseTrajectory::fixed(FC, -300.0), 0.0);
        let rx = m.add_node(PhaseTrajectory::fixed(FC, 120.0), 0.0);
        let mut l1 = Link::ideal();
        l1.gain = Complex64::from_polar(0.7, 1.0);
        let mut l2 = Link::ideal();
        l2.gain = Complex64::from_polar(0.3, -2.0);
        m.set_link(tx1, rx, l1);
        m.set_link(tx2, rx, l2);
        let t = 0.5e-3;
        for (tx, f_tx) in [(tx1, 500.0), (tx2, -300.0)] {
            let h0 = m.channel_at(tx, rx, 3, 0.0);
            let ht = m.channel_at(tx, rx, 3, t);
            let ratio = ht / h0;
            let expected = Complex64::cis(2.0 * std::f64::consts::PI * (f_tx - 120.0) * t);
            // Tolerance admits the shared-crystal SFO ramp (~2e-4 rad).
            assert!((ratio - expected).abs() < 1e-3, "tx offset {f_tx}");
        }
    }

    #[test]
    fn snapshot_paths_match_channel_at_exactly() {
        // The hoisted fast paths (snapshot_static + instant_phasors →
        // matrix_at / row_at, and channel_row_into) must produce
        // bit-identical values to per-entry channel_at: same operands,
        // same multiplication order.
        let mut m = medium(21);
        let mut rng = jmb_dsp::rng::rng_from_seed(5);
        let txs: Vec<NodeId> = (0..3)
            .map(|i| m.add_node(PhaseTrajectory::fixed(FC, 300.0 * i as f64 - 200.0), 0.0))
            .collect();
        let rxs: Vec<NodeId> = (0..2)
            .map(|j| m.add_node(PhaseTrajectory::fixed(FC, -150.0 * j as f64 + 80.0), 0.0))
            .collect();
        for &tx in &txs {
            for &rx in &rxs {
                let link = Link::new(
                    Complex64::from_polar(0.8, 0.3),
                    25e-9,
                    jmb_channel::Multipath::new(
                        jmb_channel::MultipathSpec::indoor_nlos(),
                        &mut rng,
                    ),
                );
                m.set_link(tx, rx, link);
            }
        }
        let ks = [-26, -3, 1, 17, 26];
        let snap = m.snapshot_static(&txs, &rxs, &ks);
        let mut inst = InstantPhasors::default();
        let mut got = CMat::zeros(1, 1);
        let mut row = Vec::new();
        for t in [0.0, 1.3e-3, 7.7e-3] {
            m.instant_phasors(&snap, t, &mut inst);
            for (k_idx, &k) in ks.iter().enumerate() {
                snap.matrix_at(&inst, k_idx, &mut got);
                for (j, &rx) in rxs.iter().enumerate() {
                    for (i, &tx) in txs.iter().enumerate() {
                        let want = m.channel_at(tx, rx, k, t);
                        assert_eq!(got[(j, i)], want, "matrix_at k={k} t={t}");
                        snap.row_at(&inst, i, j, &mut row);
                        assert_eq!(row[k_idx], want, "row_at k={k} t={t}");
                    }
                }
            }
            for (j, &rx) in rxs.iter().enumerate() {
                for (i, &tx) in txs.iter().enumerate() {
                    m.channel_row_into(tx, rx, &ks, t, &mut row);
                    for (k_idx, &k) in ks.iter().enumerate() {
                        assert_eq!(
                            row[k_idx],
                            m.channel_at(tx, rx, k, t),
                            "channel_row_into tx={i} rx={j} k={k}"
                        );
                    }
                }
            }
        }
        // Missing links are zero in every path.
        let lonely = clean_node(&mut m);
        m.channel_row_into(lonely, rxs[0], &ks, 0.0, &mut row);
        assert!(row.iter().all(|&h| h == Complex64::ZERO));
    }

    #[test]
    fn fading_evolution_changes_links() {
        let mut m = medium(8);
        let a = clean_node(&mut m);
        let b = clean_node(&mut m);
        let mut rng = jmb_dsp::rng::rng_from_seed(77);
        let link = Link::new(
            Complex64::ONE,
            0.0,
            jmb_channel::Multipath::new(jmb_channel::MultipathSpec::indoor_nlos(), &mut rng),
        );
        m.set_link(a, b, link);
        let h0 = m.channel_at(a, b, 5, 0.0);
        m.evolve_fading(10.0); // many coherence times
        let h1 = m.channel_at(a, b, 5, 0.0);
        assert!((h0 - h1).abs() > 1e-6, "fading did not evolve");
    }
}
