//! # jmb-core — JMB: joint multi-user beamforming from distributed APs
//!
//! The reproduction of the paper's contribution (Rahul, Kumar, Katabi,
//! SIGCOMM 2012): a system in which independent access points — each with
//! its own free-running oscillator — transmit *concurrently on the same
//! channel* to multiple clients, as if they were one large MIMO node.
//!
//! The crate is organised around the paper's sections:
//!
//! | module | paper | what it does |
//! |---|---|---|
//! | [`phasesync`] | §4, §5.2 | distributed phase synchronization: lead reference channel, direct phase measurement, EWMA CFO for within-packet tracking |
//! | [`precoder`] | §4, §8 | zero-forcing joint beamforming and MRT diversity, with the power normalisation `k` used for rate selection |
//! | [`measure`] | §5.1 | the interleaved channel-measurement packet and client-side per-AP estimation referred to one reference time |
//! | [`net`] | §5 | the sample-level protocol testbench: lead/slave APs and clients over the [`jmb_sim::Medium`] |
//! | [`fastnet`] | §4 | the per-subcarrier protocol model over [`jmb_sim::SubcarrierMedium`], used by the large experiment sweeps |
//! | [`decouple`] | §7 + appendix | decoupled channel measurements to different receivers via the lead→slave reference channels |
//! | [`csi`] | §7, robustness | CSI age/confidence tracking, backoff re-measurement scheduling, per-slave sync health |
//! | [`compat`] | §6 | 802.11n compatibility: reference-antenna channel stitching and multi-antenna (2×2 → 4×4) joint transmission |
//! | [`sync`] | §5.2 + related work | pluggable synchronization strategies: the paper's lead/slave resync plus out-of-band pilot tracking and implicit-CSI rivals behind one [`sync::SyncStrategy`] trait |
//! | [`mac`] | §9 | the link layer: shared queue, designated APs, lead election, joint packet selection, async ACKs, retransmission |
//! | [`baseline`] | §11 | the comparison systems: 802.11 TDMA equal-share and single-AP MU-MIMO |
//! | [`experiment`] | §11 | the harness that regenerates every figure of the evaluation |

#![warn(missing_docs)]

pub mod baseline;
pub mod compat;
pub mod csi;
pub mod decouple;
pub mod error;
pub mod experiment;
pub mod fastnet;
pub mod mac;
pub mod measure;
pub mod net;
pub mod phasesync;
pub mod precoder;
pub mod sync;

pub use csi::{BackoffPolicy, CsiTracker, SyncHealth};
pub use error::JmbError;
pub use phasesync::PhaseSync;
pub use precoder::Precoder;
pub use sync::{strategy_for, SyncCtx, SyncStrategy, SyncStrategyId};
