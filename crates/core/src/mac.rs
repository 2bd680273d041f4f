//! JMB's link layer (§9).
//!
//! "In JMB, all downlink packets are sent on the Ethernet to all JMB APs.
//! Thus, all APs in the network have the same downlink queue. Each packet in
//! the queue has a designated AP… JMB always uses the packet at the head of
//! the queue for transmission, and nominates the designated AP of this
//! packet as the lead AP for this transmission. The lead AP then chooses
//! additional packets for joint transmission…"
//!
//! This module implements that shared queue, the designated-AP/lead
//! election, joint-batch selection, the weighted contention window with
//! binary-exponential backoff, and the asynchronous-acknowledgment
//! retransmission policy ("APs in JMB keep packets in the queue until they
//! are ACKed. If a packet is not ACKed, they can be combined with other
//! packets in the queue for future concurrent transmissions").

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

use jmb_obs::Registry;
use std::collections::VecDeque;

/// One downlink packet in the shared queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacPacket {
    /// Queue-assigned id, unique per [`JmbMac`] instance.
    pub id: u64,
    /// Destination client.
    pub dest: usize,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Transmission attempts so far.
    pub attempts: u32,
}

/// Link-layer configuration.
#[derive(Debug, Clone, Copy)]
pub struct MacConfig {
    /// Maximum transmission attempts before a packet is dropped.
    pub retry_limit: u32,
    /// Maximum concurrent streams per joint transmission (total AP
    /// antennas).
    pub max_streams: usize,
    /// Base 802.11 contention window (slots).
    pub cw_min: u32,
    /// Contention-window ceiling for binary-exponential backoff (slots).
    pub cw_max: u32,
}

impl Default for MacConfig {
    fn default() -> Self {
        MacConfig {
            retry_limit: 7,
            max_streams: 8,
            cw_min: 16,
            cw_max: 1024,
        }
    }
}

/// What happened to one packet when its batch completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketFate {
    /// The client acknowledged; the packet leaves the queue for good.
    Acked {
        /// Destination client.
        dest: usize,
        /// Packet id.
        id: u64,
    },
    /// No ACK; the packet returned to the queue for a future joint
    /// transmission.
    Requeued {
        /// Destination client.
        dest: usize,
        /// Packet id.
        id: u64,
        /// Attempts made so far.
        attempts: u32,
    },
    /// No ACK and the retry budget is spent; the packet is gone.
    Dropped {
        /// Destination client.
        dest: usize,
        /// Packet id.
        id: u64,
    },
}

/// Per-client delivery statistics, kept in a [`jmb_obs::Registry`].
///
/// Metric names: `mac_delivered_bits{client}` (gauge),
/// `mac_dropped{client}` (counter), `mac_transmissions` (counter),
/// `mac_airtime_s` (gauge).
#[derive(Debug, Clone, Default)]
pub struct MacStats {
    reg: Registry,
    n_clients: usize,
}

impl MacStats {
    fn ensure(&mut self, n: usize) {
        self.n_clients = self.n_clients.max(n);
    }

    fn record_transmission(&mut self, airtime_s: f64) {
        self.reg.inc("mac_transmissions");
        self.reg.gauge_add("mac_airtime_s", airtime_s);
    }

    fn record_delivery(&mut self, client: usize, bits: f64) {
        self.reg
            .gauge_add_at("mac_delivered_bits", client as u32, bits);
    }

    fn record_drop(&mut self, client: usize) {
        self.reg.inc_at("mac_dropped", client as u32);
    }

    /// Bits delivered (ACKed) per client.
    pub fn delivered_bits(&self) -> Vec<f64> {
        self.reg.gauge_vec("mac_delivered_bits", self.n_clients)
    }

    /// Bits delivered to one client.
    pub fn delivered_bits_for(&self, client: usize) -> f64 {
        self.reg.gauge_at("mac_delivered_bits", client as u32)
    }

    /// Packets dropped after exhausting retries, per client.
    pub fn dropped(&self) -> Vec<u64> {
        (0..self.n_clients)
            .map(|c| self.reg.counter_at("mac_dropped", c as u32))
            .collect()
    }

    /// Drops for one client.
    pub fn dropped_for(&self, client: usize) -> u64 {
        self.reg.counter_at("mac_dropped", client as u32)
    }

    /// Total drops across clients.
    pub fn dropped_total(&self) -> u64 {
        self.reg.counter_total("mac_dropped")
    }

    /// Joint transmissions performed.
    pub fn transmissions(&self) -> u64 {
        self.reg.counter("mac_transmissions")
    }

    /// Total airtime spent, seconds.
    pub fn airtime_s(&self) -> f64 {
        self.reg.gauge("mac_airtime_s")
    }

    /// The underlying registry (for merging into run-level metrics).
    pub fn registry(&self) -> &Registry {
        &self.reg
    }

    /// Per-client throughput over the recorded airtime, bits/second.
    pub fn throughput(&self) -> Vec<f64> {
        let airtime = self.airtime_s();
        if airtime <= 0.0 {
            return vec![0.0; self.n_clients];
        }
        self.delivered_bits().iter().map(|&b| b / airtime).collect()
    }
}

/// The shared downlink queue and scheduler.
#[derive(Debug)]
pub struct JmbMac {
    cfg: MacConfig,
    queue: VecDeque<MacPacket>,
    next_id: u64,
    /// Designated AP per client ("the AP with the strongest SNR to the
    /// client to which that packet is destined").
    designated_ap: Vec<usize>,
    /// Binary-exponential backoff stage: doubles the base window per
    /// consecutive failed joint transmission, resets on a fully-ACKed one.
    backoff_stage: u32,
    /// Consecutive-loss counter per client, for hidden-terminal handling
    /// (§9: "situations causing persistent packet loss due to repeated
    /// collisions can be detected … and the lead AP can ensure that JMB
    /// access points that trigger hidden terminal packet loss above a
    /// threshold are not part of the joint transmission").
    consecutive_losses: Vec<u32>,
    /// Clients currently excluded from joint transmissions.
    blacklisted: Vec<bool>,
    /// Consecutive losses before a client's packets are excluded.
    pub blacklist_threshold: u32,
    /// Statistics.
    pub stats: MacStats,
}

impl JmbMac {
    /// Creates a MAC with the designated-AP map (index = client).
    pub fn new(cfg: MacConfig, designated_ap: Vec<usize>) -> Self {
        let mut stats = MacStats::default();
        let n = designated_ap.len();
        stats.ensure(n);
        JmbMac {
            cfg,
            queue: VecDeque::new(),
            next_id: 0,
            designated_ap,
            backoff_stage: 0,
            consecutive_losses: vec![0; n],
            blacklisted: vec![false; n],
            blacklist_threshold: 6,
            stats,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &MacConfig {
        &self.cfg
    }

    /// The designated AP for a client.
    pub fn designated_ap(&self, client: usize) -> usize {
        self.designated_ap[client]
    }

    /// Re-maps a client's designated AP (e.g. after its AP failed).
    pub fn set_designated_ap(&mut self, client: usize, ap: usize) {
        self.designated_ap[client] = ap;
    }

    /// Caps the number of concurrent streams (e.g. to the count of live
    /// APs, so ZF stays well-posed during an outage).
    pub fn set_max_streams(&mut self, n: usize) {
        self.cfg.max_streams = n.max(1);
    }

    /// Whether a client is currently excluded from joint transmissions.
    pub fn is_blacklisted(&self, client: usize) -> bool {
        self.blacklisted.get(client).copied().unwrap_or(false)
    }

    /// Clears a client's hidden-terminal blacklist entry (e.g. after its
    /// channels were re-measured).
    pub fn clear_blacklist(&mut self, client: usize) {
        if let Some(b) = self.blacklisted.get_mut(client) {
            *b = false;
        }
        if let Some(c) = self.consecutive_losses.get_mut(client) {
            *c = 0;
        }
    }

    /// Clears every client's blacklist entry.
    pub fn clear_all_blacklists(&mut self) {
        for c in 0..self.blacklisted.len() {
            self.clear_blacklist(c);
        }
    }

    /// Enqueues a downlink packet (distributed to all APs over the wired
    /// backend) and returns its queue-assigned id.
    #[expect(
        clippy::disallowed_macros,
        reason = "an unknown client index is a harness programming error — clients are fixed at MAC construction"
    )]
    pub fn enqueue(&mut self, dest: usize, payload: Vec<u8>) -> u64 {
        assert!(dest < self.designated_ap.len(), "unknown client {dest}");
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push_back(MacPacket {
            id,
            dest,
            payload,
            attempts: 0,
        });
        id
    }

    /// Packets waiting.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The lead AP for the next transmission: the designated AP of the
    /// head-of-queue packet.
    pub fn next_lead(&self) -> Option<usize> {
        self.queue.front().map(|p| self.designated_ap[p.dest])
    }

    /// Selects the next joint batch: the head of the queue plus the next
    /// packets for *distinct* clients, up to `max_streams`. Payloads are
    /// padded to a common length (every stream must span the same number of
    /// OFDM symbols). Removes the selected packets from the queue.
    pub fn select_batch(&mut self) -> Vec<MacPacket> {
        let mut batch: Vec<MacPacket> = Vec::new();
        let mut kept: VecDeque<MacPacket> = VecDeque::new();
        while let Some(p) = self.queue.pop_front() {
            let dest_taken = batch.iter().any(|b| b.dest == p.dest);
            let excluded = self.blacklisted[p.dest];
            if !dest_taken && !excluded && batch.len() < self.cfg.max_streams {
                batch.push(p);
            } else {
                kept.push_back(p);
            }
        }
        self.queue = kept;
        // Pad payloads to a common length.
        if let Some(max_len) = batch.iter().map(|p| p.payload.len()).max() {
            for p in batch.iter_mut() {
                p.payload.resize(max_len, 0);
            }
        }
        batch
    }

    /// The contention window the lead uses: the base window grown by
    /// binary-exponential backoff (doubling per consecutive failed joint
    /// transmission, capped at `cw_max`), then "weighted by the number of
    /// packets in the joint transmission" \[29\] — a joint transmission of
    /// `n` packets contends as aggressively as `n` independent stations.
    pub fn contention_window(&self, batch_size: usize) -> u32 {
        let grown = self
            .cfg
            .cw_min
            .saturating_mul(1u32 << self.backoff_stage.min(16))
            .min(self.cfg.cw_max)
            .max(1);
        (grown / batch_size.max(1) as u32).max(1)
    }

    /// Current binary-exponential backoff stage.
    pub fn backoff_stage(&self) -> u32 {
        self.backoff_stage
    }

    /// Completes a batch: `acked[i]` says whether client `batch[i].dest`
    /// acknowledged (asynchronously, §9). Failed packets return to the
    /// queue unless their retry budget is spent. `airtime_s` is the airtime
    /// the whole joint transmission consumed. Returns the fate of each
    /// packet, in batch order.
    #[expect(
        clippy::disallowed_macros,
        reason = "caller contract — the batch and its ack vector are built together by the traffic backend"
    )]
    pub fn complete_batch(
        &mut self,
        batch: Vec<MacPacket>,
        acked: &[bool],
        airtime_s: f64,
    ) -> Vec<PacketFate> {
        assert_eq!(batch.len(), acked.len(), "one ack per batch packet");
        if batch.is_empty() {
            return Vec::new();
        }
        self.stats.record_transmission(airtime_s);
        if acked.iter().all(|&ok| ok) {
            self.backoff_stage = 0;
        } else {
            self.backoff_stage = (self.backoff_stage + 1).min(16);
        }
        let mut fates = Vec::with_capacity(batch.len());
        for (mut p, &ok) in batch.into_iter().zip(acked) {
            self.stats.ensure(p.dest + 1);
            if ok {
                self.stats
                    .record_delivery(p.dest, 8.0 * p.payload.len() as f64);
                self.consecutive_losses[p.dest] = 0;
                fates.push(PacketFate::Acked {
                    dest: p.dest,
                    id: p.id,
                });
            } else {
                self.consecutive_losses[p.dest] += 1;
                if self.consecutive_losses[p.dest] >= self.blacklist_threshold {
                    self.blacklisted[p.dest] = true;
                }
                p.attempts += 1;
                if p.attempts >= self.cfg.retry_limit {
                    self.stats.record_drop(p.dest);
                    fates.push(PacketFate::Dropped {
                        dest: p.dest,
                        id: p.id,
                    });
                } else {
                    fates.push(PacketFate::Requeued {
                        dest: p.dest,
                        id: p.id,
                        attempts: p.attempts,
                    });
                    // Re-queue for a future joint transmission.
                    self.queue.push_back(p);
                }
            }
        }
        fates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(n_clients: usize) -> JmbMac {
        JmbMac::new(MacConfig::default(), (0..n_clients).collect())
    }

    #[test]
    fn batch_takes_distinct_destinations() {
        let mut m = mac(3);
        m.enqueue(0, vec![1; 100]);
        m.enqueue(0, vec![2; 100]);
        m.enqueue(1, vec![3; 100]);
        m.enqueue(2, vec![4; 100]);
        let batch = m.select_batch();
        let dests: Vec<usize> = batch.iter().map(|p| p.dest).collect();
        assert_eq!(dests, vec![0, 1, 2]);
        // The second packet to client 0 stays queued.
        assert_eq!(m.queue_len(), 1);
    }

    #[test]
    fn batch_pads_to_common_length() {
        let mut m = mac(2);
        m.enqueue(0, vec![1; 50]);
        m.enqueue(1, vec![2; 200]);
        let batch = m.select_batch();
        assert_eq!(batch[0].payload.len(), 200);
        assert_eq!(batch[1].payload.len(), 200);
        assert_eq!(&batch[0].payload[..50], &[1u8; 50][..]);
        assert!(batch[0].payload[50..].iter().all(|&b| b == 0));
    }

    #[test]
    fn batch_respects_stream_cap() {
        let mut m = JmbMac::new(
            MacConfig {
                max_streams: 2,
                ..Default::default()
            },
            (0..5).collect(),
        );
        for c in 0..5 {
            m.enqueue(c, vec![0; 10]);
        }
        assert_eq!(m.select_batch().len(), 2);
        assert_eq!(m.queue_len(), 3);
    }

    #[test]
    fn lead_is_designated_ap_of_head() {
        let mut m = JmbMac::new(MacConfig::default(), vec![3, 1, 4]);
        assert_eq!(m.next_lead(), None);
        m.enqueue(2, vec![0; 10]);
        m.enqueue(0, vec![0; 10]);
        assert_eq!(m.next_lead(), Some(4));
    }

    #[test]
    fn designated_ap_can_be_remapped() {
        let mut m = JmbMac::new(MacConfig::default(), vec![0, 1]);
        m.enqueue(0, vec![0; 10]);
        assert_eq!(m.next_lead(), Some(0));
        m.set_designated_ap(0, 1);
        assert_eq!(m.designated_ap(0), 1);
        assert_eq!(m.next_lead(), Some(1));
    }

    #[test]
    fn max_streams_can_shrink_mid_run() {
        let mut m = mac(4);
        for c in 0..4 {
            m.enqueue(c, vec![0; 10]);
        }
        m.set_max_streams(2);
        assert_eq!(m.select_batch().len(), 2);
        // Never below one stream.
        m.set_max_streams(0);
        assert_eq!(m.config().max_streams, 1);
    }

    #[test]
    fn failed_packets_are_requeued_then_dropped() {
        let mut m = JmbMac::new(
            MacConfig {
                retry_limit: 2,
                ..Default::default()
            },
            vec![0, 1],
        );
        let id = m.enqueue(0, vec![9; 10]);
        // First attempt fails → requeued.
        let b = m.select_batch();
        let fates = m.complete_batch(b, &[false], 1e-3);
        assert_eq!(
            fates,
            vec![PacketFate::Requeued {
                dest: 0,
                id,
                attempts: 1
            }]
        );
        assert_eq!(m.queue_len(), 1);
        assert_eq!(m.stats.dropped_for(0), 0);
        // Second attempt fails → dropped (retry_limit 2).
        let b = m.select_batch();
        let fates = m.complete_batch(b, &[false], 1e-3);
        assert_eq!(fates, vec![PacketFate::Dropped { dest: 0, id }]);
        assert_eq!(m.queue_len(), 0);
        assert_eq!(m.stats.dropped_for(0), 1);
    }

    #[test]
    fn retry_limit_exhaustion_counts_every_attempt() {
        // Satellite: a packet is attempted exactly `retry_limit` times, each
        // failure after the first reported as a Requeued fate, the last as
        // Dropped.
        let limit = 5;
        let mut m = JmbMac::new(
            MacConfig {
                retry_limit: limit,
                ..Default::default()
            },
            vec![0],
        );
        m.blacklist_threshold = u32::MAX; // keep it schedulable
        let id = m.enqueue(0, vec![7; 10]);
        let mut attempts = 0;
        loop {
            let b = m.select_batch();
            assert_eq!(b.len(), 1, "packet must stay schedulable");
            attempts += 1;
            let fates = m.complete_batch(b, &[false], 1e-3);
            match fates[0] {
                PacketFate::Requeued { id: fid, .. } => assert_eq!(fid, id),
                PacketFate::Dropped { id: fid, .. } => {
                    assert_eq!(fid, id);
                    break;
                }
                PacketFate::Acked { .. } => panic!("never acked"),
            }
        }
        assert_eq!(attempts, limit);
        assert_eq!(m.stats.dropped_for(0), 1);
        assert_eq!(m.queue_len(), 0);
    }

    #[test]
    fn single_destination_queue_batches_one_at_a_time() {
        // Satellite: when every queued packet shares one destination, joint
        // batches degenerate to singletons — the rest stay queued in order.
        let mut m = mac(3);
        let ids: Vec<u64> = (0..4).map(|i| m.enqueue(1, vec![i as u8; 10])).collect();
        let b = m.select_batch();
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].id, ids[0]);
        assert_eq!(m.queue_len(), 3);
        m.complete_batch(b, &[true], 1e-3);
        // FIFO order is preserved for the remainder.
        let b = m.select_batch();
        assert_eq!(b[0].id, ids[1]);
    }

    #[test]
    fn losses_are_decoupled_between_clients() {
        // §9: "if APs have stale channel information to a client, only the
        // packet to that client is affected".
        let mut m = mac(2);
        m.enqueue(0, vec![1; 100]);
        m.enqueue(1, vec![2; 100]);
        let b = m.select_batch();
        m.complete_batch(b, &[true, false], 2e-3);
        assert!(m.stats.delivered_bits_for(0) > 0.0);
        assert_eq!(m.stats.delivered_bits_for(1), 0.0);
        assert_eq!(m.queue_len(), 1); // client 1's packet awaits retry
    }

    #[test]
    fn stats_throughput() {
        let mut m = mac(2);
        m.enqueue(0, vec![0; 1250]); // 10 000 bits
        m.enqueue(1, vec![0; 1250]);
        let b = m.select_batch();
        m.complete_batch(b, &[true, true], 1e-3);
        let t = m.stats.throughput();
        assert!((t[0] - 1e7).abs() < 1.0);
        assert!((t[1] - 1e7).abs() < 1.0);
        assert_eq!(m.stats.transmissions(), 1);
    }

    #[test]
    fn contention_window_weighted_by_batch() {
        let m = mac(4);
        assert_eq!(m.contention_window(1), 16);
        assert_eq!(m.contention_window(4), 4);
        assert_eq!(m.contention_window(100), 1);
    }

    #[test]
    fn contention_window_grows_and_resets() {
        // Satellite: binary-exponential backoff — the window doubles per
        // failed joint transmission up to cw_max and snaps back to cw_min
        // after a fully-ACKed one.
        let mut m = JmbMac::new(
            MacConfig {
                cw_min: 16,
                cw_max: 64,
                retry_limit: 100,
                ..Default::default()
            },
            vec![0],
        );
        m.blacklist_threshold = u32::MAX;
        assert_eq!(m.contention_window(1), 16);
        m.enqueue(0, vec![0; 10]);
        for want in [32, 64, 64] {
            let b = m.select_batch();
            m.complete_batch(b, &[false], 1e-3);
            assert_eq!(m.contention_window(1), want);
        }
        assert_eq!(m.backoff_stage(), 3);
        let b = m.select_batch();
        m.complete_batch(b, &[true], 1e-3);
        assert_eq!(m.backoff_stage(), 0);
        assert_eq!(m.contention_window(1), 16);
    }

    #[test]
    fn empty_queue_behaviour() {
        // Satellite: an empty queue yields no lead, an empty batch, and a
        // no-op completion that records no transmission.
        let mut m = mac(2);
        assert_eq!(m.next_lead(), None);
        let b = m.select_batch();
        assert!(b.is_empty());
        let fates = m.complete_batch(b, &[], 1e-3);
        assert!(fates.is_empty());
        assert_eq!(m.stats.transmissions(), 0);
        assert_eq!(m.stats.airtime_s(), 0.0);
        assert_eq!(m.backoff_stage(), 0);
    }

    #[test]
    #[should_panic(expected = "unknown client")]
    fn enqueue_validates_destination() {
        mac(2).enqueue(5, vec![]);
    }

    #[test]
    fn persistent_losses_blacklist_a_client() {
        // §9's hidden-terminal handling: a client with persistent losses is
        // excluded from joint batches; clearing (e.g. after re-measurement)
        // readmits it.
        let mut m = JmbMac::new(
            MacConfig {
                retry_limit: 100,
                ..Default::default()
            },
            vec![0, 1],
        );
        m.blacklist_threshold = 3;
        for _ in 0..3 {
            m.enqueue(0, vec![1; 10]);
            m.enqueue(1, vec![2; 10]);
            let b = m.select_batch();
            // Client 0 persistently fails; client 1 is fine.
            let acked: Vec<bool> = b.iter().map(|p| p.dest != 0).collect();
            m.complete_batch(b, &acked, 1e-3);
        }
        assert!(m.is_blacklisted(0));
        assert!(!m.is_blacklisted(1));
        // Client 0's packets stay queued but are not batched.
        let b = m.select_batch();
        assert!(b.iter().all(|p| p.dest != 0), "blacklisted client batched");
        assert!(m.queue_len() > 0, "its packets remain queued");
        let acks = vec![true; b.len()];
        m.complete_batch(b, &acks, 1e-3);
        // After re-admission it is scheduled again.
        m.clear_blacklist(0);
        let b = m.select_batch();
        assert!(b.iter().any(|p| p.dest == 0));
        let acks = vec![true; b.len()];
        m.complete_batch(b, &acks, 1e-3);
    }
}
