//! A pass-through [`TransmitBackend`] that times every call from outside.
//!
//! [`Timed`] forwards each call unchanged to the backend it wraps and
//! records one [`Call`] per `transmit_batch` / `advance`. It draws no
//! random numbers and alters no argument or result, so a wrapped run
//! produces the same bytes as a bare one.

use crate::clock::{now_ns, SpanLog};
use jmb_core::error::JmbError;
use jmb_core::sync::SyncStrategyId;
use jmb_traffic::{TransmitBackend, TxReport};

/// Which backend method a [`Call`] timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `transmit_batch`: one joint transmission.
    Transmit,
    /// `advance`: the PHY clock moved through idle time.
    Advance,
}

/// One timed call into the wrapped backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Call {
    /// The method called.
    pub kind: CallKind,
    /// Start, [`now_ns`] units.
    pub start_ns: u64,
    /// End, [`now_ns`] units.
    pub end_ns: u64,
    /// Destinations in the batch (0 for `advance`).
    pub dests: usize,
    /// APs allowed to transmit the batch (0 for `advance`).
    pub active_aps: usize,
    /// Whether the call's `TxReport` shows a channel re-measurement.
    pub remeasured: bool,
}

/// Pass-through wrapper recording one [`Call`] per backend call.
pub struct Timed<B> {
    inner: B,
    calls: Vec<Call>,
}

impl<B: TransmitBackend> Timed<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> Self {
        Timed {
            inner,
            calls: Vec::new(),
        }
    }

    /// The calls recorded so far, in call order.
    pub fn calls(&self) -> &[Call] {
        &self.calls
    }
}

/// Appends `calls` to `log` as spans under `parent`, named
/// `<layer>.transmit_batch` and `<layer>.advance`.
pub fn push_call_spans(log: &mut SpanLog, calls: &[Call], layer: &str, parent: Option<usize>) {
    let tx = format!("{layer}.transmit_batch");
    let adv = format!("{layer}.advance");
    for c in calls {
        let name = match c.kind {
            CallKind::Transmit => &tx,
            CallKind::Advance => &adv,
        };
        log.push(name, c.start_ns, c.end_ns, parent);
    }
}

impl<B: TransmitBackend> TransmitBackend for Timed<B> {
    fn n_aps(&self) -> usize {
        self.inner.n_aps()
    }

    fn n_clients(&self) -> usize {
        self.inner.n_clients()
    }

    fn advance(&mut self, dt: f64) {
        let start_ns = now_ns();
        self.inner.advance(dt);
        self.calls.push(Call {
            kind: CallKind::Advance,
            start_ns,
            end_ns: now_ns(),
            dests: 0,
            active_aps: 0,
            remeasured: false,
        });
    }

    fn transmit_batch(
        &mut self,
        dests: &[usize],
        payload_len: usize,
        active_aps: &[usize],
    ) -> Result<TxReport, JmbError> {
        let start_ns = now_ns();
        let out = self.inner.transmit_batch(dests, payload_len, active_aps);
        let end_ns = now_ns();
        self.calls.push(Call {
            kind: CallKind::Transmit,
            start_ns,
            end_ns,
            dests: dests.len(),
            active_aps: active_aps.len(),
            remeasured: out
                .as_ref()
                .is_ok_and(|r| !r.control.remeasurements.is_empty()),
        });
        out
    }

    fn sync_strategy(&self) -> SyncStrategyId {
        self.inner.sync_strategy()
    }

    fn set_sync_strategy(&mut self, kind: SyncStrategyId) {
        self.inner.set_sync_strategy(kind);
    }
}
