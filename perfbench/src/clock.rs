//! Host-clock reads, the in-memory span log, and order statistics.
//!
//! Every wall-clock read of the benchmark goes through [`now_ns`]. Spans
//! are recorded from outside the program — around calls into public
//! functions — and kept in memory until the run ends.

use std::sync::OnceLock;

/// Nanoseconds of host time since the first call in this process.
pub fn now_ns() -> u64 {
    // jmb-allow(no-wallclock-in-sim): the benchmark times the simulator from outside; no simulated value reads it
    static ORIGIN: OnceLock<std::time::Instant> = OnceLock::new();
    // jmb-allow(no-wallclock-in-sim): the benchmark times the simulator from outside; no simulated value reads it
    let origin = ORIGIN.get_or_init(std::time::Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Seconds between two [`now_ns`] readings.
pub fn secs(start_ns: u64, end_ns: u64) -> f64 {
    end_ns.saturating_sub(start_ns) as f64 * 1e-9
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = now_ns();
    let out = f();
    (out, secs(t0, now_ns()))
}

/// One timed interval: a call into a layer, or a phase of the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or phase name, e.g. `fastnet.transmit_batch`.
    pub name: String,
    /// Start, [`now_ns`] units.
    pub start_ns: u64,
    /// End, [`now_ns`] units.
    pub end_ns: u64,
    /// Index of the enclosing span in the same log, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans of one run, in the order they were opened.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records a finished span and returns its index.
    pub fn push(&mut self, name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Opens a span starting now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = now_ns();
        self.push(name, now, now, parent)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = now_ns();
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Summed duration of every span named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<u64>() as f64 * 1e-9
    }

    /// Summed self time of every span named `name`, seconds: each span's
    /// duration minus the durations of its direct children.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.dur_ns().saturating_sub(child_ns[i]))
            .sum::<u64>() as f64
            * 1e-9
    }

    /// Appends every span of `other`, re-parenting its roots under
    /// `parent`.
    pub fn adopt(&mut self, other: SpanLog, parent: Option<usize>) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base).or(parent);
            self.spans.push(s);
        }
    }

    /// Per span name, in order of first appearance: `(name, count, total
    /// seconds, self seconds)`.
    pub fn summary(&self) -> Vec<(String, usize, f64, f64)> {
        let mut names: Vec<&str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name.as_str()) {
                names.push(&s.name);
            }
        }
        names
            .into_iter()
            .map(|n| {
                let count = self.spans.iter().filter(|s| s.name == n).count();
                (n.to_string(), count, self.total_s(n), self.self_s(n))
            })
            .collect()
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of `xs`, 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `xs` (mean of the middle two for an even count), 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Median host nanoseconds of one call to `f`, measured over batches
/// sized to last at least a millisecond, for about `budget_s` seconds
/// after one warm-up batch.
pub fn median_call_ns(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let mut batch = 1usize;
    loop {
        let (_, s) = timed(|| (0..batch).for_each(|_| f()));
        if s >= 1e-3 || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }
    let deadline = now_ns() + (budget_s * 1e9) as u64;
    let mut per_call = Vec::new();
    while per_call.len() < 5 || (now_ns() < deadline && per_call.len() < 1000) {
        let (_, s) = timed(|| (0..batch).for_each(|_| f()));
        per_call.push(s * 1e9 / batch as f64);
    }
    median(&per_call)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut log = SpanLog::default();
        let root = log.push("run", 0, 100, None);
        let mid = log.push("loop", 10, 90, Some(root));
        log.push("tx", 20, 40, Some(mid));
        log.push("tx", 50, 60, Some(mid));
        let ns = |s: f64| (s * 1e9).round();
        assert_eq!(ns(log.self_s("loop")), 50.0);
        assert_eq!(ns(log.self_s("run")), 20.0);
        assert_eq!(ns(log.total_s("tx")), 30.0);
    }

    #[test]
    fn adopt_reparents_roots() {
        let mut a = SpanLog::default();
        let root = a.push("pass", 0, 10, None);
        let mut b = SpanLog::default();
        let r = b.push("x", 1, 5, None);
        b.push("y", 2, 3, Some(r));
        a.adopt(b, Some(root));
        assert_eq!(a.spans()[1].parent, Some(0));
        assert_eq!(a.spans()[2].parent, Some(1));
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.9), 5.0);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.5), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
