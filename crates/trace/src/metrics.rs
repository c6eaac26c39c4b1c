//! Per-node counters and log-scale histograms behind a cheap shared handle.
//!
//! [`Metrics`] is a clonable handle around an optional `Arc`; when disabled
//! every recording method is a branch on `None` and nothing else, so leaving
//! the plumbing in place costs effectively nothing. Counters are atomics so
//! a handle can be shared freely; snapshots are plain `Copy` arrays that
//! merge across trials and render to JSON.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::json::Json;

/// The per-node counters tracked by [`Metrics`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Frames put on the air by the MAC.
    TxFrames,
    /// Frames decoded cleanly.
    RxDecoded,
    /// Receptions garbled by collisions.
    RxGarbled,
    /// Back-off countdowns frozen by a busy channel.
    BackoffFreezes,
    /// Packets accepted into a MAC queue.
    Enqueued,
    /// Packets delivered end to end.
    Delivered,
    /// Packets dropped (queue overflow or retry exhaustion).
    Dropped,
    /// Dictated/estimated back-off pairs collected by monitors.
    MonitorSamples,
    /// Rank-sum tests run by monitors.
    MonitorTests,
    /// Protocol violations flagged by monitors.
    MonitorViolations,
    /// Frames eaten by injected observation faults.
    FaultDrops,
    /// Tagged RTS frames bit-flipped by injected faults.
    FaultCorruptions,
    /// Anomalous observations the monitor withheld a verdict on.
    MonitorUncertain,
    /// Accusations broadcast on the gossip channel.
    AccusationsSent,
    /// Accusations lost in flight by the gossip channel.
    AccusationsDropped,
    /// Accusations that reached a receiving monitor.
    AccusationsDelivered,
    /// Suspicion sets that reached the conviction quorum.
    QuorumConvictions,
}

/// Number of counter kinds (size of a counter row).
pub const COUNTER_COUNT: usize = 17;

impl Counter {
    /// Row index of this counter.
    pub fn index(self) -> usize {
        self as usize
    }

    /// All counters, in row order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::TxFrames,
        Counter::RxDecoded,
        Counter::RxGarbled,
        Counter::BackoffFreezes,
        Counter::Enqueued,
        Counter::Delivered,
        Counter::Dropped,
        Counter::MonitorSamples,
        Counter::MonitorTests,
        Counter::MonitorViolations,
        Counter::FaultDrops,
        Counter::FaultCorruptions,
        Counter::MonitorUncertain,
        Counter::AccusationsSent,
        Counter::AccusationsDropped,
        Counter::AccusationsDelivered,
        Counter::QuorumConvictions,
    ];

    /// Stable snake_case name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Counter::TxFrames => "tx_frames",
            Counter::RxDecoded => "rx_decoded",
            Counter::RxGarbled => "rx_garbled",
            Counter::BackoffFreezes => "backoff_freezes",
            Counter::Enqueued => "enqueued",
            Counter::Delivered => "delivered",
            Counter::Dropped => "dropped",
            Counter::MonitorSamples => "monitor_samples",
            Counter::MonitorTests => "monitor_tests",
            Counter::MonitorViolations => "monitor_violations",
            Counter::FaultDrops => "fault_drops",
            Counter::FaultCorruptions => "fault_corruptions",
            Counter::MonitorUncertain => "monitor_uncertain",
            Counter::AccusationsSent => "accusations_sent",
            Counter::AccusationsDropped => "accusations_dropped",
            Counter::AccusationsDelivered => "accusations_delivered",
            Counter::QuorumConvictions => "quorum_convictions",
        }
    }
}

/// Number of log2 buckets in a histogram.
pub const HISTO_BUCKETS: usize = 32;

/// Bucket index for a value: 0 holds zero, bucket `i` holds values with
/// `floor(log2(v)) == i - 1`, and the top bucket absorbs the tail.
pub fn histo_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HISTO_BUCKETS - 1)
    }
}

#[derive(Debug)]
struct Histo {
    buckets: [AtomicU64; HISTO_BUCKETS],
}

impl Histo {
    fn new() -> Histo {
        Histo {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, v: u64) {
        self.buckets[histo_bucket(v)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> [u64; HISTO_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct MetricsInner {
    /// One counter row per node (row 0 doubles as the sink for un-scoped bumps).
    per_node: Vec<[AtomicU64; COUNTER_COUNT]>,
    /// End-to-end packet latency, nanoseconds, log2 buckets.
    latency_ns: Histo,
    /// Dictated back-off draws, slots, log2 buckets.
    backoff_slots: Histo,
}

/// A cheap clonable metrics handle; disabled handles record nothing.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    inner: Option<Arc<MetricsInner>>,
}

impl Metrics {
    /// An enabled collector sized for `nodes` nodes.
    pub fn new(nodes: usize) -> Metrics {
        Metrics {
            inner: Some(Arc::new(MetricsInner {
                per_node: (0..nodes.max(1))
                    .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                    .collect(),
                latency_ns: Histo::new(),
                backoff_slots: Histo::new(),
            })),
        }
    }

    /// A disabled handle: every recording call is a no-op.
    pub fn disabled() -> Metrics {
        Metrics { inner: None }
    }

    /// True when this handle actually records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Increments `counter` for `node` (out-of-range nodes land on row 0).
    #[inline]
    pub fn bump(&self, node: usize, counter: Counter) {
        if let Some(inner) = &self.inner {
            let row = inner.per_node.get(node).unwrap_or(&inner.per_node[0]);
            row[counter.index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one end-to-end packet latency.
    #[inline]
    pub fn record_latency_ns(&self, ns: u64) {
        if let Some(inner) = &self.inner {
            inner.latency_ns.record(ns);
        }
    }

    /// Records one dictated back-off draw (in slots).
    #[inline]
    pub fn record_backoff_slots(&self, slots: u64) {
        if let Some(inner) = &self.inner {
            inner.backoff_slots.record(slots);
        }
    }

    /// Reads one counter for one node (0 when disabled or out of range).
    pub fn node_counter(&self, node: usize, counter: Counter) -> u64 {
        match &self.inner {
            Some(inner) => inner
                .per_node
                .get(node)
                .map(|row| row[counter.index()].load(Ordering::Relaxed))
                .unwrap_or(0),
            None => 0,
        }
    }

    /// A `Copy` snapshot of the totals and histograms.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        if let Some(inner) = &self.inner {
            for row in &inner.per_node {
                for (i, c) in row.iter().enumerate() {
                    snap.totals[i] += c.load(Ordering::Relaxed);
                }
            }
            snap.latency_ns = inner.latency_ns.snapshot();
            snap.backoff_slots = inner.backoff_slots.snapshot();
        }
        snap
    }
}

/// A plain-data summary of a [`Metrics`] collector.
///
/// Fixed-size arrays keep this `Copy`, so per-trial results that embed a
/// snapshot stay cheap to aggregate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Workspace-wide totals per [`Counter`] (indexed by `Counter::index`).
    pub totals: [u64; COUNTER_COUNT],
    /// Latency histogram, log2-nanosecond buckets.
    pub latency_ns: [u64; HISTO_BUCKETS],
    /// Back-off draw histogram, log2-slot buckets.
    pub backoff_slots: [u64; HISTO_BUCKETS],
}

impl Default for MetricsSnapshot {
    fn default() -> MetricsSnapshot {
        MetricsSnapshot {
            totals: [0; COUNTER_COUNT],
            latency_ns: [0; HISTO_BUCKETS],
            backoff_slots: [0; HISTO_BUCKETS],
        }
    }
}

impl MetricsSnapshot {
    /// Adds another snapshot into this one, element-wise.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for i in 0..COUNTER_COUNT {
            self.totals[i] += other.totals[i];
        }
        for i in 0..HISTO_BUCKETS {
            self.latency_ns[i] += other.latency_ns[i];
            self.backoff_slots[i] += other.backoff_slots[i];
        }
    }

    /// Reads one total.
    pub fn total(&self, counter: Counter) -> u64 {
        self.totals[counter.index()]
    }

    /// Renders the snapshot as a JSON object (histogram tails trimmed).
    pub fn to_json(&self) -> Json {
        let totals = Json::Obj(
            Counter::ALL
                .iter()
                .map(|c| (c.name().to_string(), Json::from(self.total(*c))))
                .collect(),
        );
        Json::obj([
            ("totals", totals),
            ("latency_ns_log2", histo_json(&self.latency_ns)),
            ("backoff_slots_log2", histo_json(&self.backoff_slots)),
        ])
    }
}

fn histo_json(buckets: &[u64; HISTO_BUCKETS]) -> Json {
    let last = buckets.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
    Json::Arr(buckets[..last].iter().map(|&c| Json::from(c)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let m = Metrics::disabled();
        m.bump(0, Counter::TxFrames);
        m.record_latency_ns(100);
        assert!(!m.is_enabled());
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn bumps_land_on_the_right_node_and_total() {
        let m = Metrics::new(3);
        m.bump(1, Counter::TxFrames);
        m.bump(1, Counter::TxFrames);
        m.bump(2, Counter::Delivered);
        m.bump(99, Counter::Dropped); // out of range → row 0
        assert_eq!(m.node_counter(1, Counter::TxFrames), 2);
        assert_eq!(m.node_counter(0, Counter::Dropped), 1);
        let snap = m.snapshot();
        assert_eq!(snap.total(Counter::TxFrames), 2);
        assert_eq!(snap.total(Counter::Delivered), 1);
        assert_eq!(snap.total(Counter::Dropped), 1);
    }

    #[test]
    fn histo_buckets_are_log2() {
        assert_eq!(histo_bucket(0), 0);
        assert_eq!(histo_bucket(1), 1);
        assert_eq!(histo_bucket(2), 2);
        assert_eq!(histo_bucket(3), 2);
        assert_eq!(histo_bucket(4), 3);
        assert_eq!(histo_bucket(1023), 10);
        assert_eq!(histo_bucket(1024), 11);
        assert_eq!(histo_bucket(u64::MAX), HISTO_BUCKETS - 1);
    }

    #[test]
    fn snapshots_merge_elementwise() {
        let m = Metrics::new(1);
        m.bump(0, Counter::Enqueued);
        m.record_latency_ns(7);
        let mut a = m.snapshot();
        let b = m.snapshot();
        a.merge(&b);
        assert_eq!(a.total(Counter::Enqueued), 2);
        assert_eq!(a.latency_ns[histo_bucket(7)], 2);
    }

    #[test]
    fn snapshot_json_has_named_totals() {
        let m = Metrics::new(1);
        m.bump(0, Counter::MonitorViolations);
        let rendered = m.snapshot().to_json().render();
        assert!(rendered.contains("\"monitor_violations\":1"));
        assert!(rendered.contains("\"latency_ns_log2\":[]"));
    }

    #[test]
    fn quorum_counters_are_registered() {
        assert_eq!(Counter::ALL.len(), COUNTER_COUNT);
        assert_eq!(Counter::AccusationsSent.name(), "accusations_sent");
        assert_eq!(Counter::QuorumConvictions.name(), "quorum_convictions");
    }
}
