//! `mg-trace` — zero-dependency structured observability for the stack.
//!
//! Two instruments, both free when switched off:
//!
//! * **Event journal** — a fixed-capacity ring buffer of typed records
//!   ([`Event`]) stamped with *virtual* time, filtered per subsystem by
//!   [`Level`], exported as deterministic JSONL. Equal seeds give
//!   byte-identical exports.
//! * **Metrics** — per-node atomic counters plus log-scale latency and
//!   back-off histograms behind a clonable [`Metrics`] handle; snapshots
//!   are `Copy` and merge across trials.
//!
//! The simulation crates hold a [`Tracer`] and a [`Metrics`] handle and
//! call [`Tracer::emit`] at their interesting edges; both default to
//! disabled, where emission is a single branch.
//!
//! ```
//! use mg_trace::{EventKind, FrameLabel, Level, TraceConfig, Tracer};
//!
//! let tracer = Tracer::new(TraceConfig::default());
//! tracer.emit(1_000, Some(2), EventKind::TxStart { frame: FrameLabel::Rts, dst: Some(3) });
//! tracer.emit(2_000, Some(2), EventKind::SchedDispatch { seq: 9 }); // Debug: filtered out
//! assert_eq!(tracer.len(), 1);
//! assert!(tracer.to_jsonl().starts_with("{\"t\":1000"));
//! # assert_eq!(Tracer::disabled().len(), 0);
//! # let _ = Level::Off;
//! ```

#![warn(missing_docs)]

pub mod json;

mod event;
mod metrics;
mod ring;

pub use event::{Event, EventKind, FrameLabel, Level, Subsystem, SUBSYSTEM_COUNT};
pub use metrics::{
    histo_bucket, Counter, Metrics, MetricsSnapshot, COUNTER_COUNT, HISTO_BUCKETS,
};
pub use ring::Ring;

use std::cell::RefCell;
use std::rc::Rc;

/// Journal capacity and per-subsystem verbosity for a [`Tracer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum events retained (oldest are overwritten past this).
    pub capacity: usize,
    /// Level for scheduler dispatch records.
    pub sched: Level,
    /// Level for PHY channel-edge records.
    pub phy: Level,
    /// Level for MAC frame/back-off records.
    pub mac: Level,
    /// Level for network packet-lifecycle records.
    pub net: Level,
    /// Level for monitor sample/test/violation records.
    pub monitor: Level,
    /// Level for fault-injection drop/corrupt records.
    pub fault: Level,
    /// Level for collaborative-detection gossip records.
    pub quorum: Level,
}

impl Default for TraceConfig {
    /// Protocol-level tracing: MAC, net, and monitor events; the high-rate
    /// scheduler and PHY streams stay off.
    fn default() -> TraceConfig {
        TraceConfig {
            capacity: 65_536,
            sched: Level::Off,
            phy: Level::Off,
            mac: Level::Info,
            net: Level::Info,
            monitor: Level::Info,
            fault: Level::Info,
            quorum: Level::Info,
        }
    }
}

impl TraceConfig {
    /// Everything on at `Debug` — used by determinism tests and deep dives.
    pub fn verbose() -> TraceConfig {
        TraceConfig {
            capacity: 65_536,
            sched: Level::Debug,
            phy: Level::Debug,
            mac: Level::Debug,
            net: Level::Debug,
            monitor: Level::Debug,
            fault: Level::Debug,
            quorum: Level::Debug,
        }
    }

    fn levels(&self) -> [Level; SUBSYSTEM_COUNT] {
        [
            self.sched,
            self.phy,
            self.mac,
            self.net,
            self.monitor,
            self.fault,
            self.quorum,
        ]
    }
}

#[derive(Debug)]
struct Journal {
    ring: Ring<Event>,
    levels: [Level; SUBSYSTEM_COUNT],
}

/// A clonable handle onto a shared event journal.
///
/// Cloning is how one journal is threaded through the scheduler, medium,
/// MACs, world, and monitors of a single simulation; a disabled handle
/// (the default) makes [`Tracer::emit`] a single branch.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<Journal>>>,
}

impl Tracer {
    /// An enabled tracer journaling per `config`.
    pub fn new(config: TraceConfig) -> Tracer {
        Tracer {
            inner: Some(Rc::new(RefCell::new(Journal {
                ring: Ring::new(config.capacity),
                levels: config.levels(),
            }))),
        }
    }

    /// A disabled handle: [`Tracer::emit`] is a no-op.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// True when this handle journals anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Journals `kind` at virtual time `t_ns`, subject to level filtering.
    #[inline]
    pub fn emit(&self, t_ns: u64, node: Option<usize>, kind: EventKind) {
        if let Some(inner) = &self.inner {
            record(inner, Event { t_ns, node, kind });
        }
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |j| j.borrow().ring.len())
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |j| j.borrow().ring.dropped())
    }

    /// A chronological copy of the retained events.
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |j| j.borrow().ring.iter().copied().collect())
    }

    /// Renders the journal as JSONL — one deterministic object per line,
    /// each line newline-terminated.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            out.push_str(&ev.to_json().render());
            out.push('\n');
        }
        out
    }
}

/// The enabled path of [`Tracer::emit`], kept out of line so that every
/// caller inlines the disabled check alone.
#[cold]
#[inline(never)]
fn record(journal: &RefCell<Journal>, event: Event) {
    let mut journal = journal.borrow_mut();
    if event.kind.level() <= journal.levels[event.kind.subsystem().index()] {
        journal.ring.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        t.emit(5, None, EventKind::Collision);
        assert!(!t.is_enabled());
        assert!(t.is_empty());
        assert_eq!(t.to_jsonl(), "");
    }

    #[test]
    fn default_config_filters_debug_and_off_subsystems() {
        let t = Tracer::new(TraceConfig::default());
        t.emit(1, None, EventKind::SchedDispatch { seq: 1 }); // sched Off
        t.emit(2, Some(0), EventKind::ChannelEdge { busy: true }); // phy Off
        t.emit(3, Some(0), EventKind::Collision); // mac Info
        assert_eq!(t.len(), 1);
        assert_eq!(t.events()[0].kind, EventKind::Collision);
    }

    #[test]
    fn verbose_config_keeps_debug_events() {
        let t = Tracer::new(TraceConfig::verbose());
        t.emit(1, None, EventKind::SchedDispatch { seq: 1 });
        t.emit(2, Some(0), EventKind::ChannelEdge { busy: true });
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn clones_share_one_journal() {
        let t = Tracer::new(TraceConfig::default());
        let t2 = t.clone();
        t.emit(1, Some(0), EventKind::Collision);
        t2.emit(2, Some(1), EventKind::Collision);
        assert_eq!(t.len(), 2);
        assert_eq!(t2.len(), 2);
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let t = Tracer::new(TraceConfig::verbose());
        t.emit(1, None, EventKind::SchedDispatch { seq: 1 });
        t.emit(2, None, EventKind::SchedDispatch { seq: 2 });
        let out = t.to_jsonl();
        assert_eq!(out.lines().count(), 2);
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn ring_capacity_bounds_the_journal() {
        let cfg = TraceConfig { capacity: 4, ..TraceConfig::verbose() };
        let t = Tracer::new(cfg);
        for seq in 0..10 {
            t.emit(seq, None, EventKind::SchedDispatch { seq });
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.events()[0].kind, EventKind::SchedDispatch { seq: 6 });
    }
}
