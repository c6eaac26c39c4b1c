//! # mg-obs — the monitor's input alphabet
//!
//! The detection framework of the paper consumes *only* what a co-located
//! process could physically observe at its vantage node: carrier-sense
//! edges, frames it decoded, garbles it perceived, plus the geometry
//! scalars (pair distances) the Section 5 hand-off scheme reads. This crate
//! makes that alphabet first-class:
//!
//! * [`Obs`] — one observable event, free of any reference to the live
//!   simulation (`Medium`, `World`). Anything a [`Monitor`] ever learns
//!   arrives as one of these.
//! * [`ObsSink`] — the single `ingest(&Obs)` entry point detectors expose.
//! * [`ObsJournal`] — an in-memory recording of a run's `Obs` stream
//!   (header + events), so one simulated world can be **replayed** into
//!   arbitrarily many detector configurations with zero re-simulation.
//! * [`codec`] — the one journal codec: [`JournalFormat`] (binary format v2
//!   as the production format, JSONL as the debug/export format), the
//!   streaming [`JournalWriter`] (the only encoder) and [`JournalReader`]
//!   (the only decoder, with format auto-detection by magic sniffing).
//!
//! The JSONL format follows `mg_trace::json` conventions: insertion-ordered
//! objects, shortest-round-trip `f64` rendering, so `encode ∘ decode ≡ id`
//! byte-for-byte and journals diff cleanly. The binary format is compact
//! (interned frame/ranging tables, varint timestamp deltas) and
//! checksummed so damage is detected rather than silently accepted.
//!
//! [`Monitor`]: https://docs.rs/mg-detect

#![warn(missing_docs)]

pub mod codec;

pub use codec::{
    base64_to_bytes, bytes_to_base64, Events, JournalError, JournalFormat, JournalReader,
    JournalWriter,
};

use mg_dcf::Frame;
use mg_sim::SimTime;

/// Index of a node in the simulation.
pub type NodeId = usize;

/// One event observable at a vantage node — the complete input alphabet of
/// the detection framework.
///
/// Times are absolute virtual instants; frames are carried by value so a
/// replayed detector sees bit-identical contents to a live one.
#[derive(Clone, PartialEq, Debug)]
pub enum Obs {
    /// `node`'s physical carrier-sense state changed at `at`.
    ChannelEdge {
        /// The vantage whose carrier sense toggled.
        node: NodeId,
        /// New state: true = busy.
        busy: bool,
        /// When the edge occurred.
        at: SimTime,
    },
    /// `src` put `frame` on the air at `at`; it will end at `end`.
    TxStart {
        /// The transmitting node.
        src: NodeId,
        /// The frame on the air.
        frame: Frame,
        /// Transmission start.
        at: SimTime,
        /// Transmission end.
        end: SimTime,
    },
    /// `at` decoded `frame` (on air from `start` to `end`).
    Decoded {
        /// The receiving vantage.
        at: NodeId,
        /// The decoded frame.
        frame: Frame,
        /// When the frame's transmission started.
        start: SimTime,
        /// When the frame's transmission ended.
        end: SimTime,
    },
    /// `at` perceived a corrupted (undecodable) frame ending at `now`.
    Garbled {
        /// The vantage that heard the collision.
        at: NodeId,
        /// When the garbled reception ended.
        now: SimTime,
    },
    /// Geometry snapshot: distances from the tagged node `from` to candidate
    /// vantages, sorted by node id. This is the only medium-derived scalar
    /// the detection layer reads — the Section 5 hand-off scheme re-elects
    /// the closest in-range vantage on every tagged RTS.
    Ranging {
        /// The tagged node the distances are measured from.
        from: NodeId,
        /// `(vantage, distance)` pairs, ascending by node id.
        to: Vec<(NodeId, f64)>,
        /// When the snapshot was taken.
        at: SimTime,
    },
}

/// A consumer of [`Obs`] events — the boundary detectors live behind.
pub trait ObsSink {
    /// Feed one observation. Order must follow virtual time.
    fn ingest(&mut self, obs: &Obs);
}

/// Identity and provenance of a recorded run, stored in the journal header.
#[derive(Clone, PartialEq, Debug)]
pub struct ObsMeta {
    /// The tagged (monitored) node.
    pub tagged: NodeId,
    /// Vantage nodes whose observations were recorded, ascending.
    pub vantages: Vec<NodeId>,
    /// Tagged→vantage distance at recording time (static topologies; under
    /// mobility the per-RTS [`Obs::Ranging`] events are authoritative).
    pub pair_distance: f64,
    /// The world seed the run was simulated with.
    pub seed: u64,
    /// Free-form `(key, value)` provenance: topology kind, PM, duration,
    /// rate — whatever the recorder wants future replays to know.
    pub params: Vec<(String, String)>,
}

impl ObsMeta {
    /// Looks up a provenance parameter by key.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Looks up a provenance parameter and parses it into `T` — the typed
    /// accessor consumers should reach for instead of re-parsing strings at
    /// every call site. `None` when the key is absent *or* malformed.
    pub fn param_parsed<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.param(key)?.parse().ok()
    }
}

/// A recorded `Obs` stream in memory: header + chronological events.
///
/// Bytes on disk, in the sweep cache and on the `mgd` wire are written by
/// [`JournalWriter`] and read back by [`JournalReader`];
/// [`ObsJournal::encode`] and [`JournalReader::read_journal`] convert an
/// in-memory journal to and from them.
#[derive(Clone, PartialEq, Debug)]
pub struct ObsJournal {
    meta: ObsMeta,
    events: Vec<Obs>,
}

impl ObsJournal {
    /// An empty journal for the given run identity.
    pub fn new(meta: ObsMeta) -> ObsJournal {
        ObsJournal {
            meta,
            events: Vec::new(),
        }
    }

    /// The journal header.
    pub fn meta(&self) -> &ObsMeta {
        &self.meta
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[Obs] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends one event (must be pushed in virtual-time order).
    pub fn push(&mut self, obs: Obs) {
        self.events.push(obs);
    }

    /// Feeds every recorded event, in order, into `sink`.
    pub fn replay(&self, sink: &mut impl ObsSink) {
        for o in &self.events {
            sink.ingest(o);
        }
    }

    /// Serializes the journal in the given format through a
    /// [`JournalWriter`], the one journal encoder.
    pub fn encode(&self, format: JournalFormat) -> Vec<u8> {
        let mut w = JournalWriter::new(format, &self.meta);
        self.replay(&mut w);
        w.finish()
    }
}
