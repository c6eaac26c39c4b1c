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
//!   as the production format, JSONL as a write-only export), the
//!   streaming [`JournalWriter`] (the only encoder) and [`JournalReader`]
//!   (the only decoder, of binary journals alone).
//!
//! The binary format is compact (interned frame/ranging tables, varint
//! timestamp deltas) and checksummed so damage is detected rather than
//! silently accepted. The JSONL export follows `mg_trace::json`
//! conventions: insertion-ordered objects, shortest-round-trip `f64`
//! rendering, so equal journals export to equal bytes and diff cleanly.
//!
//! [`Monitor`]: https://docs.rs/mg-detect

#![warn(missing_docs)]

pub mod codec;

pub use codec::{Events, JournalError, JournalFormat, JournalReader, JournalWriter};

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
    ///
    /// The pairs live in a [`Distances`], which keeps a snapshot of up to
    /// four vantages inside the event: decoding or cloning one allocates
    /// nothing, and only larger (mobile-pool) snapshots own a heap vector.
    Ranging {
        /// The tagged node the distances are measured from.
        from: NodeId,
        /// `(vantage, distance)` pairs, ascending by node id.
        to: Distances,
        /// When the snapshot was taken.
        at: SimTime,
    },
}

/// The `(vantage, distance)` pairs of an [`Obs::Ranging`] snapshot.
///
/// Up to [`Distances::INLINE`] pairs are stored inside the value itself, so
/// a static monitor's snapshot (one pair, or a handful for a small pool) is
/// built, decoded and cloned without touching the heap. A fifth pair spills
/// every pair to a `Vec`. [`Distances::clear`] keeps that storage, so a
/// buffer reused from one snapshot to the next stops allocating once it
/// has grown.
///
/// The value dereferences to a slice. Equality compares the pairs, not the
/// representation, and `Debug` prints the slice, so a spilled and an inline
/// value holding the same pairs are indistinguishable.
///
/// ```
/// use mg_obs::Distances;
///
/// let mut d: Distances = [(4, 100.0), (9, 210.5)].into_iter().collect();
/// assert_eq!(&d[..], &[(4, 100.0), (9, 210.5)]);
/// d.extend((10..13).map(|v| (v, 50.0)));
/// assert_eq!(d.len(), 5);
/// assert_eq!(d, Distances::from(d.to_vec()));
/// ```
#[derive(Clone, Default)]
pub struct Distances(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        pairs: [(NodeId, f64); Distances::INLINE],
    },
    Heap(Vec<(NodeId, f64)>),
}

impl Default for Repr {
    fn default() -> Repr {
        Repr::Inline {
            len: 0,
            pairs: [(0, 0.0); Distances::INLINE],
        }
    }
}

impl Distances {
    /// Pairs stored without a heap allocation. Four is the most that keeps
    /// [`Obs`] at 96 bytes; a fifth inline pair would grow every event.
    pub const INLINE: usize = 4;

    /// An empty snapshot.
    pub fn new() -> Distances {
        Distances::default()
    }

    /// Appends one pair, spilling to the heap when the inline slots are full.
    pub fn push(&mut self, pair: (NodeId, f64)) {
        match &mut self.0 {
            Repr::Inline { len, pairs } if usize::from(*len) < Distances::INLINE => {
                pairs[usize::from(*len)] = pair;
                *len += 1;
            }
            Repr::Inline { .. } => {
                self.reserve(Distances::INLINE);
                self.push(pair);
            }
            Repr::Heap(v) => v.push(pair),
        }
    }

    /// Makes room for `additional` more pairs: a no-op while they fit
    /// inline; otherwise the pairs move to heap storage with room for all
    /// of them, and once spilled this is `Vec::reserve`.
    pub(crate) fn reserve(&mut self, additional: usize) {
        match &mut self.0 {
            Repr::Inline { len, pairs } if usize::from(*len) + additional > Distances::INLINE => {
                let len = usize::from(*len);
                let mut v = Vec::with_capacity(len + additional);
                v.extend_from_slice(&pairs[..len]);
                self.0 = Repr::Heap(v);
            }
            Repr::Inline { .. } => {}
            Repr::Heap(v) => v.reserve(additional),
        }
    }

    /// Removes every pair. Heap storage is kept for the next refill.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Heap(v) => v.clear(),
        }
    }
}

impl std::ops::Deref for Distances {
    type Target = [(NodeId, f64)];

    fn deref(&self) -> &[(NodeId, f64)] {
        match &self.0 {
            Repr::Inline { len, pairs } => &pairs[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }
}

impl PartialEq for Distances {
    fn eq(&self, other: &Distances) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Distances {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl Extend<(NodeId, f64)> for Distances {
    fn extend<I: IntoIterator<Item = (NodeId, f64)>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        self.reserve(iter.size_hint().0);
        if let Repr::Heap(v) = &mut self.0 {
            v.extend(iter);
        } else {
            iter.for_each(|p| self.push(p));
        }
    }
}

impl FromIterator<(NodeId, f64)> for Distances {
    fn from_iter<I: IntoIterator<Item = (NodeId, f64)>>(iter: I) -> Distances {
        let mut d = Distances::new();
        d.extend(iter);
        d
    }
}

impl From<Vec<(NodeId, f64)>> for Distances {
    /// Takes the vector's storage as is, without copying.
    fn from(v: Vec<(NodeId, f64)>) -> Distances {
        Distances(Repr::Heap(v))
    }
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

    /// Whether this header can describe a detector session, and why not.
    ///
    /// Every consumer builds a pool watching `tagged` from `vantages` at
    /// `pair_distance`, so a non-finite or negative distance, an empty
    /// vantage list, or the tagged node among its own vantages describes
    /// no session. The journal reader refuses such a header where it
    /// parses it, and the `mgd` worker opens no session for one, instead of
    /// letting the detector trip over it later.
    pub fn check(&self) -> Result<(), &'static str> {
        if !(self.pair_distance.is_finite() && self.pair_distance >= 0.0) {
            Err("header pair distance is not a finite number >= 0")
        } else if self.vantages.is_empty() {
            Err("header lists no vantages")
        } else if self.vantages.contains(&self.tagged) {
            Err("header lists the tagged node among its vantages")
        } else {
            Ok(())
        }
    }
}

/// A recorded `Obs` stream in memory: header + chronological events.
///
/// Bytes on disk and on the `mgd` wire are written by [`JournalWriter`]
/// and read back by [`JournalReader`]; [`ObsJournal::encode`] and
/// [`JournalReader::read_journal`] convert an in-memory journal to and from
/// them.
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

#[cfg(test)]
mod tests {
    use super::*;
    use mg_testkit::alloc::{allocs, Counting};
    use mg_testkit::prop::{check, Gen, TkResult};
    use mg_testkit::{tk_assert, tk_assert_eq};

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    fn spilled(d: &Distances) -> bool {
        matches!(d.0, Repr::Heap(_))
    }

    #[test]
    fn obs_stays_96_bytes() {
        assert_eq!(std::mem::size_of::<Obs>(), 96);
    }

    #[test]
    fn a_fifth_push_spills_and_keeps_the_order() {
        let pairs: Vec<(NodeId, f64)> = (0..6).map(|v| (v * 3, 10.0 + v as f64)).collect();
        let mut d = Distances::new();
        for (i, &p) in pairs.iter().enumerate() {
            let a0 = allocs();
            d.push(p);
            assert_eq!(allocs() - a0, u64::from(i == Distances::INLINE), "push {i}");
            assert_eq!(spilled(&d), i >= Distances::INLINE);
            assert_eq!(&d[..], &pairs[..=i]);
        }
        // Collecting and cloning four pairs stays inline too.
        let a0 = allocs();
        let four: Distances = pairs[..4].iter().copied().collect();
        assert_eq!(four.clone(), four);
        assert_eq!(allocs() - a0, 0);
    }

    #[test]
    fn clear_keeps_the_heap_storage_for_a_refill() {
        let pairs = || (0..111).map(|v| (v, 2.0 * v as f64));
        let mut d: Distances = pairs().collect();
        assert!(spilled(&d));
        let a0 = allocs();
        for _ in 0..3 {
            d.clear();
            assert!(d.is_empty());
            d.extend(pairs());
        }
        assert_eq!(allocs() - a0, 0);
        assert!(d.iter().copied().eq(pairs()));
    }

    #[test]
    fn equality_and_debug_follow_the_pairs_not_the_storage() {
        for n in [0, 1, 4, 5, 111] {
            let pairs: Vec<(NodeId, f64)> = (0..n).map(|v| (v, 0.5 * v as f64)).collect();
            let inline_first: Distances = pairs.iter().copied().collect();
            let heap = Distances::from(pairs.clone());
            assert!(spilled(&heap));
            assert_eq!(spilled(&inline_first), n > Distances::INLINE);
            assert_eq!(inline_first, heap);
            assert_eq!(format!("{inline_first:?}"), format!("{pairs:?}"));
            assert_eq!(format!("{heap:?}"), format!("{pairs:?}"));
            assert_ne!(inline_first, Distances::from(vec![(1000, 1.0)]));
        }
        assert_eq!(format!("{:?}", Distances::new()), "[]");
    }

    /// Random `push`/`clear` tapes against a `Vec` model: the pairs always
    /// agree, the value spills exactly when the model first outgrows the
    /// inline slots, and a clone holds the same pairs in the same storage.
    #[test]
    fn push_clear_tapes_match_a_vec_model() {
        check("distances_match_vec", |g: &mut Gen| -> TkResult {
            let ops = g.vec(0..48, |g| {
                (g.u8_in(0..8) > 0).then(|| (g.usize_in(0..200), g.f64_in(0.0..500.0)))
            });
            let (mut d, mut model, mut grown) = (Distances::new(), Vec::new(), false);
            for op in ops {
                match op {
                    Some(p) => {
                        d.push(p);
                        model.push(p);
                    }
                    None => {
                        d.clear();
                        model.clear();
                    }
                }
                grown |= model.len() > Distances::INLINE;
                tk_assert_eq!(&d[..], &model[..]);
                tk_assert_eq!(spilled(&d), grown);
                let c = d.clone();
                tk_assert!(c == d);
                tk_assert_eq!(spilled(&c), grown);
            }
            Ok(())
        });
    }
}
