//! Recording the observation stream for replay into fresh detectors.
//!
//! [`ObsRecorder`] is an ordinary [`NetObserver`] probe: it projects world
//! callbacks into the serializable [`Obs`] alphabet — exactly the
//! projection a live [`MonitorPool`](crate::MonitorPool) adapter performs —
//! and appends them to an [`ObsJournal`]. A world simulated **once** can
//! then be replayed into arbitrarily many detector configurations (sample
//! sizes, α values, preclusion calibrations, test variants) with zero
//! re-simulation. A replay uses the one detector constructor:
//!
//! ```text
//! let meta = journal.meta();
//! let mut session = SessionSpec::pool(meta.tagged, &meta.vantages, cfg)
//!     .with_faults(plan)
//!     .build();
//! journal.replay(&mut session);      // or reader.replay_into(&mut session)?
//! ```
//!
//! Bytes leave and enter through the one codec: `journal.encode(format)`
//! runs a [`JournalWriter`](crate::JournalWriter), and a
//! [`JournalReader`](crate::JournalReader) streams them back into a
//! session (`replay_into`) or a fresh `ObsJournal` (`read_journal`).
//!
//! ## Faults
//!
//! Journals record the **pre-fault** stream: the recorder carries no
//! injector, and observation faults ([`mg_fault::ObsFaults`]) are applied
//! by the replayed monitors themselves, exactly as live ones do. Because
//! fault fates are pure functions of `(plan seed, vantage, frame time)`,
//! *record-clean / replay-with-faults* is byte-identical to a faulted live
//! run — the explicit composition choice, proven by the mg-core property
//! suite.

use crate::NodeId;
use mg_dcf::Frame;
use mg_net::NetObserver;
use mg_obs::{Obs, ObsJournal, ObsMeta};
use mg_phy::Medium;
use mg_sim::SimTime;

/// A probe observer that records the observation stream of a set of
/// vantages into an [`ObsJournal`].
///
/// What gets recorded (the *replay-sufficient* subset of world events):
///
/// * channel edges, own transmissions and garbles **at a vantage**,
/// * every decode **at a vantage**, plus decodes of the tagged node's RTS
///   at *any* node — a live pool re-elects and harvests on those even when
///   no member consumed the frame, so replay must see them too,
/// * an [`Obs::Ranging`] geometry snapshot immediately before each
///   tagged-RTS decode (the hand-off scheme's only medium access).
#[derive(Debug)]
pub struct ObsRecorder {
    tagged: NodeId,
    vantages: Vec<NodeId>,
    journal: ObsJournal,
}

impl ObsRecorder {
    /// A recorder for the run described by `meta`. Vantages are sorted and
    /// deduplicated; the tagged node cannot be one of them.
    ///
    /// # Panics
    ///
    /// Panics if `meta.vantages` is empty or contains `meta.tagged`.
    pub fn new(mut meta: ObsMeta) -> Self {
        meta.vantages.sort_unstable();
        meta.vantages.dedup();
        assert!(!meta.vantages.is_empty(), "a recorder needs vantages");
        assert!(
            !meta.vantages.contains(&meta.tagged),
            "the tagged node cannot be a vantage"
        );
        ObsRecorder {
            tagged: meta.tagged,
            vantages: meta.vantages.clone(),
            journal: ObsJournal::new(meta),
        }
    }

    fn is_vantage(&self, n: NodeId) -> bool {
        self.vantages.binary_search(&n).is_ok()
    }

    /// The journal recorded so far.
    pub fn journal(&self) -> &ObsJournal {
        &self.journal
    }
}

impl NetObserver for ObsRecorder {
    fn on_channel_edge(&mut self, node: NodeId, busy: bool, now: SimTime) {
        if self.is_vantage(node) {
            self.journal.push(Obs::ChannelEdge { node, busy, at: now });
        }
    }

    fn on_tx_start(&mut self, src: NodeId, frame: &Frame, now: SimTime, end: SimTime) {
        if self.is_vantage(src) {
            self.journal.push(Obs::TxStart {
                src,
                frame: *frame,
                at: now,
                end,
            });
        }
    }

    fn on_frame_decoded(
        &mut self,
        medium: &Medium,
        at: NodeId,
        frame: &Frame,
        start: SimTime,
        end: SimTime,
    ) {
        let tagged_rts = frame.src == self.tagged && frame.is_rts();
        if !tagged_rts && !self.is_vantage(at) {
            return;
        }
        if tagged_rts {
            let tp = medium.position(self.tagged);
            let to = self
                .vantages
                .iter()
                .map(|&v| (v, tp.distance(medium.position(v))))
                .collect();
            self.journal.push(Obs::Ranging {
                from: self.tagged,
                to,
                at: start,
            });
        }
        self.journal.push(Obs::Decoded {
            at,
            frame: *frame,
            start,
            end,
        });
    }

    fn on_frame_garbled(&mut self, at: NodeId, now: SimTime) {
        if self.is_vantage(at) {
            self.journal.push(Obs::Garbled { at, now });
        }
    }
}
