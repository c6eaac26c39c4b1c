//! The shared wireless medium.
//!
//! The [`Medium`] is the meeting point of all radios: MAC layers start and
//! end transmissions on it, and it answers the two questions the rest of the
//! stack needs:
//!
//! 1. **Carrier sense** — which nodes currently perceive a busy channel,
//!    reported as busy/idle *edges* whenever a transmission starts or ends
//!    (per-transmitter threshold model: a node is busy iff at least one
//!    active transmitter's signal reaches it above the CS threshold — the
//!    unit-disk behaviour the paper's analysis assumes).
//! 2. **Reception outcomes** — when a transmission ends, what did each node
//!    get? Decoded (above the RX threshold and above the capture SINR for
//!    the whole flight), collided (decodable power, drowned by overlap),
//!    sensed-only (energy but no frame — triggers EIFS), or nothing.
//!
//! # Interference footprint
//!
//! A transmission exists only inside its *interference footprint*: the disk
//! where its power stays within one capture threshold (10 dB) of the
//! carrier-sense threshold. Inside the sensing disk (the paper's 550 m) a
//! signal trips carrier sense and can carry a frame; in the ring beyond it
//! (out to ≈1.7 km for the paper's free-space radio) it is too weak to
//! sense but still strong enough to tip a capture decision against a
//! legitimate frame, so it keeps contributing to the aggregate-interference
//! sums. Energy weaker than that is treated as exactly zero — by then a
//! single interferer sits ≥ 10 dB under the weakest senseable signal and
//! ≥ 17 dB under the weakest decodable one.
//!
//! Interference accounting is exact for that truncation: for every
//! in-flight frame the medium tracks the *maximum aggregate co-channel
//! power* each footprint node observed during the frame's airtime, and
//! applies the capture test at the end.
//!
//! # Spatial index
//!
//! [`MediumIndex`] picks between two complete implementations of that
//! contract:
//!
//! * [`MediumIndex::Naive`] — the reference. Footprint discovery scans
//!   every node, and each in-flight frame keeps *dense* per-node power and
//!   worst-interference vectors that are rescanned in full whenever any
//!   transmission starts (`O(nodes)` per query, `O(active × nodes)` per
//!   refresh). Simple enough to audit by eye; unusable at thousands of
//!   nodes.
//! * [`MediumIndex::Grid`] (the default) — node positions are bucketed in
//!   a cell grid sized to the sensing horizon, so discovery touches only
//!   the cell window covering the interference horizon; per-frame records
//!   are sparse `(node, power)` lists, and a per-node *coverer* index maps
//!   each node to the in-flight frames covering it, so the interference
//!   refresh touches only frames whose footprints actually intersect the
//!   new one. Everything is `O(footprint)`, independent of world size.
//!
//! The two implementations are **observationally byte-identical** — same
//! edges, receptions, journals and RNG-draw streams. That equivalence is
//! not by construction; it is *proven* by the differential property suite
//! in `tests/diff_index.rs` (and end-to-end by `tests/trace_determinism.rs`
//! at 500 nodes). Both visit candidates in ascending node order, and with
//! a stochastic propagation model (shadowing `σ > 0`) every receiver
//! consumes an RNG draw, so `Grid` transparently falls back to a full
//! discovery scan to keep the draw streams identical.

use crate::index::CellGrid;
use crate::propagation::PropagationModel;
use crate::radio::{dbm_to_mw, mw_to_dbm, RadioParams};
use crate::NodeId;
use mg_geom::Vec2;
use mg_sim::rng::Rng;
use mg_sim::SimTime;
use mg_trace::{EventKind, Tracer};

/// Identifies one in-flight transmission.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TxId(u64);

/// How the medium discovers which nodes a transmission reaches.
///
/// Both variants produce byte-identical results (edges, outcomes, trace
/// journals — proven in `tests/diff_index.rs`); `Grid` makes every
/// operation O(footprint) instead of O(nodes).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MediumIndex {
    /// The reference implementation: full node scans and dense per-node
    /// interference bookkeeping, refreshed in full on every transmission.
    Naive,
    /// Cell-grid spatial index over node positions (maintained
    /// incrementally on mobility) plus sparse per-footprint records and a
    /// per-node coverer index localizing the interference refresh.
    #[default]
    Grid,
}

impl MediumIndex {
    /// Parses `"naive"` / `"grid"` (case-insensitive).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "naive" => Ok(MediumIndex::Naive),
            "grid" => Ok(MediumIndex::Grid),
            other => Err(format!("unknown medium index {other:?}: expected naive or grid")),
        }
    }
}

/// A change in some node's carrier-sense state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EdgeChange {
    /// The node whose perception changed.
    pub node: NodeId,
    /// `true` = channel went busy; `false` = channel went idle.
    pub busy: bool,
}

/// What a node got out of a completed transmission.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RxOutcome {
    /// Frame decodable: strong enough and survived all interference.
    Decoded,
    /// Power was decodable but concurrent transmissions destroyed it (the
    /// node perceives a corrupted frame → EIFS recovery).
    Collided,
    /// Energy above the carrier-sense threshold but below decode level, or
    /// the node was transmitting itself while the frame was in flight.
    Sensed,
    /// Nothing perceptible at this node.
    OutOfRange,
    /// The node is the transmitter.
    SelfTx,
}

impl RxOutcome {
    /// True when the frame was successfully decoded.
    pub fn is_decoded(&self) -> bool {
        matches!(self, RxOutcome::Decoded)
    }

    /// True when the node perceived a corrupted frame (collision).
    pub fn is_collided(&self) -> bool {
        matches!(self, RxOutcome::Collided)
    }
}

/// Everything known about a transmission once it ends.
///
/// Receptions are **sparse**: only nodes inside the sensing footprint
/// appear (ascending node id). Everyone else is [`RxOutcome::OutOfRange`];
/// use [`EndedTx::outcome_of`] for a dense view.
#[derive(Clone, Debug)]
pub struct EndedTx {
    /// The transmitting node.
    pub src: NodeId,
    /// When the transmission started.
    pub start: SimTime,
    /// `(node, outcome)` for every node in the sensing footprint, in
    /// ascending node order. Never contains `src`, `OutOfRange` or `SelfTx`.
    pub receptions: Vec<(NodeId, RxOutcome)>,
    /// Carrier-sense edges caused by this transmission ending.
    pub edges: Vec<EdgeChange>,
}

impl EndedTx {
    /// The outcome at `node`, including the implicit ones: `SelfTx` for the
    /// transmitter and `OutOfRange` for nodes outside the footprint.
    pub fn outcome_of(&self, node: NodeId) -> RxOutcome {
        if node == self.src {
            return RxOutcome::SelfTx;
        }
        match self.receptions.binary_search_by_key(&node, |&(v, _)| v) {
            Ok(i) => self.receptions[i].1,
            Err(_) => RxOutcome::OutOfRange,
        }
    }
}

/// One node inside a transmission's interference footprint.
#[derive(Clone, Copy)]
struct Cover {
    node: NodeId,
    /// Received power of the transmission at `node`, mW.
    p_mw: f64,
    /// Whether that power trips `node`'s carrier sense (inside the sensing
    /// disk, not just the interference ring).
    senseable: bool,
}

struct ActiveTx {
    id: TxId,
    src: NodeId,
    start: SimTime,
    /// Every node in the interference footprint, ascending by node id.
    covered: Vec<Cover>,
    /// Whether each footprint node transmitted at any point during this
    /// frame's flight — parallel to `covered`.
    overlapped: Vec<bool>,
    /// Sparse bookkeeping (frames started under `Grid`): max aggregate
    /// co-channel power each footprint node saw during this frame, mW —
    /// parallel to `covered`. Empty for dense frames.
    max_interf_mw: Vec<f64>,
    /// Dense bookkeeping (frames started under `Naive` — the reference
    /// implementation): received power and worst aggregate interference
    /// indexed by node id, rescanned in full on every `begin_tx`. Empty
    /// for sparse frames.
    power_dense: Vec<f64>,
    max_interf_dense: Vec<f64>,
}

impl ActiveTx {
    /// Whether this frame uses the dense reference bookkeeping.
    fn is_dense(&self) -> bool {
        !self.power_dense.is_empty()
    }
}

/// One memoised footprint, valid while no node has moved since it was
/// computed.
struct FpMemo {
    /// `pos_epoch` at compute time; the memo replays iff it still matches.
    epoch: u64,
    fp: Vec<Cover>,
}

/// The shared channel: all active transmissions plus node positions.
pub struct Medium {
    prop: PropagationModel,
    radio: RadioParams,
    positions: Vec<Vec2>,
    /// Number of foreign transmissions each node currently senses.
    cs_count: Vec<u32>,
    /// Aggregate received power at each node from all active transmissions.
    agg_mw: Vec<f64>,
    /// Slab of in-flight transmissions: stable slots so the coverer index
    /// can point into it; `None` entries are free (see `free_slots`).
    slots: Vec<Option<ActiveTx>>,
    free_slots: Vec<usize>,
    /// Number of occupied slots.
    active_len: usize,
    /// Occupied slots holding *dense* (Naive-started) frames.
    dense_len: usize,
    /// For each node, the sparse in-flight frames covering it, as
    /// `(slot, index into that frame's covered list)`. Dense frames are
    /// not indexed — they rescan everything anyway.
    coverers: Vec<Vec<(u32, u32)>>,
    /// In-flight transmissions per node (a MAC starts at most one, but the
    /// medium does not rely on that).
    tx_count: Vec<u32>,
    next_id: u64,
    tracer: Tracer,
    index: MediumIndex,
    /// Farthest distance at which the interference cutoff (CS threshold
    /// minus the capture margin) can be met, when the propagation model is
    /// deterministic. `None` ⇒ per-receiver shadowing draws: the footprint
    /// is unbounded and discovery must scan all nodes.
    horizon: Option<f64>,
    /// Present iff `index == Grid`.
    grid: Option<CellGrid>,
    /// Reusable candidate buffer for grid queries.
    scratch: Vec<NodeId>,
    /// Per-source footprint memo for the Grid + deterministic-propagation
    /// path. A footprint is then a pure function of node positions, so
    /// until any node moves the memo replays the exact `Cover` list
    /// discovery would rebuild.
    fp_cache: Vec<Option<FpMemo>>,
    /// Bumped on every `set_position`; stale `fp_cache` entries are simply
    /// recomputed on their next use.
    pos_epoch: u64,
}

impl Medium {
    /// Creates a medium over the given node positions with the default
    /// [`MediumIndex::Grid`] discovery.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is empty.
    pub fn new(prop: PropagationModel, radio: RadioParams, positions: Vec<Vec2>) -> Self {
        Self::with_index(prop, radio, positions, MediumIndex::default())
    }

    /// Creates a medium with an explicit discovery strategy.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is empty.
    pub fn with_index(
        prop: PropagationModel,
        radio: RadioParams,
        positions: Vec<Vec2>,
        index: MediumIndex,
    ) -> Self {
        assert!(!positions.is_empty(), "a medium needs at least one node");
        let n = positions.len();
        let mut m = Medium {
            prop,
            radio,
            positions,
            cs_count: vec![0; n],
            agg_mw: vec![0.0; n],
            slots: Vec::new(),
            free_slots: Vec::new(),
            active_len: 0,
            dense_len: 0,
            coverers: vec![Vec::new(); n],
            tx_count: vec![0; n],
            next_id: 0,
            tracer: Tracer::disabled(),
            index: MediumIndex::Naive,
            horizon: None,
            grid: None,
            scratch: Vec::new(),
            fp_cache: (0..n).map(|_| None).collect(),
            pos_epoch: 0,
        };
        m.set_index(index);
        m
    }

    /// Switches the discovery strategy (rebuilds the grid when entering
    /// `Grid`). Transmissions already in flight keep the footprint they
    /// started with; results are identical either way.
    pub fn set_index(&mut self, index: MediumIndex) {
        self.index = index;
        let budget = self.radio.tx_power_dbm - self.interference_cutoff_dbm();
        self.horizon = if self.prop.is_deterministic() {
            // Over-approximated to the safe side, plus a metre of slack so
            // boundary nodes always land inside the candidate window.
            Some(self.prop.max_distance_for_loss(budget) + 1.0)
        } else {
            None
        };
        self.grid = match index {
            MediumIndex::Naive => None,
            MediumIndex::Grid => {
                // Cell size = the mean-loss *sensing* horizon: footprint
                // queries then touch the small cell window covering the
                // interference horizon, while `nodes_within` calls (tx_range
                // scale) stay near 3×3.
                let cs_budget = self.radio.tx_power_dbm - self.radio.cs_thresh_dbm;
                let cell = self.prop.max_distance_for_loss(cs_budget) + 1.0;
                Some(CellGrid::new(cell, &self.positions))
            }
        };
    }

    /// Weakest power that still participates in interference sums, dBm:
    /// one capture threshold below the carrier-sense threshold. Anything
    /// weaker can neither be sensed nor — even alone — flip a capture
    /// decision against the weakest senseable signal, and is treated as
    /// exactly zero (in both index modes, so the truncation never shows up
    /// in differential comparisons).
    fn interference_cutoff_dbm(&self) -> f64 {
        self.radio.cs_thresh_dbm - self.radio.capture_db
    }

    /// The discovery strategy in force.
    pub fn index(&self) -> MediumIndex {
        self.index
    }

    /// Journals every carrier-sense edge (at `Debug` level for the `phy`
    /// subsystem) through `tracer`. Disabled by default.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Current position of `node`.
    pub fn position(&self, node: NodeId) -> Vec2 {
        self.positions[node]
    }

    /// Moves a node (mobility). Affects only *future* transmissions; frames
    /// already in flight keep the geometry they started with (frames last
    /// ≲ 3 ms, during which a 20 m/s node moves 6 cm). The spatial index is
    /// maintained incrementally. Positions outside the nominal field
    /// (including negative coordinates) are fine.
    pub fn set_position(&mut self, node: NodeId, pos: Vec2) {
        self.positions[node] = pos;
        self.pos_epoch += 1;
        if let Some(grid) = &mut self.grid {
            grid.move_node(node, pos);
        }
    }

    /// The radio parameters shared by all nodes.
    pub fn radio(&self) -> &RadioParams {
        &self.radio
    }

    /// The propagation model in force.
    pub fn propagation(&self) -> &PropagationModel {
        &self.prop
    }

    /// Whether `node` currently senses a busy channel (physical carrier
    /// sense from *other* transmitters; a node's own transmission does not
    /// count — its MAC knows it is transmitting).
    pub fn carrier_busy(&self, node: NodeId) -> bool {
        self.cs_count[node] > 0
    }

    /// Whether `node` is currently transmitting.
    pub fn is_transmitting(&self, node: NodeId) -> bool {
        self.tx_count[node] > 0
    }

    /// All nodes within `range` meters of `center` (exact Euclidean filter,
    /// inclusive), ascending by id — includes a node sitting exactly at
    /// `center`. Served from the spatial index under `Grid`, identical
    /// output under either index.
    pub fn nodes_within(&self, center: Vec2, range: f64) -> Vec<NodeId> {
        match &self.grid {
            Some(grid) => {
                let mut cand = Vec::new();
                grid.candidates_within(center, range, &mut cand);
                cand.retain(|&v| center.distance(self.positions[v]) <= range);
                cand
            }
            None => (0..self.positions.len())
                .filter(|&v| center.distance(self.positions[v]) <= range)
                .collect(),
        }
    }

    /// Starts a transmission from `src` at time `now`.
    ///
    /// Returns the transmission id (pass it to [`Medium::end_tx`] when the
    /// frame's airtime elapses) and the carrier-sense edges the new energy
    /// causes. Shadowing (if configured) is drawn per receiver from `rng`.
    pub fn begin_tx<R: Rng>(
        &mut self,
        src: NodeId,
        now: SimTime,
        rng: &mut R,
    ) -> (TxId, Vec<EdgeChange>) {
        let id = TxId(self.next_id);
        self.next_id += 1;
        let src_pos = self.positions[src];

        // Footprint discovery: which nodes perceive this transmission, at
        // what power. Candidates are visited in ascending node order on both
        // paths, so edge order and (stochastic) RNG draws are identical.
        let mut covered: Vec<Cover> = Vec::new();
        let mut edges = Vec::new();
        match (&self.grid, self.horizon) {
            (Some(grid), Some(h)) => {
                // Deterministic propagation ⇒ the footprint is a pure
                // function of positions, so replay the memoised Cover list
                // when no node has moved since it was computed. Replaying
                // bumps carrier sense in the same ascending order the scan
                // would, so the edge list is identical too.
                let memo = self.fp_cache[src]
                    .as_ref()
                    .filter(|m| m.epoch == self.pos_epoch)
                    .map(|m| m.fp.clone());
                match memo {
                    Some(fp) => {
                        covered = fp;
                        for c in &covered {
                            if c.senseable {
                                self.cs_count[c.node] += 1;
                                if self.cs_count[c.node] == 1 {
                                    edges.push(EdgeChange { node: c.node, busy: true });
                                }
                            }
                        }
                    }
                    None => {
                        let mut cand = std::mem::take(&mut self.scratch);
                        grid.candidates_within(src_pos, h, &mut cand);
                        for &v in &cand {
                            if v != src {
                                self.try_cover(src_pos, v, rng, &mut covered, &mut edges);
                            }
                        }
                        self.scratch = cand;
                        self.fp_cache[src] = Some(FpMemo {
                            epoch: self.pos_epoch,
                            fp: covered.clone(),
                        });
                    }
                }
            }
            _ => {
                for v in 0..self.node_count() {
                    if v != src {
                        self.try_cover(src_pos, v, rng, &mut covered, &mut edges);
                    }
                }
            }
        }

        // The new energy raises the aggregate at footprint nodes, which in
        // turn raises the worst-case interference of every in-flight frame
        // wherever the footprints intersect.
        for c in &covered {
            self.agg_mw[c.node] += c.p_mw;
        }
        let n = self.node_count();

        // Dense (reference) frames rescan every node — the O(active × n)
        // loop the Grid strategy exists to avoid. The same pass marks the
        // new transmitter as overlapping wherever it is in the footprint:
        // a node cannot hear a frame while it is transmitting itself.
        if self.dense_len > 0 {
            for slot in 0..self.slots.len() {
                let Some(a) = self.slots[slot].as_mut() else { continue };
                if !a.is_dense() {
                    continue;
                }
                for v in 0..n {
                    let other = self.agg_mw[v] - a.power_dense[v];
                    if other > a.max_interf_dense[v] {
                        a.max_interf_dense[v] = other;
                    }
                }
                if let Ok(i) = a.covered.binary_search_by_key(&src, |c| c.node) {
                    a.overlapped[i] = true;
                }
            }
        }
        // Sparse frames refresh through the coverer index: only the frames
        // actually covering a node whose aggregate just changed are touched.
        // Every (frame, node) cell is an independent max, so visit order is
        // immaterial — the arithmetic is identical to the dense rescan.
        for c in &covered {
            for &(slot, i) in &self.coverers[c.node] {
                let a = self.slots[slot as usize].as_mut().expect("coverer points at live slot");
                let other = self.agg_mw[c.node] - a.covered[i as usize].p_mw;
                if other > a.max_interf_mw[i as usize] {
                    a.max_interf_mw[i as usize] = other;
                }
            }
        }
        for &(slot, i) in &self.coverers[src] {
            let a = self.slots[slot as usize].as_mut().expect("coverer points at live slot");
            a.overlapped[i as usize] = true;
        }

        // Footprint nodes already transmitting will miss this frame.
        let overlapped: Vec<bool> = covered.iter().map(|c| self.tx_count[c.node] > 0).collect();
        let dense = self.index == MediumIndex::Naive;
        let (power_dense, max_interf_dense, max_interf_mw) = if dense {
            let mut power = vec![0.0; n];
            for c in &covered {
                power[c.node] = c.p_mw;
            }
            let max: Vec<f64> = (0..n).map(|v| self.agg_mw[v] - power[v]).collect();
            (power, max, Vec::new())
        } else {
            let max: Vec<f64> = covered.iter().map(|c| self.agg_mw[c.node] - c.p_mw).collect();
            (Vec::new(), Vec::new(), max)
        };

        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        if !dense {
            for (i, c) in covered.iter().enumerate() {
                self.coverers[c.node].push((slot as u32, i as u32));
            }
        }
        self.slots[slot] = Some(ActiveTx {
            id,
            src,
            start: now,
            covered,
            overlapped,
            max_interf_mw,
            power_dense,
            max_interf_dense,
        });
        self.active_len += 1;
        if dense {
            self.dense_len += 1;
        }
        self.tx_count[src] += 1;

        for e in &edges {
            self.tracer
                .emit(now.as_nanos(), Some(e.node), EventKind::ChannelEdge { busy: e.busy });
        }
        (id, edges)
    }

    /// Evaluates receiver `v` for a transmission from `src_pos`: if the
    /// signal clears the interference cutoff, records it as covered and —
    /// when it also clears the CS threshold — updates carrier-sense state.
    fn try_cover<R: Rng>(
        &mut self,
        src_pos: Vec2,
        v: NodeId,
        rng: &mut R,
        covered: &mut Vec<Cover>,
        edges: &mut Vec<EdgeChange>,
    ) {
        let d = src_pos.distance(self.positions[v]);
        let pl = self.prop.sample_path_loss_db(d, rng);
        let p_dbm = self.radio.rx_power_dbm(pl);
        if p_dbm >= self.interference_cutoff_dbm() {
            let senseable = self.radio.senseable(p_dbm);
            covered.push(Cover { node: v, p_mw: dbm_to_mw(p_dbm), senseable });
            if senseable {
                self.cs_count[v] += 1;
                if self.cs_count[v] == 1 {
                    edges.push(EdgeChange { node: v, busy: true });
                }
            }
        }
    }

    /// Ends a transmission at time `now`, returning per-node outcomes and
    /// the idle edges the vanishing energy causes.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to an in-flight transmission (ending a
    /// transmission twice is a caller bug).
    pub fn end_tx(&mut self, id: TxId, now: SimTime) -> EndedTx {
        let slot = self
            .slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|a| a.id == id))
            .expect("end_tx on a transmission that is not in flight");
        let tx = self.slots[slot].take().expect("slot just matched");
        self.active_len -= 1;
        self.tx_count[tx.src] -= 1;
        if tx.is_dense() {
            self.dense_len -= 1;
        } else {
            // Unregister from the coverer index (entries are unique).
            for (i, c) in tx.covered.iter().enumerate() {
                let list = &mut self.coverers[c.node];
                let at = list
                    .iter()
                    .position(|&e| e == (slot as u32, i as u32))
                    .expect("covered node is indexed");
                list.swap_remove(at);
            }
        }
        self.free_slots.push(slot);

        let mut edges = Vec::new();
        for c in &tx.covered {
            self.agg_mw[c.node] -= c.p_mw;
            if self.agg_mw[c.node] < 0.0 {
                self.agg_mw[c.node] = 0.0; // guard float drift
            }
            if c.senseable {
                self.cs_count[c.node] -= 1;
                if self.cs_count[c.node] == 0 {
                    edges.push(EdgeChange { node: c.node, busy: false });
                }
            }
        }

        // Only sensing-disk nodes perceive the frame; interference-ring
        // nodes carried power but stay silent (OutOfRange).
        let receptions = tx
            .covered
            .iter()
            .enumerate()
            .filter(|(_, c)| c.senseable)
            .map(|(i, c)| {
                let interf_mw = if tx.is_dense() {
                    tx.max_interf_dense[c.node]
                } else {
                    tx.max_interf_mw[i]
                };
                let p_dbm = mw_to_dbm(c.p_mw);
                let out = if tx.overlapped[i] || !self.radio.decodable(p_dbm) {
                    RxOutcome::Sensed
                } else if self.radio.captures(c.p_mw, interf_mw) {
                    RxOutcome::Decoded
                } else {
                    RxOutcome::Collided
                };
                (c.node, out)
            })
            .collect();

        for e in &edges {
            self.tracer
                .emit(now.as_nanos(), Some(e.node), EventKind::ChannelEdge { busy: e.busy });
        }

        EndedTx {
            src: tx.src,
            start: tx.start,
            receptions,
            edges,
        }
    }

    /// Number of transmissions currently in flight (diagnostic).
    pub fn active_count(&self) -> usize {
        self.active_len
    }
}

impl std::fmt::Debug for Medium {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Medium")
            .field("nodes", &self.node_count())
            .field("active", &self.active_len)
            .field("index", &self.index)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_sim::rng::Xoshiro256;

    fn medium_with(positions: Vec<Vec2>) -> Medium {
        let prop = PropagationModel::free_space();
        let radio = RadioParams::paper_default(&prop);
        Medium::new(prop, radio, positions)
    }

    fn rng() -> Xoshiro256 {
        Xoshiro256::new(7)
    }

    #[test]
    fn neighbor_decodes_clean_frame() {
        // 0 --240m-- 1 --240m-- 2 (2 is 480 m from 0: sensed, not decoded)
        let mut m = medium_with(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(240.0, 0.0),
            Vec2::new(480.0, 0.0),
        ]);
        let mut r = rng();
        let (tx, edges) = m.begin_tx(0, SimTime::ZERO, &mut r);
        assert!(m.carrier_busy(1));
        assert!(m.carrier_busy(2));
        assert!(!m.carrier_busy(0), "own tx must not trip own CS");
        assert_eq!(edges.len(), 2);
        let ended = m.end_tx(tx, SimTime::from_micros(999));
        assert_eq!(ended.outcome_of(0), RxOutcome::SelfTx);
        assert_eq!(ended.outcome_of(1), RxOutcome::Decoded);
        assert_eq!(ended.outcome_of(2), RxOutcome::Sensed);
        assert_eq!(ended.receptions.len(), 2, "sparse: only covered nodes");
        assert!(!m.carrier_busy(1));
        assert_eq!(ended.edges.len(), 2);
    }

    #[test]
    fn out_of_sensing_range_is_silent() {
        let mut m = medium_with(vec![Vec2::new(0.0, 0.0), Vec2::new(600.0, 0.0)]);
        let mut r = rng();
        let (tx, edges) = m.begin_tx(0, SimTime::ZERO, &mut r);
        assert!(edges.is_empty());
        assert!(!m.carrier_busy(1));
        let ended = m.end_tx(tx, SimTime::from_micros(999));
        assert_eq!(ended.outcome_of(1), RxOutcome::OutOfRange);
        assert!(ended.receptions.is_empty());
    }

    #[test]
    fn hidden_terminal_collision() {
        // True hidden terminals need A-C > 550: A(0), B(200), C(560) — A
        // cannot sense C, B hears both.
        let mut m = medium_with(vec![
            Vec2::new(0.0, 0.0),   // A
            Vec2::new(200.0, 0.0), // B
            Vec2::new(560.0, 0.0), // C — A cannot sense C
        ]);
        let mut r = rng();
        let (tx_a, _) = m.begin_tx(0, SimTime::ZERO, &mut r);
        // C cannot sense A's transmission:
        assert!(!m.carrier_busy(2));
        let (tx_c, _) = m.begin_tx(2, SimTime::from_micros(10), &mut r);
        let ended_a = m.end_tx(tx_a, SimTime::from_micros(999));
        // B: A's signal at 200 m vs C's interference at 360 m.
        // Free space: power ratio = (360/200)^2 = 3.24 → 5.1 dB < 10 dB capture.
        assert_eq!(ended_a.outcome_of(1), RxOutcome::Collided);
        // C's own frame arrives at B below the decode threshold (360 m >
        // 250 m): pure energy, no frame.
        let ended_c = m.end_tx(tx_c, SimTime::from_micros(999));
        assert_eq!(ended_c.outcome_of(1), RxOutcome::Sensed);
    }

    #[test]
    fn capture_strong_signal_survives_weak_interference() {
        // B 100 m from A; interferer D 500 m from B: ratio (500/100)² = 25
        // → 14 dB ≥ 10 dB capture.
        let mut m = medium_with(vec![
            Vec2::new(0.0, 0.0),   // A
            Vec2::new(100.0, 0.0), // B
            Vec2::new(600.0, 0.0), // D (interferer; 500 m from B)
        ]);
        let mut r = rng();
        let (tx_a, _) = m.begin_tx(0, SimTime::ZERO, &mut r);
        let (tx_d, _) = m.begin_tx(2, SimTime::from_micros(5), &mut r);
        let ended_a = m.end_tx(tx_a, SimTime::from_micros(999));
        assert_eq!(ended_a.outcome_of(1), RxOutcome::Decoded);
        // D's frame at B is below the decode threshold (500 m): energy only.
        let ended_d = m.end_tx(tx_d, SimTime::from_micros(999));
        assert_eq!(ended_d.outcome_of(1), RxOutcome::Sensed);
    }

    #[test]
    fn transmitting_node_misses_overlapping_frames() {
        let mut m = medium_with(vec![Vec2::new(0.0, 0.0), Vec2::new(100.0, 0.0)]);
        let mut r = rng();
        let (tx0, _) = m.begin_tx(0, SimTime::ZERO, &mut r);
        let (tx1, _) = m.begin_tx(1, SimTime::from_micros(2), &mut r);
        // Node 1 was transmitting while 0's frame was in flight → Sensed.
        let e0 = m.end_tx(tx0, SimTime::from_micros(999));
        assert_eq!(e0.outcome_of(1), RxOutcome::Sensed);
        let e1 = m.end_tx(tx1, SimTime::from_micros(999));
        assert_eq!(e1.outcome_of(0), RxOutcome::Sensed);
    }

    #[test]
    fn cs_count_handles_multiple_overlapping_sources() {
        let mut m = medium_with(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(300.0, 0.0), // hears both ends
            Vec2::new(600.0, 0.0),
        ]);
        let mut r = rng();
        let (a, e1) = m.begin_tx(0, SimTime::ZERO, &mut r);
        assert!(e1.iter().any(|e| e.node == 1 && e.busy));
        let (c, e2) = m.begin_tx(2, SimTime::ZERO, &mut r);
        // Node 1 already busy: no second busy edge.
        assert!(!e2.iter().any(|e| e.node == 1));
        let ea = m.end_tx(a, SimTime::from_micros(999));
        // Still busy from c: no idle edge for node 1 yet.
        assert!(!ea.edges.iter().any(|e| e.node == 1));
        assert!(m.carrier_busy(1));
        let ec = m.end_tx(c, SimTime::from_micros(999));
        assert!(ec.edges.iter().any(|e| e.node == 1 && !e.busy));
        assert!(!m.carrier_busy(1));
    }

    #[test]
    fn mobility_changes_future_reception() {
        let mut m = medium_with(vec![Vec2::new(0.0, 0.0), Vec2::new(100.0, 0.0)]);
        let mut r = rng();
        let (tx, _) = m.begin_tx(0, SimTime::ZERO, &mut r);
        assert!(m.end_tx(tx, SimTime::from_micros(999)).outcome_of(1).is_decoded());
        m.set_position(1, Vec2::new(1000.0, 0.0));
        let (tx, _) = m.begin_tx(0, SimTime::from_micros(100), &mut r);
        assert_eq!(m.end_tx(tx, SimTime::from_micros(999)).outcome_of(1), RxOutcome::OutOfRange);
    }

    #[test]
    fn channel_edges_are_journaled_when_traced() {
        use mg_trace::{EventKind, TraceConfig, Tracer};
        let tracer = Tracer::new(TraceConfig::verbose());
        let mut m = medium_with(vec![Vec2::new(0.0, 0.0), Vec2::new(240.0, 0.0)]);
        m.set_tracer(tracer.clone());
        let mut r = rng();
        let (tx, _) = m.begin_tx(0, SimTime::ZERO, &mut r);
        m.end_tx(tx, SimTime::from_micros(100));
        let events = tracer.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::ChannelEdge { busy: true });
        assert_eq!(events[0].node, Some(1));
        assert_eq!(events[1].kind, EventKind::ChannelEdge { busy: false });
        assert_eq!(events[1].t_ns, 100_000);
    }

    #[test]
    #[should_panic(expected = "not in flight")]
    fn double_end_panics() {
        let mut m = medium_with(vec![Vec2::new(0.0, 0.0), Vec2::new(100.0, 0.0)]);
        let mut r = rng();
        let (tx, _) = m.begin_tx(0, SimTime::ZERO, &mut r);
        m.end_tx(tx, SimTime::from_micros(999));
        m.end_tx(tx, SimTime::from_micros(999));
    }

    // ------------------------------------------------------------------
    // Grid-index edge cases: every scenario is run through both indices
    // and must agree exactly.

    fn both_indices(positions: Vec<Vec2>) -> (Medium, Medium) {
        let prop = PropagationModel::free_space();
        let radio = RadioParams::paper_default(&prop);
        (
            Medium::with_index(prop, radio, positions.clone(), MediumIndex::Naive),
            Medium::with_index(prop, radio, positions, MediumIndex::Grid),
        )
    }

    fn agree_on_one_tx(positions: Vec<Vec2>, src: NodeId) {
        let (mut naive, mut grid) = both_indices(positions);
        let mut rn = rng();
        let mut rg = rng();
        let (txn, en) = naive.begin_tx(src, SimTime::ZERO, &mut rn);
        let (txg, eg) = grid.begin_tx(src, SimTime::ZERO, &mut rg);
        assert_eq!(en, eg, "busy edges diverge");
        let endn = naive.end_tx(txn, SimTime::from_micros(999));
        let endg = grid.end_tx(txg, SimTime::from_micros(999));
        assert_eq!(endn.receptions, endg.receptions, "receptions diverge");
        assert_eq!(endn.edges, endg.edges, "idle edges diverge");
    }

    #[test]
    fn grid_agrees_with_nodes_exactly_on_cell_boundaries() {
        // The grid cell is the sensing horizon (≈551 m). Put receivers at
        // exact multiples and at the sensing boundary itself.
        let h = 551.0;
        agree_on_one_tx(
            vec![
                Vec2::new(0.0, 0.0),
                Vec2::new(h, 0.0),
                Vec2::new(2.0 * h, 0.0),
                Vec2::new(0.0, h),
                Vec2::new(550.0, 0.0), // exactly on the sensing disk edge
                Vec2::new(-h, -h),
            ],
            0,
        );
    }

    #[test]
    fn grid_agrees_with_all_nodes_in_one_cell() {
        let pts = (0..20).map(|i| Vec2::new(i as f64 * 5.0, 3.0)).collect();
        agree_on_one_tx(pts, 7);
    }

    #[test]
    fn grid_agrees_after_moving_out_of_field_bounds() {
        let (mut naive, mut grid) = both_indices(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(240.0, 0.0),
            Vec2::new(480.0, 0.0),
        ]);
        for m in [&mut naive, &mut grid] {
            m.set_position(2, Vec2::new(-3200.0, -77.0)); // far outside, negative
            m.set_position(1, Vec2::new(-3000.0, -77.0)); // near node 2 now
        }
        let mut rn = rng();
        let mut rg = rng();
        let (txn, en) = naive.begin_tx(2, SimTime::ZERO, &mut rn);
        let (txg, eg) = grid.begin_tx(2, SimTime::ZERO, &mut rg);
        assert_eq!(en, eg);
        assert!(en.iter().any(|e| e.node == 1 && e.busy), "200 m apart: sensed");
        assert_eq!(
            naive.end_tx(txn, SimTime::from_micros(9)).receptions,
            grid.end_tx(txg, SimTime::from_micros(9)).receptions
        );
        assert_eq!(naive.nodes_within(Vec2::new(-3100.0, -77.0), 150.0), vec![1, 2]);
        assert_eq!(grid.nodes_within(Vec2::new(-3100.0, -77.0), 150.0), vec![1, 2]);
    }

    #[test]
    fn nodes_within_spanning_many_cells_matches_naive() {
        // Query radius far above the cell size (≈551 m): a >3×3 window.
        let pts: Vec<Vec2> = (0..15).map(|i| Vec2::new(i as f64 * 400.0, 0.0)).collect();
        let (naive, grid) = both_indices(pts);
        for r in [100.0, 550.0, 1650.0, 2500.0, 1e9] {
            assert_eq!(
                naive.nodes_within(Vec2::new(0.0, 0.0), r),
                grid.nodes_within(Vec2::new(0.0, 0.0), r),
                "radius {r}"
            );
        }
    }

    #[test]
    fn set_index_midstream_preserves_state() {
        let mut m = medium_with(vec![Vec2::new(0.0, 0.0), Vec2::new(240.0, 0.0)]);
        let mut r = rng();
        let (tx, _) = m.begin_tx(0, SimTime::ZERO, &mut r);
        m.set_index(MediumIndex::Naive);
        assert_eq!(m.index(), MediumIndex::Naive);
        assert!(m.carrier_busy(1));
        let ended = m.end_tx(tx, SimTime::from_micros(50));
        assert_eq!(ended.outcome_of(1), RxOutcome::Decoded);
        assert!(!m.carrier_busy(1));
    }

    #[test]
    fn index_parse_roundtrip() {
        assert_eq!(MediumIndex::parse("naive").unwrap(), MediumIndex::Naive);
        assert_eq!(MediumIndex::parse(" Grid ").unwrap(), MediumIndex::Grid);
        assert!(MediumIndex::parse("quadtree").is_err());
        assert_eq!(MediumIndex::default(), MediumIndex::Grid);
    }
}
