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
//!   the cell window covering the interference horizon, and with
//!   deterministic propagation each source's footprint — node, power and
//!   link budget (the dB level the capture test reads, and whether the
//!   node can decode at all) — is memoised until some node moves.
//!   Per-frame records are sparse. Only a frame's *decodable receivers*
//!   can come out of it as anything but `Sensed`, so only they carry
//!   overlap and worst-interference bookkeeping, and a per-node *receiver*
//!   index maps each node to the in-flight frames it can decode: a new
//!   transmission refreshes just those entries. Everything is
//!   `O(footprint)`, independent of world size, and the per-frame
//!   bookkeeping is `O(receivers)` — about 3.5 nodes of the paper grid's
//!   53-node footprint.
//!
//! The two implementations are **observationally byte-identical** — same
//! edges, receptions, journals and RNG-draw streams. `Naive` also keeps the
//! reference arithmetic: its frames judge every senseable node from its
//! power in mW with [`RadioParams::decodable`] and
//! [`RadioParams::captures`], while `Grid` reads the memoised link budget
//! and takes one `log10` per receiver. That equivalence is
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
    /// per-node receiver index localizing the interference refresh.
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
}

/// Everything known about a transmission once it ends.
///
/// Receptions are **sparse**: only nodes inside the sensing footprint
/// appear (ascending node id). Everyone else is [`RxOutcome::OutOfRange`];
/// use [`EndedTx::outcome_of`] for a dense view.
///
/// [`Medium::end_tx`] overwrites a caller-owned `EndedTx`, so one buffer
/// (start from `EndedTx::default()`) serves every transmission of a run.
#[derive(Clone, Debug, Default)]
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

/// One node inside a transmission's interference footprint, with its link
/// budget. Under deterministic propagation every field is a pure function
/// of positions, so the footprint memo replays all of them.
#[derive(Clone, Copy)]
struct Cover {
    node: NodeId,
    /// Received power of the transmission at `node`, mW.
    p_mw: f64,
    /// `mw_to_dbm(p_mw)`: the signal level exactly as
    /// [`RadioParams::captures`] reads it. Set for senseable nodes only.
    rx_dbm: f64,
    /// Whether that power trips `node`'s carrier sense (inside the sensing
    /// disk, not just the interference ring).
    senseable: bool,
    /// Whether `node` could decode the frame absent interference: senseable
    /// and `rx_dbm` at or above the decode threshold.
    decodable: bool,
}

/// A decodable receiver of a sparse frame. Every other footprint node comes
/// out `Sensed` (or silent) whatever overlaps it, so only receivers carry
/// bookkeeping.
#[derive(Clone, Copy)]
struct Receiver {
    /// Index of the receiver in the frame's `covered`.
    at: u32,
    /// Whether the node transmitted at any point during this frame's flight.
    overlapped: bool,
    /// Max aggregate co-channel power the node saw during this frame, mW.
    max_interf_mw: f64,
}

/// One slot of the in-flight slab. A freed slot keeps its vectors, cleared
/// and refilled by the next frame to take it, so a transmission allocates
/// nothing once the slab has warmed up.
#[derive(Default)]
struct ActiveTx {
    /// `None` while the slot is free.
    id: Option<TxId>,
    src: NodeId,
    start: SimTime,
    /// Every node in the interference footprint, ascending by node id.
    covered: Vec<Cover>,
    /// Sparse bookkeeping (frames started under `Grid`): one entry per
    /// decodable cover, in `covered` order. Empty for dense frames.
    receivers: Vec<Receiver>,
    /// Dense bookkeeping (frames started under `Naive` — the reference
    /// implementation): received power, worst aggregate interference and
    /// overlap indexed by node id, the first two rescanned in full on every
    /// `begin_tx`. Unused for sparse frames.
    power_dense: Vec<f64>,
    max_interf_dense: Vec<f64>,
    overlapped_dense: Vec<bool>,
    /// Whether this frame uses the dense reference bookkeeping.
    dense: bool,
}

/// Where one source's memoised footprint sits in the memo arena.
#[derive(Clone, Copy)]
struct FpSpan {
    /// `pos_epoch` at compute time; the memo replays iff it still matches.
    epoch: u64,
    start: u32,
    len: u32,
}

impl FpSpan {
    /// A span that matches no epoch.
    const NONE: FpSpan = FpSpan { epoch: u64::MAX, start: 0, len: 0 };
}

/// The shared channel: all active transmissions plus node positions.
pub struct Medium {
    prop: PropagationModel,
    radio: RadioParams,
    /// `dbm_to_mw(radio.noise_floor_dbm)`, the capture test's noise term.
    noise_mw: f64,
    positions: Vec<Vec2>,
    /// Number of foreign transmissions each node currently senses.
    cs_count: Vec<u32>,
    /// Aggregate received power at each node from all active transmissions.
    agg_mw: Vec<f64>,
    /// Slab of in-flight transmissions: stable slots so the receiver index
    /// can point into it; slots without an id are free (see `free_slots`).
    slots: Vec<ActiveTx>,
    free_slots: Vec<usize>,
    /// Number of occupied slots.
    active_len: usize,
    /// Occupied slots holding *dense* (Naive-started) frames.
    dense_len: usize,
    /// For each node, the sparse in-flight frames it can decode, as
    /// `(slot, index into that frame's receivers)`. Dense frames are not
    /// indexed — they rescan everything anyway.
    receiving: Vec<Vec<(u32, u32)>>,
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
    /// Per-source footprint memos for the Grid + deterministic-propagation
    /// path. A footprint is then a pure function of node positions, so
    /// until any node moves the memo replays the exact `Cover` list —
    /// link budget included — discovery would rebuild. All memos of one
    /// epoch live back to back in `fp_arena` (which holds epoch
    /// `fp_arena_epoch`); `fp_span[v]` locates source `v`'s.
    fp_arena: Vec<Cover>,
    fp_arena_epoch: u64,
    fp_span: Vec<FpSpan>,
    /// Bumped on every `set_position`; stale memos are simply recomputed
    /// on their next use, and the arena is emptied when a new epoch
    /// memoises its first footprint.
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
            noise_mw: dbm_to_mw(radio.noise_floor_dbm),
            positions,
            cs_count: vec![0; n],
            agg_mw: vec![0.0; n],
            slots: Vec::new(),
            free_slots: Vec::new(),
            active_len: 0,
            dense_len: 0,
            receiving: vec![Vec::new(); n],
            tx_count: vec![0; n],
            next_id: 0,
            tracer: Tracer::disabled(),
            index: MediumIndex::Naive,
            horizon: None,
            grid: None,
            scratch: Vec::new(),
            fp_arena: Vec::new(),
            fp_arena_epoch: 0,
            fp_span: vec![FpSpan::NONE; n],
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

    /// Writes into `out` every node within `range` meters of `center`
    /// (exact Euclidean filter, inclusive), ascending by id — including a
    /// node sitting exactly at `center`. `out` is cleared first. Served from
    /// the spatial index under `Grid`, identical output under either index.
    pub fn nodes_within(&self, center: Vec2, range: f64, out: &mut Vec<NodeId>) {
        match &self.grid {
            Some(grid) => {
                grid.candidates_within(center, range, out);
                out.retain(|&v| center.distance(self.positions[v]) <= range);
            }
            None => {
                out.clear();
                out.extend(
                    (0..self.positions.len())
                        .filter(|&v| center.distance(self.positions[v]) <= range),
                );
            }
        }
    }

    /// Starts a transmission from `src` at time `now`.
    ///
    /// Returns the transmission id (pass it to [`Medium::end_tx`] when the
    /// frame's airtime elapses) and writes the carrier-sense edges the new
    /// energy causes into `edges`, which is cleared first. Shadowing (if
    /// configured) is drawn per receiver from `rng`.
    pub fn begin_tx<R: Rng>(
        &mut self,
        src: NodeId,
        now: SimTime,
        rng: &mut R,
        edges: &mut Vec<EdgeChange>,
    ) -> TxId {
        let id = TxId(self.next_id);
        self.next_id += 1;
        let src_pos = self.positions[src];
        edges.clear();

        // The frame's record reuses the vectors of the slot it will occupy.
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.slots.push(ActiveTx::default());
            self.slots.len() - 1
        });
        let mut covered = std::mem::take(&mut self.slots[slot].covered);
        covered.clear();

        // Footprint discovery: which nodes perceive this transmission, at
        // what power. Candidates are visited in ascending node order on both
        // paths, so edge order and (stochastic) RNG draws are identical.
        match (&self.grid, self.horizon) {
            (Some(grid), Some(h)) => {
                // Deterministic propagation ⇒ the footprint is a pure
                // function of positions, so replay the memoised Cover list
                // when no node has moved since it was computed. Replaying
                // bumps carrier sense in the same ascending order the scan
                // would, so the edge list is identical too.
                let span = self.fp_span[src];
                if span.epoch == self.pos_epoch {
                    let start = span.start as usize;
                    covered.extend_from_slice(&self.fp_arena[start..start + span.len as usize]);
                    for c in &covered {
                        if c.senseable {
                            self.cs_count[c.node] += 1;
                            if self.cs_count[c.node] == 1 {
                                edges.push(EdgeChange { node: c.node, busy: true });
                            }
                        }
                    }
                } else {
                    let mut cand = std::mem::take(&mut self.scratch);
                    grid.candidates_within(src_pos, h, &mut cand);
                    for &v in &cand {
                        if v != src {
                            self.try_cover(src_pos, v, rng, &mut covered, edges);
                        }
                    }
                    self.scratch = cand;
                    // Decodability is symmetric under deterministic
                    // propagation: the nodes whose frames `src` can decode
                    // are the ones its memo lists as decodable. With one
                    // frame in flight per transmitter that is the peak of
                    // `src`'s receiver list, so size the list now, with
                    // the memo, rather than at a reception late in a run.
                    let peak = covered.iter().filter(|c| c.decodable).count();
                    let list = &mut self.receiving[src];
                    list.reserve(peak.saturating_sub(list.len()));
                    if self.fp_arena_epoch != self.pos_epoch {
                        // Every memo in the arena is stale: start over.
                        self.fp_arena.clear();
                        self.fp_arena_epoch = self.pos_epoch;
                    }
                    self.fp_span[src] = FpSpan {
                        epoch: self.pos_epoch,
                        start: self.fp_arena.len() as u32,
                        len: covered.len() as u32,
                    };
                    self.fp_arena.extend_from_slice(&covered);
                }
            }
            _ => {
                for v in 0..self.node_count() {
                    if v != src {
                        self.try_cover(src_pos, v, rng, &mut covered, edges);
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
        // new transmitter as overlapping: a node cannot hear a frame while
        // it is transmitting itself.
        if self.dense_len > 0 {
            for a in &mut self.slots {
                if a.id.is_none() || !a.dense {
                    continue;
                }
                for v in 0..n {
                    let other = self.agg_mw[v] - a.power_dense[v];
                    if other > a.max_interf_dense[v] {
                        a.max_interf_dense[v] = other;
                    }
                }
                a.overlapped_dense[src] = true;
            }
        }
        // Sparse frames refresh through the receiver index: only the frames
        // that a node whose aggregate just changed can decode are touched,
        // the only cells `end_tx` reads. Every (frame, node) cell is an
        // independent max, so visit order is immaterial — the arithmetic is
        // identical to the dense rescan.
        for c in &covered {
            for &(slot, k) in &self.receiving[c.node] {
                let a = &mut self.slots[slot as usize];
                assert!(a.id.is_some(), "receiver entry points at a live slot");
                let r = &mut a.receivers[k as usize];
                let other = self.agg_mw[c.node] - a.covered[r.at as usize].p_mw;
                if other > r.max_interf_mw {
                    r.max_interf_mw = other;
                }
            }
        }
        for &(slot, k) in &self.receiving[src] {
            self.slots[slot as usize].receivers[k as usize].overlapped = true;
        }

        let dense = self.index == MediumIndex::Naive;
        let a = &mut self.slots[slot];
        a.receivers.clear();
        a.power_dense.clear();
        a.max_interf_dense.clear();
        a.overlapped_dense.clear();
        // Either way, a node already transmitting will miss this frame.
        if dense {
            a.power_dense.resize(n, 0.0);
            for c in &covered {
                a.power_dense[c.node] = c.p_mw;
            }
            a.max_interf_dense
                .extend((0..n).map(|v| self.agg_mw[v] - a.power_dense[v]));
            a.overlapped_dense.extend((0..n).map(|v| self.tx_count[v] > 0));
        } else {
            for (i, c) in covered.iter().enumerate().filter(|(_, c)| c.decodable) {
                self.receiving[c.node].push((slot as u32, a.receivers.len() as u32));
                a.receivers.push(Receiver {
                    at: i as u32,
                    overlapped: self.tx_count[c.node] > 0,
                    max_interf_mw: self.agg_mw[c.node] - c.p_mw,
                });
            }
        }
        a.id = Some(id);
        a.src = src;
        a.start = now;
        a.covered = covered;
        a.dense = dense;
        self.active_len += 1;
        if dense {
            self.dense_len += 1;
        }
        self.tx_count[src] += 1;

        for e in edges.iter() {
            self.tracer
                .emit(now.as_nanos(), Some(e.node), EventKind::ChannelEdge { busy: e.busy });
        }
        id
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
            let p_mw = dbm_to_mw(p_dbm);
            // Judged on the power read back from mW, as the reference
            // arithmetic in `end_tx` judges it, so both decide alike.
            let rx_dbm = if senseable { mw_to_dbm(p_mw) } else { f64::NEG_INFINITY };
            let decodable = senseable && self.radio.decodable(rx_dbm);
            covered.push(Cover { node: v, p_mw, rx_dbm, senseable, decodable });
            if senseable {
                self.cs_count[v] += 1;
                if self.cs_count[v] == 1 {
                    edges.push(EdgeChange { node: v, busy: true });
                }
            }
        }
    }

    /// Ends a transmission at time `now`, writing its per-node outcomes and
    /// the idle edges the vanishing energy causes into `out` (every field
    /// is overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to an in-flight transmission (ending a
    /// transmission twice is a caller bug).
    pub fn end_tx(&mut self, id: TxId, now: SimTime, out: &mut EndedTx) {
        let slot = self
            .slots
            .iter()
            .position(|a| a.id == Some(id))
            .expect("end_tx on a transmission that is not in flight");
        let tx = &mut self.slots[slot];
        tx.id = None;
        self.active_len -= 1;
        self.tx_count[tx.src] -= 1;
        if tx.dense {
            self.dense_len -= 1;
        } else {
            // Unregister from the receiver index (entries are unique).
            for (k, r) in tx.receivers.iter().enumerate() {
                let list = &mut self.receiving[tx.covered[r.at as usize].node];
                let at = list
                    .iter()
                    .position(|&e| e == (slot as u32, k as u32))
                    .expect("receiver is indexed");
                list.swap_remove(at);
            }
        }
        self.free_slots.push(slot);

        out.src = tx.src;
        out.start = tx.start;
        out.edges.clear();
        for c in &tx.covered {
            self.agg_mw[c.node] -= c.p_mw;
            if self.agg_mw[c.node] < 0.0 {
                self.agg_mw[c.node] = 0.0; // guard float drift
            }
            if c.senseable {
                self.cs_count[c.node] -= 1;
                if self.cs_count[c.node] == 0 {
                    out.edges.push(EdgeChange { node: c.node, busy: false });
                }
            }
        }

        // Only sensing-disk nodes perceive the frame; interference-ring
        // nodes carried power but stay silent (OutOfRange).
        out.receptions.clear();
        let senseable = tx.covered.iter().filter(|c| c.senseable);
        if tx.dense {
            // The reference arithmetic: every senseable node judged from its
            // power in mW.
            out.receptions.extend(senseable.map(|c| {
                let p_dbm = mw_to_dbm(c.p_mw);
                let outcome = if tx.overlapped_dense[c.node] || !self.radio.decodable(p_dbm) {
                    RxOutcome::Sensed
                } else if self.radio.captures(c.p_mw, tx.max_interf_dense[c.node]) {
                    RxOutcome::Decoded
                } else {
                    RxOutcome::Collided
                };
                (c.node, outcome)
            }));
        } else {
            // Only receivers can decode or collide. Each is judged by the
            // expression `RadioParams::captures` evaluates, with the signal
            // level and the noise term already in hand.
            let (noise_mw, capture_db) = (self.noise_mw, self.radio.capture_db);
            let mut receivers = tx.receivers.iter();
            out.receptions.extend(senseable.map(|c| {
                let r = c.decodable.then(|| receivers.next().expect("one per decodable cover"));
                let outcome = match r {
                    Some(r) if !r.overlapped => {
                        let sinr_db = c.rx_dbm - mw_to_dbm(r.max_interf_mw + noise_mw);
                        if sinr_db >= capture_db {
                            RxOutcome::Decoded
                        } else {
                            RxOutcome::Collided
                        }
                    }
                    _ => RxOutcome::Sensed,
                };
                (c.node, outcome)
            }));
        }

        for e in &out.edges {
            self.tracer
                .emit(now.as_nanos(), Some(e.node), EventKind::ChannelEdge { busy: e.busy });
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

    /// Starts a transmission, returning its id and the busy edges it causes.
    fn begin(m: &mut Medium, src: NodeId, now: SimTime, rng: &mut Xoshiro256) -> (TxId, Vec<EdgeChange>) {
        let mut edges = Vec::new();
        let tx = m.begin_tx(src, now, rng, &mut edges);
        (tx, edges)
    }

    /// Ends a transmission into a fresh [`EndedTx`].
    fn end(m: &mut Medium, tx: TxId, now: SimTime) -> EndedTx {
        let mut ended = EndedTx::default();
        m.end_tx(tx, now, &mut ended);
        ended
    }

    /// The nodes within `range` of `center`, as a fresh vector.
    fn within(m: &Medium, center: Vec2, range: f64) -> Vec<NodeId> {
        let mut out = Vec::new();
        m.nodes_within(center, range, &mut out);
        out
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
        let (tx, edges) = begin(&mut m, 0, SimTime::ZERO, &mut r);
        assert!(m.carrier_busy(1));
        assert!(m.carrier_busy(2));
        assert!(!m.carrier_busy(0), "own tx must not trip own CS");
        assert_eq!(edges.len(), 2);
        let ended = end(&mut m, tx, SimTime::from_micros(999));
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
        let (tx, edges) = begin(&mut m, 0, SimTime::ZERO, &mut r);
        assert!(edges.is_empty());
        assert!(!m.carrier_busy(1));
        let ended = end(&mut m, tx, SimTime::from_micros(999));
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
        let (tx_a, _) = begin(&mut m, 0, SimTime::ZERO, &mut r);
        // C cannot sense A's transmission:
        assert!(!m.carrier_busy(2));
        let (tx_c, _) = begin(&mut m, 2, SimTime::from_micros(10), &mut r);
        let ended_a = end(&mut m, tx_a, SimTime::from_micros(999));
        // B: A's signal at 200 m vs C's interference at 360 m.
        // Free space: power ratio = (360/200)^2 = 3.24 → 5.1 dB < 10 dB capture.
        assert_eq!(ended_a.outcome_of(1), RxOutcome::Collided);
        // C's own frame arrives at B below the decode threshold (360 m >
        // 250 m): pure energy, no frame.
        let ended_c = end(&mut m, tx_c, SimTime::from_micros(999));
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
        let (tx_a, _) = begin(&mut m, 0, SimTime::ZERO, &mut r);
        let (tx_d, _) = begin(&mut m, 2, SimTime::from_micros(5), &mut r);
        let ended_a = end(&mut m, tx_a, SimTime::from_micros(999));
        assert_eq!(ended_a.outcome_of(1), RxOutcome::Decoded);
        // D's frame at B is below the decode threshold (500 m): energy only.
        let ended_d = end(&mut m, tx_d, SimTime::from_micros(999));
        assert_eq!(ended_d.outcome_of(1), RxOutcome::Sensed);
    }

    #[test]
    fn transmitting_node_misses_overlapping_frames() {
        let mut m = medium_with(vec![Vec2::new(0.0, 0.0), Vec2::new(100.0, 0.0)]);
        let mut r = rng();
        let (tx0, _) = begin(&mut m, 0, SimTime::ZERO, &mut r);
        let (tx1, _) = begin(&mut m, 1, SimTime::from_micros(2), &mut r);
        // Node 1 was transmitting while 0's frame was in flight → Sensed.
        let e0 = end(&mut m, tx0, SimTime::from_micros(999));
        assert_eq!(e0.outcome_of(1), RxOutcome::Sensed);
        let e1 = end(&mut m, tx1, SimTime::from_micros(999));
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
        let (a, e1) = begin(&mut m, 0, SimTime::ZERO, &mut r);
        assert!(e1.iter().any(|e| e.node == 1 && e.busy));
        let (c, e2) = begin(&mut m, 2, SimTime::ZERO, &mut r);
        // Node 1 already busy: no second busy edge.
        assert!(!e2.iter().any(|e| e.node == 1));
        let ea = end(&mut m, a, SimTime::from_micros(999));
        // Still busy from c: no idle edge for node 1 yet.
        assert!(!ea.edges.iter().any(|e| e.node == 1));
        assert!(m.carrier_busy(1));
        let ec = end(&mut m, c, SimTime::from_micros(999));
        assert!(ec.edges.iter().any(|e| e.node == 1 && !e.busy));
        assert!(!m.carrier_busy(1));
    }

    #[test]
    fn mobility_changes_future_reception() {
        let mut m = medium_with(vec![Vec2::new(0.0, 0.0), Vec2::new(100.0, 0.0)]);
        let mut r = rng();
        let (tx, _) = begin(&mut m, 0, SimTime::ZERO, &mut r);
        assert!(end(&mut m, tx, SimTime::from_micros(999)).outcome_of(1).is_decoded());
        m.set_position(1, Vec2::new(1000.0, 0.0));
        let (tx, _) = begin(&mut m, 0, SimTime::from_micros(100), &mut r);
        assert_eq!(end(&mut m, tx, SimTime::from_micros(999)).outcome_of(1), RxOutcome::OutOfRange);
    }

    #[test]
    fn channel_edges_are_journaled_when_traced() {
        use mg_trace::{EventKind, TraceConfig, Tracer};
        let tracer = Tracer::new(TraceConfig::verbose());
        let mut m = medium_with(vec![Vec2::new(0.0, 0.0), Vec2::new(240.0, 0.0)]);
        m.set_tracer(tracer.clone());
        let mut r = rng();
        let (tx, _) = begin(&mut m, 0, SimTime::ZERO, &mut r);
        end(&mut m, tx, SimTime::from_micros(100));
        let events = tracer.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::ChannelEdge { busy: true });
        assert_eq!(events[0].node, Some(1));
        assert_eq!(events[1].kind, EventKind::ChannelEdge { busy: false });
        assert_eq!(events[1].t_ns, 100_000);
    }

    #[test]
    fn reused_buffers_match_fresh_ones() {
        // Overlapping transmissions that start and end in interleaved order,
        // so slab slots are freed and retaken: one pair of buffers reused
        // throughout must report exactly what fresh buffers report.
        let positions: Vec<Vec2> =
            (0..12).map(|i| Vec2::new(150.0 * i as f64, 40.0 * (i % 3) as f64)).collect();
        let plan = [(0, 1), (5, 1), (9, 2), (3, 2), (11, 3), (6, 4), (0, 5), (2, 5), (9, 6)];
        let run = |reuse: bool| {
            let mut m = medium_with(positions.clone());
            let mut r = rng();
            let (mut edges, mut ended) = (Vec::new(), EndedTx::default());
            let mut flying: Vec<(TxId, NodeId)> = Vec::new();
            let mut log = Vec::new();
            let mut end = |m: &mut Medium, tx: TxId, now: SimTime, log: &mut Vec<String>| {
                if !reuse {
                    ended = EndedTx::default();
                }
                m.end_tx(tx, now, &mut ended);
                log.push(format!("{:?} {:?} {:?}", ended.src, ended.receptions, ended.edges));
            };
            for &(src, t) in &plan {
                let now = SimTime::from_micros(100 * t);
                if let Some(i) = flying.iter().position(|&(_, s)| s == src) {
                    end(&mut m, flying.remove(i).0, now, &mut log);
                }
                if !reuse {
                    edges = Vec::new();
                }
                flying.push((m.begin_tx(src, now, &mut r, &mut edges), src));
                log.push(format!("{edges:?}"));
                if flying.len() > 3 {
                    end(&mut m, flying.remove(0).0, now, &mut log);
                }
            }
            log
        };
        assert_eq!(run(true), run(false));
    }

    /// The node ids of `tx`'s receivers, after checking that they are its
    /// decodable covers, that each cover's memoised link budget matches the
    /// reference arithmetic, and that the receiver index lists each entry.
    fn receivers_of(m: &Medium, tx: TxId) -> Vec<NodeId> {
        let slot = m.slots.iter().position(|a| a.id == Some(tx)).expect("in flight");
        let a = &m.slots[slot];
        for c in &a.covered {
            let p_dbm = mw_to_dbm(c.p_mw);
            assert_eq!(c.decodable, c.senseable && m.radio.decodable(p_dbm));
            if c.senseable {
                assert_eq!(c.rx_dbm.to_bits(), p_dbm.to_bits());
            }
        }
        let nodes: Vec<NodeId> =
            a.receivers.iter().map(|r| a.covered[r.at as usize].node).collect();
        let decodable: Vec<NodeId> =
            a.covered.iter().filter(|c| c.decodable).map(|c| c.node).collect();
        assert_eq!(nodes, decodable, "receivers are the decodable covers");
        for (k, &v) in nodes.iter().enumerate() {
            assert!(m.receiving[v].contains(&(slot as u32, k as u32)), "node {v} indexed");
        }
        nodes
    }

    #[test]
    fn receivers_are_the_decodable_covers_across_memo_epochs() {
        // A row at 240 m spacing: node 2 decodes its two neighbours only.
        let mut m = medium_with((0..6).map(|i| Vec2::new(240.0 * i as f64, 0.0)).collect());
        let mut r = rng();
        let t = SimTime::from_micros;
        let (tx, _) = begin(&mut m, 2, t(0), &mut r);
        assert_eq!(receivers_of(&m, tx), vec![1, 3], "computed footprint");
        end(&mut m, tx, t(10));
        let (tx, _) = begin(&mut m, 2, t(20), &mut r);
        assert_eq!(receivers_of(&m, tx), vec![1, 3], "replayed memo");
        // A move bumps the memo epoch while 2's frame is in flight: that
        // frame keeps its receivers, and 2's next frame is rediscovered.
        m.set_position(5, Vec2::new(480.0, 100.0));
        assert_eq!(receivers_of(&m, tx), vec![1, 3]);
        end(&mut m, tx, t(30));
        let (tx, _) = begin(&mut m, 2, t(40), &mut r);
        let (tx4, _) = begin(&mut m, 4, t(41), &mut r);
        assert_eq!(receivers_of(&m, tx), vec![1, 3, 5], "after the move");
        assert_eq!(receivers_of(&m, tx4), vec![3]);
        end(&mut m, tx, t(50));
        end(&mut m, tx4, t(50));
        assert!(m.receiving.iter().all(Vec::is_empty), "every entry unregistered");
    }

    #[test]
    #[should_panic(expected = "not in flight")]
    fn double_end_panics() {
        let mut m = medium_with(vec![Vec2::new(0.0, 0.0), Vec2::new(100.0, 0.0)]);
        let mut r = rng();
        let (tx, _) = begin(&mut m, 0, SimTime::ZERO, &mut r);
        end(&mut m, tx, SimTime::from_micros(999));
        end(&mut m, tx, SimTime::from_micros(999));
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
        let (txn, en) = begin(&mut naive, src, SimTime::ZERO, &mut rn);
        let (txg, eg) = begin(&mut grid, src, SimTime::ZERO, &mut rg);
        assert_eq!(en, eg, "busy edges diverge");
        let endn = end(&mut naive, txn, SimTime::from_micros(999));
        let endg = end(&mut grid, txg, SimTime::from_micros(999));
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
        let (txn, en) = begin(&mut naive, 2, SimTime::ZERO, &mut rn);
        let (txg, eg) = begin(&mut grid, 2, SimTime::ZERO, &mut rg);
        assert_eq!(en, eg);
        assert!(en.iter().any(|e| e.node == 1 && e.busy), "200 m apart: sensed");
        assert_eq!(
            end(&mut naive, txn, SimTime::from_micros(9)).receptions,
            end(&mut grid, txg, SimTime::from_micros(9)).receptions
        );
        assert_eq!(within(&naive, Vec2::new(-3100.0, -77.0), 150.0), vec![1, 2]);
        assert_eq!(within(&grid, Vec2::new(-3100.0, -77.0), 150.0), vec![1, 2]);
    }

    #[test]
    fn nodes_within_spanning_many_cells_matches_naive() {
        // Query radius far above the cell size (≈551 m): a >3×3 window.
        let pts: Vec<Vec2> = (0..15).map(|i| Vec2::new(i as f64 * 400.0, 0.0)).collect();
        let (naive, grid) = both_indices(pts);
        for r in [100.0, 550.0, 1650.0, 2500.0, 1e9] {
            assert_eq!(
                within(&naive, Vec2::new(0.0, 0.0), r),
                within(&grid, Vec2::new(0.0, 0.0), r),
                "radius {r}"
            );
        }
    }

    #[test]
    fn set_index_midstream_preserves_state() {
        let mut m = medium_with(vec![Vec2::new(0.0, 0.0), Vec2::new(240.0, 0.0)]);
        let mut r = rng();
        let (tx, _) = begin(&mut m, 0, SimTime::ZERO, &mut r);
        m.set_index(MediumIndex::Naive);
        assert_eq!(m.index(), MediumIndex::Naive);
        assert!(m.carrier_busy(1));
        let ended = end(&mut m, tx, SimTime::from_micros(50));
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
