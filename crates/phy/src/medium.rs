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
//!   every node, each in-flight frame keeps its footprint as one list of
//!   covers plus *dense* per-node power and worst-interference vectors that
//!   are rescanned in full whenever any transmission starts (`O(nodes)` per
//!   query, `O(active × nodes)` per refresh), and `end_tx` judges every
//!   senseable node from its power in mW with [`RadioParams::decodable`]
//!   and [`RadioParams::captures`]. Simple enough to audit by eye; unusable
//!   at thousands of nodes.
//! * [`MediumIndex::Grid`] (the default) — node positions are bucketed in
//!   a cell grid sized to the sensing horizon, so discovery touches only
//!   the cell window covering the interference horizon. A footprint is
//!   kept as three ascending lists, each walked once per edge of the
//!   frame: `power` (every footprint node and its power, the terms of the
//!   aggregate), `sense` (the nodes that sense the frame: its busy and idle
//!   edges and its receptions) and `links` (the nodes that can decode it,
//!   each with its link budget). With deterministic propagation each
//!   source's lists are memoised until some node moves, and a frame reads
//!   its source's memo in place. Only a frame's links can come out of it
//!   as anything but `Sensed`, so only they carry overlap and
//!   worst-interference bookkeeping, and a per-node *receiver* index maps
//!   each node to the in-flight frames it can decode: a new transmission
//!   refreshes just those entries. Everything is `O(footprint)`,
//!   independent of world size; of the paper grid's ≈54-node footprint,
//!   ≈16 nodes sense a frame and ≈3.6 can decode it.
//!
//! The two implementations are **observationally byte-identical** — same
//! edges, receptions, journals and RNG-draw streams. `Grid`'s capture test
//! compares interference in mW against a bracket its link budget holds,
//! and only a level inside the bracket evaluates the dB expression
//! [`RadioParams::captures`] evaluates, so every decision is the
//! reference's. That equivalence is not by construction; it is *proven* by
//! the differential property suite in `tests/diff_index.rs` (and
//! end-to-end by `tests/trace_determinism.rs` at 500 nodes), and the
//! bracket by a property test of its own. Both visit candidates in
//! ascending node order, and with a stochastic propagation model
//! (shadowing `σ > 0`) every receiver consumes an RNG draw, so `Grid`
//! falls back to a full discovery scan, and a footprint of the frame's
//! own, to keep the draw streams identical.

use crate::index::CellGrid;
use crate::propagation::PropagationModel;
use crate::radio::{dbm_to_mw, mw_to_dbm, RadioParams};
use crate::NodeId;
use mg_geom::Vec2;
use mg_sim::rng::Rng;
use mg_sim::SimTime;
use mg_trace::{EventKind, Tracer};
use std::ops::Range;

/// Identifies one in-flight transmission: the slab slot it occupies and
/// that slot's generation, so [`Medium::end_tx`] finds the frame by index
/// and refuses an id whose frame has already ended.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TxId {
    slot: u32,
    gen: u32,
}

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
            other => Err(format!(
                "unknown medium index {other:?}: expected naive or grid"
            )),
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

/// One node inside a transmission's interference footprint, as discovery
/// finds it. `Naive` frames keep their footprint as a list of these; `Grid`
/// splits it into [`Footprints`] lists.
#[derive(Clone, Copy)]
struct Cover {
    node: NodeId,
    /// Received power of the transmission at `node`, mW.
    p_mw: f64,
    /// Whether that power trips `node`'s carrier sense (inside the sensing
    /// disk, not just the interference ring).
    senseable: bool,
}

/// [`RadioParams::captures`] for one link, as a comparison in mW.
///
/// A signal at `rx_dbm` survives interference plus noise of `x` mW iff
/// `rx_dbm − mw_to_dbm(x) ≥ capture_db`, which in exact arithmetic is
/// `x ≤ T` for `T = dbm_to_mw(rx_dbm − capture_db)`. Rounding in either
/// expression moves the decision by some 10⁻¹⁴ of `T`, far inside the
/// bracket `[T·(1 − 10⁻⁹), T·(1 + 10⁻⁹)]`: a level at or below the bracket
/// decodes, one at or above it collides, and only a level inside it
/// evaluates the dB expression itself. So every decision is the
/// expression's, bit for bit, and almost none costs a `log10`.
#[derive(Clone, Copy, Debug)]
struct Capture {
    /// The signal level as [`RadioParams::captures`] reads it: `mw_to_dbm`
    /// of the link's power.
    rx_dbm: f64,
    /// `T·(1 − 10⁻⁹)`.
    lo: f64,
    /// `T·(1 + 10⁻⁹)`.
    hi: f64,
}

impl Capture {
    /// The bracket's half-width, relative to `T`.
    const SLACK: f64 = 1e-9;

    fn new(rx_dbm: f64, capture_db: f64) -> Self {
        let t = dbm_to_mw(rx_dbm - capture_db);
        Capture {
            rx_dbm,
            lo: t * (1.0 - Self::SLACK),
            hi: t * (1.0 + Self::SLACK),
        }
    }

    /// Whether the signal survives interference plus noise of `x_mw`.
    fn survives(&self, x_mw: f64, capture_db: f64) -> bool {
        if x_mw <= self.lo {
            true
        } else if x_mw >= self.hi {
            false
        } else {
            self.rx_dbm - mw_to_dbm(x_mw) >= capture_db
        }
    }
}

/// A node that can decode a Grid frame, with its link budget: everything
/// the interference refresh and the capture test read.
#[derive(Clone, Copy)]
struct Link {
    node: NodeId,
    /// The node's index in the footprint's `sense` list, which is its index
    /// in the frame's receptions.
    sensed: u32,
    /// Received power, mW.
    p_mw: f64,
    capture: Capture,
}

/// Grid footprints as three lists, each ascending by node id. The memo
/// arena holds every memo of one position epoch back to back; a frame whose
/// footprint is not in the arena holds its own.
#[derive(Default)]
struct Footprints {
    /// `(node, mW)` for every footprint node: the aggregate's terms.
    power: Vec<(NodeId, f64)>,
    /// The nodes that sense the frame.
    sense: Vec<NodeId>,
    /// The nodes that can decode the frame.
    links: Vec<Link>,
}

/// Where one footprint's lists sit in a [`Footprints`], as `start..end`.
#[derive(Clone, Copy, Default)]
struct FpSpan {
    power: (u32, u32),
    sense: (u32, u32),
    links: (u32, u32),
}

fn range((start, end): (u32, u32)) -> Range<usize> {
    start as usize..end as usize
}

impl Footprints {
    fn power(&self, s: &FpSpan) -> &[(NodeId, f64)] {
        &self.power[range(s.power)]
    }

    fn sense(&self, s: &FpSpan) -> &[NodeId] {
        &self.sense[range(s.sense)]
    }

    fn links(&self, s: &FpSpan) -> &[Link] {
        &self.links[range(s.links)]
    }

    fn clear(&mut self) {
        self.power.clear();
        self.sense.clear();
        self.links.clear();
    }

    /// Appends the footprint `covers` lists and returns its span. A node
    /// senses the frame when its cover says so, and can decode it when its
    /// power read back from mW clears the decode threshold, exactly as the
    /// reference arithmetic in `end_tx` judges it.
    fn push(&mut self, covers: &[Cover], radio: &RadioParams) -> FpSpan {
        let (p0, s0, l0) = (self.power.len(), self.sense.len(), self.links.len());
        for c in covers {
            self.power.push((c.node, c.p_mw));
            if c.senseable {
                let rx_dbm = mw_to_dbm(c.p_mw);
                if radio.decodable(rx_dbm) {
                    self.links.push(Link {
                        node: c.node,
                        sensed: (self.sense.len() - s0) as u32,
                        p_mw: c.p_mw,
                        capture: Capture::new(rx_dbm, radio.capture_db),
                    });
                }
                self.sense.push(c.node);
            }
        }
        let span = |start: usize, end: usize| (start as u32, end as u32);
        FpSpan {
            power: span(p0, self.power.len()),
            sense: span(s0, self.sense.len()),
            links: span(l0, self.links.len()),
        }
    }

    /// Makes room for `times` more footprints the size of `span`'s.
    fn reserve(&mut self, span: &FpSpan, times: usize) {
        self.power.reserve(times * range(span.power).len());
        self.sense.reserve(times * range(span.sense).len());
        self.links.reserve(times * range(span.links).len());
    }

    /// Replaces these lists with a copy of the power and sense lists of
    /// `span` in `from`, and returns the copy's span. A frame reads no
    /// links once its receivers are registered.
    fn copy_of(&mut self, from: &Footprints, span: &FpSpan) -> FpSpan {
        self.clear();
        self.power.extend_from_slice(from.power(span));
        self.sense.extend_from_slice(from.sense(span));
        FpSpan {
            power: (0, self.power.len() as u32),
            sense: (0, self.sense.len() as u32),
            links: (0, 0),
        }
    }
}

/// A source's footprint memo: its span in the arena, valid while `epoch`
/// is the medium's position epoch.
#[derive(Clone, Copy)]
struct Memo {
    epoch: u64,
    span: FpSpan,
}

impl Memo {
    /// A memo that matches no epoch.
    const NONE: Memo = Memo {
        epoch: u64::MAX,
        span: FpSpan {
            power: (0, 0),
            sense: (0, 0),
            links: (0, 0),
        },
    };
}

/// A decodable receiver of a sparse frame. Every other footprint node comes
/// out `Sensed` (or silent) whatever overlaps it, so only receivers carry
/// bookkeeping.
#[derive(Clone, Copy)]
struct Receiver {
    link: Link,
    /// Whether the node transmitted at any point during this frame's flight.
    overlapped: bool,
    /// Max aggregate co-channel power the node saw during this frame, mW.
    max_interf_mw: f64,
}

/// Where an in-flight frame keeps its footprint.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
enum Store {
    /// Started under `Naive`: `covered` and the dense vectors.
    #[default]
    Dense,
    /// Started under `Grid`: lists read in place from the memo arena.
    Arena,
    /// Started under `Grid`: lists in the slot's `own`.
    Own,
}

/// One slot of the in-flight slab. A freed slot keeps its vectors, cleared
/// and refilled by the next frame to take it, so a transmission allocates
/// nothing once the slab has warmed up.
#[derive(Default)]
struct ActiveTx {
    /// Whether a frame occupies the slot.
    live: bool,
    /// Bumped each time a frame takes the slot: with the slot index, the
    /// frame's [`TxId`].
    gen: u32,
    src: NodeId,
    start: SimTime,
    store: Store,
    /// Sparse frames: where the footprint's lists sit, in the arena or in
    /// `own` as `store` says.
    span: FpSpan,
    own: Footprints,
    /// Sparse frames: one entry per link, in `links` order.
    receivers: Vec<Receiver>,
    /// Dense frames: every node in the interference footprint, ascending
    /// by node id, and received power, worst aggregate interference and
    /// overlap indexed by node id, the first two rescanned in full on every
    /// `begin_tx`.
    covered: Vec<Cover>,
    power_dense: Vec<f64>,
    max_interf_dense: Vec<f64>,
    overlapped_dense: Vec<bool>,
}

/// One more foreign transmission sensed at `v`: a busy edge if it is the
/// first.
#[inline]
fn busy(cs_count: &mut [u32], edges: &mut Vec<EdgeChange>, v: NodeId) {
    cs_count[v] += 1;
    if cs_count[v] == 1 {
        edges.push(EdgeChange {
            node: v,
            busy: true,
        });
    }
}

/// One foreign transmission fewer sensed at `v`: an idle edge if it was the
/// last.
#[inline]
fn idle(cs_count: &mut [u32], edges: &mut Vec<EdgeChange>, v: NodeId) {
    cs_count[v] -= 1;
    if cs_count[v] == 0 {
        edges.push(EdgeChange {
            node: v,
            busy: false,
        });
    }
}

/// Adds `mw` to `v`'s aggregate, then raises the worst interference of
/// every sparse frame in flight that `v` can decode to the new level. The
/// refresh reads only `v`'s aggregate, which is final once `v`'s term is
/// added, so it can run inside the walk over a footprint's `power`.
#[inline]
fn raise(
    agg_mw: &mut [f64],
    receiving: &[Vec<(u32, u32)>],
    slots: &mut [ActiveTx],
    v: NodeId,
    mw: f64,
) {
    agg_mw[v] += mw;
    for &(slot, k) in &receiving[v] {
        let r = &mut slots[slot as usize].receivers[k as usize];
        let other = agg_mw[v] - r.link.p_mw;
        if other > r.max_interf_mw {
            r.max_interf_mw = other;
        }
    }
}

/// Takes `mw` off `v`'s aggregate.
#[inline]
fn lower(agg_mw: &mut [f64], v: NodeId, mw: f64) {
    agg_mw[v] -= mw;
    if agg_mw[v] < 0.0 {
        agg_mw[v] = 0.0; // guard float drift
    }
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
    /// can point into it; slots that are not `live` are free (see
    /// `free_slots`).
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
    tracer: Tracer,
    index: MediumIndex,
    /// Farthest distance at which the interference cutoff (CS threshold
    /// minus the capture margin) can be met, when the propagation model is
    /// deterministic. `None` ⇒ per-receiver shadowing draws: the footprint
    /// is unbounded and discovery must scan all nodes.
    horizon: Option<f64>,
    /// Present iff `index == Grid`.
    grid: Option<CellGrid>,
    /// Reusable candidate buffer for discovery.
    scratch: Vec<NodeId>,
    /// Reusable discovery output for `Grid` frames, before it is split.
    covers: Vec<Cover>,
    /// Per-source footprint memos for the Grid + deterministic-propagation
    /// path. A footprint is then a pure function of node positions, so
    /// until any node moves the memo holds the exact lists — link budgets
    /// included — that discovery would rebuild. All memos of one epoch live
    /// back to back in `arena` (which holds epoch `arena_epoch`);
    /// `memo[v]` locates source `v`'s.
    arena: Footprints,
    arena_epoch: u64,
    memo: Vec<Memo>,
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
            tracer: Tracer::disabled(),
            index: MediumIndex::Naive,
            horizon: None,
            grid: None,
            scratch: Vec::new(),
            covers: Vec::new(),
            arena: Footprints::default(),
            arena_epoch: 0,
            memo: vec![Memo::NONE; n],
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
        if self.arena_epoch == self.pos_epoch {
            // The epoch moves on, and its next memo empties the arena:
            // frames reading their footprint there copy it out first.
            let reading = |a: &&mut ActiveTx| a.live && a.store == Store::Arena;
            for a in self.slots.iter_mut().filter(reading) {
                a.span = a.own.copy_of(&self.arena, &a.span);
                a.store = Store::Own;
            }
        }
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
        edges.clear();
        // The frame's record reuses the vectors of the slot it will occupy.
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.slots.push(ActiveTx::default());
            self.slots.len() - 1
        });
        let store = if self.index == MediumIndex::Naive {
            self.begin_dense(slot, src, rng, edges);
            Store::Dense
        } else {
            self.begin_sparse(slot, src, rng, edges)
        };
        // The new transmitter misses every frame in flight that it could
        // decode (`rescan_dense` marks the dense ones).
        self.rescan_dense(src);
        for &(s, k) in &self.receiving[src] {
            self.slots[s as usize].receivers[k as usize].overlapped = true;
        }

        let a = &mut self.slots[slot];
        a.live = true;
        a.gen = a.gen.wrapping_add(1);
        a.src = src;
        a.start = now;
        a.store = store;
        let id = TxId {
            slot: slot as u32,
            gen: a.gen,
        };
        self.active_len += 1;
        if store == Store::Dense {
            self.dense_len += 1;
        }
        self.tx_count[src] += 1;

        for e in edges.iter() {
            self.tracer.emit(
                now.as_nanos(),
                Some(e.node),
                EventKind::ChannelEdge { busy: e.busy },
            );
        }
        id
    }

    /// `begin_tx` for a `Grid` frame: its source's memo read in place under
    /// deterministic propagation, else a footprint discovered for this
    /// frame alone. The frame's `sense` list bumps carrier sense, its
    /// `power` list raises the aggregates (and, through the receiver index,
    /// the frames in flight that those nodes can decode), and its `links`
    /// become its receivers. Returns where the lists are.
    fn begin_sparse<R: Rng>(
        &mut self,
        slot: usize,
        src: NodeId,
        rng: &mut R,
        edges: &mut Vec<EdgeChange>,
    ) -> Store {
        let mut own = std::mem::take(&mut self.slots[slot].own);
        let in_arena = self.horizon.is_some();
        let span = if in_arena {
            self.memo_of(src, rng)
        } else {
            let mut covers = std::mem::take(&mut self.covers);
            self.discover(src, rng, &mut covers);
            own.clear();
            let span = own.push(&covers, &self.radio);
            self.covers = covers;
            span
        };

        let fp = if in_arena { &self.arena } else { &own };
        for &v in fp.sense(&span) {
            busy(&mut self.cs_count, edges, v);
        }
        for &(v, mw) in fp.power(&span) {
            raise(&mut self.agg_mw, &self.receiving, &mut self.slots, v, mw);
        }
        // A node already transmitting will miss this frame.
        let a = &mut self.slots[slot];
        a.receivers.clear();
        for (k, &link) in fp.links(&span).iter().enumerate() {
            self.receiving[link.node].push((slot as u32, k as u32));
            a.receivers.push(Receiver {
                link,
                overlapped: self.tx_count[link.node] > 0,
                max_interf_mw: self.agg_mw[link.node] - link.p_mw,
            });
        }
        a.span = span;
        a.own = own;
        if in_arena {
            Store::Arena
        } else {
            Store::Own
        }
    }

    /// `begin_tx` for a `Naive` frame: the reference bookkeeping, a cover
    /// list and dense per-node vectors.
    fn begin_dense<R: Rng>(
        &mut self,
        slot: usize,
        src: NodeId,
        rng: &mut R,
        edges: &mut Vec<EdgeChange>,
    ) {
        let mut covered = std::mem::take(&mut self.slots[slot].covered);
        self.discover(src, rng, &mut covered);
        for c in covered.iter().filter(|c| c.senseable) {
            busy(&mut self.cs_count, edges, c.node);
        }
        for c in &covered {
            raise(
                &mut self.agg_mw,
                &self.receiving,
                &mut self.slots,
                c.node,
                c.p_mw,
            );
        }
        // A node already transmitting will miss this frame.
        let n = self.node_count();
        let a = &mut self.slots[slot];
        a.power_dense.clear();
        a.power_dense.resize(n, 0.0);
        for c in &covered {
            a.power_dense[c.node] = c.p_mw;
        }
        a.max_interf_dense.clear();
        a.max_interf_dense
            .extend((0..n).map(|v| self.agg_mw[v] - a.power_dense[v]));
        a.overlapped_dense.clear();
        a.overlapped_dense
            .extend((0..n).map(|v| self.tx_count[v] > 0));
        a.covered = covered;
    }

    /// Dense (reference) frames in flight rescan every node once a new
    /// transmission from `src` has raised the aggregates — the O(active ×
    /// n) loop the Grid strategy exists to avoid — and mark `src` as
    /// overlapping: a node cannot hear a frame while it is transmitting
    /// itself. The frame being started is not live yet, so it is skipped;
    /// its own bookkeeping reads only the aggregates, not the rescan.
    fn rescan_dense(&mut self, src: NodeId) {
        if self.dense_len == 0 {
            return;
        }
        for a in self
            .slots
            .iter_mut()
            .filter(|a| a.live && a.store == Store::Dense)
        {
            for (v, &agg) in self.agg_mw.iter().enumerate() {
                let other = agg - a.power_dense[v];
                if other > a.max_interf_dense[v] {
                    a.max_interf_dense[v] = other;
                }
            }
            a.overlapped_dense[src] = true;
        }
    }

    /// Footprint discovery: writes into `out` (cleared first) every node
    /// whose power from `src` clears the interference cutoff, ascending by
    /// node id. Candidates come from the cell window when the grid and a
    /// horizon allow, else from every node; both paths visit in ascending
    /// order, so (stochastic) RNG draws are identical.
    fn discover<R: Rng>(&mut self, src: NodeId, rng: &mut R, out: &mut Vec<Cover>) {
        out.clear();
        let src_pos = self.positions[src];
        let mut cand = std::mem::take(&mut self.scratch);
        match (&self.grid, self.horizon) {
            (Some(grid), Some(h)) => grid.candidates_within(src_pos, h, &mut cand),
            _ => {
                cand.clear();
                cand.extend(0..self.node_count());
            }
        }
        let cutoff = self.interference_cutoff_dbm();
        for &v in cand.iter().filter(|&&v| v != src) {
            let d = src_pos.distance(self.positions[v]);
            let p_dbm = self
                .radio
                .rx_power_dbm(self.prop.sample_path_loss_db(d, rng));
            if p_dbm >= cutoff {
                out.push(Cover {
                    node: v,
                    p_mw: dbm_to_mw(p_dbm),
                    senseable: self.radio.senseable(p_dbm),
                });
            }
        }
        self.scratch = cand;
    }

    /// `src`'s footprint memo for the current position epoch, discovered
    /// and appended to the arena if it has none. The epoch's first memo
    /// empties the arena of the last epoch's (no frame reads them any more:
    /// `set_position` made in-flight frames copy theirs out) and sizes it
    /// for every node to memoise a footprint twice that size, so a node's
    /// first memo late in a run does not allocate.
    fn memo_of<R: Rng>(&mut self, src: NodeId, rng: &mut R) -> FpSpan {
        let memo = self.memo[src];
        if memo.epoch == self.pos_epoch {
            return memo.span;
        }
        let mut covers = std::mem::take(&mut self.covers);
        self.discover(src, rng, &mut covers);
        if self.arena_epoch != self.pos_epoch {
            self.arena.clear();
            self.arena_epoch = self.pos_epoch;
        }
        let first = self.arena.power.is_empty();
        let span = self.arena.push(&covers, &self.radio);
        self.covers = covers;
        if first {
            self.arena.reserve(&span, 2 * self.node_count());
        }
        self.memo[src] = Memo {
            epoch: self.pos_epoch,
            span,
        };
        // Decodability is symmetric under deterministic propagation: the
        // nodes whose frames `src` can decode are its links. With one frame
        // in flight per transmitter that is the peak of `src`'s receiver
        // list, so size the list now, with the memo, rather than at a
        // reception late in a run.
        let peak = range(span.links).len();
        let list = &mut self.receiving[src];
        list.reserve(peak.saturating_sub(list.len()));
        span
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
        let slot = id.slot as usize;
        assert!(
            self.slots
                .get(slot)
                .is_some_and(|a| a.live && a.gen == id.gen),
            "end_tx on a transmission that is not in flight"
        );
        self.slots[slot].live = false;
        self.free_slots.push(slot);
        self.active_len -= 1;
        let tx = &self.slots[slot];
        self.tx_count[tx.src] -= 1;
        out.src = tx.src;
        out.start = tx.start;
        out.edges.clear();
        out.receptions.clear();

        if tx.store == Store::Dense {
            self.dense_len -= 1;
            for c in &tx.covered {
                lower(&mut self.agg_mw, c.node, c.p_mw);
                if c.senseable {
                    idle(&mut self.cs_count, &mut out.edges, c.node);
                }
            }
            // Only sensing-disk nodes perceive the frame; interference-ring
            // nodes carried power but stay silent (OutOfRange). The
            // reference arithmetic judges every senseable node from its
            // power in mW.
            out.receptions
                .extend(tx.covered.iter().filter(|c| c.senseable).map(|c| {
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
            // Unregister from the receiver index (entries are unique).
            for (k, r) in tx.receivers.iter().enumerate() {
                let list = &mut self.receiving[r.link.node];
                let at = list
                    .iter()
                    .position(|&e| e == (slot as u32, k as u32))
                    .expect("receiver is indexed");
                list.swap_remove(at);
            }
            let fp = if tx.store == Store::Arena {
                &self.arena
            } else {
                &tx.own
            };
            for &(v, mw) in fp.power(&tx.span) {
                lower(&mut self.agg_mw, v, mw);
            }
            let sense = fp.sense(&tx.span);
            for &v in sense {
                idle(&mut self.cs_count, &mut out.edges, v);
            }
            // Every node that senses the frame perceives it (ring nodes
            // stay silent), and only receivers can decode or collide.
            out.receptions
                .extend(sense.iter().map(|&v| (v, RxOutcome::Sensed)));
            let capture_db = self.radio.capture_db;
            for r in tx.receivers.iter().filter(|r| !r.overlapped) {
                let x_mw = r.max_interf_mw + self.noise_mw;
                out.receptions[r.link.sensed as usize].1 =
                    if r.link.capture.survives(x_mw, capture_db) {
                        RxOutcome::Decoded
                    } else {
                        RxOutcome::Collided
                    };
            }
        }

        for e in &out.edges {
            self.tracer.emit(
                now.as_nanos(),
                Some(e.node),
                EventKind::ChannelEdge { busy: e.busy },
            );
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
    fn begin(
        m: &mut Medium,
        src: NodeId,
        now: SimTime,
        rng: &mut Xoshiro256,
    ) -> (TxId, Vec<EdgeChange>) {
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
        assert!(end(&mut m, tx, SimTime::from_micros(999))
            .outcome_of(1)
            .is_decoded());
        m.set_position(1, Vec2::new(1000.0, 0.0));
        let (tx, _) = begin(&mut m, 0, SimTime::from_micros(100), &mut r);
        assert_eq!(
            end(&mut m, tx, SimTime::from_micros(999)).outcome_of(1),
            RxOutcome::OutOfRange
        );
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
        let positions: Vec<Vec2> = (0..12)
            .map(|i| Vec2::new(150.0 * i as f64, 40.0 * (i % 3) as f64))
            .collect();
        let plan = [
            (0, 1),
            (5, 1),
            (9, 2),
            (3, 2),
            (11, 3),
            (6, 4),
            (0, 5),
            (2, 5),
            (9, 6),
        ];
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
                log.push(format!(
                    "{:?} {:?} {:?}",
                    ended.src, ended.receptions, ended.edges
                ));
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

    /// The node ids of `tx`'s receivers, after checking that its lists
    /// ascend, that the receivers are the nodes sensing it that decode it by
    /// the reference arithmetic, that each link's budget and sense index
    /// match its lists, and that the receiver index lists each entry.
    fn receivers_of(m: &Medium, tx: TxId) -> Vec<NodeId> {
        let a = &m.slots[tx.slot as usize];
        assert!(a.live && a.gen == tx.gen, "in flight");
        let fp = if a.store == Store::Arena {
            &m.arena
        } else {
            &a.own
        };
        let (power, sense) = (fp.power(&a.span), fp.sense(&a.span));
        assert!(power.windows(2).all(|w| w[0].0 < w[1].0), "power ascends");
        assert!(sense.windows(2).all(|w| w[0] < w[1]), "sense ascends");
        let p_of = |v: NodeId| power.iter().find(|&&(u, _)| u == v).expect("has power").1;
        let decodable: Vec<NodeId> = sense
            .iter()
            .copied()
            .filter(|&v| m.radio.decodable(mw_to_dbm(p_of(v))))
            .collect();
        for (k, r) in a.receivers.iter().enumerate() {
            let link = r.link;
            assert_eq!(sense[link.sensed as usize], link.node);
            assert_eq!(link.p_mw.to_bits(), p_of(link.node).to_bits());
            assert_eq!(
                link.capture.rx_dbm.to_bits(),
                mw_to_dbm(link.p_mw).to_bits()
            );
            let entry = (tx.slot, k as u32);
            assert!(
                m.receiving[link.node].contains(&entry),
                "node {} indexed",
                link.node
            );
        }
        let nodes: Vec<NodeId> = a.receivers.iter().map(|r| r.link.node).collect();
        assert_eq!(
            nodes, decodable,
            "receivers are the decodable sensing nodes"
        );
        nodes
    }

    /// Whether in-flight frame `tx` reads its lists from the memo arena.
    fn reads_arena(m: &Medium, tx: TxId) -> bool {
        m.slots[tx.slot as usize].store == Store::Arena
    }

    #[test]
    fn receivers_are_the_decodable_links_across_memo_epochs() {
        // A row at 240 m spacing: node 2 decodes its two neighbours only.
        let mut m = medium_with((0..6).map(|i| Vec2::new(240.0 * i as f64, 0.0)).collect());
        let mut r = rng();
        let t = SimTime::from_micros;
        let (tx, _) = begin(&mut m, 2, t(0), &mut r);
        assert_eq!(receivers_of(&m, tx), vec![1, 3], "computed footprint");
        end(&mut m, tx, t(10));
        let (tx, _) = begin(&mut m, 2, t(20), &mut r);
        assert_eq!(receivers_of(&m, tx), vec![1, 3], "replayed memo");
        assert!(reads_arena(&m, tx), "a memo is read in place");
        // A move bumps the memo epoch while 2's frame is in flight: that
        // frame copies its lists out of the arena and keeps its receivers,
        // even once the new epoch's first memo empties the arena, and 2's
        // next frame is rediscovered.
        m.set_position(5, Vec2::new(480.0, 100.0));
        assert!(!reads_arena(&m, tx), "a move copies in-flight lists out");
        assert_eq!(receivers_of(&m, tx), vec![1, 3]);
        let (tx4, _) = begin(&mut m, 4, t(25), &mut r);
        assert_eq!(
            receivers_of(&m, tx),
            vec![1, 3],
            "after the arena is emptied"
        );
        end(&mut m, tx, t(30));
        end(&mut m, tx4, t(30));
        let (tx, _) = begin(&mut m, 2, t(40), &mut r);
        let (tx4, _) = begin(&mut m, 4, t(41), &mut r);
        assert_eq!(receivers_of(&m, tx), vec![1, 3, 5], "after the move");
        assert_eq!(receivers_of(&m, tx4), vec![3]);
        end(&mut m, tx, t(50));
        end(&mut m, tx4, t(50));
        assert!(
            m.receiving.iter().all(Vec::is_empty),
            "every entry unregistered"
        );
    }

    /// The capture bracket decides every level as the dB expression
    /// `RadioParams::captures` evaluates: at random levels, and at the
    /// threshold `T`, the bracket's ends and their neighbours a few ULPs
    /// away, where inside the bracket it must defer to the expression. The
    /// count of levels inside proves that path runs.
    #[test]
    fn capture_bracket_decides_as_captures_does() {
        use mg_testkit::prop::{check, Gen, TkResult};
        use mg_testkit::tk_assert_eq;
        use std::cell::Cell;

        let inside = Cell::new(0usize);
        check(
            "capture_bracket_decides_as_captures_does",
            |g: &mut Gen| -> TkResult {
                let radio = RadioParams {
                    capture_db: g.f64_in(0.0..20.0),
                    noise_floor_dbm: g.f64_in(-120.0..-95.0),
                    ..RadioParams::paper_default(&PropagationModel::free_space())
                };
                let noise_mw = dbm_to_mw(radio.noise_floor_dbm);
                let p_mw = dbm_to_mw(g.f64_in(-70.0..25.0));
                let capture = Capture::new(mw_to_dbm(p_mw), radio.capture_db);
                let t = dbm_to_mw(capture.rx_dbm - radio.capture_db);
                // The medium judges worst interference plus noise; `captures`
                // adds the noise itself.
                let judge = |interf_mw: f64| -> TkResult {
                    let x_mw = interf_mw + noise_mw;
                    if capture.lo < x_mw && x_mw < capture.hi {
                        inside.set(inside.get() + 1);
                    }
                    tk_assert_eq!(
                        capture.survives(x_mw, radio.capture_db),
                        radio.captures(p_mw, interf_mw),
                        "signal {p_mw:e} mW, interference {interf_mw:e} mW, {capture:?}"
                    );
                    Ok(())
                };
                judge(0.0)?;
                judge(dbm_to_mw(g.f64_in(-130.0..30.0)))?;
                judge(t * g.f64_in(0.999_999_99..1.000_000_01) - noise_mw)?;
                for level in [t, capture.lo, capture.hi] {
                    for ulps in -3i64..=3 {
                        judge(f64::from_bits((level.to_bits() as i64 + ulps) as u64) - noise_mw)?;
                    }
                }
                Ok(())
            },
        );
        assert!(inside.get() > 0, "no level fell inside the bracket");
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
        assert!(
            en.iter().any(|e| e.node == 1 && e.busy),
            "200 m apart: sensed"
        );
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
