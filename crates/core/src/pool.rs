//! The detector engine: a pool of per-vantage monitors.
//!
//! The paper (Section 5): "We choose a neighbor of the malicious node to
//! monitor its activity. If this neighbor moves out of range, another
//! neighbor is randomly chosen." [`MonitorPool`] realizes that: it keeps a
//! [`Monitor`] at every candidate vantage, designates the vantage currently
//! closest to the tagged node as *active*, and aggregates only the active
//! monitor's back-off samples into one shared hypothesis-test stream.
//!
//! A static monitor is the same pool with one member. Every detector —
//! live in a world, replayed from a journal, or served by `mgd` through a
//! [`DetectorSession`](crate::DetectorSession) — is a pool, and
//! `MonitorPool::harvest` is the one place a batch of samples is judged.

use crate::monitor::{Diagnosis, Monitor, MonitorConfig};
use crate::session::DiagnosisDelta;
use crate::NodeId;
use mg_dcf::Frame;
use mg_fault::FaultPlan;
use mg_net::NetObserver;
use mg_obs::{Distances, Obs, ObsSink};
use mg_phy::Medium;
use mg_sim::SimTime;
use mg_stats::wilcoxon::{Alternative, RankSumScratch};
use mg_trace::{Counter, EventKind, Metrics, Tracer};

/// Significance level of the pool's rank-sum test.
const ALPHA: f64 = 0.01;

/// A set of monitors for one tagged node, one per candidate vantage, with
/// range-based handoff.
pub struct MonitorPool {
    tagged: NodeId,
    tx_range: f64,
    sample_size: usize,
    /// Member vantages in ascending order; `monitors[i]` and
    /// `contributed[i]` belong to `vantages[i]`. Members are found by
    /// binary search, and every per-member view iterates in this order.
    vantages: Vec<NodeId>,
    monitors: Vec<Monitor>,
    /// Samples contributed per member (handoff diagnostic).
    contributed: Vec<usize>,
    /// Index of the active member.
    active: Option<usize>,
    samples: Vec<(f64, f64)>,
    /// One batch's dictated (`xs`) and estimated (`ys`) back-offs, and the
    /// rank-sum buffers: reused from one test to the next.
    xs: Vec<f64>,
    ys: Vec<f64>,
    rank_sum: RankSumScratch,
    tests_run: usize,
    rejections: usize,
    /// p-value of the latest test.
    last_p: Option<f64>,
    /// Last tagged-RTS end seen (virtual timestamp for shared-test records).
    last_seen: SimTime,
    /// Latest geometry snapshot ([`Obs::Ranging`]), applied at the next
    /// tagged-RTS decode — *after* the member consumed the frame, so the
    /// sample extracted for that RTS still uses the pre-hand-off distance
    /// (matching the callback order of a live world). A one-member pool
    /// starts with its member at the configured pair distance, so a stream
    /// with no snapshot still elects it.
    last_ranging: Option<Distances>,
    /// Storage of the live projection's ranging snapshots, reused from one
    /// tagged RTS to the next.
    ranging_buf: Distances,
    /// Incremental delta buffer: member deltas are folded in right after the
    /// routed member consumed an event, followed by the pool's own
    /// shared-test deltas. Disabled (and empty) by default.
    emit_deltas: bool,
    deltas: Vec<DiagnosisDelta>,
    tracer: Tracer,
    metrics: Metrics,
}

impl MonitorPool {
    /// Creates a pool watching `tagged` from every node in `vantages`
    /// (duplicates collapse).
    ///
    /// `template` supplies all per-monitor settings (ARMA, regions…);
    /// its `tagged`/`vantage` fields are overridden per member.
    ///
    /// # Panics
    ///
    /// Panics if `vantages` is empty or contains the tagged node.
    pub fn new(tagged: NodeId, vantages: &[NodeId], template: MonitorConfig) -> Self {
        assert!(!vantages.is_empty(), "a pool needs at least one vantage");
        assert!(
            !vantages.contains(&tagged),
            "the tagged node cannot monitor itself"
        );
        let mut vantages = vantages.to_vec();
        vantages.sort_unstable();
        vantages.dedup();
        let last_ranging = match vantages[..] {
            [v] => Some(std::iter::once((v, template.pair_distance)).collect()),
            _ => None,
        };
        let monitors = vantages
            .iter()
            .map(|&vantage| {
                Monitor::new(MonitorConfig {
                    tagged,
                    vantage,
                    ..template
                })
            })
            .collect();
        MonitorPool {
            tagged,
            tx_range: template.tx_range,
            sample_size: template.sample_size,
            contributed: vec![0; vantages.len()],
            vantages,
            monitors,
            active: None,
            samples: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            rank_sum: RankSumScratch::new(),
            tests_run: 0,
            rejections: 0,
            last_p: None,
            last_seen: SimTime::ZERO,
            last_ranging,
            ranging_buf: Distances::new(),
            emit_deltas: false,
            deltas: Vec::new(),
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
        }
    }

    /// Switches the pool (and every member) onto the incremental path: all
    /// state changes are additionally journaled as [`DiagnosisDelta`]s.
    /// Emission is purely additive — detector decisions are unchanged.
    pub(crate) fn enable_deltas(&mut self) {
        self.emit_deltas = true;
        for m in &mut self.monitors {
            m.enable_deltas();
        }
    }

    /// Moves the accumulated deltas (in emission order) into `out`.
    pub(crate) fn take_deltas_into(&mut self, out: &mut Vec<DiagnosisDelta>) {
        out.append(&mut self.deltas);
    }

    /// Journals every member's samples/violations and the pool's shared
    /// tests through `tracer`, counting into `metrics`. Both disabled by
    /// default.
    pub fn set_instrumentation(&mut self, tracer: Tracer, metrics: Metrics) {
        for m in &mut self.monitors {
            m.set_instrumentation(tracer.clone(), metrics.clone());
        }
        self.tracer = tracer;
        self.metrics = metrics;
    }

    /// The node this pool watches.
    pub fn tagged(&self) -> NodeId {
        self.tagged
    }

    /// Arms every member monitor with its own deterministic observation
    /// fault injector derived from `plan` (keyed by the member's vantage id,
    /// so fates are identical across solo and fanned-out runs). When the
    /// plan carries observation faults, each member holds an injector and
    /// so requires two consecutive anomalous observations before a
    /// deterministic conviction (see [`Monitor`]).
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for (&v, m) in self.vantages.iter().zip(&mut self.monitors) {
            m.install_faults(plan.observer(v as u64));
        }
    }

    /// The candidate vantages, ascending.
    pub fn vantages(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.vantages.iter().copied()
    }

    /// The currently active vantage, if any is in range.
    pub fn active_vantage(&self) -> Option<NodeId> {
        self.active.map(|i| self.vantages[i])
    }

    fn index_of(&self, vantage: NodeId) -> Option<usize> {
        self.vantages.binary_search(&vantage).ok()
    }

    /// The member monitor stationed at `vantage`, if it is part of the pool.
    ///
    /// Gives access to per-member state the pooled aggregates fold away —
    /// the background-traffic ARMA estimate, the analytic model, the
    /// member's own violation count.
    pub fn monitor(&self, vantage: NodeId) -> Option<&Monitor> {
        self.index_of(vantage).map(|i| &self.monitors[i])
    }

    /// Aggregated diagnosis across the pool.
    ///
    /// `violations` is the *maximum* count over members, not the sum: every
    /// in-range vantage independently witnesses the same on-air violation,
    /// and one witness is enough to convict.
    pub fn diagnosis(&self) -> Diagnosis {
        Diagnosis {
            tests_run: self.tests_run,
            rejections: self.rejections,
            violations: self.monitors.iter().map(Monitor::violations).max().unwrap_or(0),
            samples_collected: self.samples.len() + self.tests_run * self.sample_size,
            samples_discarded: self.monitors.iter().map(Monitor::discarded).sum(),
            last_p: self.last_p,
            measured_rho: self
                .active
                .map(|i| self.monitors[i].overall_rho())
                .unwrap_or(0.0),
            uncertain: self.monitors.iter().map(Monitor::uncertain).sum(),
        }
    }

    /// `(vantage, samples)` for every member that contributed samples to
    /// the shared test stream (handoff diagnostic), ascending by vantage.
    pub fn contributions(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.vantages
            .iter()
            .copied()
            .zip(self.contributed.iter().copied())
            .filter(|&(_, n)| n > 0)
    }

    /// Recomputes the active vantage from a geometry snapshot: the in-range
    /// vantage closest to the tagged node. Exact-distance ties go to the
    /// lowest node id (snapshots are ascending by id), so the election is
    /// deterministic.
    fn reelect_from(&mut self, ranging: &[(NodeId, f64)]) {
        let mut best: Option<(usize, f64)> = None;
        for &(v, d) in ranging {
            if d > self.tx_range {
                continue;
            }
            let Some(i) = self.index_of(v) else { continue };
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        self.active = best.map(|(i, _)| i);
        // Keep the elected monitor's region model honest about the distance.
        if let Some((i, d)) = best {
            self.monitors[i].update_pair_distance(d.max(1.0));
        }
    }

    /// The current tagged→member distances as an [`Obs::Ranging`] event,
    /// ascending by node id — the projection a live adapter records or
    /// feeds before each tagged RTS. The distances are written into `to`.
    fn ranging_snapshot(&self, medium: &Medium, at: SimTime, mut to: Distances) -> Obs {
        let tp = medium.position(self.tagged);
        to.clear();
        to.extend(
            self.vantages
                .iter()
                .map(|&v| (v, tp.distance(medium.position(v)))),
        );
        Obs::Ranging { from: self.tagged, to, at }
    }

    /// Drains every member, keeps the active member's fresh samples and
    /// judges every full batch — the only place the detector runs a
    /// hypothesis test.
    fn harvest(&mut self) {
        for (i, m) in self.monitors.iter_mut().enumerate() {
            let fresh = m.drain_samples();
            // Samples from inactive vantages (every vantage, while none is
            // in range) are dropped here so they never leak into a later
            // harvest.
            if Some(i) == self.active {
                self.contributed[i] += fresh.len();
                self.samples.extend(fresh);
            }
        }
        while self.samples.len() >= self.sample_size {
            let (xs, ys) = (&mut self.xs, &mut self.ys);
            xs.clear();
            ys.clear();
            for (x, y) in self.samples.drain(..self.sample_size) {
                xs.push(x);
                ys.push(y);
            }
            let r = self.rank_sum.test(ys, xs, Alternative::Less);
            let reject = r.p_value < ALPHA;
            self.tests_run += 1;
            self.rejections += usize::from(reject);
            self.last_p = Some(r.p_value);
            self.tracer.emit(
                self.last_seen.as_nanos(),
                Some(self.tagged),
                EventKind::MonitorTest { p: r.p_value, reject },
            );
            self.metrics.bump(self.tagged, Counter::MonitorTests);
            if self.emit_deltas {
                self.deltas.push(DiagnosisDelta::TestFired {
                    result: r,
                    reject,
                    at: self.last_seen,
                });
            }
        }
    }
}

impl ObsSink for MonitorPool {
    /// The pool's single entry point. Vantage-specific events route to the
    /// member stationed there; [`Obs::Ranging`] snapshots are stored and
    /// applied at the next tagged-RTS decode, *after* the member consumed
    /// the frame — the same order a live world's callbacks produce — so the
    /// sample extracted for that RTS uses the pre-hand-off distance.
    fn ingest(&mut self, obs: &Obs) {
        let at = match obs {
            Obs::Ranging { from, to, .. } => {
                if *from == self.tagged {
                    let last = self.last_ranging.get_or_insert_with(Distances::new);
                    last.clear();
                    last.extend(to.iter().copied());
                }
                return;
            }
            Obs::ChannelEdge { node, .. } => *node,
            Obs::TxStart { src, .. } => *src,
            Obs::Decoded { at, .. } | Obs::Garbled { at, .. } => *at,
        };
        if let Some(i) = self.index_of(at) {
            let m = &mut self.monitors[i];
            m.ingest(obs);
            m.take_deltas_into(&mut self.deltas);
        }
        if let Obs::Decoded { frame, end, .. } = obs {
            if frame.src == self.tagged && frame.is_rts() {
                self.last_seen = *end;
                if let Some(r) = self.last_ranging.take() {
                    self.reelect_from(&r);
                    self.last_ranging = Some(r);
                }
                self.harvest();
            }
        }
    }
}

/// Thin world→[`Obs`] projection. The only medium access left in the
/// detection layer lives here: a geometry snapshot taken right before each
/// tagged RTS is handed down, which is also exactly what a recorder writes
/// to a journal — live and replayed pools traverse the same `ingest` path.
impl NetObserver for MonitorPool {
    fn on_channel_edge(&mut self, node: NodeId, busy: bool, now: SimTime) {
        self.ingest(&Obs::ChannelEdge { node, busy, at: now });
    }

    fn on_tx_start(&mut self, src: NodeId, frame: &Frame, now: SimTime, end: SimTime) {
        self.ingest(&Obs::TxStart { src, frame: *frame, at: now, end });
    }

    fn on_frame_decoded(
        &mut self,
        medium: &Medium,
        at: NodeId,
        frame: &Frame,
        start: SimTime,
        end: SimTime,
    ) {
        if frame.src == self.tagged && frame.is_rts() {
            let buf = std::mem::take(&mut self.ranging_buf);
            let ranging = self.ranging_snapshot(medium, start, buf);
            self.ingest(&ranging);
            if let Obs::Ranging { to, .. } = ranging {
                self.ranging_buf = to;
            }
        }
        self.ingest(&Obs::Decoded { at, frame: *frame, start, end });
    }

    fn on_frame_garbled(&mut self, at: NodeId, now: SimTime) {
        self.ingest(&Obs::Garbled { at, now });
    }
}

impl std::fmt::Debug for MonitorPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorPool")
            .field("tagged", &self.tagged)
            .field("members", &self.vantages)
            .field("active", &self.active_vantage())
            .field("tests", &self.tests_run)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::tests::{accepted, rts_frame, run_deltas};
    use mg_dcf::MacTiming;
    use mg_sim::SimDuration;

    fn template() -> MonitorConfig {
        MonitorConfig {
            sample_size: 5,
            ..MonitorConfig::grid_paper(0, 1, 240.0)
        }
    }

    /// A saturated tagged sender (`0`) whose back-off windows each hold one
    /// busy run of background traffic at the vantage (`1`), so the window
    /// estimate depends on the region geometry. Before its `i`-th RTS comes
    /// the ranging snapshot a recorder writes, placing the vantage at
    /// `distance(i)`.
    fn busy_window_stream(count: usize, distance: impl Fn(usize) -> f64) -> Vec<Obs> {
        let t = MacTiming::paper_default();
        let idle = t.difs() + t.slot * 40;
        let mut now = SimTime::ZERO;
        let mut stream = Vec::new();
        for i in 0..count {
            let busy_at = now + idle;
            now = busy_at + SimDuration::from_micros(300);
            stream.push(Obs::ChannelEdge { node: 1, busy: true, at: busy_at });
            stream.push(Obs::ChannelEdge { node: 1, busy: false, at: now });
            now += idle;
            let end = now + t.rts_airtime();
            let to = [(1, distance(i))].into_iter().collect();
            stream.push(Obs::Ranging { from: 0, to, at: now });
            stream.push(Obs::ChannelEdge { node: 1, busy: true, at: now });
            let frame = rts_frame(i as u64, 1, i as u64);
            stream.push(Obs::Decoded { at: 1, frame, start: now, end });
            stream.push(Obs::ChannelEdge { node: 1, busy: false, at: end });
            now = end;
        }
        stream
    }

    /// A member moved from 240 m to 120 m by the hand-off election samples
    /// every later window exactly as a member that was always at 120 m: its
    /// geometry, computed at 240 m for the earlier windows, is not reused.
    #[test]
    fn moved_member_samples_as_if_built_at_its_new_distance() {
        let (d1, d2, moved_at) = (240.0, 120.0, 6);
        let run = |built_at: f64, distance: &dyn Fn(usize) -> f64| {
            let pool = MonitorPool::new(0, &[1], template().with_pair_distance(built_at));
            let (pool, deltas) = run_deltas(pool, &busy_window_stream(16, distance));
            (pool, accepted(&deltas))
        };
        let (moved, a) = run(d1, &|i| if i < moved_at { d1 } else { d2 });
        let (fixed, b) = run(d2, &|_| d2);
        assert_eq!(a.len(), 15);
        assert_eq!(b.len(), 15);
        let model = |p: &MonitorPool| p.monitor(1).expect("member").model();
        assert_eq!(model(&moved), model(&fixed));
        // The RTS that carries the first 120 m snapshot is sampled at the
        // pre-hand-off distance; every window after it is at 120 m.
        let bits = |s: &[(f64, f64)]| {
            s.iter().map(|&(x, y)| (x.to_bits(), y.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(bits(&a[moved_at..]), bits(&b[moved_at..]));
        assert_ne!(bits(&a[..moved_at]), bits(&b[..moved_at]));
    }

    /// Samples a member extracts while no member is in range are dropped at
    /// that RTS's harvest: they never join the batch of a later election.
    #[test]
    fn samples_taken_while_no_member_is_active_never_join_a_later_batch() {
        let elected_at = 8;
        let stream = busy_window_stream(16, |i| if i < elected_at { 800.0 } else { 120.0 });
        let (pool, deltas) = run_deltas(MonitorPool::new(0, &[1], template()), &stream);
        // Windows 1..16 each yield a sample; only those from the electing
        // RTS on reach the pool.
        assert_eq!(accepted(&deltas).len(), 15);
        assert_eq!(pool.contributions().collect::<Vec<_>>(), vec![(1, 16 - elected_at)]);
        let d = pool.diagnosis();
        assert_eq!((d.tests_run, d.samples_collected), (1, 16 - elected_at), "{d:?}");
    }

    /// A one-member pool stands at its configured distance until a snapshot
    /// says otherwise, so a stream without snapshots judges what the same
    /// stream with snapshots at that distance does.
    #[test]
    fn lone_member_is_elected_without_a_snapshot() {
        let full = busy_window_stream(16, |_| 240.0);
        let bare: Vec<Obs> = full
            .iter()
            .filter(|o| !matches!(o, Obs::Ranging { .. }))
            .cloned()
            .collect();
        let (a, with) = run_deltas(MonitorPool::new(0, &[1], template()), &full);
        let (b, without) = run_deltas(MonitorPool::new(0, &[1], template()), &bare);
        assert_eq!(with, without);
        assert_eq!(a.diagnosis(), b.diagnosis());
        assert_eq!(b.diagnosis().tests_run, 3, "{:?}", b.diagnosis());
    }

    #[test]
    fn elects_closest_in_range_vantage() {
        let mut pool = MonitorPool::new(0, &[1, 2], template());
        pool.reelect_from(&[(1, 100.0), (2, 240.0)]);
        assert_eq!(pool.active_vantage(), Some(1));
    }

    #[test]
    fn hands_off_when_closest_leaves_range() {
        let mut pool = MonitorPool::new(0, &[1, 2], template());
        pool.reelect_from(&[(1, 100.0), (2, 240.0)]);
        assert_eq!(pool.active_vantage(), Some(1));
        // Vantage 1 wanders out of range.
        pool.reelect_from(&[(1, 800.0), (2, 240.0)]);
        assert_eq!(pool.active_vantage(), Some(2));
        // Everyone out of range: no active vantage.
        pool.reelect_from(&[(1, 800.0), (2, 900.0)]);
        assert_eq!(pool.active_vantage(), None);
    }

    #[test]
    fn exact_distance_ties_elect_the_lowest_id() {
        let mut pool = MonitorPool::new(0, &[5, 2, 9], template());
        pool.reelect_from(&[(2, 150.0), (5, 150.0), (9, 150.0)]);
        assert_eq!(pool.active_vantage(), Some(2));
    }

    #[test]
    fn ranging_without_a_decode_does_not_reelect() {
        let mut pool = MonitorPool::new(0, &[1], template());
        pool.ingest(&Obs::Ranging {
            from: 0,
            to: [(1, 100.0)].into_iter().collect(),
            at: SimTime::ZERO,
        });
        // The election is deferred to the next tagged-RTS decode, matching
        // live callback order.
        assert_eq!(pool.active_vantage(), None);
    }

    #[test]
    #[should_panic(expected = "cannot monitor itself")]
    fn tagged_vantage_rejected() {
        MonitorPool::new(0, &[0, 1], template());
    }

    #[test]
    fn empty_pool_rejected() {
        let r = std::panic::catch_unwind(|| MonitorPool::new(0, &[], template()));
        assert!(r.is_err());
    }

    #[test]
    fn diagnosis_starts_clean() {
        let pool = MonitorPool::new(0, &[1, 2], template());
        let d = pool.diagnosis();
        assert_eq!(d, Diagnosis::default());
        assert!(!d.is_flagged());
    }

    #[test]
    fn members_report_in_ascending_vantage_order() {
        // Vantage 5 witnesses sequence reuse first; vantage 2 witnesses an
        // attempt mismatch later. Members list in ascending vantage order
        // whatever the construction order; the deltas keep emission order.
        let air = MacTiming::paper_default().rts_airtime();
        let rts = |at: NodeId, seq: u64, pkt: u64, ms: u64| {
            let start = SimTime::from_millis(ms);
            Obs::Decoded { at, frame: rts_frame(seq, 1, pkt), start, end: start + air }
        };
        let stream = [
            rts(5, 5, 0, 100),
            rts(5, 5, 1, 120),
            rts(2, 0, 7, 140),
            rts(2, 1, 7, 160),
        ];
        let run = |vantages: &[NodeId]| {
            let (pool, deltas) = run_deltas(MonitorPool::new(0, vantages, template()), &stream);
            let members: Vec<(NodeId, usize)> = pool
                .vantages()
                .map(|v| (v, pool.monitor(v).expect("member").violations()))
                .collect();
            let flagged: Vec<(NodeId, &str)> = deltas
                .iter()
                .filter_map(|d| match d {
                    DiagnosisDelta::ViolationFlagged { vantage, violation } => {
                        Some((*vantage, violation.kind_str()))
                    }
                    _ => None,
                })
                .collect();
            (members, flagged)
        };
        let (members, flagged) = run(&[5, 2, 9]);
        assert_eq!(members, vec![(2, 1), (5, 1), (9, 0)]);
        assert_eq!(flagged, vec![(5, "sequence_reuse"), (2, "attempt_mismatch")]);
        assert_eq!(run(&[9, 5, 2, 5]), (members, flagged));
    }
}
