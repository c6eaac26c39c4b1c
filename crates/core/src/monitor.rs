//! The per-vantage sample extractor and deterministic checker.
//!
//! A [`Monitor`] sits at a *vantage* node and watches one *tagged* neighbor
//! on behalf of the [`MonitorPool`](crate::MonitorPool) that owns it,
//! consuming exactly what a real co-located process could observe:
//!
//! * the vantage node's own carrier-sense edges (busy/idle),
//! * frames decodable at the vantage (including the tagged node's RTSs with
//!   their verifiable fields),
//! * the vantage node's own transmissions,
//! * garbled receptions (for the collision-rate / density estimate).
//!
//! From this it reconstructs, for every RTS the tagged node sends, the
//! **back-off window** that preceded it — anchored at the end of the tagged
//! node's previous exchange (or at its CTS timeout for a retry) — and
//! converts the vantage's idle/busy slot counts in that window into an
//! *estimated* count of slots the tagged node could have decremented
//! (Eqs. 1–5). The `(dictated, estimated)` pairs go to the pool, which
//! tests them against each other with a one-sided Wilcoxon rank-sum test.
//!
//! Five deterministic checks run alongside (Section 4 of the paper, plus
//! two this reproduction added): sequence-offset commitment, rate
//! feasibility of offset advances, attempt-number/MD5 consistency, the
//! "blatant" timing check — a window physically shorter than
//! `DIFS + dictated·slot` cannot be produced by a compliant node, because
//! freezing only ever lengthens the countdown — and the basic-access
//! evasion check (unannounced DATA).

use crate::analysis::AnalyticModel;
use crate::channel::ChannelTracker;
use crate::density::DensityEstimator;
use crate::session::DiagnosisDelta;
use crate::NodeId;
use mg_dcf::{Dest, Frame, FrameKind, MacTiming};
use mg_crypto::VerifiableSequence;
use mg_fault::{FrameFate, ObsFaults};
use mg_obs::{Obs, ObsSink};
use mg_geom::{PreclusionRule, RegionModel};
use mg_sim::{SimDuration, SimTime};
use mg_trace::{Counter, EventKind, Metrics, Tracer};
use mg_stats::filter::Arma;

/// How the monitor obtains the node counts (n, k, m, j) of the analytic
/// model.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum NodeCounts {
    /// The paper's grid setting: n = k = m = j = 5, fixed.
    FixedPaper,
    /// Effective counts calibrated to this repository's simulator
    /// (`n + k = 1`): carrier sense serializes contenders inside one
    /// region, so the paper's independent-queue assumption overcounts
    /// concurrent transmitters. See EXPERIMENTS.md (Fig. 3 calibration).
    SimCalibrated,
    /// Estimate counts online from the Bianchi–Tinnirello density estimate
    /// (the paper's random-topology setting).
    FromDensity,
}

/// ARMA moving-average window `s`, in slots.
const ARMA_WINDOW: usize = 1000;

/// Slack (slots) before the blatant check fires.
const BLATANT_TOLERANCE: f64 = 2.0;

/// Estimated windows above `cw_max ×` this factor are discarded as
/// queue-idle contamination.
const DISCARD_FACTOR: f64 = 1.5;

/// After not hearing the tagged node for this long (mobility, deep fades),
/// the monitor re-synchronizes: sequence bookkeeping resets and the first
/// window after the gap yields no sample — the unobserved stretch may span
/// sequence wraps and queue-idle time.
const RESYNC_AFTER: SimDuration = SimDuration::from_secs(2);

/// A deterministically proven protocol violation.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Violation {
    /// The announced sequence offset did not move forward.
    SequenceReuse {
        /// Last logical offset the monitor verified.
        previous: u64,
        /// The offense.
        seen: u64,
        /// When it was observed.
        at: SimTime,
    },
    /// A retransmission of the same DATA frame (same MD5) without
    /// incrementing the attempt number — the attempt-cheating attack.
    AttemptMismatch {
        /// Attempt number announced for the previous copy.
        previous: u8,
        /// Attempt number announced now.
        seen: u8,
        /// When it was observed.
        at: SimTime,
    },
    /// The announced sequence offset advanced further than the channel
    /// physically allows: each draw costs at least one DIFS + RTS airtime,
    /// so a wire-offset jump can be checked against the elapsed time. This
    /// is what exposes "rewinding" the 13-bit counter (a rewind is
    /// indistinguishable from a wrap *except* by rate).
    ImplausibleAdvance {
        /// Claimed number of draws consumed.
        jump: u64,
        /// Maximum draws the elapsed time permits.
        feasible: u64,
        /// When it was observed.
        at: SimTime,
    },
    /// The tagged node keeps sending unicast DATA without a preceding RTS —
    /// bypassing the verifiable-back-off announcements entirely (legacy
    /// basic access is not allowed by the paper's modified MAC).
    UnverifiedData {
        /// DATA frames observed with no RTS announcing them.
        unverified: u64,
        /// All unicast DATA frames observed from the tagged node.
        total: u64,
        /// When the threshold was crossed.
        at: SimTime,
    },
    /// The back-off window was physically shorter than the dictated
    /// countdown could ever be (freezing only lengthens it).
    BlatantCountdown {
        /// The dictated back-off in slots.
        dictated: u16,
        /// Total observed window length, in slots.
        observed_slots: f64,
        /// When it was observed.
        at: SimTime,
    },
}

impl Violation {
    /// When the violation was observed.
    pub fn at(&self) -> SimTime {
        match *self {
            Violation::SequenceReuse { at, .. }
            | Violation::AttemptMismatch { at, .. }
            | Violation::ImplausibleAdvance { at, .. }
            | Violation::UnverifiedData { at, .. }
            | Violation::BlatantCountdown { at, .. } => at,
        }
    }

    /// Stable snake_case tag for this violation kind (used in trace output).
    pub fn kind_str(&self) -> &'static str {
        match self {
            Violation::SequenceReuse { .. } => "sequence_reuse",
            Violation::AttemptMismatch { .. } => "attempt_mismatch",
            Violation::ImplausibleAdvance { .. } => "implausible_advance",
            Violation::UnverifiedData { .. } => "unverified_data",
            Violation::BlatantCountdown { .. } => "blatant_countdown",
        }
    }
}

/// Monitor configuration.
#[derive(Clone, Copy, Debug)]
pub struct MonitorConfig {
    /// The node under observation.
    pub tagged: NodeId,
    /// The observing node.
    pub vantage: NodeId,
    /// Distance between the pair in meters (drives the region model).
    pub pair_distance: f64,
    /// Carrier-sensing range (Table 1: 550 m).
    pub cs_range: f64,
    /// Transmission range (Table 1: 250 m) — used by the density estimate.
    pub tx_range: f64,
    /// Back-off samples per pool hypothesis test (the paper sweeps 10–100).
    pub sample_size: usize,
    /// ARMA smoothing α (paper: 0.995).
    pub arma_alpha: f64,
    /// Construction of the preclusion zones A1/A4.
    pub preclusion: PreclusionRule,
    /// Source of the analytic node counts.
    pub counts: NodeCounts,
    /// MAC timing (slot, DIFS, airtimes…).
    pub timing: MacTiming,
    /// Whether the deterministic timing check runs.
    pub blatant_check: bool,
    /// Weight of the EIFS compensation: after a collision in its airspace a
    /// node defers EIFS instead of DIFS, adding idle time that is not a
    /// decrement. Each garbled reception *at the vantage* during a window
    /// subtracts `(EIFS − DIFS) × eifs_weight` slots from the estimate
    /// (the weight discounts collisions the tagged node did not perceive).
    pub eifs_weight: f64,
}

impl MonitorConfig {
    /// The paper's grid-experiment configuration for a tagged pair at the
    /// given distance.
    pub fn grid_paper(tagged: NodeId, vantage: NodeId, pair_distance: f64) -> Self {
        MonitorConfig {
            tagged,
            vantage,
            pair_distance,
            cs_range: 550.0,
            tx_range: 250.0,
            sample_size: 50,
            arma_alpha: 0.995,
            preclusion: PreclusionRule::sim_calibrated(),
            counts: NodeCounts::SimCalibrated,
            timing: MacTiming::paper_default(),
            blatant_check: true,
            eifs_weight: 0.5,
        }
    }

    /// The random-topology configuration: node counts from the online
    /// density estimate.
    pub fn random_paper(tagged: NodeId, vantage: NodeId, pair_distance: f64) -> Self {
        MonitorConfig {
            counts: NodeCounts::FromDensity,
            ..Self::grid_paper(tagged, vantage, pair_distance)
        }
    }

    /// This configuration with `sample_size` replaced — the knob sample-size
    /// sweeps turn while everything else stays fixed.
    pub fn with_sample_size(self, sample_size: usize) -> Self {
        MonitorConfig { sample_size, ..self }
    }

    /// This configuration with the tagged→vantage distance replaced.
    pub fn with_pair_distance(self, pair_distance: f64) -> Self {
        MonitorConfig { pair_distance, ..self }
    }
}

/// Aggregate outcome of a monitoring session.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Diagnosis {
    /// Hypothesis tests performed.
    pub tests_run: usize,
    /// Tests that rejected H0 ("well-behaved").
    pub rejections: usize,
    /// Deterministic violations recorded.
    pub violations: usize,
    /// Back-off samples collected (post-filtering).
    pub samples_collected: usize,
    /// Samples discarded as queue-idle contaminated.
    pub samples_discarded: usize,
    /// p-value of the most recent test.
    pub last_p: Option<f64>,
    /// The monitor's measured traffic intensity ρ (busy fraction).
    pub measured_rho: f64,
    /// Anomalous observations held back below the confirmation threshold:
    /// the deterministic checks fired but the observation could not be
    /// trusted, so no conviction was recorded and no sample was taken from
    /// it. Only a monitor that perceives the world through an observation
    /// fault injector has a threshold above one (see [`Monitor`]).
    pub uncertain: usize,
}

impl Diagnosis {
    /// Whether the tagged node has been flagged (statistically or
    /// deterministically).
    pub fn is_flagged(&self) -> bool {
        self.rejections > 0 || self.violations > 0
    }

    /// Fraction of tests that rejected H0.
    pub fn rejection_rate(&self) -> f64 {
        if self.tests_run == 0 {
            0.0
        } else {
            self.rejections as f64 / self.tests_run as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct RtsRecord {
    logical: u64,
    attempt: u8,
    md: [u8; 16],
    /// When this RTS ended (reference point for the rate-feasibility check).
    at: SimTime,
}

/// The per-vantage monitor (see module docs). Members live inside a
/// [`MonitorPool`](crate::MonitorPool), which feeds them through
/// [`ObsSink::ingest`] and judges their samples; reach one through
/// [`MonitorPool::monitor`](crate::MonitorPool::monitor).
///
/// A monitor keeps counts, not logs: its samples, violations and
/// uncertain observations are journaled as they happen (trace records and
/// [`DiagnosisDelta`]s) and only counted here, so its state does not grow
/// with observed time.
///
/// Under injected observation faults a single bit-flipped RTS can *look*
/// like sequence reuse, so a monitor holding a fault injector convicts only
/// on two consecutive anomalous observations: an isolated anomaly is
/// recorded as *uncertain* (its sample withheld, the statistical path
/// untouched). Without an injector every anomaly convicts at once, the
/// paper's behavior on a clean channel.
pub struct Monitor {
    cfg: MonitorConfig,
    prs: VerifiableSequence,
    chan: ChannelTracker,
    rho_filter: Arma,
    /// The A1–A5 geometry at `cfg.pair_distance`: computed when the first
    /// back-off window closes, and again only after the distance changes.
    regions: Option<RegionModel>,
    /// Cumulative busy/idle time inside back-off windows (background-only
    /// traffic; the tagged node never transmits during its own back-off).
    win_busy_total: u64,
    win_idle_total: u64,
    density: DensityEstimator,

    anchor: Option<SimTime>,
    win: Option<ChannelTracker>,
    last_rts: Option<RtsRecord>,
    /// Garbled receptions heard at the vantage, total and at window open.
    garbles_total: u64,
    garbles_at_window_open: u64,
    /// Last instant any frame from the tagged node was decoded.
    last_tagged_seen: Option<SimTime>,
    /// RTS-before-DATA bookkeeping for the basic-access evasion check.
    rts_pending: bool,
    data_seen: u64,
    data_unverified: u64,
    unverified_flagged: bool,

    /// Collected (dictated, estimated) back-off pairs the pool has not
    /// drained yet.
    pending: Vec<(f64, f64)>,
    violations: usize,
    /// The current tagged RTS's anomalies, before the confirmation gate
    /// rules on them (empty between RTSs; kept for its storage).
    anomalies: Vec<Violation>,
    discarded: usize,
    /// Observation-boundary fault injector (chaos testing). The world is
    /// unchanged — only what this monitor perceives.
    faults: Option<ObsFaults>,
    /// Consecutive anomalous observations (feeds the confirmation gate).
    anomaly_streak: usize,
    uncertain: usize,
    /// Whether the latest observation left the monitor in the uncertain
    /// regime (an unconfirmed anomaly) — drives the
    /// [`DiagnosisDelta::UncertaintyEntered`]/`Left` transitions.
    in_uncertain: bool,
    /// Incremental delta buffer, drained by [`crate::DetectorSession`].
    /// Disabled (and empty) by default so batch-driven monitors pay nothing.
    emit_deltas: bool,
    deltas: Vec<DiagnosisDelta>,
    tracer: Tracer,
    metrics: Metrics,
}

impl Monitor {
    /// Creates a monitor for `cfg.tagged`, observing from `cfg.vantage`.
    pub(crate) fn new(cfg: MonitorConfig) -> Self {
        Monitor {
            prs: VerifiableSequence::new(cfg.tagged as u64),
            chan: ChannelTracker::new(),
            rho_filter: Arma::new(cfg.arma_alpha, ARMA_WINDOW),
            regions: None,
            win_busy_total: 0,
            win_idle_total: 0,
            density: DensityEstimator::new(cfg.timing.cw_min, 5),
            anchor: None,
            win: None,
            last_rts: None,
            garbles_total: 0,
            garbles_at_window_open: 0,
            last_tagged_seen: None,
            rts_pending: false,
            data_seen: 0,
            data_unverified: 0,
            unverified_flagged: false,
            pending: Vec::new(),
            violations: 0,
            anomalies: Vec::new(),
            discarded: 0,
            faults: None,
            anomaly_streak: 0,
            uncertain: 0,
            in_uncertain: false,
            emit_deltas: false,
            deltas: Vec::new(),
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
            cfg,
        }
    }

    /// Journals this monitor's samples, tests, and violations through
    /// `tracer` and counts them into `metrics` (node-scoped to the tagged
    /// node). Both disabled by default.
    pub(crate) fn set_instrumentation(&mut self, tracer: Tracer, metrics: Metrics) {
        self.tracer = tracer;
        self.metrics = metrics;
    }

    /// The configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// Internal mobility path: the pool's hand-off election updates the
    /// elected member's region model through here, on every tagged RTS.
    /// The geometry is recomputed only if the distance really changed.
    pub(crate) fn update_pair_distance(&mut self, d: f64) {
        if d.to_bits() != self.cfg.pair_distance.to_bits() {
            self.cfg.pair_distance = d;
            self.regions = None;
        }
    }

    /// Installs the observation-boundary fault injector. Faults apply to
    /// what *this monitor perceives* — dropped frames never reach its
    /// estimators, corrupted tagged RTSs arrive with commitment bits flipped
    /// — while the simulated world runs unchanged. `None` observes
    /// faithfully. An injector also raises the confirmation threshold to
    /// two (see [`Monitor`]).
    pub(crate) fn install_faults(&mut self, faults: Option<ObsFaults>) {
        self.faults = faults;
    }

    /// Switches the monitor onto the incremental path: every state change is
    /// additionally journaled as a [`DiagnosisDelta`]. Emission is purely
    /// additive — the detector's decisions and snapshots are bit-identical
    /// with or without it.
    pub(crate) fn enable_deltas(&mut self) {
        self.emit_deltas = true;
    }

    /// Moves the accumulated deltas (in emission order) into `out`.
    pub(crate) fn take_deltas_into(&mut self, out: &mut Vec<DiagnosisDelta>) {
        out.append(&mut self.deltas);
    }

    #[inline]
    fn delta(&mut self, d: DiagnosisDelta) {
        if self.emit_deltas {
            self.deltas.push(d);
        }
    }

    /// Deterministic violations recorded so far.
    pub fn violations(&self) -> usize {
        self.violations
    }

    /// Estimated windows discarded as queue-idle contaminated.
    pub fn discarded(&self) -> usize {
        self.discarded
    }

    /// Anomalous observations held below the confirmation threshold
    /// (see [`Diagnosis::uncertain`]).
    pub fn uncertain(&self) -> usize {
        self.uncertain
    }

    /// Removes and returns the samples the pool has not drained yet.
    pub(crate) fn drain_samples(&mut self) -> std::vec::Drain<'_, (f64, f64)> {
        self.pending.drain(..)
    }

    /// The ARMA-smoothed **background** traffic intensity: slot samples come
    /// from back-off windows only, during which the tagged node is silent —
    /// the intensity the analytic model's queue-occupancy terms need. Falls
    /// back to the cumulative window busy fraction until the filter warms up.
    pub fn rho(&self) -> f64 {
        if self.rho_filter.is_warm() {
            self.rho_filter.value()
        } else {
            let total = self.win_busy_total + self.win_idle_total;
            if total == 0 {
                0.0
            } else {
                self.win_busy_total as f64 / total as f64
            }
        }
    }

    /// The overall busy fraction at the vantage (includes the tagged node's
    /// own transmissions) — the paper's headline "load" axis.
    pub fn overall_rho(&self) -> f64 {
        self.chan.rho()
    }

    /// The analytic model the monitor currently applies.
    pub fn model(&self) -> AnalyticModel {
        self.model_over(self.regions.unwrap_or_else(|| Self::regions_for(&self.cfg)))
    }

    /// The A1–A5 geometry `cfg` calls for at its pair distance.
    fn regions_for(cfg: &MonitorConfig) -> RegionModel {
        let d = cfg.pair_distance;
        let rule = match cfg.counts {
            // Distance-scaled calibration: the closer the pair, the more
            // their channel views coincide (see PreclusionRule docs).
            NodeCounts::SimCalibrated => PreclusionRule::sim_calibrated_for(d),
            _ => cfg.preclusion,
        };
        RegionModel::new(d, cfg.cs_range, rule)
    }

    /// The model over `regions`, with node counts from the configured
    /// source; [`NodeCounts::FromDensity`] reads the density estimate as it
    /// stands now.
    fn model_over(&self, regions: RegionModel) -> AnalyticModel {
        match self.cfg.counts {
            NodeCounts::FixedPaper => AnalyticModel::uniform_counts(regions, 5.0),
            NodeCounts::SimCalibrated => AnalyticModel::uniform_counts(regions, 0.5),
            NodeCounts::FromDensity => AnalyticModel::density_counts(
                regions,
                self.density.density(self.cfg.tx_range),
            ),
        }
    }

    // ------------------------------------------------------------------

    /// Records a violation: journal and count.
    fn flag(&mut self, v: Violation) {
        self.tracer.emit(
            v.at().as_nanos(),
            Some(self.cfg.tagged),
            EventKind::MonitorViolation { kind: v.kind_str() },
        );
        self.metrics.bump(self.cfg.tagged, Counter::MonitorViolations);
        self.delta(DiagnosisDelta::ViolationFlagged {
            vantage: self.cfg.vantage,
            violation: v,
        });
        self.violations += 1;
    }

    /// Records an anomaly held below the confirmation threshold: journaled
    /// and counted as uncertain, but never convicting.
    fn note_uncertain(&mut self, v: Violation) {
        self.tracer.emit(
            v.at().as_nanos(),
            Some(self.cfg.tagged),
            EventKind::MonitorUncertain { kind: v.kind_str() },
        );
        self.metrics.bump(self.cfg.tagged, Counter::MonitorUncertain);
        self.delta(DiagnosisDelta::ObservationUncertain {
            vantage: self.cfg.vantage,
            kind: v.kind_str(),
            at: v.at(),
        });
        self.uncertain += 1;
    }

    fn slot_ns(&self) -> f64 {
        self.cfg.timing.slot.as_nanos() as f64
    }

    fn difs_slots(&self) -> f64 {
        self.cfg.timing.difs().as_nanos() as f64 / self.slot_ns()
    }

    /// Opens a fresh back-off window anchored at `anchor`.
    fn open_window(&mut self, anchor: SimTime) {
        self.anchor = Some(anchor);
        self.win = Some(self.chan.fork_at(anchor));
        self.garbles_at_window_open = self.garbles_total;
    }

    /// Handles an RTS from the tagged node (decoded at the vantage), on air
    /// over `[start, end]`.
    fn on_tagged_rts(&mut self, fields: &mg_dcf::RtsFields, start: SimTime, end: SimTime) {
        let timing = self.cfg.timing;
        // Contact-gap handling: after a long silence the previous sequence
        // state and window anchor are unreliable — reset both and collect no
        // sample from this transmission.
        let stale = self
            .last_tagged_seen
            .map(|t| end.saturating_since(t) > RESYNC_AFTER)
            .unwrap_or(false);
        if stale {
            self.last_rts = None;
            self.anchor = None;
            self.win = None;
        }
        self.last_tagged_seen = Some(end);
        // 1. Reconstruct the logical sequence offset and run the
        //    deterministic commitment checks. Anomalies are *collected*
        //    here and only convict at the commit step below, once the
        //    confirmation gate has ruled on how trustworthy this
        //    observation is.
        let mut anomalies = std::mem::take(&mut self.anomalies);
        let logical = match self.last_rts {
            None => u64::from(fields.seq_off_wire),
            Some(prev) => {
                let logical =
                    VerifiableSequence::unwrap_offset(fields.seq_off_wire, prev.logical);
                if logical <= prev.logical {
                    anomalies.push(Violation::SequenceReuse {
                        previous: prev.logical,
                        seen: logical,
                        at: end,
                    });
                }
                // Rate feasibility: every draw costs at least DIFS + the RTS
                // airtime of wall-clock, so the offset cannot have advanced
                // faster than that since the RTS that established the
                // previous offset. A "rewound" 13-bit counter shows up as a
                // wrap the elapsed time cannot accommodate.
                {
                    let jump = logical.saturating_sub(prev.logical);
                    let min_draw = timing.difs() + timing.rts_airtime();
                    let feasible =
                        end.saturating_since(prev.at).div_periods(min_draw) + 2;
                    if jump > feasible {
                        anomalies.push(Violation::ImplausibleAdvance {
                            jump,
                            feasible,
                            at: end,
                        });
                    }
                }
                if fields.md == prev.md && fields.attempt <= prev.attempt {
                    // Same DATA frame re-announced without bumping the
                    // attempt: the CW-widening dodge.
                    anomalies.push(Violation::AttemptMismatch {
                        previous: prev.attempt,
                        seen: fields.attempt,
                        at: end,
                    });
                }
                logical
            }
        };
        let dictated = self
            .prs
            .backoff(logical, fields.attempt.max(1), timing.cw_min, timing.cw_max);

        // 2. Close the current back-off window and extract a sample. The
        //    channel-view bookkeeping (ρ filter, window totals) always runs
        //    — the vantage really observed that idle/busy time — but the
        //    sample itself is only *committed* for trusted observations.
        let mut sample: Option<(f64, f64)> = None;
        let closed = match (self.anchor, self.win.as_mut()) {
            (Some(anchor), Some(win)) if start > anchor => {
                win.advance(start);
                Some((win.idle_time(), win.busy_time(), win.busy_runs()))
            }
            _ => None,
        };
        if let Some((idle_t, busy_t, busy_runs)) = closed {
            {
                let slot = self.slot_ns();
                let idle = idle_t.as_nanos() as f64 / slot;
                let busy = busy_t.as_nanos() as f64 / slot;
                // ρ for THIS window uses the estimate as of before it (Eq. 6
                // is causal); the window then feeds the filter.
                let rho = self.rho();
                self.rho_filter.push_n(1.0, busy as u64);
                self.rho_filter.push_n(0.0, idle as u64);
                self.win_busy_total += busy_t.as_nanos();
                self.win_idle_total += idle_t.as_nanos();
                let total = idle + busy;
                let difs = self.difs_slots();

                // Deterministic timing check: a compliant countdown takes at
                // least DIFS + dictated slots of wall-clock, frozen or not.
                if self.cfg.blatant_check
                    && total + BLATANT_TOLERANCE < difs + f64::from(dictated.slots)
                {
                    anomalies.push(Violation::BlatantCountdown {
                        dictated: dictated.slots,
                        observed_slots: total,
                        at: end,
                    });
                }

                // Statistical sample: estimated decrementable slots. Each
                // time the tagged node froze and resumed, one extra DIFS of
                // its idle time went to deference rather than decrements;
                // the monitor's completed busy runs, weighted by P(S busy |
                // R busy) = 1 − p_{I|B}, estimate how many such episodes
                // occurred.
                let regions =
                    *self.regions.get_or_insert_with(|| Self::regions_for(&self.cfg));
                let (i_est, p_ib) = self.model_over(regions).window_estimate(rho, idle, busy);
                let resume_overhead = difs * busy_runs as f64 * (1.0 - p_ib);
                let garbles = (self.garbles_total - self.garbles_at_window_open) as f64;
                let eifs_extra_slots = (timing.eifs().as_nanos() as f64
                    - timing.difs().as_nanos() as f64)
                    / self.slot_ns();
                let eifs_overhead = eifs_extra_slots * garbles * self.cfg.eifs_weight;
                let y = (i_est - difs - resume_overhead - eifs_overhead).max(0.0);
                let x = f64::from(dictated.slots);
                if y > f64::from(timing.cw_max) * DISCARD_FACTOR {
                    self.discarded += 1;
                    self.delta(DiagnosisDelta::SampleDiscarded {
                        vantage: self.cfg.vantage,
                        at: end,
                    });
                } else {
                    sample = Some((x, y));
                }
            }
        }

        // Commit step — the confirmation gate. A clean observation resets
        // the streak; an anomalous one extends it and convicts only once
        // the streak reaches the threshold: two under a fault injector, one
        // otherwise (so every anomaly convicts immediately and the order of
        // journal events is exactly the pre-gate order).
        let trusted = if anomalies.is_empty() {
            self.anomaly_streak = 0;
            true
        } else {
            self.anomaly_streak += 1;
            let confirm = if self.faults.is_some() { 2 } else { 1 };
            self.anomaly_streak >= confirm
        };
        if trusted {
            // Leaving the uncertain regime: a clean observation resolved the
            // streak, or the streak was confirmed into convictions below.
            if self.in_uncertain {
                self.in_uncertain = false;
                self.delta(DiagnosisDelta::UncertaintyLeft {
                    vantage: self.cfg.vantage,
                    at: end,
                });
            }
            for v in anomalies.drain(..) {
                self.flag(v);
            }
            if let Some((x, y)) = sample {
                self.tracer.emit(
                    end.as_nanos(),
                    Some(self.cfg.tagged),
                    EventKind::MonitorSample { dictated: x, estimated: y },
                );
                self.metrics.bump(self.cfg.tagged, Counter::MonitorSamples);
                self.delta(DiagnosisDelta::SampleAccepted {
                    vantage: self.cfg.vantage,
                    dictated: x,
                    estimated: y,
                    at: end,
                });
                self.pending.push((x, y));
            }
        } else {
            // Below the threshold: journal the anomalies as uncertain,
            // withhold the (equally suspect) sample, and keep the previous
            // verified sequence record as the comparison point — a
            // bit-flipped offset must not poison the next check.
            if !self.in_uncertain {
                self.in_uncertain = true;
                self.delta(DiagnosisDelta::UncertaintyEntered {
                    vantage: self.cfg.vantage,
                    at: end,
                });
            }
            for v in anomalies.drain(..) {
                self.note_uncertain(v);
            }
        }
        self.anomalies = anomalies;

        // 3. Provisionally anchor the next window at this attempt's CTS
        //    timeout (corrected later if we see the DATA go through). The
        //    transmission physically happened even when its fields were
        //    untrusted, so the timing anchor always moves.
        self.open_window(end + timing.cts_timeout());
        self.rts_pending = true;
        if trusted {
            self.last_rts = Some(RtsRecord {
                logical,
                attempt: fields.attempt,
                md: fields.md,
                at: end,
            });
        }
    }

    /// Tracks the basic-access evasion check: every unicast DATA frame must
    /// have been announced by an RTS (the paper's protocol), so persistent
    /// basic-access traffic from the tagged node raises
    /// [`Violation::UnverifiedData`]. Missing a *few* RTSs to collisions is
    /// normal; missing more than half of at least ten is not.
    fn on_tagged_data(&mut self, end: SimTime) {
        self.data_seen += 1;
        if !self.rts_pending {
            self.data_unverified += 1;
        }
        self.rts_pending = false;
        if !self.unverified_flagged
            && self.data_seen >= 10
            && self.data_unverified * 2 > self.data_seen
        {
            self.unverified_flagged = true;
            self.flag(Violation::UnverifiedData {
                unverified: self.data_unverified,
                total: self.data_seen,
                at: end,
            });
        }
    }
}

impl ObsSink for Monitor {
    /// The monitor's single entry point: every event it will ever learn
    /// about arrives here as one serializable [`Obs`] — whether projected
    /// live by the pool's world adapter or replayed from a journal.
    /// Events for other vantages are ignored, so a shared stream can be fed
    /// to many monitors unchanged.
    fn ingest(&mut self, obs: &Obs) {
        match obs {
            Obs::ChannelEdge { node, busy, at } => self.obs_channel_edge(*node, *busy, *at),
            Obs::TxStart { src, at, end, .. } => self.obs_own_tx(*src, *at, *end),
            Obs::Decoded { at, frame, start, end } => {
                self.obs_decoded(*at, frame, *start, *end)
            }
            Obs::Garbled { at, .. } => self.obs_garbled(*at),
            // Geometry is a pool-level concern: the pool's hand-off
            // election updates the elected member's pair distance.
            Obs::Ranging { .. } => {}
        }
    }
}

impl Monitor {
    fn obs_channel_edge(&mut self, node: NodeId, busy: bool, now: SimTime) {
        if node != self.cfg.vantage {
            return;
        }
        self.chan.on_edge(busy, now);
        if let Some(win) = self.win.as_mut() {
            win.on_edge(busy, now);
        }
    }

    fn obs_own_tx(&mut self, src: NodeId, now: SimTime, end: SimTime) {
        if src != self.cfg.vantage {
            return;
        }
        self.chan.on_own_tx(now, end);
        if let Some(win) = self.win.as_mut() {
            win.on_own_tx(now, end);
        }
    }

    fn obs_decoded(&mut self, at: NodeId, frame: &Frame, start: SimTime, end: SimTime) {
        if at != self.cfg.vantage {
            return;
        }
        // Observation-boundary fault injection: consult the injector before
        // any estimator sees the frame. A dropped frame never reached this
        // monitor — the density estimator must not count it either.
        let mut corruption = None;
        if let Some(inj) = self.faults.as_mut() {
            let is_tagged_rts = frame.src == self.cfg.tagged && frame.is_rts();
            match inj.frame_fate(start.as_nanos(), is_tagged_rts) {
                FrameFate::Deliver => {}
                FrameFate::Drop(cause) => {
                    self.tracer.emit(
                        end.as_nanos(),
                        Some(self.cfg.vantage),
                        EventKind::FaultDrop { cause },
                    );
                    self.metrics.bump(self.cfg.vantage, Counter::FaultDrops);
                    return;
                }
                FrameFate::Corrupt(spec) => {
                    self.tracer.emit(
                        end.as_nanos(),
                        Some(self.cfg.vantage),
                        EventKind::FaultCorrupt { bits: spec.bits_flipped() },
                    );
                    self.metrics.bump(self.cfg.vantage, Counter::FaultCorruptions);
                    corruption = Some(spec);
                }
            }
        }
        self.density.on_success();
        if frame.src != self.cfg.tagged {
            return;
        }
        match &frame.kind {
            FrameKind::Rts(fields) => {
                let fields = match corruption {
                    Some(c) => {
                        fields.with_bit_flips(c.seq_xor, c.attempt_xor, c.md_index, c.md_mask)
                    }
                    None => *fields,
                };
                self.on_tagged_rts(&fields, start, end)
            }
            FrameKind::Data { .. } if frame.dst != Dest::Broadcast => {
                // The exchange went through: the tagged node's next back-off
                // begins after the closing SIFS + ACK. Re-anchor (discarding
                // the provisional CTS-timeout anchor).
                let t = self.cfg.timing;
                self.open_window(end + t.sifs + t.ack_airtime());
                self.on_tagged_data(end);
                self.last_tagged_seen = Some(end);
            }
            _ => {}
        }
    }

    fn obs_garbled(&mut self, at: NodeId) {
        if at == self.cfg.vantage {
            self.density.on_collision();
            self.garbles_total += 1;
        }
    }
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("tagged", &self.cfg.tagged)
            .field("vantage", &self.cfg.vantage)
            .field("violations", &self.violations)
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::MonitorPool;
    use mg_dcf::{sdu_digest, MacSdu, RtsFields};
    use mg_sim::SimDuration;

    pub(crate) const S: NodeId = 0;
    pub(crate) const R: NodeId = 1;

    fn cfg() -> MonitorConfig {
        MonitorConfig {
            sample_size: 10,
            ..MonitorConfig::grid_paper(S, R, 240.0)
        }
    }

    pub(crate) fn rts_frame(seq: u64, attempt: u8, pkt: u64) -> Frame {
        Frame {
            src: S,
            dst: Dest::Unicast(R),
            duration: MacTiming::paper_default().rts_duration(512),
            kind: FrameKind::Rts(RtsFields {
                seq_off_wire: VerifiableSequence::wire_offset(seq),
                attempt,
                md: sdu_digest(S, pkt),
            }),
        }
    }

    pub(crate) fn data_frame(id: u64) -> Frame {
        Frame {
            src: S,
            dst: Dest::Unicast(R),
            duration: MacTiming::paper_default().data_duration(),
            kind: FrameKind::Data {
                sdu: MacSdu {
                    id,
                    dst: Dest::Unicast(R),
                    payload_len: 512,
                },
            },
        }
    }

    /// `frame`, on air over `[start, end]`, decoded at `R`.
    pub(crate) fn decoded(frame: Frame, start: SimTime, end: SimTime) -> Obs {
        Obs::Decoded { at: R, frame, start, end }
    }

    /// A tagged RTS starting at `start`, decoded at `R`.
    pub(crate) fn rts_at(seq: u64, attempt: u8, pkt: u64, start: SimTime) -> Obs {
        let end = start + MacTiming::paper_default().rts_airtime();
        decoded(rts_frame(seq, attempt, pkt), start, end)
    }

    /// `m` fed `stream`, its deltas kept in its own buffer.
    pub(crate) fn feed(mut m: Monitor, stream: &[Obs]) -> Monitor {
        m.enable_deltas();
        for o in stream {
            m.ingest(o);
        }
        m
    }

    pub(crate) fn monitor_on(cfg: MonitorConfig, stream: &[Obs]) -> Monitor {
        feed(Monitor::new(cfg), stream)
    }

    /// The violations `m` flagged, in order, read from its deltas.
    pub(crate) fn flagged(m: &Monitor) -> Vec<Violation> {
        m.deltas
            .iter()
            .filter_map(|d| match *d {
                DiagnosisDelta::ViolationFlagged { violation, .. } => Some(violation),
                _ => None,
            })
            .collect()
    }

    /// The `(dictated, estimated)` samples `deltas` accepted, in order.
    pub(crate) fn accepted(deltas: &[DiagnosisDelta]) -> Vec<(f64, f64)> {
        deltas
            .iter()
            .filter_map(|d| match *d {
                DiagnosisDelta::SampleAccepted { dictated, estimated, .. } => {
                    Some((dictated, estimated))
                }
                _ => None,
            })
            .collect()
    }

    /// `pool` fed `stream`, and the deltas it emitted.
    pub(crate) fn run_deltas(
        mut pool: MonitorPool,
        stream: &[Obs],
    ) -> (MonitorPool, Vec<DiagnosisDelta>) {
        pool.enable_deltas();
        for o in stream {
            pool.ingest(o);
        }
        let mut deltas = Vec::new();
        pool.take_deltas_into(&mut deltas);
        (pool, deltas)
    }

    /// A one-member pool at `R` fed `stream`, and the deltas it emitted:
    /// the shape every detector session and `ScenarioBuilder::monitor`
    /// build.
    fn pool_on(cfg: MonitorConfig, stream: &[Obs]) -> (MonitorPool, Vec<DiagnosisDelta>) {
        run_deltas(MonitorPool::new(S, &[R], cfg), stream)
    }

    /// A synthetic fully-observable timeline: S is saturated, the channel
    /// contains only S's exchanges, and each back-off takes exactly
    /// `factor × dictated` slots (factor < 1 ⇒ misbehavior). `count + 1`
    /// exchanges, each tagged RTS preceded by the ranging snapshot a
    /// recorder writes.
    fn synthetic_stream(factor: f64, count: usize) -> Vec<Obs> {
        let t = MacTiming::paper_default();
        let prs = VerifiableSequence::new(S as u64);
        let slot_ns = t.slot.as_nanos();
        let mut now = SimTime::ZERO;
        let mut stream = Vec::new();
        for i in 0..=count {
            let seq = i as u64;
            let dictated = prs.backoff(seq, 1, t.cw_min, t.cw_max).slots;
            let counted = (f64::from(dictated) * factor).floor() as u64;
            // Idle DIFS + counted slots, then the RTS on air.
            now = now + t.difs() + SimDuration::from_nanos(counted * slot_ns);
            let rts_start = now;
            let rts_end = rts_start + t.rts_airtime();
            stream.push(Obs::ChannelEdge { node: R, busy: true, at: rts_start });
            stream.push(Obs::Ranging { from: S, to: vec![(R, 240.0)].into(), at: rts_start });
            stream.push(decoded(rts_frame(seq, 1, seq), rts_start, rts_end));
            stream.push(Obs::ChannelEdge { node: R, busy: false, at: rts_end });
            // CTS (from R itself — own tx), DATA from S, ACK from R.
            let cts_start = rts_end + t.sifs;
            let cts_end = cts_start + t.cts_airtime();
            stream.push(Obs::TxStart { src: R, frame: rts_frame(seq, 1, 0), at: cts_start, end: cts_end });
            let data_start = cts_end + t.sifs;
            let data_end = data_start + t.data_airtime(512);
            stream.push(Obs::ChannelEdge { node: R, busy: true, at: data_start });
            stream.push(decoded(data_frame(seq), data_start, data_end));
            stream.push(Obs::ChannelEdge { node: R, busy: false, at: data_end });
            let ack_start = data_end + t.sifs;
            let ack_end = ack_start + t.ack_airtime();
            stream.push(Obs::TxStart { src: R, frame: rts_frame(seq, 1, 0), at: ack_start, end: ack_end });
            now = ack_end;
        }
        stream
    }

    #[test]
    fn compliant_node_yields_matching_samples() {
        let (pool, deltas) = pool_on(cfg(), &synthetic_stream(1.0, 25));
        let samples = accepted(&deltas);
        assert!(samples.len() >= 20, "got {} samples", samples.len());
        for &(x, y) in &samples {
            assert!(
                (x - y).abs() < 1.0,
                "fully observable compliant window: x={x} y={y}"
            );
        }
        let d = pool.diagnosis();
        assert_eq!(d.violations, 0, "{d:?}");
        assert_eq!(d.rejections, 0, "{d:?}");
        assert!(d.tests_run >= 1);
    }

    #[test]
    fn heavy_misbehavior_is_rejected_statistically() {
        // PM = 70% (counts only 30% of the dictated value). At sample size
        // 10 the paper reports near-certain detection for such blatant
        // shrinking; PM = 50 at n = 10 is genuinely borderline (Fig. 5).
        let mut c = cfg();
        c.blatant_check = false; // isolate the statistical path
        let d = pool_on(c, &synthetic_stream(0.3, 25)).0.diagnosis();
        assert!(d.tests_run >= 2);
        assert!(d.rejections >= 1, "{d:?}");
    }

    #[test]
    fn halved_backoff_trips_the_blatant_check() {
        let m = monitor_on(cfg(), &synthetic_stream(0.5, 25));
        assert!(
            flagged(&m)
                .iter()
                .any(|v| matches!(v, Violation::BlatantCountdown { .. })),
            "{m:?}"
        );
    }

    #[test]
    fn compliant_node_never_trips_blatant_check() {
        let m = monitor_on(cfg(), &synthetic_stream(1.0, 50));
        assert_eq!(m.violations(), 0);
    }

    #[test]
    fn sequence_reuse_is_flagged() {
        // Re-announces offset 5 for a *different* packet: reuse.
        let m = monitor_on(
            cfg(),
            &[
                rts_at(5, 1, 0, SimTime::from_micros(1000)),
                rts_at(5, 1, 1, SimTime::from_micros(20_000)),
            ],
        );
        assert!(flagged(&m)
            .iter()
            .any(|v| matches!(v, Violation::SequenceReuse { .. })));
    }

    #[test]
    fn attempt_cheating_is_flagged_via_md() {
        let s1 = SimTime::from_micros(1000);
        let s2 = SimTime::from_micros(20_000);
        // Retransmission of packet 7 (same MD) still announcing attempt 1.
        let m = monitor_on(cfg(), &[rts_at(0, 1, 7, s1), rts_at(1, 1, 7, s2)]);
        assert!(flagged(&m)
            .iter()
            .any(|v| matches!(v, Violation::AttemptMismatch { .. })));
        // An honest retry (attempt 2) is fine.
        let m2 = monitor_on(cfg(), &[rts_at(0, 1, 7, s1), rts_at(1, 2, 7, s2)]);
        assert_eq!(m2.violations(), 0);
    }

    #[test]
    fn seq_offset_wraps_are_tolerated() {
        // Near the 13-bit wrap boundary.
        let m = monitor_on(
            cfg(),
            &[
                rts_at(8190, 1, 0, SimTime::from_micros(1000)),
                rts_at(8193, 1, 1, SimTime::from_micros(20_000)),
            ],
        );
        assert!(flagged(&m).is_empty(), "{:?}", flagged(&m));
    }

    #[test]
    fn pool_mode_accumulates_without_testing() {
        // A member only extracts samples; the pool drains and judges them.
        let mut m = monitor_on(cfg(), &synthetic_stream(1.0, 30));
        let drained: Vec<(f64, f64)> = m.drain_samples().collect();
        assert!(drained.len() >= 25);
        assert_eq!(m.drain_samples().len(), 0);
        assert_eq!(accepted(&m.deltas), drained, "every drained sample was journaled");
    }

    #[test]
    fn pool_judges_only_full_batches() {
        // 30 windows at sample size 25: one test over the first batch, the
        // remainder waits for the next.
        let c = MonitorConfig { sample_size: 25, ..cfg() };
        let (pool, deltas) = pool_on(c, &synthetic_stream(0.3, 30));
        let d = pool.diagnosis();
        assert_eq!(d.tests_run, 1);
        assert!(d.last_p.expect("one test") < 0.05, "{d:?}");
        let collected = accepted(&deltas).len();
        assert!((26..50).contains(&collected), "{collected}");
        assert_eq!(d.samples_collected, collected);
    }
}

#[cfg(test)]
mod evasion_tests {
    use super::tests::{accepted, data_frame, decoded, flagged, monitor_on, rts_at, R, S};
    use super::*;
    use mg_sim::SimDuration;

    /// A tagged RTS followed, after CTS, by its DATA frame.
    fn exchange(i: u64, t0: SimTime, announce: bool) -> Vec<Obs> {
        let air = MacTiming::paper_default();
        let rts_end = t0 + air.rts_airtime();
        let d0 = rts_end + air.sifs * 2 + air.cts_airtime();
        let mut out = Vec::new();
        if announce {
            out.push(rts_at(i, 1, i, t0));
        }
        out.push(decoded(data_frame(i), d0, d0 + air.data_airtime(512)));
        out
    }

    fn unannounced(count: u64) -> Vec<Obs> {
        (0..count)
            .map(|i| {
                let t0 = SimTime::from_millis(10 * (i + 1));
                decoded(data_frame(i), t0, t0 + SimDuration::from_micros(2464))
            })
            .collect()
    }

    #[test]
    fn unannounced_data_stream_is_flagged() {
        let m = monitor_on(MonitorConfig::grid_paper(S, R, 240.0), &unannounced(12));
        let violations = flagged(&m);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::UnverifiedData { .. })),
            "{violations:?}"
        );
        // The violation fires once, not per frame.
        let count = violations
            .iter()
            .filter(|v| matches!(v, Violation::UnverifiedData { .. }))
            .count();
        assert_eq!(count, 1);
    }

    #[test]
    fn announced_data_is_never_flagged() {
        let stream: Vec<Obs> = (0..20u64)
            .flat_map(|i| exchange(i, SimTime::from_millis(10 * (i + 1)), true))
            .collect();
        let m = monitor_on(MonitorConfig::grid_paper(S, R, 240.0), &stream);
        let violations = flagged(&m);
        assert!(
            !violations
                .iter()
                .any(|v| matches!(v, Violation::UnverifiedData { .. })),
            "{violations:?}"
        );
    }

    #[test]
    fn occasional_missed_rts_is_tolerated() {
        // The monitor misses 1 in 4 RTSs to collisions: no accusation.
        let stream: Vec<Obs> = (0..40u64)
            .flat_map(|i| exchange(i, SimTime::from_millis(10 * (i + 1)), i % 4 != 0))
            .collect();
        let m = monitor_on(MonitorConfig::grid_paper(S, R, 240.0), &stream);
        let violations = flagged(&m);
        assert!(
            !violations
                .iter()
                .any(|v| matches!(v, Violation::UnverifiedData { .. })),
            "25% loss must be tolerated: {violations:?}"
        );
    }

    #[test]
    fn contact_gap_resyncs_without_accusation() {
        // The monitor hears RTS #100, loses contact for 10 s (tens of
        // thousands of draws could have passed), then hears wire offset 3.
        // With naive unwrapping that's "reuse"; the resync rule forgives it.
        let m = monitor_on(
            MonitorConfig::grid_paper(S, R, 240.0),
            &[
                rts_at(100, 1, 0, SimTime::from_millis(100)),
                rts_at(3, 1, 1, SimTime::from_secs(10)),
            ],
        );
        assert!(flagged(&m).is_empty(), "{:?}", flagged(&m));
        // And the stale window yielded no sample.
        assert!(accepted(&m.deltas).is_empty(), "{:?}", accepted(&m.deltas));
    }

    #[test]
    fn short_gap_still_enforces_sequence() {
        // Within the resync horizon, going backwards IS a violation.
        let m = monitor_on(
            MonitorConfig::grid_paper(S, R, 240.0),
            &[
                rts_at(100, 1, 0, SimTime::from_millis(100)),
                rts_at(50, 1, 1, SimTime::from_millis(300)),
            ],
        );
        // Wire 100 → wire 50 in 200 ms: the only compliant explanation would
        // be a full 13-bit wrap (8142 draws), which 200 ms cannot hold.
        let violations = flagged(&m);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::ImplausibleAdvance { .. })),
            "{violations:?}"
        );
    }
}

#[cfg(test)]
mod fault_tests {
    use super::tests::{accepted, feed, flagged, monitor_on, rts_at, R, S};
    use super::*;
    use mg_fault::FaultPlan;

    /// A monitor holding an injector that delivers every frame: hardened to
    /// convict only on two consecutive anomalies, while `stream` reaches it
    /// exactly as written.
    fn hardened(stream: &[Obs]) -> Monitor {
        let mut m = Monitor::new(MonitorConfig::grid_paper(S, R, 240.0));
        m.install_faults(Some(ObsFaults::new(&FaultPlan::default(), R as u64)));
        feed(m, stream)
    }

    /// `n` compliant tagged RTSs, 20 ms apart.
    fn rts_run(n: u64) -> Vec<Obs> {
        (0..n)
            .map(|i| rts_at(i, 1, i, SimTime::from_millis(20 * (i + 1))))
            .collect()
    }

    /// A monitor seeing `stream` through `plan`'s injector for vantage `R`.
    fn faulted(plan: &FaultPlan, stream: &[Obs]) -> Monitor {
        let mut m = Monitor::new(MonitorConfig::grid_paper(S, R, 240.0));
        m.install_faults(plan.observer(R as u64));
        feed(m, stream)
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn isolated_anomaly_is_uncertain_under_confirmation() {
        // One bit-flipped sequence offset in an otherwise clean stream: the
        // hardened monitor records uncertainty, convicts nobody, and keeps
        // checking against the last *verified* offset.
        let m = hardened(&[
            rts_at(10, 1, 0, ms(100)),
            // A corrupted observation: the wire offset appears to have
            // gone backwards, which 20 ms cannot explain as a 13-bit
            // wrap.
            rts_at(5, 1, 1, ms(120)),
            // The stream recovers; compared against the trusted offset
            // 10, not against the corrupted 5.
            rts_at(11, 1, 2, ms(140)),
            rts_at(12, 1, 3, ms(160)),
        ]);
        assert!(flagged(&m).is_empty(), "{:?}", flagged(&m));
        assert_eq!(m.uncertain(), 1, "{m:?}");
    }

    #[test]
    fn repeated_anomalies_still_convict_under_confirmation() {
        // A genuine cheater repeats its violation; two consecutive
        // anomalous observations clear the confirmation gate.
        let m = hardened(&[
            rts_at(5, 1, 0, ms(100)),
            rts_at(5, 1, 1, ms(120)), // reuse, uncertain
            rts_at(5, 1, 2, ms(140)), // reuse, convicted
        ]);
        let violations = flagged(&m);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::SequenceReuse { .. })),
            "{violations:?}"
        );
        assert_eq!(m.uncertain(), 1);
    }

    #[test]
    fn default_config_convicts_on_first_anomaly() {
        // A monitor without a fault injector keeps the paper's
        // immediate-conviction behavior bit for bit.
        let m = monitor_on(
            MonitorConfig::grid_paper(S, R, 240.0),
            &[rts_at(5, 1, 0, ms(100)), rts_at(5, 1, 1, ms(120))],
        );
        assert_eq!(m.violations(), 1);
        assert_eq!(m.uncertain(), 0);
    }

    #[test]
    fn total_loss_blinds_the_monitor_without_accusations() {
        // loss=1 eats every frame at the observation boundary: the monitor
        // collects nothing and, crucially, accuses nobody.
        let plan = FaultPlan::parse("seed=1,loss=1").unwrap();
        let m = faulted(&plan, &rts_run(20));
        assert!(accepted(&m.deltas).is_empty());
        assert_eq!(m.violations(), 0);
        assert_eq!(m.uncertain(), 0);
    }

    #[test]
    fn corrupting_injector_yields_uncertainty_not_convictions() {
        // A compliant stream seen through a corrupting injector: flipped
        // commitment bits may look anomalous, but the hardened monitor
        // must never turn an isolated glitch into a conviction.
        let plan = FaultPlan::parse("seed=3,corrupt=0.2").unwrap();
        let m = faulted(&plan, &rts_run(60));
        assert!(flagged(&m).is_empty(), "{:?}", flagged(&m));
        assert!(m.uncertain() > 0, "expected some uncertainty, got {m:?}");
    }

    #[test]
    fn injector_fates_are_deterministic_per_vantage() {
        let plan = FaultPlan::parse("seed=9,heavy").unwrap();
        let run = || {
            let m = faulted(&plan, &rts_run(40));
            (accepted(&m.deltas), m.uncertain())
        };
        assert_eq!(run(), run());
    }
}
