//! The session-oriented incremental detection API — the one way to build a
//! detector outside a simulated world.
//!
//! A [`DetectorSession`] wraps one [`MonitorPool`] (a static monitor is a
//! one-member pool). `ingest(&Obs)` returns an iterator of typed
//! [`DiagnosisDelta`] events — sample accepted or discarded, a rank-sum test
//! fired, a deterministic check convicted, uncertainty entered or left, the
//! overall verdict changed — so a daemon multiplexing thousands of streams
//! learns *what changed* after each event without re-diffing snapshots.
//!
//! The deltas are the session's only history: the detector itself keeps
//! counts, not logs, so a session's memory does not grow with the events it
//! ingests. A caller that wants the samples, tests or violations keeps the
//! deltas it reads. The one snapshot, [`DetectorSession::diagnosis`], is
//! byte-identical to a bare pool fed the same stream: delta emission is
//! purely additive bookkeeping on the exact same detector internals, a
//! property proven by the mg-core test suite
//! (`delta_ingest_equals_batch_ingest`).
//!
//! A session is fully specified at creation through [`SessionSpec`]: the
//! monitor template, the vantage set and the fault plan all travel in the
//! spec — a monitor is never mutated after construction. Replaying a
//! journal is the same constructor plus a feed:
//!
//! ```
//! # use mg_detect::{ObsJournal, ObsMeta, SessionSpec};
//! # let journal = ObsJournal::new(ObsMeta {
//! #     tagged: 0, vantages: vec![1], pair_distance: 240.0, seed: 1, params: vec![],
//! # });
//! let mut session = SessionSpec::from_meta(journal.meta()).build();
//! journal.replay(&mut session);
//! assert!(!session.diagnosis().is_flagged());
//! ```

use crate::monitor::{Diagnosis, MonitorConfig, NodeCounts, Violation};
use crate::pool::MonitorPool;
use crate::NodeId;
use mg_fault::FaultPlan;
use mg_obs::{Obs, ObsMeta, ObsSink};
use mg_sim::SimTime;
use mg_stats::wilcoxon::RankSumResult;
use mg_trace::json::Json;

/// One typed change to a detector's state, emitted incrementally by
/// [`DetectorSession::ingest`].
///
/// The deltas are a *complete* account of the mutable diagnosis: replaying
/// them against an empty accumulator reconstructs every counter of
/// [`Diagnosis`] (the equivalence the mg-core property suite pins).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum DiagnosisDelta {
    /// A `(dictated, estimated)` back-off pair passed all filters and joined
    /// the statistical population.
    SampleAccepted {
        /// The vantage that extracted the sample.
        vantage: NodeId,
        /// The dictated back-off, in slots.
        dictated: f64,
        /// The estimated observed back-off, in slots.
        estimated: f64,
        /// When the sample's window closed.
        at: SimTime,
    },
    /// An estimated window was discarded as queue-idle contaminated.
    SampleDiscarded {
        /// The vantage that discarded it.
        vantage: NodeId,
        /// When the window closed.
        at: SimTime,
    },
    /// A hypothesis test ran over one batch of samples.
    TestFired {
        /// The full test result (statistic, p-value, method, sizes).
        result: RankSumResult,
        /// Whether H0 ("well-behaved") was rejected at the configured α.
        reject: bool,
        /// Virtual instant of the last tagged-node sighting that drove it.
        at: SimTime,
    },
    /// A deterministic check convicted the tagged node.
    ViolationFlagged {
        /// The vantage that witnessed it.
        vantage: NodeId,
        /// The violation, with its evidence.
        violation: Violation,
    },
    /// An anomalous observation was held below the confirmation threshold:
    /// recorded as uncertain, convicting nobody.
    ObservationUncertain {
        /// The vantage that observed it.
        vantage: NodeId,
        /// Stable snake_case tag of the suspected violation kind.
        kind: &'static str,
        /// When it was observed.
        at: SimTime,
    },
    /// The monitor at `vantage` entered the uncertain regime: its latest
    /// observation was anomalous but unconfirmed.
    UncertaintyEntered {
        /// The vantage.
        vantage: NodeId,
        /// When the first unconfirmed anomaly was observed.
        at: SimTime,
    },
    /// The monitor at `vantage` left the uncertain regime — either a clean
    /// observation reset the anomaly streak, or the streak was confirmed
    /// into a conviction.
    UncertaintyLeft {
        /// The vantage.
        vantage: NodeId,
        /// When the resolving observation arrived.
        at: SimTime,
    },
    /// The aggregate verdict ([`Diagnosis::is_flagged`]) changed.
    VerdictChanged {
        /// The new verdict: true = flagged as misbehaving.
        flagged: bool,
        /// The virtual instant of the event that tipped it.
        at: SimTime,
    },
}

impl DiagnosisDelta {
    /// Stable snake_case tag of this delta kind (the `"kind"` field of
    /// [`DiagnosisDelta::to_json`]).
    pub fn kind_str(&self) -> &'static str {
        match self {
            DiagnosisDelta::SampleAccepted { .. } => "sample",
            DiagnosisDelta::SampleDiscarded { .. } => "discard",
            DiagnosisDelta::TestFired { .. } => "test",
            DiagnosisDelta::ViolationFlagged { .. } => "violation",
            DiagnosisDelta::ObservationUncertain { .. } => "uncertain",
            DiagnosisDelta::UncertaintyEntered { .. } => "uncertainty_entered",
            DiagnosisDelta::UncertaintyLeft { .. } => "uncertainty_left",
            DiagnosisDelta::VerdictChanged { .. } => "verdict",
        }
    }

    /// The virtual instant the delta is anchored at.
    pub fn at(&self) -> SimTime {
        match *self {
            DiagnosisDelta::SampleAccepted { at, .. }
            | DiagnosisDelta::SampleDiscarded { at, .. }
            | DiagnosisDelta::TestFired { at, .. }
            | DiagnosisDelta::ObservationUncertain { at, .. }
            | DiagnosisDelta::UncertaintyEntered { at, .. }
            | DiagnosisDelta::UncertaintyLeft { at, .. }
            | DiagnosisDelta::VerdictChanged { at, .. } => at,
            DiagnosisDelta::ViolationFlagged { violation, .. } => violation.at(),
        }
    }

    /// Deterministic JSON rendering (insertion-ordered keys, shortest
    /// round-trip floats — `mg_trace::json` conventions), the line format
    /// `mgd` subscribers and `journal info --deltas` print.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = vec![
            ("t", Json::from(self.at().as_nanos())),
            ("kind", Json::Str(self.kind_str().into())),
        ];
        match self {
            DiagnosisDelta::SampleAccepted { vantage, dictated, estimated, .. } => {
                fields.push(("vantage", Json::from(*vantage as u64)));
                fields.push(("x", Json::Num(*dictated)));
                fields.push(("y", Json::Num(*estimated)));
            }
            DiagnosisDelta::SampleDiscarded { vantage, .. } => {
                fields.push(("vantage", Json::from(*vantage as u64)));
            }
            DiagnosisDelta::TestFired { result, reject, .. } => {
                fields.push(("p", Json::Num(result.p_value)));
                fields.push(("reject", Json::Bool(*reject)));
                fields.push(("n", Json::from(result.n1 as u64)));
            }
            DiagnosisDelta::ViolationFlagged { vantage, violation } => {
                fields.push(("vantage", Json::from(*vantage as u64)));
                fields.push(("check", Json::Str(violation.kind_str().into())));
            }
            DiagnosisDelta::ObservationUncertain { vantage, kind, .. } => {
                fields.push(("vantage", Json::from(*vantage as u64)));
                fields.push(("check", Json::Str((*kind).into())));
            }
            DiagnosisDelta::UncertaintyEntered { vantage, .. }
            | DiagnosisDelta::UncertaintyLeft { vantage, .. } => {
                fields.push(("vantage", Json::from(*vantage as u64)));
            }
            DiagnosisDelta::VerdictChanged { flagged, .. } => {
                fields.push(("flagged", Json::Bool(*flagged)));
            }
        }
        Json::obj(fields)
    }
}

/// Complete specification of a [`DetectorSession`], gathered *before*
/// construction — monitors are fully configured at build time, never
/// mutated afterwards.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    template: MonitorConfig,
    vantages: Vec<NodeId>,
    faults: FaultPlan,
}

impl SessionSpec {
    /// A session watching `tagged` from every node in `vantages`: one
    /// member per vantage with range-based hand-off and shared tests. A
    /// static monitor is `pool(tagged, &[vantage], cfg)`.
    pub fn pool(tagged: NodeId, vantages: &[NodeId], template: MonitorConfig) -> SessionSpec {
        SessionSpec {
            template: MonitorConfig { tagged, ..template },
            vantages: vantages.to_vec(),
            faults: FaultPlan::default(),
        }
    }

    /// The session a recorded journal calls for: a pool over the journal's
    /// vantage set, with the template derived by [`template_from_meta`] —
    /// exactly what `detect --replay` builds, so a session fed the journal's
    /// events lands on a byte-identical diagnosis.
    pub fn from_meta(meta: &ObsMeta) -> SessionSpec {
        Self::pool(meta.tagged, &meta.vantages, template_from_meta(meta))
    }

    /// Replaces the template's sample size (the sweep knob).
    pub fn with_sample_size(mut self, n: usize) -> SessionSpec {
        self.template = self.template.with_sample_size(n);
        self
    }

    /// Replaces the template's tagged→vantage distance.
    pub fn with_pair_distance(mut self, d: f64) -> SessionSpec {
        self.template = self.template.with_pair_distance(d);
        self
    }

    /// Installs a deterministic observation-fault plan. Each member derives
    /// its injector from `(plan seed, vantage)` alone, exactly as
    /// [`MonitorPool::apply_fault_plan`] arms a live pool; a member holding
    /// an injector convicts only on two consecutive anomalies.
    pub fn with_faults(mut self, plan: FaultPlan) -> SessionSpec {
        self.faults = plan;
        self
    }

    /// Builds the fully-specified session.
    pub fn build(self) -> DetectorSession {
        let mut pool = MonitorPool::new(self.template.tagged, &self.vantages, self.template);
        pool.apply_fault_plan(&self.faults);
        pool.enable_deltas();
        DetectorSession {
            pool,
            out: Vec::new(),
            flagged: false,
        }
    }
}

/// An incremental detection session: feed [`Obs`] events one at a time,
/// receive the typed [`DiagnosisDelta`] stream each one produced.
///
/// [`DetectorSession::diagnosis`] stays byte-identical to a bare
/// [`MonitorPool`] fed the same stream. As an [`ObsSink`] the session
/// takes whole journals (`journal.replay`, `reader.replay_into`), dropping
/// the deltas.
pub struct DetectorSession {
    pool: MonitorPool,
    out: Vec<DiagnosisDelta>,
    flagged: bool,
}

impl DetectorSession {
    /// Feeds one observation and returns the deltas it produced, in order.
    ///
    /// The returned iterator borrows the session; collect it (or drop it)
    /// before the next `ingest`. Most events produce no deltas — the
    /// common-case cost over a bare pool is one empty-buffer check.
    pub fn ingest(&mut self, obs: &Obs) -> std::vec::Drain<'_, DiagnosisDelta> {
        self.pool.ingest(obs);
        self.pool.take_deltas_into(&mut self.out);
        // The verdict can only tip when some delta fired (it is a function
        // of rejections and violations alone), so the empty case skips the
        // aggregate diagnosis entirely.
        if !self.out.is_empty() {
            let flagged = self.diagnosis().is_flagged();
            if flagged != self.flagged {
                self.flagged = flagged;
                self.out.push(DiagnosisDelta::VerdictChanged { flagged, at: obs_time(obs) });
            }
        }
        self.out.drain(..)
    }

    /// The aggregate diagnosis (byte-identical to a bare pool fed the same
    /// stream).
    pub fn diagnosis(&self) -> Diagnosis {
        self.pool.diagnosis()
    }

    /// The current aggregate verdict, as last reported via
    /// [`DiagnosisDelta::VerdictChanged`].
    pub fn is_flagged(&self) -> bool {
        self.flagged
    }

    /// The underlying pool (members, active vantage, contributions, …).
    pub fn pool(&self) -> &MonitorPool {
        &self.pool
    }
}

impl ObsSink for DetectorSession {
    fn ingest(&mut self, obs: &Obs) {
        DetectorSession::ingest(self, obs);
    }
}

impl std::fmt::Debug for DetectorSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectorSession")
            .field("flagged", &self.flagged)
            .field("diagnosis", &self.diagnosis())
            .finish()
    }
}

/// The latest virtual instant an observation speaks about.
fn obs_time(o: &Obs) -> SimTime {
    match o {
        Obs::ChannelEdge { at, .. } => *at,
        Obs::TxStart { end, .. } => *end,
        Obs::Decoded { end, .. } => *end,
        Obs::Garbled { now, .. } => *now,
        Obs::Ranging { at, .. } => *at,
    }
}

/// Reconstructs the monitor template a recorded journal calls for from its
/// header: topology kind, pair distance, counts source. Shared by `detect
/// --replay`, `journal info --deltas` and the `mgd` daemon so every
/// consumer of one journal builds the *same* detector.
pub fn template_from_meta(meta: &ObsMeta) -> MonitorConfig {
    let primary = meta.vantages.first().copied().unwrap_or(meta.tagged + 1);
    let kind = meta.param("kind").unwrap_or("grid");
    let mut mc = if kind == "grid" {
        MonitorConfig::grid_paper(meta.tagged, primary, meta.pair_distance)
    } else {
        MonitorConfig::random_paper(meta.tagged, primary, meta.pair_distance)
    };
    if kind == "mobile" {
        mc.eifs_weight = 0.0;
        mc.counts = NodeCounts::SimCalibrated;
    }
    mc
}

/// Renders the per-monitor result block (`samples`/`tests`/`checks`/
/// `verdict` lines) shared verbatim by `detect`, `detect --replay` and the
/// `mgd` daemon — the ci.sh gates diff these lines byte-for-byte, so there
/// is exactly one producer.
pub fn render_report(tagged: NodeId, sample_size: usize, multi: bool, diag: &Diagnosis) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    if multi {
        let _ = writeln!(out, "monitor  : sample size {sample_size}");
    }
    let _ = writeln!(
        out,
        "samples  : {} collected, {} discarded",
        diag.samples_collected, diag.samples_discarded
    );
    if diag.uncertain > 0 {
        let _ = writeln!(
            out,
            "faults   : {} anomalous observation(s) held below the confirmation threshold",
            diag.uncertain
        );
    }
    let _ = writeln!(
        out,
        "tests    : {} run, {} rejected H0 (last p = {})",
        diag.tests_run,
        diag.rejections,
        diag.last_p
            .map(|p| format!("{p:.4}"))
            .unwrap_or_else(|| "-".into())
    );
    let _ = writeln!(out, "checks   : {} deterministic violations", diag.violations);
    let _ = writeln!(
        out,
        "verdict  : node {tagged} is {}",
        if diag.is_flagged() {
            "MISBEHAVING"
        } else {
            "apparently well-behaved"
        }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MonitorConfig {
        MonitorConfig {
            sample_size: 10,
            ..MonitorConfig::grid_paper(0, 1, 240.0)
        }
    }

    #[test]
    fn empty_session_reports_clean() {
        let s = SessionSpec::pool(0, &[1], cfg()).build();
        assert!(!s.is_flagged());
        assert_eq!(s.diagnosis(), Diagnosis::default());
    }

    #[test]
    fn spec_is_fully_specified_at_creation() {
        let plan = FaultPlan::parse("seed=3,corrupt=0.2").unwrap();
        let s = SessionSpec::pool(0, &[1], cfg())
            .with_sample_size(25)
            .with_pair_distance(100.0)
            .with_faults(plan)
            .build();
        let m = s.pool().monitor(1).expect("member");
        assert_eq!(m.config().sample_size, 25);
        assert_eq!(m.config().pair_distance, 100.0);
    }

    #[test]
    fn delta_json_is_deterministic() {
        let d = DiagnosisDelta::SampleAccepted {
            vantage: 4,
            dictated: 12.0,
            estimated: 11.5,
            at: SimTime::from_micros(7),
        };
        assert_eq!(
            d.to_json().render(),
            "{\"t\":7000,\"kind\":\"sample\",\"vantage\":4,\"x\":12,\"y\":11.5}"
        );
        let v = DiagnosisDelta::VerdictChanged { flagged: true, at: SimTime::ZERO };
        assert_eq!(v.to_json().render(), "{\"t\":0,\"kind\":\"verdict\",\"flagged\":true}");
    }

    #[test]
    fn report_lines_match_the_cli_shape() {
        let diag = Diagnosis { tests_run: 2, rejections: 1, ..Diagnosis::default() };
        let r = render_report(7, 50, false, &diag);
        assert!(r.starts_with("samples  : 0 collected, 0 discarded\n"), "{r}");
        assert!(r.contains("verdict  : node 7 is MISBEHAVING\n"), "{r}");
        assert!(!r.contains("monitor  :"));
        assert!(render_report(7, 50, true, &diag).starts_with("monitor  : sample size 50\n"));
    }
}
