//! The collaborative detection session: N per-vantage detectors, accusation
//! gossip, and k-of-n conviction.

use crate::accusation::{Accusation, EvidenceKind};
use mg_detect::{
    DetectorSession, DiagnosisDelta, MonitorConfig, NodeId, SessionSpec,
};
use mg_fault::{FaultPlan, MonitorRole};
use mg_obs::{Obs, ObsSink};
use mg_sim::rng::Rng;
use mg_sim::SimTime;
use mg_trace::{Counter, EventKind, Metrics, Tracer};
use std::collections::{BTreeMap, BTreeSet};

/// Complete specification of a [`QuorumSession`], gathered before
/// construction — the same builder shape as
/// [`SessionSpec`](mg_detect::SessionSpec).
#[derive(Clone, Debug)]
pub struct QuorumSpec {
    tagged: NodeId,
    members: Vec<(NodeId, f64)>,
    template: MonitorConfig,
    k: usize,
    faults: FaultPlan,
    tracer: Tracer,
    metrics: Metrics,
}

impl QuorumSpec {
    /// A quorum of one detector per `(vantage, pair distance)` entry,
    /// convicting on `k` distinct accusers. `k` is clamped to at least 1;
    /// a `k` larger than the member count makes conviction impossible (by
    /// design: the caller chose an unreachable quorum).
    pub fn new(
        tagged: NodeId,
        members: &[(NodeId, f64)],
        template: MonitorConfig,
        k: usize,
    ) -> QuorumSpec {
        QuorumSpec {
            tagged,
            members: members.to_vec(),
            template,
            k: k.max(1),
            faults: FaultPlan::default(),
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
        }
    }

    /// Installs a fault plan. The plan's observation faults flow into each
    /// member's detector exactly as in [`SessionSpec::with_faults`];
    /// its [quorum layer](mg_fault::QuorumFaults) assigns each member a
    /// seeded [`MonitorRole`].
    pub fn with_faults(mut self, plan: FaultPlan) -> QuorumSpec {
        self.faults = plan;
        self
    }

    /// Attaches a tracer and metrics handle for gossip observability.
    pub fn with_trace(mut self, tracer: Tracer, metrics: Metrics) -> QuorumSpec {
        self.tracer = tracer;
        self.metrics = metrics;
        self
    }

    /// Builds the session: one single-vantage [`DetectorSession`] per
    /// member (so a single-member quorum is byte-identical to a plain
    /// monitor fed the same stream), roles drawn from the fault plan, lie
    /// cadences from each liar's private quorum RNG.
    pub fn build(self) -> QuorumSession {
        let members = self
            .members
            .iter()
            .map(|&(vantage, distance)| {
                let session = SessionSpec::pool(self.tagged, &[vantage], self.template)
                    .with_pair_distance(distance)
                    .with_faults(self.faults.clone())
                    .build();
                let role = self.faults.monitor_role(vantage as u64);
                // The cadence draws follow the role draw on the member's
                // private quorum stream, so they replay with the plan.
                let mut rng = self.faults.quorum_rng(vantage as u64);
                let _role_draw = rng.uniform01();
                let first_lie = 1 + rng.below(10);
                let lie_period = 10 + rng.below(21);
                Member {
                    vantage,
                    role,
                    session,
                    epoch: 0,
                    rounds: 0,
                    next_lie: first_lie,
                    lie_period,
                    suspected_by: BTreeMap::new(),
                    convicted: BTreeSet::new(),
                }
            })
            .collect();
        QuorumSession {
            tagged: self.tagged,
            k: self.k,
            members,
            delivered: 0,
            tracer: self.tracer,
            metrics: self.metrics,
        }
    }
}

/// One quorum member: a single-vantage detector plus the member's gossip
/// state.
struct Member {
    vantage: NodeId,
    role: MonitorRole,
    session: DetectorSession,
    /// Accusations this member has sent (its next epoch number).
    epoch: u64,
    /// Tagged-RTS rounds this member has decoded (drives the lie cadence).
    rounds: u64,
    /// Round index of the next fabricated accusation, for lying roles.
    next_lie: u64,
    lie_period: u64,
    /// Per-suspect set of distinct accusers, this member's own vote
    /// included.
    suspected_by: BTreeMap<NodeId, BTreeSet<NodeId>>,
    /// Suspects this member has convicted (reached k distinct accusers).
    convicted: BTreeSet<NodeId>,
}

impl Member {
    fn next_accusation(&mut self, suspect: NodeId, evidence: EvidenceKind, score: f64, at: SimTime) -> Accusation {
        let epoch = self.epoch;
        self.epoch += 1;
        Accusation { accuser: self.vantage, suspect, evidence, score, epoch, at }
    }

    /// A lying member's cadence: every tagged-node RTS decoded at its own
    /// vantage is one round, and on a due round it fabricates an accusation
    /// stamped with that RTS's end.
    fn fabricate(&mut self, obs: &Obs, tagged: NodeId) -> Option<Accusation> {
        let Obs::Decoded { at, frame, end, .. } = obs else {
            return None;
        };
        if !self.role.lies() || *at != self.vantage || frame.src != tagged || !frame.is_rts() {
            return None;
        }
        self.rounds += 1;
        if self.rounds < self.next_lie {
            return None;
        }
        self.next_lie = self.rounds + self.lie_period;
        Some(self.next_accusation(tagged, EvidenceKind::Statistical, 0.0, *end))
    }
}

/// A collaborative detection session.
///
/// Feed it the same [`Obs`] stream a [`MonitorPool`](mg_detect::MonitorPool)
/// would receive (it implements [`ObsSink`], so `journal.replay(&mut q)`
/// works unchanged). Every member's detector ingests every event —
/// monitors filter by vantage internally — and converts its local
/// [`DiagnosisDelta`] stream into [`Accusation`]s per its
/// [`MonitorRole`]:
///
/// * honest members accuse exactly when a deterministic check convicts or a
///   rank-sum test rejects;
/// * [`FalseAccuser`](MonitorRole::FalseAccuser)s additionally fabricate
///   accusations against the tagged node on a seeded cadence;
/// * [`Mute`](MonitorRole::Mute) members suppress their real evidence;
/// * [`Flip`](MonitorRole::Flip) members do both.
///
/// An accusation reaches every member inside the [`feed`](Self::feed) that
/// raised it: the accuser tallies it first, then every other member. Each
/// member tallies *distinct accusers* per suspect (self-votes included,
/// duplicates idempotent) and convicts at `k`. Because votes are
/// deduplicated by accuser, `f` Byzantine members can contribute at most
/// `f` votes at any honest member: with honest members producing no
/// evidence, `f < k` guarantees zero false convictions.
pub struct QuorumSession {
    tagged: NodeId,
    k: usize,
    members: Vec<Member>,
    /// Accusation copies delivered to members other than their accuser.
    delivered: u64,
    tracer: Tracer,
    metrics: Metrics,
}

impl QuorumSession {
    /// Feeds one observation: advances every member's detector, converts
    /// fresh evidence into accusations and delivers each one to every
    /// member before returning.
    pub fn feed(&mut self, obs: &Obs) {
        let mut outgoing: Vec<Accusation> = Vec::new();
        let tagged = self.tagged;
        for member in &mut self.members {
            outgoing.extend(member.fabricate(obs, tagged));
            let deltas: Vec<DiagnosisDelta> = member.session.ingest(obs).collect();
            if member.role.suppresses() {
                continue;
            }
            for delta in deltas {
                match delta {
                    DiagnosisDelta::ViolationFlagged { violation, .. } => {
                        outgoing.push(member.next_accusation(
                            tagged,
                            EvidenceKind::Deterministic(violation.kind_str()),
                            0.0,
                            violation.at(),
                        ));
                    }
                    DiagnosisDelta::TestFired { result, reject: true, at } => {
                        outgoing.push(member.next_accusation(
                            tagged,
                            EvidenceKind::Statistical,
                            result.p_value,
                            at,
                        ));
                    }
                    _ => {}
                }
            }
        }
        for acc in outgoing {
            self.broadcast(&acc);
        }
    }

    /// The accuser trusts its own claim first; then every other member
    /// hears it, in member order.
    fn broadcast(&mut self, acc: &Accusation) {
        self.tally(acc.accuser, acc);
        let (t, suspect) = (acc.at.as_nanos(), acc.suspect);
        self.tracer
            .emit(t, Some(acc.accuser), EventKind::AccusationSent { suspect });
        self.metrics.bump(acc.accuser, Counter::AccusationsSent);
        for i in 0..self.members.len() {
            let to = self.members[i].vantage;
            if to == acc.accuser {
                continue;
            }
            self.delivered += 1;
            self.tracer
                .emit(t, Some(to), EventKind::AccusationDelivered { suspect });
            self.metrics.bump(to, Counter::AccusationsDelivered);
            self.tally(to, acc);
        }
    }

    /// Registers `acc` at the member observing from `vantage` and convicts
    /// on the k-th distinct accuser.
    fn tally(&mut self, vantage: NodeId, acc: &Accusation) {
        let k = self.k;
        let Some(member) = self.members.iter_mut().find(|m| m.vantage == vantage) else {
            return;
        };
        let accusers = member.suspected_by.entry(acc.suspect).or_default();
        accusers.insert(acc.accuser);
        if accusers.len() >= k && member.convicted.insert(acc.suspect) {
            self.tracer.emit(
                acc.at.as_nanos(),
                Some(member.vantage),
                EventKind::QuorumConvicted { suspect: acc.suspect, votes: accusers.len() },
            );
            self.metrics.bump(member.vantage, Counter::QuorumConvictions);
        }
    }

    /// The node under observation.
    pub fn tagged(&self) -> NodeId {
        self.tagged
    }

    /// The conviction quorum size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Every member's `(vantage, role)`, in construction order.
    pub fn roles(&self) -> Vec<(NodeId, MonitorRole)> {
        self.members.iter().map(|m| (m.vantage, m.role)).collect()
    }

    /// Members whose role is not [`MonitorRole::Honest`].
    pub fn byzantine_count(&self) -> usize {
        self.members.iter().filter(|m| m.role != MonitorRole::Honest).count()
    }

    /// True when at least one *honest* member has convicted `suspect` —
    /// Byzantine members' private tallies never count toward the verdict.
    pub fn convicted(&self, suspect: NodeId) -> bool {
        self.members
            .iter()
            .any(|m| m.role == MonitorRole::Honest && m.convicted.contains(&suspect))
    }

    /// The quorum verdict on the tagged node.
    pub fn is_flagged(&self) -> bool {
        self.convicted(self.tagged)
    }

    /// The largest distinct-accuser count any honest member holds against
    /// `suspect`.
    pub fn votes_against(&self, suspect: NodeId) -> usize {
        self.members
            .iter()
            .filter(|m| m.role == MonitorRole::Honest)
            .filter_map(|m| m.suspected_by.get(&suspect).map(BTreeSet::len))
            .max()
            .unwrap_or(0)
    }

    /// The detector of the member observing from `vantage`.
    pub fn member_session(&self, vantage: NodeId) -> Option<&DetectorSession> {
        self.members.iter().find(|m| m.vantage == vantage).map(|m| &m.session)
    }

    /// Accusation copies delivered so far to members other than their
    /// accuser: each accusation reaches all `n − 1` of them.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// The report block the CLI and daemon print for a quorum run: roles,
    /// gossip volume, vote tally, verdict. One producer, like
    /// [`mg_detect::render_report`], so every consumer emits byte-identical
    /// lines.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let n = self.members.len();
        let byz = self.byzantine_count();
        let _ = writeln!(
            out,
            "roles    : {n} monitor(s), {} honest, {byz} byzantine",
            n - byz
        );
        let _ = writeln!(out, "gossip   : {} copies delivered", self.delivered);
        let _ = writeln!(
            out,
            "quorum   : {} distinct accuser(s) against node {} (k = {})",
            self.votes_against(self.tagged),
            self.tagged,
            self.k
        );
        let _ = writeln!(
            out,
            "verdict  : node {} is {} by {}-of-{n} quorum",
            self.tagged,
            if self.is_flagged() { "MISBEHAVING" } else { "apparently well-behaved" },
            self.k
        );
        out
    }
}

impl ObsSink for QuorumSession {
    fn ingest(&mut self, obs: &Obs) {
        self.feed(obs);
    }
}

impl std::fmt::Debug for QuorumSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuorumSession")
            .field("tagged", &self.tagged)
            .field("k", &self.k)
            .field("members", &self.members.len())
            .field("byzantine", &self.byzantine_count())
            .field("flagged", &self.is_flagged())
            .finish()
    }
}

/// The `(vantage, distance)` member set a recorded journal calls for, in
/// order of preference: explicit `dist.<vantage>` header parameters (the
/// exact geometry `detect --quorum --record` measures on the live medium),
/// then the distances of the journal's first [`Obs::Ranging`] snapshot,
/// then the header's pair distance for every vantage. This is the replay
/// analogue of measuring positions on the live medium, so
/// `detect --replay --quorum` builds the same members a live run would.
pub fn members_from_journal(journal: &mg_obs::ObsJournal) -> Vec<(NodeId, f64)> {
    let meta = journal.meta();
    let explicit: Vec<(NodeId, f64)> = meta
        .vantages
        .iter()
        .filter_map(|&v| meta.param_parsed::<f64>(&format!("dist.{v}")).map(|d| (v, d)))
        .collect();
    if !explicit.is_empty() && explicit.len() == meta.vantages.len() {
        return explicit;
    }
    for obs in journal.events() {
        if let Obs::Ranging { from, to, .. } = obs {
            if *from == meta.tagged {
                return to.to_vec();
            }
        }
    }
    meta.vantages.iter().map(|&v| (v, meta.pair_distance)).collect()
}



#[cfg(test)]
mod tests {
    use super::*;
    use mg_dcf::{Dest, Frame, FrameKind, RtsFields};
    use mg_sim::SimDuration;
    use mg_trace::{Event, TraceConfig};

    fn template() -> MonitorConfig {
        MonitorConfig {
            sample_size: 10,
            ..MonitorConfig::grid_paper(0, 1, 240.0)
        }
    }

    fn spec(k: usize) -> QuorumSpec {
        QuorumSpec::new(0, &[(1, 240.0), (2, 300.0), (3, 340.0)], template(), k)
    }

    fn acc(accuser: NodeId, suspect: NodeId) -> Accusation {
        Accusation {
            accuser,
            suspect,
            evidence: EvidenceKind::Statistical,
            score: 0.01,
            epoch: 0,
            at: SimTime::from_micros(5),
        }
    }

    /// The `i`-th of a stream of tagged RTSs (node 0 to node 1), 10 ms
    /// apart, as decoded at `vantage`.
    fn tagged_rts(vantage: NodeId, i: u64) -> Obs {
        let frame = Frame {
            src: 0,
            dst: Dest::Unicast(1),
            duration: SimDuration::from_micros(352),
            kind: FrameKind::Rts(RtsFields {
                seq_off_wire: i as u16,
                attempt: 0,
                md: [0; 16],
            }),
        };
        let start = SimTime::from_millis(10 * i);
        let end = start + frame.duration;
        Obs::Decoded { at: vantage, frame, start, end }
    }

    #[test]
    fn an_accusation_reaches_every_member_inside_its_feed() {
        // Every member lies, and only vantage 1 decodes tagged RTSs: its
        // first accusation is the session's first.
        let plan = FaultPlan::parse("seed=3,lie=1.0").unwrap();
        let mut q = spec(3).with_faults(plan).build();
        let mut i = 0;
        while q.members[0].epoch == 0 {
            assert!(i < 10, "a liar's first lie is due within 10 rounds");
            q.feed(&tagged_rts(1, i));
            i += 1;
        }
        // No further feed: every member already holds the accuser.
        for m in &q.members {
            let heard = m.suspected_by.get(&0).is_some_and(|a| a.contains(&1));
            assert!(heard, "member {} has not heard the accusation", m.vantage);
        }
        assert_eq!(q.delivered(), 2 * q.members[0].epoch);
    }

    #[test]
    fn traced_accusations_are_sent_once_and_delivered_to_every_other_member() {
        let plan = FaultPlan::parse("seed=3,lie=1.0").unwrap();
        let tracer = Tracer::new(TraceConfig::verbose());
        let metrics = Metrics::new(4);
        let mut q = spec(2)
            .with_faults(plan)
            .with_trace(tracer.clone(), metrics.clone())
            .build();
        for i in 0..60 {
            for v in 1..=3 {
                q.feed(&tagged_rts(v, i));
            }
        }
        let accusations: u64 = q.members.iter().map(|m| m.epoch).sum();
        assert!(accusations >= 6, "only {accusations} lies in 60 rounds");
        assert_eq!(q.delivered(), 2 * accusations);
        // Each `accusation_sent` is followed by one `accusation_delivered`
        // at every other member, in member order.
        let gossip: Vec<Event> = tracer
            .events()
            .into_iter()
            .filter(|e| !matches!(e.kind, EventKind::QuorumConvicted { .. }))
            .collect();
        assert_eq!(gossip.len() as u64, 3 * accusations);
        for round in gossip.chunks(3) {
            let (sent, copies) = (round[0], &round[1..]);
            assert_eq!(sent.kind, EventKind::AccusationSent { suspect: 0 });
            let accuser = sent.node.expect("the accuser");
            let others: Vec<NodeId> = (1..=3).filter(|&v| v != accuser).collect();
            for (e, &to) in copies.iter().zip(&others) {
                assert_eq!(e.kind, EventKind::AccusationDelivered { suspect: 0 });
                assert_eq!((e.node, e.t_ns), (Some(to), sent.t_ns));
            }
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.total(Counter::AccusationsSent), accusations);
        assert_eq!(snap.total(Counter::AccusationsDelivered), q.delivered());
    }

    #[test]
    fn clean_plan_builds_all_honest_members() {
        let q = spec(2).build();
        assert_eq!(q.k(), 2);
        assert_eq!(q.tagged(), 0);
        assert_eq!(q.byzantine_count(), 0);
        assert_eq!(q.roles().len(), 3);
        assert!(q.roles().iter().all(|&(_, r)| r == MonitorRole::Honest));
        assert!(!q.is_flagged());
        assert!(q.member_session(2).is_some());
        assert!(q.member_session(9).is_none());
    }

    #[test]
    fn k_is_clamped_to_at_least_one() {
        assert_eq!(spec(0).build().k(), 1);
    }

    #[test]
    fn quorum_faults_assign_roles_from_the_plan() {
        let plan = FaultPlan::parse("seed=3,lie=1.0").unwrap();
        let q = spec(2).with_faults(plan).build();
        assert_eq!(q.byzantine_count(), 3);
        assert!(q.roles().iter().all(|&(_, r)| r == MonitorRole::FalseAccuser));
    }

    #[test]
    fn votes_convict_on_the_kth_distinct_accuser() {
        let mut q = spec(2).build();
        q.tally(1, &acc(1, 0));
        assert!(!q.is_flagged());
        assert_eq!(q.votes_against(0), 1);
        // A duplicate accuser never double-counts.
        q.tally(1, &acc(1, 0));
        assert!(!q.is_flagged());
        q.tally(1, &acc(3, 0));
        assert!(q.is_flagged());
        assert_eq!(q.votes_against(0), 2);
    }

    #[test]
    fn byzantine_members_never_carry_the_verdict() {
        let plan = FaultPlan::parse("seed=3,mute=1.0").unwrap();
        let mut q = spec(1).with_faults(plan).build();
        assert_eq!(q.byzantine_count(), 3);
        // Every member is Mute: their private tallies convict, the quorum
        // verdict (honest members only) stays clean.
        q.tally(1, &acc(2, 0));
        assert!(!q.is_flagged());
        assert_eq!(q.votes_against(0), 0);
    }

    #[test]
    fn report_has_the_fixed_line_shape() {
        let mut q = spec(2).build();
        q.tally(1, &acc(1, 0));
        let r = q.report();
        assert!(r.starts_with("roles    : 3 monitor(s), 3 honest, 0 byzantine\n"), "{r}");
        assert!(r.contains("gossip   : 0 copies delivered\n"), "{r}");
        assert!(r.contains("quorum   : 1 distinct accuser(s) against node 0 (k = 2)\n"), "{r}");
        assert!(r.ends_with("verdict  : node 0 is apparently well-behaved by 2-of-3 quorum\n"), "{r}");
    }

    #[test]
    fn lie_cadence_is_a_pure_function_of_the_plan() {
        let plan = FaultPlan::parse("seed=9,lie=1.0").unwrap();
        let a = QuorumSpec::new(0, &[(1, 240.0)], template(), 1)
            .with_faults(plan.clone())
            .build();
        let b = QuorumSpec::new(0, &[(1, 240.0)], template(), 1)
            .with_faults(plan)
            .build();
        assert_eq!(a.members[0].next_lie, b.members[0].next_lie);
        assert_eq!(a.members[0].lie_period, b.members[0].lie_period);
        assert!((1..=10).contains(&a.members[0].next_lie));
        assert!((10..=30).contains(&a.members[0].lie_period));
    }
}
