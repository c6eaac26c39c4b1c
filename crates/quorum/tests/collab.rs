//! End-to-end collaborative-detection tests over recorded worlds.
//!
//! The anchor property: a k = 1 quorum holding a single honest member is
//! **byte-identical** to the live monitor `ScenarioBuilder::monitor`
//! registers at the same vantage of the same world — diagnosis and
//! verdict, and every sample, test and violation the live monitor traced —
//! clean and under observation faults. Everything the quorum layer adds
//! (gossip, tallies, Byzantine roles) composes on top of unmodified
//! detectors.

use mg_detect::{
    template_from_meta, Assembly, DetectorSession, DiagnosisDelta, FaultPlan, MonitorConfig,
    NodeId, ObsJournal, ObsMeta, ObsRecorder, ScenarioBuilder, SessionSpec, WorldMonitors,
    WorldProbe,
};
use mg_dcf::BackoffPolicy;
use mg_net::{Scenario, ScenarioConfig, SourceCfg, World};
use mg_quorum::{members_from_journal, QuorumSpec};
use mg_sim::{SimDuration, SimTime};
use mg_trace::{Event, EventKind, Level, Metrics, TraceConfig, Tracer};

const SECS: u64 = 4;

/// Records one short saturated grid world with the `n` closest in-range
/// neighbors of the tagged node as vantages. The journal (the probe) is the
/// *clean* stream: fault plans are applied by the replayed detectors,
/// exactly as the core record/replay contract specifies. Alongside it, each
/// vantage is watched live by a `ScenarioBuilder::monitor` (sample size 10)
/// perceiving the world through `plan`, registered in vantage order; the
/// world's trace holds the live monitors' records and nothing else.
fn record(seed: u64, pm: u8, n: usize, plan: &FaultPlan) -> World<Assembly<ObsRecorder>> {
    let scenario = Scenario::new(ScenarioConfig {
        sim_secs: SECS,
        rate_pps: 2.0,
        ..ScenarioConfig::grid_paper(seed)
    });
    let (s, r) = scenario.tagged_pair();
    let pos = scenario.positions().to_vec();
    let mut near: Vec<NodeId> = (0..pos.len()).filter(|&i| i != s).collect();
    near.sort_by(|&a, &b| {
        pos[a]
            .distance(pos[s])
            .partial_cmp(&pos[b].distance(pos[s]))
            .expect("no NaN positions")
    });
    let mut vantages: Vec<NodeId> = near.into_iter().take(n).collect();
    vantages.sort_unstable();
    assert!(vantages.contains(&r), "the paper pair's vantage is among the closest");
    let mut b = ScenarioBuilder::new(scenario);
    let a = b.attacker(s);
    for &v in &vantages {
        b.reserve(v);
    }
    for &v in &vantages {
        b.monitor(MonitorConfig::grid_paper(s, v, pos[s].distance(pos[v])).with_sample_size(10));
    }
    b.fault(plan.clone());
    b.source(SourceCfg::saturated(s, r));
    b.trace(TraceConfig {
        capacity: 1 << 16,
        sched: Level::Off,
        phy: Level::Off,
        mac: Level::Off,
        net: Level::Off,
        monitor: Level::Info,
        fault: Level::Off,
        quorum: Level::Off,
    });
    let meta = ObsMeta {
        tagged: s,
        vantages,
        pair_distance: pos[s].distance(pos[r]),
        seed,
        params: vec![("pm".into(), pm.to_string())],
    };
    let mut world = b.probe(ObsRecorder::new(meta)).build();
    if pm > 0 {
        world.set_policy(a.id(), BackoffPolicy::Scaled { pm });
    }
    world.run_until(SimTime::from_secs(SECS));
    world
}

/// Finds a plan seed under which exactly `want` of `members` draw a lying
/// role — how the tests (and the bench) pin a realized Byzantine count out
/// of probabilistic per-vantage draws.
fn seed_with_liars(plan: &FaultPlan, members: &[(NodeId, f64)], want: usize) -> FaultPlan {
    for seed in 0..10_000 {
        let candidate = plan.clone().with_seed(seed);
        let liars = members
            .iter()
            .filter(|&&(v, _)| candidate.monitor_role(v as u64).lies())
            .count();
        if liars == want {
            return candidate;
        }
    }
    panic!("no seed in 0..10000 realizes {want} liars");
}

/// The monitor records a trace journals for `deltas`, emitted by a
/// detector watching `tagged`: every accepted sample, test, violation and
/// uncertain observation, in order.
fn as_trace(tagged: NodeId, deltas: &[DiagnosisDelta]) -> Vec<Event> {
    deltas
        .iter()
        .filter_map(|d| {
            let kind = match *d {
                DiagnosisDelta::SampleAccepted { dictated, estimated, .. } => {
                    EventKind::MonitorSample { dictated, estimated }
                }
                DiagnosisDelta::TestFired { result, reject, .. } => {
                    EventKind::MonitorTest { p: result.p_value, reject }
                }
                DiagnosisDelta::ViolationFlagged { violation, .. } => {
                    EventKind::MonitorViolation { kind: violation.kind_str() }
                }
                DiagnosisDelta::ObservationUncertain { kind, .. } => {
                    EventKind::MonitorUncertain { kind }
                }
                _ => return None,
            };
            Some(Event { t_ns: d.at().as_nanos(), node: Some(tagged), kind })
        })
        .collect()
}

/// Replays `journal` into one session per member, each built exactly as
/// `QuorumSpec::build` builds that member, feeding every event to the
/// members in order — the order a live world calls monitors registered in
/// vantage order. Returns the sessions and the monitor records their
/// deltas stand for, interleaved as the live monitors' are.
fn member_replay(
    journal: &ObsJournal,
    members: &[(NodeId, f64)],
    template: MonitorConfig,
    plan: &FaultPlan,
) -> (Vec<DetectorSession>, Vec<Event>) {
    let tagged = journal.meta().tagged;
    let mut sessions: Vec<DetectorSession> = members
        .iter()
        .map(|&(v, d)| {
            SessionSpec::pool(tagged, &[v], template)
                .with_pair_distance(d)
                .with_faults(plan.clone())
                .build()
        })
        .collect();
    let mut deltas = Vec::new();
    for o in journal.events() {
        for s in &mut sessions {
            deltas.extend(s.ingest(o));
        }
    }
    (sessions, as_trace(tagged, &deltas))
}

/// The live monitors' records: the trace of a world from `record`, which
/// must have dropped none.
fn live_records(world: &World<Assembly<ObsRecorder>>) -> Vec<Event> {
    assert_eq!(world.tracer().dropped(), 0, "the ring must hold the trace");
    world.tracer().events()
}

/// The clean journal of `record(seed, pm, n, no faults)`.
fn journal(seed: u64, pm: u8, n: usize) -> mg_detect::ObsJournal {
    record(seed, pm, n, &FaultPlan::default()).probe().journal().clone()
}

#[test]
fn k1_quorum_is_byte_identical_to_the_live_monitor() {
    for (pm, plan) in [
        (0u8, FaultPlan::default()),
        (75, FaultPlan::default()),
        (75, FaultPlan::parse("seed=5,drop=0.15,corrupt=0.05").unwrap()),
    ] {
        let world = record(11, pm, 1, &plan);
        let journal = world.probe().journal();
        let meta = journal.meta();
        let template = template_from_meta(meta).with_sample_size(10);
        let members = members_from_journal(journal);
        assert_eq!(members.len(), 1);
        let v = members[0].0;
        let live = world.monitors().primary().expect("one live monitor");

        let mut q = QuorumSpec::new(meta.tagged, &members, template, 1)
            .with_faults(plan.clone())
            .build();
        journal.replay(&mut q);
        q.finish();

        let member = q.member_session(v).expect("member exists");
        assert_eq!(member.diagnosis(), live.diagnosis(), "pm={pm} plan={plan:?}");
        let (solo, records) = member_replay(journal, &members, template, &plan);
        assert_eq!(solo[0].diagnosis(), member.diagnosis(), "pm={pm}");
        assert!(!records.is_empty(), "pm={pm}");
        assert!(records == live_records(&world), "pm={pm}: histories diverge");
        assert_eq!(q.is_flagged(), live.diagnosis().is_flagged(), "pm={pm}");
    }
}

#[test]
fn every_member_of_a_wide_quorum_matches_its_live_monitor() {
    for plan in [
        FaultPlan::default(),
        FaultPlan::parse("seed=5,drop=0.15,corrupt=0.05").unwrap(),
    ] {
        let world = record(13, 75, 3, &plan);
        let journal = world.probe().journal();
        let meta = journal.meta();
        let template = template_from_meta(meta).with_sample_size(10);
        let members = members_from_journal(journal);
        assert_eq!(members.len(), 3);

        let mut q = QuorumSpec::new(meta.tagged, &members, template, 2)
            .with_faults(plan.clone())
            .build();
        journal.replay(&mut q);
        q.finish();

        let live = world.monitors();
        assert_eq!(live.len(), members.len());
        let (solo, records) = member_replay(journal, &members, template, &plan);
        for ((&(v, _), pool), solo) in members.iter().zip(live.iter()).zip(&solo) {
            let member = q.member_session(v).expect("member exists");
            assert_eq!(pool.vantages().collect::<Vec<_>>(), vec![v]);
            assert_eq!(member.diagnosis(), pool.diagnosis(), "vantage {v} plan={plan:?}");
            assert_eq!(solo.diagnosis(), member.diagnosis(), "vantage {v}");
        }
        assert!(records == live_records(&world), "plan={plan:?}: histories diverge");
    }
}

#[test]
fn f_liars_below_k_never_falsely_convict_a_clean_node() {
    let journal = journal(17, 0, 3);
    let meta = journal.meta();
    // A sample size far beyond what 4 seconds can collect: the honest
    // members are statistically silent by construction, so the only
    // accusations in flight are fabricated.
    let template = template_from_meta(meta).with_sample_size(500);
    let members = members_from_journal(&journal);
    let plan = seed_with_liars(&FaultPlan::parse("lie=0.45").unwrap(), &members, 1);

    let mut q = QuorumSpec::new(meta.tagged, &members, template, 2)
        .with_faults(plan.clone())
        .build();
    journal.replay(&mut q);
    q.finish();

    assert_eq!(q.byzantine_count(), 1);
    assert!(q.gossip().sent > 0, "the liar actually fabricated accusations");
    assert!(q.votes_against(meta.tagged) <= 1, "one liar is at most one vote");
    assert!(!q.is_flagged(), "f = 1 < k = 2 must never convict a clean node");

    // The same adversary against a k = 1 quorum succeeds — the quorum is
    // what buys the tolerance, not the adversary being weak.
    let mut weak = QuorumSpec::new(meta.tagged, &members, template, 1)
        .with_faults(plan)
        .build();
    journal.replay(&mut weak);
    weak.finish();
    assert!(weak.is_flagged(), "a single false accuser defeats k = 1");
}

#[test]
fn honest_quorum_convicts_a_real_attacker() {
    let journal = journal(13, 75, 3);
    let meta = journal.meta();
    let template = template_from_meta(meta).with_sample_size(10);
    let members = members_from_journal(&journal);

    let mut q = QuorumSpec::new(meta.tagged, &members, template, 2).build();
    journal.replay(&mut q);
    q.finish();

    assert!(q.is_flagged(), "two honest members should corroborate at pm=75");
    assert!(q.votes_against(meta.tagged) >= 2);
    let g = q.gossip();
    assert!(g.sent > 0 && g.delivered > 0 && g.dropped == 0);
}

#[test]
fn equal_seeds_replay_byte_identical_gossip() {
    let run = || {
        let journal = journal(19, 60, 3);
        let meta = journal.meta();
        let template = template_from_meta(meta).with_sample_size(10);
        let members = members_from_journal(&journal);
        let plan = FaultPlan::parse("seed=4,lie=0.3,mute=0.2").unwrap();
        let tracer = Tracer::new(TraceConfig::default());
        let metrics = Metrics::new(60);
        let mut q = QuorumSpec::new(meta.tagged, &members, template, 2)
            .with_faults(plan)
            .with_gossip(0.25, SimDuration::from_millis(5))
            .with_seed(19)
            .with_trace(tracer.clone(), metrics.clone())
            .build();
        journal.replay(&mut q);
        q.finish();
        (q.report(), q.gossip(), tracer.to_jsonl(), metrics.snapshot().to_json().render())
    };
    let (report_a, gossip_a, trace_a, metrics_a) = run();
    let (report_b, gossip_b, trace_b, metrics_b) = run();
    assert_eq!(report_a, report_b);
    assert_eq!(gossip_a, gossip_b);
    assert_eq!(trace_a, trace_b);
    assert_eq!(metrics_a, metrics_b);
    assert_eq!(gossip_a.sent, gossip_a.dropped + gossip_a.delivered, "counts conserve");
}
