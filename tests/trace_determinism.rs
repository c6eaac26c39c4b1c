//! The trace acceptance gate: two equal-seed runs of an instrumented
//! detection scenario must produce byte-identical JSONL journals.
//!
//! Every journal timestamp is virtual time; wall-clock never enters the
//! journal. Any nondeterminism anywhere in the stack (hash-map
//! iteration bleeding into event order, RNG stream misuse, wall-clock
//! leakage) shows up here as a diff.

use manet_guard::prelude::*;

fn traced_run(seed: u64) -> (String, MetricsSnapshot) {
    traced_run_with_faults(seed, None)
}

fn traced_run_with_faults(seed: u64, faults: Option<&FaultPlan>) -> (String, MetricsSnapshot) {
    let scenario = Scenario::new(ScenarioConfig {
        sim_secs: 3,
        rate_pps: 2.0,
        ..ScenarioConfig::grid_paper(seed)
    });
    let (s, r) = scenario.tagged_pair();
    let mut builder = ScenarioBuilder::new(scenario);
    let attacker = builder.attacker(s);
    builder.monitor(MonitorConfig::grid_paper(s, r, 240.0));
    builder.source(SourceCfg::saturated(s, r));
    builder.trace(TraceConfig::verbose());
    builder.metrics();
    if let Some(plan) = faults {
        builder.fault(plan.clone());
    }
    let mut world = builder.build();
    world.set_policy(attacker.id(), BackoffPolicy::Scaled { pm: 70 });
    world.run_until(SimTime::from_secs(3));
    (world.tracer().to_jsonl(), world.metrics().snapshot())
}

#[test]
fn equal_seeds_give_byte_identical_journals() {
    let (ja, snap_a) = traced_run(11);
    let (jb, snap_b) = traced_run(11);
    assert!(!ja.is_empty(), "a verbose 3 s run must journal events");
    assert_eq!(ja, jb, "equal-seed journals must be byte-identical");
    assert_eq!(
        snap_a.totals, snap_b.totals,
        "equal-seed counters must agree"
    );
}

#[test]
fn equal_seeds_and_fault_plans_give_byte_identical_journals() {
    // The fault injector must not break the determinism gate: a nonzero
    // plan draws from its own seeded stream, so equal (world seed, plan)
    // pairs replay byte-identically — and the plan must visibly bite.
    let plan = FaultPlan::parse("seed=23,loss=0.15,drop=0.2,corrupt=0.1,deaf=100:10")
        .expect("valid plan");
    let (ja, snap_a) = traced_run_with_faults(11, Some(&plan));
    let (jb, snap_b) = traced_run_with_faults(11, Some(&plan));
    assert_eq!(ja, jb, "equal-seed faulted journals must be byte-identical");
    assert_eq!(snap_a.totals, snap_b.totals);
    assert!(
        snap_a.total(Counter::FaultDrops) > 0,
        "a 15% loss plan over 3 saturated seconds must eat frames"
    );
    // A different plan seed must perturb the journal (world stays fixed).
    let (jc, _) = traced_run_with_faults(11, Some(&plan.clone().with_seed(24)));
    assert_ne!(ja, jc, "different plan seeds must inject differently");
}

#[test]
fn different_seeds_diverge() {
    let (ja, _) = traced_run(11);
    let (jc, _) = traced_run(12);
    assert_ne!(ja, jc, "different seeds should not produce the same journal");
}

/// A 500-node world with one cheater, observed by a monitor mesh; returns
/// the full journal, the primary pool's diagnosis, and the counters.
fn large_world_run(
    seed: u64,
    index: MediumIndex,
    faults: Option<&FaultPlan>,
) -> (String, Diagnosis, MetricsSnapshot) {
    let scenario = Scenario::new(ScenarioConfig {
        sim_secs: 2,
        rate_pps: 1.0,
        medium_index: index,
        ..ScenarioConfig::large_world(seed, 500)
    });
    let (s, r) = scenario.tagged_pair();
    let mut builder = ScenarioBuilder::new(scenario);
    let attacker = builder.attacker(s);
    let watch = builder.monitor_mesh(&[s]);
    assert!(!watch.is_empty(), "tagged node always has a vantage in range");
    builder.source(SourceCfg::saturated(s, r));
    builder.trace(TraceConfig::verbose());
    builder.metrics();
    if let Some(plan) = faults {
        builder.fault(plan.clone());
    }
    let mut world = builder.build();
    world.set_policy(attacker.id(), BackoffPolicy::Scaled { pm: 70 });
    world.run_until(SimTime::from_secs(2));
    let diagnosis = world.monitors().diagnosis(watch[0]);
    (world.tracer().to_jsonl(), diagnosis, world.metrics().snapshot())
}

#[test]
fn index_modes_are_byte_identical_in_a_large_world() {
    // The spatial index is an execution detail: in a 500-node world the
    // naive scan and the cell grid must agree on every journaled byte and
    // on the end-to-end diagnosis — clean and under fault injection — and
    // equal-seed Grid runs must replay byte-identically.
    let plan = FaultPlan::parse("seed=23,loss=0.1,drop=0.1").expect("valid plan");
    for faults in [None, Some(&plan)] {
        let tag = if faults.is_some() { "faulted" } else { "clean" };
        let (jn, dn, sn) = large_world_run(5, MediumIndex::Naive, faults);
        let (jg, dg, sg) = large_world_run(5, MediumIndex::Grid, faults);
        assert!(!jn.is_empty(), "{tag}: a verbose 2 s run must journal events");
        assert_eq!(jn, jg, "{tag}: cross-index journals must be byte-identical");
        assert_eq!(dn, dg, "{tag}: cross-index diagnoses must agree");
        assert_eq!(sn.totals, sg.totals, "{tag}: cross-index counters must agree");
        let (jg2, dg2, _) = large_world_run(5, MediumIndex::Grid, faults);
        assert_eq!(jg, jg2, "{tag}: equal-seed Grid journals must be byte-identical");
        assert_eq!(dg, dg2, "{tag}: equal-seed Grid diagnoses must agree");
    }
}

/// FNV-1a 64.
fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_from(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a 64 digest `h` over `bytes`.
fn fnv64_from(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn mobile_world_journal_is_pinned() {
    // The paper's 112-node random world under random-waypoint mobility:
    // every mobility tick moves nodes, so the medium's footprint memo is
    // invalidated and rebuilt throughout the run. The digest of the full
    // journal pins the serial engine's exact event stream; any change to
    // dispatch order, memo validity or RNG use shows up here.
    let mut cfg = ScenarioConfig {
        sim_secs: 2,
        rate_pps: 5.0,
        ..ScenarioConfig::random_paper(13)
    };
    cfg.mobility = Some(MobilityCfg::default());
    let mut builder = ScenarioBuilder::new(Scenario::new(cfg));
    builder.trace(TraceConfig::verbose());
    let mut world = builder.build();
    world.run_until(SimTime::from_secs(2));
    assert_eq!(
        world.tracer().dropped(),
        0,
        "the ring must hold the whole journal"
    );
    let journal = world.tracer().to_jsonl();
    assert_eq!(world.events_fired(), 3383);
    assert_eq!(journal.lines().count(), 29856);
    assert_eq!(fnv64(journal.as_bytes()), 0x56a4_de1a_6e8b_56d8);
}

#[test]
fn paper_grid_world_is_pinned() {
    // The benchmark's paper grid: seed 8 at medium load (0.6 pps), a
    // saturated tagged pair whose sender cheats at PM = 75, watched by four
    // monitors at n = 10/25/50/100, for 10 s. Pins the event count, the
    // full verbose journal, and each monitor's diagnosis, samples, tests
    // and violations; any change to dispatch order, action order, monitor
    // fan-out or a test's p-value shows up here.
    let cfg = ScenarioConfig {
        sim_secs: 10,
        rate_pps: 0.6,
        ..ScenarioConfig::grid_paper(8)
    };
    let scenario = Scenario::new(cfg);
    let (s, r) = scenario.tagged_pair();
    let d = scenario.positions()[s].distance(scenario.positions()[r]);
    let mut builder = ScenarioBuilder::new(scenario);
    let attacker = builder.attacker(s);
    let watches: Vec<MonitorHandle> = [10, 25, 50, 100]
        .map(|n| builder.monitor(MonitorConfig::grid_paper(s, r, d).with_sample_size(n)))
        .to_vec();
    builder.source(SourceCfg::saturated(s, r));
    builder.trace(TraceConfig {
        capacity: 1 << 20,
        ..TraceConfig::verbose()
    });
    // A recorder alongside the monitors only reads, so the event count and
    // the journal pins below do not move.
    let meta = ObsMeta {
        tagged: s,
        vantages: vec![r],
        pair_distance: d,
        seed: 8,
        params: vec![],
    };
    let mut world = builder.probe(ObsRecorder::new(meta)).build();
    world.set_policy(attacker.id(), BackoffPolicy::Scaled { pm: 75 });
    world.run_until(SimTime::from_secs(10));
    assert_eq!(
        world.tracer().dropped(),
        0,
        "the ring must hold the whole journal"
    );
    // Digest line by line: the rendered journal would be tens of MB.
    let (mut lines, mut digest) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    for ev in world.tracer().events() {
        let line = ev.to_json().render() + "\n";
        digest = fnv64_from(digest, line.as_bytes());
        lines += 1;
    }
    // Each monitor's history: the recorded journal replayed into one
    // session per sample size lands on the live pool's diagnosis, and its
    // deltas name every sample, test result and violation in order.
    let journal = world.probe().journal();
    let monitors: Vec<u64> = watches
        .iter()
        .zip([10, 25, 50, 100])
        .map(|(&h, n)| {
            let mut session = SessionSpec::from_meta(journal.meta()).with_sample_size(n).build();
            let mut deltas = Vec::new();
            for o in journal.events() {
                deltas.extend(session.ingest(o));
            }
            assert_eq!(session.diagnosis(), world.monitors().diagnosis(h), "n = {n}");
            fnv64(format!("{:?}", (session.diagnosis(), deltas)).as_bytes())
        })
        .collect();
    assert_eq!(world.events_fired(), 48592);
    assert_eq!(lines, 562055);
    assert_eq!(digest, 0x75d0_ef4d_a22c_469e);
    assert_eq!(
        monitors,
        [
            0x50cd_df23_2fb6_1bcd,
            0x450e_aa6a_5c40_65c3,
            0x2c43_7302_d3ba_5dd9,
            0xa4fb_3a75_bad5_187f,
        ]
    );
}

#[test]
fn journal_lines_are_json_objects_in_time_order() {
    let (jsonl, snap) = traced_run(11);
    let mut last_t = 0u64;
    for line in jsonl.lines() {
        assert!(
            line.starts_with("{\"t\":") && line.ends_with('}'),
            "malformed journal line: {line}"
        );
        let t: u64 = line["{\"t\":".len()..]
            .split(',')
            .next()
            .and_then(|s| s.parse().ok())
            .expect("leading timestamp");
        assert!(t >= last_t, "journal must be chronological");
        last_t = t;
    }
    // The counters must be consistent with the journal's claims: frames were
    // sent, the monitor sampled and tested.
    assert!(snap.total(Counter::TxFrames) > 0);
    assert!(snap.total(Counter::MonitorSamples) > 0);
}
