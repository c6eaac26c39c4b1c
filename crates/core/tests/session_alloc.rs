//! What a detector session allocates while it ingests a recorded journal,
//! counted by mg-testkit's counting global allocator, and what it judges
//! when the journal's ranging snapshots are stripped.
//!
//! The allocator counts only the calling thread's allocations, so tests
//! running in parallel cannot pollute a count. A session allocates only on
//! the thread that feeds it, so zero allocations over a stretch of ingest
//! means its heap did not grow there.

use mg_dcf::BackoffPolicy;
use mg_detect::{
    Diagnosis, DiagnosisDelta, Obs, ObsJournal, ObsMeta, ObsRecorder, ScenarioBuilder, SessionSpec,
    WorldProbe,
};
use mg_net::{Scenario, ScenarioConfig, SourceCfg};
use mg_sim::{SimDuration, SimTime};
use mg_testkit::alloc::{allocs, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Simulated seconds of each recorded journal.
const SECS: u64 = 30;

/// Events a long run ingests, at least.
const LONG_RUN: usize = 1_000_000;

/// A journal of the paper grid (seed 3, 0.6 pps) with a saturated tagged
/// pair, recorded at the vantage as `serve_fanin` records its journals;
/// the sender cheats at `pm` percent.
fn paper_grid_journal(pm: u8) -> ObsJournal {
    let scenario = Scenario::new(ScenarioConfig {
        sim_secs: SECS,
        rate_pps: 0.6,
        ..ScenarioConfig::grid_paper(3)
    });
    let (s, r) = scenario.tagged_pair();
    let d = scenario.positions()[s].distance(scenario.positions()[r]);
    let mut builder = ScenarioBuilder::new(scenario);
    let attacker = builder.attacker(s);
    builder.reserve(r);
    builder.source(SourceCfg::saturated(s, r));
    let meta = ObsMeta {
        tagged: s,
        vantages: vec![r],
        pair_distance: d,
        seed: 3,
        params: vec![("pm".into(), pm.to_string())],
    };
    let mut world = builder.probe(ObsRecorder::new(meta)).build();
    if pm > 0 {
        world.set_policy(attacker.id(), BackoffPolicy::Scaled { pm });
    }
    world.run_until(SimTime::from_secs(SECS));
    world.probe().journal().clone()
}

/// Moves every timestamp of `events` `by` later, in place.
fn shift(events: &mut [Obs], by: SimDuration) {
    for o in events {
        match o {
            Obs::ChannelEdge { at, .. } | Obs::Ranging { at, .. } => *at += by,
            Obs::TxStart { at, end, .. } => {
                *at += by;
                *end += by;
            }
            Obs::Decoded { start, end, .. } => {
                *start += by;
                *end += by;
            }
            Obs::Garbled { now, .. } => *now += by,
        }
    }
}

/// Feeds `events`, recorded under `meta`, lap after lap into one
/// `SessionSpec::from_meta` session until it has ingested at least
/// [`LONG_RUN`] events. Each lap starts 5 s after the previous one's
/// recording ends, more than the monitor's 2 s resync gap, so a restart
/// reads as a contact gap, not as sequence reuse.
///
/// Returns the allocations and the events from the third lap on, the tests
/// run there, and the final diagnosis.
fn long_run(meta: &ObsMeta, mut events: Vec<Obs>) -> (u64, usize, usize, Diagnosis) {
    let laps = LONG_RUN.div_ceil(events.len());
    assert!(laps >= 3, "{} events per lap", events.len());
    let mut session = SessionSpec::from_meta(meta).build();
    let (mut a0, mut tests0) = (0, 0);
    for lap in 0..laps {
        if lap == 2 {
            (a0, tests0) = (allocs(), session.diagnosis().tests_run);
        }
        for o in &events {
            session.ingest(o);
        }
        shift(&mut events, SimDuration::from_secs(SECS + 5));
    }
    let made = allocs() - a0;
    let d = session.diagnosis();
    (made, (laps - 2) * events.len(), d.tests_run - tests0, d)
}

/// Replayed for over a million events, a session allocates nothing from its
/// third lap on: each batch is judged in buffers the pool keeps, the
/// rank-sum test sorts and ranks in a reused scratch, and the detector
/// keeps counts, not logs.
#[test]
fn session_ingest_allocates_nothing_in_steady_state() {
    for pm in [75, 0] {
        let journal = paper_grid_journal(pm);
        let (made, events, tests, d) = long_run(journal.meta(), journal.events().to_vec());
        assert!(tests >= 1_000, "pm {pm}: ran only {tests} tests: {d:?}");
        if pm == 0 {
            assert_eq!(d.violations, 0, "a lap restart is no sequence reuse: {d:?}");
        }
        assert_eq!(
            made, 0,
            "pm {pm}: {made} allocations over {events} events and {tests} tests"
        );
    }
}

/// `events` without its `Ranging` snapshots.
fn without_ranging(events: &[Obs]) -> Vec<Obs> {
    events
        .iter()
        .filter(|o| !matches!(o, Obs::Ranging { .. }))
        .cloned()
        .collect()
}

/// A static journal's snapshots only repeat the pair distance its header
/// names, so a session fed the journal without them reports the same
/// diagnosis through the same delta stream: its one member stands at that
/// distance until a snapshot says otherwise.
#[test]
fn static_journal_without_ranging_judges_the_same() {
    for pm in [75, 0] {
        let journal = paper_grid_journal(pm);
        let run = |events: &[Obs]| {
            let mut session = SessionSpec::from_meta(journal.meta()).build();
            let mut deltas: Vec<DiagnosisDelta> = Vec::new();
            for o in events {
                deltas.extend(session.ingest(o));
            }
            (session.diagnosis(), deltas)
        };
        let (full, full_deltas) = run(journal.events());
        let (bare, bare_deltas) = run(&without_ranging(journal.events()));
        assert!(full.tests_run >= 100, "pm {pm}: {full:?}");
        assert_eq!(bare, full, "pm {pm}");
        let n = full_deltas.len().max(bare_deltas.len());
        if let Some(i) = (0..n).find(|&i| full_deltas.get(i) != bare_deltas.get(i)) {
            let (a, b) = (full_deltas.get(i), bare_deltas.get(i));
            panic!("pm {pm}: delta {i} differs: {a:?} with snapshots, {b:?} without");
        }
    }
}

/// A stream with no `Ranging` snapshot elects its one member all the same
/// and judges every batch in the session's reused buffers, so it allocates
/// nothing after warm-up either.
#[test]
fn session_without_ranging_allocates_nothing_in_steady_state() {
    let journal = paper_grid_journal(75);
    let (made, events, tests, d) = long_run(journal.meta(), without_ranging(journal.events()));
    assert!(d.violations > 0, "the member still runs its checks: {d:?}");
    assert!(tests >= 1_000, "ran only {tests} tests: {d:?}");
    assert_eq!(
        made, 0,
        "{made} allocations over {events} events and {tests} tests"
    );
}
