//! What a detector session allocates while it ingests a recorded journal,
//! counted by mg-testkit's counting global allocator.
//!
//! The allocator counts only the calling thread's allocations, and this
//! file holds nothing else, so tests running in parallel cannot pollute a
//! count.

use mg_dcf::BackoffPolicy;
use mg_detect::{ObsJournal, ObsMeta, ObsRecorder, ScenarioBuilder, SessionSpec, WorldProbe};
use mg_net::{Scenario, ScenarioConfig, SourceCfg};
use mg_sim::SimTime;
use mg_testkit::alloc::{allocs, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A journal of the paper grid (seed 3, 0.6 pps) with a saturated tagged
/// pair, recorded at the vantage as `serve_fanin` records its journals;
/// the sender cheats at `pm` percent.
fn paper_grid_journal(secs: u64, pm: u8) -> ObsJournal {
    let scenario = Scenario::new(ScenarioConfig {
        sim_secs: secs,
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
    world.run_until(SimTime::from_secs(secs));
    world.probe().journal().clone()
}

/// Once a session has ingested the first half of a 30 s journal, the
/// second half — dozens of rank-sum tests at the journal's sample size of
/// 50 — allocates only when a history vector (all samples, all tests, all
/// violations) doubles: each batch is judged in buffers the pool keeps,
/// and the rank-sum test sorts and ranks in a reused scratch. The count is
/// 3 for the cheater and 2 for the compliant sender.
#[test]
fn session_ingest_allocates_only_for_history_growth() {
    for pm in [75, 0] {
        let journal = paper_grid_journal(30, pm);
        let (first, second) = journal.events().split_at(journal.len() / 2);
        let mut session = SessionSpec::from_meta(journal.meta()).build();
        for o in first {
            session.ingest(o);
        }
        let tests = session.diagnosis().tests_run;
        let a0 = allocs();
        for o in second {
            session.ingest(o);
        }
        let made = allocs() - a0;
        let tests = session.diagnosis().tests_run - tests;
        assert!(
            tests >= 30,
            "pm {pm}: the second half must run ≥ 30 tests, ran {tests}"
        );
        assert!(
            made < 8,
            "pm {pm}: {made} allocations over {} events and {tests} tests",
            second.len()
        );
    }
}
