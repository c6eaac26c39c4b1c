//! The world event loop's allocation budget, counted by mg-testkit's
//! counting global allocator.
//!
//! The allocator counts only the calling thread's allocations, and this
//! file holds nothing else, so tests running in parallel cannot pollute a
//! count. The world is the paper grid at medium load with a saturated
//! tagged pair whose sender cheats at PM = 75.

use manet_guard::prelude::*;
use mg_testkit::alloc::{allocs, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The paper grid (seed 8, 0.6 pps) with the cheating saturated pair, and
/// the four Fig. 5 monitors (n = 10/25/50/100) when `monitored`.
fn paper_grid(monitored: bool) -> World<Assembly> {
    let scenario = Scenario::new(ScenarioConfig {
        sim_secs: 10,
        rate_pps: 0.6,
        ..ScenarioConfig::grid_paper(8)
    });
    let (s, r) = scenario.tagged_pair();
    let d = scenario.positions()[s].distance(scenario.positions()[r]);
    let mut builder = ScenarioBuilder::new(scenario);
    let attacker = builder.attacker(s);
    builder.reserve(r);
    if monitored {
        for n in [10, 25, 50, 100] {
            builder.monitor(MonitorConfig::grid_paper(s, r, d).with_sample_size(n));
        }
    }
    builder.source(SourceCfg::saturated(s, r));
    let mut world = builder.build();
    world.set_policy(attacker.id(), BackoffPolicy::Scaled { pm: 75 });
    world
}

/// No event allocates once the buffers have grown to the run's working
/// size. Growth itself still allocates, and it is not confined to the
/// first seconds: a buffer reaching a new high-water mark late (the slab
/// slot for a record number of concurrent frames, a node's first
/// footprint memo) allocates when it happens. This world has none from
/// 5 s to 10 s; other grid seeds have a handful.
#[test]
fn unmonitored_world_allocates_nothing_in_steady_state() {
    let mut world = paper_grid(false);
    world.run_until(SimTime::from_secs(5));
    let (a0, e0) = (allocs(), world.events_fired());
    world.run_until(SimTime::from_secs(10));
    let (made, events) = (allocs() - a0, world.events_fired() - e0);
    assert!(events > 10_000, "the window must be busy: {events} events");
    assert_eq!(
        made, 0,
        "{made} allocations over {events} events from 5 s to 10 s"
    );
}

#[test]
fn monitored_world_allocates_less_than_once_per_event() {
    let mut world = paper_grid(true);
    let a0 = allocs();
    world.run_until(SimTime::from_secs(10));
    let (made, events) = (allocs() - a0, world.events_fired());
    assert!(
        world.monitors().iter().all(|p| p.diagnosis().is_flagged()),
        "every monitor must flag the PM = 75 cheater"
    );
    let per_event = made as f64 / events as f64;
    assert!(
        per_event < 1.0,
        "{made} allocations over {events} events = {per_event:.2} per event"
    );
}
