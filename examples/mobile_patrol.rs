//! Monitoring a mobile attacker with vantage handoff.
//!
//! The paper's Section 5 mobile experiment: 112 nodes under random-waypoint
//! motion (0–20 m/s). No single neighbor stays in range of the attacker, so
//! a [`MonitorPool`] keeps a monitor at every node and always harvests
//! back-off samples from the vantage currently closest to the attacker —
//! "if this neighbor moves out of range, another neighbor is chosen".
//!
//! ```text
//! cargo run --release --example mobile_patrol
//! ```

use manet_guard::prelude::*;
use manet_guard::net::DstPolicy;

fn main() {
    let scenario = Scenario::new(ScenarioConfig {
        sim_secs: 60,
        rate_pps: 2.0,
        ..ScenarioConfig::mobile_paper(5, SimDuration::ZERO)
    });
    let (attacker, nearest) = scenario.tagged_pair();
    println!("attacker: node {attacker} (initially nearest neighbor: {nearest})");

    // A monitor at every other node; the pool elects the active vantage.
    let vantages: Vec<usize> = (0..scenario.positions().len())
        .filter(|&v| v != attacker)
        .collect();
    let mut template = MonitorConfig::random_paper(attacker, nearest, 240.0);
    template.sample_size = 50;
    // Mobile-pool settings (see EXPERIMENTS.md): distance-scaled calibration
    // for whichever vantage is elected, and no EIFS compensation (the
    // vantage's collision environment diverges from the attacker's).
    template.counts = NodeCounts::SimCalibrated;
    template.eifs_weight = 0.0;

    let mut builder = ScenarioBuilder::new(scenario);
    let cheat = builder.attacker(attacker);
    let watch = builder.monitor_pool(template, &vantages);
    // The attacker pushes packets at whichever neighbor is currently around.
    builder.source(SourceCfg {
        node: attacker,
        model: TrafficModel::Saturated,
        dst: DstPolicy::StickyRandomNeighbor,
        payload_len: 512,
    });

    let mut world = builder.build();
    world.set_policy(cheat.id(), BackoffPolicy::Scaled { pm: 60 });
    world.run_until(SimTime::from_secs(60));

    let pool = world.monitors().pool(watch);
    let d = pool.diagnosis();
    println!("\nafter 60 s of patrol:");
    println!("  hypothesis tests         : {}", d.tests_run);
    println!("  rejections               : {}", d.rejections);
    println!("  deterministic violations : {}", d.violations);
    let mut contributions: Vec<(usize, usize)> = pool.contributions().collect();
    contributions.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!(
        "  vantage handoffs         : {} distinct vantages contributed samples",
        contributions.len()
    );
    for (v, n) in contributions.iter().take(5) {
        println!("    node {v:>3} contributed {n} back-off samples");
    }
    println!(
        "\nverdict: mobile attacker {}",
        if d.is_flagged() { "CAUGHT" } else { "missed" }
    );
    assert!(d.is_flagged(), "a PM=60 attacker must be caught in 60 s");
}
