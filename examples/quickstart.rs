//! Quickstart: catch a back-off cheater in the paper's grid network.
//!
//! A tagged node is configured with the paper's "percentage of misbehavior"
//! knob (PM = 75: it counts down only a quarter of every dictated back-off),
//! saturates a flow to its neighbor, and the neighbor runs the paper's
//! monitor. Within a few simulated seconds the cheater is flagged both
//! statistically (Wilcoxon rank-sum on estimated vs dictated back-offs) and
//! deterministically (windows physically too short).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use manet_guard::prelude::*;

fn main() {
    // The paper's Table 1 grid: 7×8 nodes, 240 m spacing, Poisson background.
    let scenario = Scenario::new(ScenarioConfig {
        sim_secs: 30,
        rate_pps: 2.0,
        ..ScenarioConfig::grid_paper(42)
    });
    let (attacker, vantage) = scenario.tagged_pair();
    println!("attacker: node {attacker}, monitoring neighbor: node {vantage}");

    // The monitor knows the attacker's MAC address, hence its entire
    // dictated back-off sequence.
    let mut builder = ScenarioBuilder::new(scenario);
    let cheat = builder.attacker(attacker);
    let watch = builder.monitor(MonitorConfig::grid_paper(attacker, vantage, 240.0));
    builder.source(SourceCfg::saturated(attacker, vantage));

    let mut world = builder.build();
    world.set_policy(cheat.id(), BackoffPolicy::Scaled { pm: 75 });
    world.run_until(SimTime::from_secs(30));

    let diagnosis = world.monitors().diagnosis(watch);
    println!("\nafter {} of channel time:", SimDuration::from_secs(30));
    println!("  back-off samples collected : {}", diagnosis.samples_collected);
    println!("  hypothesis tests run       : {}", diagnosis.tests_run);
    println!("  tests rejecting H0         : {}", diagnosis.rejections);
    println!("  deterministic violations   : {}", diagnosis.violations);
    println!("  measured channel load      : {:.2}", diagnosis.measured_rho);
    println!(
        "\nverdict: node {attacker} is {}",
        if diagnosis.is_flagged() {
            "MISBEHAVING (flagged)"
        } else {
            "apparently well-behaved"
        }
    );
    assert!(diagnosis.is_flagged(), "a PM=75 attacker must be caught");
}
