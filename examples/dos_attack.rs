//! The attack the paper defends against: bandwidth starvation.
//!
//! Three mutually-in-range senders contend for the channel, each saturated.
//! In the honest round everyone gets a fair share; in the attack round one
//! node shrinks its back-off timers (PM = 95) and grabs the channel — "a
//! drastically reduced allocation of bandwidth to well-behaved nodes"
//! (paper, abstract). The example then shows the victim-side monitor
//! catching the attacker.
//!
//! ```text
//! cargo run --release --example dos_attack
//! ```

use manet_guard::prelude::*;

/// Runs the three-sender contention scenario; returns per-node deliveries.
fn contention_round(attacker_pm: Option<u8>) -> Vec<u64> {
    let positions = vec![
        Vec2::new(0.0, 0.0),
        Vec2::new(200.0, 0.0),
        Vec2::new(100.0, 170.0),
    ];
    let mut world: World<()> = World::new(
        positions,
        PropagationModel::free_space(),
        250.0,
        550.0,
        MacTiming::paper_default(),
        99,
        (),
    );
    if let Some(pm) = attacker_pm {
        world.set_policy(0, BackoffPolicy::Scaled { pm });
    }
    world.add_source(SourceCfg::saturated(0, 1));
    world.add_source(SourceCfg::saturated(1, 2));
    world.add_source(SourceCfg::saturated(2, 0));
    world.run_until(SimTime::from_secs(10));
    (0..3).map(|i| world.mac(i).stats().delivered).collect()
}

fn main() {
    println!("three saturated senders, 10 s of channel time\n");

    let fair = contention_round(None);
    let total_fair: u64 = fair.iter().sum();
    println!("honest round:   deliveries = {fair:?}  (total {total_fair})");

    let attacked = contention_round(Some(95));
    let total_attacked: u64 = attacked.iter().sum();
    println!("attack round:   deliveries = {attacked:?}  (total {total_attacked})");
    println!(
        "  node 0 share: {:.0}% -> {:.0}%  <- the PM=95 attacker",
        100.0 * fair[0] as f64 / total_fair as f64,
        100.0 * attacked[0] as f64 / total_attacked as f64,
    );
    let victims_before = fair[1] + fair[2];
    let victims_after = attacked[1] + attacked[2];
    println!(
        "  victims lose {:.0}% of their throughput\n",
        100.0 * (1.0 - victims_after as f64 / victims_before as f64)
    );
    assert!(attacked[0] > fair[0], "the attack must pay off to matter");

    // Now the defense: node 1 (a victim and neighbor) monitors node 0.
    let positions = vec![
        Vec2::new(0.0, 0.0),
        Vec2::new(200.0, 0.0),
        Vec2::new(100.0, 170.0),
    ];
    let mut mc = MonitorConfig::grid_paper(0, 1, 200.0);
    mc.sample_size = 25;
    let mut world = World::new(
        positions,
        PropagationModel::free_space(),
        250.0,
        550.0,
        MacTiming::paper_default(),
        99,
        MonitorPool::new(mc.tagged, &[mc.vantage], mc),
    );
    world.set_policy(0, BackoffPolicy::Scaled { pm: 95 });
    world.add_source(SourceCfg::saturated(0, 1));
    world.add_source(SourceCfg::saturated(1, 2));
    world.add_source(SourceCfg::saturated(2, 0));
    world.run_until(SimTime::from_secs(10));
    let d = world.observer().diagnosis();
    println!(
        "defense: monitor at node 1 ran {} tests, rejected {} ({} deterministic violations)",
        d.tests_run, d.rejections, d.violations
    );
    println!(
        "verdict: attacker {}",
        if d.is_flagged() { "CAUGHT" } else { "missed" }
    );
    assert!(d.is_flagged());
}
