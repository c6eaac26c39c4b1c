//! Multi-hop routing over the DCF, with detection running on a relay.
//!
//! The paper's Table 1 lists AODV as the routing protocol. This example
//! routes application packets across a 5-node chain with AODV-lite
//! (RREQ flood → RREP → hop-by-hop data) while a monitor watches one of the
//! relays — protocol-compliant forwarding raises no flags even under
//! routing broadcast traffic.
//!
//! ```text
//! cargo run --release --example multihop_aodv
//! ```

use manet_guard::prelude::*;

fn main() {
    // A chain: 0 - 1 - 2 - 3 - 4, 200 m hops (250 m decode range).
    let positions: Vec<Vec2> = (0..5).map(|i| Vec2::new(i as f64 * 200.0, 0.0)).collect();
    // Node 2 (the middle relay) is watched by its neighbor node 1.
    let mut mc = MonitorConfig::grid_paper(2, 1, 200.0);
    mc.sample_size = 10;
    let mut world = World::new(
        positions,
        PropagationModel::free_space(),
        250.0,
        550.0,
        MacTiming::paper_default(),
        13,
        MonitorPool::new(mc.tagged, &[mc.vantage], mc),
    );
    world.enable_routing();

    // 40 application packets from node 0 to node 4 (4 hops each).
    for app_id in 0..40 {
        world.send_routed(0, 4, app_id);
    }
    world.run_until(SimTime::from_secs(20));

    println!("routed deliveries 0 -> 4 : {}/40", world.app_delivered);
    println!("MAC-level receptions     : {}", world.mac_delivered);
    for n in 0..5 {
        let s = world.mac(n).stats();
        println!(
            "  node {n}: rts {} / data {} / delivered {} / rx {}",
            s.rts_sent, s.data_sent, s.delivered, s.rx_delivered
        );
    }

    let d = world.observer().diagnosis();
    println!(
        "\nmonitor at node 1 watching relay node 2: tests {}, rejections {}, violations {}",
        d.tests_run, d.rejections, d.violations
    );
    assert!(world.app_delivered >= 35, "most packets must arrive");
    assert_eq!(d.violations, 0, "a compliant relay must not be flagged");
    assert_eq!(d.rejections, 0, "a compliant relay must not be flagged");
    println!("relay node 2 is clean — forwarding under AODV raises no alarms");
}
