//! Frame-level timeline: watch the verifiable four-way handshake on air.
//!
//! Runs a saturated pair with the `mg-trace` journal at full verbosity and
//! prints the first exchanges — RTS → CTS → DATA → ACK, with the channel
//! busy/idle edges and back-off freezes in between — then the monitor's view
//! of the same window (dictated vs estimated back-off, read from the
//! monitor's own trace records) and the stack-wide metrics counters.
//!
//! ```text
//! cargo run --release --example trace_timeline
//! ```

use manet_guard::prelude::*;
use manet_guard::trace::EventKind;

fn main() {
    let positions = vec![Vec2::new(0.0, 0.0), Vec2::new(240.0, 0.0)];
    let mut mc = MonitorConfig::grid_paper(0, 1, 240.0);
    mc.sample_size = 8;
    let tracer = Tracer::new(TraceConfig::verbose());
    let metrics = Metrics::new(2);
    let mut pool = MonitorPool::new(mc.tagged, &[mc.vantage], mc);
    pool.set_instrumentation(tracer.clone(), metrics.clone());
    let mut world = World::new(
        positions,
        PropagationModel::free_space(),
        250.0,
        550.0,
        MacTiming::paper_default(),
        2,
        pool,
    );
    world.set_tracer(tracer);
    world.set_metrics(metrics);
    world.add_source(SourceCfg::saturated(0, 1));
    world.run_until(SimTime::from_millis(120));

    println!("on-air journal (node 0 saturated toward node 1):\n");
    let events = world.tracer().events();
    for ev in events
        .iter()
        .filter(|e| !matches!(e.kind.subsystem(), Subsystem::Sched))
        .take(48)
    {
        let node = ev
            .node
            .map(|n| format!("node {n}"))
            .unwrap_or_else(|| "      ".into());
        println!(
            "  {:>9.3} ms  {node}  {:<15} {:?}",
            ev.t_ns as f64 / 1_000_000.0,
            ev.kind.tag(),
            ev.kind
        );
    }
    println!(
        "\n({} events journaled, {} overwritten by the ring)",
        world.tracer().len(),
        world.tracer().dropped()
    );

    println!("\nmonitor's back-off ledger (dictated x vs estimated y, slots):");
    assert_eq!(world.tracer().dropped(), 0, "the ring must hold every sample");
    let samples = events.iter().filter_map(|e| match e.kind {
        EventKind::MonitorSample { dictated, estimated } => Some((dictated, estimated)),
        _ => None,
    });
    for (i, (x, y)) in samples.enumerate() {
        println!("  window {i:>2}: dictated {x:>5.1}  estimated {y:>7.2}");
    }
    let d = world.observer().diagnosis();
    println!(
        "\n{} samples, {} tests, {} rejections — node 0 is {}",
        d.samples_collected,
        d.tests_run,
        d.rejections,
        if d.is_flagged() { "flagged" } else { "clean" }
    );

    let snap = world.metrics().snapshot();
    println!("\nstack metrics: {}", snap.to_json().render());
    assert!(!d.is_flagged());
    assert!(snap.total(Counter::TxFrames) > 0);
}
