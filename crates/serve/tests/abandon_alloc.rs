//! What failed connections leave behind in the daemon, measured by
//! mg-testkit's process-wide live-bytes gauge.
//!
//! The gauge counts every thread's memory, the daemon worker's included,
//! so this file holds one test and nothing else.

use mg_dcf::BackoffPolicy;
use mg_detect::{
    JournalFormat, JournalReader, ObsMeta, ObsRecorder, ScenarioBuilder, WorldProbe,
};
use mg_net::{Scenario, ScenarioConfig, SourceCfg};
use mg_serve::{serve_connection, wire, Daemon, ServeConfig, WireError};
use mg_sim::SimTime;
use mg_testkit::alloc::{live_bytes, Counting};
use std::io::Cursor;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Connections that send one valid frame and then a garbage frame.
const FAILED: u64 = 64;

/// The first 1,000-event frame of a recorded 2 s grid journal.
fn first_frame() -> Vec<u8> {
    let scenario = Scenario::new(ScenarioConfig {
        sim_secs: 2,
        rate_pps: 2.0,
        ..ScenarioConfig::grid_paper(5)
    });
    let (s, r) = scenario.tagged_pair();
    let mut b = ScenarioBuilder::new(scenario);
    let a = b.attacker(s);
    b.source(SourceCfg::saturated(s, r));
    let meta = ObsMeta {
        tagged: s,
        vantages: vec![r],
        pair_distance: 240.0,
        seed: 5,
        params: vec![("kind".into(), "grid".into()), ("pm".into(), "60".into())],
    };
    let mut world = b.probe(ObsRecorder::new(meta)).build();
    world.set_policy(a.id(), BackoffPolicy::Scaled { pm: 60 });
    world.run_until(SimTime::from_secs(2));
    let journal = world.probe().journal().encode(JournalFormat::Binary);
    let mut framed = Vec::new();
    wire::send_journal(&mut framed, &JournalReader::from_bytes(journal).unwrap(), 1_000).unwrap();
    let mut r = &framed[..];
    wire::read_frame(&mut r).unwrap().expect("one frame")
}

/// Each failed connection's handle is dropped unclosed; its session must
/// be freed then, not held until shutdown.
#[test]
fn failed_connections_free_their_sessions() {
    let frame = first_frame();
    let chunk = JournalReader::from_bytes(frame.clone()).unwrap();
    let mut bad = Vec::new();
    wire::write_frame(&mut bad, &frame).unwrap();
    wire::write_frame(&mut bad, b"garbage").unwrap();

    // Small batches keep the spare list's share of the gauge (at most
    // eight batches) well below one session's footprint.
    let cfg = ServeConfig { workers: 1, batch: 16, ..ServeConfig::default() };
    let daemon = Daemon::start(cfg, None);
    let fail = || {
        let got = serve_connection(&mut Cursor::new(bad.clone()), &daemon);
        assert!(matches!(got, Err(WireError::Journal(_))), "{got:?}");
    };
    // A close returns once the one worker has run every job queued before
    // it: the queue is FIFO.
    let settle = || daemon.open(chunk.meta().clone()).close().expect("daemon alive");

    // Warm-up, so the spare batches and the worker's tables are in place.
    fail();
    settle();

    // One session's footprint: the frame's events ingested, stream open.
    let base = live_bytes();
    let mut held = daemon.open(chunk.meta().clone());
    for ev in chunk.events() {
        held.push(ev.unwrap());
    }
    held.flush();
    settle();
    let footprint = live_bytes().saturating_sub(base);
    held.close().expect("daemon alive");

    let before = live_bytes();
    for _ in 1..FAILED {
        fail();
    }
    settle();
    let grown = live_bytes().saturating_sub(before);
    assert!(
        grown < FAILED * footprint / 8,
        "{} failed connections left {grown} bytes live; one session holds {footprint}",
        FAILED - 1
    );
    assert_eq!(daemon.shutdown().abandoned, FAILED);
}
