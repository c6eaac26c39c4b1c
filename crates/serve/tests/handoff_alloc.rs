//! What a `StreamHandle` hand-off allocates on the producer thread,
//! counted by mg-testkit's counting global allocator.
//!
//! The allocator counts only the calling thread's allocations, so the
//! daemon's worker threads, which ingest and then recycle each batch, do
//! not enter the count. This file holds nothing else.

use mg_obs::{Obs, ObsMeta};
use mg_serve::{Daemon, ServeConfig};
use mg_sim::SimTime;
use mg_testkit::alloc::{allocs, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A batch is either a recycled one or allocated once at full capacity.
/// Regrowing a 256-event batch from zero capacity would take 7.
#[test]
fn a_hand_off_allocates_less_than_twice() {
    const HANDOFFS: u64 = 20;
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let batch = cfg.batch as u64;
    let daemon = Daemon::start(cfg, None);
    let mut stream = daemon.open(ObsMeta {
        tagged: 0,
        vantages: vec![1],
        pair_distance: 240.0,
        seed: 7,
        params: vec![("kind".into(), "grid".into())],
    });
    let a0 = allocs();
    for i in 0..HANDOFFS * batch {
        stream.push(Obs::ChannelEdge {
            node: 1,
            busy: i % 2 == 0,
            at: SimTime::from_micros(10 * i),
        });
    }
    let made = allocs() - a0;
    let report = stream.close().expect("daemon alive");
    assert_eq!(report.events, HANDOFFS * batch);
    assert_eq!(daemon.shutdown().events, HANDOFFS * batch);
    assert!(
        made < 2 * HANDOFFS,
        "{made} allocations over {HANDOFFS} hand-offs"
    );
}
