//! Serving-layer throughput: N concurrent journal streams through the
//! `mgd` demux engine (one bounded std `sync_channel` per worker → sharded
//! workers → one incremental `DetectorSession` per stream).
//!
//! The workload is the daemon's steady state: many live streams pushing
//! interleaved observation batches. Each synthetic stream is a one-vantage
//! grid world emitting carrier-sense edges and garbled receptions — the
//! high-rate events a real vantage produces between tagged exchanges — so
//! the measured path is demux + queue hand-off + session ingest, not frame
//! cryptography. Events are pushed round-robin across all streams so every
//! batch lands on a different session (worst case for locality).
//!
//! The headline figure is aggregate events/sec across all streams; the PR
//! gate pins **≥ 1M events/sec across ≥ 1k streams** on the reference
//! 1-core container. Results go to `BENCH_serve.json` (override with
//! `MG_BENCH_OUT`).
//!
//! Environment knobs (this binary drives no simulation, so the usual
//! `MG_TRIALS`/`MG_SIM_SECS` pair does not apply):
//!
//! | variable | default | meaning |
//! |----------|---------|---------|
//! | `MG_SERVE_STREAMS` | 1000 | concurrent streams |
//! | `MG_SERVE_EVENTS` | 1000 | events per stream |
//! | `MG_SERVE_WORKERS` | available parallelism | daemon worker threads |
//! | `MG_SERVE_BATCH` | 512 | events per queue hand-off |
//! | `MG_SERVE_QUEUE_CAP` | 1024 | bounded queue capacity per worker |
//! | `MG_SERVE_REQUIRE` | unset | when `1`, exit 1 if the 1M ev/s pin fails |
//!
//! ```text
//! MG_SERVE_REQUIRE=1 cargo run --release -p mg-bench --bin bench_serve
//! ```

use mg_obs::{Obs, ObsMeta};
use mg_serve::{Daemon, ServeConfig};
use mg_sim::SimTime;
use mg_trace::json::Json;
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Err(_) => default,
        Ok(raw) => match raw.trim().parse() {
            Ok(v) if v > 0 => v,
            _ => {
                eprintln!("bench_serve: invalid {name} value {raw:?}: expected a positive integer");
                std::process::exit(2);
            }
        },
    }
}

/// One vantage's synthetic steady-state traffic: alternating busy/idle
/// carrier-sense edges with a garbled reception closing every fourth busy
/// period — the event mix a monitor digests between tagged exchanges.
fn synthetic_events(vantage: usize, count: usize) -> Vec<Obs> {
    let mut events = Vec::with_capacity(count);
    let mut t: u64 = 1_000;
    for i in 0..count {
        // 20 µs idle gaps, 200 µs busy periods: a plausibly loaded channel.
        t += if i % 2 == 0 { 20_000 } else { 200_000 };
        if i % 8 == 7 {
            events.push(Obs::Garbled {
                at: vantage,
                now: SimTime::from_nanos(t),
            });
        } else {
            events.push(Obs::ChannelEdge {
                node: vantage,
                busy: i % 2 == 0,
                at: SimTime::from_nanos(t),
            });
        }
    }
    events
}

fn main() {
    let streams = env_usize("MG_SERVE_STREAMS", 1000);
    let events_per_stream = env_usize("MG_SERVE_EVENTS", 1000);
    // Default to the daemon's own resolved worker count (the host's
    // available parallelism) so the reported figure reflects what `mgd`
    // would actually run with on this machine.
    let workers = env_usize("MG_SERVE_WORKERS", ServeConfig::default().workers);
    let batch = env_usize("MG_SERVE_BATCH", 512);
    let queue_cap = env_usize("MG_SERVE_QUEUE_CAP", 1024);

    let cfg = ServeConfig {
        workers,
        queue_cap,
        batch,
        ..ServeConfig::default()
    };
    let policy = cfg.policy.name();
    println!(
        "bench_serve: {streams} streams x {events_per_stream} events, {workers} worker(s), batch {batch}, queue cap {queue_cap}"
    );

    // One template tape shared by every stream: what varies per stream is
    // the session, not the observation content.
    let tape = synthetic_events(1, events_per_stream);
    let meta = |seed: u64| ObsMeta {
        tagged: 0,
        vantages: vec![1],
        pair_distance: 240.0,
        seed,
        params: vec![("kind".into(), "grid".into())],
    };

    let daemon = Daemon::start(cfg, None);
    let t0 = Instant::now();
    let mut handles: Vec<_> = (0..streams).map(|s| daemon.open(meta(s as u64))).collect();
    // Round-robin in batch-sized strides: every hand-off switches streams,
    // the demultiplexer's worst case.
    let mut offset = 0;
    while offset < events_per_stream {
        let end = (offset + batch).min(events_per_stream);
        for h in handles.iter_mut() {
            for o in &tape[offset..end] {
                h.push(o.clone());
            }
        }
        offset = end;
    }
    let mut flagged = 0u64;
    for h in handles.drain(..) {
        let report = h.close().expect("daemon alive");
        flagged += report.flagged as u64;
    }
    let wall = t0.elapsed();
    let stats = daemon.shutdown();

    let total = (streams * events_per_stream) as u64;
    assert_eq!(stats.events, total, "daemon lost events under Block policy");
    assert_eq!(stats.streams, streams as u64);
    assert_eq!(stats.dropped, 0);
    assert_eq!(flagged, 0, "synthetic background traffic must stay clean");

    let wall_ms = wall.as_secs_f64() * 1e3;
    let eps = total as f64 / wall.as_secs_f64().max(1e-9);
    const TARGET_EPS: f64 = 1_000_000.0;
    let pass = eps >= TARGET_EPS && streams >= 1000;

    let json = Json::obj([
        ("bench", Json::from("serve: concurrent journal streams through the mgd demux")),
        ("streams", Json::from(streams as u64)),
        ("events_per_stream", Json::from(events_per_stream as u64)),
        ("total_events", Json::from(total)),
        ("workers", Json::from(workers as u64)),
        ("batch", Json::from(batch as u64)),
        ("queue_cap", Json::from(queue_cap as u64)),
        ("policy", Json::from(policy)),
        ("wall_ms", Json::Num((wall_ms * 10.0).round() / 10.0)),
        ("events_per_sec", Json::Num(eps.round())),
        ("deltas", Json::from(stats.deltas)),
        ("dropped", Json::from(stats.dropped)),
        ("target_events_per_sec", Json::Num(TARGET_EPS)),
        ("target_streams", Json::from(1000u64)),
        ("pass", Json::Bool(pass)),
    ]);
    let path = std::env::var("MG_BENCH_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());
    std::fs::write(&path, format!("{}\n", json.render())).unwrap_or_else(|e| {
        eprintln!("bench_serve: cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!(
        "{total} events across {streams} streams in {wall_ms:.1} ms = {eps:.0} ev/s (target {TARGET_EPS:.0})"
    );
    println!("wrote {path}");
    if std::env::var("MG_SERVE_REQUIRE").as_deref() == Ok("1") && !pass {
        eprintln!("bench_serve: FAILED the >=1M events/sec across >=1k streams pin");
        std::process::exit(1);
    }
}
