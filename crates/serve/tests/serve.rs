//! Integration tests for the serving layer: channel semantics, wire
//! framing, and the load-bearing invariant — a daemon-served stream's
//! report is byte-identical to an offline `detect --replay` of the same
//! journal, in-process and over a real TCP socket.

use mg_detect::{
    render_report, JournalFormat, JournalReader, ObsJournal, ObsMeta, ObsRecorder,
    ScenarioBuilder, SessionSpec, WorldProbe,
};
use mg_dcf::BackoffPolicy;
use mg_net::{Scenario, ScenarioConfig, SourceCfg};
use mg_obs::Obs;
use mg_serve::{
    mpmc, serve_connection, wire, Daemon, Policy, ServeConfig,
};
use mg_sim::SimTime;
use std::io::{Read, Write};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------- mpmc --

#[test]
fn mpmc_send_blocks_until_a_recv_frees_space() {
    let (tx, rx) = mpmc::bounded::<u32>(1);
    tx.send(1).unwrap();
    let t = std::thread::spawn(move || tx.send(2).map_err(|_| ()));
    // The sender is parked on the full queue; one recv unblocks it.
    std::thread::sleep(std::time::Duration::from_millis(20));
    assert_eq!(rx.recv(), Some(1));
    t.join().unwrap().unwrap();
    assert_eq!(rx.recv(), Some(2));
}

#[test]
fn mpmc_try_send_sheds_on_full_and_fails_on_closed() {
    let (tx, rx) = mpmc::bounded::<u32>(2);
    tx.try_send(1).unwrap();
    tx.try_send(2).unwrap();
    assert_eq!(tx.try_send(3), Err(mpmc::TrySendError::Full(3)));
    rx.close();
    assert_eq!(tx.try_send(4), Err(mpmc::TrySendError::Closed(4)));
    // Already-queued values stay readable after the close.
    assert_eq!(rx.recv(), Some(1));
    assert_eq!(rx.recv(), Some(2));
    assert_eq!(rx.recv(), None);
}

#[test]
fn mpmc_recv_drains_then_reports_disconnection() {
    let (tx, rx) = mpmc::bounded::<u32>(8);
    tx.send(7).unwrap();
    tx.send(8).unwrap();
    drop(tx);
    assert_eq!(rx.recv(), Some(7));
    assert_eq!(rx.recv(), Some(8));
    assert_eq!(rx.recv(), None);
}

#[test]
fn mpmc_multi_consumer_partitions_the_stream() {
    let (tx, rx) = mpmc::bounded::<u64>(16);
    let rx2 = rx.clone();
    let sums: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
    let consumers: Vec<_> = [rx, rx2]
        .into_iter()
        .map(|r| {
            let sums = sums.clone();
            std::thread::spawn(move || {
                while let Some(v) = r.recv() {
                    *sums.lock().unwrap() += v;
                }
            })
        })
        .collect();
    for v in 1..=100u64 {
        tx.send(v).unwrap();
    }
    drop(tx);
    for c in consumers {
        c.join().unwrap();
    }
    assert_eq!(*sums.lock().unwrap(), 5050);
}

// ---------------------------------------------------------------- wire --

#[test]
fn wire_frames_roundtrip_and_terminate() {
    let mut buf = Vec::new();
    wire::write_frame(&mut buf, b"alpha").unwrap();
    wire::write_frame(&mut buf, b"beta").unwrap();
    wire::write_end(&mut buf).unwrap();
    let mut r = &buf[..];
    assert_eq!(wire::read_frame(&mut r).unwrap().as_deref(), Some(&b"alpha"[..]));
    assert_eq!(wire::read_frame(&mut r).unwrap().as_deref(), Some(&b"beta"[..]));
    assert_eq!(wire::read_frame(&mut r).unwrap(), None);
}

#[test]
fn wire_rejects_oversized_and_truncated_frames() {
    // A hostile length prefix must not allocate; it is InvalidData.
    let mut big = ((wire::MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
    big.extend_from_slice(b"x");
    let err = wire::read_frame(&mut &big[..]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    // A frame cut short mid-payload is UnexpectedEof.
    let mut cut = Vec::new();
    wire::write_frame(&mut cut, b"payload").unwrap();
    cut.truncate(cut.len() - 3);
    let err = wire::read_frame(&mut &cut[..]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}

#[test]
fn wire_send_journal_chunks_carry_every_event() {
    let journal = record(11, 60);
    let reader = JournalReader::from_bytes(journal.encode(JournalFormat::Binary)).unwrap();
    let mut buf = Vec::new();
    let sent = wire::send_journal(&mut buf, &reader, 100).unwrap();
    assert_eq!(sent, journal.len() as u64);
    // Decode every chunk back; the concatenation must equal the original.
    let mut r = &buf[..];
    let mut events: Vec<Obs> = Vec::new();
    while let Some(payload) = wire::read_frame(&mut r).unwrap() {
        let chunk = JournalReader::from_bytes(payload).unwrap();
        assert_eq!(chunk.meta(), journal.meta());
        for ev in chunk.events() {
            events.push(ev.unwrap());
        }
    }
    assert_eq!(events.len(), journal.len());
    assert_eq!(&events[..], journal.events());
}

// -------------------------------------------------------------- daemon --

/// Records one small saturated grid world, exactly as `detect --record`
/// would (the journal's meta carries the replay-sufficient params).
fn record(seed: u64, pm: u8) -> ObsJournal {
    let scenario = Scenario::new(ScenarioConfig {
        sim_secs: 2,
        rate_pps: 2.0,
        ..ScenarioConfig::grid_paper(seed)
    });
    let (s, r) = scenario.tagged_pair();
    let mut b = ScenarioBuilder::new(scenario);
    let a = b.attacker(s);
    b.source(SourceCfg::saturated(s, r));
    let meta = ObsMeta {
        tagged: s,
        vantages: vec![r],
        pair_distance: 240.0,
        seed,
        params: vec![("kind".into(), "grid".into()), ("pm".into(), pm.to_string())],
    };
    let mut world = b.probe(ObsRecorder::new(meta)).build();
    world.set_policy(a.id(), BackoffPolicy::Scaled { pm });
    world.run_until(SimTime::from_secs(2));
    world.probe().journal().clone()
}

/// The offline reference: what `detect --replay` prints for this journal.
fn offline_report(journal: &ObsJournal) -> String {
    let meta = journal.meta();
    let mut session = SessionSpec::from_meta(meta).build();
    journal.replay(&mut session);
    render_report(meta.tagged, 50, false, &session.diagnosis())
}

#[test]
fn daemon_stream_report_is_byte_identical_to_offline_replay() {
    let journal = record(5, 60);
    assert!(!journal.is_empty());
    let reference = offline_report(&journal);

    let daemon = Daemon::start(ServeConfig::default(), None);
    let mut stream = daemon.open(journal.meta().clone());
    for o in journal.events() {
        stream.push(o.clone());
    }
    let report = stream.close().expect("daemon alive");
    assert_eq!(report.report, reference);
    assert_eq!(report.events, journal.len() as u64);
    assert_eq!(report.dropped, 0);

    let stats = daemon.shutdown();
    assert_eq!(stats.streams, 1);
    assert_eq!(stats.events, journal.len() as u64);
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.abandoned, 0);
}

#[test]
fn daemon_serves_interleaved_streams_independently() {
    // A misbehaving and a clean world, interleaved event by event through
    // the same daemon: each session must land on its own offline verdict.
    let hot = record(5, 80);
    let clean = record(6, 0);
    let daemon = Daemon::start(
        ServeConfig {
            workers: 2,
            batch: 32,
            ..ServeConfig::default()
        },
        None,
    );
    let mut s1 = daemon.open(hot.meta().clone());
    let mut s2 = daemon.open(clean.meta().clone());
    let (e1, e2) = (hot.events(), clean.events());
    for i in 0..e1.len().max(e2.len()) {
        if let Some(o) = e1.get(i) {
            s1.push(o.clone());
        }
        if let Some(o) = e2.get(i) {
            s2.push(o.clone());
        }
    }
    let r1 = s1.close().unwrap();
    let r2 = s2.close().unwrap();
    assert_eq!(r1.report, offline_report(&hot));
    assert_eq!(r2.report, offline_report(&clean));
    assert!(r1.flagged, "PM=80 over 2s must be flagged");
    daemon.shutdown();
}

#[test]
fn shed_policy_conserves_events_and_accounts_drops() {
    let journal = record(7, 50);
    let daemon = Daemon::start(
        ServeConfig {
            workers: 1,
            queue_cap: 1,
            batch: 1,
            policy: Policy::Shed,
            ..ServeConfig::default()
        },
        None,
    );
    let mut stream = daemon.open(journal.meta().clone());
    for o in journal.events() {
        stream.push(o.clone());
    }
    let report = stream.close().expect("daemon alive");
    // Shedding may or may not bite depending on scheduling, but the
    // accounting must always conserve: accepted + dropped = pushed.
    let stats = daemon.shutdown();
    assert_eq!(report.events, journal.len() as u64);
    assert_eq!(stats.events + report.dropped, journal.len() as u64);
    assert_eq!(stats.dropped, report.dropped);
}

/// A `Write` that appends into shared memory, for capturing the JSONL
/// delta feed.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn delta_subscriber_receives_stream_tagged_jsonl() {
    let journal = record(5, 80);
    let sink = SharedBuf::default();
    let daemon = Daemon::start(
        ServeConfig {
            deltas: true,
            ..ServeConfig::default()
        },
        Some(Box::new(sink.clone())),
    );
    let mut stream = daemon.open(journal.meta().clone());
    let id = stream.stream_id();
    for o in journal.events() {
        stream.push(o.clone());
    }
    let report = stream.close().unwrap();
    let stats = daemon.shutdown();

    let bytes = sink.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len() as u64, stats.deltas);
    assert!(stats.deltas > 0, "a flagged run must emit deltas");
    let prefix = format!("{{\"stream\":{id},\"t\":");
    for l in &lines {
        assert!(l.starts_with(&prefix), "bad delta line: {l}");
    }
    // The verdict flip must be present exactly when the run is flagged.
    let verdicts: Vec<&&str> = lines
        .iter()
        .filter(|l| l.contains("\"kind\":\"verdict\""))
        .collect();
    assert_eq!(report.flagged, verdicts.len() % 2 == 1);
}

// -------------------------------------------------------------- socket --

#[test]
fn socket_stream_report_is_byte_identical_to_offline_replay() {
    let journal = record(9, 70);
    let reference = offline_report(&journal);
    let daemon = Arc::new(Daemon::start(ServeConfig::default(), None));

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let daemon = daemon.clone();
        std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            serve_connection(&mut sock, &daemon).unwrap()
        })
    };

    let reader = JournalReader::from_bytes(journal.encode(JournalFormat::Binary)).unwrap();
    let mut sock = std::net::TcpStream::connect(addr).unwrap();
    let sent = wire::send_journal(&mut sock, &reader, 500).unwrap();
    assert_eq!(sent, journal.len() as u64);
    let mut response = String::new();
    sock.read_to_string(&mut response).unwrap();

    let served = server.join().unwrap().expect("one stream served");
    assert_eq!(response, reference, "wire response != offline replay");
    assert_eq!(served.report, reference);
    assert_eq!(served.events, journal.len() as u64);

    let daemon = Arc::try_unwrap(daemon).ok().expect("server joined");
    let stats = daemon.shutdown();
    assert_eq!(stats.streams, 1);
    assert_eq!(stats.abandoned, 0);
}

#[test]
fn cross_stream_quorum_convicts_on_k_flagged_streams() {
    // Three streams against the same tagged node: two flagged (distinct
    // seeds, PM hot), one clean. k = 2 convicts; k = 3 does not.
    let hot_a = record(5, 80);
    let hot_b = record(8, 80);
    let clean = record(6, 0);
    let run = |k: usize| {
        let daemon = Daemon::start(
            ServeConfig { quorum: Some(k), ..ServeConfig::default() },
            None,
        );
        let mut flagged = 0;
        for journal in [&hot_a, &hot_b, &clean] {
            let mut s = daemon.open(journal.meta().clone());
            for o in journal.events() {
                s.push(o.clone());
            }
            if s.close().unwrap().flagged {
                flagged += 1;
            }
        }
        let report = daemon.quorum_report().expect("quorum mode is on");
        daemon.shutdown();
        (flagged, report)
    };
    let (flagged, at2) = run(2);
    assert_eq!(flagged, 2, "two hot streams flag, the clean one does not");
    assert!(at2.contains("2 stream(s) flagged"), "{at2}");
    assert!(at2.contains("-> CONVICTED"), "{at2}");
    let (_, at3) = run(3);
    assert!(at3.contains("below quorum, cleared"), "{at3}");

    // Without quorum mode there is no report at all.
    let plain = Daemon::start(ServeConfig::default(), None);
    assert!(plain.quorum_report().is_none());
    assert!(plain.config().workers >= 1, "parallelism default resolves to >= 1");
    plain.shutdown();
}
