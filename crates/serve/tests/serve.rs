//! Integration tests for the serving layer: queue semantics, wire
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
use mg_serve::{serve_connection, wire, Daemon, Policy, ServeConfig, WireError};
use mg_sim::SimTime;
use std::io::{Read, Write};
use std::sync::{Arc, Mutex};

// ------------------------------------------------------------- channel --

/// Each worker drains a std `sync_channel`. The property no daemon test can
/// observe directly: once the last receiver is gone (a worker that exited
/// or panicked), a queued `Job::Close` must release its reply channel, so
/// the producer waiting on that reply learns the worker is gone.
#[test]
fn sync_channel_drops_queued_values_with_its_last_receiver() {
    use std::sync::mpsc::{channel, sync_channel, Sender, TryRecvError};
    let (tx, rx) = sync_channel::<Sender<u8>>(4);
    let (reply_tx, reply_rx) = channel();
    tx.send(reply_tx).unwrap();
    assert_eq!(reply_rx.try_recv(), Err(TryRecvError::Empty));
    drop(rx);
    assert_eq!(reply_rx.try_recv(), Err(TryRecvError::Disconnected));
    let (late, _late_rx) = channel();
    assert!(tx.send(late).is_err(), "no receiver left");
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

/// A header no session can be built from opens none, so it cannot take
/// its worker down. `Daemon::open` accepts any `ObsMeta` (library callers
/// build metas directly, past the journal readers' check); the worker
/// skips such a stream, closes it with `None`, and goes on serving the
/// healthy stream queued on the same worker.
#[test]
fn a_header_no_session_can_be_built_from_spares_its_worker() {
    let journal = record(5, 60);
    let meta = journal.meta().clone();
    let daemon = Daemon::start(ServeConfig { workers: 1, ..ServeConfig::default() }, None);
    let mut busy = daemon.open(meta.clone());
    for o in journal.events() {
        busy.push(o.clone());
    }
    busy.flush();
    for bad in [
        ObsMeta { vantages: vec![], ..meta.clone() },
        ObsMeta { vantages: vec![meta.tagged], ..meta.clone() },
        ObsMeta { pair_distance: -5.0, ..meta.clone() },
        ObsMeta { pair_distance: f64::NAN, ..meta.clone() },
    ] {
        assert!(bad.check().is_err(), "{bad:?}");
        let mut doomed = daemon.open(bad);
        for o in journal.events() {
            doomed.push(o.clone());
        }
        assert!(doomed.close().is_none(), "a refused stream has no report");
    }
    let report = busy.close().expect("the worker must survive the refused streams");
    assert_eq!(report.report, offline_report(&journal));
    assert_eq!(report.events, journal.len() as u64);
    let stats = daemon.shutdown();
    assert_eq!((stats.streams, stats.events), (1, journal.len() as u64));
    assert_eq!(stats.abandoned, 0);
}

/// A handle dropped unclosed (its connection failed) aborts the stream:
/// the session is freed with no report and no quorum vote, and the stream
/// counts as abandoned.
#[test]
fn dropping_an_unclosed_handle_abandons_its_stream() {
    let hot = record(5, 80);
    let daemon = Daemon::start(
        ServeConfig { workers: 1, quorum: Some(1), ..ServeConfig::default() },
        None,
    );
    let mut doomed = daemon.open(hot.meta().clone());
    for o in hot.events() {
        doomed.push(o.clone());
    }
    drop(doomed);
    // The queue is FIFO, so the abort is done once this close returns.
    let empty = daemon.open(hot.meta().clone()).close().expect("daemon alive");
    assert!(!empty.flagged);
    let tally = daemon.quorum_report().expect("quorum mode is on");
    assert!(tally.contains("no stream flagged any node"), "{tally}");
    let stats = daemon.shutdown();
    assert_eq!((stats.streams, stats.abandoned), (2, 1));
}

/// A frame without the binary magic (here a megabyte of nested `[`) is
/// refused before a session opens and fails that one connection; the
/// daemon serves no stream for it.
#[test]
fn a_deeply_nested_json_frame_fails_only_its_connection() {
    let mut conn = Vec::new();
    wire::write_frame(&mut conn, &vec![b'['; 1 << 20]).unwrap();
    let daemon = Daemon::start(ServeConfig { workers: 1, ..ServeConfig::default() }, None);
    let got = serve_connection(&mut std::io::Cursor::new(conn), &daemon);
    assert!(matches!(got, Err(WireError::Journal(_))), "{got:?}");
    assert_eq!(daemon.shutdown().streams, 0);
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

/// `mgd --journal` exits 1 naming why on a binary journal whose header
/// describes no detector session, and on a JSONL export (no binary magic),
/// instead of opening a stream for either.
#[test]
fn mgd_refuses_unreadable_journal_files() {
    let good = ObsMeta {
        tagged: 3,
        vantages: vec![1, 5],
        pair_distance: 240.0,
        seed: 7,
        params: vec![],
    };
    let mut cases: Vec<(Vec<u8>, &str)> = [
        ObsMeta {
            pair_distance: -5.0,
            ..good.clone()
        },
        ObsMeta {
            pair_distance: f64::NAN,
            ..good.clone()
        },
        ObsMeta {
            pair_distance: f64::NEG_INFINITY,
            ..good.clone()
        },
        ObsMeta {
            vantages: vec![],
            ..good.clone()
        },
        ObsMeta {
            vantages: vec![1, 3, 5],
            ..good.clone()
        },
    ]
    .into_iter()
    .map(|bad| (ObsJournal::new(bad).encode(JournalFormat::Binary), "header"))
    .collect();
    cases.push((
        ObsJournal::new(good).encode(JournalFormat::Jsonl),
        "MGOBSJ magic",
    ));
    let dir = std::env::temp_dir().join(format!("mg-serve-refused-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (bytes, why)) in cases.into_iter().enumerate() {
        let path = dir.join(format!("case-{i}"));
        std::fs::write(&path, bytes).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_mgd"))
            .args(["--workers", "1", "--journal"])
            .arg(&path)
            .output()
            .expect("mgd runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "case {i}: {stderr}");
        assert!(stderr.contains(why), "case {i}: {stderr}");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("stream   :"),
            "case {i}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
