//! Property-based tests for the mg-trace journal and metrics
//! (mg-testkit harness): ring wrap-around, level filtering, and
//! counter monotonicity.

use mg_trace::{
    Counter, EventKind, FrameLabel, Level, Metrics, Ring, Subsystem, TraceConfig, Tracer,
    COUNTER_COUNT, HISTO_BUCKETS, SUBSYSTEM_COUNT,
};
use mg_testkit::prop::{check, Gen, TkResult};
use mg_testkit::{tk_assert, tk_assert_eq};

fn arb_level(g: &mut Gen) -> Level {
    match g.u8_in(0..3) {
        0 => Level::Off,
        1 => Level::Info,
        _ => Level::Debug,
    }
}

fn arb_kind(g: &mut Gen) -> EventKind {
    let frame = |g: &mut Gen| match g.u8_in(0..4) {
        0 => FrameLabel::Rts,
        1 => FrameLabel::Cts,
        2 => FrameLabel::Data,
        _ => FrameLabel::Ack,
    };
    match g.u8_in(0..18) {
        0 => EventKind::SchedDispatch { seq: g.u64_in(0..1_000) },
        1 => EventKind::ChannelEdge { busy: g.bool() },
        2 => EventKind::TxStart {
            frame: frame(g),
            dst: if g.bool() { Some(g.usize_in(0..8)) } else { None },
        },
        3 => EventKind::RxDecoded { src: g.usize_in(0..8), frame: frame(g) },
        4 => EventKind::Collision,
        5 => EventKind::BackoffFreeze { remaining_slots: g.u16_in(0..1024) },
        6 => EventKind::BackoffResume { slots: g.u16_in(0..1024) },
        7 => EventKind::Enqueue { sdu: g.u64_in(0..1_000) },
        8 => EventKind::PacketDone { sdu: g.u64_in(0..1_000), delivered: g.bool() },
        9 => EventKind::MonitorSample { dictated: g.f64_in(0.0..32.0), estimated: g.f64_in(0.0..64.0) },
        10 => EventKind::MonitorTest { p: g.f64_in(0.0..1.0), reject: g.bool() },
        11 => EventKind::MonitorViolation { kind: "oversized_window" },
        12 => EventKind::MonitorUncertain { kind: "attempt_mismatch" },
        13 => EventKind::FaultDrop { cause: "loss" },
        14 => EventKind::FaultCorrupt { bits: g.u64_in(1..16) as u32 },
        15 => EventKind::AccusationSent { suspect: g.usize_in(0..8) },
        16 => EventKind::AccusationDelivered { suspect: g.usize_in(0..8) },
        _ => EventKind::QuorumConvicted {
            suspect: g.usize_in(0..8),
            votes: g.usize_in(1..8),
        },
    }
}

/// A ring holding at most `cap` items retains exactly the last
/// `min(n, cap)` of `n` pushes, in push order, and counts the rest
/// as dropped.
#[test]
fn ring_keeps_the_most_recent_suffix() {
    check("ring_keeps_the_most_recent_suffix", |g: &mut Gen| -> TkResult {
        let cap = g.usize_in(1..48);
        let n = g.usize_in(0..160);
        let mut r = Ring::new(cap);
        for i in 0..n as u64 {
            r.push(i);
        }
        tk_assert_eq!(r.capacity(), cap);
        tk_assert_eq!(r.len(), n.min(cap));
        tk_assert_eq!(r.dropped(), n.saturating_sub(cap) as u64);
        let got: Vec<u64> = r.iter().copied().collect();
        let want: Vec<u64> = ((n - n.min(cap)) as u64..n as u64).collect();
        tk_assert_eq!(got, want);
        Ok(())
    });
}

/// Interleaving pushes with clears never leaves more than the items
/// pushed since the last clear, and iteration stays chronological.
#[test]
fn ring_survives_clears() {
    check("ring_survives_clears", |g: &mut Gen| -> TkResult {
        let cap = g.usize_in(1..16);
        let mut r = Ring::new(cap);
        let mut since_clear = 0usize;
        for i in 0..g.usize_in(1..80) as u64 {
            if g.u8_in(0..8) == 0 {
                r.clear();
                since_clear = 0;
            } else {
                r.push(i);
                since_clear += 1;
            }
            tk_assert_eq!(r.len(), since_clear.min(cap));
            let got: Vec<u64> = r.iter().copied().collect();
            tk_assert!(got.windows(2).all(|w| w[0] < w[1]));
        }
        Ok(())
    });
}

/// A tracer journals exactly the events whose level passes its
/// subsystem's configured threshold — no more, no fewer, in emission
/// order.
#[test]
fn level_filtering_is_exact() {
    check("level_filtering_is_exact", |g: &mut Gen| -> TkResult {
        let cfg = TraceConfig {
            capacity: 4096, // larger than any sequence below: no wrap here
            sched: arb_level(g),
            phy: arb_level(g),
            mac: arb_level(g),
            net: arb_level(g),
            monitor: arb_level(g),
            fault: arb_level(g),
            quorum: arb_level(g),
        };
        let threshold = |s: Subsystem| match s {
            Subsystem::Sched => cfg.sched,
            Subsystem::Phy => cfg.phy,
            Subsystem::Mac => cfg.mac,
            Subsystem::Net => cfg.net,
            Subsystem::Monitor => cfg.monitor,
            Subsystem::Fault => cfg.fault,
            Subsystem::Quorum => cfg.quorum,
        };
        let tracer = Tracer::new(cfg);
        let mut expected: Vec<(u64, &'static str)> = Vec::new();
        for t in 0..g.usize_in(0..200) as u64 {
            let kind = arb_kind(g);
            if kind.level() <= threshold(kind.subsystem()) {
                expected.push((t, kind.tag()));
            }
            tracer.emit(t, Some(0), kind);
        }
        tk_assert_eq!(tracer.dropped(), 0);
        let got: Vec<(u64, &'static str)> = tracer
            .events()
            .iter()
            .map(|e| (e.t_ns, e.kind.tag()))
            .collect();
        tk_assert_eq!(got, expected);
        tk_assert_eq!(tracer.to_jsonl().lines().count(), expected.len());
        Ok(())
    });
}

/// Wrap-around composes with filtering: a small journal retains the
/// most recent `capacity` of the *admitted* events.
#[test]
fn journal_wraps_over_admitted_events() {
    check("journal_wraps_over_admitted_events", |g: &mut Gen| -> TkResult {
        let cap = g.usize_in(1..12);
        let cfg = TraceConfig {
            capacity: cap,
            sched: Level::Off, // dispatches are emitted below but never admitted
            ..TraceConfig::verbose()
        };
        let tracer = Tracer::new(cfg);
        let mut admitted = 0u64;
        for t in 0..g.usize_in(0..100) as u64 {
            if g.bool() {
                tracer.emit(t, None, EventKind::SchedDispatch { seq: t });
            } else {
                tracer.emit(t, Some(1), EventKind::Collision);
                admitted += 1;
            }
        }
        tk_assert_eq!(tracer.len() as u64, admitted.min(cap as u64));
        tk_assert_eq!(tracer.dropped(), admitted.saturating_sub(cap as u64));
        let ts: Vec<u64> = tracer.events().iter().map(|e| e.t_ns).collect();
        tk_assert!(ts.windows(2).all(|w| w[0] < w[1]));
        Ok(())
    });
}

/// Counters only ever grow, and the final snapshot equals an exact
/// tally of the bumps — with out-of-range nodes landing on row 0.
#[test]
fn counters_are_monotone_and_exact() {
    check("counters_are_monotone_and_exact", |g: &mut Gen| -> TkResult {
        let nodes = g.usize_in(1..5);
        let m = Metrics::new(nodes);
        let mut per_node = vec![[0u64; COUNTER_COUNT]; nodes];
        let mut prev = m.snapshot();
        for _ in 0..g.usize_in(0..120) {
            let node = g.usize_in(0..nodes + 2); // sometimes out of range
            let counter = Counter::ALL[g.usize_in(0..COUNTER_COUNT)];
            m.bump(node, counter);
            per_node[if node < nodes { node } else { 0 }][counter.index()] += 1;
            let snap = m.snapshot();
            for c in Counter::ALL {
                tk_assert!(snap.total(c) >= prev.total(c));
            }
            prev = snap;
        }
        for (node, row) in per_node.iter().enumerate() {
            for c in Counter::ALL {
                tk_assert_eq!(m.node_counter(node, c), row[c.index()]);
            }
        }
        for c in Counter::ALL {
            let want: u64 = per_node.iter().map(|row| row[c.index()]).sum();
            tk_assert_eq!(prev.total(c), want);
        }
        Ok(())
    });
}

/// Histograms conserve mass: every recording lands in exactly one
/// bucket, so the bucket sum equals the number of recordings.
#[test]
fn histograms_conserve_recordings() {
    check("histograms_conserve_recordings", |g: &mut Gen| -> TkResult {
        let m = Metrics::new(1);
        let n_lat = g.usize_in(0..60);
        for _ in 0..n_lat {
            m.record_latency_ns(g.u64_in(0..u64::MAX));
        }
        let n_bo = g.usize_in(0..60);
        for _ in 0..n_bo {
            m.record_backoff_slots(g.u64_in(0..1_024));
        }
        let snap = m.snapshot();
        tk_assert_eq!(snap.latency_ns.iter().sum::<u64>(), n_lat as u64);
        tk_assert_eq!(snap.backoff_slots.iter().sum::<u64>(), n_bo as u64);
        tk_assert_eq!(snap.latency_ns.len(), HISTO_BUCKETS);
        Ok(())
    });
}

/// A disabled tracer and disabled metrics absorb any workload without
/// retaining anything.
#[test]
fn disabled_handles_stay_inert() {
    check("disabled_handles_stay_inert", |g: &mut Gen| -> TkResult {
        let tracer = Tracer::disabled();
        let m = Metrics::disabled();
        for t in 0..g.usize_in(0..40) as u64 {
            tracer.emit(t, Some(0), arb_kind(g));
            m.bump(g.usize_in(0..4), Counter::ALL[g.usize_in(0..COUNTER_COUNT)]);
        }
        tk_assert!(tracer.is_empty());
        tk_assert_eq!(tracer.to_jsonl(), String::new());
        tk_assert_eq!(m.snapshot().totals, [0u64; COUNTER_COUNT]);
        let _ = SUBSYSTEM_COUNT; // the journal covers every subsystem above
        Ok(())
    });
}
