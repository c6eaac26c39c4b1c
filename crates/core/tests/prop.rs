//! Property-based tests for the detection framework's analytic and
//! channel-tracking layers (mg-testkit harness).

use mg_detect::{AnalyticModel, ChannelTracker, DensityEstimator, JointTracker};
use mg_geom::PreclusionRule;
use mg_sim::SimTime;
use mg_testkit::prop::{check, Gen, TkResult};
use mg_testkit::{tk_assert, tk_assert_eq};

fn any_model(g: &mut Gen) -> AnalyticModel {
    let d = g.f64_in(0.0..1000.0);
    let cs = g.f64_in(100.0..900.0);
    let n = g.f64_in(0.0..20.0);
    let k = g.f64_in(0.0..20.0);
    let m = g.f64_in(0.0..20.0);
    let j = g.f64_in(0.0..20.0);
    let a1f = g.f64_in(0.0..5.0);
    let a4f = g.f64_in(0.0..5.0);
    AnalyticModel {
        regions: mg_geom::RegionModel::new(
            d,
            cs,
            PreclusionRule::Calibrated {
                a1_over_a2: a1f,
                a4_over_a5: a4f,
            },
        ),
        n,
        k,
        m,
        j,
    }
}

/// All conditional probabilities stay in [0, 1] for every geometry, node
/// count and intensity — even silly ones.
#[test]
fn probabilities_always_valid() {
    check("probabilities_always_valid", |g: &mut Gen| -> TkResult {
        let model = any_model(g);
        let rho = g.f64_in(-0.5..1.5);
        for p in [
            model.p_busy_given_idle(rho),
            model.p_idle_given_idle(rho),
            model.p_idle_given_busy(rho),
        ] {
            tk_assert!((0.0..=1.0).contains(&p), "{p}");
        }
        Ok(())
    });
}

/// Eq. 3 is monotone in ρ and Eq. 4 is antitone in ρ.
#[test]
fn eq3_eq4_monotonicity() {
    check("eq3_eq4_monotonicity", |g: &mut Gen| -> TkResult {
        let model = any_model(g);
        let r1 = g.f64_in(0.0..1.0);
        let r2 = g.f64_in(0.0..1.0);
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        tk_assert!(model.p_busy_given_idle(lo) <= model.p_busy_given_idle(hi) + 1e-12);
        tk_assert!(model.p_idle_given_busy(lo) >= model.p_idle_given_busy(hi) - 1e-12);
        Ok(())
    });
}

/// The slot estimate partitions the window and responds monotonically to
/// its inputs.
#[test]
fn estimate_partitions_window() {
    check("estimate_partitions_window", |g: &mut Gen| -> TkResult {
        let model = any_model(g);
        let rho = g.f64_in(0.0..1.0);
        let idle = g.f64_in(0.0..5000.0);
        let busy = g.f64_in(0.0..5000.0);
        let (i_est, b_est) = model.estimate_sender_slots(rho, idle, busy);
        tk_assert!((i_est + b_est - (idle + busy)).abs() < 1e-6);
        tk_assert!(i_est >= -1e-9);
        // More observed idle can only raise the idle estimate.
        let (i2, _) = model.estimate_sender_slots(rho, idle + 100.0, busy);
        tk_assert!(i2 >= i_est - 1e-9);
        Ok(())
    });
}

/// ChannelTracker conserves time: busy + idle always equals the span it
/// has integrated, under any edge sequence.
#[test]
fn tracker_conserves_time() {
    check("tracker_conserves_time", |g: &mut Gen| -> TkResult {
        let edges = g.vec(1..100, |g| (g.u64_in(1..10_000), g.bool()));
        let mut tracker = ChannelTracker::new();
        let mut t = 0u64;
        for &(gap, busy) in &edges {
            t += gap;
            tracker.on_edge(busy, SimTime::from_micros(t));
        }
        let total = tracker.busy_time() + tracker.idle_time();
        tk_assert_eq!(total.as_micros(), t);
        tk_assert!((0.0..=1.0).contains(&tracker.rho()));
        Ok(())
    });
}

/// JointTracker: observed time never exceeds wall time and conditionals
/// stay valid under arbitrary interleavings of edges and transmissions.
#[test]
fn joint_tracker_valid() {
    check("joint_tracker_valid", |g: &mut Gen| -> TkResult {
        let events = g.vec(1..100, |g| {
            (g.u64_in(1..1000), g.u8_in(0..4), g.u64_in(1..500))
        });
        let mut j = JointTracker::new();
        let mut t = 0u64;
        for &(gap, kind, dur) in &events {
            t += gap;
            let now = SimTime::from_micros(t);
            match kind {
                0 => j.on_s_edge(t.is_multiple_of(2), now),
                1 => j.on_r_edge(t.is_multiple_of(3), now),
                2 => j.on_s_tx(now, SimTime::from_micros(t + dur)),
                _ => j.on_r_tx(now, SimTime::from_micros(t + dur)),
            }
        }
        let horizon = t + 1000;
        j.finish(SimTime::from_micros(horizon));
        tk_assert!(j.observed().as_micros() <= horizon);
        for p in [j.p_busy_given_idle(), j.p_idle_given_busy(), j.r_rho()] {
            tk_assert!((0.0..=1.0).contains(&p), "{p}");
        }
        Ok(())
    });
}

/// Density estimation: n̂ is ≥ 1, finite, and monotone in the collision
/// probability.
#[test]
fn density_estimator_monotone() {
    check("density_estimator_monotone", |g: &mut Gen| -> TkResult {
        let p1 = g.f64_in(0.0..0.95);
        let p2 = g.f64_in(0.0..0.95);
        let est = DensityEstimator::paper_default();
        let n1 = est.competing_terminals_for(p1);
        let n2 = est.competing_terminals_for(p2);
        tk_assert!(n1 >= 1.0 && n1.is_finite());
        if p1 < p2 {
            tk_assert!(n1 <= n2 + 1e-9, "p {p1}->{p2}: n {n1}->{n2}");
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------
// Record/replay equivalence — the observation-boundary contract: a pool
// fed a recorded journal is byte-indistinguishable from the live pool
// that watched the world directly.

mod replay {
    use mg_detect::{
        DetectorSession, DiagnosisDelta, FaultPlan, JournalFormat, JournalReader, MonitorConfig,
        MonitorPool, Obs, ObsJournal, ObsMeta, ObsRecorder, ObsSink, ScenarioBuilder,
        SessionSpec, WorldMonitors, WorldProbe,
    };
    use mg_dcf::BackoffPolicy;
    use mg_net::{Scenario, ScenarioConfig, SourceCfg};
    use mg_sim::SimTime;
    use mg_testkit::prop::{check_with, Config, Gen, TkResult};
    use mg_testkit::{tk_assert, tk_assert_eq, TkError};
    use mg_trace::{Event, EventKind, Level, Metrics, Subsystem, TraceConfig, Tracer};

    /// A journal tracing only the detector subsystems: both the live and
    /// the replayed tracer then hold exactly the same event population, so
    /// the JSONL exports can be compared byte-for-byte without the live
    /// run's high-rate sched/phy/mac records evicting monitor lines from
    /// the ring.
    fn detector_trace() -> TraceConfig {
        TraceConfig {
            sched: Level::Off,
            phy: Level::Off,
            mac: Level::Off,
            net: Level::Off,
            ..TraceConfig::default()
        }
    }

    /// The monitor records a trace journals for `deltas`, emitted by a
    /// pool watching `tagged`: every accepted sample, test, violation and
    /// uncertain observation, in order.
    fn as_trace(tagged: usize, deltas: &[DiagnosisDelta]) -> Vec<Event> {
        deltas
            .iter()
            .filter_map(|d| {
                let kind = match *d {
                    DiagnosisDelta::SampleAccepted { dictated, estimated, .. } => {
                        EventKind::MonitorSample { dictated, estimated }
                    }
                    DiagnosisDelta::TestFired { result, reject, .. } => {
                        EventKind::MonitorTest { p: result.p_value, reject }
                    }
                    DiagnosisDelta::ViolationFlagged { violation, .. } => {
                        EventKind::MonitorViolation { kind: violation.kind_str() }
                    }
                    DiagnosisDelta::ObservationUncertain { kind, .. } => {
                        EventKind::MonitorUncertain { kind }
                    }
                    _ => return None,
                };
                Some(Event { t_ns: d.at().as_nanos(), node: Some(tagged), kind })
            })
            .collect()
    }

    /// The monitor records of `trace`, which must have dropped none.
    fn monitor_records(trace: &Tracer) -> Result<Vec<Event>, TkError> {
        tk_assert_eq!(trace.dropped(), 0);
        Ok(trace
            .events()
            .into_iter()
            .filter(|e| e.kind.subsystem() == Subsystem::Monitor)
            .collect())
    }

    /// A session that keeps the deltas it emits, for feeding through
    /// `journal.replay` and `reader.replay_into`.
    struct Keep(DetectorSession, Vec<DiagnosisDelta>);

    impl ObsSink for Keep {
        fn ingest(&mut self, obs: &Obs) {
            self.1.extend(self.0.ingest(obs));
        }
    }

    struct LiveRun {
        mc: MonitorConfig,
        journal: ObsJournal,
        diagnosis: mg_detect::Diagnosis,
        /// The live run's detector trace.
        trace: Tracer,
    }

    /// Simulates one grid world with a live monitor and a recorder probe
    /// side by side; the journal is pushed through the JSONL codec so the
    /// replay below exercises serialization, not just the in-memory path.
    fn live_run(seed: u64, pm: u8, ss: usize, plan: Option<&FaultPlan>) -> Result<LiveRun, TkError> {
        const SECS: u64 = 2;
        let scenario = Scenario::new(ScenarioConfig {
            sim_secs: SECS,
            rate_pps: 2.0,
            ..ScenarioConfig::grid_paper(seed)
        });
        let (s, r) = scenario.tagged_pair();
        let mc = MonitorConfig::grid_paper(s, r, 240.0).with_sample_size(ss);
        let mut b = ScenarioBuilder::new(scenario);
        let a = b.attacker(s);
        let watch = b.monitor(mc);
        b.source(SourceCfg::saturated(s, r));
        b.trace(detector_trace());
        if let Some(p) = plan {
            b.fault(p.clone());
        }
        let meta = ObsMeta {
            tagged: s,
            vantages: vec![r],
            pair_distance: 240.0,
            seed,
            params: vec![("pm".into(), pm.to_string())],
        };
        let mut world = b.probe(ObsRecorder::new(meta)).build();
        world.set_policy(a.id(), BackoffPolicy::Scaled { pm });
        world.run_until(SimTime::from_secs(SECS));

        let jsonl = world.probe().journal().encode(JournalFormat::Jsonl);
        let journal = JournalReader::from_bytes(jsonl)
            .and_then(|r| r.read_journal())
            .map_err(|e| TkError::Fail(format!("jsonl round trip: {e}")))?;
        tk_assert_eq!(world.tracer().dropped(), 0);
        Ok(LiveRun {
            mc,
            journal,
            diagnosis: world.monitors().pool(watch).diagnosis(),
            trace: world.tracer().clone(),
        })
    }

    /// Replays `journal` into an instrumented pool (mirroring the build
    /// order of `ScenarioBuilder::build`: instrumentation first, then the
    /// fault plan) and returns the pool plus its trace journal.
    fn traced_replay(
        journal: &ObsJournal,
        mc: MonitorConfig,
        plan: Option<&FaultPlan>,
    ) -> (MonitorPool, Tracer) {
        let meta = journal.meta();
        let tracer = Tracer::new(detector_trace());
        let mut pool = MonitorPool::new(meta.tagged, &meta.vantages, mc);
        pool.set_instrumentation(tracer.clone(), Metrics::disabled());
        if let Some(p) = plan {
            pool.apply_fault_plan(p);
        }
        journal.replay(&mut pool);
        (pool, tracer)
    }

    /// The one detector constructor: a session over the journal's
    /// vantages, ready to be fed by `journal.replay` or `reader.replay_into`.
    fn session(meta: &ObsMeta, mc: MonitorConfig, plan: &FaultPlan) -> DetectorSession {
        SessionSpec::pool(meta.tagged, &meta.vantages, mc)
            .with_faults(plan.clone())
            .build()
    }

    /// The trace holds every paired sample, test and violation: equal
    /// journals are equal histories.
    fn assert_replay_matches(live: &LiveRun, replayed: &MonitorPool, trace: &Tracer) -> TkResult {
        tk_assert_eq!(live.diagnosis, replayed.diagnosis());
        tk_assert_eq!(trace.dropped(), 0);
        tk_assert_eq!(live.trace.to_jsonl(), trace.to_jsonl());
        Ok(())
    }

    /// Same seed ⇒ a pool replaying the recorded journal reproduces the
    /// live pool byte-for-byte: `Diagnosis` and the detector trace journal
    /// (every paired sample, test and violation).
    #[test]
    fn replay_equals_live() {
        let cfg = Config {
            cases: 4,
            ..Config::default()
        };
        check_with(cfg, "replay_equals_live", |g: &mut Gen| -> TkResult {
            let seed = g.u64_in(1..1_000_000);
            let pm = [0u8, 50, 90][g.usize_in(0..3)];
            let ss = g.usize_in(5..30);
            let live = live_run(seed, pm, ss, None)?;
            tk_assert!(!live.journal.is_empty(), "a saturated run must record");

            let (replayed, trace) = traced_replay(&live.journal, live.mc, None);
            assert_replay_matches(&live, &replayed, &trace)?;

            // A plain (untraced) session lands on the same diagnosis.
            let mut plain = session(live.journal.meta(), live.mc, &FaultPlan::default());
            live.journal.replay(&mut plain);
            tk_assert_eq!(live.diagnosis, plain.diagnosis());
            Ok(())
        });
    }

    /// The journal format is invisible to diagnosis: streaming the same
    /// recorded run through the JSONL and binary codecs (fresh readers,
    /// `replay_into` a session) lands on byte-identical detector state and
    /// history — the non-negotiable invariant of the codec layer. Faulted
    /// replays agree across formats too, and the binary encoding is
    /// strictly smaller.
    #[test]
    fn cross_format_replay_is_byte_identical() {
        let cfg = Config {
            cases: 3,
            ..Config::default()
        };
        check_with(cfg, "cross_format_replay", |g: &mut Gen| -> TkResult {
            let seed = g.u64_in(1..1_000_000);
            let pm = [0u8, 50, 90][g.usize_in(0..3)];
            let live = live_run(seed, pm, g.usize_in(5..30), None)?;
            tk_assert!(!live.journal.is_empty(), "a saturated run must record");

            let jsonl = live.journal.encode(JournalFormat::Jsonl);
            let bin = live.journal.encode(JournalFormat::Binary);
            tk_assert!(
                bin.len() < jsonl.len(),
                "binary ({}) must be smaller than jsonl ({})",
                bin.len(),
                jsonl.len()
            );
            let live_records = monitor_records(&live.trace)?;
            for bytes in [jsonl, bin] {
                let reader = JournalReader::from_bytes(bytes)
                    .map_err(|e| TkError::Fail(format!("open: {e}")))?;
                let mut clean = Keep(session(reader.meta(), live.mc, &FaultPlan::default()), vec![]);
                reader
                    .replay_into(&mut clean)
                    .map_err(|e| TkError::Fail(format!("replay: {e}")))?;
                tk_assert_eq!(live.diagnosis, clean.0.diagnosis());
                tk_assert!(
                    as_trace(reader.meta().tagged, &clean.1) == live_records,
                    "the replayed history differs from the live trace"
                );

                let plan = FaultPlan::parse("seed=11,light")
                    .map_err(|e| TkError::Fail(format!("plan: {e}")))?;
                let mut faulted = session(reader.meta(), live.mc, &plan);
                reader
                    .replay_into(&mut faulted)
                    .map_err(|e| TkError::Fail(format!("faulted replay: {e}")))?;
                let mut reference = session(live.journal.meta(), live.mc, &plan);
                live.journal.replay(&mut reference);
                tk_assert_eq!(reference.diagnosis(), faulted.diagnosis());
            }
            Ok(())
        });
    }

    /// The fault composition contract: journals record the *pre-fault*
    /// stream, and replaying a clean journal with the plan injected at the
    /// replayed monitors reproduces a faulted live run byte-for-byte.
    #[test]
    fn faulted_replay_equals_faulted_live() {
        let cfg = Config {
            cases: 3,
            ..Config::default()
        };
        check_with(cfg, "faulted_replay_equals_faulted_live", |g: &mut Gen| -> TkResult {
            let seed = g.u64_in(1..1_000_000);
            let pm = [0u8, 90][g.usize_in(0..2)];
            let fault_seed = g.u64_in(1..10_000);
            let plan = FaultPlan::parse(&format!("seed={fault_seed},light"))
                .map_err(|e| TkError::Fail(format!("plan: {e}")))?;

            let live = live_run(seed, pm, 25, Some(&plan))?;
            let (replayed, trace) = traced_replay(&live.journal, live.mc, Some(&plan));
            assert_replay_matches(&live, &replayed, &trace)?;

            let mut api = session(live.journal.meta(), live.mc, &plan);
            live.journal.replay(&mut api);
            tk_assert_eq!(live.diagnosis, api.diagnosis());
            Ok(())
        });
    }

    /// The session-API contract: feeding a recorded journal one event at a
    /// time through `DetectorSession::ingest` lands on detector state
    /// byte-identical to a bare pool fed the whole journal — same
    /// `Diagnosis`, and deltas that name every paired sample, test and
    /// violation the bare pool traced, in its order — and the emitted delta
    /// stream is a *complete* account: replaying the deltas against empty
    /// counters reconstructs every field of the diagnosis. Holds for clean
    /// and fault-injected sessions alike.
    #[test]
    fn delta_ingest_equals_batch_ingest() {
        let cfg = Config {
            cases: 4,
            ..Config::default()
        };
        check_with(cfg, "delta_ingest_equals_batch_ingest", |g: &mut Gen| -> TkResult {
            let seed = g.u64_in(1..1_000_000);
            let pm = [0u8, 50, 90][g.usize_in(0..3)];
            let plan = if g.usize_in(0..2) == 1 {
                let fault_seed = g.u64_in(1..10_000);
                Some(
                    FaultPlan::parse(&format!("seed={fault_seed},light"))
                        .map_err(|e| TkError::Fail(format!("plan: {e}")))?,
                )
            } else {
                None
            };
            let live = live_run(seed, pm, g.usize_in(5..30), plan.as_ref())?;
            tk_assert!(!live.journal.is_empty(), "a saturated run must record");
            let meta = live.journal.meta();

            let (batch, batch_trace) = traced_replay(&live.journal, live.mc, plan.as_ref());

            let mut spec = SessionSpec::pool(meta.tagged, &meta.vantages, live.mc);
            if let Some(p) = &plan {
                spec = spec.with_faults(p.clone());
            }
            let mut session = spec.build();
            let mut deltas: Vec<DiagnosisDelta> = Vec::new();
            for o in live.journal.events() {
                deltas.extend(session.ingest(o));
            }

            // The diagnosis and the history equal the batch path's.
            let diag = batch.diagnosis();
            tk_assert_eq!(diag, session.diagnosis());
            tk_assert!(
                as_trace(meta.tagged, &deltas) == monitor_records(&batch_trace)?,
                "the session's deltas differ from the batch pool's trace"
            );

            // The delta stream is a complete account of the diagnosis.
            let mut acc = mg_detect::Diagnosis::default();
            let mut verdicts = 0usize;
            for d in &deltas {
                match d {
                    DiagnosisDelta::SampleAccepted { .. } => acc.samples_collected += 1,
                    DiagnosisDelta::SampleDiscarded { .. } => acc.samples_discarded += 1,
                    DiagnosisDelta::TestFired { result, reject, .. } => {
                        acc.tests_run += 1;
                        acc.rejections += usize::from(*reject);
                        acc.last_p = Some(result.p_value);
                    }
                    DiagnosisDelta::ViolationFlagged { .. } => acc.violations += 1,
                    DiagnosisDelta::ObservationUncertain { .. } => acc.uncertain += 1,
                    DiagnosisDelta::UncertaintyEntered { .. }
                    | DiagnosisDelta::UncertaintyLeft { .. } => {}
                    DiagnosisDelta::VerdictChanged { flagged, .. } => {
                        verdicts += 1;
                        tk_assert!(*flagged, "verdict is monotone in this world");
                    }
                }
            }
            acc.measured_rho = diag.measured_rho; // not delta-carried: a gauge, not a counter
            tk_assert_eq!(diag, acc);
            tk_assert_eq!(session.is_flagged(), diag.is_flagged());
            tk_assert_eq!(verdicts, usize::from(diag.is_flagged()));
            Ok(())
        });
    }
}
