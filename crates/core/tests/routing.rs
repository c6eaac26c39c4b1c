//! Routed monitor fan-out against the call-every-pool fan-out.
//!
//! `Monitors`, the observer a `ScenarioBuilder` installs, calls a pool only
//! for callbacks at one of its members and for decoded RTSs of its tagged
//! node. Here the same pools also run inside a probe that forwards every
//! callback to every pool; both worlds must end with equal diagnoses and
//! trace journals. The journal holds every pool's samples, tests and
//! violations in emission order, so equal journals are equal histories.

use mg_dcf::{BackoffPolicy, Frame};
use mg_detect::{
    Diagnosis, FaultPlan, MonitorConfig, MonitorPool, NodeCounts, ScenarioBuilder, WorldMonitors,
    WorldProbe,
};
use mg_net::{DstPolicy, NetObserver, Scenario, ScenarioConfig, SourceCfg, TrafficModel};
use mg_phy::Medium;
use mg_sim::{SimDuration, SimTime};
use mg_trace::{Level, Metrics, TraceConfig};

type NodeId = usize;

/// Forwards every callback to every pool, in registration order.
struct EveryPool(Vec<MonitorPool>);

impl NetObserver for EveryPool {
    fn on_channel_edge(&mut self, node: NodeId, busy: bool, now: SimTime) {
        for p in &mut self.0 {
            p.on_channel_edge(node, busy, now);
        }
    }

    fn on_tx_start(&mut self, src: NodeId, frame: &Frame, now: SimTime, end: SimTime) {
        for p in &mut self.0 {
            p.on_tx_start(src, frame, now, end);
        }
    }

    fn on_frame_decoded(
        &mut self,
        medium: &Medium,
        at: NodeId,
        frame: &Frame,
        start: SimTime,
        end: SimTime,
    ) {
        for p in &mut self.0 {
            p.on_frame_decoded(medium, at, frame, start, end);
        }
    }

    fn on_frame_garbled(&mut self, at: NodeId, now: SimTime) {
        for p in &mut self.0 {
            p.on_frame_garbled(at, now);
        }
    }
}

/// One registration: a single monitor, or a pool over `vantages`.
#[derive(Clone)]
enum Watch {
    Single(MonitorConfig),
    Pool(MonitorConfig, Vec<NodeId>),
}

impl Watch {
    fn pool(&self) -> MonitorPool {
        match self {
            Watch::Single(mc) => MonitorPool::new(mc.tagged, &[mc.vantage], *mc),
            Watch::Pool(mc, vantages) => MonitorPool::new(mc.tagged, vantages, *mc),
        }
    }

    /// The nodes the builder keeps background sources off for this watch.
    fn reserved(&self) -> [NodeId; 2] {
        match self {
            Watch::Single(mc) | Watch::Pool(mc, _) => [mc.tagged, mc.vantage],
        }
    }
}

struct Case {
    cfg: ScenarioConfig,
    cheater: (NodeId, u8),
    sources: Vec<SourceCfg>,
    watches: Vec<Watch>,
    faults: Option<FaultPlan>,
}

/// One pool's end state.
#[derive(Debug, PartialEq)]
struct PoolEnd {
    diagnosis: Diagnosis,
    /// `(vantage, samples)` of every member that contributed samples.
    contributors: Vec<(NodeId, usize)>,
}

/// Every pool's end state, and the journal.
struct Outcome {
    pools: Vec<PoolEnd>,
    journal: String,
}

impl Outcome {
    fn of<'a>(pools: impl Iterator<Item = &'a MonitorPool>, journal: String) -> Outcome {
        let pools = pools
            .map(|p| PoolEnd {
                diagnosis: p.diagnosis(),
                contributors: p.contributions().collect(),
            })
            .collect();
        Outcome { pools, journal }
    }
}

fn trace() -> TraceConfig {
    // Everything but the high-rate scheduler and carrier-sense streams.
    TraceConfig {
        capacity: 1 << 20,
        sched: Level::Off,
        phy: Level::Off,
        ..TraceConfig::verbose()
    }
}

fn builder(case: &Case) -> ScenarioBuilder {
    let mut b = ScenarioBuilder::new(Scenario::new(case.cfg));
    b.attacker(case.cheater.0);
    b.trace(trace());
    b
}

/// The pools registered through the builder: routed fan-out.
fn routed(case: &Case) -> Outcome {
    let mut b = builder(case);
    for w in &case.watches {
        match w {
            Watch::Single(mc) => b.monitor(*mc),
            Watch::Pool(mc, vantages) => b.monitor_pool(*mc, vantages),
        };
    }
    if let Some(plan) = &case.faults {
        b.fault(plan.clone());
    }
    for &src in &case.sources {
        b.source(src);
    }
    let mut world = b.build();
    world.set_policy(case.cheater.0, BackoffPolicy::Scaled { pm: case.cheater.1 });
    world.run_until(SimTime::from_secs(case.cfg.sim_secs));
    assert_eq!(
        world.tracer().dropped(),
        0,
        "the ring must hold the journal"
    );
    Outcome::of(world.monitors().iter(), world.tracer().to_jsonl())
}

/// The same pools inside a probe that calls every pool for every callback.
fn every_pool(case: &Case) -> Outcome {
    let mut b = builder(case);
    for w in &case.watches {
        for v in w.reserved() {
            b.reserve(v);
        }
    }
    for &src in &case.sources {
        b.source(src);
    }
    let pools = case.watches.iter().map(Watch::pool).collect();
    let mut world = b.probe(EveryPool(pools)).build();
    let tracer = world.tracer().clone();
    for p in &mut world.probe_mut().0 {
        p.set_instrumentation(tracer.clone(), Metrics::disabled());
        if let Some(plan) = &case.faults {
            p.apply_fault_plan(plan);
        }
    }
    world.set_policy(case.cheater.0, BackoffPolicy::Scaled { pm: case.cheater.1 });
    world.run_until(SimTime::from_secs(case.cfg.sim_secs));
    assert_eq!(
        world.tracer().dropped(),
        0,
        "the ring must hold the journal"
    );
    Outcome::of(world.probe().0.iter(), world.tracer().to_jsonl())
}

/// Runs `case` both ways and asserts equal outcomes; returns the routed
/// one.
fn assert_routing_is_invisible(case: &Case) -> Outcome {
    let routed = routed(case);
    let every = every_pool(case);
    assert_eq!(routed.pools, every.pools, "pool states diverge");
    assert!(routed.journal == every.journal, "journals diverge");
    routed
}

/// A static paper grid: the cheating tagged node watched from its pair at
/// two sample sizes and from a second vantage, and a saturated neighbor
/// watched from the cheater (tagged by one pool, member of another).
fn grid_case(faults: Option<FaultPlan>) -> Case {
    let cfg = ScenarioConfig {
        sim_secs: 6,
        rate_pps: 2.0,
        ..ScenarioConfig::grid_paper(3)
    };
    let scenario = Scenario::new(cfg);
    let (s, r) = scenario.tagged_pair();
    let pos = scenario.positions();
    let mc = |t: NodeId, v: NodeId, n: usize| {
        Watch::Single(MonitorConfig::grid_paper(t, v, pos[t].distance(pos[v])).with_sample_size(n))
    };
    // The tagged node's other grid neighbors, one hop away.
    let others: Vec<NodeId> = (0..pos.len())
        .filter(|&v| v != s && v != r && (pos[v].distance(pos[s]) - 240.0).abs() < 1.0)
        .collect();
    assert!(others.len() >= 2, "a central grid node has four neighbors");
    let (o, v) = (others[0], others[1]);
    Case {
        cfg,
        cheater: (s, 75),
        sources: vec![SourceCfg::saturated(s, r), SourceCfg::saturated(o, s)],
        watches: vec![mc(s, r, 10), mc(s, r, 25), mc(s, v, 10), mc(o, s, 10)],
        faults,
    }
}

#[test]
fn routing_is_invisible_on_a_static_grid() {
    let out = assert_routing_is_invisible(&grid_case(None));
    assert!(
        out.pools.iter().all(|p| p.diagnosis.tests_run > 0),
        "every monitor must run tests: {:?}",
        out.pools
    );
}

#[test]
fn routing_is_invisible_under_observation_faults() {
    let plan = FaultPlan::parse("light,seed=7").expect("valid plan");
    let out = assert_routing_is_invisible(&grid_case(Some(plan)));
    assert!(
        out.journal.contains("\"sub\":\"fault\""),
        "the plan must inject at least one fault"
    );
}

#[test]
fn routing_is_invisible_for_a_mobile_pool_with_hand_off() {
    let cfg = ScenarioConfig {
        sim_secs: 10,
        rate_pps: 2.0,
        ..ScenarioConfig::mobile_paper(3, SimDuration::ZERO)
    };
    let scenario = Scenario::new(cfg);
    let (attacker, nearest) = scenario.tagged_pair();
    let vantages: Vec<NodeId> = (0..scenario.positions().len())
        .filter(|&v| v != attacker)
        .collect();
    let template = MonitorConfig {
        sample_size: 10,
        counts: NodeCounts::SimCalibrated,
        eifs_weight: 0.0,
        ..MonitorConfig::random_paper(attacker, nearest, 240.0)
    };
    let case = Case {
        cfg,
        cheater: (attacker, 60),
        sources: vec![SourceCfg {
            node: attacker,
            model: TrafficModel::Saturated,
            dst: DstPolicy::StickyRandomNeighbor,
            payload_len: 512,
        }],
        watches: vec![
            Watch::Pool(template, vantages),
            Watch::Single(MonitorConfig::random_paper(attacker, nearest, 240.0)),
        ],
        faults: None,
    };
    let out = assert_routing_is_invisible(&case);
    assert!(
        out.pools[0].contributors.len() >= 2,
        "the pool must hand off between vantages: {:?}",
        out.pools[0].contributors
    );
}
