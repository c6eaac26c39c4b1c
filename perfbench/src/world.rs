//! The live-world workloads, `paper_grid` and `large_world`: a scenario is
//! built, its monitors attached and the world run for a fixed simulated
//! span, all through the library's public `ScenarioBuilder`.

use crate::{check_repeats, median, median_s, overhead, peak_rss_mb, repeat, Outcome, Run, Scale};
use manet_guard::detect::{MonitorConfig, MonitorPool, ScenarioBuilder, WorldMonitors, WorldProbe};
use manet_guard::geom::placement;
use manet_guard::mac::{BackoffPolicy, Frame};
use manet_guard::net::{NetObserver, Scenario, ScenarioConfig, SourceCfg, TopologyCfg, World};
use manet_guard::phy::Medium;
use manet_guard::sim::SimTime;
use manet_guard::trace::Counter;
use mg_bench::Load;
use std::time::{Duration, Instant};

type NodeId = usize;

/// World builds timed per untraced repetition; `setup_s` is their median.
const SETUP_BUILDS: usize = 5;

/// A world workload, derived from the seed before anything is timed.
#[derive(Clone, Debug)]
pub struct Spec {
    /// The scenario.
    pub cfg: ScenarioConfig,
    /// Nodes registered as attackers: kept off background traffic, and
    /// watched. Only those in `cheaters` misbehave.
    pub tagged: Vec<NodeId>,
    /// One single-vantage monitor per entry, in registration order.
    pub monitors: Vec<MonitorConfig>,
    /// `(node, pm)`: nodes running [`BackoffPolicy::Scaled`].
    pub cheaters: Vec<(NodeId, u8)>,
    /// Saturated flows on top of the background traffic.
    pub sources: Vec<SourceCfg>,
    /// Register the monitors with `ScenarioBuilder::monitor_mesh` over
    /// `tagged` (which must pick exactly `monitors`) instead of one by one.
    pub mesh: bool,
}

impl Spec {
    /// The paper's static 7×8 grid at medium load, with a saturated tagged
    /// pair whose sender cheats at PM = 75, watched by four monitors at
    /// sample sizes 10/25/50/100 (the Fig. 5 fan-out on one world).
    pub fn paper_grid(seed: u64, scale: Scale) -> Spec {
        let sim_secs = match scale {
            Scale::Full => 60,
            Scale::Tiny => 10,
        };
        let cfg = ScenarioConfig {
            sim_secs,
            rate_pps: Load::Medium.rate_pps(),
            ..ScenarioConfig::grid_paper(seed)
        };
        let scenario = Scenario::new(cfg);
        let (s, r) = scenario.tagged_pair();
        let d = scenario.positions()[s].distance(scenario.positions()[r]);
        let mc = MonitorConfig::grid_paper(s, r, d);
        Spec {
            cfg,
            tagged: vec![s],
            monitors: [10, 25, 50, 100].map(|n| mc.with_sample_size(n)).to_vec(),
            cheaters: vec![(s, 75)],
            sources: vec![SourceCfg::saturated(s, r)],
            mesh: false,
        }
    }

    /// 2000 nodes in 20 clusters of 100 (300 m radius) at the paper's node
    /// density, on the default grid index and serial engine. Eight strided
    /// tagged nodes send saturated traffic to their nearest neighbor, which
    /// watches them; every other one cheats at PM = 70.
    pub fn large_world(seed: u64, scale: Scale) -> Spec {
        let (clusters, sim_secs, tagged_count) = match scale {
            Scale::Full => (20, 3, 8),
            Scale::Tiny => (4, 2, 4),
        };
        let per_cluster = 100;
        let cfg = ScenarioConfig {
            topology: TopologyCfg::Clustered {
                clusters,
                per_cluster,
                radius: 300.0,
            },
            sim_secs,
            ..ScenarioConfig::large_world(seed, clusters * per_cluster)
        };
        let scenario = Scenario::new(cfg);
        let pos = scenario.positions();
        let n = pos.len();
        // The strided picks of `ScenarioBuilder::attackers`, and the vantage
        // `monitor_mesh` picks for each: the nearest node in decode range.
        let tagged: Vec<NodeId> = (0..tagged_count).map(|i| i * n / tagged_count).collect();
        let monitors: Vec<MonitorConfig> = tagged
            .iter()
            .map(|&t| {
                let v = placement::neighbors_within(pos, t, cfg.tx_range)
                    .into_iter()
                    .min_by(|&a, &b| {
                        pos[t]
                            .distance_sq(pos[a])
                            .total_cmp(&pos[t].distance_sq(pos[b]))
                    })
                    .expect("every clustered node has a neighbor in decode range");
                MonitorConfig {
                    tx_range: cfg.tx_range,
                    cs_range: cfg.cs_range,
                    ..MonitorConfig::random_paper(t, v, pos[t].distance(pos[v]))
                }
            })
            .collect();
        Spec {
            cfg,
            cheaters: tagged.iter().step_by(2).map(|&t| (t, 70)).collect(),
            sources: monitors
                .iter()
                .map(|mc| SourceCfg::saturated(mc.tagged, mc.vantage))
                .collect(),
            tagged,
            monitors,
            mesh: true,
        }
    }

    /// Whether the monitor at `index` watches a cheater.
    fn expects_flag(&self, index: usize) -> bool {
        self.cheaters
            .iter()
            .any(|&(n, _)| n == self.monitors[index].tagged)
    }

    fn watched(&self) -> Vec<(NodeId, NodeId)> {
        self.monitors
            .iter()
            .map(|mc| (mc.tagged, mc.vantage))
            .collect()
    }

    fn scenario(&self) -> ScenarioBuilder {
        let mut b = ScenarioBuilder::new(Scenario::new(self.cfg));
        for &t in &self.tagged {
            b.attacker(t);
        }
        b
    }

    fn start<P: NetObserver>(
        &self,
        mut b: ScenarioBuilder<P>,
    ) -> World<manet_guard::detect::Assembly<P>> {
        for &s in &self.sources {
            b.source(s);
        }
        let mut world = b.build();
        for &(n, pm) in &self.cheaters {
            world.set_policy(n, BackoffPolicy::Scaled { pm });
        }
        world
    }
}

/// Counts the observer callbacks that concern a watched `(tagged, vantage)`
/// pair, per pair: the vantage's own channel edges, transmissions and
/// receptions, and any decoded RTS of the tagged node. These are the
/// observations a journal of the pair would hold; the rest of the callbacks
/// a monitor receives are discarded. Reads no clock.
#[derive(Debug)]
struct Relevant {
    watched: Vec<(NodeId, NodeId)>,
    count: u64,
}

impl Relevant {
    fn new(watched: Vec<(NodeId, NodeId)>) -> Relevant {
        Relevant { watched, count: 0 }
    }

    fn at(&mut self, node: NodeId) {
        self.count += self.watched.iter().filter(|&&(_, v)| v == node).count() as u64;
    }
}

impl NetObserver for Relevant {
    fn on_channel_edge(&mut self, node: NodeId, _busy: bool, _now: SimTime) {
        self.at(node);
    }

    fn on_tx_start(&mut self, src: NodeId, _frame: &Frame, _now: SimTime, _end: SimTime) {
        self.at(src);
    }

    fn on_frame_decoded(
        &mut self,
        _m: &Medium,
        at: NodeId,
        frame: &Frame,
        _s: SimTime,
        _e: SimTime,
    ) {
        let rts = frame.is_rts();
        self.count += self
            .watched
            .iter()
            .filter(|&&(t, v)| v == at || (rts && frame.src == t))
            .count() as u64;
    }

    fn on_frame_garbled(&mut self, at: NodeId, _now: SimTime) {
        self.at(at);
    }
}

/// The traced run's observer: owns the monitor pools the untraced run
/// registers through `ScenarioBuilder`, and times every call into them.
#[derive(Debug)]
struct Timed {
    pools: Vec<MonitorPool>,
    relevant: Relevant,
    calls: u64,
    busy: Duration,
}

impl Timed {
    fn each(&mut self, mut f: impl FnMut(&mut MonitorPool)) {
        let t = Instant::now();
        for p in &mut self.pools {
            f(p);
        }
        self.busy += t.elapsed();
        self.calls += self.pools.len() as u64;
    }
}

impl NetObserver for Timed {
    fn on_channel_edge(&mut self, node: NodeId, busy: bool, now: SimTime) {
        self.relevant.on_channel_edge(node, busy, now);
        self.each(|p| p.on_channel_edge(node, busy, now));
    }

    fn on_tx_start(&mut self, src: NodeId, frame: &Frame, now: SimTime, end: SimTime) {
        self.relevant.on_tx_start(src, frame, now, end);
        self.each(|p| p.on_tx_start(src, frame, now, end));
    }

    fn on_frame_decoded(
        &mut self,
        m: &Medium,
        at: NodeId,
        frame: &Frame,
        start: SimTime,
        end: SimTime,
    ) {
        self.relevant.on_frame_decoded(m, at, frame, start, end);
        self.each(|p| p.on_frame_decoded(m, at, frame, start, end));
    }

    fn on_frame_garbled(&mut self, at: NodeId, now: SimTime) {
        self.relevant.on_frame_garbled(at, now);
        self.each(|p| p.on_frame_garbled(at, now));
    }
}

/// Counts one repetition must reproduce exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Counts {
    events: u64,
    relevant: u64,
    samples: u64,
    tests: u64,
    violations: u64,
    /// Per monitor, in registration order.
    flagged: Vec<bool>,
}

/// One repetition.
struct Rep {
    /// Median build time; zero for traced repetitions, which build once.
    setup: Duration,
    run: Duration,
    /// The simulated span `run` covered.
    sim_secs: u64,
    counts: Counts,
    /// Traced repetitions only.
    layers: Option<Layers>,
}

struct Layers {
    detect: Duration,
    calls: u64,
    counters: Vec<(&'static str, u64)>,
}

/// The world's stack counters the traced run reports.
const COUNTERS: [(&str, Counter); 7] = [
    ("net.enqueued", Counter::Enqueued),
    ("net.delivered", Counter::Delivered),
    ("net.dropped", Counter::Dropped),
    ("mac.tx_frames", Counter::TxFrames),
    ("mac.backoff_freezes", Counter::BackoffFreezes),
    ("phy.rx_decoded", Counter::RxDecoded),
    ("phy.rx_garbled", Counter::RxGarbled),
];

fn counts<'a>(events: u64, relevant: u64, pools: impl Iterator<Item = &'a MonitorPool>) -> Counts {
    let mut c = Counts {
        events,
        relevant,
        samples: 0,
        tests: 0,
        violations: 0,
        flagged: Vec::new(),
    };
    for p in pools {
        let d = p.diagnosis();
        c.samples += d.samples_collected as u64;
        c.tests += d.tests_run as u64;
        c.violations += d.violations as u64;
        c.flagged.push(d.is_flagged());
    }
    c
}

/// The product path: monitors registered through `ScenarioBuilder`, observed
/// only by the clock-free [`Relevant`] counter.
fn rep_plain(spec: &Spec, mismatches: &mut Vec<String>) -> Rep {
    let build = |builds: &mut Vec<Duration>| {
        let t0 = Instant::now();
        let mut b = spec.scenario();
        if spec.mesh {
            b.monitor_mesh(&spec.tagged);
        } else {
            for &mc in &spec.monitors {
                b.monitor(mc);
            }
        }
        let world = spec.start(b.probe(Relevant::new(spec.watched())));
        builds.push(t0.elapsed());
        world
    };
    // A build takes well under a millisecond to a few: time several and
    // keep the last world.
    let mut builds = Vec::with_capacity(SETUP_BUILDS);
    let mut world = build(&mut builds);
    for _ in 1..SETUP_BUILDS {
        drop(world);
        world = build(&mut builds);
    }
    let setup = Duration::from_secs_f64(median_s(builds));
    let t1 = Instant::now();
    world.run_until(SimTime::from_secs(spec.cfg.sim_secs));
    let run = t1.elapsed();
    let pairs: Vec<(NodeId, NodeId)> = world
        .monitors()
        .iter()
        .map(|p| {
            (
                p.tagged(),
                p.vantages().next().expect("a pool has a vantage"),
            )
        })
        .collect();
    if pairs != spec.watched() {
        mismatches.push(format!(
            "monitor_mesh watched {pairs:?}, the traced run watches {:?}",
            spec.watched()
        ));
    }
    let counts = counts(
        world.events_fired(),
        world.probe().count,
        world.monitors().iter(),
    );
    Rep {
        setup,
        run,
        sim_secs: spec.cfg.sim_secs,
        counts,
        layers: None,
    }
}

/// The traced path: the same world, with the same nodes reserved, but the
/// monitor pools inside a [`Timed`] probe and stack counters enabled.
fn rep_traced(spec: &Spec) -> Rep {
    let mut b = spec.scenario();
    for mc in &spec.monitors {
        b.reserve(mc.tagged);
        b.reserve(mc.vantage);
    }
    b.metrics();
    let probe = Timed {
        pools: spec
            .monitors
            .iter()
            .map(|&mc| MonitorPool::new(mc.tagged, &[mc.vantage], mc))
            .collect(),
        relevant: Relevant::new(spec.watched()),
        calls: 0,
        busy: Duration::ZERO,
    };
    let mut world = spec.start(b.probe(probe));
    let t1 = Instant::now();
    world.run_until(SimTime::from_secs(spec.cfg.sim_secs));
    let run = t1.elapsed();
    let timed = world.probe();
    let snap = world.metrics().snapshot();
    let layers = Layers {
        detect: timed.busy,
        calls: timed.calls,
        counters: COUNTERS
            .iter()
            .map(|&(name, c)| (name, snap.total(c)))
            .collect(),
    };
    let counts = counts(
        world.events_fired(),
        timed.relevant.count,
        timed.pools.iter(),
    );
    Rep {
        setup: Duration::ZERO,
        run,
        sim_secs: spec.cfg.sim_secs,
        counts,
        layers: Some(layers),
    }
}

/// Worlds a run cycles through, derived from its seed. A world's cost
/// depends on where its clusters and flows land; a median over several
/// worlds varies less from seed to seed than a single world does.
pub(crate) const WORLDS: u64 = 8;

/// The worlds of a run: `make` applied to [`WORLDS`] seeds derived from
/// `seed`.
pub(crate) fn worlds(seed: u64, make: impl Fn(u64) -> Spec) -> Vec<Spec> {
    (0..WORLDS)
        .map(|k| make(seed.wrapping_mul(WORLDS).wrapping_add(k)))
        .collect()
}

/// Runs a world workload: repetitions cycling through `specs` until the
/// budget is spent, checks, then the end-to-end or per-layer metrics.
pub(crate) fn run(specs: &[Spec], r: &Run) -> Outcome {
    let mut out = Outcome::default();
    let reps = repeat(r, |i, traced| {
        let spec = &specs[i % specs.len()];
        if traced {
            rep_traced(spec)
        } else {
            rep_plain(spec, &mut out.mismatches)
        }
    });
    let (plain, traced) = (&reps.plain, &reps.traced);
    out.reps = plain.len();
    out.slowdown = reps.slowdown;
    for (i, rep) in plain.iter().enumerate().chain(traced.iter().enumerate()) {
        let spec = &specs[i % specs.len()];
        for (m, &flagged) in rep.counts.flagged.iter().enumerate() {
            out.attempted += 1;
            if flagged != spec.expects_flag(m) {
                out.failed += 1;
            }
        }
    }
    // Repetition i ran world i % specs.len(), untraced and traced alike.
    let n = specs.len();
    for k in 0..n {
        let all: Vec<&Counts> = plain
            .iter()
            .skip(k)
            .step_by(n)
            .chain(traced.iter().skip(k).step_by(n))
            .map(|rep| &rep.counts)
            .collect();
        check_repeats(&format!("world {k} counts"), &all, &mut out.mismatches);
        let calls: Vec<_> = traced
            .iter()
            .skip(k)
            .step_by(n)
            .map(|rep| (layers(rep).calls, &layers(rep).counters))
            .collect();
        check_repeats(
            &format!("world {k} pool calls and stack counters"),
            &calls,
            &mut out.mismatches,
        );
    }
    let v = &mut out.values;
    if !r.trace {
        let secs = |rep: &Rep| rep.run.as_secs_f64();
        v.insert("setup_s", reps.reference_s(|rep| rep.setup));
        v.insert(
            "sim_secs_per_s",
            reps.reference_rate(|rep| rep.sim_secs as f64 / secs(rep)),
        );
        v.insert(
            "obs_per_s",
            reps.reference_rate(|rep| rep.counts.relevant as f64 / secs(rep)),
        );
        return out;
    }
    // Counts come from the first world; times are medians over all traced
    // repetitions, per event or call of the world each one ran.
    let traced_median = |f: &dyn Fn(&Rep) -> f64| median(traced.iter().map(f).collect());
    let self_s = |rep: &Rep| rep.run.saturating_sub(layers(rep).detect).as_secs_f64();
    let (c, first) = (&traced[0].counts, layers(&traced[0]));
    v.insert("sim.events", c.events as f64);
    v.insert(
        "sim.ns_per_event",
        traced_median(&|rep| self_s(rep) * 1e9 / rep.counts.events as f64),
    );
    v.insert("net.run_s", traced_median(&|rep| rep.run.as_secs_f64()));
    v.insert("net.self_s", traced_median(&self_s));
    for &(name, n) in &first.counters {
        v.insert(name, n as f64);
    }
    v.insert("detect.calls", first.calls as f64);
    v.insert("detect.useful_frac", c.relevant as f64 / first.calls as f64);
    v.insert(
        "detect.self_s",
        traced_median(&|rep| layers(rep).detect.as_secs_f64()),
    );
    v.insert(
        "detect.ns_per_call",
        traced_median(&|rep| layers(rep).detect.as_secs_f64() * 1e9 / layers(rep).calls as f64),
    );
    v.insert("detect.samples", c.samples as f64);
    v.insert("detect.tests", c.tests as f64);
    v.insert("detect.violations", c.violations as f64);
    v.insert("proc.peak_rss_mb", peak_rss_mb());
    v.insert(
        "trace.overhead_frac",
        overhead(plain.iter().zip(traced).map(|(p, t)| (p.run, t.run))),
    );
    out
}

fn layers(rep: &Rep) -> &Layers {
    rep.layers
        .as_ref()
        .expect("traced repetitions carry layers")
}
