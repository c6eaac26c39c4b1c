//! Declarative scenario assembly: [`ScenarioBuilder`] and typed handles.
//!
//! The positional `Scenario::build(&[attacker, vantage], monitor)` call made
//! every caller hand-maintain the exclusion list and thread a single observer
//! through the world's type parameter. The builder replaces that: declare
//! attackers, monitors and extra sources by role, and [`ScenarioBuilder::build`]
//! wires the exclusion set, the observer fan-out ([`Monitors`]) and the
//! optional trace/metrics instrumentation in one place.
//!
//! ```
//! use mg_detect::{MonitorConfig, ScenarioBuilder, WorldMonitors};
//! use mg_net::{Scenario, ScenarioConfig, SourceCfg};
//! use mg_dcf::BackoffPolicy;
//! use mg_sim::SimTime;
//!
//! let scenario = Scenario::new(ScenarioConfig {
//!     sim_secs: 10, rate_pps: 2.0, ..ScenarioConfig::grid_paper(1)
//! });
//! let (s, r) = scenario.tagged_pair();
//! let mut b = ScenarioBuilder::new(scenario);
//! let attacker = b.attacker(s);
//! let watch = b.monitor(MonitorConfig::grid_paper(s, r, 240.0));
//! b.source(SourceCfg::saturated(s, r));
//! let mut world = b.build();
//! world.set_policy(attacker.id(), BackoffPolicy::Scaled { pm: 80 });
//! world.run_until(SimTime::from_secs(10));
//! let d = world.monitors().diagnosis(watch);
//! assert!(d.is_flagged());
//! ```

use crate::monitor::{Diagnosis, MonitorConfig};
use crate::pool::MonitorPool;
use crate::NodeId;
use mg_dcf::Frame;
use mg_fault::FaultPlan;
use mg_net::{NetObserver, Scenario, SourceCfg, World};
use mg_phy::Medium;
use mg_sim::SimTime;
use mg_trace::{Metrics, TraceConfig, Tracer};

/// Handle to a node registered as an attacker via
/// [`ScenarioBuilder::attacker`].
///
/// Registration keeps background sources off the node; the cheating policy
/// itself is applied to the built world (`world.set_policy(h.id(), …)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttackerHandle {
    node: NodeId,
}

impl AttackerHandle {
    /// The attacker's node id.
    pub fn id(&self) -> NodeId {
        self.node
    }
}

/// Handle to a monitor (or monitor pool) registered via
/// [`ScenarioBuilder::monitor`] / [`ScenarioBuilder::monitor_pool`].
///
/// Resolve it against the built world with [`Monitors::diagnosis`] or
/// [`Monitors::pool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MonitorHandle {
    index: usize,
    tagged: NodeId,
}

impl MonitorHandle {
    /// Position of this monitor in the [`Monitors`] collection.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The node this monitor watches.
    pub fn tagged(&self) -> NodeId {
        self.tagged
    }
}

/// The observer a [`ScenarioBuilder`] installs: every registered monitor
/// pool, fanned out behind one [`NetObserver`].
///
/// A callback reaches only the pools it can concern, in ascending pool
/// order: the pools with a member at the callback's node and, for a decoded
/// RTS, the pools watching its sender. A pool ignores every other callback
/// (its members see only events at their own node; only the tagged node's
/// RTS drives hand-off and testing), so skipping those calls leaves every
/// diagnosis and every journaled byte as a call to every pool would.
///
/// Access it on the built world through [`WorldMonitors::monitors`].
#[derive(Debug, Default)]
pub struct Monitors {
    pools: Vec<MonitorPool>,
    /// Pools with a member at each node.
    by_member: Routes,
    /// Pools watching each node.
    by_tagged: Routes,
}

/// A node → pool-index table in compressed rows: node `v`'s pools are
/// `pools[start[v]..start[v + 1]]`, ascending. Rows stop at the highest
/// node that has a pool; later nodes have none.
#[derive(Debug, Default)]
struct Routes {
    start: Vec<u32>,
    pools: Vec<u32>,
}

impl Routes {
    /// Builds the table from `(node, pool)` pairs listed in ascending pool
    /// order.
    fn new(pairs: &[(NodeId, usize)]) -> Routes {
        let Some(rows) = pairs.iter().map(|&(v, _)| v + 1).max() else {
            return Routes::default();
        };
        let mut start = vec![0u32; rows + 1];
        for &(v, _) in pairs {
            start[v + 1] += 1;
        }
        for v in 0..rows {
            start[v + 1] += start[v];
        }
        let mut fill: Vec<u32> = start[..rows].to_vec();
        let mut pools = vec![0u32; pairs.len()];
        for &(v, pool) in pairs {
            pools[fill[v] as usize] = pool as u32;
            fill[v] += 1;
        }
        Routes { start, pools }
    }

    /// The pools of `node`, ascending.
    #[inline]
    fn of(&self, node: NodeId) -> &[u32] {
        match self.start.get(node..node + 2) {
            Some(&[a, b]) => &self.pools[a as usize..b as usize],
            _ => &[],
        }
    }
}

impl Monitors {
    fn new(pools: Vec<MonitorPool>) -> Monitors {
        let mut members = Vec::new();
        for (i, p) in pools.iter().enumerate() {
            members.extend(p.vantages().map(|v| (v, i)));
        }
        let tagged: Vec<(NodeId, usize)> =
            pools.iter().enumerate().map(|(i, p)| (p.tagged(), i)).collect();
        Monitors {
            by_member: Routes::new(&members),
            by_tagged: Routes::new(&tagged),
            pools,
        }
    }

    /// Number of registered monitor pools.
    pub fn len(&self) -> usize {
        self.pools.len()
    }

    /// `true` when no monitor was registered.
    pub fn is_empty(&self) -> bool {
        self.pools.is_empty()
    }

    /// Iterates over the pools in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &MonitorPool> {
        self.pools.iter()
    }

    /// The pool at `index`, if any.
    pub fn get(&self, index: usize) -> Option<&MonitorPool> {
        self.pools.get(index)
    }

    /// The first registered pool — the common single-monitor case.
    pub fn primary(&self) -> Option<&MonitorPool> {
        self.pools.first()
    }

    /// The pool behind `handle`.
    ///
    /// # Panics
    ///
    /// Panics if `handle` came from a different builder.
    pub fn pool(&self, handle: MonitorHandle) -> &MonitorPool {
        &self.pools[handle.index]
    }

    /// Aggregated diagnosis of the pool behind `handle`.
    ///
    /// # Panics
    ///
    /// Panics if `handle` came from a different builder.
    pub fn diagnosis(&self, handle: MonitorHandle) -> Diagnosis {
        self.pool(handle).diagnosis()
    }
}

impl NetObserver for Monitors {
    #[inline]
    fn on_channel_edge(&mut self, node: NodeId, busy: bool, now: SimTime) {
        for &i in self.by_member.of(node) {
            self.pools[i as usize].on_channel_edge(node, busy, now);
        }
    }

    fn on_tx_start(&mut self, src: NodeId, frame: &Frame, now: SimTime, end: SimTime) {
        for &i in self.by_member.of(src) {
            self.pools[i as usize].on_tx_start(src, frame, now, end);
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
        // Merge the two ascending lists, calling a pool in both once.
        let members = self.by_member.of(at);
        let watchers = if frame.is_rts() { self.by_tagged.of(frame.src) } else { &[] };
        let (mut m, mut w) = (0, 0);
        loop {
            let i = match (members.get(m), watchers.get(w)) {
                (Some(&a), Some(&b)) => {
                    m += usize::from(a <= b);
                    w += usize::from(b <= a);
                    a.min(b)
                }
                (Some(&a), None) => {
                    m += 1;
                    a
                }
                (None, Some(&b)) => {
                    w += 1;
                    b
                }
                (None, None) => break,
            };
            self.pools[i as usize].on_frame_decoded(medium, at, frame, start, end);
        }
    }

    #[inline]
    fn on_frame_garbled(&mut self, at: NodeId, now: SimTime) {
        for &i in self.by_member.of(at) {
            self.pools[i as usize].on_frame_garbled(at, now);
        }
    }
}

/// The observer a [`ScenarioBuilder`] installs on the world it builds: the
/// registered [`Monitors`] plus an optional custom probe observer.
///
/// Monitors see every event first, then the probe — so a probe measuring
/// e.g. delivery latency observes exactly what it would observe alone, while
/// the monitors stay read-only alongside it. Built worlds expose the halves
/// through [`WorldMonitors::monitors`] and [`WorldProbe::probe`].
#[derive(Debug, Default)]
pub struct Assembly<P: NetObserver = ()> {
    monitors: Monitors,
    probe: P,
}

impl<P: NetObserver> Assembly<P> {
    /// The registered monitors.
    pub fn monitors(&self) -> &Monitors {
        &self.monitors
    }

    /// The custom probe observer (the unit observer `()` by default).
    pub fn probe(&self) -> &P {
        &self.probe
    }
}

impl<P: NetObserver> NetObserver for Assembly<P> {
    fn on_channel_edge(&mut self, node: NodeId, busy: bool, now: SimTime) {
        self.monitors.on_channel_edge(node, busy, now);
        self.probe.on_channel_edge(node, busy, now);
    }

    fn on_tx_start(&mut self, src: NodeId, frame: &Frame, now: SimTime, end: SimTime) {
        self.monitors.on_tx_start(src, frame, now, end);
        self.probe.on_tx_start(src, frame, now, end);
    }

    fn on_frame_decoded(
        &mut self,
        medium: &Medium,
        at: NodeId,
        frame: &Frame,
        start: SimTime,
        end: SimTime,
    ) {
        self.monitors.on_frame_decoded(medium, at, frame, start, end);
        self.probe.on_frame_decoded(medium, at, frame, start, end);
    }

    fn on_frame_garbled(&mut self, at: NodeId, now: SimTime) {
        self.monitors.on_frame_garbled(at, now);
        self.probe.on_frame_garbled(at, now);
    }
}

/// Read the monitors back out of a world built by [`ScenarioBuilder`].
///
/// `world.monitors()` generalizes the old `world.observer()` idiom: the
/// observer of a builder-made world is always an [`Assembly`], and this
/// trait names its monitor half without spelling the type parameter at
/// every call site. The pools are read-only once built: the fan-out routes
/// by the members and tagged nodes they had at build time.
pub trait WorldMonitors {
    /// The registered monitors.
    fn monitors(&self) -> &Monitors;
}

impl<P: NetObserver> WorldMonitors for World<Assembly<P>> {
    fn monitors(&self) -> &Monitors {
        &self.observer().monitors
    }
}

/// Read a custom probe observer back out of a world built with
/// [`ScenarioBuilder::probe`].
pub trait WorldProbe<P> {
    /// The probe installed at build time.
    fn probe(&self) -> &P;
    /// Mutable access to the probe.
    fn probe_mut(&mut self) -> &mut P;
}

impl<P: NetObserver> WorldProbe<P> for World<Assembly<P>> {
    fn probe(&self) -> &P {
        &self.observer().probe
    }

    fn probe_mut(&mut self) -> &mut P {
        &mut self.observer_mut().probe
    }
}

/// Assembles a detection scenario: attackers, monitors, extra traffic and
/// instrumentation on top of a laid-out [`Scenario`].
///
/// Registration order is free; [`build`](ScenarioBuilder::build) derives the
/// background-source exclusion set from the declared roles (attackers,
/// tagged nodes, template vantages) and hands it to the low-level
/// [`Scenario::realize`] primitive. The type parameter `P` is a custom probe
/// observer (see [`ScenarioBuilder::probe`]); it defaults to the unit
/// observer, so plain monitor-only builds never mention it.
pub struct ScenarioBuilder<P: NetObserver = ()> {
    scenario: Scenario,
    exclude: Vec<NodeId>,
    pools: Vec<MonitorPool>,
    sources: Vec<SourceCfg>,
    trace: Option<TraceConfig>,
    metrics: bool,
    fault: Option<FaultPlan>,
    probe: P,
}

impl ScenarioBuilder {
    /// Starts a builder over `scenario`.
    pub fn new(scenario: Scenario) -> Self {
        ScenarioBuilder {
            scenario,
            exclude: Vec::new(),
            pools: Vec::new(),
            sources: Vec::new(),
            trace: None,
            metrics: false,
            fault: None,
            probe: (),
        }
    }
}

impl<P: NetObserver> ScenarioBuilder<P> {

    /// The underlying scenario (topology and config).
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Registers `node` as an attacker: background sources stay off it so
    /// its traffic can be configured explicitly.
    ///
    /// The cheating policy is applied to the built world:
    /// `world.set_policy(handle.id(), policy)`.
    pub fn attacker(&mut self, node: NodeId) -> AttackerHandle {
        self.exclude_node(node);
        AttackerHandle { node }
    }

    /// Registers `count` attackers spread deterministically across the node
    /// id space (evenly strided picks — no RNG draw, so adding attackers
    /// never perturbs placement or source streams). The many-attacker knob
    /// of the scale studies: apply policies to the returned handles.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the node count.
    pub fn attackers(&mut self, count: usize) -> Vec<AttackerHandle> {
        let n = self.scenario.positions().len();
        assert!(count <= n, "cannot place {count} attackers on {n} nodes");
        (0..count)
            .map(|i| self.attacker(i * n / count.max(1)))
            .collect()
    }

    /// Registers a monitor watching each node in `tagged` from its nearest
    /// one-hop neighbor (the natural vantage: closest node inside the
    /// transmission range). Tagged nodes with no in-range neighbor are
    /// skipped — the returned handles tell which got a monitor. The monitor
    /// configuration follows the scenario (grid topologies use the paper's
    /// fixed-counts analytic model, random/clustered ones the density
    /// estimate), with the scenario's own tx/cs ranges.
    pub fn monitor_mesh(&mut self, tagged: &[NodeId]) -> Vec<MonitorHandle> {
        use mg_geom::placement;
        use mg_net::TopologyCfg;
        let cfg = *self.scenario.config();
        let positions = self.scenario.positions().to_vec();
        let mut handles = Vec::new();
        for &t in tagged {
            let Some(v) = placement::neighbors_within(&positions, t, cfg.tx_range)
                .into_iter()
                .min_by(|&a, &b| {
                    positions[t]
                        .distance_sq(positions[a])
                        .partial_cmp(&positions[t].distance_sq(positions[b]))
                        .expect("no NaN positions")
                })
            else {
                continue; // isolated node: nothing can watch it
            };
            let d = positions[t].distance(positions[v]);
            let mut mc = match cfg.topology {
                TopologyCfg::Grid { .. } => MonitorConfig::grid_paper(t, v, d),
                _ => MonitorConfig::random_paper(t, v, d),
            };
            mc.tx_range = cfg.tx_range;
            mc.cs_range = cfg.cs_range;
            handles.push(self.monitor(mc));
        }
        handles
    }

    /// Registers a single monitor watching `cfg.tagged` from `cfg.vantage`.
    ///
    /// Both nodes are excluded from background sources, matching the old
    /// `Scenario::build(&[tagged, vantage], monitor)` convention.
    pub fn monitor(&mut self, cfg: MonitorConfig) -> MonitorHandle {
        let vantage = cfg.vantage;
        self.push_pool(MonitorPool::new(cfg.tagged, &[vantage], cfg))
    }

    /// Registers a monitor pool watching `template.tagged` from every node
    /// in `vantages`, with range-based handoff (the paper's mobile case).
    ///
    /// Only `template.tagged` and `template.vantage` are excluded from
    /// background sources — extra vantages keep their traffic, so adding
    /// vantages does not perturb the source-placement RNG draw.
    pub fn monitor_pool(&mut self, template: MonitorConfig, vantages: &[NodeId]) -> MonitorHandle {
        let tagged = template.tagged;
        let vantage = template.vantage;
        let pool = MonitorPool::new(tagged, vantages, template);
        let h = self.push_pool_raw(pool, tagged);
        self.exclude_node(tagged);
        self.exclude_node(vantage);
        h
    }

    /// Adds a traffic source to the built world, on top of the scenario's
    /// background sources.
    pub fn source(&mut self, cfg: SourceCfg) {
        self.sources.push(cfg);
    }

    /// Reserves `node`: background sources stay off it without giving it a
    /// role. Useful for keeping a measurement pair quiet in benchmarks that
    /// attach no monitor.
    pub fn reserve(&mut self, node: NodeId) {
        self.exclude_node(node);
    }

    /// Installs a custom probe observer alongside the monitors.
    ///
    /// The probe sees every [`NetObserver`] event (after the monitors) and is
    /// read back from the built world with [`WorldProbe::probe`]. Replaces
    /// any previously installed probe.
    pub fn probe<Q: NetObserver>(self, probe: Q) -> ScenarioBuilder<Q> {
        ScenarioBuilder {
            scenario: self.scenario,
            exclude: self.exclude,
            pools: self.pools,
            sources: self.sources,
            trace: self.trace,
            metrics: self.metrics,
            fault: self.fault,
            probe,
        }
    }

    /// Injects `plan` at every registered monitor's observation boundary.
    ///
    /// The simulated world runs unchanged — nodes transmit, collide and
    /// back off exactly as without the plan — but each monitor perceives it
    /// through its own deterministic injector ([`FaultPlan::observer`],
    /// keyed by vantage id): frames lost, deafness windows, tagged-RTS
    /// commitment bits flipped. Plans with observation faults also harden
    /// every monitor to require two consecutive anomalous observations
    /// before a deterministic conviction (see [`Monitor`](crate::Monitor)).
    /// A no-op plan changes nothing.
    /// Replaces any previously set plan.
    pub fn fault(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Journals the whole stack (scheduler → PHY → MAC → net → monitors)
    /// into a ring-buffer trace with the given capacity and level filters.
    pub fn trace(&mut self, cfg: TraceConfig) {
        self.trace = Some(cfg);
    }

    /// Enables per-node counters and latency/back-off histograms.
    pub fn metrics(&mut self) {
        self.metrics = true;
    }

    /// Builds the world: lays out sources with the role-derived exclusion
    /// set, installs the monitors (and probe) as the observer, and threads
    /// the trace and metrics handles through every layer.
    pub fn build(self) -> World<Assembly<P>> {
        let nodes = self.scenario.positions().len();
        let tracer = match self.trace {
            Some(cfg) => Tracer::new(cfg),
            None => Tracer::disabled(),
        };
        let metrics = if self.metrics {
            Metrics::new(nodes)
        } else {
            Metrics::disabled()
        };
        let mut pools = self.pools;
        for p in &mut pools {
            p.set_instrumentation(tracer.clone(), metrics.clone());
            if let Some(plan) = &self.fault {
                p.apply_fault_plan(plan);
            }
        }
        let monitors = Monitors::new(pools);
        let assembly = Assembly {
            monitors,
            probe: self.probe,
        };
        let mut world = self.scenario.realize(&self.exclude, assembly);
        world.set_tracer(tracer);
        world.set_metrics(metrics);
        // Extra sources go in after the scenario's background sources so the
        // background traffic streams keep their indices (and thus their RNG
        // draws) no matter how many roles were declared.
        for cfg in self.sources {
            world.add_source(cfg);
        }
        world
    }

    fn exclude_node(&mut self, node: NodeId) {
        if !self.exclude.contains(&node) {
            self.exclude.push(node);
        }
    }

    fn push_pool(&mut self, pool: MonitorPool) -> MonitorHandle {
        let tagged = pool.tagged();
        let vantages: Vec<NodeId> = pool.vantages().collect();
        let h = self.push_pool_raw(pool, tagged);
        self.exclude_node(tagged);
        for v in vantages {
            self.exclude_node(v);
        }
        h
    }

    fn push_pool_raw(&mut self, pool: MonitorPool, tagged: NodeId) -> MonitorHandle {
        let index = self.pools.len();
        self.pools.push(pool);
        MonitorHandle { index, tagged }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_dcf::BackoffPolicy;
    use mg_net::{ScenarioConfig, SourceCfg};

    fn paper_scenario(seed: u64, secs: u64) -> Scenario {
        Scenario::new(ScenarioConfig {
            sim_secs: secs,
            rate_pps: 2.0,
            ..ScenarioConfig::grid_paper(seed)
        })
    }

    #[test]
    fn handles_report_their_nodes() {
        let scenario = paper_scenario(1, 5);
        let (s, r) = scenario.tagged_pair();
        let mut b = ScenarioBuilder::new(scenario);
        let a = b.attacker(s);
        let m = b.monitor(MonitorConfig::grid_paper(s, r, 240.0));
        assert_eq!(a.id(), s);
        assert_eq!(m.tagged(), s);
        assert_eq!(m.index(), 0);
        let world = b.build();
        assert_eq!(world.monitors().len(), 1);
        assert!(world.monitors().primary().is_some());
    }

    #[test]
    fn attackers_are_strided_and_deduplicated_with_roles() {
        let scenario = paper_scenario(1, 5);
        let mut b = ScenarioBuilder::new(scenario);
        let hs = b.attackers(4);
        assert_eq!(hs.len(), 4);
        let ids: Vec<NodeId> = hs.iter().map(|h| h.id()).collect();
        assert_eq!(ids, vec![0, 14, 28, 42], "56 nodes, stride 14");
        // Deterministic: a rebuilt identical scenario yields the same picks.
        let mut b2 = ScenarioBuilder::new(paper_scenario(1, 5));
        let ids2: Vec<NodeId> = b2.attackers(4).iter().map(|h| h.id()).collect();
        assert_eq!(ids, ids2);
    }

    #[test]
    fn monitor_mesh_picks_nearest_vantage_and_skips_isolated() {
        let scenario = paper_scenario(2, 5);
        let (s, _) = scenario.tagged_pair();
        let mut b = ScenarioBuilder::new(scenario);
        let hs = b.monitor_mesh(&[s, s + 1]);
        assert_eq!(hs.len(), 2, "grid nodes always have neighbors");
        assert_eq!(hs[0].tagged(), s);
        assert_eq!(hs[1].tagged(), s + 1);
        let world = b.build();
        assert_eq!(world.monitors().len(), 2);
        // Grid neighbors sit 240 m apart: the mesh must have found one.
        for (h, t) in [(hs[0], s), (hs[1], s + 1)] {
            let pool = world.monitors().pool(h);
            assert_eq!(pool.tagged(), t);
        }
    }

    #[test]
    fn builder_flags_a_hard_cheater() {
        let scenario = paper_scenario(4, 20);
        let (s, r) = scenario.tagged_pair();
        let mut b = ScenarioBuilder::new(scenario);
        let a = b.attacker(s);
        let mut mc = MonitorConfig::grid_paper(s, r, 240.0);
        mc.sample_size = 25;
        let watch = b.monitor(mc);
        b.source(SourceCfg::saturated(s, r));
        let mut world = b.build();
        world.set_policy(a.id(), BackoffPolicy::Scaled { pm: 80 });
        world.run_until(SimTime::from_secs(20));
        let d = world.monitors().diagnosis(watch);
        assert!(d.is_flagged(), "{d:?}");
    }

    #[test]
    fn instrumented_builds_are_deterministic() {
        let run = || {
            let scenario = paper_scenario(7, 2);
            let (s, r) = scenario.tagged_pair();
            let mut b = ScenarioBuilder::new(scenario);
            b.attacker(s);
            b.monitor(MonitorConfig::grid_paper(s, r, 240.0));
            b.source(SourceCfg::saturated(s, r));
            b.trace(TraceConfig::verbose());
            b.metrics();
            let mut world = b.build();
            world.run_until(SimTime::from_secs(2));
            let jsonl = world.tracer().to_jsonl();
            let snap = world.metrics().snapshot();
            (jsonl, snap.total(mg_trace::Counter::TxFrames))
        };
        let (ja, ta) = run();
        let (jb, tb) = run();
        assert!(!ja.is_empty());
        assert!(ta > 0);
        assert_eq!(ja, jb);
        assert_eq!(ta, tb);
    }

    #[test]
    fn faulted_builds_are_byte_deterministic_and_leave_the_world_alone() {
        use crate::FaultPlan;
        let run = |plan: Option<FaultPlan>| {
            let scenario = paper_scenario(7, 2);
            let (s, r) = scenario.tagged_pair();
            let mut b = ScenarioBuilder::new(scenario);
            b.attacker(s);
            b.monitor(MonitorConfig::grid_paper(s, r, 240.0));
            b.source(SourceCfg::saturated(s, r));
            b.trace(TraceConfig::verbose());
            if let Some(p) = plan {
                b.fault(p);
            }
            let mut world = b.build();
            world.run_until(SimTime::from_secs(2));
            (world.tracer().to_jsonl(), world.mac_delivered, world.events_fired())
        };
        let plan = FaultPlan::parse("seed=5,light").unwrap();
        let (ja, da, ea) = run(Some(plan.clone()));
        let (jb, db, eb) = run(Some(plan));
        assert_eq!(ja, jb, "equal fault seeds must journal identically");
        assert!(
            ja.contains("\"sub\":\"fault\""),
            "a light plan must visibly inject at least one fault"
        );
        // Faults live at the observation boundary: the simulated world
        // (deliveries, event count) is identical to the fault-free run.
        let (_, dc, ec) = run(None);
        assert_eq!((da, ea), (dc, ec));
        assert_eq!((db, eb), (dc, ec));
    }

    #[test]
    fn monitor_exclusion_matches_old_positional_build() {
        // Same seed, monitor-region roles declared through the builder vs
        // the old positional exclusion list: background sources must land on
        // the same nodes, i.e. deliver the same totals.
        let scenario_a = paper_scenario(9, 3);
        let (s, r) = scenario_a.tagged_pair();
        let mut b = ScenarioBuilder::new(scenario_a);
        b.attacker(s);
        b.monitor(MonitorConfig::grid_paper(s, r, 240.0));
        b.source(SourceCfg::saturated(s, r));
        let mut wa = b.build();
        wa.run_until(SimTime::from_secs(3));

        let scenario_b = paper_scenario(9, 3);
        let mut wb = scenario_b.realize(&[s, r], ());
        wb.add_source(SourceCfg::saturated(s, r));
        wb.run_until(SimTime::from_secs(3));

        assert_eq!(wa.mac_delivered, wb.mac_delivered);
        assert_eq!(wa.events_fired(), wb.events_fired());
    }
}
