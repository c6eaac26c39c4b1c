//! The simulation world: event loop + glue between scheduler, medium, MACs,
//! traffic, mobility and routing.

use crate::aodv::{AodvLite, NetMsg, RouterAction};
use crate::config::{ScenarioConfig, TopologyCfg, TrafficKind};
use crate::mobility::RandomWaypoint;
use crate::traffic::{DstPolicy, SourceCfg, TrafficModel};
use crate::NodeId;
use mg_dcf::{BackoffPolicy, DcfMac, Dest, Frame, MacAction, MacSdu, MacTiming, Timer};
use mg_geom::{placement, Vec2};
use mg_phy::{Medium, MediumIndex, PropagationModel, RadioParams, RxOutcome, TxId};
use mg_sim::rng::{Rng, RngDirectory, Xoshiro256};
use mg_sim::{EventHandle, Scheduler, SimDuration, SimTime};
use mg_trace::{Counter, EventKind, Metrics, Tracer};
use std::collections::{HashMap, VecDeque};

/// Payload length used for routing-control SDUs (RREQ/RREP).
const CTRL_PAYLOAD: u16 = 32;
/// How often mobility positions are advanced.
const MOBILITY_TICK: SimDuration = SimDuration::from_millis(100);
/// Queue depth kept for saturated sources.
const SATURATION_DEPTH: usize = 2;

/// Hooks for everything observable in the network — the attachment point of
/// the detection framework (`mg-detect`) and of measurement probes.
///
/// All methods have empty defaults; implement only what you need. Events
/// carry exactly what a co-located process could observe at the node in
/// question; only `on_frame_decoded` also exposes the `medium`, so that
/// projection adapters (which translate world callbacks into the detection
/// layer's serializable `Obs` alphabet) can read node positions at the one
/// instant the hand-off scheme needs geometry. Detectors themselves never
/// see the medium.
#[allow(unused_variables)]
pub trait NetObserver {
    /// `node`'s physical carrier-sense state changed at `now`.
    fn on_channel_edge(&mut self, node: NodeId, busy: bool, now: SimTime) {}
    /// `src` put `frame` on the air at `now`; it will end at `end`.
    fn on_tx_start(&mut self, src: NodeId, frame: &Frame, now: SimTime, end: SimTime) {}
    /// `at` decoded `frame` (on air from `start` to `end`).
    fn on_frame_decoded(&mut self, medium: &Medium, at: NodeId, frame: &Frame, start: SimTime, end: SimTime) {}
    /// `at` perceived a corrupted frame ending at `now`.
    fn on_frame_garbled(&mut self, at: NodeId, now: SimTime) {}
    /// `node` accepted a packet into its MAC queue.
    fn on_enqueue(&mut self, node: NodeId, sdu: &MacSdu, now: SimTime) {}
    /// `node`'s MAC finished with a packet (ACKed or dropped).
    fn on_packet_done(&mut self, node: NodeId, sdu: &MacSdu, delivered: bool, now: SimTime) {}
    /// A routed application packet reached its final destination.
    fn on_app_deliver(&mut self, node: NodeId, origin: NodeId, app_id: u64, now: SimTime) {}
}

/// The do-nothing observer.
impl NetObserver for () {}

enum Ev {
    MacTimer { node: NodeId, timer: Timer },
    TxEnd { node: NodeId, tx: TxId },
    Traffic { src: usize },
    Mobility,
}

struct SourceState {
    cfg: SourceCfg,
    rng: Xoshiro256,
    sticky: Option<NodeId>,
}

/// The simulation world. Build one directly with [`World::new`] or from a
/// [`ScenarioConfig`] via [`Scenario`].
pub struct World<O: NetObserver> {
    sched: Scheduler<Ev>,
    medium: Medium,
    timing: MacTiming,
    macs: Vec<DcfMac>,
    timers: HashMap<(NodeId, Timer), EventHandle>,
    in_flight: HashMap<TxId, Frame>,
    sources: Vec<SourceState>,
    saturated_by_node: HashMap<NodeId, usize>,
    walkers: Option<Vec<RandomWaypoint>>,
    mobility_rng: Xoshiro256,
    routers: Option<Vec<AodvLite>>,
    net_msgs: HashMap<u64, NetMsg>,
    next_sdu_id: u64,
    tx_range: f64,
    phy_rng: Xoshiro256,
    rngs: RngDirectory,
    observer: O,
    tracer: Tracer,
    metrics: Metrics,
    /// Enqueue instants of packets still in flight (latency accounting;
    /// only populated while metrics are enabled).
    lat_pending: HashMap<u64, SimTime>,
    /// Packets handed up by MACs (unicast data receptions).
    pub mac_delivered: u64,
    /// Routed application packets that reached their final destination.
    pub app_delivered: u64,
}

impl<O: NetObserver> World<O> {
    /// Creates a world with one DCF MAC per position, all compliant.
    pub fn new(
        positions: Vec<Vec2>,
        propagation: PropagationModel,
        tx_range: f64,
        cs_range: f64,
        timing: MacTiming,
        seed: u64,
        observer: O,
    ) -> Self {
        let radio = RadioParams::calibrated(&propagation, tx_range, cs_range);
        let n = positions.len();
        let rngs = RngDirectory::new(seed);
        let macs = (0..n)
            .map(|i| {
                DcfMac::new(
                    i,
                    timing,
                    BackoffPolicy::Compliant,
                    rngs.stream("mac", i as u64),
                )
            })
            .collect();
        World {
            sched: Scheduler::new(),
            medium: Medium::new(propagation, radio, positions),
            timing,
            macs,
            timers: HashMap::new(),
            in_flight: HashMap::new(),
            sources: Vec::new(),
            saturated_by_node: HashMap::new(),
            walkers: None,
            mobility_rng: rngs.stream("mobility", 0),
            routers: None,
            net_msgs: HashMap::new(),
            next_sdu_id: 0,
            tx_range,
            phy_rng: rngs.stream("phy", 0),
            rngs,
            observer,
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
            lat_pending: HashMap::new(),
            mac_delivered: 0,
            app_delivered: 0,
        }
    }

    /// Journals the whole stack's events through `tracer`: the handle is
    /// propagated to the scheduler, the medium, and every MAC. Disabled by
    /// default.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.sched.set_tracer(tracer.clone());
        self.medium.set_tracer(tracer.clone());
        for mac in &mut self.macs {
            mac.set_tracer(tracer.clone());
        }
        self.tracer = tracer;
    }

    /// Records per-node counters, latency, and back-off draws into
    /// `metrics`: the handle is propagated to every MAC. Disabled by
    /// default.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        for mac in &mut self.macs {
            mac.set_metrics(metrics.clone());
        }
        self.metrics = metrics;
    }

    /// The tracer threaded through the stack (disabled unless
    /// [`World::set_tracer`] was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The metrics collector (disabled unless [`World::set_metrics`] was
    /// called).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.macs.len()
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Total events processed so far (diagnostic).
    pub fn events_fired(&self) -> u64 {
        self.sched.events_fired()
    }

    /// Read access to a node's MAC (state snapshot, statistics, PRS).
    pub fn mac(&self, node: NodeId) -> &DcfMac {
        &self.macs[node]
    }

    /// The shared medium (positions, carrier-sense queries).
    pub fn medium(&self) -> &Medium {
        &self.medium
    }

    /// The MAC timing in force.
    pub fn timing(&self) -> &MacTiming {
        &self.timing
    }

    /// The observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Mutable access to the observer (e.g. to read out a detector verdict
    /// mid-run).
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Consumes the world, returning the observer.
    pub fn into_observer(self) -> O {
        self.observer
    }

    /// Replaces `node`'s back-off policy (do this before traffic starts).
    pub fn set_policy(&mut self, node: NodeId, policy: BackoffPolicy) {
        self.macs[node].set_policy(policy);
    }

    /// Sets `node`'s RTS threshold (legacy basic access above it bypasses
    /// the verifiable handshake — detectable via `UnverifiedData`).
    pub fn set_rts_threshold(&mut self, node: NodeId, bytes: u32) {
        self.macs[node].set_rts_threshold(bytes);
    }

    /// Switches the medium's spatial-index strategy (results are
    /// byte-identical either way; `Grid` is the default and the fast one).
    pub fn set_medium_index(&mut self, index: MediumIndex) {
        self.medium.set_index(index);
    }

    /// Registers a traffic source and schedules its first arrival.
    pub fn add_source(&mut self, cfg: SourceCfg) {
        let idx = self.sources.len();
        let mut rng = self.rngs.stream("traffic", idx as u64);
        let first = cfg.model.initial_gap(&mut rng);
        self.sources.push(SourceState {
            cfg,
            rng,
            sticky: None,
        });
        match cfg.model {
            TrafficModel::Saturated => {
                self.saturated_by_node.insert(cfg.node, idx);
                // Prime the queue with a couple of packets at t = 0.
                for _ in 0..SATURATION_DEPTH {
                    self.sched
                        .schedule_at(self.sched.now(), Ev::Traffic { src: idx });
                }
            }
            _ => {
                let gap = first.expect("clocked models have an initial gap");
                self.sched.schedule_in(gap, Ev::Traffic { src: idx });
            }
        }
    }

    /// Enables random-waypoint mobility for every node.
    pub fn enable_mobility(&mut self, speed_min: f64, speed_max: f64, pause: SimDuration, field_w: f64, field_h: f64) {
        let walkers = (0..self.node_count())
            .map(|i| {
                RandomWaypoint::new(
                    self.medium.position(i),
                    field_w,
                    field_h,
                    speed_min,
                    speed_max,
                    pause,
                )
            })
            .collect();
        self.walkers = Some(walkers);
        self.sched.schedule_in(MOBILITY_TICK, Ev::Mobility);
    }

    /// Enables AODV-lite routing on every node (needed by
    /// [`World::send_routed`]).
    pub fn enable_routing(&mut self) {
        self.routers = Some((0..self.node_count()).map(AodvLite::new).collect());
    }

    /// Hands a routed application packet to `origin`'s router.
    ///
    /// # Panics
    ///
    /// Panics unless [`World::enable_routing`] was called.
    pub fn send_routed(&mut self, origin: NodeId, target: NodeId, app_id: u64) {
        assert!(self.routers.is_some(), "call enable_routing() first");
        let actions = self.routers.as_mut().unwrap()[origin].send(target, app_id);
        let mut work = VecDeque::new();
        self.handle_router_actions(origin, actions, &mut work);
        self.drain(&mut work);
    }

    /// Runs the event loop until virtual time `until` (events beyond it stay
    /// queued).
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(t) = self.sched.peek_time() {
            if t > until {
                break;
            }
            let (now, ev) = self.sched.pop().expect("peeked event exists");
            self.dispatch(now, ev);
        }
    }

    /// Runs for `span` of virtual time from now.
    pub fn run_for(&mut self, span: SimDuration) {
        let until = self.now() + span;
        self.run_until(until);
    }

    // ------------------------------------------------------------------

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::MacTimer { node, timer } => {
                self.timers.remove(&(node, timer));
                let actions = self.macs[node].on_timer(timer, now);
                self.apply(node, actions);
            }
            Ev::TxEnd { node, tx } => self.tx_end(node, tx, now),
            Ev::Traffic { src } => self.traffic_arrival(src, now),
            Ev::Mobility => self.mobility_tick(now),
        }
    }

    fn tx_end(&mut self, node: NodeId, tx: TxId, now: SimTime) {
        let frame = self
            .in_flight
            .remove(&tx)
            .expect("TxEnd for unknown transmission");
        let ended = self.medium.end_tx(tx, now);
        debug_assert_eq!(ended.src, node);

        // 1. The transmitter moves on.
        let actions = self.macs[node].on_tx_end(now);
        self.apply(node, actions);

        // 2. Reception outcomes — strictly before the idle edges (contract).
        // Receptions are sparse (covered nodes only, ascending id), which
        // keeps this loop O(footprint) instead of O(world).
        for &(v, outcome) in &ended.receptions {
            match outcome {
                RxOutcome::Decoded => {
                    self.observer
                        .on_frame_decoded(&self.medium, v, &frame, ended.start, now);
                    let actions = self.macs[v].on_frame_decoded(&frame, now);
                    self.apply(v, actions);
                }
                RxOutcome::Collided => {
                    self.observer.on_frame_garbled(v, now);
                    let actions = self.macs[v].on_frame_garbled(now);
                    self.apply(v, actions);
                }
                _ => {}
            }
        }

        // 3. Idle edges.
        for e in ended.edges {
            self.observer
                .on_channel_edge(e.node, e.busy, now);
            let actions = self.macs[e.node].on_channel_edge(e.busy, now);
            self.apply(e.node, actions);
        }
    }

    fn traffic_arrival(&mut self, src: usize, now: SimTime) {
        let (node, dst_policy, payload_len) = {
            let s = &self.sources[src];
            (s.cfg.node, s.cfg.dst, s.cfg.payload_len)
        };
        // Schedule the next arrival (clocked models only; saturated sources
        // are re-driven by packet completions).
        let gap = {
            let s = &mut self.sources[src];
            s.cfg.model.next_gap(&mut s.rng)
        };
        if let Some(gap) = gap {
            self.sched.schedule_in(gap, Ev::Traffic { src });
        }
        let Some(dst) = self.pick_dst(src, node, dst_policy) else {
            return; // isolated node this instant; skip the packet
        };
        let sdu = MacSdu {
            id: self.alloc_sdu_id(),
            dst: Dest::Unicast(dst),
            payload_len,
        };
        self.note_enqueue(node, &sdu, now);
        let actions = self.macs[node].enqueue(sdu, now);
        self.apply(node, actions);
    }

    /// Enqueue bookkeeping shared by every packet-injection path: journal
    /// the event, start the latency clock, notify the observer.
    fn note_enqueue(&mut self, node: NodeId, sdu: &MacSdu, now: SimTime) {
        self.tracer
            .emit(now.as_nanos(), Some(node), EventKind::Enqueue { sdu: sdu.id });
        if self.metrics.is_enabled() {
            self.lat_pending.insert(sdu.id, now);
        }
        self.observer.on_enqueue(node, sdu, now);
    }

    fn pick_dst(&mut self, src: usize, node: NodeId, policy: DstPolicy) -> Option<NodeId> {
        match policy {
            DstPolicy::Fixed(d) => Some(d),
            DstPolicy::StickyRandomNeighbor => {
                let sticky = self.sources[src].sticky;
                let in_range = sticky
                    .map(|d| {
                        self.medium.position(node).distance(self.medium.position(d))
                            <= self.tx_range
                    })
                    .unwrap_or(false);
                if in_range {
                    return sticky;
                }
                let fresh = self.random_neighbor(src, node);
                self.sources[src].sticky = fresh;
                fresh
            }
            DstPolicy::PerPacketRandomNeighbor => self.random_neighbor(src, node),
        }
    }

    fn random_neighbor(&mut self, src: usize, node: NodeId) -> Option<NodeId> {
        let p = self.medium.position(node);
        // Index-served and ascending, so the RNG pick lands on the same
        // neighbor under either MediumIndex.
        let mut neighbors = self.medium.nodes_within(p, self.tx_range);
        neighbors.retain(|&v| v != node);
        if neighbors.is_empty() {
            return None;
        }
        let pick = self.sources[src].rng.below(neighbors.len() as u64) as usize;
        Some(neighbors[pick])
    }

    fn mobility_tick(&mut self, now: SimTime) {
        if let Some(walkers) = &mut self.walkers {
            for (i, w) in walkers.iter_mut().enumerate() {
                let pos = w.advance(now, MOBILITY_TICK, &mut self.mobility_rng);
                self.medium.set_position(i, pos);
            }
            self.sched.schedule_in(MOBILITY_TICK, Ev::Mobility);
        }
    }

    fn alloc_sdu_id(&mut self) -> u64 {
        let id = self.next_sdu_id;
        self.next_sdu_id += 1;
        id
    }

    fn arm(&mut self, node: NodeId, timer: Timer, at: SimTime) {
        if let Some(old) = self.timers.remove(&(node, timer)) {
            self.sched.cancel(old);
        }
        let h = self.sched.schedule_at(at, Ev::MacTimer { node, timer });
        self.timers.insert((node, timer), h);
    }

    fn disarm(&mut self, node: NodeId, timer: Timer) {
        if let Some(h) = self.timers.remove(&(node, timer)) {
            self.sched.cancel(h);
        }
    }

    /// Executes MAC actions, breadth-first, until quiescent.
    fn apply(&mut self, node: NodeId, actions: Vec<MacAction>) {
        let mut work: VecDeque<(NodeId, MacAction)> =
            actions.into_iter().map(|a| (node, a)).collect();
        self.drain(&mut work);
    }

    fn drain(&mut self, work: &mut VecDeque<(NodeId, MacAction)>) {
        while let Some((n, action)) = work.pop_front() {
            match action {
                MacAction::Arm { timer, at } => self.arm(n, timer, at),
                MacAction::Disarm { timer } => self.disarm(n, timer),
                MacAction::StartTx { frame } => {
                    let now = self.sched.now();
                    let airtime = self.timing.frame_airtime(&frame);
                    let (tx, edges) = self.medium.begin_tx(n, now, &mut self.phy_rng);
                    let end = now + airtime;
                    self.sched.schedule_at(end, Ev::TxEnd { node: n, tx });
                    self.observer.on_tx_start(n, &frame, now, end);
                    self.in_flight.insert(tx, frame);
                    for e in edges {
                        self.observer
                            .on_channel_edge(e.node, e.busy, now);
                        for a in self.macs[e.node].on_channel_edge(e.busy, now) {
                            work.push_back((e.node, a));
                        }
                    }
                }
                MacAction::Deliver { from, sdu } => {
                    self.mac_delivered += 1;
                    if self.routers.is_some() {
                        if let Some(&msg) = self.net_msgs.get(&sdu.id) {
                            let actions = self.routers.as_mut().unwrap()[n].on_receive(from, msg);
                            self.handle_router_actions(n, actions, work);
                        }
                    }
                }
                MacAction::PacketDone { sdu, delivered } => {
                    let now = self.sched.now();
                    self.tracer.emit(
                        now.as_nanos(),
                        Some(n),
                        EventKind::PacketDone { sdu: sdu.id, delivered },
                    );
                    self.metrics
                        .bump(n, if delivered { Counter::Delivered } else { Counter::Dropped });
                    if let Some(t0) = self.lat_pending.remove(&sdu.id) {
                        self.metrics
                            .record_latency_ns(now.saturating_since(t0).as_nanos());
                    }
                    self.observer.on_packet_done(n, &sdu, delivered, now);
                    if let Some(&si) = self.saturated_by_node.get(&n) {
                        let policy = self.sources[si].cfg.dst;
                        let payload_len = self.sources[si].cfg.payload_len;
                        if let Some(d) = self.pick_dst(si, n, policy) {
                            let refill = MacSdu {
                                id: self.alloc_sdu_id(),
                                dst: Dest::Unicast(d),
                                payload_len,
                            };
                            self.note_enqueue(n, &refill, now);
                            for a in self.macs[n].enqueue(refill, now) {
                                work.push_back((n, a));
                            }
                        } else {
                            // No neighbor right now (mobile); retry shortly.
                            self.sched
                                .schedule_in(MOBILITY_TICK, Ev::Traffic { src: si });
                        }
                    }
                }
            }
        }
    }

    fn handle_router_actions(
        &mut self,
        node: NodeId,
        actions: Vec<RouterAction>,
        work: &mut VecDeque<(NodeId, MacAction)>,
    ) {
        let now = self.sched.now();
        for action in actions {
            match action {
                RouterAction::Broadcast(msg) => {
                    let sdu = MacSdu {
                        id: self.alloc_sdu_id(),
                        dst: Dest::Broadcast,
                        payload_len: CTRL_PAYLOAD,
                    };
                    self.net_msgs.insert(sdu.id, msg);
                    self.note_enqueue(node, &sdu, now);
                    for a in self.macs[node].enqueue(sdu, now) {
                        work.push_back((node, a));
                    }
                }
                RouterAction::Unicast(next, msg) => {
                    let payload_len = match msg {
                        NetMsg::Data { .. } => 512,
                        _ => CTRL_PAYLOAD,
                    };
                    let sdu = MacSdu {
                        id: self.alloc_sdu_id(),
                        dst: Dest::Unicast(next),
                        payload_len,
                    };
                    self.net_msgs.insert(sdu.id, msg);
                    self.note_enqueue(node, &sdu, now);
                    for a in self.macs[node].enqueue(sdu, now) {
                        work.push_back((node, a));
                    }
                }
                RouterAction::DeliverApp { origin, app_id } => {
                    self.app_delivered += 1;
                    self.observer.on_app_deliver(node, origin, app_id, now);
                }
            }
        }
    }
}

/// Builds a [`World`] from a [`ScenarioConfig`] (topology, sources,
/// mobility), reproducibly from the config's seed.
pub struct Scenario {
    cfg: ScenarioConfig,
    positions: Vec<Vec2>,
}

impl Scenario {
    /// Lays out the topology for `cfg` (deterministic in `cfg.seed`).
    pub fn new(cfg: ScenarioConfig) -> Self {
        let dir = RngDirectory::new(cfg.seed);
        let positions = match cfg.topology {
            TopologyCfg::Grid { rows, cols, spacing } => {
                placement::grid(rows, cols, spacing, cfg.field_w, cfg.field_h)
            }
            TopologyCfg::Random { nodes } => {
                let mut rng = dir.stream("placement", 0);
                let mut draw = || rng.uniform01();
                placement::uniform_random(nodes, cfg.field_w, cfg.field_h, &mut draw)
            }
            TopologyCfg::Clustered { clusters, per_cluster, radius } => {
                let mut rng = dir.stream("placement", 0);
                let mut draw = || rng.uniform01();
                placement::clustered(
                    clusters,
                    per_cluster,
                    radius,
                    cfg.field_w,
                    cfg.field_h,
                    &mut draw,
                )
            }
        };
        Scenario { cfg, positions }
    }

    /// The configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.cfg
    }

    /// The laid-out node positions.
    pub fn positions(&self) -> &[Vec2] {
        &self.positions
    }

    /// The paper's tagged pair: the most central node S and its nearest
    /// one-hop neighbor R ("placed in the center of the grid so that the
    /// computations take into consideration two-hop interference").
    pub fn tagged_pair(&self) -> (NodeId, NodeId) {
        assert!(!self.positions.is_empty(), "non-empty topology required");
        let center = Vec2::new(self.cfg.field_w / 2.0, self.cfg.field_h / 2.0);
        // Most central node *that has a one-hop neighbor* (random layouts can
        // leave the single most central node isolated).
        let mut by_centrality: Vec<NodeId> = (0..self.positions.len()).collect();
        by_centrality.sort_by(|&a, &b| {
            self.positions[a]
                .distance_sq(center)
                .partial_cmp(&self.positions[b].distance_sq(center))
                .expect("no NaN positions")
        });
        for s in by_centrality {
            let neighbors = placement::neighbors_within(&self.positions, s, self.cfg.tx_range);
            if let Some(r) = neighbors.into_iter().min_by(|&a, &b| {
                self.positions[s]
                    .distance_sq(self.positions[a])
                    .partial_cmp(&self.positions[s].distance_sq(self.positions[b]))
                    .expect("no NaN positions")
            }) {
                return (s, r);
            }
        }
        panic!("no node in the topology has a one-hop neighbor");
    }

    /// Realizes the scenario into a [`World`]: MACs, background sources,
    /// mobility.
    ///
    /// Background sources are placed on `source_count` distinct random nodes,
    /// skipping the `reserved` ones so their traffic can be configured
    /// explicitly. This is the low-level assembly primitive: callers are
    /// expected to go through `mg-detect`'s `ScenarioBuilder`, which derives
    /// `reserved` from declared roles (attackers, monitors) and supports
    /// custom probe observers; `realize` stays public for the builder itself
    /// and for this crate's tests.
    pub fn realize<O: NetObserver>(&self, reserved: &[NodeId], observer: O) -> World<O> {
        let cfg = &self.cfg;
        let mut world = World::new(
            self.positions.clone(),
            cfg.propagation,
            cfg.tx_range,
            cfg.cs_range,
            MacTiming::paper_default(),
            cfg.seed,
            observer,
        );
        world.set_medium_index(cfg.medium_index);
        // Pick distinct source nodes.
        let dir = RngDirectory::new(cfg.seed);
        let mut rng = dir.stream("source-pick", 0);
        let mut candidates: Vec<NodeId> = (0..self.positions.len())
            .filter(|n| !reserved.contains(n))
            .collect();
        let mut chosen = Vec::new();
        while chosen.len() < cfg.source_count && !candidates.is_empty() {
            let i = rng.below(candidates.len() as u64) as usize;
            chosen.push(candidates.swap_remove(i));
        }
        for node in chosen {
            let source = match cfg.traffic {
                TrafficKind::Poisson => SourceCfg::poisson(node, cfg.rate_pps),
                TrafficKind::Cbr => SourceCfg::cbr(
                    node,
                    SimDuration::from_secs_f64(1.0 / cfg.rate_pps),
                ),
            };
            world.add_source(SourceCfg {
                payload_len: cfg.payload_len,
                ..source
            });
        }
        if let Some(m) = cfg.mobility {
            world.enable_mobility(m.speed_min, m.speed_max, m.pause, cfg.field_w, cfg.field_h);
        }
        world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_world() -> World<()> {
        let positions = vec![Vec2::new(0.0, 0.0), Vec2::new(240.0, 0.0)];
        World::new(
            positions,
            PropagationModel::free_space(),
            250.0,
            550.0,
            MacTiming::paper_default(),
            42,
            (),
        )
    }

    #[test]
    fn saturated_pair_delivers_steadily() {
        let mut w = two_node_world();
        w.add_source(SourceCfg::saturated(0, 1));
        w.run_until(SimTime::from_secs(1));
        let s = w.mac(0).stats();
        // One exchange ≈ backoff (~15 slots ≈ 300 µs) + RTS 496 + CTS 304 +
        // DATA 2464 + ACK 304 + 3 SIFS + DIFS ≈ 4 ms ⇒ ≈ 250 pkts/s.
        assert!(
            s.delivered > 150,
            "expected steady delivery, got {s:?}"
        );
        assert_eq!(s.delivered, w.mac(1).stats().rx_delivered);
        assert_eq!(s.dropped_retry, 0, "clean channel should never drop");
        assert_eq!(w.mac_delivered, s.delivered);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut w = two_node_world();
            w.add_source(SourceCfg::saturated(0, 1));
            w.run_until(SimTime::from_secs(1));
            (w.mac(0).stats().delivered, w.events_fired())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn three_contenders_share_roughly_fairly() {
        // Three mutually-in-range senders, each saturated to a neighbor.
        let positions = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(200.0, 0.0),
            Vec2::new(100.0, 170.0),
        ];
        let mut w: World<()> = World::new(
            positions,
            PropagationModel::free_space(),
            250.0,
            550.0,
            MacTiming::paper_default(),
            7,
            (),
        );
        w.add_source(SourceCfg::saturated(0, 1));
        w.add_source(SourceCfg::saturated(1, 2));
        w.add_source(SourceCfg::saturated(2, 0));
        w.run_until(SimTime::from_secs(5));
        let d: Vec<u64> = (0..3).map(|i| w.mac(i).stats().delivered).collect();
        let total: u64 = d.iter().sum();
        assert!(total > 300, "network starved: {d:?}");
        for &di in &d {
            let share = di as f64 / total as f64;
            assert!(
                (0.20..0.47).contains(&share),
                "unfair share {share} in {d:?}"
            );
        }
    }

    #[test]
    fn misbehaving_node_starves_honest_neighbor() {
        // The paper's premise: a back-off cheater grabs the channel.
        let positions = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(200.0, 0.0),
            Vec2::new(100.0, 170.0),
        ];
        let mut w: World<()> = World::new(
            positions,
            PropagationModel::free_space(),
            250.0,
            550.0,
            MacTiming::paper_default(),
            11,
            (),
        );
        w.set_policy(0, BackoffPolicy::Scaled { pm: 95 });
        w.add_source(SourceCfg::saturated(0, 1));
        w.add_source(SourceCfg::saturated(1, 2));
        w.add_source(SourceCfg::saturated(2, 0));
        w.run_until(SimTime::from_secs(5));
        let cheat = w.mac(0).stats().delivered;
        let honest = w.mac(1).stats().delivered + w.mac(2).stats().delivered;
        assert!(
            cheat as f64 > 1.5 * honest as f64,
            "cheater {cheat} vs honest total {honest}"
        );
    }

    #[test]
    fn poisson_sources_on_grid_deliver() {
        let cfg = ScenarioConfig {
            sim_secs: 2,
            rate_pps: 4.0,
            ..ScenarioConfig::grid_paper(3)
        };
        let scenario = Scenario::new(cfg);
        let mut w = scenario.realize(&[], ());
        w.run_until(SimTime::from_secs(2));
        let delivered: u64 = (0..w.node_count()).map(|i| w.mac(i).stats().delivered).sum();
        assert!(delivered > 100, "grid delivered only {delivered}");
        let dropped: u64 = (0..w.node_count())
            .map(|i| w.mac(i).stats().dropped_retry)
            .sum();
        // Interference-range hidden terminals (the effect the paper models)
        // cost some packets even at moderate load, but most get through.
        assert!(
            (dropped as f64) < 0.2 * delivered as f64,
            "drops {dropped} vs delivered {delivered}"
        );
    }

    #[test]
    fn routing_delivers_across_three_hops() {
        let positions = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(200.0, 0.0),
            Vec2::new(400.0, 0.0),
            Vec2::new(600.0, 0.0),
        ];
        let mut w: World<()> = World::new(
            positions,
            PropagationModel::free_space(),
            250.0,
            550.0,
            MacTiming::paper_default(),
            5,
            (),
        );
        w.enable_routing();
        w.send_routed(0, 3, 777);
        w.run_until(SimTime::from_secs(2));
        assert_eq!(w.app_delivered, 1, "routed packet must arrive");
    }

    #[test]
    fn mobility_moves_nodes_without_breaking_the_mac() {
        let cfg = ScenarioConfig {
            sim_secs: 5,
            rate_pps: 5.0,
            ..ScenarioConfig::mobile_paper(9, SimDuration::ZERO)
        };
        let scenario = Scenario::new(cfg);
        let before = scenario.positions().to_vec();
        let mut w = scenario.realize(&[], ());
        w.run_until(SimTime::from_secs(5));
        let moved = (0..w.node_count())
            .filter(|&i| w.medium().position(i).distance(before[i]) > 1.0)
            .count();
        assert!(moved > w.node_count() / 2, "only {moved} nodes moved");
    }

    #[test]
    fn tagged_pair_is_central_and_adjacent() {
        let scenario = Scenario::new(ScenarioConfig::grid_paper(1));
        let (s, r) = scenario.tagged_pair();
        let d = scenario.positions()[s].distance(scenario.positions()[r]);
        assert!((d - 240.0).abs() < 1e-6, "pair distance {d}");
        let center = Vec2::new(1500.0, 1500.0);
        assert!(scenario.positions()[s].distance(center) < 400.0);
    }
}

#[cfg(test)]
mod basic_access_tests {
    use super::*;

    #[test]
    fn basic_access_pair_delivers_without_rts() {
        let positions = vec![Vec2::new(0.0, 0.0), Vec2::new(240.0, 0.0)];
        let mut w: World<()> = World::new(
            positions,
            PropagationModel::free_space(),
            250.0,
            550.0,
            MacTiming::paper_default(),
            71,
            (),
        );
        w.set_rts_threshold(0, u32::MAX);
        w.add_source(SourceCfg::saturated(0, 1));
        w.run_until(SimTime::from_secs(1));
        let s = w.mac(0).stats();
        assert_eq!(s.rts_sent, 0, "basic access never sends RTS");
        assert!(s.delivered > 150, "{s:?}");
        assert_eq!(s.delivered, w.mac(1).stats().rx_delivered);
        // Basic access skips RTS+CTS+2·SIFS per packet: strictly faster on a
        // clean channel than the four-way handshake.
        let positions = vec![Vec2::new(0.0, 0.0), Vec2::new(240.0, 0.0)];
        let mut w4: World<()> = World::new(
            positions,
            PropagationModel::free_space(),
            250.0,
            550.0,
            MacTiming::paper_default(),
            71,
            (),
        );
        w4.add_source(SourceCfg::saturated(0, 1));
        w4.run_until(SimTime::from_secs(1));
        assert!(s.delivered > w4.mac(0).stats().delivered, "basic should beat RTS/CTS on a clean link");
    }
}
