//! The simulation world: event loop + glue between scheduler, medium, MACs,
//! traffic, mobility and routing.

use crate::aodv::{AodvLite, NetMsg, RouterAction};
use crate::config::{ScenarioConfig, TopologyCfg, TrafficKind};
use crate::mobility::RandomWaypoint;
use crate::traffic::{DstPolicy, SourceCfg, TrafficModel};
use crate::NodeId;
use mg_dcf::{BackoffPolicy, DcfMac, Dest, Frame, MacAction, MacSdu, MacTiming, Timer};
use mg_geom::{placement, Vec2};
use mg_phy::{
    EdgeChange, EndedTx, Medium, MediumIndex, PropagationModel, RadioParams, RxOutcome, TxId,
};
use mg_sim::rng::{Rng, RngDirectory, Xoshiro256};
use mg_sim::{EventHandle, IdBuildHasher, Scheduler, SimDuration, SimTime};
use mg_trace::{Counter, EventKind, Metrics, Tracer};
use std::collections::HashMap;

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
}

/// The do-nothing observer.
impl NetObserver for () {}

enum Ev {
    MacTimer { node: NodeId, timer: Timer },
    TxEnd { node: NodeId, tx: TxId },
    Traffic { src: usize },
    Mobility,
}

/// Where `node`'s `timer` lives in [`World`]'s timer table.
fn timer_slot(node: NodeId, timer: Timer) -> usize {
    node * Timer::COUNT + timer.index()
}

struct SourceState {
    cfg: SourceCfg,
    rng: Xoshiro256,
    sticky: Option<NodeId>,
}

/// The simulation world. Build one directly with [`World::new`] or from a
/// [`ScenarioConfig`] via [`Scenario`].
///
/// The event loop reuses its buffers: MAC handlers append to one action
/// FIFO, which the world executes in place until quiescent after every
/// handler call, and the medium writes edges and receptions into buffers
/// the world owns. Once they have grown to the run's working size, the
/// loop itself allocates nothing per event (the observer is on its own).
pub struct World<O: NetObserver> {
    sched: Scheduler<Ev>,
    medium: Medium,
    timing: MacTiming,
    macs: Vec<DcfMac>,
    /// The handle of each pending MAC timer, at [`timer_slot`]: the only
    /// record of which timer entries are live. Re-arming overwrites the
    /// slot, disarming clears it, and `run_until` drops stale entries.
    timers: Vec<Option<EventHandle>>,
    /// The frame each node has on the air: a DCF MAC sends one at a time.
    in_flight: Vec<Option<Frame>>,
    /// MAC actions not yet executed, FIFO: handlers append to it, and
    /// `drain` executes it in place until quiescent, then clears it.
    acts: Vec<MacAction>,
    /// The node whose MAC appended each entry of `acts`.
    owners: Vec<NodeId>,
    /// Busy edges of the transmission being started.
    edges: Vec<EdgeChange>,
    /// Outcomes of the transmission being ended.
    ended: EndedTx,
    /// Neighbor candidates of the packet being addressed.
    neighbors: Vec<NodeId>,
    sources: Vec<SourceState>,
    /// `(node, source index)` of saturated sources, ascending by node.
    saturated_by_node: Vec<(NodeId, usize)>,
    walkers: Option<Vec<RandomWaypoint>>,
    mobility_rng: Xoshiro256,
    routers: Option<Vec<AodvLite>>,
    /// The routing message each routed SDU carries, until no MAC can
    /// deliver the SDU any more.
    net_msgs: HashMap<u64, NetMsg, IdBuildHasher>,
    next_sdu_id: u64,
    tx_range: f64,
    phy_rng: Xoshiro256,
    rngs: RngDirectory,
    observer: O,
    tracer: Tracer,
    metrics: Metrics,
    /// Enqueue instants of packets still in flight (latency accounting;
    /// only populated while metrics are enabled).
    lat_pending: HashMap<u64, SimTime, IdBuildHasher>,
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
            timers: vec![None; n * Timer::COUNT],
            in_flight: vec![None; n],
            acts: Vec::new(),
            owners: Vec::new(),
            edges: Vec::new(),
            ended: EndedTx::default(),
            neighbors: Vec::new(),
            sources: Vec::new(),
            saturated_by_node: Vec::new(),
            walkers: None,
            mobility_rng: rngs.stream("mobility", 0),
            routers: None,
            net_msgs: HashMap::default(),
            next_sdu_id: 0,
            tx_range,
            phy_rng: rngs.stream("phy", 0),
            rngs,
            observer,
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
            lat_pending: HashMap::default(),
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
        self.macs[cfg.node].reserve_queue();
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
                // A node's latest saturated source drives its refills.
                match self.saturated_by_node.binary_search_by_key(&cfg.node, |&(n, _)| n) {
                    Ok(i) => self.saturated_by_node[i].1 = idx,
                    Err(i) => self.saturated_by_node.insert(i, (cfg.node, idx)),
                }
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
        self.handle_router_actions(origin, actions);
        self.drain();
    }

    /// Runs the event loop until virtual time `until` (events beyond it stay
    /// queued).
    pub fn run_until(&mut self, until: SimTime) {
        while let Some((now, ev)) = self.sched.pop_until(until, |h, ev| match *ev {
            Ev::MacTimer { node, timer } => self.timers[timer_slot(node, timer)] == Some(h),
            _ => true,
        }) {
            self.dispatch(now, ev);
            debug_assert!(self.acts.is_empty(), "MAC actions left queued");
        }
    }

    // ------------------------------------------------------------------

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::MacTimer { node, timer } => {
                self.timers[timer_slot(node, timer)] = None;
                self.macs[node].on_timer(timer, now, &mut self.acts);
                self.apply(node);
            }
            Ev::TxEnd { node, tx } => self.tx_end(node, tx, now),
            Ev::Traffic { src } => self.traffic_arrival(src, now),
            Ev::Mobility => self.mobility_tick(now),
        }
    }

    fn tx_end(&mut self, node: NodeId, tx: TxId, now: SimTime) {
        let frame = self.in_flight[node]
            .take()
            .expect("TxEnd for a node with no frame on the air");
        // Handlers below may start new transmissions, which reuse `edges`
        // but never `ended`: take it for the duration.
        let mut ended = std::mem::take(&mut self.ended);
        self.medium.end_tx(tx, now, &mut ended);
        debug_assert_eq!(ended.src, node);

        // 1. The transmitter moves on.
        self.macs[node].on_tx_end(now, &mut self.acts);
        self.apply(node);

        // 2. Reception outcomes — strictly before the idle edges (contract).
        // Receptions are sparse (covered nodes only, ascending id), which
        // keeps this loop O(footprint) instead of O(world).
        for &(v, outcome) in &ended.receptions {
            match outcome {
                RxOutcome::Decoded => {
                    self.observer
                        .on_frame_decoded(&self.medium, v, &frame, ended.start, now);
                    self.macs[v].on_frame_decoded(&frame, now, &mut self.acts);
                    self.apply(v);
                }
                RxOutcome::Collided => {
                    self.observer.on_frame_garbled(v, now);
                    self.macs[v].on_frame_garbled(now);
                }
                _ => {}
            }
        }

        // 3. Idle edges.
        for e in &ended.edges {
            self.observer.on_channel_edge(e.node, e.busy, now);
            self.macs[e.node].on_channel_edge(e.busy, now, &mut self.acts);
            self.apply(e.node);
        }
        self.ended = ended;

        // A broadcast goes on the air once, and its receivers have just
        // decoded it: its routing message is no longer needed. (Its
        // `PacketDone` ran in step 1, too early to free it.)
        if frame.dst == Dest::Broadcast {
            if let Some(sdu) = frame.sdu() {
                self.net_msgs.remove(&sdu.id);
            }
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
        self.enqueue(node, sdu, now);
        self.drain();
    }

    /// Hands `sdu` to `node`'s MAC and queues its actions, after journaling
    /// the event and starting the latency clock.
    fn enqueue(&mut self, node: NodeId, sdu: MacSdu, now: SimTime) {
        self.tracer
            .emit(now.as_nanos(), Some(node), EventKind::Enqueue { sdu: sdu.id });
        if self.metrics.is_enabled() {
            self.lat_pending.insert(sdu.id, now);
        }
        self.macs[node].enqueue(sdu, now, &mut self.acts);
        self.queue(node);
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
        self.medium.nodes_within(p, self.tx_range, &mut self.neighbors);
        self.neighbors.retain(|&v| v != node);
        if self.neighbors.is_empty() {
            return None;
        }
        let pick = self.sources[src].rng.below(self.neighbors.len() as u64) as usize;
        Some(self.neighbors[pick])
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
        let h = self.sched.schedule_at(at, Ev::MacTimer { node, timer });
        self.timers[timer_slot(node, timer)] = Some(h);
    }

    fn disarm(&mut self, node: NodeId, timer: Timer) {
        self.timers[timer_slot(node, timer)] = None;
    }

    /// Marks the actions `node`'s MAC just appended to `acts` as its own.
    fn queue(&mut self, node: NodeId) {
        self.owners.resize(self.acts.len(), node);
    }

    /// Executes the actions `node`'s MAC just appended to `acts` and
    /// everything they cause, breadth-first, until quiescent.
    fn apply(&mut self, node: NodeId) {
        self.queue(node);
        self.drain();
    }

    /// Executes `acts` in append order until quiescent, then clears it.
    /// Its arms only `queue`, never `drain`, so the cursor can be local.
    fn drain(&mut self) {
        let mut next = 0;
        while let Some(&action) = self.acts.get(next) {
            let n = self.owners[next];
            next += 1;
            match action {
                MacAction::Arm { timer, at } => self.arm(n, timer, at),
                MacAction::Disarm { timer } => self.disarm(n, timer),
                MacAction::StartTx { frame } => {
                    let now = self.sched.now();
                    let airtime = self.timing.frame_airtime(&frame);
                    let tx = self.medium.begin_tx(n, now, &mut self.phy_rng, &mut self.edges);
                    let end = now + airtime;
                    self.sched.schedule_at(end, Ev::TxEnd { node: n, tx });
                    self.observer.on_tx_start(n, &frame, now, end);
                    let on_air = self.in_flight[n].replace(frame);
                    assert!(on_air.is_none(), "node {n} started a second frame on the air");
                    // Edge handlers only queue actions, so no transmission
                    // starts (and overwrites `edges`) inside this loop.
                    for i in 0..self.edges.len() {
                        let e = self.edges[i];
                        self.observer.on_channel_edge(e.node, e.busy, now);
                        self.macs[e.node].on_channel_edge(e.busy, now, &mut self.acts);
                        self.queue(e.node);
                    }
                }
                MacAction::Deliver { from, sdu } => {
                    self.mac_delivered += 1;
                    if self.routers.is_some() {
                        if let Some(&msg) = self.net_msgs.get(&sdu.id) {
                            let actions = self.routers.as_mut().unwrap()[n].on_receive(from, msg);
                            self.handle_router_actions(n, actions);
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
                    // The receiver's `Deliver` came before the ACK, and a
                    // dropped packet's last DATA ended before its ACK timeout:
                    // no MAC can deliver this unicast SDU again.
                    if self.routers.is_some() && sdu.dst != Dest::Broadcast {
                        self.net_msgs.remove(&sdu.id);
                    }
                    if let Some(si) = self.saturated_source(n) {
                        let policy = self.sources[si].cfg.dst;
                        let payload_len = self.sources[si].cfg.payload_len;
                        if let Some(d) = self.pick_dst(si, n, policy) {
                            let refill = MacSdu {
                                id: self.alloc_sdu_id(),
                                dst: Dest::Unicast(d),
                                payload_len,
                            };
                            self.enqueue(n, refill, now);
                        } else {
                            // No neighbor right now (mobile); retry shortly.
                            self.sched
                                .schedule_in(MOBILITY_TICK, Ev::Traffic { src: si });
                        }
                    }
                }
            }
        }
        self.acts.clear();
        self.owners.clear();
    }

    /// The saturated source at `node`, if it has one.
    fn saturated_source(&self, node: NodeId) -> Option<usize> {
        self.saturated_by_node
            .binary_search_by_key(&node, |&(n, _)| n)
            .ok()
            .map(|i| self.saturated_by_node[i].1)
    }

    fn handle_router_actions(&mut self, node: NodeId, actions: Vec<RouterAction>) {
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
                    self.enqueue(node, sdu, now);
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
                    self.enqueue(node, sdu, now);
                }
                RouterAction::DeliverApp { .. } => self.app_delivered += 1,
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

    /// Three mutually-in-range senders, each saturated to a neighbor, with
    /// node 0 on `policy`.
    fn three_contenders(seed: u64, policy: BackoffPolicy) -> World<()> {
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
            seed,
            (),
        );
        w.set_policy(0, policy);
        w.add_source(SourceCfg::saturated(0, 1));
        w.add_source(SourceCfg::saturated(1, 2));
        w.add_source(SourceCfg::saturated(2, 0));
        w
    }

    #[test]
    fn three_contenders_share_roughly_fairly() {
        let mut w = three_contenders(7, BackoffPolicy::Compliant);
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
        let mut w = three_contenders(11, BackoffPolicy::Scaled { pm: 95 });
        w.run_until(SimTime::from_secs(5));
        let cheat = w.mac(0).stats().delivered;
        let honest = w.mac(1).stats().delivered + w.mac(2).stats().delivered;
        assert!(
            cheat as f64 > 1.5 * honest as f64,
            "cheater {cheat} vs honest total {honest}"
        );
    }

    /// Every action a handler queues runs before its event's handling
    /// returns: a busy world stepped 1 ms at a time has nothing queued
    /// between steps and ends exactly where one long run ends.
    #[test]
    fn no_action_outlives_its_event() {
        let mut stepped = three_contenders(7, BackoffPolicy::Compliant);
        for ms in 1..=1000 {
            stepped.run_until(SimTime::from_millis(ms));
            assert!(
                stepped.acts.is_empty() && stepped.owners.is_empty(),
                "queued at {ms} ms"
            );
        }
        assert!(stepped.acts.capacity() > 0, "nothing went through the FIFO");
        let mut whole = three_contenders(7, BackoffPolicy::Compliant);
        whole.run_until(SimTime::from_secs(1));
        assert_eq!(stepped.events_fired(), whole.events_fired());
        for i in 0..3 {
            assert_eq!(stepped.mac(i).stats(), whole.mac(i).stats(), "node {i}");
        }
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

    /// A long routed run holds no routing message for a packet the MACs
    /// are done with.
    #[test]
    fn routed_world_frees_finished_messages() {
        let positions = (0..4).map(|i| Vec2::new(200.0 * i as f64, 0.0)).collect();
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
        let packets = 300;
        for app_id in 0..packets {
            w.send_routed(0, 3, app_id);
            w.run_until(w.now() + SimDuration::from_millis(100));
        }
        w.run_until(w.now() + SimDuration::from_secs(1));
        assert_eq!(w.app_delivered, packets);
        let held = w.net_msgs.len();
        assert!(held <= 3, "{held} routing messages still held");
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
