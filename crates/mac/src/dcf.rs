//! The DCF state machine.
//!
//! One [`DcfMac`] per node. The MAC is a pure event consumer / action
//! producer: the surrounding world owns the scheduler and the medium and
//! must uphold two contracts:
//!
//! 1. every [`MacAction`] is executed in the order appended;
//! 2. when a transmission ends, per-node **reception outcomes are delivered
//!    before the idle channel edges** from the same instant (the medium
//!    reports them in that order) — reception may change what the idle edge
//!    means to the node (e.g. an RTS addressed to it).

use crate::frame::{sdu_digest, Dest, Frame, FrameKind, MacSdu, RtsFields};
use crate::policy::BackoffPolicy;
use crate::timing::MacTiming;
use crate::NodeId;
use mg_crypto::{BackoffDraw, VerifiableSequence};
use mg_sim::rng::Xoshiro256;
use mg_sim::{SimDuration, SimTime};
use mg_trace::{Counter, EventKind, FrameLabel, Metrics, Tracer};
use std::collections::VecDeque;

fn frame_label(kind: &FrameKind) -> FrameLabel {
    match kind {
        FrameKind::Rts(_) => FrameLabel::Rts,
        FrameKind::Cts => FrameLabel::Cts,
        FrameKind::Data { .. } => FrameLabel::Data,
        FrameKind::Ack => FrameLabel::Ack,
    }
}

/// Default interface-queue capacity (Table 1: 50 packets).
pub const DEFAULT_QUEUE_CAP: usize = 50;

/// Queue slots [`DcfMac::reserve_queue`] sets aside: what the first push
/// would allocate anyway.
const QUEUE_RESERVE: usize = 4;

/// The MAC's timers. At most one of each kind is armed at a time; re-arming
/// replaces the previous deadline.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Timer {
    /// Fires when the back-off countdown (IFS + remaining slots) completes.
    Countdown,
    /// Fires one SIFS after a frame that demands a response.
    Sifs,
    /// Sender gave up waiting for a CTS.
    CtsTimeout,
    /// Receiver gave up waiting for the DATA after its CTS.
    DataTimeout,
    /// Sender gave up waiting for an ACK.
    AckTimeout,
    /// The NAV reservation expired.
    NavExpire,
    /// Checks whether an RTS-established NAV should be reset because the
    /// promised exchange never materialized (IEEE 802.11 §9.2.5.4).
    NavReset,
}

impl Timer {
    /// Number of timer kinds: a per-node timer table has this many slots.
    pub const COUNT: usize = 7;

    /// This timer's slot in a per-node table, in `0..Timer::COUNT`.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Instructions the MAC hands back to the world.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum MacAction {
    /// Arm (or re-arm) `timer` to fire at `at`.
    Arm {
        /// Which timer.
        timer: Timer,
        /// Absolute deadline.
        at: SimTime,
    },
    /// Cancel `timer` if pending.
    Disarm {
        /// Which timer.
        timer: Timer,
    },
    /// Put `frame` on the air now (the world computes its airtime, calls the
    /// medium, and schedules `on_tx_end`).
    StartTx {
        /// The frame to transmit.
        frame: Frame,
    },
    /// Pass a received packet up to the network layer.
    Deliver {
        /// The transmitting neighbor.
        from: NodeId,
        /// The packet.
        sdu: MacSdu,
    },
    /// The MAC is done with this packet (delivered or dropped).
    PacketDone {
        /// The packet.
        sdu: MacSdu,
        /// `true` if the exchange completed (ACK received / broadcast sent).
        delivered: bool,
    },
}

/// Protocol state (exposed for tests and monitors).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MacState {
    /// No packet pending.
    Idle,
    /// Backing off toward a transmission (counting or frozen).
    Contending,
    /// Own RTS on the air.
    TxRts,
    /// Own CTS on the air.
    TxCts,
    /// Own DATA on the air.
    TxData,
    /// Own ACK on the air.
    TxAck,
    /// RTS sent, awaiting CTS.
    WaitCts,
    /// CTS sent, awaiting DATA.
    WaitData,
    /// DATA sent, awaiting ACK.
    WaitAck,
    /// SIFS gap before sending a CTS.
    SifsCts,
    /// SIFS gap before sending DATA.
    SifsData,
    /// SIFS gap before sending an ACK.
    SifsAck,
}

/// Counters for throughput / fairness experiments.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct MacStats {
    /// Packets accepted into the queue.
    pub enqueued: u64,
    /// Packets dropped because the queue was full.
    pub queue_drops: u64,
    /// RTS frames transmitted.
    pub rts_sent: u64,
    /// DATA frames transmitted (unicast + broadcast).
    pub data_sent: u64,
    /// Packets completed successfully (ACKed, or broadcast sent).
    pub delivered: u64,
    /// Packets abandoned after exhausting retries.
    pub dropped_retry: u64,
    /// Retransmission attempts (RTS or DATA stage).
    pub retries: u64,
    /// DATA frames received and passed up.
    pub rx_delivered: u64,
    /// Garbled receptions perceived (collisions in our airspace).
    pub garbled_heard: u64,
}

/// A read-only view of the MAC's internals, for tests and oracles.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MacSnapshot {
    /// Protocol state.
    pub state: MacState,
    /// Remaining back-off slots of the head-of-line packet, if any.
    pub counter: Option<u16>,
    /// Logical PRS offset of the *current* draw, if a packet is pending.
    pub seq_off: Option<u64>,
    /// True attempt number of the current packet.
    pub attempt: Option<u8>,
    /// Queue occupancy (including the head-of-line packet).
    pub queue_len: usize,
    /// Physical carrier-sense state.
    pub phys_busy: bool,
    /// NAV expiry instant ([`SimTime::ZERO`] if never set).
    pub nav_until: SimTime,
}

struct TxContext {
    sdu: MacSdu,
    /// 1-based attempt number driving the contention window.
    true_attempt: u8,
    seq_off: u64,
    dictated: BackoffDraw,
    /// Remaining slots this node will actually count (post-policy).
    counter: u16,
    /// The RTS commitment `sdu_digest(node, sdu.id)`, computed when the
    /// packet's first RTS is built and reused by its retries.
    md: Option<[u8; 16]>,
}

/// The per-node DCF MAC. See the crate docs for the interaction contract.
pub struct DcfMac {
    node: NodeId,
    timing: MacTiming,
    policy: BackoffPolicy,
    prs: VerifiableSequence,
    rng: Xoshiro256,

    state: MacState,
    queue: VecDeque<MacSdu>,
    queue_cap: usize,
    tx_ctx: Option<TxContext>,
    /// Next unused logical PRS offset.
    seq_counter: u64,

    phys_busy: bool,
    nav_until: SimTime,
    use_eifs: bool,
    /// Last instant the channel turned busy (for the NAV-reset rule).
    last_busy_edge: SimTime,
    /// Reference instant for a pending NAV-reset check (the overheard RTS's
    /// end); activity after it cancels the reset.
    nav_reset_ref: SimTime,
    /// Instant the current decrement run began (post-IFS); `Some` while the
    /// countdown timer is armed.
    run_start: Option<SimTime>,

    /// Receiver-side peer (valid in SifsCts/WaitData/SifsAck).
    rx_peer: NodeId,
    /// Remaining reservation promised in our CTS, used for the DATA timeout.
    rx_reserved: SimDuration,

    stats: MacStats,
    tracer: Tracer,
    metrics: Metrics,
}

impl DcfMac {
    /// Creates a MAC for `node` with the given policy.
    ///
    /// The verifiable PRS is seeded by the node id, standing in for the MAC
    /// address (unique and unforgeable per the paper's PKI assumption).
    /// `rng` drives only non-verifiable randomness (misbehaving private
    /// draws).
    pub fn new(node: NodeId, timing: MacTiming, policy: BackoffPolicy, rng: Xoshiro256) -> Self {
        DcfMac {
            node,
            timing,
            policy,
            prs: VerifiableSequence::new(node as u64),
            rng,
            state: MacState::Idle,
            queue: VecDeque::new(),
            queue_cap: DEFAULT_QUEUE_CAP,
            tx_ctx: None,
            seq_counter: 0,
            phys_busy: false,
            nav_until: SimTime::ZERO,
            use_eifs: false,
            last_busy_edge: SimTime::ZERO,
            nav_reset_ref: SimTime::MAX,
            run_start: None,
            rx_peer: 0,
            rx_reserved: SimDuration::ZERO,
            stats: MacStats::default(),
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
        }
    }

    /// Journals this MAC's frame and back-off events through `tracer`.
    /// Disabled by default.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Records this MAC's per-node counters and back-off draws into
    /// `metrics`. Disabled by default.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's public back-off sequence (what monitors replay).
    pub fn prs(&self) -> &VerifiableSequence {
        &self.prs
    }

    /// The back-off policy in force.
    pub fn policy(&self) -> BackoffPolicy {
        self.policy
    }

    /// Replaces the back-off policy. Takes effect from the next draw; swap
    /// policies before traffic starts for clean experiments.
    pub fn set_policy(&mut self, policy: BackoffPolicy) {
        self.policy = policy;
    }

    /// Sets the RTS threshold (see [`MacTiming::rts_threshold`]). A large
    /// value makes this node bypass the RTS/CTS handshake — and with it, the
    /// verifiable-back-off announcements.
    pub fn set_rts_threshold(&mut self, bytes: u32) {
        self.timing.rts_threshold = bytes;
    }

    /// Counters.
    pub fn stats(&self) -> &MacStats {
        &self.stats
    }

    /// A read-only snapshot of the protocol state.
    pub fn snapshot(&self) -> MacSnapshot {
        MacSnapshot {
            state: self.state,
            counter: self.tx_ctx.as_ref().map(|c| c.counter),
            seq_off: self.tx_ctx.as_ref().map(|c| c.seq_off),
            attempt: self.tx_ctx.as_ref().map(|c| c.true_attempt),
            queue_len: self.queue.len() + usize::from(self.tx_ctx.is_some()),
            phys_busy: self.phys_busy,
            nav_until: self.nav_until,
        }
    }

    /// Sets aside queue storage now, for a node about to originate traffic,
    /// so that its first backlog, whenever it comes, allocates nothing
    /// mid-run.
    pub fn reserve_queue(&mut self) {
        self.queue.reserve(QUEUE_RESERVE);
    }

    /// Changes the queue capacity (Table 1 default: 50).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn set_queue_cap(&mut self, cap: usize) {
        assert!(cap > 0, "queue capacity must be positive");
        self.queue_cap = cap;
    }

    // ------------------------------------------------------------------
    // Upper-layer interface
    // ------------------------------------------------------------------

    /// Accepts a packet from the network layer, appending the actions to
    /// execute to `actions`; the packet is silently dropped (counted) if the
    /// queue is full.
    pub fn enqueue(&mut self, sdu: MacSdu, now: SimTime, actions: &mut Vec<MacAction>) {
        if self.queue.len() >= self.queue_cap {
            self.stats.queue_drops += 1;
            self.metrics.bump(self.node, Counter::Dropped);
            return;
        }
        self.stats.enqueued += 1;
        self.metrics.bump(self.node, Counter::Enqueued);
        self.queue.push_back(sdu);
        if self.state == MacState::Idle && self.tx_ctx.is_none() {
            self.next_packet(now, actions);
        }
    }

    // ------------------------------------------------------------------
    // World-facing event handlers
    //
    // Each handler appends the actions it produces to the caller's
    // `actions` buffer and leaves what is already there alone, so a world
    // can drain one reused buffer instead of receiving a fresh vector per
    // event.
    // ------------------------------------------------------------------

    /// The physical carrier-sense state of this node changed.
    #[inline]
    pub fn on_channel_edge(&mut self, busy: bool, now: SimTime, actions: &mut Vec<MacAction>) {
        if busy {
            self.phys_busy = true;
            self.last_busy_edge = now;
            self.freeze(now, actions);
        } else {
            self.phys_busy = false;
            self.try_resume(now, actions);
        }
    }

    /// One of our timers fired.
    pub fn on_timer(&mut self, timer: Timer, now: SimTime, actions: &mut Vec<MacAction>) {
        match timer {
            Timer::Countdown => self.on_countdown_done(now, actions),
            Timer::Sifs => self.on_sifs(now, actions),
            Timer::CtsTimeout => self.on_cts_timeout(now, actions),
            Timer::DataTimeout => self.on_data_timeout(now, actions),
            Timer::AckTimeout => self.on_ack_timeout(now, actions),
            Timer::NavExpire => self.try_resume(now, actions),
            Timer::NavReset => self.on_nav_reset(now, actions),
        }
    }

    /// Our own transmission finished.
    pub fn on_tx_end(&mut self, now: SimTime, actions: &mut Vec<MacAction>) {
        match self.state {
            MacState::TxRts => {
                self.state = MacState::WaitCts;
                actions.push(MacAction::Arm {
                    timer: Timer::CtsTimeout,
                    at: now + self.timing.cts_timeout(),
                });
            }
            MacState::TxCts => {
                self.state = MacState::WaitData;
                actions.push(MacAction::Arm {
                    timer: Timer::DataTimeout,
                    at: now + self.rx_reserved + self.timing.slot * 2,
                });
            }
            MacState::TxData => {
                let ctx = self.tx_ctx.as_ref().expect("TxData without context");
                if ctx.sdu.dst == Dest::Broadcast {
                    let sdu = ctx.sdu;
                    self.finish_packet(sdu, true, now, actions);
                } else {
                    self.state = MacState::WaitAck;
                    actions.push(MacAction::Arm {
                        timer: Timer::AckTimeout,
                        at: now + self.timing.ack_timeout(),
                    });
                }
            }
            MacState::TxAck => {
                self.resume_own(now, actions);
            }
            other => {
                debug_assert!(false, "on_tx_end in unexpected state {other:?}");
            }
        }
    }

    /// A frame was decoded at this node (it ended at `now`).
    pub fn on_frame_decoded(&mut self, frame: &Frame, now: SimTime, actions: &mut Vec<MacAction>) {
        self.tracer.emit(
            now.as_nanos(),
            Some(self.node),
            EventKind::RxDecoded { src: frame.src, frame: frame_label(&frame.kind) },
        );
        self.metrics.bump(self.node, Counter::RxDecoded);
        self.use_eifs = false; // correct reception clears the EIFS penalty
        if !frame.dst.is_for(self.node) {
            // Third-party frame: honor its NAV. For an RTS, also schedule the
            // standard NAV-reset check: if the promised CTS/DATA never makes
            // the channel busy again, the reservation is abandoned and we
            // release the NAV instead of blocking for the whole exchange.
            if !frame.duration.is_zero() {
                self.set_nav(now + frame.duration, now, actions);
                if frame.is_rts() {
                    self.nav_reset_ref = now;
                    actions.push(MacAction::Arm {
                        timer: Timer::NavReset,
                        at: now
                            + self.timing.sifs * 2
                            + self.timing.cts_airtime()
                            + self.timing.slot * 2,
                    });
                }
            }
            return;
        }
        match &frame.kind {
            FrameKind::Rts(_) => {
                // Respond only if our NAV is clear and we are not mid-exchange.
                let free = matches!(self.state, MacState::Idle | MacState::Contending);
                if free && self.nav_until <= now {
                    self.leave_contending(now, actions);
                    self.rx_peer = frame.src;
                    self.rx_reserved = frame
                        .duration
                        .saturating_sub(self.timing.sifs + self.timing.cts_airtime());
                    self.state = MacState::SifsCts;
                    actions.push(MacAction::Arm {
                        timer: Timer::Sifs,
                        at: now + self.timing.sifs,
                    });
                }
            }
            FrameKind::Cts => {
                if self.state == MacState::WaitCts {
                    let expecting = self
                        .tx_ctx
                        .as_ref()
                        .map(|c| c.sdu.dst == Dest::Unicast(frame.src))
                        .unwrap_or(false);
                    if expecting {
                        actions.push(MacAction::Disarm {
                            timer: Timer::CtsTimeout,
                        });
                        self.state = MacState::SifsData;
                        actions.push(MacAction::Arm {
                            timer: Timer::Sifs,
                            at: now + self.timing.sifs,
                        });
                    }
                }
            }
            FrameKind::Data { sdu } => {
                if frame.dst == Dest::Broadcast {
                    self.stats.rx_delivered += 1;
                    actions.push(MacAction::Deliver {
                        from: frame.src,
                        sdu: *sdu,
                    });
                } else if self.state == MacState::WaitData && frame.src == self.rx_peer {
                    actions.push(MacAction::Disarm {
                        timer: Timer::DataTimeout,
                    });
                    self.stats.rx_delivered += 1;
                    actions.push(MacAction::Deliver {
                        from: frame.src,
                        sdu: *sdu,
                    });
                    self.state = MacState::SifsAck;
                    actions.push(MacAction::Arm {
                        timer: Timer::Sifs,
                        at: now + self.timing.sifs,
                    });
                } else if matches!(self.state, MacState::Idle | MacState::Contending)
                    && self.nav_until <= now
                {
                    // Basic-access DATA (no preceding RTS/CTS): deliver and
                    // acknowledge directly.
                    self.leave_contending(now, actions);
                    self.rx_peer = frame.src;
                    self.stats.rx_delivered += 1;
                    actions.push(MacAction::Deliver {
                        from: frame.src,
                        sdu: *sdu,
                    });
                    self.state = MacState::SifsAck;
                    actions.push(MacAction::Arm {
                        timer: Timer::Sifs,
                        at: now + self.timing.sifs,
                    });
                }
                // DATA in any other state (e.g. a duplicated retry heard
                // mid-exchange) is ignored; the sender will retry.
            }
            FrameKind::Ack => {
                if self.state == MacState::WaitAck {
                    actions.push(MacAction::Disarm {
                        timer: Timer::AckTimeout,
                    });
                    let sdu = self.tx_ctx.as_ref().expect("WaitAck without context").sdu;
                    self.finish_packet(sdu, true, now, actions);
                }
            }
        }
    }

    /// Energy that looked like a frame arrived but could not be decoded
    /// (collision in our airspace) — next deference uses EIFS. Produces no
    /// action.
    pub fn on_frame_garbled(&mut self, now: SimTime) {
        self.stats.garbled_heard += 1;
        self.tracer.emit(now.as_nanos(), Some(self.node), EventKind::Collision);
        self.metrics.bump(self.node, Counter::RxGarbled);
        self.use_eifs = true;
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn effective_idle(&self, now: SimTime) -> bool {
        !self.phys_busy && self.nav_until <= now
    }

    /// Arms the countdown if we are contending and the medium is idle.
    fn try_resume(&mut self, now: SimTime, actions: &mut Vec<MacAction>) {
        if self.state != MacState::Contending || self.run_start.is_some() {
            return;
        }
        if !self.effective_idle(now) {
            return;
        }
        let ctx = self.tx_ctx.as_ref().expect("contending without a packet");
        let ifs = if self.use_eifs {
            self.timing.eifs()
        } else {
            self.timing.difs()
        };
        self.use_eifs = false;
        let start = now + ifs;
        self.run_start = Some(start);
        self.tracer.emit(
            now.as_nanos(),
            Some(self.node),
            EventKind::BackoffResume { slots: ctx.counter },
        );
        actions.push(MacAction::Arm {
            timer: Timer::Countdown,
            at: start + self.timing.slot * u64::from(ctx.counter),
        });
    }

    /// Stops the countdown, banking the slots that elapsed.
    fn freeze(&mut self, now: SimTime, actions: &mut Vec<MacAction>) {
        if let Some(run_start) = self.run_start.take() {
            let elapsed = now.saturating_since(run_start);
            let decrements = elapsed.div_periods(self.timing.slot);
            if let Some(ctx) = self.tx_ctx.as_mut() {
                ctx.counter = ctx.counter.saturating_sub(decrements.min(u64::from(u16::MAX)) as u16);
            }
            let remaining = self.tx_ctx.as_ref().map_or(0, |c| c.counter);
            self.tracer.emit(
                now.as_nanos(),
                Some(self.node),
                EventKind::BackoffFreeze { remaining_slots: remaining },
            );
            self.metrics.bump(self.node, Counter::BackoffFreezes);
            actions.push(MacAction::Disarm {
                timer: Timer::Countdown,
            });
        }
    }

    /// Leaves the Contending state cleanly (freeze + disarm).
    fn leave_contending(&mut self, now: SimTime, actions: &mut Vec<MacAction>) {
        if self.state == MacState::Contending {
            self.freeze(now, actions);
        }
    }

    fn set_nav(&mut self, until: SimTime, now: SimTime, actions: &mut Vec<MacAction>) {
        if until > self.nav_until {
            self.nav_until = until;
            actions.push(MacAction::Arm {
                timer: Timer::NavExpire,
                at: until,
            });
            self.freeze(now, actions);
        }
    }

    fn on_countdown_done(&mut self, now: SimTime, actions: &mut Vec<MacAction>) {
        if self.state != MacState::Contending || self.run_start.is_none() {
            // Stale timer (we left Contending without the world seeing the
            // disarm yet); ignore.
            return;
        }
        self.run_start = None;
        if !self.effective_idle(now) {
            // Defensive: a same-instant busy edge should have frozen us.
            self.try_resume(now, actions);
            return;
        }
        let ctx = self.tx_ctx.as_mut().expect("contending without a packet");
        ctx.counter = 0;
        let mpdu_bytes = u32::from(ctx.sdu.payload_len)
            + crate::timing::DATA_MAC_OVERHEAD
            + crate::timing::DATA_NET_OVERHEAD;
        let basic_access =
            ctx.sdu.dst != Dest::Broadcast && mpdu_bytes <= self.timing.rts_threshold;
        let frame = if ctx.sdu.dst == Dest::Broadcast {
            self.stats.data_sent += 1;
            self.state = MacState::TxData;
            Frame {
                src: self.node,
                dst: Dest::Broadcast,
                duration: SimDuration::ZERO,
                kind: FrameKind::Data { sdu: ctx.sdu },
            }
        } else if basic_access {
            // Legacy basic access: DATA straight away, no RTS — and hence no
            // verifiable fields for monitors (see mg-detect's UnverifiedData
            // check).
            self.stats.data_sent += 1;
            self.state = MacState::TxData;
            Frame {
                src: self.node,
                dst: ctx.sdu.dst,
                duration: self.timing.data_duration(),
                kind: FrameKind::Data { sdu: ctx.sdu },
            }
        } else {
            self.stats.rts_sent += 1;
            self.state = MacState::TxRts;
            let node = self.node;
            let md = *ctx.md.get_or_insert_with(|| sdu_digest(node, ctx.sdu.id));
            Frame {
                src: self.node,
                dst: ctx.sdu.dst,
                duration: self.timing.rts_duration(ctx.sdu.payload_len),
                kind: FrameKind::Rts(RtsFields {
                    seq_off_wire: VerifiableSequence::wire_offset(ctx.seq_off),
                    attempt: self.policy.announced_attempt(ctx.true_attempt),
                    md,
                }),
            }
        };
        self.emit_tx_start(&frame, now);
        actions.push(MacAction::StartTx { frame });
    }

    fn on_sifs(&mut self, now: SimTime, actions: &mut Vec<MacAction>) {
        let frame = match self.state {
            MacState::SifsCts => {
                self.state = MacState::TxCts;
                Frame {
                    src: self.node,
                    dst: Dest::Unicast(self.rx_peer),
                    duration: self.rx_reserved,
                    kind: FrameKind::Cts,
                }
            }
            MacState::SifsData => {
                let ctx = self.tx_ctx.as_ref().expect("SifsData without context");
                self.stats.data_sent += 1;
                self.state = MacState::TxData;
                Frame {
                    src: self.node,
                    dst: ctx.sdu.dst,
                    duration: self.timing.data_duration(),
                    kind: FrameKind::Data { sdu: ctx.sdu },
                }
            }
            MacState::SifsAck => {
                self.state = MacState::TxAck;
                Frame {
                    src: self.node,
                    dst: Dest::Unicast(self.rx_peer),
                    duration: SimDuration::ZERO,
                    kind: FrameKind::Ack,
                }
            }
            other => {
                debug_assert!(false, "SIFS timer in state {other:?}");
                return;
            }
        };
        self.emit_tx_start(&frame, now);
        actions.push(MacAction::StartTx { frame });
    }

    fn emit_tx_start(&self, frame: &Frame, now: SimTime) {
        let dst = match frame.dst {
            Dest::Unicast(n) => Some(n),
            Dest::Broadcast => None,
        };
        self.tracer.emit(
            now.as_nanos(),
            Some(self.node),
            EventKind::TxStart { frame: frame_label(&frame.kind), dst },
        );
        self.metrics.bump(self.node, Counter::TxFrames);
    }

    /// IEEE 802.11 NAV-reset: an RTS-established NAV is torn down when no
    /// channel activity followed the RTS (the handshake it announced died).
    fn on_nav_reset(&mut self, now: SimTime, actions: &mut Vec<MacAction>) {
        let activity_since = self.phys_busy || self.last_busy_edge > self.nav_reset_ref;
        self.nav_reset_ref = SimTime::MAX;
        if !activity_since && self.nav_until > now {
            self.nav_until = now;
            actions.push(MacAction::Disarm {
                timer: Timer::NavExpire,
            });
            self.try_resume(now, actions);
        }
    }

    fn on_cts_timeout(&mut self, now: SimTime, actions: &mut Vec<MacAction>) {
        if self.state != MacState::WaitCts {
            return;
        }
        self.retry(now, actions);
    }

    fn on_ack_timeout(&mut self, now: SimTime, actions: &mut Vec<MacAction>) {
        if self.state != MacState::WaitAck {
            return;
        }
        self.retry(now, actions);
    }

    fn on_data_timeout(&mut self, now: SimTime, actions: &mut Vec<MacAction>) {
        if self.state != MacState::WaitData {
            return;
        }
        // The promised DATA never came; go back to our own business.
        self.resume_own(now, actions);
    }

    /// Handles a failed RTS or DATA attempt: widen the window, redraw from
    /// the PRS at the next offset, or drop after the retry limit.
    fn retry(&mut self, now: SimTime, actions: &mut Vec<MacAction>) {
        let limit = self.timing.short_retry_limit;
        let ctx = self.tx_ctx.as_mut().expect("retry without a packet");
        if ctx.true_attempt >= limit {
            self.stats.dropped_retry += 1;
            let sdu = ctx.sdu;
            self.finish_packet(sdu, false, now, actions);
            return;
        }
        self.stats.retries += 1;
        ctx.true_attempt += 1;
        ctx.seq_off = self.seq_counter;
        self.seq_counter += 1;
        ctx.dictated = self.prs.backoff(
            ctx.seq_off,
            ctx.true_attempt,
            self.timing.cw_min,
            self.timing.cw_max,
        );
        self.metrics.record_backoff_slots(u64::from(ctx.dictated.slots));
        ctx.counter = self.policy.actual_slots(ctx.dictated, &mut self.rng);
        self.state = MacState::Contending;
        self.try_resume(now, actions);
    }

    /// Completes the current packet and moves to the next.
    fn finish_packet(
        &mut self,
        sdu: MacSdu,
        delivered: bool,
        now: SimTime,
        actions: &mut Vec<MacAction>,
    ) {
        if delivered {
            self.stats.delivered += 1;
        }
        self.tx_ctx = None;
        actions.push(MacAction::PacketDone { sdu, delivered });
        self.next_packet(now, actions);
    }

    /// Pops the next queued packet (if any), draws its back-off, starts
    /// contending.
    fn next_packet(&mut self, now: SimTime, actions: &mut Vec<MacAction>) {
        debug_assert!(self.tx_ctx.is_none());
        match self.queue.pop_front() {
            None => {
                self.state = MacState::Idle;
            }
            Some(sdu) => {
                let seq_off = self.seq_counter;
                self.seq_counter += 1;
                let dictated =
                    self.prs
                        .backoff(seq_off, 1, self.timing.cw_min, self.timing.cw_max);
                self.metrics.record_backoff_slots(u64::from(dictated.slots));
                let counter = self.policy.actual_slots(dictated, &mut self.rng);
                self.tx_ctx = Some(TxContext {
                    sdu,
                    true_attempt: 1,
                    seq_off,
                    dictated,
                    counter,
                    md: None,
                });
                self.state = MacState::Contending;
                self.try_resume(now, actions);
            }
        }
    }

    /// Returns to our own agenda after serving as a receiver.
    fn resume_own(&mut self, now: SimTime, actions: &mut Vec<MacAction>) {
        if self.tx_ctx.is_some() {
            self.state = MacState::Contending;
            self.try_resume(now, actions);
        } else if self.queue.is_empty() {
            self.state = MacState::Idle;
        } else {
            self.next_packet(now, actions);
        }
    }
}

impl std::fmt::Debug for DcfMac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DcfMac")
            .field("node", &self.node)
            .field("state", &self.state)
            .field("queue", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    fn mac(node: NodeId) -> DcfMac {
        DcfMac::new(
            node,
            MacTiming::paper_default(),
            BackoffPolicy::Compliant,
            Xoshiro256::new(node as u64 + 1),
        )
    }

    fn sdu(id: u64, dst: NodeId) -> MacSdu {
        MacSdu {
            id,
            dst: Dest::Unicast(dst),
            payload_len: 512,
        }
    }

    /// The actions one handler call appends to an empty buffer.
    fn acts(handler: impl FnOnce(&mut Vec<MacAction>)) -> Vec<MacAction> {
        let mut actions = Vec::new();
        handler(&mut actions);
        actions
    }

    fn arm_deadline(actions: &[MacAction], which: Timer) -> Option<SimTime> {
        actions.iter().find_map(|a| match a {
            MacAction::Arm { timer, at } if *timer == which => Some(*at),
            _ => None,
        })
    }

    fn tx_frame(actions: &[MacAction]) -> Option<&Frame> {
        actions.iter().find_map(|a| match a {
            MacAction::StartTx { frame } => Some(frame),
            _ => None,
        })
    }

    #[test]
    fn enqueue_on_idle_channel_arms_difs_plus_backoff() {
        let mut m = mac(0);
        let actions = acts(|a| m.enqueue(sdu(1, 1), T0, a));
        let deadline = arm_deadline(&actions, Timer::Countdown).expect("countdown armed");
        let dictated = m.prs().backoff(0, 1, 31, 1023).slots;
        let expect = T0 + m.timing.difs() + m.timing.slot * u64::from(dictated);
        assert_eq!(deadline, expect);
        assert_eq!(m.snapshot().state, MacState::Contending);
        assert_eq!(m.snapshot().counter, Some(dictated));
    }

    #[test]
    fn countdown_fires_rts_with_verifiable_fields() {
        let mut m = mac(0);
        let a1 = acts(|a| m.enqueue(sdu(7, 3), T0, a));
        let fire = arm_deadline(&a1, Timer::Countdown).unwrap();
        let a2 = acts(|a| m.on_timer(Timer::Countdown, fire, a));
        let frame = tx_frame(&a2).expect("RTS transmitted");
        assert_eq!(frame.src, 0);
        assert_eq!(frame.dst, Dest::Unicast(3));
        let fields = frame.rts_fields().expect("is an RTS");
        assert_eq!(fields.seq_off_wire, 0);
        assert_eq!(fields.attempt, 1);
        assert_eq!(fields.md, sdu_digest(0, 7));
        assert_eq!(m.snapshot().state, MacState::TxRts);
        assert_eq!(m.stats().rts_sent, 1);
    }

    #[test]
    fn busy_edge_freezes_and_banks_whole_slots() {
        let mut m = mac(0);
        let a1 = acts(|a| m.enqueue(sdu(1, 1), T0, a));
        let dictated = m.prs().backoff(0, 1, 31, 1023).slots;
        assert!(dictated >= 3, "test seed must give roomy backoff, got {dictated}");
        assert!(arm_deadline(&a1, Timer::Countdown).is_some());
        // Busy arrives after DIFS + 2.5 slots: exactly 2 slots banked.
        let busy_at = T0 + m.timing.difs() + m.timing.slot * 2 + m.timing.slot / 2;
        let a2 = acts(|a| m.on_channel_edge(true, busy_at, a));
        assert!(a2.contains(&MacAction::Disarm {
            timer: Timer::Countdown
        }));
        assert_eq!(m.snapshot().counter, Some(dictated - 2));
        // Idle again: re-arm for DIFS + remaining slots.
        let idle_at = busy_at + SimDuration::from_micros(500);
        let a3 = acts(|a| m.on_channel_edge(false, idle_at, a));
        let deadline = arm_deadline(&a3, Timer::Countdown).unwrap();
        assert_eq!(
            deadline,
            idle_at + m.timing.difs() + m.timing.slot * u64::from(dictated - 2)
        );
    }

    #[test]
    fn busy_during_ifs_banks_nothing() {
        let mut m = mac(0);
        acts(|a| m.enqueue(sdu(1, 1), T0, a));
        let dictated = m.prs().backoff(0, 1, 31, 1023).slots;
        // Busy 10 µs in — still inside DIFS.
        acts(|a| m.on_channel_edge(true, T0 + SimDuration::from_micros(10), a));
        assert_eq!(m.snapshot().counter, Some(dictated));
    }

    #[test]
    fn full_sender_handshake() {
        let mut m = mac(0);
        let t = MacTiming::paper_default();
        let a1 = acts(|a| m.enqueue(sdu(1, 1), T0, a));
        let fire = arm_deadline(&a1, Timer::Countdown).unwrap();
        let a2 = acts(|a| m.on_timer(Timer::Countdown, fire, a));
        assert!(tx_frame(&a2).unwrap().is_rts());

        // RTS airtime passes.
        let rts_end = fire + t.rts_airtime();
        let a3 = acts(|a| m.on_tx_end(rts_end, a));
        assert_eq!(m.snapshot().state, MacState::WaitCts);
        assert_eq!(
            arm_deadline(&a3, Timer::CtsTimeout),
            Some(rts_end + t.cts_timeout())
        );

        // CTS arrives.
        let cts_end = rts_end + t.sifs + t.cts_airtime();
        let cts = Frame {
            src: 1,
            dst: Dest::Unicast(0),
            duration: t.cts_duration(512),
            kind: FrameKind::Cts,
        };
        let a4 = acts(|a| m.on_frame_decoded(&cts, cts_end, a));
        assert!(a4.contains(&MacAction::Disarm {
            timer: Timer::CtsTimeout
        }));
        assert_eq!(m.snapshot().state, MacState::SifsData);

        // SIFS fires -> DATA.
        let a5 = acts(|a| m.on_timer(Timer::Sifs, cts_end + t.sifs, a));
        let data = tx_frame(&a5).unwrap();
        assert_eq!(data.sdu().unwrap().id, 1);
        let data_end = cts_end + t.sifs + t.data_airtime(512);
        let a6 = acts(|a| m.on_tx_end(data_end, a));
        assert_eq!(m.snapshot().state, MacState::WaitAck);
        assert!(arm_deadline(&a6, Timer::AckTimeout).is_some());

        // ACK arrives -> packet done, queue empty -> Idle.
        let ack = Frame {
            src: 1,
            dst: Dest::Unicast(0),
            duration: SimDuration::ZERO,
            kind: FrameKind::Ack,
        };
        let a7 = acts(|a| m.on_frame_decoded(&ack, data_end + t.sifs + t.ack_airtime(), a));
        assert!(a7.iter().any(|a| matches!(
            a,
            MacAction::PacketDone {
                delivered: true,
                ..
            }
        )));
        assert_eq!(m.snapshot().state, MacState::Idle);
        assert_eq!(m.stats().delivered, 1);
    }

    #[test]
    fn full_receiver_handshake() {
        let mut m = mac(1);
        let t = MacTiming::paper_default();
        let rts = Frame {
            src: 0,
            dst: Dest::Unicast(1),
            duration: t.rts_duration(512),
            kind: FrameKind::Rts(RtsFields {
                seq_off_wire: 0,
                attempt: 1,
                md: [0; 16],
            }),
        };
        let rts_end = T0 + t.rts_airtime();
        let a1 = acts(|a| m.on_frame_decoded(&rts, rts_end, a));
        assert_eq!(m.snapshot().state, MacState::SifsCts);
        assert_eq!(arm_deadline(&a1, Timer::Sifs), Some(rts_end + t.sifs));

        let a2 = acts(|a| m.on_timer(Timer::Sifs, rts_end + t.sifs, a));
        let cts = tx_frame(&a2).unwrap();
        assert_eq!(cts.kind, FrameKind::Cts);
        assert_eq!(cts.dst, Dest::Unicast(0));
        // CTS NAV covers the rest of the exchange.
        assert_eq!(cts.duration, t.rts_duration(512) - t.sifs - t.cts_airtime());

        let cts_end = rts_end + t.sifs + t.cts_airtime();
        let a3 = acts(|a| m.on_tx_end(cts_end, a));
        assert_eq!(m.snapshot().state, MacState::WaitData);
        assert!(arm_deadline(&a3, Timer::DataTimeout).is_some());

        // DATA arrives.
        let data = Frame {
            src: 0,
            dst: Dest::Unicast(1),
            duration: t.data_duration(),
            kind: FrameKind::Data { sdu: sdu(9, 1) },
        };
        let data_end = cts_end + t.sifs + t.data_airtime(512);
        let a4 = acts(|a| m.on_frame_decoded(&data, data_end, a));
        assert!(a4
            .iter()
            .any(|a| matches!(a, MacAction::Deliver { from: 0, sdu } if sdu.id == 9)));
        assert_eq!(m.snapshot().state, MacState::SifsAck);

        let a5 = acts(|a| m.on_timer(Timer::Sifs, data_end + t.sifs, a));
        assert_eq!(tx_frame(&a5).unwrap().kind, FrameKind::Ack);
        let ack_end = data_end + t.sifs + t.ack_airtime();
        acts(|a| m.on_tx_end(ack_end, a));
        assert_eq!(m.snapshot().state, MacState::Idle);
    }

    #[test]
    fn cts_timeout_retries_with_wider_window_and_next_offset() {
        let mut m = mac(0);
        let a1 = acts(|a| m.enqueue(sdu(1, 1), T0, a));
        let fire = arm_deadline(&a1, Timer::Countdown).unwrap();
        acts(|a| m.on_timer(Timer::Countdown, fire, a));
        let rts_end = fire + m.timing.rts_airtime();
        acts(|a| m.on_tx_end(rts_end, a));
        let timeout_at = rts_end + m.timing.cts_timeout();
        let a2 = acts(|a| m.on_timer(Timer::CtsTimeout, timeout_at, a));
        // Second attempt: offset 1, attempt 2, CW 63.
        let snap = m.snapshot();
        assert_eq!(snap.state, MacState::Contending);
        assert_eq!(snap.seq_off, Some(1));
        assert_eq!(snap.attempt, Some(2));
        let dictated2 = m.prs().backoff(1, 2, 31, 1023);
        assert_eq!(dictated2.cw, 63);
        assert_eq!(snap.counter, Some(dictated2.slots));
        assert_eq!(
            arm_deadline(&a2, Timer::Countdown),
            Some(timeout_at + m.timing.difs() + m.timing.slot * u64::from(dictated2.slots))
        );
        assert_eq!(m.stats().retries, 1);
    }

    #[test]
    fn every_rts_of_a_packet_carries_its_digest() {
        // Every attempt of packet 9 times out until the retry limit drops
        // it; then packet 10 goes out on the same MAC.
        let mut m = mac(2);
        let mut now = T0;
        let mut actions = acts(|a| m.enqueue(sdu(9, 1), now, a));
        let mut digests = Vec::new();
        while m.stats().dropped_retry == 0 {
            now = arm_deadline(&actions, Timer::Countdown).expect("countdown armed");
            actions = acts(|a| m.on_timer(Timer::Countdown, now, a));
            let rts = tx_frame(&actions).and_then(Frame::rts_fields).expect("an RTS");
            digests.push(rts.md);
            now += m.timing.rts_airtime();
            acts(|a| m.on_tx_end(now, a));
            now += m.timing.cts_timeout();
            actions = acts(|a| m.on_timer(Timer::CtsTimeout, now, a));
        }
        assert_eq!(digests, vec![sdu_digest(2, 9); 7]);
        let a = acts(|a| m.enqueue(sdu(10, 1), now, a));
        let fire = arm_deadline(&a, Timer::Countdown).expect("countdown armed");
        let a = acts(|a| m.on_timer(Timer::Countdown, fire, a));
        let rts = tx_frame(&a).and_then(Frame::rts_fields).expect("an RTS");
        assert_eq!(rts.md, sdu_digest(2, 10));
    }

    #[test]
    fn packet_dropped_after_retry_limit() {
        let mut m = mac(0);
        let mut now = T0;
        let mut actions = acts(|a| m.enqueue(sdu(1, 1), now, a));
        let mut done = None;
        for _ in 0..20 {
            if let Some(at) = arm_deadline(&actions, Timer::Countdown) {
                now = at;
                actions = acts(|a| m.on_timer(Timer::Countdown, now, a));
            }
            if tx_frame(&actions).is_some() {
                now += m.timing.rts_airtime();
                actions = acts(|a| m.on_tx_end(now, a));
            }
            if let Some(at) = arm_deadline(&actions, Timer::CtsTimeout) {
                now = at;
                actions = acts(|a| m.on_timer(Timer::CtsTimeout, now, a));
            }
            if let Some(d) = actions.iter().find_map(|a| match a {
                MacAction::PacketDone { delivered, .. } => Some(*delivered),
                _ => None,
            }) {
                done = Some(d);
                break;
            }
        }
        assert_eq!(done, Some(false), "packet should be dropped");
        assert_eq!(m.stats().dropped_retry, 1);
        assert_eq!(m.stats().rts_sent, 7, "short retry limit");
        assert_eq!(m.snapshot().state, MacState::Idle);
    }

    #[test]
    fn nav_defers_countdown() {
        let mut m = mac(0);
        let t = MacTiming::paper_default();
        acts(|a| m.enqueue(sdu(1, 1), T0, a));
        // Overheard third-party RTS reserves the medium.
        let rts = Frame {
            src: 5,
            dst: Dest::Unicast(6),
            duration: SimDuration::from_micros(4000),
            kind: FrameKind::Rts(RtsFields {
                seq_off_wire: 0,
                attempt: 1,
                md: [0; 16],
            }),
        };
        // The frame occupied the channel (busy edge), then decoded at its end.
        acts(|a| m.on_channel_edge(true, T0 + SimDuration::from_micros(10), a));
        let rts_end = T0 + SimDuration::from_micros(10) + t.rts_airtime();
        let a = acts(|a| m.on_frame_decoded(&rts, rts_end, a));
        assert!(arm_deadline(&a, Timer::NavExpire).is_some());
        // Physical idle while NAV holds: no countdown.
        let idle = acts(|a| m.on_channel_edge(false, rts_end, a));
        assert!(arm_deadline(&idle, Timer::Countdown).is_none());
        // NAV expiry releases us.
        let nav_end = rts_end + SimDuration::from_micros(4000);
        let a2 = acts(|a| m.on_timer(Timer::NavExpire, nav_end, a));
        assert!(arm_deadline(&a2, Timer::Countdown).is_some());
    }

    #[test]
    fn eifs_after_garbled_frame() {
        let mut m = mac(0);
        let t = MacTiming::paper_default();
        acts(|a| m.enqueue(sdu(1, 1), T0, a));
        let dictated = m.prs().backoff(0, 1, 31, 1023).slots;
        acts(|a| m.on_channel_edge(true, T0 + SimDuration::from_micros(5), a));
        let garble_at = T0 + SimDuration::from_micros(400);
        m.on_frame_garbled(garble_at);
        let a = acts(|a| m.on_channel_edge(false, garble_at, a));
        let deadline = arm_deadline(&a, Timer::Countdown).unwrap();
        assert_eq!(
            deadline,
            garble_at + t.eifs() + t.slot * u64::from(dictated)
        );
        assert_eq!(m.stats().garbled_heard, 1);
    }

    #[test]
    fn broadcast_skips_handshake() {
        let mut m = mac(0);
        let bsdu = MacSdu {
            id: 4,
            dst: Dest::Broadcast,
            payload_len: 64,
        };
        let a1 = acts(|a| m.enqueue(bsdu, T0, a));
        let fire = arm_deadline(&a1, Timer::Countdown).unwrap();
        let a2 = acts(|a| m.on_timer(Timer::Countdown, fire, a));
        let f = tx_frame(&a2).unwrap();
        assert_eq!(f.dst, Dest::Broadcast);
        assert!(f.sdu().is_some());
        let end = fire + m.timing.data_airtime(64);
        let a3 = acts(|a| m.on_tx_end(end, a));
        assert!(a3.iter().any(|a| matches!(
            a,
            MacAction::PacketDone {
                delivered: true,
                ..
            }
        )));
        assert_eq!(m.snapshot().state, MacState::Idle);
    }

    #[test]
    fn queue_overflow_drops() {
        let mut m = mac(0);
        m.set_queue_cap(2);
        // First enqueue becomes head-of-line (leaves the queue), so two more
        // fit in the queue and the fourth drops.
        for i in 0..4 {
            acts(|a| m.enqueue(sdu(i, 1), T0, a));
        }
        assert_eq!(m.stats().queue_drops, 1);
        assert_eq!(m.stats().enqueued, 3);
    }

    #[test]
    fn receiver_busy_with_nav_ignores_rts() {
        let mut m = mac(1);
        let t = MacTiming::paper_default();
        // Third-party reservation first.
        let other = Frame {
            src: 8,
            dst: Dest::Unicast(9),
            duration: SimDuration::from_micros(5000),
            kind: FrameKind::Cts,
        };
        acts(|a| m.on_frame_decoded(&other, T0 + SimDuration::from_micros(100), a));
        // RTS for us during the reservation: must not answer.
        let rts = Frame {
            src: 0,
            dst: Dest::Unicast(1),
            duration: t.rts_duration(512),
            kind: FrameKind::Rts(RtsFields {
                seq_off_wire: 0,
                attempt: 1,
                md: [0; 16],
            }),
        };
        let a = acts(|a| m.on_frame_decoded(&rts, T0 + SimDuration::from_micros(700), a));
        assert!(arm_deadline(&a, Timer::Sifs).is_none());
        assert_eq!(m.snapshot().state, MacState::Idle);
    }

    #[test]
    fn basic_access_skips_rts_below_threshold() {
        let mut timing = MacTiming::paper_default();
        timing.rts_threshold = 4000; // everything below: basic access
        let mut sender = DcfMac::new(0, timing, BackoffPolicy::Compliant, Xoshiro256::new(1));
        let a1 = acts(|a| sender.enqueue(sdu(1, 1), T0, a));
        let fire = arm_deadline(&a1, Timer::Countdown).unwrap();
        let a2 = acts(|a| sender.on_timer(Timer::Countdown, fire, a));
        let frame = tx_frame(&a2).expect("transmits");
        assert!(frame.sdu().is_some(), "DATA straight away, no RTS");
        assert_eq!(frame.dst, Dest::Unicast(1));
        assert_eq!(frame.duration, timing.data_duration());
        assert_eq!(sender.stats().rts_sent, 0);
        // Sender then awaits the ACK.
        let data_end = fire + timing.data_airtime(512);
        let a3 = acts(|a| sender.on_tx_end(data_end, a));
        assert_eq!(sender.snapshot().state, MacState::WaitAck);
        assert!(arm_deadline(&a3, Timer::AckTimeout).is_some());

        // Receiver side: DATA out of the blue is delivered and ACKed.
        let mut receiver = mac(1);
        let a4 = acts(|a| receiver.on_frame_decoded(frame, data_end, a));
        assert!(a4
            .iter()
            .any(|a| matches!(a, MacAction::Deliver { from: 0, .. })));
        assert_eq!(receiver.snapshot().state, MacState::SifsAck);
        let a5 = acts(|a| receiver.on_timer(Timer::Sifs, data_end + timing.sifs, a));
        assert_eq!(tx_frame(&a5).unwrap().kind, FrameKind::Ack);

        // ACK closes the exchange at the sender.
        let ack = Frame {
            src: 1,
            dst: Dest::Unicast(0),
            duration: SimDuration::ZERO,
            kind: FrameKind::Ack,
        };
        let a6 = acts(|a| sender.on_frame_decoded(&ack, data_end + timing.sifs + timing.ack_airtime(), a));
        assert!(a6.iter().any(|a| matches!(
            a,
            MacAction::PacketDone {
                delivered: true,
                ..
            }
        )));
        assert_eq!(sender.stats().delivered, 1);
    }

    #[test]
    fn rts_used_above_threshold() {
        let mut timing = MacTiming::paper_default();
        timing.rts_threshold = 100; // 512 + 56 > 100 -> RTS
        let mut m = DcfMac::new(0, timing, BackoffPolicy::Compliant, Xoshiro256::new(1));
        let a1 = acts(|a| m.enqueue(sdu(1, 1), T0, a));
        let fire = arm_deadline(&a1, Timer::Countdown).unwrap();
        let a2 = acts(|a| m.on_timer(Timer::Countdown, fire, a));
        assert!(tx_frame(&a2).unwrap().is_rts());
    }

    #[test]
    fn nav_reset_releases_abandoned_reservation() {
        let mut m = mac(0);
        let t = MacTiming::paper_default();
        acts(|a| m.enqueue(sdu(1, 1), T0, a));
        // Overheard third-party RTS: NAV set for the whole exchange.
        let rts = Frame {
            src: 5,
            dst: Dest::Unicast(6),
            duration: t.rts_duration(512),
            kind: FrameKind::Rts(RtsFields {
                seq_off_wire: 0,
                attempt: 1,
                md: [0; 16],
            }),
        };
        acts(|a| m.on_channel_edge(true, T0 + SimDuration::from_micros(4), a));
        let rts_end = T0 + SimDuration::from_micros(4) + t.rts_airtime();
        let a = acts(|a| m.on_frame_decoded(&rts, rts_end, a));
        let reset_at = arm_deadline(&a, Timer::NavReset).expect("reset check armed");
        assert!(reset_at < rts_end + t.rts_duration(512));
        acts(|a| m.on_channel_edge(false, rts_end, a));
        // No CTS/DATA ever follows; the reset check fires and frees us.
        let a2 = acts(|a| m.on_timer(Timer::NavReset, reset_at, a));
        assert!(
            arm_deadline(&a2, Timer::Countdown).is_some(),
            "NAV must be released: {a2:?}"
        );
        assert!(m.snapshot().nav_until <= reset_at);
    }

    #[test]
    fn nav_reset_keeps_reservation_when_exchange_proceeds() {
        let mut m = mac(0);
        let t = MacTiming::paper_default();
        acts(|a| m.enqueue(sdu(1, 1), T0, a));
        let rts = Frame {
            src: 5,
            dst: Dest::Unicast(6),
            duration: t.rts_duration(512),
            kind: FrameKind::Rts(RtsFields {
                seq_off_wire: 0,
                attempt: 1,
                md: [0; 16],
            }),
        };
        acts(|a| m.on_channel_edge(true, T0 + SimDuration::from_micros(4), a));
        let rts_end = T0 + SimDuration::from_micros(4) + t.rts_airtime();
        let a = acts(|a| m.on_frame_decoded(&rts, rts_end, a));
        let reset_at = arm_deadline(&a, Timer::NavReset).unwrap();
        acts(|a| m.on_channel_edge(false, rts_end, a));
        // CTS energy makes the channel busy again before the check fires.
        acts(|a| m.on_channel_edge(true, rts_end + t.sifs, a));
        acts(|a| m.on_channel_edge(false, rts_end + t.sifs + t.cts_airtime(), a));
        let a2 = acts(|a| m.on_timer(Timer::NavReset, reset_at, a));
        // NAV still holding: no countdown may start.
        assert!(
            arm_deadline(&a2, Timer::Countdown).is_none(),
            "NAV must survive an active exchange: {a2:?}"
        );
        assert!(m.snapshot().nav_until > reset_at);
    }

    #[test]
    fn receiver_data_timeout_recovers() {
        let mut m = mac(1);
        let t = MacTiming::paper_default();
        // Our own packet is pending, then we get called to serve as receiver.
        acts(|a| m.enqueue(sdu(9, 0), T0, a));
        let rts = Frame {
            src: 0,
            dst: Dest::Unicast(1),
            duration: t.rts_duration(512),
            kind: FrameKind::Rts(RtsFields {
                seq_off_wire: 0,
                attempt: 1,
                md: [0; 16],
            }),
        };
        acts(|a| m.on_channel_edge(true, T0 + SimDuration::from_micros(4), a));
        let rts_end = T0 + SimDuration::from_micros(4) + t.rts_airtime();
        acts(|a| m.on_frame_decoded(&rts, rts_end, a));
        assert_eq!(m.snapshot().state, MacState::SifsCts);
        acts(|a| m.on_timer(Timer::Sifs, rts_end + t.sifs, a));
        let cts_end = rts_end + t.sifs + t.cts_airtime();
        let a = acts(|a| m.on_tx_end(cts_end, a));
        let deadline = arm_deadline(&a, Timer::DataTimeout).expect("data timeout armed");
        // The DATA never comes; we must return to our own contention.
        acts(|a| m.on_channel_edge(false, cts_end, a));
        let a2 = acts(|a| m.on_timer(Timer::DataTimeout, deadline, a));
        assert_eq!(m.snapshot().state, MacState::Contending);
        assert!(
            arm_deadline(&a2, Timer::Countdown).is_some(),
            "must resume own backoff: {a2:?}"
        );
    }

    #[test]
    fn receiver_resumes_own_contention_after_serving() {
        let mut m = mac(1);
        let t = MacTiming::paper_default();
        acts(|a| m.enqueue(sdu(9, 0), T0, a));
        let before = m.snapshot().counter.unwrap();
        // Freeze mid-countdown, then serve a full exchange for node 0.
        let busy_at = T0 + t.difs() + t.slot * 3;
        acts(|a| m.on_channel_edge(true, busy_at, a));
        let remaining = m.snapshot().counter.unwrap();
        assert_eq!(remaining, before - 3);
        let rts = Frame {
            src: 0,
            dst: Dest::Unicast(1),
            duration: t.rts_duration(512),
            kind: FrameKind::Rts(RtsFields {
                seq_off_wire: 0,
                attempt: 1,
                md: [0; 16],
            }),
        };
        let rts_end = busy_at + t.rts_airtime();
        acts(|a| m.on_frame_decoded(&rts, rts_end, a));
        acts(|a| m.on_timer(Timer::Sifs, rts_end + t.sifs, a));
        let cts_end = rts_end + t.sifs + t.cts_airtime();
        acts(|a| m.on_tx_end(cts_end, a));
        let data = Frame {
            src: 0,
            dst: Dest::Unicast(1),
            duration: t.data_duration(),
            kind: FrameKind::Data { sdu: sdu(5, 1) },
        };
        let data_end = cts_end + t.sifs + t.data_airtime(512);
        acts(|a| m.on_frame_decoded(&data, data_end, a));
        acts(|a| m.on_timer(Timer::Sifs, data_end + t.sifs, a));
        let ack_end = data_end + t.sifs + t.ack_airtime();
        let a = acts(|a| m.on_tx_end(ack_end, a));
        // Back to Contending with the *banked* counter, not a fresh draw.
        assert_eq!(m.snapshot().state, MacState::Contending);
        assert_eq!(m.snapshot().counter, Some(remaining));
        let _ = a;
    }

    #[test]
    fn queue_is_fifo() {
        let mut m = mac(0);
        let t = MacTiming::paper_default();
        for i in 0..3 {
            acts(|a| m.enqueue(sdu(i, 1), T0, a));
        }
        let mut delivered = Vec::new();
        let mut now = T0;
        for _ in 0..3 {
            // Fire countdown → RTS → CTS → DATA → ACK, capturing the id.
            let snap = m.snapshot();
            assert_eq!(snap.state, MacState::Contending);
            let fire = now + t.difs() + t.slot * u64::from(snap.counter.unwrap());
            let a = acts(|a| m.on_timer(Timer::Countdown, fire, a));
            assert!(tx_frame(&a).unwrap().is_rts());
            let rts_end = fire + t.rts_airtime();
            acts(|a| m.on_tx_end(rts_end, a));
            let cts = Frame {
                src: 1,
                dst: Dest::Unicast(0),
                duration: t.cts_duration(512),
                kind: FrameKind::Cts,
            };
            let cts_end = rts_end + t.sifs + t.cts_airtime();
            acts(|a| m.on_frame_decoded(&cts, cts_end, a));
            let a = acts(|a| m.on_timer(Timer::Sifs, cts_end + t.sifs, a));
            delivered.push(tx_frame(&a).unwrap().sdu().unwrap().id);
            let data_end = cts_end + t.sifs + t.data_airtime(512);
            acts(|a| m.on_tx_end(data_end, a));
            let ack = Frame {
                src: 1,
                dst: Dest::Unicast(0),
                duration: SimDuration::ZERO,
                kind: FrameKind::Ack,
            };
            now = data_end + t.sifs + t.ack_airtime();
            acts(|a| m.on_frame_decoded(&ack, now, a));
        }
        assert_eq!(delivered, vec![0, 1, 2]);
    }

    #[test]
    fn timer_indices_fill_the_table() {
        let all = [
            Timer::Countdown,
            Timer::Sifs,
            Timer::CtsTimeout,
            Timer::DataTimeout,
            Timer::AckTimeout,
            Timer::NavExpire,
            Timer::NavReset,
        ];
        assert_eq!(all.len(), Timer::COUNT);
        for (i, t) in all.into_iter().enumerate() {
            assert_eq!(t.index(), i);
        }
    }

    #[test]
    fn handlers_append_after_existing_actions() {
        let mut m = mac(0);
        let fresh = acts(|a| mac(0).enqueue(sdu(1, 1), T0, a));
        let marker = MacAction::Disarm { timer: Timer::NavReset };
        let mut actions = vec![marker];
        m.enqueue(sdu(1, 1), T0, &mut actions);
        assert_eq!(actions[0], marker);
        assert_eq!(actions[1..], fresh[..]);
    }

    /// The common edge: a MAC with nothing to send notes the carrier state
    /// and appends no action, busy or idle.
    #[test]
    fn edges_at_an_idle_mac_append_nothing() {
        let mut m = mac(0);
        let busy_at = T0 + SimDuration::from_micros(10);
        assert_eq!(acts(|a| m.on_channel_edge(true, busy_at, a)), []);
        assert!(m.snapshot().phys_busy);
        let idle_at = busy_at + SimDuration::from_micros(500);
        assert_eq!(acts(|a| m.on_channel_edge(false, idle_at, a)), []);
        let s = m.snapshot();
        assert_eq!((s.state, s.phys_busy), (MacState::Idle, false));
    }

    #[test]
    fn scaled_policy_counts_down_less() {
        let mut honest = mac(0);
        let mut cheat = DcfMac::new(
            0,
            MacTiming::paper_default(),
            BackoffPolicy::Scaled { pm: 80 },
            Xoshiro256::new(1),
        );
        let a_h = acts(|a| honest.enqueue(sdu(1, 1), T0, a));
        let a_c = acts(|a| cheat.enqueue(sdu(1, 1), T0, a));
        let dh = arm_deadline(&a_h, Timer::Countdown).unwrap();
        let dc = arm_deadline(&a_c, Timer::Countdown).unwrap();
        let dictated = honest.prs().backoff(0, 1, 31, 1023).slots;
        assert!(dictated > 0);
        assert!(dc < dh, "cheater fires earlier: {dc:?} vs {dh:?}");
        // And both *announce* the same dictated draw (same node id ⇒ same PRS).
        assert_eq!(cheat.snapshot().seq_off, honest.snapshot().seq_off);
    }
}
