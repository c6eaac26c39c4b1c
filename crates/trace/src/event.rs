//! Typed trace records.
//!
//! Every instrumented subsystem emits [`Event`]s — small `Copy` structs
//! stamped with the **virtual** simulation time in nanoseconds. Wall-clock
//! time never enters the journal, which is what keeps equal-seed exports
//! byte-identical.

use crate::json::Json;

/// The subsystem an event originates from, used for level filtering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Subsystem {
    /// The discrete-event scheduler (`mg-sim`).
    Sched,
    /// The shared radio medium (`mg-phy`).
    Phy,
    /// The DCF MAC state machines (`mg-dcf`).
    Mac,
    /// The network/world layer (`mg-net`).
    Net,
    /// The back-off violation monitor (`mg-detect`).
    Monitor,
    /// Deterministic fault injection (`mg-fault`).
    Fault,
    /// The collaborative-detection gossip layer (`mg-quorum`).
    Quorum,
}

/// Number of subsystems (size of the per-subsystem level table).
pub const SUBSYSTEM_COUNT: usize = 7;

impl Subsystem {
    /// Table index for per-subsystem level filtering.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short lowercase tag used in JSONL output.
    pub fn tag(self) -> &'static str {
        match self {
            Subsystem::Sched => "sched",
            Subsystem::Phy => "phy",
            Subsystem::Mac => "mac",
            Subsystem::Net => "net",
            Subsystem::Monitor => "monitor",
            Subsystem::Fault => "fault",
            Subsystem::Quorum => "quorum",
        }
    }
}

/// Verbosity level for a subsystem's journal stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Level {
    /// Emit nothing.
    Off,
    /// Emit the protocol-relevant events (frames, violations, packets).
    #[default]
    Info,
    /// Additionally emit high-rate internals (dispatches, channel edges).
    Debug,
}

/// The frame class carried by a MAC tx/rx event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameLabel {
    /// Request-to-send.
    Rts,
    /// Clear-to-send.
    Cts,
    /// A data frame.
    Data,
    /// An acknowledgement.
    Ack,
}

impl FrameLabel {
    /// Short lowercase tag used in JSONL output.
    pub fn tag(self) -> &'static str {
        match self {
            FrameLabel::Rts => "rts",
            FrameLabel::Cts => "cts",
            FrameLabel::Data => "data",
            FrameLabel::Ack => "ack",
        }
    }
}

/// The payload of a trace record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// The scheduler dispatched the event with this sequence number.
    SchedDispatch {
        /// Monotonic scheduler sequence number.
        seq: u64,
    },
    /// A node's carrier-sense state flipped.
    ChannelEdge {
        /// `true` when the channel just became busy at this node.
        busy: bool,
    },
    /// A MAC began transmitting a frame.
    TxStart {
        /// What kind of frame went on the air.
        frame: FrameLabel,
        /// Destination node, if the frame is addressed.
        dst: Option<usize>,
    },
    /// A MAC decoded a frame addressed to (or overheard by) it.
    RxDecoded {
        /// The transmitting node.
        src: usize,
        /// What kind of frame was decoded.
        frame: FrameLabel,
    },
    /// A reception was garbled by overlapping transmissions.
    Collision,
    /// A back-off countdown froze because the channel went busy.
    BackoffFreeze {
        /// Slots still outstanding when the countdown froze.
        remaining_slots: u16,
    },
    /// A frozen back-off countdown resumed.
    BackoffResume {
        /// Slots re-armed for the resumed countdown.
        slots: u16,
    },
    /// The network layer queued a new packet at a node.
    Enqueue {
        /// Workspace-unique packet id.
        sdu: u64,
    },
    /// A packet left the system (delivered or dropped).
    PacketDone {
        /// Workspace-unique packet id.
        sdu: u64,
        /// `true` when the packet reached its destination.
        delivered: bool,
    },
    /// The monitor paired a dictated/estimated back-off sample.
    MonitorSample {
        /// Slots the protocol dictated.
        dictated: f64,
        /// Slots the monitor estimated from the air.
        estimated: f64,
    },
    /// The monitor ran a rank-sum test over a sample batch.
    MonitorTest {
        /// The test's p-value.
        p: f64,
        /// `true` when the null (compliance) was rejected.
        reject: bool,
    },
    /// The monitor flagged a protocol violation.
    MonitorViolation {
        /// Stable violation-kind tag (e.g. `"blatant_countdown"`).
        kind: &'static str,
    },
    /// The monitor classified an anomalous observation as uncertain and
    /// withheld a deterministic verdict (statistical path still runs).
    MonitorUncertain {
        /// The deterministic check the observation would have tripped.
        kind: &'static str,
    },
    /// Fault injection ate a frame the monitor would have decoded.
    FaultDrop {
        /// Which fault ate it (e.g. `"loss"`, `"burst-loss"`, `"deaf"`).
        cause: &'static str,
    },
    /// Fault injection flipped commitment bits in an observed tagged RTS.
    FaultCorrupt {
        /// Number of bits flipped.
        bits: u32,
    },
    /// A monitor broadcast an accusation to the other quorum members (the
    /// event's node is the accuser).
    AccusationSent {
        /// The accused node.
        suspect: usize,
    },
    /// An accusation arrived at a monitor (the event's node is the
    /// receiver).
    AccusationDelivered {
        /// The accused node.
        suspect: usize,
    },
    /// A monitor's suspicion set reached the conviction quorum (the event's
    /// node is the convicting monitor).
    QuorumConvicted {
        /// The convicted node.
        suspect: usize,
        /// Distinct accusers backing the conviction.
        votes: usize,
    },
}

impl EventKind {
    /// The subsystem this kind belongs to.
    pub fn subsystem(&self) -> Subsystem {
        match self {
            EventKind::SchedDispatch { .. } => Subsystem::Sched,
            EventKind::ChannelEdge { .. } => Subsystem::Phy,
            EventKind::TxStart { .. }
            | EventKind::RxDecoded { .. }
            | EventKind::Collision
            | EventKind::BackoffFreeze { .. }
            | EventKind::BackoffResume { .. } => Subsystem::Mac,
            EventKind::Enqueue { .. } | EventKind::PacketDone { .. } => Subsystem::Net,
            EventKind::MonitorSample { .. }
            | EventKind::MonitorTest { .. }
            | EventKind::MonitorViolation { .. }
            | EventKind::MonitorUncertain { .. } => Subsystem::Monitor,
            EventKind::FaultDrop { .. } | EventKind::FaultCorrupt { .. } => Subsystem::Fault,
            EventKind::AccusationSent { .. }
            | EventKind::AccusationDelivered { .. }
            | EventKind::QuorumConvicted { .. } => Subsystem::Quorum,
        }
    }

    /// The minimum level at which this kind is journaled.
    pub fn level(&self) -> Level {
        match self {
            EventKind::SchedDispatch { .. } | EventKind::ChannelEdge { .. } => Level::Debug,
            _ => Level::Info,
        }
    }

    /// Short lowercase tag used in JSONL output.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::SchedDispatch { .. } => "dispatch",
            EventKind::ChannelEdge { .. } => "channel_edge",
            EventKind::TxStart { .. } => "tx_start",
            EventKind::RxDecoded { .. } => "rx_decoded",
            EventKind::Collision => "collision",
            EventKind::BackoffFreeze { .. } => "backoff_freeze",
            EventKind::BackoffResume { .. } => "backoff_resume",
            EventKind::Enqueue { .. } => "enqueue",
            EventKind::PacketDone { .. } => "packet_done",
            EventKind::MonitorSample { .. } => "sample",
            EventKind::MonitorTest { .. } => "test",
            EventKind::MonitorViolation { .. } => "violation",
            EventKind::MonitorUncertain { .. } => "uncertain",
            EventKind::FaultDrop { .. } => "drop",
            EventKind::FaultCorrupt { .. } => "corrupt",
            EventKind::AccusationSent { .. } => "accusation_sent",
            EventKind::AccusationDelivered { .. } => "accusation_delivered",
            EventKind::QuorumConvicted { .. } => "quorum_convicted",
        }
    }
}

/// One journal record: a timestamped, optionally node-scoped [`EventKind`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Virtual simulation time in nanoseconds.
    pub t_ns: u64,
    /// The node the event concerns, when it is node-scoped.
    pub node: Option<usize>,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Renders the record as one deterministic JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = Vec::with_capacity(6);
        fields.push(("t".into(), Json::from(self.t_ns)));
        if let Some(node) = self.node {
            fields.push(("node".into(), Json::from(node as u64)));
        }
        fields.push(("sub".into(), Json::from(self.kind.subsystem().tag())));
        fields.push(("kind".into(), Json::from(self.kind.tag())));
        match self.kind {
            EventKind::SchedDispatch { seq } => {
                fields.push(("seq".into(), Json::from(seq)));
            }
            EventKind::ChannelEdge { busy } => {
                fields.push(("busy".into(), Json::Bool(busy)));
            }
            EventKind::TxStart { frame, dst } => {
                fields.push(("frame".into(), Json::from(frame.tag())));
                if let Some(dst) = dst {
                    fields.push(("dst".into(), Json::from(dst as u64)));
                }
            }
            EventKind::RxDecoded { src, frame } => {
                fields.push(("src".into(), Json::from(src as u64)));
                fields.push(("frame".into(), Json::from(frame.tag())));
            }
            EventKind::Collision => {}
            EventKind::BackoffFreeze { remaining_slots } => {
                fields.push(("remaining_slots".into(), Json::from(remaining_slots as u64)));
            }
            EventKind::BackoffResume { slots } => {
                fields.push(("slots".into(), Json::from(slots as u64)));
            }
            EventKind::Enqueue { sdu } => {
                fields.push(("sdu".into(), Json::from(sdu)));
            }
            EventKind::PacketDone { sdu, delivered } => {
                fields.push(("sdu".into(), Json::from(sdu)));
                fields.push(("delivered".into(), Json::Bool(delivered)));
            }
            EventKind::MonitorSample { dictated, estimated } => {
                fields.push(("dictated".into(), Json::Num(dictated)));
                fields.push(("estimated".into(), Json::Num(estimated)));
            }
            EventKind::MonitorTest { p, reject } => {
                fields.push(("p".into(), Json::Num(p)));
                fields.push(("reject".into(), Json::Bool(reject)));
            }
            EventKind::MonitorViolation { kind } => {
                fields.push(("violation".into(), Json::from(kind)));
            }
            EventKind::MonitorUncertain { kind } => {
                fields.push(("check".into(), Json::from(kind)));
            }
            EventKind::FaultDrop { cause } => {
                fields.push(("cause".into(), Json::from(cause)));
            }
            EventKind::FaultCorrupt { bits } => {
                fields.push(("bits".into(), Json::from(bits as u64)));
            }
            EventKind::AccusationSent { suspect } | EventKind::AccusationDelivered { suspect } => {
                fields.push(("suspect".into(), Json::from(suspect as u64)));
            }
            EventKind::QuorumConvicted { suspect, votes } => {
                fields.push(("suspect".into(), Json::from(suspect as u64)));
                fields.push(("votes".into(), Json::from(votes as u64)));
            }
        }
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_map_to_expected_subsystems_and_levels() {
        let e = EventKind::SchedDispatch { seq: 7 };
        assert_eq!(e.subsystem(), Subsystem::Sched);
        assert_eq!(e.level(), Level::Debug);

        let e = EventKind::TxStart { frame: FrameLabel::Rts, dst: Some(1) };
        assert_eq!(e.subsystem(), Subsystem::Mac);
        assert_eq!(e.level(), Level::Info);

        let e = EventKind::MonitorViolation { kind: "blatant_countdown" };
        assert_eq!(e.subsystem(), Subsystem::Monitor);
        assert_eq!(e.level(), Level::Info);

        let e = EventKind::MonitorUncertain { kind: "attempt_mismatch" };
        assert_eq!(e.subsystem(), Subsystem::Monitor);
        assert_eq!(e.level(), Level::Info);

        let e = EventKind::FaultDrop { cause: "deaf" };
        assert_eq!(e.subsystem(), Subsystem::Fault);
        assert_eq!(e.level(), Level::Info);

        let e = EventKind::FaultCorrupt { bits: 3 };
        assert_eq!(e.subsystem(), Subsystem::Fault);
        assert_eq!(Subsystem::Fault.tag(), "fault");

        let e = EventKind::AccusationSent { suspect: 4 };
        assert_eq!(e.subsystem(), Subsystem::Quorum);
        assert_eq!(e.level(), Level::Info);
        assert_eq!(Subsystem::Quorum.tag(), "quorum");

        let e = EventKind::QuorumConvicted { suspect: 4, votes: 3 };
        assert_eq!(e.subsystem(), Subsystem::Quorum);
        assert_eq!(e.tag(), "quorum_convicted");
    }

    #[test]
    fn quorum_events_render_their_fields() {
        let ev = Event {
            t_ns: 42,
            node: Some(6),
            kind: EventKind::AccusationDelivered { suspect: 2 },
        };
        assert_eq!(
            ev.to_json().render(),
            "{\"t\":42,\"node\":6,\"sub\":\"quorum\",\"kind\":\"accusation_delivered\",\"suspect\":2}"
        );
        let ev = Event {
            t_ns: 43,
            node: Some(6),
            kind: EventKind::QuorumConvicted { suspect: 2, votes: 3 },
        };
        assert_eq!(
            ev.to_json().render(),
            "{\"t\":43,\"node\":6,\"sub\":\"quorum\",\"kind\":\"quorum_convicted\",\"suspect\":2,\"votes\":3}"
        );
    }

    #[test]
    fn json_rendering_is_compact_and_ordered() {
        let ev = Event {
            t_ns: 1_500,
            node: Some(3),
            kind: EventKind::TxStart { frame: FrameLabel::Data, dst: None },
        };
        assert_eq!(
            ev.to_json().render(),
            "{\"t\":1500,\"node\":3,\"sub\":\"mac\",\"kind\":\"tx_start\",\"frame\":\"data\"}"
        );

        let ev = Event {
            t_ns: 0,
            node: None,
            kind: EventKind::MonitorTest { p: 0.25, reject: false },
        };
        assert_eq!(
            ev.to_json().render(),
            "{\"t\":0,\"sub\":\"monitor\",\"kind\":\"test\",\"p\":0.25,\"reject\":false}"
        );

        let ev = Event {
            t_ns: 9,
            node: Some(4),
            kind: EventKind::FaultDrop { cause: "rts-drop" },
        };
        assert_eq!(
            ev.to_json().render(),
            "{\"t\":9,\"node\":4,\"sub\":\"fault\",\"kind\":\"drop\",\"cause\":\"rts-drop\"}"
        );
    }

    #[test]
    fn levels_order_off_info_debug() {
        assert!(Level::Off < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert_eq!(Level::default(), Level::Info);
    }
}
