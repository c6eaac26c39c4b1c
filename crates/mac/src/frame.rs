//! MAC frames, including the paper's extended RTS.

use crate::NodeId;
use mg_sim::SimDuration;

/// A frame's destination.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Dest {
    /// Addressed to a single node.
    Unicast(NodeId),
    /// Addressed to everyone in range (no RTS/CTS/ACK).
    Broadcast,
}

impl Dest {
    /// True when the destination is this node.
    pub fn is_for(&self, node: NodeId) -> bool {
        match *self {
            Dest::Unicast(n) => n == node,
            Dest::Broadcast => true,
        }
    }
}

/// A MAC service data unit: one network-layer packet queued for
/// transmission. The simulated "payload" is identified by `id`; its MD5
/// digest (what the paper's RTS carries) is derived deterministically via
/// [`sdu_digest`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MacSdu {
    /// Unique packet id (assigned by the traffic generator / router).
    pub id: u64,
    /// Where the packet is headed.
    pub dst: Dest,
    /// Application payload length in bytes (Table 1: 512).
    pub payload_len: u16,
}

/// The MD5 digest of a (simulated) DATA frame: hash of the packet identity.
/// Both the sender (when building its RTS) and any monitor (when verifying
/// retransmissions) compute this identically.
pub fn sdu_digest(src: NodeId, sdu_id: u64) -> [u8; 16] {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&(src as u64).to_le_bytes());
    bytes[8..].copy_from_slice(&sdu_id.to_le_bytes());
    mg_crypto::digest(&bytes)
}

/// The paper's modified RTS payload (Fig. 2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RtsFields {
    /// The 13-bit on-air sequence offset (logical offset mod 2¹³),
    /// committing the sender to a position in its verifiable PRS.
    pub seq_off_wire: u16,
    /// Attempt number, 3 bits: 1 for a fresh packet, +1 per retransmission.
    pub attempt: u8,
    /// MD5 digest of the DATA frame this RTS clears the way for.
    pub md: [u8; 16],
}

impl RtsFields {
    /// These fields as a receiver would decode them after on-air bit
    /// corruption: XOR masks applied to each wire field, confined to the
    /// widths that actually exist on the wire (13 sequence bits, 3 attempt
    /// bits, one commitment byte). Keeps fault injectors ignorant of the
    /// frame layout — they hand over raw masks, this type owns the wire
    /// format.
    pub fn with_bit_flips(
        self,
        seq_xor: u16,
        attempt_xor: u8,
        md_index: usize,
        md_mask: u8,
    ) -> RtsFields {
        let mut md = self.md;
        md[md_index % md.len()] ^= md_mask;
        RtsFields {
            seq_off_wire: self.seq_off_wire ^ (seq_xor & 0x1FFF),
            attempt: self.attempt ^ (attempt_xor & 0x7),
            md,
        }
    }
}

/// Frame type and type-specific payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameKind {
    /// Request-to-send with the paper's verification fields.
    Rts(RtsFields),
    /// Clear-to-send.
    Cts,
    /// A data frame carrying one SDU.
    Data {
        /// The packet being carried.
        sdu: MacSdu,
    },
    /// Acknowledgment.
    Ack,
}

/// A frame on the air.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Frame {
    /// Transmitting node.
    pub src: NodeId,
    /// Destination.
    pub dst: Dest,
    /// The NAV value: how long the medium is reserved *after* this frame
    /// ends. Third-party receivers defer for this long.
    pub duration: SimDuration,
    /// Type-specific contents.
    pub kind: FrameKind,
}

impl Frame {
    /// The RTS fields, if this is an RTS.
    pub fn rts_fields(&self) -> Option<&RtsFields> {
        match &self.kind {
            FrameKind::Rts(f) => Some(f),
            _ => None,
        }
    }

    /// The carried SDU, if this is a DATA frame.
    pub fn sdu(&self) -> Option<&MacSdu> {
        match &self.kind {
            FrameKind::Data { sdu } => Some(sdu),
            _ => None,
        }
    }

    /// True for RTS frames.
    pub fn is_rts(&self) -> bool {
        matches!(self.kind, FrameKind::Rts(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dest_matching() {
        assert!(Dest::Unicast(3).is_for(3));
        assert!(!Dest::Unicast(3).is_for(4));
        assert!(Dest::Broadcast.is_for(17));
    }

    #[test]
    fn bit_flips_stay_inside_wire_widths_and_invert() {
        let f = RtsFields { seq_off_wire: 0x1ABC, attempt: 5, md: sdu_digest(1, 42) };
        // Masks wider than the wire fields are clipped to 13 / 3 bits.
        let g = f.with_bit_flips(0xFFFF, 0xFF, 3, 0x80);
        assert_eq!(g.seq_off_wire, f.seq_off_wire ^ 0x1FFF);
        assert_eq!(g.attempt, f.attempt ^ 0x7);
        assert_eq!(g.md[3], f.md[3] ^ 0x80);
        // XOR corruption is an involution.
        assert_eq!(g.with_bit_flips(0xFFFF, 0xFF, 3, 0x80), f);
        // Out-of-range commitment index wraps instead of panicking.
        let h = f.with_bit_flips(0, 0, 16, 0x01);
        assert_eq!(h.md[0], f.md[0] ^ 0x01);
    }

    #[test]
    fn digest_is_deterministic_and_distinguishes() {
        assert_eq!(sdu_digest(1, 42), sdu_digest(1, 42));
        assert_ne!(sdu_digest(1, 42), sdu_digest(1, 43));
        assert_ne!(sdu_digest(1, 42), sdu_digest(2, 42));
    }

    #[test]
    fn frame_accessors() {
        let rts = Frame {
            src: 0,
            dst: Dest::Unicast(1),
            duration: SimDuration::from_micros(100),
            kind: FrameKind::Rts(RtsFields {
                seq_off_wire: 7,
                attempt: 1,
                md: [0; 16],
            }),
        };
        assert!(rts.is_rts());
        assert_eq!(rts.rts_fields().unwrap().seq_off_wire, 7);
        assert!(rts.sdu().is_none());

        let data = Frame {
            src: 0,
            dst: Dest::Unicast(1),
            duration: SimDuration::ZERO,
            kind: FrameKind::Data {
                sdu: MacSdu {
                    id: 9,
                    dst: Dest::Unicast(1),
                    payload_len: 512,
                },
            },
        };
        assert_eq!(data.sdu().unwrap().id, 9);
        assert!(data.rts_fields().is_none());
    }
}
