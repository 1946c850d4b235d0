//! Packet representation.
//!
//! Packets are metadata-only: the simulator never materializes payload
//! bytes. A packet is 80 bytes; switch buffers and the transport APIs move
//! it by value, while the simulator parks packets that are between two
//! nodes in a slab and schedules events that carry only a slot handle.

use crate::ids::{FlowId, HostId, PacketId};
use dibs_engine::time::SimTime;

/// TCP/IP header overhead charged to every segment, in bytes.
pub const HEADER_BYTES: u32 = 40;
/// Minimum Ethernet frame size, in bytes.
pub const MIN_FRAME_BYTES: u32 = 64;
/// Default initial TTL (matches common OS defaults and the paper's "Max").
pub const DEFAULT_TTL: u8 = 255;

/// Whether a packet carries data or acknowledges it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// A data segment; `seq` is the offset of its first payload byte.
    Data,
    /// A (cumulative) acknowledgment; `seq` is the next expected byte.
    Ack,
}

/// A simulated packet.
///
/// # Examples
///
/// ```
/// use dibs_net::packet::Packet;
/// use dibs_net::ids::{FlowId, HostId, PacketId};
/// use dibs_engine::time::SimTime;
///
/// let p = Packet::data(
///     PacketId(0), FlowId(1), HostId(0), HostId(5),
///     0, 1460, 64, SimTime::ZERO,
/// );
/// assert_eq!(p.wire_bytes, 1500);
/// assert!(p.is_data());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Unique per-transmission id (retransmissions get fresh ids).
    pub id: PacketId,
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// Sending host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Data or acknowledgment.
    pub kind: PacketKind,
    /// Byte offset (data) or cumulative ack (ack).
    pub seq: u64,
    /// Payload bytes carried (0 for pure acks).
    pub payload_bytes: u32,
    /// Bytes occupied on the wire (payload + headers, floor at min frame).
    pub wire_bytes: u32,
    /// ECN Congestion Experienced: set by switches whose queue exceeds the
    /// marking threshold.
    pub ce: bool,
    /// ECN Echo: on acks, relays the CE bit of the acknowledged data.
    pub ece: bool,
    /// Remaining hop budget; switches decrement it and drop at zero.
    pub ttl: u8,
    /// pFabric priority: the flow's remaining size when the packet was sent.
    /// Lower values are higher priority. `u64::MAX` means "unprioritized".
    pub priority: u64,
    /// Number of times any switch detoured this packet (DIBS diagnostics).
    pub detours: u16,
    /// Ingress port at the switch currently buffering the packet
    /// (maintained by the simulator for PFC ingress accounting).
    pub last_ingress: u16,
    /// Total switch hops traversed (diagnostics).
    pub hops: u16,
    /// When the sender emitted this packet.
    pub sent_at: SimTime,
    /// On acks: the echoed `sent_at` of the data packet that triggered the
    /// ack (TCP timestamps, RFC 7323). Lets the sender take RTT samples
    /// that stay valid across retransmissions.
    pub ts_echo: Option<SimTime>,
    /// Whether this is a retransmission (diagnostics).
    pub retransmit: bool,
}

impl Packet {
    /// Builds a data segment.
    #[allow(clippy::too_many_arguments)]
    pub fn data(
        id: PacketId,
        flow: FlowId,
        src: HostId,
        dst: HostId,
        seq: u64,
        payload_bytes: u32,
        ttl: u8,
        sent_at: SimTime,
    ) -> Self {
        Packet {
            id,
            flow,
            src,
            dst,
            kind: PacketKind::Data,
            seq,
            payload_bytes,
            wire_bytes: (payload_bytes + HEADER_BYTES).max(MIN_FRAME_BYTES),
            ce: false,
            ece: false,
            ttl,
            priority: u64::MAX,
            detours: 0,
            last_ingress: 0,
            hops: 0,
            sent_at,
            ts_echo: None,
            retransmit: false,
        }
    }

    /// Builds a pure acknowledgment.
    #[allow(clippy::too_many_arguments)]
    pub fn ack(
        id: PacketId,
        flow: FlowId,
        src: HostId,
        dst: HostId,
        ack_seq: u64,
        ece: bool,
        ttl: u8,
        sent_at: SimTime,
    ) -> Self {
        Packet {
            id,
            flow,
            src,
            dst,
            kind: PacketKind::Ack,
            seq: ack_seq,
            payload_bytes: 0,
            wire_bytes: MIN_FRAME_BYTES,
            ce: false,
            ece,
            ttl,
            priority: u64::MAX,
            detours: 0,
            last_ingress: 0,
            hops: 0,
            sent_at,
            ts_echo: None,
            retransmit: false,
        }
    }

    /// Whether this is a data segment.
    pub fn is_data(&self) -> bool {
        self.kind == PacketKind::Data
    }

    /// Whether this is an acknowledgment.
    pub fn is_ack(&self) -> bool {
        self.kind == PacketKind::Ack
    }

    /// The byte just past this data segment's payload.
    pub fn seq_end(&self) -> u64 {
        self.seq + u64::from(self.payload_bytes)
    }

    /// Marks the packet with Congestion Experienced.
    pub fn mark_ce(&mut self) {
        self.ce = true;
    }

    /// Decrements TTL; returns `false` when the packet must be dropped.
    pub fn decrement_ttl(&mut self) -> bool {
        if self.ttl == 0 {
            return false;
        }
        self.ttl -= 1;
        self.ttl > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> Packet {
        Packet::data(
            PacketId(1),
            FlowId(2),
            HostId(3),
            HostId(4),
            1460,
            1460,
            DEFAULT_TTL,
            SimTime::ZERO,
        )
    }

    #[test]
    fn wire_size_includes_headers() {
        let p = sample_data();
        assert_eq!(p.wire_bytes, 1500);
        assert_eq!(p.seq_end(), 2920);
    }

    #[test]
    fn tiny_payload_floors_at_min_frame() {
        let p = Packet::data(
            PacketId(0),
            FlowId(0),
            HostId(0),
            HostId(1),
            0,
            1,
            64,
            SimTime::ZERO,
        );
        assert_eq!(p.wire_bytes, MIN_FRAME_BYTES);
    }

    #[test]
    fn ack_is_minimum_frame() {
        let a = Packet::ack(
            PacketId(0),
            FlowId(0),
            HostId(1),
            HostId(0),
            2920,
            true,
            64,
            SimTime::ZERO,
        );
        assert_eq!(a.wire_bytes, MIN_FRAME_BYTES);
        assert!(a.is_ack());
        assert!(a.ece);
        assert_eq!(a.payload_bytes, 0);
    }

    #[test]
    fn ttl_decrements_to_drop() {
        let mut p = sample_data();
        p.ttl = 2;
        assert!(p.decrement_ttl());
        assert!(!p.decrement_ttl());
        assert_eq!(p.ttl, 0);
        // Repeated calls stay "drop".
        assert!(!p.decrement_ttl());
    }

    #[test]
    fn ce_marking() {
        let mut p = sample_data();
        assert!(!p.ce);
        p.mark_ce();
        assert!(p.ce);
    }
}
