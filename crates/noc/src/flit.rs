//! Flits: the unit of flow control.
//!
//! A flit is a small `Copy` struct; the hot loop moves flits by value and
//! never allocates. Latency accounting (paper Fig. 8a/b breakdown) rides
//! along in per-flit hop counters and is finalized at ejection.

use crate::types::{Cycle, NodeId, PacketId};
use serde::{Deserialize, Serialize};

/// Position of a flit within its packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum FlitKind {
    /// First flit of a multi-flit packet.
    Head,
    /// Interior flit.
    Body,
    /// Last flit of a multi-flit packet.
    Tail,
    /// Single-flit packet (head and tail at once).
    Single,
}

impl FlitKind {
    #[inline]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::Single)
    }

    #[inline]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::Single)
    }

    /// Kind of flit `idx` in a packet of `len` flits.
    #[inline]
    pub fn of(idx: u16, len: u16) -> FlitKind {
        debug_assert!(idx < len && len >= 1);
        if len == 1 {
            FlitKind::Single
        } else if idx == 0 {
            FlitKind::Head
        } else if idx == len - 1 {
            FlitKind::Tail
        } else {
            FlitKind::Body
        }
    }
}

/// One flit in flight.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Flit {
    /// Packet this flit belongs to.
    pub packet: PacketId,
    /// Head/Body/Tail/Single.
    pub kind: FlitKind,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Virtual network (message class).
    pub vnet: u8,
    /// VC (within the vnet) allocated for this flit at the downstream input
    /// buffer it is currently heading to. Set at injection and re-set at
    /// each VC allocation.
    pub vc: u8,
    /// NoRD ring exit node, stamped at ring ingress: where the flit leaves
    /// the bypass ring (its destination NIC, or the powered node where it
    /// re-enters the mesh). Unused off the ring.
    pub ring_exit: NodeId,
    /// True once the packet has been diverted into the escape sub-network;
    /// it then stays in escape VCs until ejection.
    pub escape: bool,
    /// Index of this flit within the packet.
    pub flit_idx: u16,
    /// Packet length in flits (serialization latency = len - 1).
    pub pkt_len: u16,
    /// Cycle the packet was created at the source NIC (includes source
    /// queueing in total latency).
    pub birth: Cycle,
    /// Cycle this flit entered the network (left the NIC source queue).
    pub inject: Cycle,
    /// Powered-on routers traversed (each costs the full pipeline).
    pub hops_router: u16,
    /// FLOV latches traversed (each costs one cycle).
    pub hops_flov: u16,
    /// Link traversals (including the final ejection link).
    pub hops_link: u16,
    /// Integrity check word; must survive the trip unchanged
    /// (property tests verify conservation and integrity).
    pub payload: u64,
}

impl Flit {
    /// Canonical payload for flit `idx` of packet `packet`; lets the receiver
    /// verify end-to-end integrity without a side table.
    #[inline]
    pub fn expected_payload(packet: PacketId, idx: u16) -> u64 {
        // SplitMix64-style mix of the identifying pair.
        let mut z = packet ^ ((idx as u64) << 48) ^ 0xA076_1D64_78BD_642F;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// True if the payload matches the canonical value.
    #[inline]
    pub fn integrity_ok(&self) -> bool {
        self.payload == Self::expected_payload(self.packet, self.flit_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_of_single() {
        assert_eq!(FlitKind::of(0, 1), FlitKind::Single);
        assert!(FlitKind::Single.is_head());
        assert!(FlitKind::Single.is_tail());
    }

    #[test]
    fn kind_of_multiflit() {
        assert_eq!(FlitKind::of(0, 4), FlitKind::Head);
        assert_eq!(FlitKind::of(1, 4), FlitKind::Body);
        assert_eq!(FlitKind::of(2, 4), FlitKind::Body);
        assert_eq!(FlitKind::of(3, 4), FlitKind::Tail);
    }

    #[test]
    fn head_tail_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(!FlitKind::Head.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Tail.is_head());
        assert!(!FlitKind::Body.is_head());
        assert!(!FlitKind::Body.is_tail());
    }

    #[test]
    fn payload_distinguishes_flits() {
        let a = Flit::expected_payload(1, 0);
        let b = Flit::expected_payload(1, 1);
        let c = Flit::expected_payload(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn flit_is_small() {
        // Flits are copied by value every cycle; keep them compact. The
        // ring exit stamp fills padding: still 56 bytes.
        assert_eq!(std::mem::size_of::<Flit>(), 56);
    }
}
