//! Input VC buffers and credit counters.

use crate::flit::Flit;
use std::collections::VecDeque;

/// A fixed-capacity FIFO of flits backing one virtual channel.
///
/// Capacity is enforced: pushing into a full buffer is a simulator bug (the
/// credit protocol must prevent it) and panics in debug and release alike,
/// because silent overflow would invalidate every result downstream.
#[derive(Clone, Debug)]
pub struct VcBuffer {
    slots: VecDeque<Flit>,
    cap: usize,
}

impl VcBuffer {
    pub fn new(cap: usize) -> VcBuffer {
        assert!(cap >= 1);
        VcBuffer { slots: VecDeque::with_capacity(cap), cap }
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    #[inline]
    pub fn is_full(&self) -> bool {
        self.slots.len() == self.cap
    }

    #[inline]
    pub fn free(&self) -> usize {
        self.cap - self.slots.len()
    }

    /// Append a flit. Panics on overflow: credits must have prevented this.
    #[inline]
    pub fn push(&mut self, f: Flit) {
        assert!(
            self.slots.len() < self.cap,
            "VC buffer overflow: credit protocol violated (packet {}, flit {})",
            f.packet,
            f.flit_idx
        );
        self.slots.push_back(f);
    }

    /// Front flit, if any.
    #[inline]
    pub fn front(&self) -> Option<&Flit> {
        self.slots.front()
    }

    /// Mutable front flit, if any.
    #[inline]
    pub fn front_mut(&mut self) -> Option<&mut Flit> {
        self.slots.front_mut()
    }

    /// Remove and return the front flit.
    #[inline]
    pub fn pop(&mut self) -> Option<Flit> {
        self.slots.pop_front()
    }

    /// Iterate over buffered flits front-to-back.
    pub fn iter(&self) -> impl Iterator<Item = &Flit> {
        self.slots.iter()
    }
}

/// Credit counter an upstream router keeps for one downstream VC.
///
/// Tracks the free buffer slots of the *logical* downstream neighbor's input
/// VC; the FLOV credit-copy protocol re-seeds it on power transitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CreditCounter {
    avail: u16,
    cap: u16,
}

impl CreditCounter {
    pub fn new_full(cap: usize) -> CreditCounter {
        CreditCounter { avail: cap as u16, cap: cap as u16 }
    }

    #[inline]
    pub fn available(&self) -> usize {
        self.avail as usize
    }

    #[inline]
    pub fn has_credit(&self) -> bool {
        self.avail > 0
    }

    /// Consume one credit when a flit is sent downstream.
    #[inline]
    pub fn consume(&mut self) {
        assert!(self.avail > 0, "credit underflow: flow control violated");
        self.avail -= 1;
    }

    /// Return one credit when the downstream frees a slot.
    #[inline]
    pub fn refund(&mut self) {
        assert!(self.avail < self.cap, "credit overflow: more refunds than slots");
        self.avail += 1;
    }

    /// Zero the counter (paper Fig. 3(d): on downstream sleep, credits are
    /// zeroed before the relayed copy arrives).
    #[inline]
    pub fn zero(&mut self) {
        self.avail = 0;
    }

    /// Seed the counter with an absolute value (credit-copy on sleep, or
    /// set-to-full on wakeup).
    #[inline]
    pub fn set(&mut self, avail: usize) {
        assert!(avail <= self.cap as usize, "credit seed above buffer capacity");
        self.avail = avail as u16;
    }

    #[inline]
    pub fn set_full(&mut self) {
        self.avail = self.cap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::FlitKind;
    use crate::types::Cycle;

    fn flit(i: u16) -> Flit {
        Flit {
            packet: 1,
            kind: FlitKind::of(i, 8),
            src: 0,
            dst: 1,
            vnet: 0,
            vc: 0,
            ring_exit: 0,
            escape: false,
            flit_idx: i,
            pkt_len: 8,
            birth: 0 as Cycle,
            inject: 0,
            hops_router: 0,
            hops_flov: 0,
            hops_link: 0,
            payload: Flit::expected_payload(1, i),
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let mut b = VcBuffer::new(6);
        for i in 0..6 {
            b.push(flit(i));
        }
        assert!(b.is_full());
        for i in 0..6 {
            assert_eq!(b.pop().unwrap().flit_idx, i);
        }
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut b = VcBuffer::new(2);
        b.push(flit(0));
        b.push(flit(1));
        b.push(flit(2));
    }

    #[test]
    fn free_tracks_occupancy() {
        let mut b = VcBuffer::new(4);
        assert_eq!(b.free(), 4);
        b.push(flit(0));
        assert_eq!(b.free(), 3);
        b.pop();
        assert_eq!(b.free(), 4);
    }

    #[test]
    fn credit_lifecycle() {
        let mut c = CreditCounter::new_full(6);
        assert_eq!(c.available(), 6);
        c.consume();
        c.consume();
        assert_eq!(c.available(), 4);
        c.refund();
        assert_eq!(c.available(), 5);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn credit_underflow_panics() {
        let mut c = CreditCounter::new_full(1);
        c.consume();
        c.consume();
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn credit_overflow_panics() {
        let mut c = CreditCounter::new_full(1);
        c.refund();
    }

    #[test]
    fn credit_copy_protocol_ops() {
        let mut c = CreditCounter::new_full(6);
        c.zero();
        assert!(!c.has_credit());
        c.set(4);
        assert_eq!(c.available(), 4);
        c.set_full();
        assert_eq!(c.available(), 6);
    }
}
