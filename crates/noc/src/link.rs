//! Inter-router channels: flit wires plus the reverse-direction credit wires.
//!
//! Every ordered pair of adjacent routers has one [`Channel`]. A channel from
//! A to B carries (a) flits travelling A->B with the configured link latency
//! and (b) credit messages travelling A->B that refund flits which earlier
//! flowed B->A (credits always flow against their flits). Both queues are
//! monotone in arrival cycle because each has a constant delay, so delivery
//! is O(1) per event with no heap.

use crate::flit::Flit;
use crate::types::Cycle;
use std::collections::VecDeque;

/// A credit refund for one VC, in flight on a channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CreditMsg {
    pub vnet: u8,
    pub vc: u8,
}

/// One directed inter-router channel.
#[derive(Clone, Debug, Default)]
pub struct Channel {
    flits: VecDeque<(Cycle, Flit)>,
    credits: VecDeque<(Cycle, CreditMsg)>,
}

impl Channel {
    pub fn new() -> Channel {
        Channel { flits: VecDeque::new(), credits: VecDeque::new() }
    }

    /// Schedule a flit to arrive at `arrival`.
    ///
    /// Arrivals are almost always monotone (constant wire delay); around
    /// power-state transitions the emitter changes (router pipeline vs FLOV
    /// latch) and a one-cycle inversion is possible, so out-of-order sends
    /// are inserted in arrival order to keep delivery O(1).
    #[inline]
    pub fn send_flit(&mut self, arrival: Cycle, f: Flit) {
        if self.flits.back().is_some_and(|&(a, _)| a > arrival) {
            let pos = self.flits.partition_point(|&(a, _)| a <= arrival);
            self.flits.insert(pos, (arrival, f));
        } else {
            self.flits.push_back((arrival, f));
        }
    }

    /// Schedule a credit to arrive at `arrival` (same ordering rule as flits).
    #[inline]
    pub fn send_credit(&mut self, arrival: Cycle, c: CreditMsg) {
        if self.credits.back().is_some_and(|&(a, _)| a > arrival) {
            let pos = self.credits.partition_point(|&(a, _)| a <= arrival);
            self.credits.insert(pos, (arrival, c));
        } else {
            self.credits.push_back((arrival, c));
        }
    }

    /// Count credits in flight for one VC (used to seed credit counters
    /// during FLOV power transitions).
    pub fn credits_in_flight_for(&self, vnet: u8, vc: u8) -> usize {
        self.credits.iter().filter(|&&(_, m)| m.vnet == vnet && m.vc == vc).count()
    }

    /// Count flits in flight for one VC (credit-audit input at transitions).
    pub fn flits_in_flight_for(&self, vnet: u8, vc: u8) -> usize {
        self.flits.iter().filter(|&&(_, f)| f.vnet == vnet && f.vc == vc).count()
    }

    /// Drop all in-flight credits. Used at wakeup completion: the upstream
    /// counter is about to be seeded to full, and FIFO ordering of the real
    /// wires guarantees these relayed credits would have been absorbed into
    /// the old (discarded) counter before the set-full signal.
    pub fn clear_credits(&mut self) {
        self.credits.clear();
    }

    /// Pop the next flit if it has arrived by `now`.
    #[inline]
    pub fn recv_flit(&mut self, now: Cycle) -> Option<Flit> {
        if self.flits.front().is_some_and(|&(a, _)| a <= now) {
            Some(self.flits.pop_front().unwrap().1)
        } else {
            None
        }
    }

    /// Pop the next credit if it has arrived by `now`.
    #[inline]
    pub fn recv_credit(&mut self, now: Cycle) -> Option<CreditMsg> {
        if self.credits.front().is_some_and(|&(a, _)| a <= now) {
            Some(self.credits.pop_front().unwrap().1)
        } else {
            None
        }
    }

    /// Earliest pending arrival cycle across both wires, if anything is in
    /// flight. Both queues are kept sorted by arrival, so this is O(1); the
    /// active-set kernel uses it to skip channels whose traffic is still on
    /// the wire.
    #[inline]
    pub fn earliest_arrival(&self) -> Option<Cycle> {
        let f = self.flits.front().map(|&(a, _)| a);
        let c = self.credits.front().map(|&(a, _)| a);
        match (f, c) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        }
    }

    /// Number of flits currently in flight on this channel.
    #[inline]
    pub fn flits_in_flight(&self) -> usize {
        self.flits.len()
    }

    /// Iterate the flits currently on the wire (auditor diagnostics).
    pub fn iter_in_flight(&self) -> impl Iterator<Item = &Flit> {
        self.flits.iter().map(|(_, f)| f)
    }

    /// Number of credits currently in flight on this channel.
    #[inline]
    pub fn credits_in_flight(&self) -> usize {
        self.credits.len()
    }

    /// True if nothing (flit or credit) is in flight.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.flits.is_empty() && self.credits.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::FlitKind;

    fn flit(idx: u16) -> Flit {
        Flit {
            packet: 9,
            kind: FlitKind::of(idx, 4),
            src: 0,
            dst: 3,
            vnet: 0,
            vc: 1,
            ring_exit: 0,
            escape: false,
            flit_idx: idx,
            pkt_len: 4,
            birth: 0,
            inject: 0,
            hops_router: 0,
            hops_flov: 0,
            hops_link: 0,
            payload: Flit::expected_payload(9, idx),
        }
    }

    #[test]
    fn flits_delivered_at_arrival_cycle() {
        let mut ch = Channel::new();
        ch.send_flit(5, flit(0));
        assert_eq!(ch.recv_flit(4), None);
        assert_eq!(ch.recv_flit(5).unwrap().flit_idx, 0);
        assert_eq!(ch.recv_flit(5), None);
    }

    #[test]
    fn late_poll_still_delivers() {
        let mut ch = Channel::new();
        ch.send_flit(5, flit(0));
        assert_eq!(ch.recv_flit(100).unwrap().flit_idx, 0);
    }

    #[test]
    fn fifo_order_across_cycles() {
        let mut ch = Channel::new();
        ch.send_flit(2, flit(0));
        ch.send_flit(3, flit(1));
        ch.send_flit(3, flit(2));
        assert_eq!(ch.recv_flit(3).unwrap().flit_idx, 0);
        assert_eq!(ch.recv_flit(3).unwrap().flit_idx, 1);
        assert_eq!(ch.recv_flit(3).unwrap().flit_idx, 2);
        assert!(ch.is_idle());
    }

    #[test]
    fn credits_are_independent_of_flits() {
        let mut ch = Channel::new();
        ch.send_credit(1, CreditMsg { vnet: 0, vc: 2 });
        ch.send_flit(9, flit(0));
        assert_eq!(ch.recv_credit(1), Some(CreditMsg { vnet: 0, vc: 2 }));
        assert_eq!(ch.recv_flit(1), None);
        assert_eq!(ch.flits_in_flight(), 1);
        assert_eq!(ch.credits_in_flight(), 0);
    }

    #[test]
    fn out_of_order_send_is_reordered() {
        let mut ch = Channel::new();
        ch.send_flit(5, flit(0));
        ch.send_flit(4, flit(1));
        assert_eq!(ch.recv_flit(4).unwrap().flit_idx, 1);
        assert_eq!(ch.recv_flit(5).unwrap().flit_idx, 0);
    }

    #[test]
    fn earliest_arrival_tracks_both_wires() {
        let mut ch = Channel::new();
        assert_eq!(ch.earliest_arrival(), None);
        ch.send_flit(7, flit(0));
        assert_eq!(ch.earliest_arrival(), Some(7));
        ch.send_credit(3, CreditMsg { vnet: 0, vc: 0 });
        assert_eq!(ch.earliest_arrival(), Some(3));
        ch.send_flit(2, flit(1)); // out-of-order send re-sorts
        assert_eq!(ch.earliest_arrival(), Some(2));
        assert!(ch.recv_flit(2).is_some());
        assert!(ch.recv_credit(3).is_some());
        assert_eq!(ch.earliest_arrival(), Some(7));
    }

    #[test]
    fn per_vc_credit_counting() {
        let mut ch = Channel::new();
        ch.send_credit(1, CreditMsg { vnet: 0, vc: 1 });
        ch.send_credit(2, CreditMsg { vnet: 0, vc: 1 });
        ch.send_credit(3, CreditMsg { vnet: 1, vc: 1 });
        assert_eq!(ch.credits_in_flight_for(0, 1), 2);
        assert_eq!(ch.credits_in_flight_for(1, 1), 1);
        assert_eq!(ch.credits_in_flight_for(0, 0), 0);
    }
}
