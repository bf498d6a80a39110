//! The FLOV router model: baseline 3-stage VC router state plus the FLOV
//! additions (output latches, FLOV capability). Power states live in the
//! network's power plane (`NetworkCore::powers`), not here.
//!
//! Pipeline *logic* lives in [`crate::network::pipeline`]; this module owns
//! the per-router state and its invariants.

pub mod arbiter;

use crate::buffer::{CreditCounter, VcBuffer};
use crate::config::NocConfig;
use crate::flit::Flit;
use crate::types::{Coord, Cycle, Dir, NodeId, NUM_PORTS};
use arbiter::RoundRobin;

/// Ownership of one downstream input VC, tracked at the upstream router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VcOwner {
    /// No wormhole currently allocated to this VC.
    Free,
    /// A wormhole from local input `(port, flat vc)` holds the VC until its
    /// tail flit departs.
    Owned { in_port: u8, in_vc: u16 },
}

/// One input virtual channel: buffer plus wormhole/pipeline state.
#[derive(Clone, Debug)]
pub struct InVc {
    pub buf: VcBuffer,
    /// Output port + downstream VC granted by VC allocation; present while a
    /// wormhole is in flight through this input VC.
    pub alloc: Option<(u8, u8)>,
    /// Cycle the current front *head* flit became front (route compute
    /// starts then; VA is legal from `head_since + 1`). Also drives the
    /// escape-timeout diversion.
    pub head_since: Cycle,
}

impl InVc {
    fn new(depth: usize) -> InVc {
        InVc { buf: VcBuffer::new(depth), alloc: None, head_since: 0 }
    }

    /// True if this VC is completely quiescent.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.buf.is_empty() && self.alloc.is_none()
    }
}

/// Per-router state.
#[derive(Clone, Debug)]
pub struct Router {
    pub id: NodeId,
    /// Input VCs, flattened `[port][vnet * vcs + vc]`.
    pub inputs: Vec<InVc>,
    /// Credit counters toward the *logical* downstream per output port,
    /// flattened like `inputs`. Local (ejection) port entries are unused.
    pub out_credits: Vec<CreditCounter>,
    /// Downstream VC ownership per output port, flattened like `inputs`.
    pub out_vc_state: Vec<VcOwner>,
    /// FLOV output latches, one per direction, live while power-gated.
    /// Entry is `(cycle latched, flit)`.
    pub latches: [Option<(Cycle, Flit)>; 4],
    /// True if this router has FLOV links in the X dimension (neighbors on
    /// both the East and West sides).
    pub flov_x: bool,
    /// True if this router has FLOV links in the Y dimension.
    pub flov_y: bool,
    /// SA stage-1 arbiter: per input port, over that port's VCs.
    pub sa_in: [RoundRobin; NUM_PORTS],
    /// SA stage-2 arbiter: per output port, over input ports.
    pub sa_out: [RoundRobin; NUM_PORTS],
    /// Occupancy fast path: flits buffered per input port.
    pub port_occupancy: [u32; NUM_PORTS],
    /// Occupancy fast path: bit `v` of `vc_busy[p]` mirrors "the buffer of
    /// input VC `(p, v)` is non-empty". Maintained by [`Router::push_flit`]
    /// and [`Router::pop_flit`]; lets the allocators visit only occupied
    /// slots via `trailing_zeros` instead of scanning every VC.
    pub vc_busy: [u64; NUM_PORTS],
    /// Last cycle with local-port activity (inject/eject/queued traffic);
    /// drives the idle-detection that precedes draining.
    pub last_local_activity: Cycle,
    total_vcs: usize,
}

impl Router {
    pub fn new(cfg: &NocConfig, id: NodeId) -> Router {
        let spec = cfg.topology_spec();
        let coord = Coord { x: id % spec.kx(), y: id / spec.kx() };
        // FLOV latch capability: a gated router can fly flits over in a
        // dimension iff it has physical links on both sides of it — the
        // grid interior, or anywhere on a torus.
        let (flov_x, flov_y) = spec.flov_capability(coord);
        let total_vcs = cfg.total_vcs();
        assert!(total_vcs <= 64, "per-port VC bitmasks hold at most 64 VCs");
        let n = NUM_PORTS * total_vcs;
        Router {
            id,
            inputs: (0..n).map(|_| InVc::new(cfg.buf_depth)).collect(),
            out_credits: (0..n).map(|_| CreditCounter::new_full(cfg.buf_depth)).collect(),
            out_vc_state: vec![VcOwner::Free; n],
            latches: [None; 4],
            flov_x,
            flov_y,
            sa_in: std::array::from_fn(|_| RoundRobin::new(total_vcs)),
            sa_out: std::array::from_fn(|_| RoundRobin::new(NUM_PORTS)),
            port_occupancy: [0; NUM_PORTS],
            vc_busy: [0; NUM_PORTS],
            last_local_activity: 0,
            total_vcs,
        }
    }

    /// Flattened index for `(port, flat vc)`.
    #[inline]
    pub fn slot(&self, port: usize, vc: usize) -> usize {
        port * self.total_vcs + vc
    }

    /// Total VCs per port.
    #[inline]
    pub fn total_vcs(&self) -> usize {
        self.total_vcs
    }

    /// True if this router can fly flits over in direction `d` while gated.
    #[inline]
    pub fn has_flov(&self, d: Dir) -> bool {
        if d.is_x() {
            self.flov_x
        } else {
            self.flov_y
        }
    }

    /// All input buffers empty and no outbound wormhole in progress:
    /// the condition for finishing the drain.
    pub fn is_drained(&self) -> bool {
        self.inputs.iter().all(|vc| vc.is_idle())
            && self.out_vc_state.iter().all(|s| *s == VcOwner::Free)
    }

    /// All FLOV latches empty (wakeup completion condition).
    #[inline]
    pub fn latches_empty(&self) -> bool {
        self.latches.iter().all(|l| l.is_none())
    }

    /// Number of buffered flits across all input ports.
    pub fn buffered_flits(&self) -> u32 {
        self.port_occupancy.iter().sum()
    }

    /// Buffer a flit into input VC slot `s` of `port`, maintaining the
    /// occupancy fast paths (`port_occupancy`, `vc_busy`) and starting the
    /// RC clock when a head flit reaches the buffer front.
    #[inline]
    pub fn push_flit(&mut self, port: usize, s: usize, f: Flit, now: Cycle) {
        let was_empty = self.inputs[s].buf.is_empty();
        self.inputs[s].buf.push(f);
        if was_empty {
            self.vc_busy[port] |= 1 << (s - port * self.total_vcs);
            if f.kind.is_head() {
                self.inputs[s].head_since = now;
            }
        }
        self.port_occupancy[port] += 1;
    }

    /// Pop the front flit of input VC slot `s` of `port`, maintaining the
    /// occupancy fast paths. Panics if the buffer is empty.
    #[inline]
    pub fn pop_flit(&mut self, port: usize, s: usize) -> Flit {
        let f = self.inputs[s].buf.pop().expect("pop from an empty input VC");
        self.port_occupancy[port] -= 1;
        if self.inputs[s].buf.is_empty() {
            self.vc_busy[port] &= !(1 << (s - port * self.total_vcs));
        }
        f
    }

    /// Record local-port activity at `now` (idle detector input).
    #[inline]
    pub fn touch_local(&mut self, now: Cycle) {
        self.last_local_activity = now;
    }

    /// Cycles since the local port was last active.
    #[inline]
    pub fn local_idle(&self, now: Cycle) -> Cycle {
        now.saturating_sub(self.last_local_activity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NocConfig {
        NocConfig::default()
    }

    #[test]
    fn new_router_is_quiescent() {
        let r = Router::new(&cfg(), 9);
        assert!(r.is_drained());
        assert!(r.latches_empty());
        assert_eq!(r.buffered_flits(), 0);
    }

    #[test]
    fn slot_layout_is_dense_and_unique() {
        let c = cfg();
        let r = Router::new(&c, 0);
        let mut seen = std::collections::HashSet::new();
        for p in 0..NUM_PORTS {
            for v in 0..c.total_vcs() {
                assert!(seen.insert(r.slot(p, v)));
            }
        }
        assert_eq!(seen.len(), r.inputs.len());
        assert_eq!(*seen.iter().max().unwrap() + 1, r.inputs.len());
    }

    #[test]
    fn flov_capability_by_position() {
        let c = cfg(); // 8x8
                       // Corner: no FLOV links at all.
        let corner = Router::new(&c, 0);
        assert!(!corner.flov_x && !corner.flov_y);
        // South edge (3,0): X only.
        let edge = Router::new(&c, 3);
        assert!(edge.flov_x && !edge.flov_y);
        // West edge (0,3): Y only.
        let wedge = Router::new(&c, 3 * 8);
        assert!(!wedge.flov_x && wedge.flov_y);
        // Interior: both.
        let mid = Router::new(&c, 3 * 8 + 3);
        assert!(mid.flov_x && mid.flov_y);
        assert!(mid.has_flov(Dir::East) && mid.has_flov(Dir::North));
    }

    #[test]
    fn idle_detector_counts_from_touch() {
        let mut r = Router::new(&cfg(), 5);
        r.touch_local(100);
        assert_eq!(r.local_idle(130), 30);
        assert_eq!(r.local_idle(100), 0);
        assert_eq!(r.local_idle(50), 0); // saturating
    }

    #[test]
    fn push_pop_maintain_occupancy_fast_paths() {
        let c = cfg();
        let mut r = Router::new(&c, 5);
        let p = crate::packet::Packet { id: 1, src: 0, dst: 5, vnet: 0, len: 2, birth: 0 };
        let port = 2;
        let s = r.slot(port, 3);
        r.push_flit(port, s, p.flit(0, 10), 10);
        assert_eq!(r.inputs[s].head_since, 10);
        r.push_flit(port, s, p.flit(1, 11), 11);
        assert_eq!(r.inputs[s].head_since, 10, "non-front flit must not reset the RC clock");
        assert_eq!(r.port_occupancy[port], 2);
        assert_eq!(r.vc_busy[port], 1 << 3);
        assert!(r.pop_flit(port, s).kind.is_head());
        assert_eq!(r.vc_busy[port], 1 << 3, "mask stays set while flits remain");
        r.pop_flit(port, s);
        assert_eq!(r.port_occupancy[port], 0);
        assert_eq!(r.vc_busy[port], 0);
    }

    #[test]
    fn drained_detects_owned_vc() {
        let c = cfg();
        let mut r = Router::new(&c, 5);
        assert!(r.is_drained());
        r.out_vc_state[3] = VcOwner::Owned { in_port: 0, in_vc: 1 };
        assert!(!r.is_drained());
    }
}
