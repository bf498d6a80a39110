//! The Baseline mechanism: no power gating, YX dimension-order routing
//! (paper Table I). Routers stay Active forever; gated cores simply stop
//! injecting.

use crate::network::NetworkCore;
use crate::routing::{torus_yx_route, yx_route, RouteCtx};
use crate::traits::{PowerMechanism, PowerView};
use crate::types::{Cycle, NodeId, Port};

/// Always-on network with YX routing.
#[derive(Clone, Copy, Debug, Default)]
pub struct AlwaysOnYx;

impl PowerMechanism for AlwaysOnYx {
    fn name(&self) -> &'static str {
        "Baseline"
    }

    fn step(&mut self, _core: &mut NetworkCore) {}

    fn route(&self, _net: &dyn PowerView, ctx: &RouteCtx) -> Option<Port> {
        // On a torus the regular VCs route wrap-minimally; escape packets
        // keep strict grid YX (the acyclic Duato escape layer that breaks
        // the intra-dimension wrap cycles).
        if ctx.torus && !ctx.escape {
            Some(torus_yx_route(ctx.at, ctx.dst, ctx.kx, ctx.ky))
        } else {
            Some(yx_route(ctx.at, ctx.dst))
        }
    }

    fn injection_allowed(&self, _net: &dyn PowerView, _node: NodeId) -> bool {
        true
    }

    fn next_event(&self, _core: &NetworkCore) -> Option<Cycle> {
        // Stateless: a quiescent fabric stays quiescent until new traffic.
        None
    }

    fn audit_state(&self, core: &NetworkCore, report: &mut dyn FnMut(String)) {
        // The baseline never gates: every router must stay Active.
        for (i, &p) in core.powers().iter().enumerate() {
            if p != crate::types::PowerState::Active {
                report(format!("Baseline router {i} is {p:?}; the baseline never gates"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;
    use crate::network::Simulation;
    use crate::traits::{PacketRequest, ScriptedWorkload};

    #[test]
    fn single_packet_crosses_idle_mesh() {
        let cfg = NocConfig::small_test();
        let req = PacketRequest { src: 0, dst: 15, vnet: 0, len: 4 };
        let w = ScriptedWorkload::new(vec![(0, req)]);
        let mut sim = Simulation::new(cfg, Box::new(AlwaysOnYx), Box::new(w));
        let end = sim.run_until_done(5_000);
        assert!(end < 5_000, "packet not delivered");
        assert_eq!(sim.core.activity.packets_delivered, 1);
        assert_eq!(sim.core.activity.flits_delivered, 4);
        let s = &sim.core.stats;
        assert_eq!(s.packets, 1);
        // (0,0) -> (3,3): 6 inter-router hops, 7 routers, 7 links (incl.
        // ejection), len-1 = 3 serialization; everything else contention ~ 0.
        assert_eq!(s.hop_sum, 7);
        assert_eq!(s.breakdown.router, 21);
        assert_eq!(s.breakdown.link, 7);
        assert_eq!(s.breakdown.serialization, 3);
        assert_eq!(s.breakdown.flov, 0);
        // Unloaded latency: injection + 7 * (3 + 1) + 3.
        assert!(s.avg_latency() <= 34.0, "latency {} too high", s.avg_latency());
    }

    #[test]
    fn adjacent_hop_latency_matches_model() {
        let cfg = NocConfig::small_test();
        let req = PacketRequest { src: 0, dst: 1, vnet: 0, len: 1 };
        let w = ScriptedWorkload::new(vec![(0, req)]);
        let mut sim = Simulation::new(cfg, Box::new(AlwaysOnYx), Box::new(w));
        sim.run_until_done(1_000);
        let s = &sim.core.stats;
        assert_eq!(s.packets, 1);
        // Two routers (src + dst), two link traversals (1 link + ejection):
        // 2*3 + 2*1 = 8 cycles in-network, plus the injection cycle.
        assert_eq!(s.breakdown.router, 6);
        assert_eq!(s.breakdown.link, 2);
        assert!(s.avg_latency() <= 10.0, "latency {}", s.avg_latency());
    }

    #[test]
    fn many_packets_all_delivered_uniform() {
        let cfg = NocConfig::small_test();
        let mut events = Vec::new();
        let mut rng = crate::rng::Rng::new(99);
        for t in 0..400u64 {
            let src = rng.below(16) as u16;
            let mut dst = rng.below(16) as u16;
            while dst == src {
                dst = rng.below(16) as u16;
            }
            events.push((t * 3, PacketRequest { src, dst, vnet: 0, len: 4 }));
        }
        let w = ScriptedWorkload::new(events);
        let mut sim = Simulation::new(cfg, Box::new(AlwaysOnYx), Box::new(w));
        let end = sim.run_until_done(60_000);
        assert!(end < 60_000, "not all packets delivered");
        assert_eq!(sim.core.activity.packets_delivered, 400);
        assert!(sim.core.is_empty());
        assert_eq!(sim.core.flits_in_network(), 0);
    }
}
