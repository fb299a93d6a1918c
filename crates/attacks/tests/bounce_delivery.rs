//! End-to-end check that the operator bounce attack is lossless: with
//! several sources bursting at one victim and half their traffic
//! matching the bounce predicate, packets still reach the victim and
//! the engine records zero drops — latency inflation without a loss
//! signature (§4.1).

use dui_attacks::BounceProgram;
use dui_netsim::prelude::*;
use std::any::Any;

/// Deterministic test-local PRNG.
struct TestRng(u64);

impl TestRng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Timer-driven UDP source aimed at one victim; half its packets match
/// the bounce predicate (dport 9000), half sail through (dport 9001).
struct BurstHost {
    addr: Addr,
    victim: Addr,
    rng: TestRng,
    bursts_left: u32,
}

impl NodeLogic for BurstHost {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(SimDuration::from_millis(1 + self.rng.pick(4)), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
        if self.bursts_left == 0 {
            return;
        }
        self.bursts_left -= 1;
        for _ in 0..1 + self.rng.pick(3) {
            let dport = 9000 + self.rng.pick(2) as u16;
            let sport = 4000 + self.rng.pick(16) as u16;
            let size = 100 + self.rng.pick(1000) as u32;
            ctx.send(Packet::udp(
                FlowKey::udp(self.addr, sport, self.victim, dport),
                size,
            ));
        }
        ctx.set_timer(SimDuration::from_millis(1 + self.rng.pick(6)), 0);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn bounced_traffic_still_arrives_without_loss() {
    // Three sources behind r1, the victim behind r2, the bounce pair
    // (r1, r2) at the ends of a millisecond WAN link.
    let seed = 21u64;
    let bounces = 3;
    let mut b = TopologyBuilder::new();
    let r1 = b.router("r1");
    let r2 = b.router("r2");
    let victim_addr = Addr::new(10, 1, 0, 1);
    let mut sources = Vec::new();
    for h in 0..3u8 {
        let addr = Addr::new(10, 0, h, 1);
        let node = b.host(&format!("src{h}"), addr);
        b.link(
            node,
            r1,
            Bandwidth::gbps(1),
            SimDuration::from_nanos(400),
            64,
        );
        sources.push((node, addr));
    }
    let victim = b.host("victim", victim_addr);
    b.link(
        victim,
        r2,
        Bandwidth::gbps(1),
        SimDuration::from_nanos(400),
        64,
    );
    b.link(r1, r2, Bandwidth::mbps(50), SimDuration::from_millis(3), 32);
    let mut sim = Simulator::new(b.build(), seed);
    for (router, partner) in [(r1, r2), (r2, r1)] {
        let matcher = |p: &Packet| p.key.dport == 9000;
        sim.set_logic(
            router,
            Box::new(RouterLogic::new().with_program(Box::new(BounceProgram::new(
                Box::new(matcher),
                partner,
                bounces,
            )))),
        );
    }
    for (i, &(node, addr)) in sources.iter().enumerate() {
        sim.set_logic(
            node,
            Box::new(BurstHost {
                addr,
                victim: victim_addr,
                rng: TestRng((seed ^ ((i as u64) << 8)) | 1),
                bursts_left: 30,
            }),
        );
    }
    sim.set_logic(victim, Box::new(SinkHost::new()));

    sim.run_until(SimTime(300_000_000));
    let bounced = {
        let logic: &mut RouterLogic = sim.logic_mut(r1);
        logic.program_mut::<BounceProgram>(0).bounced_packets
    };
    assert!(bounced > 0, "attack never engaged");
    let sink: &mut SinkHost = sim.logic_mut(victim);
    assert!(sink.total_packets > 0, "victim starved");
    assert_eq!(sim.counters().total_drops(), 0, "bounce must not drop");
}
