//! The deterministic scenario runner.
//!
//! [`Compiled::run`] drives the lowered plan to its horizon in a single
//! boundary loop: the time axis is the sampling grid unioned with every
//! chaos window edge, and at each boundary the runner first advances the
//! simulator, then applies window transitions (heals before fails), then
//! records an observation if the boundary sits on the grid. Everything
//! observed is simulated state — no wall clock, no ambient randomness —
//! so a `(file, seed)` pair always yields the same [`RunReport`],
//! regardless of host or `--jobs`.

use crate::ast::{ChaosKind, WorkloadSpec};
use crate::compile::{build_topology, Compiled, Plan, ResolvedChaos, TcpPlan};
use crate::expect::{evaluate, BlinkObs, CheckResult, Observed, PccObs, PytheasObs, Sample};
use dui_core::attacks::{BounceProgram, SynFloodConfig, SynFloodHost};
use dui_core::blink::program::BlinkConfig;
use dui_core::flowgen::flows::{DurationDist, FlowPopulation, FlowPopulationConfig};
use dui_core::flowgen::stream::{FlowStream, StreamSource};
use dui_core::netsim::link::{Dir, FaultConfig};
use dui_core::netsim::node::RouterLogic;
use dui_core::netsim::packet::{Addr, Packet, Prefix};
use dui_core::netsim::sim::Simulator;
use dui_core::netsim::time::{Bandwidth, SimDuration, SimTime};
use dui_core::netsim::topology::NodeKind;
use dui_core::pcc::control::ControlConfig;
use dui_core::pytheas::engine::{EngineConfig, PoisonStrategy};
use dui_core::scenario::{
    pytheas_run, BlinkScenario, BlinkScenarioConfig, PccScenario, PccScenarioConfig,
};
use dui_core::stats::digest::StateDigest;
use dui_core::stats::Rng;
use dui_core::tcp::{FlowSource, FlowSpec, TcpHost, TcpHostConfig};

/// The prefix a generic-TCP workload's flows target (announced at the
/// scenario's `dst` host; flow keys draw random addresses inside it).
const TCP_PREFIX: (u8, u8) = (10, 200);

/// The verdict of one scenario run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario name.
    pub name: String,
    /// Workload kind token.
    pub kind: &'static str,
    /// Master seed.
    pub seed: u64,
    /// One result per `[expect]` line, in file order.
    pub checks: Vec<CheckResult>,
    /// Total endpoint deliveries (0 for round-based workloads).
    pub delivered: u64,
}

impl RunReport {
    /// Did every expectation hold?
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }
}

impl Compiled {
    /// Run the scenario to its verdict.
    pub fn run(&self) -> RunReport {
        let obs = match &self.plan {
            Plan::Blink => self.run_blink(),
            Plan::Pcc => self.run_pcc(),
            Plan::Pytheas => self.run_pytheas(),
            Plan::Tcp(plan) => self.run_tcp(plan),
        };
        let sc = &self.scenario;
        RunReport {
            name: sc.name.clone(),
            kind: sc.workload.kind(),
            seed: sc.seed,
            checks: evaluate(sc, &self.windows, &obs),
            delivered: obs.snapshot.counter("netsim.delivered.endpoint"),
        }
    }

    /// The boundary axis: every grid point plus every in-horizon window
    /// edge, sorted and deduplicated. The horizon itself always closes
    /// the axis so the final observation lands at the very end.
    fn boundaries(&self) -> Vec<SimTime> {
        let sc = &self.scenario;
        // Round-driven workloads (pytheas) have no horizon and never
        // enter the boundary loop; an empty axis is the honest answer.
        let Some(h) = sc.workload.horizon() else {
            return Vec::new();
        };
        let horizon = SimTime(h.0);
        let step = sc.sample_every.0.max(1);
        let mut ts: Vec<SimTime> = (0..=horizon.0 / step).map(|k| SimTime(k * step)).collect();
        for w in &self.windows {
            if w.start <= horizon {
                ts.push(w.start);
            }
            if w.end <= horizon {
                ts.push(w.end);
            }
        }
        ts.push(horizon);
        ts.sort();
        ts.dedup();
        ts
    }

    fn on_grid(&self, t: SimTime) -> bool {
        t.0 % self.scenario.sample_every.0.max(1) == 0
    }

    fn run_blink(&self) -> Observed {
        let sc = &self.scenario;
        let WorkloadSpec::Blink {
            legit_flows,
            malicious_flows,
            mean_lifetime,
            pkt_interval,
            attack_start,
            trigger_at,
            guarded,
            horizon,
        } = &sc.workload
        else {
            unreachable!("blink plan carries a blink workload")
        };
        let cfg = BlinkScenarioConfig {
            legit_flows: *legit_flows,
            malicious_flows: *malicious_flows,
            mean_lifetime_secs: mean_lifetime.as_secs_f64(),
            pkt_interval: *pkt_interval,
            blink: BlinkConfig::default(),
            attack_start: *attack_start,
            trigger_at: *trigger_at,
            guarded: *guarded,
            horizon: *horizon,
            seed: sc.seed,
        };
        let mut b = BlinkScenario::build(&cfg);
        // Every blink chaos window is a primary flap (compile-checked);
        // count overlaps so nested windows fail once and heal last.
        let mut active = 0usize;
        let mut samples = Vec::new();
        for t in self.boundaries() {
            b.sim.run_until(t);
            for w in &self.windows {
                if w.end == t && w.start <= t {
                    active -= 1;
                    if active == 0 {
                        b.heal_primary();
                    }
                }
            }
            for w in &self.windows {
                if w.start == t {
                    if active == 0 {
                        b.fail_primary_forward();
                    }
                    active += 1;
                }
            }
            if self.on_grid(t) {
                samples.push(Sample {
                    t,
                    delivered: b.sim.metrics_snapshot().counter("netsim.delivered.endpoint"),
                    reroutes: b.reroutes().unwrap_or(0) as u64,
                    on_primary: b.on_primary().unwrap_or(true),
                });
            }
        }
        let blink = BlinkObs {
            reroutes: b.reroutes().unwrap_or(0) as u64,
            on_primary: b.on_primary().unwrap_or(true),
            malicious_cells: b.malicious_cells().unwrap_or(0) as u64,
            vetoed: b.vetoed(),
        };
        Observed {
            samples,
            snapshot: b.metrics(),
            blink: Some(blink),
            ..Default::default()
        }
    }

    fn run_pcc(&self) -> Observed {
        let sc = &self.scenario;
        let WorkloadSpec::Pcc {
            flows,
            bottleneck_mbps,
            attacked,
            pin_to_mbps,
            horizon,
        } = &sc.workload
        else {
            unreachable!("pcc plan carries a pcc workload")
        };
        let cfg = PccScenarioConfig {
            flows: *flows,
            bottleneck: Bandwidth::mbps(*bottleneck_mbps),
            attacked: *attacked,
            pin_to: pin_to_mbps.map(|m| m * 125_000.0),
            sway: None,
            control: ControlConfig::default(),
            seed: sc.seed,
        };
        let mut p = PccScenario::build(&cfg);
        let end = SimTime(horizon.0);
        p.sim.run_until(end);
        // Steady state: the tail half of each flow's MI-boundary trace.
        let after = 0.5 * horizon.as_secs_f64();
        let mut rate_min = f64::INFINITY;
        let mut rate_max = 0.0f64;
        let mut osc_max = 0.0f64;
        for i in 0..*flows {
            let trace = p.rate_trace(i);
            let tail: Vec<f64> = trace
                .points()
                .iter()
                .filter(|(t, _)| *t >= after)
                .map(|&(_, v)| v)
                .collect();
            let mean = if tail.is_empty() {
                0.0
            } else {
                tail.iter().sum::<f64>() / tail.len() as f64
            };
            let mbps = mean / 125_000.0;
            rate_min = rate_min.min(mbps);
            rate_max = rate_max.max(mbps);
            osc_max = osc_max.max(p.oscillation_amplitude(i, after));
        }
        Observed {
            snapshot: p.sim.metrics_snapshot(),
            pcc: Some(PccObs {
                rate_min_mbps: if rate_min.is_finite() { rate_min } else { 0.0 },
                rate_max_mbps: rate_max,
                oscillation_max: osc_max,
            }),
            ..Default::default()
        }
    }

    fn run_pytheas(&self) -> Observed {
        let sc = &self.scenario;
        let WorkloadSpec::Pytheas {
            groups,
            rounds,
            poison_fraction,
            defended,
        } = &sc.workload
        else {
            unreachable!("pytheas plan carries a pytheas workload")
        };
        let cfg = EngineConfig {
            poison_fraction: *poison_fraction,
            // The paper's promote attack: drag the best arm (1) down and
            // push an inferior arm (2) up.
            poison: if *poison_fraction > 0.0 {
                PoisonStrategy::Promote { down: 1, up: 2 }
            } else {
                PoisonStrategy::None
            },
            ..Default::default()
        };
        let out = pytheas_run(cfg, *groups, *rounds, *defended, sc.seed);
        Observed {
            pytheas: Some(PytheasObs {
                honest_qoe: out.honest_qoe,
                on_best: out.on_best,
            }),
            ..Default::default()
        }
    }

    fn run_tcp(&self, plan: &TcpPlan) -> Observed {
        let sc = &self.scenario;
        // Plan::Tcp covers the whole tcp family; the three kinds share
        // the population parameters and differ in admission + lifecycle.
        let (flows, mean_lifetime, pkt_interval, horizon) = match &sc.workload {
            WorkloadSpec::Tcp {
                flows,
                mean_lifetime,
                pkt_interval,
                horizon,
                ..
            }
            | WorkloadSpec::Churn {
                flows,
                mean_lifetime,
                pkt_interval,
                horizon,
                ..
            }
            | WorkloadSpec::SynFlood {
                flows,
                mean_lifetime,
                pkt_interval,
                horizon,
                ..
            } => (*flows, *mean_lifetime, *pkt_interval, *horizon),
            _ => unreachable!("tcp plan carries a tcp-family workload"),
        };
        let topo = build_topology(&sc.topology);
        let prefix = Prefix::new(Addr::new(TCP_PREFIX.0, TCP_PREFIX.1, 0, 0), 16);
        let mut rng = Rng::new(sc.seed);

        // Same lognormal parameterization as the Blink builder: mean of
        // the distribution equals the requested mean lifetime.
        let sigma = 1.0f64;
        let mean = mean_lifetime.as_secs_f64();
        let duration = DurationDist {
            ln_mu: mean.ln() - 0.5 * sigma * sigma,
            ln_sigma: sigma,
            tail_prob: 0.0,
            tail_xm: 10.0,
            tail_alpha: 1.5,
            max_secs: 600.0,
        };
        let pop_cfg = FlowPopulationConfig {
            prefix,
            arrival_rate: flows as f64 / mean,
            duration,
            pkt_interval,
            horizon,
            warm_start: Some(flows),
        };

        // Per-source host logic, built per workload kind.
        let mut src_logic: Vec<TcpHost> = Vec::new();
        if matches!(sc.workload, WorkloadSpec::Churn { .. }) {
            // Streamed admission: the single source draws arrivals lazily
            // from the generator as the simulation reaches them — no
            // materialized schedule, flows handshake and are evicted on
            // close so the pool stays at the steady-state population.
            let stream = FlowStream::new(pop_cfg, rng);
            let inner = StreamSource::new(stream, 1460).with_handshake(true);
            let src_addr = topo.node(plan.src_hosts[0]).addr;
            let mut h = TcpHost::with_source(Box::new(RewriteSrc { inner, src_addr }));
            h.set_config(TcpHostConfig {
                evict_closed: true,
                ..TcpHostConfig::default()
            });
            src_logic.push(h);
        } else {
            let handshake = matches!(sc.workload, WorkloadSpec::SynFlood { .. });
            let mut all = FlowPopulation::generate(&pop_cfg, &mut rng).flows;
            // Load surges: extra arrivals generated from the same rng (in
            // window order, so the draw sequence is schedule-deterministic)
            // and shifted onto the window.
            for w in &self.windows {
                if let ChaosKind::LoadSurge {
                    flows: extra,
                    duration: span,
                } = &sc.chaos[w.decl].kind
                {
                    let surge_cfg = FlowPopulationConfig {
                        arrival_rate: *extra as f64 / span.as_secs_f64().max(1e-9),
                        horizon: *span,
                        warm_start: Some(0),
                        ..pop_cfg
                    };
                    let surge = FlowPopulation::generate(&surge_cfg, &mut rng);
                    all.extend(surge.shifted(SimDuration(w.start.0)).flows);
                }
            }

            // Round-robin the flows across the source hosts.
            let mut per_src: Vec<Vec<FlowSpec>> = vec![Vec::new(); plan.src_hosts.len()];
            for (i, f) in all.iter().enumerate() {
                let slot = i % plan.src_hosts.len();
                let mut spec = f.to_flow_spec(1460);
                spec.key.src = topo.node(plan.src_hosts[slot]).addr;
                // Under a SYN flood the legitimate flows handshake, so
                // they compete with the flood for the victim's backlog.
                spec.config.handshake = handshake;
                per_src[slot].push(spec);
            }
            for specs in per_src {
                let mut h = TcpHost::with_flows(specs);
                if handshake {
                    h.set_config(TcpHostConfig {
                        evict_closed: true,
                        ..TcpHostConfig::default()
                    });
                }
                src_logic.push(h);
            }
        }

        let routers = topo.nodes_of_kind(NodeKind::Router);
        let mut sim = Simulator::new(topo, sc.seed);
        sim.announce_prefix(prefix, plan.dst_host);
        for r in routers {
            let logic = match plan.bounce {
                Some((a, b, bounces)) if r == a || r == b => {
                    let partner = if r == a { b } else { a };
                    let matcher =
                        Box::new(move |p: &Packet| prefix.contains(p.key.dst));
                    RouterLogic::new()
                        .with_program(Box::new(BounceProgram::new(matcher, partner, bounces)))
                }
                _ => RouterLogic::new(),
            };
            sim.set_logic(r, Box::new(logic));
        }
        let mut dst = TcpHost::new();
        match &sc.workload {
            WorkloadSpec::Churn { .. } => dst.set_config(TcpHostConfig {
                evict_closed: true,
                ..TcpHostConfig::default()
            }),
            WorkloadSpec::SynFlood {
                backlog,
                syn_timeout,
                ..
            } => dst.set_config(TcpHostConfig {
                listen_backlog: Some(*backlog),
                evict_closed: true,
                syn_rcvd_timeout: *syn_timeout,
            }),
            _ => {}
        }
        sim.set_logic(plan.dst_host, Box::new(dst));
        for (host, logic) in plan.src_hosts.iter().zip(src_logic) {
            sim.set_logic(*host, Box::new(logic));
        }
        if let WorkloadSpec::SynFlood {
            syn_rate,
            attack_start,
            attack_duration,
            ..
        } = &sc.workload
        {
            // lint: allow(panic): compile() always resolves syn_flood's attacker
            let attacker = plan.attacker.expect("syn_flood plan resolves an attacker");
            // Aim at a fixed address inside the announced prefix so the
            // flood routes to the victim; SYN-ACK backscatter to the
            // spoofed TEST-NET-2 sources drops as no_route, as it would
            // on a real network.
            let cfg = SynFloodConfig {
                victim: Addr(prefix.addr.0 | 1),
                rate_per_sec: *syn_rate,
                start: *attack_start,
                duration: *attack_duration,
                seed: sc.seed ^ 0x5f1d_f00d,
                ..SynFloodConfig::default()
            };
            sim.set_logic(attacker, Box::new(SynFloodHost::new(cfg)));
        }

        // Boundary loop: advance, heal, fail, observe.
        let mut active = vec![0usize; sc.chaos.len()];
        let mut samples = Vec::new();
        for t in self.boundaries() {
            sim.run_until(t);
            for w in &self.windows {
                if w.end == t && w.start <= t {
                    active[w.decl] -= 1;
                    if active[w.decl] == 0 {
                        apply_chaos(&mut sim, &plan.actions[w.decl], false);
                    }
                }
            }
            for w in &self.windows {
                if w.start == t {
                    if active[w.decl] == 0 {
                        apply_chaos(&mut sim, &plan.actions[w.decl], true);
                    }
                    active[w.decl] += 1;
                }
            }
            if self.on_grid(t) {
                samples.push(Sample {
                    t,
                    delivered: sim.metrics_snapshot().counter("netsim.delivered.endpoint"),
                    ..Default::default()
                });
            }
        }
        Observed {
            samples,
            snapshot: sim.metrics_snapshot(),
            ..Default::default()
        }
    }
}

/// Pins a streamed source's flows to the emitting host's address.
///
/// The generator draws both endpoints of each 5-tuple from the target
/// prefix; a host sourcing those flows must own the `src` side or the
/// return path (ACKs, SYN-ACKs) routes into the void. Wraps the stream
/// rather than materializing it, preserving lazy admission.
struct RewriteSrc {
    inner: StreamSource,
    src_addr: Addr,
}

impl FlowSource for RewriteSrc {
    fn pop_due(&mut self, now: SimTime) -> Option<FlowSpec> {
        let mut spec = self.inner.pop_due(now)?;
        spec.key.src = self.src_addr;
        Some(spec)
    }

    fn peek_start(&self) -> Option<SimTime> {
        self.inner.peek_start()
    }

    fn state_digest(&self, d: &mut StateDigest) {
        self.inner.state_digest(d);
        d.write_u32(self.src_addr.0);
    }
}

/// Flip one resolved chaos action on or off.
fn apply_chaos(sim: &mut Simulator, action: &ResolvedChaos, on: bool) {
    match action {
        ResolvedChaos::Fault(links) => {
            let fault = if on {
                FaultConfig {
                    drop_prob: 1.0,
                    jitter_max: None,
                }
            } else {
                FaultConfig::default()
            };
            for &l in links {
                sim.set_fault(l, Dir::AtoB, fault);
                sim.set_fault(l, Dir::BtoA, fault);
            }
        }
        ResolvedChaos::AdminDown(links) => {
            for &l in links {
                sim.set_link_up(l, !on);
            }
        }
        // Surge arrivals were baked into the flow schedule at build time.
        ResolvedChaos::Surge => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parse::parse_str;

    fn run(text: &str) -> RunReport {
        let sc = parse_str("test.dsc", text).unwrap();
        compile(&sc).unwrap().run()
    }

    #[test]
    fn linear_flap_blacks_out_and_recovers() {
        let report = run(
            "[scenario]\nname = t\nseed = 7\n\
             [topology]\nkind = linear\nnodes = 3\n\
             [workload]\nkind = tcp\nflows = 12\nsrc = h0\ndst = h2\nhorizon = 30s\n\
             [chaos]\nlink_flap = r0-r1 at=10s down=5s\n\
             [expect]\nblackout_during_chaos = true\nrecovery_within = 5s\ndelivered_min = 1000\n",
        );
        for c in &report.checks {
            assert!(c.pass, "{}: {}", c.label, c.detail);
        }
    }

    #[test]
    fn churn_streams_flows_and_recycles_pool_slots() {
        let report = run(
            "[scenario]\nname = t\nseed = 9\n\
             [topology]\nkind = linear\nnodes = 3\n\
             [workload]\nkind = churn\nflows = 10\nmean_lifetime = 4s\nsrc = h0\ndst = h2\n\
             horizon = 25s\n\
             [expect]\nhandshake_completed_min = 10\ncounter_min = tcp.pool.recycled 1\n",
        );
        assert_eq!(report.kind, "churn");
        for c in &report.checks {
            assert!(c.pass, "{}: {}", c.label, c.detail);
        }
    }

    #[test]
    fn syn_flood_saturates_the_backlog_but_not_beyond() {
        let report = run(
            "[scenario]\nname = t\nseed = 9\n\
             [topology]\nkind = linear\nnodes = 3\n\
             [workload]\nkind = syn_flood\nflows = 8\nsrc = h0\ndst = h2\nattacker = h1\n\
             syn_rate = 500\nbacklog = 16\nsyn_timeout = 3s\n\
             attack_start = 5s\nattack_duration = 10s\nhorizon = 30s\n\
             [expect]\nsynrcvd_peak_max = 16\nhandshake_completed_min = 8\n\
             counter_min = tcp.handshake.syn_dropped 100\n",
        );
        assert_eq!(report.kind, "syn_flood");
        for c in &report.checks {
            assert!(c.pass, "{}: {}", c.label, c.detail);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let text = "[scenario]\nname = t\nseed = 7\n\
             [topology]\nkind = ring\nnodes = 4\n\
             [workload]\nkind = tcp\nflows = 8\nsrc = h0,h1\ndst = h2\nhorizon = 20s\n\
             [chaos]\nrouter_churn = r3 at=8s down=4s\n";
        let sc = parse_str("test.dsc", text).unwrap();
        let c = compile(&sc).unwrap();
        let a = c.run();
        let b = c.run();
        assert_eq!(a.delivered, b.delivered);
        assert!(a.delivered > 0);
    }
}
