//! `dui-perf`: the repository's benchmark. Four workloads drive `dui`
//! through its public API, time the phases a user waits for, and check
//! that every run's output is correct. A traced run times the
//! benchmark's own calls into each layer from outside the library.
//! README.md in this package says why each workload exists and which
//! end-to-end metric each per-layer metric should move.

pub mod trace;

use std::time::Instant;

use dui_core::netsim::sim::Simulator;
use dui_core::netsim::time::{SimDuration, SimTime};
use dui_core::pcc::endpoint::PccSender;
use dui_core::replay::{Recorder, Recording, ReplaySubject, Replayer, SimulatorSubject, StepInfo};
use dui_core::scenario::{BlinkScenario, BlinkScenarioConfig, PccScenario, PccScenarioConfig};
use dui_core::stats::digest::StateDigest;
use dui_core::telemetry::{Registry, Snapshot};
use trace::{Probe, Tracer};

/// The seed whose outputs are pinned in [`pinned`].
pub const DEFAULT_SEED: u64 = 1;

/// Simulated time of one `blink_takeover` / `record_verify` repetition.
const BLINK_END_S: u64 = 20;
/// Simulated time of one `pcc_equalizer` repetition.
const PCC_END_S: u64 = 30;
/// Concurrent lifecycles of one `flow_lifecycle` repetition.
pub const LIFECYCLE_FLOWS: usize = 100_000;
/// `record_verify` takes a checkpoint every this many events.
const CKPT_EVERY: u64 = 100_000;
/// The traced engine run steps in slices of this much simulated time,
/// one span each.
const SLICE_S: u64 = 1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// C4 packet-level Blink takeover, run with `run_until`.
    BlinkTakeover,
    /// PCC senders through the 50 Mbps bottleneck under the equalizer
    /// tap with pin and sway.
    PccEqualizer,
    /// Concurrent RFC 9293 lifecycles streamed into one `FlowPool`.
    FlowLifecycle,
    /// Record `blink_takeover`, round-trip the recording, verify it.
    RecordVerify,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::BlinkTakeover,
        Workload::PccEqualizer,
        Workload::FlowLifecycle,
        Workload::RecordVerify,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BlinkTakeover => "blink_takeover",
            Workload::PccEqualizer => "pcc_equalizer",
            Workload::FlowLifecycle => "flow_lifecycle",
            Workload::RecordVerify => "record_verify",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Correctness checks run so far and the ones that failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks run.
    pub attempted: u64,
    /// Description of each failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one check; record `detail` when it fails.
    pub fn check(&mut self, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(detail());
        }
    }

    /// Check `live == want`, naming `what` on failure.
    pub fn equal<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, live: T, want: T) {
        self.check(live == want, || {
            format!("{what}: got {live:?}, want {want:?}")
        });
    }
}

/// One repetition of a workload.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Construction before the first event, s.
    pub setup_s: f64,
    /// The timed phase, s.
    pub run_s: f64,
    /// `record_verify` only: the record and verify phases, s.
    pub record_s: f64,
    /// See [`Rep::record_s`].
    pub verify_s: f64,
    /// Packets delivered in the timed phase.
    pub delivered: u64,
    /// The run's final state hash (the flow-pool digest on
    /// `flow_lifecycle`, the recording's final hash on `record_verify`).
    pub final_hash: u64,
    /// Count-valued per-layer metrics. Deterministic for a seed.
    pub counts: Vec<(&'static str, f64)>,
}

impl Rep {
    /// Digest of every per-layer count, names included.
    pub fn counts_digest(&self) -> u64 {
        let mut d = StateDigest::labeled("perf-counts");
        for (name, v) in &self.counts {
            d.write_str(name);
            d.write_f64(*v);
        }
        d.finish()
    }

    /// A count by name (0 when the workload has none).
    pub fn count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Values pinned for [`DEFAULT_SEED`]: final hash, packets delivered,
/// and the digest of the per-layer counts ([`Rep::counts_digest`]).
fn pinned(w: Workload) -> (u64, u64, u64) {
    match w {
        Workload::BlinkTakeover => (
            8_970_454_702_551_303_210,
            999_549,
            15_036_069_704_803_266_490,
        ),
        Workload::PccEqualizer => (4_020_067_925_662_892_945, 950_177, 926_017_206_004_193_388),
        Workload::FlowLifecycle => (
            1_661_041_910_414_545_374,
            900_000,
            9_653_861_143_874_685_281,
        ),
        // The recorded run is blink_takeover's; it is delivered twice
        // (record, verify).
        Workload::RecordVerify => (
            8_970_454_702_551_303_210,
            2 * 999_549,
            1_107_129_805_194_628_644,
        ),
    }
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

fn blink_cfg(seed: u64) -> BlinkScenarioConfig {
    // The C4 shape (2000 legit + 105 malicious flows, fake-retransmission
    // trigger), shortened so one repetition takes about a second.
    BlinkScenarioConfig {
        legit_flows: 2000,
        malicious_flows: 105,
        mean_lifetime_secs: 6.37,
        trigger_at: Some(SimTime::from_secs(BLINK_END_S - 5)),
        horizon: SimDuration::from_secs(BLINK_END_S),
        seed,
        ..Default::default()
    }
}

fn blink_config_digest(cfg: &BlinkScenarioConfig) -> u64 {
    let mut d = StateDigest::labeled("perf-blink-takeover");
    d.write_usize(cfg.legit_flows);
    d.write_usize(cfg.malicious_flows);
    d.write_f64(cfg.mean_lifetime_secs);
    d.write_opt_u64(cfg.trigger_at.map(|t| t.0));
    d.write_u64(cfg.horizon.0);
    d.write_u64(cfg.seed);
    d.write_u64(BLINK_END_S);
    d.finish()
}

fn pcc_cfg(seed: u64) -> PccScenarioConfig {
    // C6's destination-fluctuation attack: every flow pinned to 3 Mbps
    // with a coherent ±50 % sway.
    PccScenarioConfig {
        flows: 8,
        attacked: true,
        pin_to: Some(3.0 * 125_000.0),
        sway: Some((0.5, SimDuration::from_secs(50))),
        seed,
        ..Default::default()
    }
}

/// Run one repetition of `w`. With a tracer, the calls into each layer
/// are timed and spanned; without one, nothing but the phases is timed.
fn run_rep(w: Workload, seed: u64, tracer: Option<&mut Tracer>, checks: &mut Checks) -> Rep {
    let mut probe = Probe(tracer);
    probe.span("rep", |p| match w {
        Workload::BlinkTakeover | Workload::PccEqualizer => engine_rep(w, seed, p, checks),
        Workload::FlowLifecycle => lifecycle_rep(seed, LIFECYCLE_FLOWS, p, checks),
        Workload::RecordVerify => record_verify_rep(seed, p, checks),
    })
}

/// A built engine scenario.
enum Scenario {
    Blink(BlinkScenario),
    Pcc(PccScenario),
}

impl Scenario {
    fn sim(&mut self) -> &mut Simulator {
        match self {
            Scenario::Blink(sc) => &mut sc.sim,
            Scenario::Pcc(sc) => &mut sc.sim,
        }
    }

    /// Engine counters merged with the victim program's metrics.
    fn snapshot(&mut self) -> Snapshot {
        match self {
            Scenario::Blink(sc) => sc.metrics(),
            Scenario::Pcc(sc) => {
                let mut reg = Registry::new();
                for i in 0..sc.senders.len() {
                    let node = sc.senders[i];
                    sc.sim.logic_mut::<PccSender>(node).export_metrics(&mut reg);
                }
                let mut snap = sc.sim.metrics_snapshot();
                snap.merge(&reg.snapshot());
                snap
            }
        }
    }
}

fn engine_rep(w: Workload, seed: u64, p: &mut Probe<'_>, checks: &mut Checks) -> Rep {
    let t0 = Instant::now();
    let (mut sc, end) = p.span("setup", |p| {
        p.time("core.build", || match w {
            Workload::PccEqualizer => (
                Scenario::Pcc(PccScenario::build(&pcc_cfg(seed))),
                SimTime::from_secs(PCC_END_S),
            ),
            _ => (
                Scenario::Blink(BlinkScenario::build(&blink_cfg(seed))),
                SimTime::from_secs(BLINK_END_S),
            ),
        })
    });
    let setup_s = secs(t0);

    let t0 = Instant::now();
    match p.0.as_deref_mut() {
        None => sc.sim().run_until(end),
        Some(tr) => tr.span("run", |tr| step_traced(sc.sim(), end, tr)),
    }
    let run_s = secs(t0);

    let final_hash = p.span("state_hash", |p| {
        p.time("replay.state_hash", || sc.sim().state_hash())
    });
    let snap = p.span("snapshot", |p| {
        p.time("telemetry.snapshot", || sc.snapshot())
    });
    let counts = engine_counts(&snap, sc.sim(), checks);
    let delivered = snap.counter("netsim.delivered");
    Rep {
        setup_s,
        run_s,
        delivered,
        final_hash,
        counts,
        ..Rep::default()
    }
}

/// The engine's count-valued per-layer metrics, after checking packet
/// conservation. `snap` also carries the victim program's counters.
fn engine_counts(
    snap: &Snapshot,
    sim: &Simulator,
    checks: &mut Checks,
) -> Vec<(&'static str, f64)> {
    let arena = sim.core().arena();
    check_conservation(snap, arena.live() as u64, checks);
    let mut counts = vec![
        ("netsim.arena.high_water", arena.high_water() as f64),
        ("netsim.arena.recycled", arena.recycled() as f64),
        (
            "netsim.link.queue_depth.p99",
            snap.hist("netsim.link.queue_depth")
                .map_or(0.0, |h| h.quantile(0.99) as f64),
        ),
        (
            "tcp.pool.high_water",
            snap.gauge_mean("tcp.pool.high_water").unwrap_or(0.0),
        ),
    ];
    for name in [
        "netsim.delivered",
        "netsim.wheel.cascades",
        "netsim.wheel.cascaded_entries",
        "netsim.wheel.deferred",
        "netsim.drop.queue",
        "netsim.drop.tap",
        "netsim.drop.no_route",
        "blink.selector.sampled",
        "blink.selector.evicted.idle",
        "blink.selector.retransmissions",
        "blink.reroutes",
        "pcc.mi.count",
        "pcc.packets.sent",
    ] {
        counts.push((name, snap.counter(name) as f64));
    }
    counts
}

/// Step the engine to `end` one event at a time, in spanned slices,
/// timing every `step_limited` call by the kind of event it dispatched.
fn step_traced(sim: &mut Simulator, end: SimTime, tr: &mut Tracer) {
    let mut slice_end = sim.now();
    while slice_end < end {
        slice_end = (slice_end + SimDuration::from_secs(SLICE_S)).min(end);
        tr.span("run.slice", |tr| loop {
            let t0 = Instant::now();
            let Some(ev) = sim.step_limited(slice_end) else {
                break;
            };
            tr.add(event_kind(ev.kind), t0.elapsed().as_nanos() as u64);
        });
    }
}

/// The tracer key for an engine event kind.
fn event_kind(kind: &str) -> &'static str {
    match kind {
        "deliver" => "netsim.deliver",
        "timer" => "netsim.timer",
        "tx_complete" => "netsim.tx_complete",
        _ => "netsim.other",
    }
}

/// Every packet the engine created is in exactly one terminal account
/// or still held by the engine (queued, serializing or in flight).
fn check_conservation(snap: &Snapshot, in_engine: u64, checks: &mut Checks) {
    let created = snap.counter("netsim.packets.created");
    let terminal: u64 = [
        "netsim.delivered.endpoint",
        "netsim.sunk",
        "netsim.consumed.router",
        "netsim.drop.queue",
        "netsim.drop.tap",
        "netsim.drop.fault",
        "netsim.drop.ttl",
        "netsim.drop.program",
        "netsim.drop.no_route",
    ]
    .iter()
    .map(|name| snap.counter(name))
    .sum();
    checks.equal(
        "packet conservation (created vs terminal + in engine)",
        created,
        terminal + in_engine,
    );
}

fn lifecycle_rep(seed: u64, n: usize, p: &mut Probe<'_>, checks: &mut Checks) -> Rep {
    use dui_core::flowgen::flows::{DurationDist, FlowPopulationConfig};
    use dui_core::flowgen::FlowStream;
    use dui_core::netsim::packet::{Addr, Prefix};
    use dui_core::stats::Rng;
    use dui_core::tcp::{FlowPool, FlowRef, TcpState};

    let t0 = Instant::now();
    let (mut stream, mut pool, mut pairs) = p.span("setup", |_| {
        let cfg = FlowPopulationConfig {
            prefix: Prefix::new(Addr::new(10, 0, 0, 0), 8),
            arrival_rate: 1.0,
            duration: DurationDist::default(),
            pkt_interval: SimDuration::from_millis(100),
            // Zero horizon: exactly the warm population, no arrivals.
            horizon: SimDuration::ZERO,
            warm_start: Some(n),
        };
        let pairs: Vec<(FlowRef, FlowRef)> = Vec::with_capacity(n);
        (FlowStream::new(cfg, Rng::new(seed)), FlowPool::new(), pairs)
    });
    let setup_s = secs(t0);

    // Handles are owned by this loop until it frees them, so a stale
    // reference here is a pool bug; it is counted as a failed check.
    let mut stale = 0u64;

    let t0 = Instant::now();
    let mut segments = 0u64;
    let mut handshakes = 0u64;
    let mut completed = 0u64;
    let mut bytes_acked = 0u64;
    let mut evicted = 0u64;
    p.span("run", |p| {
        p.span("run.admit", |p| {
            let mut i = 0u32;
            while let Some(f) = p.time("flowgen.next", || stream.next()) {
                let mut spec = f.to_flow_spec(1460);
                // One data segment and an instantly expiring TIME-WAIT:
                // the cost of per-flow state, not of transfer volume.
                spec.config.handshake = true;
                spec.config.total_bytes = Some(1460);
                spec.config.app_rate = None;
                spec.config.time_wait = SimDuration::from_nanos(1);
                let isn = i.wrapping_mul(0x0100_0001).wrapping_add(1);
                let pair = p.time("tcp.admit", || {
                    let s = pool.insert_sender(spec.key, spec.config, isn);
                    let r = pool.insert_listener(spec.key);
                    (s, r, pool.on_start(s, SimTime::ZERO))
                });
                live(pair.2, &mut stale);
                pairs.push((pair.0, pair.1));
                i = i.wrapping_add(1);
            }
        });
        // Shuttle segments between each pair until every connection is
        // CLOSED; a tick between quiescent rounds expires TIME-WAIT.
        p.span("run.segments", |p| {
            let mut now = SimTime::ZERO;
            loop {
                let mut any = false;
                for &(s, r) in &pairs {
                    for pkt in live(p.time("tcp.take_out", || pool.take_out(s)), &mut stale) {
                        let pre = pool.state(r);
                        live(
                            p.time("tcp.segment", || pool.on_segment(r, now, &pkt)),
                            &mut stale,
                        );
                        if pre == Ok(TcpState::SynRcvd)
                            && pool.state(r) == Ok(TcpState::Established)
                        {
                            handshakes += 1;
                        }
                        segments += 1;
                        any = true;
                    }
                    for pkt in live(p.time("tcp.take_out", || pool.take_out(r)), &mut stale) {
                        live(
                            p.time("tcp.segment", || pool.on_segment(s, now, &pkt)),
                            &mut stale,
                        );
                        segments += 1;
                        any = true;
                    }
                }
                if !any {
                    now += SimDuration::from_millis(1);
                    let mut ticked = false;
                    for &(s, _) in &pairs {
                        if pool.state(s) == Ok(TcpState::TimeWait) {
                            live(p.time("tcp.tick", || pool.on_tick(s, now)), &mut stale);
                            ticked = true;
                        }
                    }
                    if !ticked {
                        break;
                    }
                }
            }
        });
        p.span("run.evict", |p| {
            for &(s, r) in &pairs {
                if let Ok(stats) = pool.sender_stats(s) {
                    completed += u64::from(stats.completed_at.is_some());
                    bytes_acked += stats.bytes_acked;
                }
                live(p.time("tcp.evict", || pool.free(s)), &mut stale);
                live(p.time("tcp.evict", || pool.free(r)), &mut stale);
                evicted += 2;
            }
        });
    });
    let run_s = secs(t0);

    let mut stale_rejected = 0u64;
    for &(s, r) in &pairs {
        stale_rejected += u64::from(pool.state(s).is_err());
        stale_rejected += u64::from(pool.state(r).is_err());
    }
    let admitted = pairs.len() as u64;
    checks.equal("flow_lifecycle: stale handles on live flows", stale, 0);
    checks.equal("flow_lifecycle: lifecycles admitted", admitted, n as u64);
    checks.equal("flow_lifecycle: handshakes completed", handshakes, admitted);
    checks.equal("flow_lifecycle: lifecycles completed", completed, admitted);
    checks.equal(
        "flow_lifecycle: stale_rejected == evicted",
        stale_rejected,
        evicted,
    );
    checks.equal("flow_lifecycle: pool empty after evict", pool.live(), 0);

    let final_hash = p.span("state_hash", |p| {
        p.time("replay.state_hash", || {
            let mut d = StateDigest::labeled("perf-flow-lifecycle");
            for v in [admitted, handshakes, completed, bytes_acked, stale_rejected] {
                d.write_u64(v);
            }
            pool.state_digest(&mut d);
            d.finish()
        })
    });
    Rep {
        setup_s,
        run_s,
        delivered: segments,
        final_hash,
        counts: vec![
            ("tcp.pool.high_water", pool.high_water() as f64),
            ("tcp.lifecycles", completed as f64),
            ("tcp.segments", segments as f64),
            ("tcp.stale_rejected", stale_rejected as f64),
        ],
        ..Rep::default()
    }
}

/// The value of a pool call on a handle the workload still owns; a
/// stale-handle error is counted into `stale` instead.
fn live<T: Default>(r: Result<T, dui_core::tcp::StaleFlowRef>, stale: &mut u64) -> T {
    r.unwrap_or_else(|_| {
        *stale += 1;
        T::default()
    })
}

/// A replay subject that times, from outside, every call the recorder
/// and replayer make into it.
struct TimedSubject<'t> {
    inner: SimulatorSubject,
    tracer: std::cell::RefCell<&'t mut Tracer>,
}

impl ReplaySubject for TimedSubject<'_> {
    fn config_digest(&self) -> u64 {
        self.inner.config_digest()
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    fn step(&mut self) -> Option<StepInfo> {
        let t0 = Instant::now();
        let step = self.inner.step();
        let ns = t0.elapsed().as_nanos() as u64;
        let tr = self.tracer.get_mut();
        tr.add("replay.step", ns);
        if let Some(s) = &step {
            tr.add(event_kind(s.kind), ns);
        }
        step
    }

    fn state_hash(&self) -> u64 {
        let mut tr = self.tracer.borrow_mut();
        tr.span("state_hash", |tr| {
            let t0 = Instant::now();
            let h = self.inner.state_hash();
            tr.add("replay.state_hash", t0.elapsed().as_nanos() as u64);
            h
        })
    }

    fn component_digests(&self) -> Vec<(&'static str, u64)> {
        let t0 = Instant::now();
        let out = self.inner.component_digests();
        self.tracer
            .borrow_mut()
            .add("replay.components", t0.elapsed().as_nanos() as u64);
        out
    }

    fn save_checkpoint(&self) -> Option<Vec<u8>> {
        let t0 = Instant::now();
        let out = self.inner.save_checkpoint();
        self.tracer
            .borrow_mut()
            .add("replay.save_checkpoint", t0.elapsed().as_nanos() as u64);
        out
    }
}

/// Build the `blink_takeover` engine as a replay subject.
fn blink_subject(seed: u64) -> SimulatorSubject {
    let cfg = blink_cfg(seed);
    let sc = BlinkScenario::build(&cfg);
    SimulatorSubject::new(
        sc.sim,
        SimTime::from_secs(BLINK_END_S),
        blink_config_digest(&cfg),
    )
}

/// Run `f` on `subject`; when tracing, through a [`TimedSubject`] inside
/// a span named `name`.
fn drive<T>(
    subject: SimulatorSubject,
    name: &'static str,
    p: &mut Probe<'_>,
    f: impl FnOnce(&mut dyn ReplaySubject) -> T,
) -> (T, SimulatorSubject) {
    match p.0.as_deref_mut() {
        None => {
            let mut subject = subject;
            (f(&mut subject), subject)
        }
        Some(tr) => tr.span(name, |tr| {
            let mut timed = TimedSubject {
                inner: subject,
                tracer: std::cell::RefCell::new(tr),
            };
            (f(&mut timed), timed.inner)
        }),
    }
}

fn record_verify_rep(seed: u64, p: &mut Probe<'_>, checks: &mut Checks) -> Rep {
    let t0 = Instant::now();
    let subject = p.span("setup", |p| p.time("core.build", || blink_subject(seed)));
    let mut setup_s = secs(t0);

    let t0 = Instant::now();
    let recorder = Recorder::new("blink_takeover", subject.config_digest(), CKPT_EVERY);
    let (rec, recorded) = drive(subject, "record", p, |s| recorder.record(s));
    let record_s = secs(t0);
    let t0 = Instant::now();
    let bytes = p.span("encode", |p| p.time("replay.encode", || rec.to_bytes()));
    let encode_s = secs(t0);
    let t0 = Instant::now();
    let decoded = p.span("decode", |p| {
        p.time("replay.decode", || Recording::from_bytes(&bytes))
    });
    let decode_s = secs(t0);
    checks.check(decoded.as_ref() == Ok(&rec), || {
        "record_verify: recording does not survive to_bytes/from_bytes".to_string()
    });
    let decoded = decoded.unwrap_or_default();

    let t0 = Instant::now();
    let fresh = p.span("setup", |p| p.time("core.build", || blink_subject(seed)));
    setup_s += secs(t0);
    let t0 = Instant::now();
    let replayer = Replayer::new(&decoded);
    let (verdict, verified) = drive(fresh, "verify", p, |s| replayer.verify(s));
    let verify_s = secs(t0);
    checks.check(verdict.is_ok(), || {
        format!("record_verify: Replayer::verify failed: {verdict:?}")
    });

    let snap = p.span("snapshot", |p| {
        p.time("telemetry.snapshot", || recorded.sim().metrics_snapshot())
    });
    let mut counts = engine_counts(&snap, recorded.sim(), checks);
    checks.equal(
        "record_verify: replayed engine delivers the recorded packets",
        verified.sim().counters().delivered,
        recorded.sim().counters().delivered,
    );
    counts.extend([
        ("replay.events", rec.events.len() as f64),
        (
            "replay.bytes_per_event",
            bytes.len() as f64 / rec.events.len().max(1) as f64,
        ),
        ("replay.checkpoints", rec.checkpoints.len() as f64),
    ]);
    Rep {
        setup_s,
        run_s: record_s + encode_s + decode_s + verify_s,
        record_s,
        verify_s,
        delivered: recorded.sim().counters().delivered + verified.sim().counters().delivered,
        final_hash: rec.final_hash,
        counts,
    }
}

/// The final state hash of `blink_takeover` at `seed`, run exactly as
/// that workload runs it (`run_until`, no digest per event).
fn blink_takeover_hash(seed: u64) -> u64 {
    let mut sc = BlinkScenario::build(&blink_cfg(seed));
    sc.sim.run_until(SimTime::from_secs(BLINK_END_S));
    sc.sim.state_hash()
}

/// The end-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("pkts_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics `(name, unit, count-valued)`, from the traced
/// run. Count-valued metrics repeat exactly for a seed; the rest are
/// timings. A workload that makes no call into a layer reports 0 there.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("netsim.events.deliver", "count", true),
    ("netsim.events.timer", "count", true),
    ("netsim.events.tx_complete", "count", true),
    ("netsim.ns.deliver", "ns", false),
    ("netsim.ns.timer", "ns", false),
    ("netsim.ns.tx_complete", "ns", false),
    ("netsim.delivered", "count", true),
    ("netsim.timers_per_delivered", "ratio", true),
    ("netsim.wheel.cascades", "count", true),
    ("netsim.wheel.cascaded_entries", "count", true),
    ("netsim.wheel.deferred", "count", true),
    ("netsim.arena.high_water", "count", true),
    ("netsim.arena.recycled", "count", true),
    ("netsim.link.queue_depth.p99", "pkts", true),
    ("netsim.drop.queue", "count", true),
    ("netsim.drop.tap", "count", true),
    ("netsim.drop.no_route", "count", true),
    ("tcp.admit_ns", "ns", false),
    ("tcp.segment_ns", "ns", false),
    ("tcp.take_out_ns", "ns", false),
    ("tcp.tick_ns", "ns", false),
    ("tcp.evict_ns", "ns", false),
    ("flowgen.next_ns", "ns", false),
    ("tcp.pool.high_water", "count", true),
    ("tcp.lifecycles", "count", true),
    ("tcp.segments", "count", true),
    ("tcp.stale_rejected", "count", true),
    ("blink.selector.sampled", "count", true),
    ("blink.selector.evicted.idle", "count", true),
    ("blink.selector.retransmissions", "count", true),
    ("blink.reroutes", "count", true),
    ("pcc.mi.count", "count", true),
    ("pcc.packets.sent", "count", true),
    ("replay.record_s", "s", false),
    ("replay.verify_s", "s", false),
    ("replay.state_hash_ms", "ms", false),
    ("replay.step_ns", "ns", false),
    ("replay.encode_ms", "ms", false),
    ("replay.decode_ms", "ms", false),
    ("replay.events", "count", true),
    ("replay.bytes_per_event", "bytes", true),
    ("replay.checkpoints", "count", true),
    ("core.build_ms", "ms", false),
    ("telemetry.snapshot_ms", "ms", false),
    ("trace.overhead", "ratio", false),
];

/// Repetitions a run makes at least, however long they take.
const MIN_REPS: usize = 3;

/// What one invocation measured.
#[derive(Debug)]
pub struct Outcome {
    /// Untraced repetitions (as many as traced ones, when traced).
    pub reps: Vec<Rep>,
    /// Traced repetitions (none when untraced).
    pub traced: Vec<Rep>,
    /// The tracer of the traced repetitions.
    pub tracer: Option<Tracer>,
    /// Every correctness check run.
    pub checks: Checks,
}

/// Run `w` at `seed` for about `seconds` (at least [`MIN_REPS`]
/// repetitions untraced; with `traced`, pairs of an untraced and a
/// traced repetition, at least one), checking every output.
pub fn run(w: Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let start = Instant::now();
    let mut checks = Checks::default();
    let mut reps = Vec::new();
    let mut traced_reps = Vec::new();
    let mut tracer = None;
    if traced {
        // Alternate untraced and traced repetitions, so that the
        // overhead ratio compares runs made under the same conditions.
        let mut tr = Tracer::new();
        while traced_reps.is_empty() || secs(start) < seconds {
            reps.push(run_rep(w, seed, None, &mut checks));
            traced_reps.push(run_rep(w, seed, Some(&mut tr), &mut checks));
        }
        tracer = Some(tr);
    } else {
        while reps.len() < MIN_REPS || secs(start) < seconds {
            reps.push(run_rep(w, seed, None, &mut checks));
        }
    }

    // Every repetition of one seed ends in the same state, traced or not.
    let first = &reps[0];
    for rep in reps.iter().chain(&traced_reps).skip(1) {
        checks.equal(
            "final state hash across repetitions",
            rep.final_hash,
            first.final_hash,
        );
        checks.equal(
            "packets delivered across repetitions",
            rep.delivered,
            first.delivered,
        );
        checks.equal(
            "per-layer counts across repetitions",
            &rep.counts,
            &first.counts,
        );
    }
    if seed == DEFAULT_SEED {
        let (hash, delivered, counts) = pinned(w);
        checks.equal(
            "per-layer counts pinned for the default seed",
            first.counts_digest(),
            counts,
        );
        checks.equal(
            "final state hash pinned for the default seed",
            first.final_hash,
            hash,
        );
        checks.equal(
            "packets delivered pinned for the default seed",
            first.delivered,
            delivered,
        );
    }
    if w == Workload::RecordVerify {
        checks.equal(
            "recording's final hash equals blink_takeover's",
            first.final_hash,
            blink_takeover_hash(seed),
        );
    }
    Outcome {
        reps,
        traced: traced_reps,
        tracer,
        checks,
    }
}

impl Outcome {
    /// Median setup, run, record and verify time of the untraced
    /// repetitions, s.
    pub fn medians(&self) -> (f64, f64, f64, f64) {
        let m = |f: fn(&Rep) -> f64| median(&self.reps.iter().map(f).collect::<Vec<_>>());
        (
            m(|r| r.setup_s),
            m(|r| r.run_s),
            m(|r| r.record_s),
            m(|r| r.verify_s),
        )
    }

    /// The [`END_TO_END`] metrics, in order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let (setup_s, run_s, _, _) = self.medians();
        vec![
            ("setup_s", setup_s),
            ("run_s", run_s),
            ("pkts_per_s", self.reps[0].delivered as f64 / run_s),
            ("peak_rss_mb", peak_rss_mb()),
        ]
    }

    /// The [`PER_LAYER`] metrics, in order (empty when untraced).
    pub fn per_layer(&self) -> Vec<(&'static str, f64)> {
        let (Some(tr), Some(last)) = (&self.tracer, self.traced.last()) else {
            return Vec::new();
        };
        let n = self.traced.len() as f64;
        let per_rep = |kind: &str| tr.calls(kind).count as f64 / n;
        let ns = |kind: &str| tr.calls(kind).mean_ns();
        let ms = |kind: &str| tr.calls(kind).mean_ns() / 1e6;
        let span_s = |name: &str| median(&tr.durations_s(name));
        let traced_run = median(&self.traced.iter().map(|r| r.run_s).collect::<Vec<_>>());
        let delivered = last.delivered as f64;
        let value = |name: &str| -> f64 {
            match name {
                "netsim.events.deliver" => per_rep("netsim.deliver"),
                "netsim.events.timer" => per_rep("netsim.timer"),
                "netsim.events.tx_complete" => per_rep("netsim.tx_complete"),
                "netsim.ns.deliver" => ns("netsim.deliver"),
                "netsim.ns.timer" => ns("netsim.timer"),
                "netsim.ns.tx_complete" => ns("netsim.tx_complete"),
                "netsim.timers_per_delivered" => per_rep("netsim.timer") / delivered.max(1.0),
                "tcp.admit_ns" => ns("tcp.admit"),
                "tcp.segment_ns" => ns("tcp.segment"),
                "tcp.take_out_ns" => ns("tcp.take_out"),
                "tcp.tick_ns" => ns("tcp.tick"),
                "tcp.evict_ns" => ns("tcp.evict"),
                "flowgen.next_ns" => ns("flowgen.next"),
                "replay.record_s" => span_s("record"),
                "replay.verify_s" => span_s("verify"),
                "replay.state_hash_ms" => ms("replay.state_hash"),
                "replay.step_ns" => ns("replay.step"),
                "replay.encode_ms" => ms("replay.encode"),
                "replay.decode_ms" => ms("replay.decode"),
                "core.build_ms" => ms("core.build"),
                "telemetry.snapshot_ms" => ms("telemetry.snapshot"),
                "trace.overhead" => traced_run / self.medians().1,
                counted => last.count(counted),
            }
        };
        PER_LAYER
            .iter()
            .map(|&(name, _, _)| (name, value(name)))
            .collect()
    }
}

/// Peak resident set (VmHWM) of this process in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `v` (0 for an empty slice).
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}
