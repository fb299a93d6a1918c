//! How many full state hashes recording and verifying cost.
//!
//! A recorded checkpoint needs one state hash, one component breakdown
//! and one payload; the final hash is the final checkpoint's hash, and
//! verification re-hashes once per checkpoint. These tests count the
//! calls, through the trait's default `checkpoint_parts` and through the
//! packet engine's single-pass override.

use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dui_netsim::prelude::*;
use dui_replay::{Recorder, ReplaySubject, Replayer, SimulatorSubject, StepInfo};
use dui_stats::digest::StateDigest;

/// A toy subject that counts calls to the three per-checkpoint methods
/// and keeps the default `checkpoint_parts`.
struct Counting {
    x: u64,
    steps: u64,
    limit: u64,
    hashes: Cell<u64>,
    components: Cell<u64>,
    saves: Cell<u64>,
}

impl Counting {
    fn new(limit: u64) -> Self {
        Counting {
            x: 1,
            steps: 0,
            limit,
            hashes: Cell::new(0),
            components: Cell::new(0),
            saves: Cell::new(0),
        }
    }

    fn counts(&self) -> (u64, u64, u64) {
        (self.hashes.get(), self.components.get(), self.saves.get())
    }
}

impl ReplaySubject for Counting {
    fn config_digest(&self) -> u64 {
        self.limit
    }

    fn now_ns(&self) -> u64 {
        self.steps
    }

    fn step(&mut self) -> Option<StepInfo> {
        if self.steps == self.limit {
            return None;
        }
        self.steps += 1;
        self.x = dui_stats::rng::hash64(self.x);
        Some(StepInfo {
            time: self.steps,
            kind: "tick",
            digest: self.x,
        })
    }

    fn state_hash(&self) -> u64 {
        self.hashes.set(self.hashes.get() + 1);
        self.x ^ self.steps
    }

    fn component_digests(&self) -> Vec<(&'static str, u64)> {
        self.components.set(self.components.get() + 1);
        vec![("x", self.x)]
    }

    fn save_checkpoint(&self) -> Option<Vec<u8>> {
        self.saves.set(self.saves.get() + 1);
        Some(self.x.to_le_bytes().to_vec())
    }
}

#[test]
fn default_parts_record_each_method_once_per_checkpoint() {
    let mut subject = Counting::new(50);
    let rec = Recorder::new("counting", subject.config_digest(), 8).record(&mut subject);
    // 0, 8, ..., 48 and the final 50.
    let k = rec.checkpoints.len() as u64;
    assert_eq!(k, 8);
    assert_eq!(subject.counts(), (k, k, k), "none extra for the final hash");
    assert_eq!(rec.final_hash, rec.checkpoints.last().unwrap().state_hash);

    let mut fresh = Counting::new(50);
    let report = Replayer::new(&rec).verify(&mut fresh).unwrap();
    assert_eq!(report.checkpoints_verified, k);
    assert_eq!(fresh.counts(), (k, 0, 0), "verify hashes once per checkpoint");
}

#[test]
fn verify_still_hashes_when_no_checkpoint_sits_at_the_end() {
    let mut subject = Counting::new(50);
    let mut rec = Recorder::new("counting", subject.config_digest(), 8).record(&mut subject);
    rec.checkpoints.pop();
    let mut fresh = Counting::new(50);
    Replayer::new(&rec).verify(&mut fresh).unwrap();
    let k = rec.checkpoints.len() as u64;
    assert_eq!(fresh.counts(), (k + 1, 0, 0));

    rec.final_hash ^= 1;
    let mut fresh = Counting::new(50);
    assert!(Replayer::new(&rec).verify(&mut fresh).is_err(), "final hash still checked");
}

/// A node that sends one packet per millisecond and counts how often the
/// engine folds its state into a full state hash.
struct Ticker {
    dst: Addr,
    sent: u64,
    digests: Arc<AtomicU64>,
    restorable: bool,
}

impl NodeLogic for Ticker {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
        self.sent += 1;
        let key = FlowKey::udp(Addr::new(10, 0, 0, 1), 5000, self.dst, 80);
        ctx.send(Packet::udp(key, 100));
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn state_digest(&self, d: &mut StateDigest) {
        self.digests.fetch_add(1, Ordering::Relaxed);
        d.write_u64(self.sent);
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        self.restorable.then(|| self.sent.to_le_bytes().to_vec())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let word: [u8; 8] = bytes.try_into().map_err(|_| "ticker: bad state".to_string())?;
        self.sent = u64::from_le_bytes(word);
        Ok(())
    }
}

/// Two hosts over one link; `h1` ticks for 200 ms.
fn ticker_subject(restorable: bool, digests: &Arc<AtomicU64>) -> SimulatorSubject {
    let mut b = TopologyBuilder::new();
    let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
    let dst = Addr::new(10, 0, 0, 2);
    let h2 = b.host("h2", dst);
    b.link(h1, h2, Bandwidth::mbps(100), SimDuration::from_millis(1), 64);
    let mut sim = Simulator::new(b.build(), 7);
    sim.set_logic(
        h1,
        Box::new(Ticker {
            dst,
            sent: 0,
            digests: Arc::clone(digests),
            restorable,
        }),
    );
    SimulatorSubject::new(sim, SimTime::ZERO + SimDuration::from_millis(200), restorable as u64)
}

#[test]
fn simulator_subject_hashes_once_per_checkpoint() {
    for restorable in [true, false] {
        let digests = Arc::new(AtomicU64::new(0));
        let mut subject = ticker_subject(restorable, &digests);
        let rec = Recorder::new("ticker", subject.config_digest(), 100).record(&mut subject);
        let k = rec.checkpoints.len() as u64;
        assert!(k > 3, "several checkpoints, got {k}");
        assert_eq!(
            rec.checkpoints[0].payload.is_some(),
            restorable,
            "restorable={restorable}"
        );
        assert_eq!(
            digests.load(Ordering::Relaxed),
            k,
            "record: one full state hash per checkpoint, none for the final \
             hash (restorable={restorable})"
        );

        let digests = Arc::new(AtomicU64::new(0));
        let mut fresh = ticker_subject(restorable, &digests);
        Replayer::new(&rec).verify(&mut fresh).unwrap();
        assert_eq!(
            digests.load(Ordering::Relaxed),
            k,
            "verify: one full state hash per checkpoint (restorable={restorable})"
        );
    }
}

/// Forwards everything except `checkpoint_parts`, so the recorder takes
/// the trait's default path.
struct DefaultParts(SimulatorSubject);

impl ReplaySubject for DefaultParts {
    fn config_digest(&self) -> u64 {
        self.0.config_digest()
    }

    fn now_ns(&self) -> u64 {
        self.0.now_ns()
    }

    fn step(&mut self) -> Option<StepInfo> {
        self.0.step()
    }

    fn state_hash(&self) -> u64 {
        self.0.state_hash()
    }

    fn component_digests(&self) -> Vec<(&'static str, u64)> {
        self.0.component_digests()
    }

    fn save_checkpoint(&self) -> Option<Vec<u8>> {
        self.0.save_checkpoint()
    }
}

#[test]
fn simulator_subject_override_matches_default_path() {
    for restorable in [true, false] {
        let digests = Arc::new(AtomicU64::new(0));
        let mut subject = ticker_subject(restorable, &digests);
        let fast = Recorder::new("ticker", subject.config_digest(), 100).record(&mut subject);
        let mut subject = DefaultParts(ticker_subject(restorable, &digests));
        let default = Recorder::new("ticker", subject.config_digest(), 100).record(&mut subject);
        assert_eq!(fast, default, "restorable={restorable}");
    }
}

/// A restorable node that counts how often the engine asks for its state.
struct SaveCounter(Arc<AtomicU64>);

impl NodeLogic for SaveCounter {
    fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        self.0.fetch_add(1, Ordering::Relaxed);
        Some(Vec::new())
    }
}

#[test]
fn hash_only_engine_asks_saving_logics_once_per_recording() {
    // Node 0 saves its state, node 1 cannot: every checkpoint attempt
    // serializes node 0 before node 1 refuses.
    let saves = Arc::new(AtomicU64::new(0));
    let mut b = TopologyBuilder::new();
    let sink = Addr::new(10, 0, 0, 1);
    let h1 = b.host("h1", sink);
    let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
    b.link(h1, h2, Bandwidth::mbps(100), SimDuration::from_millis(1), 64);
    let mut sim = Simulator::new(b.build(), 7);
    sim.set_logic(h1, Box::new(SaveCounter(Arc::clone(&saves))));
    sim.set_logic(
        h2,
        Box::new(Ticker {
            dst: sink,
            sent: 0,
            digests: Arc::new(AtomicU64::new(0)),
            restorable: false,
        }),
    );
    let mut subject =
        SimulatorSubject::new(sim, SimTime::ZERO + SimDuration::from_millis(200), 0);
    let rec = Recorder::new("hash-only", subject.config_digest(), 100).record(&mut subject);
    assert!(rec.checkpoints.len() > 3, "several checkpoints");
    assert!(rec.checkpoints.iter().all(|c| c.payload.is_none()), "hash-only");
    assert_eq!(saves.load(Ordering::Relaxed), 1, "one save_state call per recording");
    assert_eq!(subject.save_checkpoint(), None);
    assert_eq!(subject.component_digests(), vec![("engine", subject.state_hash())]);
    assert_eq!(saves.load(Ordering::Relaxed), 1, "the verdict holds for every method");
    subject.sim_mut();
    assert_eq!(subject.save_checkpoint(), None);
    assert_eq!(saves.load(Ordering::Relaxed), 2, "sim_mut forgets the verdict");
}
