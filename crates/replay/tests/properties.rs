//! Property suites for the record/replay subsystem (via the in-tree
//! `propcheck` engine): codec round-trips and checkpoint/restore
//! fixed points under randomized scenarios.

use dui_blink::fastsim::{AttackSim, AttackSimConfig};
use dui_netsim::prelude::*;
use dui_replay::record::{
    attack_sim_snapshot_from_bytes, attack_sim_snapshot_to_bytes, engine_checkpoint_from_bytes,
    engine_checkpoint_to_bytes, read_varint, write_varint, CheckpointFrame, EventFrame, Recording,
};
use dui_replay::replay::ReplaySubject;
use dui_replay::{FastSimSubject, Recorder, Replayer};
use dui_stats::propcheck::Gen;
use dui_stats::{prop_assert, prop_assert_eq, prop_check};

fn small_fastsim_cfg(g: &mut Gen) -> AttackSimConfig {
    AttackSimConfig {
        legit_flows: g.usize(5..40),
        malicious_flows: g.usize(0..5),
        horizon: SimDuration::from_secs_f64(g.f64(0.5..3.0)),
        ..AttackSimConfig::fig2()
    }
}

/// `Recording::to_bytes` as it was when the event stream was held as a
/// `Vec<EventFrame>` and encoded frame by frame: the reference the event
/// log's bytes must match.
fn per_frame_encoding(rec: &Recording, frames: &[EventFrame]) -> Vec<u8> {
    let str = |buf: &mut Vec<u8>, s: &str| {
        write_varint(buf, s.len() as u64);
        buf.extend_from_slice(s.as_bytes());
    };
    let mut buf = b"DUIR".to_vec();
    write_varint(&mut buf, 1);
    str(&mut buf, &rec.stage);
    buf.extend_from_slice(&rec.config_digest.to_le_bytes());
    write_varint(&mut buf, rec.names.len() as u64);
    for n in &rec.names {
        str(&mut buf, n);
    }
    write_varint(&mut buf, frames.len() as u64);
    let mut prev = 0u64;
    for e in frames {
        write_varint(&mut buf, e.time.saturating_sub(prev));
        prev = e.time;
        write_varint(&mut buf, e.kind as u64);
        buf.extend_from_slice(&e.digest.to_le_bytes());
    }
    write_varint(&mut buf, rec.checkpoints.len() as u64);
    for c in &rec.checkpoints {
        write_varint(&mut buf, c.event_index);
        write_varint(&mut buf, c.time);
        buf.extend_from_slice(&c.state_hash.to_le_bytes());
        write_varint(&mut buf, c.components.len() as u64);
        for (name, digest) in &c.components {
            write_varint(&mut buf, *name as u64);
            buf.extend_from_slice(&digest.to_le_bytes());
        }
        match &c.payload {
            None => buf.push(0),
            Some(p) => {
                buf.push(1);
                write_varint(&mut buf, p.len() as u64);
                buf.extend_from_slice(p);
            }
        }
    }
    buf.extend_from_slice(&rec.final_hash.to_le_bytes());
    buf
}

/// A small two-link packet scenario with optional faults, partially run
/// so checkpoints carry pending events and queued packets.
fn partial_engine(g: &mut Gen) -> Simulator {
    let seed = g.any_u64();
    let flows = g.usize(1..30) as u16;
    let drop_prob = if g.bool() { g.f64_unit() * 0.3 } else { 0.0 };
    let mut b = TopologyBuilder::new();
    let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
    let r = b.router("r");
    let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
    b.link(h1, r, Bandwidth::mbps(10), SimDuration::from_millis(1), 16);
    b.link(r, h2, Bandwidth::mbps(10), SimDuration::from_millis(1), 16);
    let mut sim = Simulator::new(b.build(), seed);
    sim.set_logic(r, Box::new(RouterLogic::new()));
    sim.set_logic(h2, Box::new(SinkHost::new()));
    if drop_prob > 0.0 {
        sim.set_fault(
            LinkId(0),
            Dir::AtoB,
            FaultConfig {
                drop_prob,
                jitter_max: Some(SimDuration::from_millis(1)),
            },
        );
    }
    for i in 0..flows {
        let k = FlowKey::udp(Addr::new(10, 0, 0, 1), 2000 + i, Addr::new(10, 0, 0, 2), 80);
        sim.inject(h1, Packet::udp(k, 300));
    }
    sim.run_until(SimTime::from_secs_f64(0.0015));
    sim
}

prop_check! {
    cases = 64;

    fn varint_round_trips(g) {
        // Bias toward encoding-boundary values alongside uniform draws.
        let v = match g.u8(0..4) {
            0 => g.u64(0..128),
            1 => g.u64(127..16_400),
            2 => u64::MAX - g.u64(0..3),
            _ => g.any_u64(),
        };
        let mut buf = Vec::new();
        write_varint(&mut buf, v);
        prop_assert!(buf.len() <= 10);
        let mut pos = 0;
        prop_assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        prop_assert_eq!(pos, buf.len());
    }

    // Any non-decreasing frame sequence comes back from the event log
    // exactly, and the recording encodes byte for byte as the old
    // per-frame encoder did and decodes to itself.
    fn recording_codec_round_trips(g) {
        let mut rec = Recording {
            stage: "prop".into(),
            config_digest: g.any_u64(),
            final_hash: g.any_u64(),
            ..Recording::default()
        };
        let kinds = [rec.intern("a"), rec.intern("b")];
        // Deltas of every varint length; kinds in and past the names table.
        let mut frames = Vec::new();
        let mut t = 0u64;
        for _ in 0..g.usize(0..60) {
            let dt = match g.u8(0..4) {
                0 => 0,
                1 => g.u64(1..128),
                2 => g.u64(128..1 << 28),
                _ => g.any_u64() >> g.u32(0..64),
            };
            t = t.saturating_add(dt);
            let kind = if g.bool() { kinds[g.usize(0..2)] } else { g.any_u32() };
            let frame = EventFrame { time: t, kind, digest: g.any_u64() };
            frames.push(frame);
            rec.events.push(frame);
        }
        let ckpts = g.usize(0..4);
        for i in 0..ckpts {
            let payload = if g.bool() {
                Some(g.vec(0..20, |g| g.u8(0..255)))
            } else {
                None
            };
            rec.checkpoints.push(CheckpointFrame {
                event_index: i as u64,
                time: g.any_u64() >> 16,
                state_hash: g.any_u64(),
                components: vec![(kinds[0], g.any_u64())],
                payload,
            });
        }
        prop_assert_eq!(rec.events.len(), frames.len());
        prop_assert_eq!(rec.events.iter().collect::<Vec<_>>(), frames);
        let bytes = rec.to_bytes();
        prop_assert_eq!(bytes, per_frame_encoding(&rec, &frames));
        let back = Recording::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, rec);
    }

    fn engine_checkpoint_codec_round_trips(g) {
        let sim = partial_engine(g);
        let ckpt = sim.checkpoint().expect("checkpointable");
        let bytes = engine_checkpoint_to_bytes(&ckpt);
        let back = engine_checkpoint_from_bytes(&bytes).unwrap();
        // Codec fidelity: re-encoding the decoded checkpoint is
        // byte-identical, and the carried state hash survives.
        prop_assert_eq!(engine_checkpoint_to_bytes(&back), bytes);
        prop_assert_eq!(back.state_hash, ckpt.state_hash);
    }

    fn engine_restore_is_a_state_hash_fixed_point(g) {
        let sim = partial_engine(g);
        let ckpt = sim.checkpoint().expect("checkpointable");
        prop_assert_eq!(ckpt.state_hash, sim.state_hash());
        // Round-trip the checkpoint through the byte codec, then restore
        // into a freshly built same-topology engine.
        let bytes = engine_checkpoint_to_bytes(&ckpt);
        let decoded = engine_checkpoint_from_bytes(&bytes).unwrap();
        let mut b = TopologyBuilder::new();
        let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
        let r = b.router("r");
        let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
        b.link(h1, r, Bandwidth::mbps(10), SimDuration::from_millis(1), 16);
        b.link(r, h2, Bandwidth::mbps(10), SimDuration::from_millis(1), 16);
        let mut fresh = Simulator::new(b.build(), 0);
        fresh.set_logic(r, Box::new(RouterLogic::new()));
        fresh.set_logic(h2, Box::new(SinkHost::new()));
        fresh.restore(decoded).expect("restorable");
        prop_assert_eq!(fresh.state_hash(), ckpt.state_hash);
    }

    fn fastsim_snapshot_codec_round_trips(g) {
        let cfg = small_fastsim_cfg(g);
        let seed = g.any_u64();
        let steps = g.usize(0..200);
        let mut sim = AttackSim::new(&cfg, seed);
        for _ in 0..steps {
            if sim.step().is_none() {
                break;
            }
        }
        let snap = sim.snapshot();
        let bytes = attack_sim_snapshot_to_bytes(&snap);
        let back = attack_sim_snapshot_from_bytes(&bytes).unwrap();
        prop_assert_eq!(attack_sim_snapshot_to_bytes(&back), bytes);
        // Restoring the decoded snapshot is a state-hash fixed point.
        let restored = AttackSim::restore(&cfg, back);
        prop_assert_eq!(restored.state_hash(), sim.state_hash());
    }

    fn fastsim_record_verify_resume_round_trips(g) {
        let cfg = small_fastsim_cfg(g);
        let seed = g.any_u64();
        let ckpt_every = g.u64(1..50);
        let mut subject = FastSimSubject::new(cfg.clone(), seed);
        let digest = subject.config_digest();
        let rec = Recorder::new("fastsim-prop", digest, ckpt_every).record(&mut subject);
        prop_assert!(!rec.checkpoints.is_empty());
        // A fresh subject verifies the whole stream.
        let mut fresh = FastSimSubject::new(cfg.clone(), seed);
        let report = Replayer::new(&rec).verify(&mut fresh).expect("verifies");
        prop_assert_eq!(report.events, rec.events.len() as u64);
        prop_assert_eq!(report.final_hash, rec.final_hash);
        // Resuming from any checkpoint reaches the same final hash.
        let idx = g.usize(0..rec.checkpoints.len());
        let mut resumed = FastSimSubject::new(cfg, seed);
        let report = Replayer::new(&rec)
            .resume_from(&mut resumed, idx)
            .expect("resumes");
        prop_assert_eq!(report.final_hash, rec.final_hash);
    }
}
