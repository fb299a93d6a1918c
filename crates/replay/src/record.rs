//! The recording format: a compact, versioned binary event stream with
//! periodic state checkpoints, plus the byte codecs for restorable
//! checkpoint payloads.
//!
//! Everything is hand-rolled on two primitives — LEB128 varints for
//! counts/times and fixed 8-byte little-endian words for digests (which
//! are full-entropy and would *expand* under varint coding). No serde, no
//! external crates.
//!
//! ## Layout (version 1)
//!
//! ```text
//! magic      "DUIR"
//! version    varint (= 1)
//! stage      varint len + utf8
//! config     8-byte LE config digest
//! names      varint count, each varint len + utf8   (kinds + components)
//! events     varint count, each:
//!              varint delta-time (ns since previous event)
//!              varint name index (event kind)
//!              8-byte LE event digest
//! ckpts      varint count, each:
//!              varint event index (events applied before this point)
//!              varint absolute time (ns)
//!              8-byte LE state hash
//!              varint component count, each: varint name index + 8-byte digest
//!              payload flag (0/1) + varint len + bytes   (restorable state)
//! final      8-byte LE final state hash
//! ```

use crate::replay::ReplaySubject;
use dui_blink::fastsim::{AttackSimSnapshot, FlowState};
use dui_blink::selector::{Cell, SelectorSnapshot, SelectorStats};
use dui_netsim::event::SavedEvent;
use dui_netsim::link::{Dir, FaultConfig, LinkDirStats};
use dui_netsim::packet::{Addr, FlowKey, Header, Packet, Prefix, Proto, TcpFlags};
use dui_netsim::sim::{DirCheckpoint, EngineCheckpoint, LinkCheckpoint};
use dui_netsim::time::{SimDuration, SimTime};
use dui_netsim::topology::{LinkId, NodeId};

/// Recording format magic bytes.
pub const MAGIC: [u8; 4] = *b"DUIR";
/// Current format version.
pub const VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Varint + word primitives
// ---------------------------------------------------------------------------

/// Append `v` as an LEB128 varint.
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read an LEB128 varint at `*pos`, advancing it.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes
            .get(*pos)
            .ok_or_else(|| "varint: unexpected end of input".to_string())?;
        *pos += 1;
        if shift >= 64 {
            return Err("varint: overflows u64".into());
        }
        let payload = (b & 0x7f) as u64;
        if shift == 63 && payload > 1 {
            return Err("varint: overflows u64".into());
        }
        v |= payload << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn write_u64_le(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn read_u64_le(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let end = pos
        .checked_add(8)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| "u64: unexpected end of input".to_string())?;
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[*pos..end]);
    *pos = end;
    Ok(u64::from_le_bytes(w))
}

fn write_str(buf: &mut Vec<u8>, s: &str) {
    write_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn read_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    let len = read_varint(bytes, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| "string: unexpected end of input".to_string())?;
    let s = std::str::from_utf8(&bytes[*pos..end])
        .map_err(|e| format!("string: invalid utf8: {e}"))?
        .to_string();
    *pos = end;
    Ok(s)
}

fn write_opt_varint(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => buf.push(0),
        Some(v) => {
            buf.push(1);
            write_varint(buf, v);
        }
    }
}

fn read_opt_varint(bytes: &[u8], pos: &mut usize) -> Result<Option<u64>, String> {
    match read_u8(bytes, pos)? {
        0 => Ok(None),
        1 => Ok(Some(read_varint(bytes, pos)?)),
        t => Err(format!("option: bad tag {t}")),
    }
}

/// How many of `count` claimed items to reserve room for, when each
/// takes at least `min_size` encoded bytes and `remaining` bytes of input
/// are left: the claim, capped by what the input could actually hold. A
/// forged count cannot reserve more than the input justifies, and an
/// honest one reserves its exact size once.
fn bounded_capacity(count: usize, min_size: usize, remaining: usize) -> usize {
    count.min(remaining / min_size)
}

fn read_u8(bytes: &[u8], pos: &mut usize) -> Result<u8, String> {
    let b = *bytes
        .get(*pos)
        .ok_or_else(|| "u8: unexpected end of input".to_string())?;
    *pos += 1;
    Ok(b)
}

// ---------------------------------------------------------------------------
// Frames and the Recording container
// ---------------------------------------------------------------------------

/// One dispatched event: when, what kind, and the digest of its full
/// content (the event's index is its position in [`Recording::events`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventFrame {
    /// Absolute event time (ns).
    pub time: u64,
    /// Index into [`Recording::names`] naming the event kind.
    pub kind: u32,
    /// Digest of the event's content.
    pub digest: u64,
}

/// A periodic state checkpoint taken between events.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointFrame {
    /// Number of events applied before this checkpoint was taken.
    pub event_index: u64,
    /// Simulated time at the checkpoint (ns).
    pub time: u64,
    /// The subject's full state hash.
    pub state_hash: u64,
    /// Per-component sub-digests `(name index, digest)` — what lets
    /// divergence reports *name* the mismatching subsystem.
    pub components: Vec<(u32, u64)>,
    /// Restorable serialized state, when the subject supports it.
    pub payload: Option<Vec<u8>>,
}

/// One run's complete recording.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Recording {
    /// Which experiment stage produced this (e.g. `fig2`).
    pub stage: String,
    /// Digest of the run configuration (seed included); replaying against
    /// a differently-configured subject is refused up front.
    pub config_digest: u64,
    /// Interned names: event kinds and checkpoint component names.
    pub names: Vec<String>,
    /// The event stream, in dispatch order.
    pub events: Vec<EventFrame>,
    /// Periodic checkpoints, in event order.
    pub checkpoints: Vec<CheckpointFrame>,
    /// State hash after the final event.
    pub final_hash: u64,
}

impl Recording {
    /// Intern `name`, returning its table index.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u32;
        }
        self.names.push(name.to_string());
        (self.names.len() - 1) as u32
    }

    /// Resolve a name index (`"?"` if out of range — a corrupt index is
    /// reported, not panicked on).
    pub fn name(&self, idx: u32) -> &str {
        self.names.get(idx as usize).map_or("?", |s| s.as_str())
    }

    /// Serialize to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.events.len() * 12);
        buf.extend_from_slice(&MAGIC);
        write_varint(&mut buf, VERSION);
        write_str(&mut buf, &self.stage);
        write_u64_le(&mut buf, self.config_digest);
        write_varint(&mut buf, self.names.len() as u64);
        for n in &self.names {
            write_str(&mut buf, n);
        }
        write_varint(&mut buf, self.events.len() as u64);
        let mut prev = 0u64;
        for e in &self.events {
            write_varint(&mut buf, e.time.saturating_sub(prev));
            prev = e.time;
            write_varint(&mut buf, e.kind as u64);
            write_u64_le(&mut buf, e.digest);
        }
        write_varint(&mut buf, self.checkpoints.len() as u64);
        for c in &self.checkpoints {
            write_varint(&mut buf, c.event_index);
            write_varint(&mut buf, c.time);
            write_u64_le(&mut buf, c.state_hash);
            write_varint(&mut buf, c.components.len() as u64);
            for (name, digest) in &c.components {
                write_varint(&mut buf, *name as u64);
                write_u64_le(&mut buf, *digest);
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
        write_u64_le(&mut buf, self.final_hash);
        buf
    }

    /// Parse the versioned binary format (strict: trailing bytes are an
    /// error).
    pub fn from_bytes(bytes: &[u8]) -> Result<Recording, String> {
        let mut pos = 0usize;
        if bytes.len() < 4 || bytes[..4] != MAGIC {
            return Err("not a DUIR recording (bad magic)".into());
        }
        pos += 4;
        let version = read_varint(bytes, &mut pos)?;
        if version != VERSION {
            return Err(format!("unsupported recording version {version}"));
        }
        let stage = read_str(bytes, &mut pos)?;
        let config_digest = read_u64_le(bytes, &mut pos)?;
        let name_count = read_varint(bytes, &mut pos)? as usize;
        // Minimum encoded sizes: a name is a 1-byte length; an event a
        // 1-byte delta, a 1-byte kind and an 8-byte digest; a checkpoint
        // two 1-byte varints, an 8-byte hash, a 1-byte component count and
        // a 1-byte payload flag; a component a 1-byte name and an 8-byte
        // digest.
        let mut names = Vec::with_capacity(bounded_capacity(name_count, 1, bytes.len() - pos));
        for _ in 0..name_count {
            names.push(read_str(bytes, &mut pos)?);
        }
        let event_count = read_varint(bytes, &mut pos)? as usize;
        let mut events = Vec::with_capacity(bounded_capacity(event_count, 10, bytes.len() - pos));
        let mut prev = 0u64;
        for _ in 0..event_count {
            let dt = read_varint(bytes, &mut pos)?;
            let time = prev
                .checked_add(dt)
                .ok_or_else(|| "event time overflows".to_string())?;
            prev = time;
            let kind = read_varint(bytes, &mut pos)? as u32;
            let digest = read_u64_le(bytes, &mut pos)?;
            events.push(EventFrame { time, kind, digest });
        }
        let ckpt_count = read_varint(bytes, &mut pos)? as usize;
        let mut checkpoints =
            Vec::with_capacity(bounded_capacity(ckpt_count, 12, bytes.len() - pos));
        for _ in 0..ckpt_count {
            let event_index = read_varint(bytes, &mut pos)?;
            let time = read_varint(bytes, &mut pos)?;
            let state_hash = read_u64_le(bytes, &mut pos)?;
            let comp_count = read_varint(bytes, &mut pos)? as usize;
            let mut components =
                Vec::with_capacity(bounded_capacity(comp_count, 9, bytes.len() - pos));
            for _ in 0..comp_count {
                let name = read_varint(bytes, &mut pos)? as u32;
                let digest = read_u64_le(bytes, &mut pos)?;
                components.push((name, digest));
            }
            let payload = match read_u8(bytes, &mut pos)? {
                0 => None,
                1 => {
                    let len = read_varint(bytes, &mut pos)? as usize;
                    let end = pos
                        .checked_add(len)
                        .filter(|&e| e <= bytes.len())
                        .ok_or_else(|| "payload: unexpected end of input".to_string())?;
                    let p = bytes[pos..end].to_vec();
                    pos = end;
                    Some(p)
                }
                t => return Err(format!("payload: bad flag {t}")),
            };
            checkpoints.push(CheckpointFrame {
                event_index,
                time,
                state_hash,
                components,
                payload,
            });
        }
        let final_hash = read_u64_le(bytes, &mut pos)?;
        if pos != bytes.len() {
            return Err(format!(
                "trailing garbage: {} bytes past end of recording",
                bytes.len() - pos
            ));
        }
        Ok(Recording {
            stage,
            config_digest,
            names,
            events,
            checkpoints,
            final_hash,
        })
    }

    /// Write to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Read from a file.
    pub fn load(path: &std::path::Path) -> Result<Recording, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Recording::from_bytes(&bytes)
    }
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

/// Drives a [`ReplaySubject`] to completion, producing a [`Recording`]
/// with a checkpoint every `ckpt_every` events (plus one final
/// checkpoint after the last event).
pub struct Recorder {
    rec: Recording,
    ckpt_every: u64,
}

impl Recorder {
    /// New recorder for `stage` (config digest binds the recording to
    /// one exact configuration + seed).
    pub fn new(stage: &str, config_digest: u64, ckpt_every: u64) -> Self {
        assert!(ckpt_every > 0, "checkpoint cadence must be positive");
        Recorder {
            rec: Recording {
                stage: stage.to_string(),
                config_digest,
                ..Recording::default()
            },
            ckpt_every,
        }
    }

    /// Record one checkpoint of `subject`, returning its state hash.
    fn take_checkpoint<S: ReplaySubject + ?Sized>(&mut self, subject: &S, event_index: u64) -> u64 {
        let (state_hash, components, payload) = subject.checkpoint_parts();
        let components = components
            .into_iter()
            .map(|(name, digest)| (self.rec.intern(name), digest))
            .collect();
        self.rec.checkpoints.push(CheckpointFrame {
            event_index,
            time: subject.now_ns(),
            state_hash,
            components,
            payload,
        });
        state_hash
    }

    /// Run `subject` to completion, recording every event and a
    /// checkpoint every `ckpt_every` events.
    ///
    /// A subject's terminal `step()` (the one returning `None`) may
    /// itself mutate state — the packet engine advances its clock to the
    /// limit, the fast simulation flushes its tail samples. The final
    /// checkpoint is therefore always taken *after* that terminal step,
    /// replacing any boundary checkpoint that landed on the same event
    /// index, and the [`Replayer`](crate::replay::Replayer) performs the
    /// terminal step before checking it.
    pub fn record<S: ReplaySubject + ?Sized>(mut self, subject: &mut S) -> Recording {
        let mut n = 0u64;
        // Event kinds are a handful of `&'static str` labels: resolve
        // each distinct label to its name index once, by address.
        let mut kinds: Vec<(&'static str, u32)> = Vec::new();
        self.take_checkpoint(subject, 0);
        while let Some(step) = subject.step() {
            let kind = match kinds.iter().find(|(k, _)| std::ptr::eq(*k, step.kind)) {
                Some(&(_, idx)) => idx,
                None => {
                    let idx = self.rec.intern(step.kind);
                    kinds.push((step.kind, idx));
                    idx
                }
            };
            self.rec.events.push(EventFrame {
                time: step.time,
                kind,
                digest: step.digest,
            });
            n += 1;
            if n % self.ckpt_every == 0 {
                self.take_checkpoint(subject, n);
            }
        }
        // The terminal step already ran; a boundary checkpoint taken just
        // before it would capture pre-terminal state under the same event
        // index. Keep exactly one post-terminal checkpoint at index n.
        if self
            .rec
            .checkpoints
            .last()
            .is_some_and(|c| c.event_index == n)
        {
            self.rec.checkpoints.pop();
        }
        // No step runs between the final checkpoint and the end of the
        // run, so its hash is the final hash.
        self.rec.final_hash = self.take_checkpoint(subject, n);
        self.rec
    }
}

// ---------------------------------------------------------------------------
// Checkpoint payload codecs
// ---------------------------------------------------------------------------

fn write_flow_key(buf: &mut Vec<u8>, k: &FlowKey) {
    write_varint(buf, k.src.0 as u64);
    write_varint(buf, k.dst.0 as u64);
    write_varint(buf, k.sport as u64);
    write_varint(buf, k.dport as u64);
    buf.push(k.proto.code());
}

fn read_flow_key(bytes: &[u8], pos: &mut usize) -> Result<FlowKey, String> {
    let src = Addr(read_varint(bytes, pos)? as u32);
    let dst = Addr(read_varint(bytes, pos)? as u32);
    let sport = read_varint(bytes, pos)? as u16;
    let dport = read_varint(bytes, pos)? as u16;
    let code = read_u8(bytes, pos)?;
    let proto = Proto::from_code(code).ok_or_else(|| format!("bad proto code {code}"))?;
    Ok(FlowKey {
        src,
        dst,
        sport,
        dport,
        proto,
    })
}

fn write_header(buf: &mut Vec<u8>, h: &Header) {
    match h {
        Header::Tcp {
            seq,
            ack,
            flags,
            window,
        } => {
            buf.push(0);
            write_varint(buf, *seq as u64);
            write_varint(buf, *ack as u64);
            buf.push(flags.bits());
            write_varint(buf, *window as u64);
        }
        Header::Udp => buf.push(1),
        Header::IcmpEchoRequest { ident, seq } => {
            buf.push(2);
            write_varint(buf, *ident as u64);
            write_varint(buf, *seq as u64);
        }
        Header::IcmpEchoReply { ident, seq } => {
            buf.push(3);
            write_varint(buf, *ident as u64);
            write_varint(buf, *seq as u64);
        }
        Header::IcmpTimeExceeded {
            reported_by,
            probe_ident,
            probe_seq,
        } => {
            buf.push(4);
            write_varint(buf, reported_by.0 as u64);
            write_varint(buf, *probe_ident as u64);
            write_varint(buf, *probe_seq as u64);
        }
    }
}

fn read_header(bytes: &[u8], pos: &mut usize) -> Result<Header, String> {
    Ok(match read_u8(bytes, pos)? {
        0 => Header::Tcp {
            seq: read_varint(bytes, pos)? as u32,
            ack: read_varint(bytes, pos)? as u32,
            flags: TcpFlags::from_bits(read_u8(bytes, pos)?),
            window: read_varint(bytes, pos)? as u32,
        },
        1 => Header::Udp,
        2 => Header::IcmpEchoRequest {
            ident: read_varint(bytes, pos)? as u16,
            seq: read_varint(bytes, pos)? as u16,
        },
        3 => Header::IcmpEchoReply {
            ident: read_varint(bytes, pos)? as u16,
            seq: read_varint(bytes, pos)? as u16,
        },
        4 => Header::IcmpTimeExceeded {
            reported_by: Addr(read_varint(bytes, pos)? as u32),
            probe_ident: read_varint(bytes, pos)? as u16,
            probe_seq: read_varint(bytes, pos)? as u16,
        },
        t => return Err(format!("bad header tag {t}")),
    })
}

/// Encode one packet.
pub fn write_packet(buf: &mut Vec<u8>, p: &Packet) {
    write_varint(buf, p.id);
    write_flow_key(buf, &p.key);
    write_header(buf, &p.header);
    write_varint(buf, p.size as u64);
    buf.push(p.ttl);
    write_varint(buf, p.sent_at.0);
    write_varint(buf, p.payload as u64);
}

/// Decode one packet.
pub fn read_packet(bytes: &[u8], pos: &mut usize) -> Result<Packet, String> {
    Ok(Packet {
        id: read_varint(bytes, pos)?,
        key: read_flow_key(bytes, pos)?,
        header: read_header(bytes, pos)?,
        size: read_varint(bytes, pos)? as u32,
        ttl: read_u8(bytes, pos)?,
        sent_at: SimTime(read_varint(bytes, pos)?),
        payload: read_varint(bytes, pos)? as u32,
    })
}

fn write_event(buf: &mut Vec<u8>, e: &SavedEvent) {
    match e {
        SavedEvent::Deliver { node, pkt } => {
            buf.push(0);
            write_varint(buf, node.0 as u64);
            write_packet(buf, pkt);
        }
        SavedEvent::TxComplete { link, dir } => {
            buf.push(1);
            write_varint(buf, link.0 as u64);
            buf.push((*dir == Dir::BtoA) as u8);
        }
        SavedEvent::Timer { node, token } => {
            buf.push(2);
            write_varint(buf, node.0 as u64);
            write_varint(buf, *token);
        }
        SavedEvent::Offer { link, dir, pkt } => {
            buf.push(3);
            write_varint(buf, link.0 as u64);
            buf.push((*dir == Dir::BtoA) as u8);
            write_packet(buf, pkt);
        }
    }
}

fn read_dir(bytes: &[u8], pos: &mut usize) -> Result<Dir, String> {
    match read_u8(bytes, pos)? {
        0 => Ok(Dir::AtoB),
        1 => Ok(Dir::BtoA),
        t => Err(format!("bad dir tag {t}")),
    }
}

fn read_event(bytes: &[u8], pos: &mut usize) -> Result<SavedEvent, String> {
    Ok(match read_u8(bytes, pos)? {
        0 => SavedEvent::Deliver {
            node: NodeId(read_varint(bytes, pos)? as usize),
            pkt: read_packet(bytes, pos)?,
        },
        1 => SavedEvent::TxComplete {
            link: LinkId(read_varint(bytes, pos)? as usize),
            dir: read_dir(bytes, pos)?,
        },
        2 => SavedEvent::Timer {
            node: NodeId(read_varint(bytes, pos)? as usize),
            token: read_varint(bytes, pos)?,
        },
        3 => SavedEvent::Offer {
            link: LinkId(read_varint(bytes, pos)? as usize),
            dir: read_dir(bytes, pos)?,
            pkt: read_packet(bytes, pos)?,
        },
        t => return Err(format!("bad event tag {t}")),
    })
}

fn write_fault(buf: &mut Vec<u8>, f: &FaultConfig) {
    write_u64_le(buf, f.drop_prob.to_bits());
    write_opt_varint(buf, f.jitter_max.map(|j| j.0));
}

fn read_fault(bytes: &[u8], pos: &mut usize) -> Result<FaultConfig, String> {
    Ok(FaultConfig {
        drop_prob: f64::from_bits(read_u64_le(bytes, pos)?),
        jitter_max: read_opt_varint(bytes, pos)?.map(SimDuration),
    })
}

fn write_dir_ckpt(buf: &mut Vec<u8>, d: &DirCheckpoint) {
    write_varint(buf, d.queue.len() as u64);
    for p in &d.queue {
        write_packet(buf, p);
    }
    match &d.in_flight {
        None => buf.push(0),
        Some(p) => {
            buf.push(1);
            write_packet(buf, p);
        }
    }
    write_fault(buf, &d.fault);
}

fn read_dir_ckpt(bytes: &[u8], pos: &mut usize) -> Result<DirCheckpoint, String> {
    let n = read_varint(bytes, pos)? as usize;
    let mut queue = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        queue.push(read_packet(bytes, pos)?);
    }
    let in_flight = match read_u8(bytes, pos)? {
        0 => None,
        1 => Some(read_packet(bytes, pos)?),
        t => return Err(format!("bad in-flight flag {t}")),
    };
    Ok(DirCheckpoint {
        queue,
        in_flight,
        fault: read_fault(bytes, pos)?,
    })
}

fn write_link_stats(buf: &mut Vec<u8>, s: &LinkDirStats) {
    for v in [
        s.offered,
        s.delivered,
        s.bytes_delivered,
        s.dropped_queue,
        s.dropped_tap,
        s.dropped_fault,
    ] {
        write_varint(buf, v);
    }
}

fn read_link_stats(bytes: &[u8], pos: &mut usize) -> Result<LinkDirStats, String> {
    Ok(LinkDirStats {
        offered: read_varint(bytes, pos)?,
        delivered: read_varint(bytes, pos)?,
        bytes_delivered: read_varint(bytes, pos)?,
        dropped_queue: read_varint(bytes, pos)?,
        dropped_tap: read_varint(bytes, pos)?,
        dropped_fault: read_varint(bytes, pos)?,
    })
}

/// Encode a full engine checkpoint.
pub fn engine_checkpoint_to_bytes(c: &EngineCheckpoint) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    write_varint(&mut buf, c.now.0);
    for w in c.rng {
        write_u64_le(&mut buf, w);
    }
    write_varint(&mut buf, c.next_pkt_id);
    buf.push(c.started as u8);
    write_varint(&mut buf, c.events.len() as u64);
    for (t, e) in &c.events {
        write_varint(&mut buf, t.0);
        write_event(&mut buf, e);
    }
    write_varint(&mut buf, c.links.len() as u64);
    for l in &c.links {
        buf.push(l.up as u8);
        write_dir_ckpt(&mut buf, &l.ab);
        write_dir_ckpt(&mut buf, &l.ba);
        write_link_stats(&mut buf, &l.stats_ab);
        write_link_stats(&mut buf, &l.stats_ba);
    }
    write_varint(&mut buf, c.logics.len() as u64);
    for logic in &c.logics {
        match logic {
            None => buf.push(0),
            Some(b) => {
                buf.push(1);
                write_varint(&mut buf, b.len() as u64);
                buf.extend_from_slice(b);
            }
        }
    }
    write_varint(&mut buf, c.routing.len() as u64);
    for row in &c.routing {
        write_varint(&mut buf, row.len() as u64);
        for hop in row {
            write_opt_varint(&mut buf, hop.map(|h| h.0 as u64));
        }
    }
    write_varint(&mut buf, c.prefixes.len() as u64);
    for (p, node) in &c.prefixes {
        write_varint(&mut buf, p.addr.0 as u64);
        buf.push(p.len);
        write_varint(&mut buf, node.0 as u64);
    }
    write_u64_le(&mut buf, c.state_hash);
    buf
}

/// Decode a full engine checkpoint (strict: trailing bytes are an error).
pub fn engine_checkpoint_from_bytes(bytes: &[u8]) -> Result<EngineCheckpoint, String> {
    let mut pos = 0usize;
    let now = SimTime(read_varint(bytes, &mut pos)?);
    let mut rng = [0u64; 4];
    for w in &mut rng {
        *w = read_u64_le(bytes, &mut pos)?;
    }
    let next_pkt_id = read_varint(bytes, &mut pos)?;
    let started = read_u8(bytes, &mut pos)? != 0;
    let n_events = read_varint(bytes, &mut pos)? as usize;
    // Minimum encoded size of an event: a 1-byte time, a 1-byte tag and
    // two 1-byte fields (a timer's node and token, or a transmission's
    // link and direction).
    let mut events = Vec::with_capacity(bounded_capacity(n_events, 4, bytes.len() - pos));
    for _ in 0..n_events {
        let t = SimTime(read_varint(bytes, &mut pos)?);
        events.push((t, read_event(bytes, &mut pos)?));
    }
    let n_links = read_varint(bytes, &mut pos)? as usize;
    let mut links = Vec::with_capacity(n_links.min(1 << 16));
    for _ in 0..n_links {
        let up = read_u8(bytes, &mut pos)? != 0;
        let ab = read_dir_ckpt(bytes, &mut pos)?;
        let ba = read_dir_ckpt(bytes, &mut pos)?;
        let stats_ab = read_link_stats(bytes, &mut pos)?;
        let stats_ba = read_link_stats(bytes, &mut pos)?;
        links.push(LinkCheckpoint {
            up,
            ab,
            ba,
            stats_ab,
            stats_ba,
        });
    }
    let n_logics = read_varint(bytes, &mut pos)? as usize;
    let mut logics = Vec::with_capacity(n_logics.min(1 << 16));
    for _ in 0..n_logics {
        logics.push(match read_u8(bytes, &mut pos)? {
            0 => None,
            1 => {
                let len = read_varint(bytes, &mut pos)? as usize;
                let end = pos
                    .checked_add(len)
                    .filter(|&e| e <= bytes.len())
                    .ok_or_else(|| "logic state: unexpected end of input".to_string())?;
                let b = bytes[pos..end].to_vec();
                pos = end;
                Some(b)
            }
            t => return Err(format!("bad logic flag {t}")),
        });
    }
    let n_rows = read_varint(bytes, &mut pos)? as usize;
    let mut routing = Vec::with_capacity(n_rows.min(1 << 16));
    for _ in 0..n_rows {
        let n_cols = read_varint(bytes, &mut pos)? as usize;
        let mut row = Vec::with_capacity(n_cols.min(1 << 16));
        for _ in 0..n_cols {
            row.push(read_opt_varint(bytes, &mut pos)?.map(|h| NodeId(h as usize)));
        }
        routing.push(row);
    }
    let n_prefixes = read_varint(bytes, &mut pos)? as usize;
    let mut prefixes = Vec::with_capacity(n_prefixes.min(1 << 16));
    for _ in 0..n_prefixes {
        let addr = Addr(read_varint(bytes, &mut pos)? as u32);
        let len = read_u8(bytes, &mut pos)?;
        if len > 32 {
            return Err(format!("bad prefix length {len}"));
        }
        let node = NodeId(read_varint(bytes, &mut pos)? as usize);
        prefixes.push((Prefix::new(addr, len), node));
    }
    let state_hash = read_u64_le(bytes, &mut pos)?;
    if pos != bytes.len() {
        return Err(format!(
            "trailing garbage: {} bytes past engine checkpoint",
            bytes.len() - pos
        ));
    }
    Ok(EngineCheckpoint {
        now,
        rng,
        next_pkt_id,
        started,
        events,
        links,
        logics,
        routing,
        prefixes,
        state_hash,
    })
}

fn write_cell(buf: &mut Vec<u8>, c: &Cell) {
    write_flow_key(buf, &c.flow);
    write_varint(buf, c.last_seen.0);
    write_varint(buf, c.sampled_at.0);
    write_varint(buf, c.last_seq as u64);
    write_opt_varint(buf, c.last_retx.map(|t| t.0));
    write_opt_varint(buf, c.last_retx_gap.map(|g| g.0));
}

fn read_cell(bytes: &[u8], pos: &mut usize) -> Result<Cell, String> {
    Ok(Cell {
        flow: read_flow_key(bytes, pos)?,
        last_seen: SimTime(read_varint(bytes, pos)?),
        sampled_at: SimTime(read_varint(bytes, pos)?),
        last_seq: read_varint(bytes, pos)? as u32,
        last_retx: read_opt_varint(bytes, pos)?.map(SimTime),
        last_retx_gap: read_opt_varint(bytes, pos)?.map(SimDuration),
    })
}

fn write_selector_snapshot(buf: &mut Vec<u8>, s: &SelectorSnapshot) {
    write_varint(buf, s.cells.len() as u64);
    for cell in &s.cells {
        match cell {
            None => buf.push(0),
            Some(c) => {
                buf.push(1);
                write_cell(buf, c);
            }
        }
    }
    write_varint(buf, s.last_reset.0);
    write_varint(buf, s.resets);
    for v in [
        s.stats.sampled,
        s.stats.evicted_fin,
        s.stats.evicted_idle,
        s.stats.evicted_reset,
        s.stats.retransmissions,
        s.stats.not_monitored,
    ] {
        write_varint(buf, v);
    }
    match &s.residencies {
        None => buf.push(0),
        Some(r) => {
            buf.push(1);
            write_varint(buf, r.len() as u64);
            for d in r {
                write_varint(buf, d.0);
            }
        }
    }
}

fn read_selector_snapshot(bytes: &[u8], pos: &mut usize) -> Result<SelectorSnapshot, String> {
    let n = read_varint(bytes, pos)? as usize;
    let mut cells = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        cells.push(match read_u8(bytes, pos)? {
            0 => None,
            1 => Some(read_cell(bytes, pos)?),
            t => return Err(format!("bad cell flag {t}")),
        });
    }
    let last_reset = SimTime(read_varint(bytes, pos)?);
    let resets = read_varint(bytes, pos)?;
    let stats = SelectorStats {
        sampled: read_varint(bytes, pos)?,
        evicted_fin: read_varint(bytes, pos)?,
        evicted_idle: read_varint(bytes, pos)?,
        evicted_reset: read_varint(bytes, pos)?,
        retransmissions: read_varint(bytes, pos)?,
        not_monitored: read_varint(bytes, pos)?,
    };
    let residencies = match read_u8(bytes, pos)? {
        0 => None,
        1 => {
            let n = read_varint(bytes, pos)? as usize;
            // One 1-byte varint per residency at least.
            let mut r = Vec::with_capacity(bounded_capacity(n, 1, bytes.len() - *pos));
            for _ in 0..n {
                r.push(SimDuration(read_varint(bytes, pos)?));
            }
            Some(r)
        }
        t => return Err(format!("bad residencies flag {t}")),
    };
    Ok(SelectorSnapshot {
        cells,
        last_reset,
        resets,
        stats,
        residencies,
    })
}

/// Encode a fast-simulation checkpoint.
pub fn attack_sim_snapshot_to_bytes(s: &AttackSimSnapshot) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    for w in s.rng {
        write_u64_le(&mut buf, w);
    }
    write_selector_snapshot(&mut buf, &s.selector);
    write_varint(&mut buf, s.flows.len() as u64);
    for f in &s.flows {
        write_flow_key(&mut buf, &f.key);
        write_varint(&mut buf, f.seq as u64);
        write_opt_varint(&mut buf, f.dies_at.map(|t| t.0));
    }
    write_varint(&mut buf, s.sport as u64);
    write_varint(&mut buf, s.schedule.len() as u64);
    for (t, i) in &s.schedule {
        write_varint(&mut buf, t.0);
        write_varint(&mut buf, *i as u64);
    }
    write_varint(&mut buf, s.series.len() as u64);
    for (t, v) in &s.series {
        write_u64_le(&mut buf, t.to_bits());
        write_u64_le(&mut buf, v.to_bits());
    }
    write_varint(&mut buf, s.next_sample.0);
    match s.takeover_time {
        None => buf.push(0),
        Some(t) => {
            buf.push(1);
            write_u64_le(&mut buf, t.to_bits());
        }
    }
    write_varint(&mut buf, s.packets);
    buf.push(s.done as u8);
    buf
}

/// Decode a fast-simulation checkpoint (strict: trailing bytes are an
/// error).
pub fn attack_sim_snapshot_from_bytes(bytes: &[u8]) -> Result<AttackSimSnapshot, String> {
    let mut pos = 0usize;
    let mut rng = [0u64; 4];
    for w in &mut rng {
        *w = read_u64_le(bytes, &mut pos)?;
    }
    let selector = read_selector_snapshot(bytes, &mut pos)?;
    let n_flows = read_varint(bytes, &mut pos)? as usize;
    // Minimum encoded sizes: a flow is a 5-byte key, a 1-byte sequence
    // number and a 1-byte option tag; a schedule entry two 1-byte
    // varints; a series point two 8-byte floats.
    let mut flows = Vec::with_capacity(bounded_capacity(n_flows, 7, bytes.len() - pos));
    for _ in 0..n_flows {
        flows.push(FlowState {
            key: read_flow_key(bytes, &mut pos)?,
            seq: read_varint(bytes, &mut pos)? as u32,
            dies_at: read_opt_varint(bytes, &mut pos)?.map(SimTime),
        });
    }
    let sport = read_varint(bytes, &mut pos)? as u16;
    let n_sched = read_varint(bytes, &mut pos)? as usize;
    let mut schedule = Vec::with_capacity(bounded_capacity(n_sched, 2, bytes.len() - pos));
    for _ in 0..n_sched {
        let t = SimTime(read_varint(bytes, &mut pos)?);
        let i = read_varint(bytes, &mut pos)? as usize;
        schedule.push((t, i));
    }
    let n_series = read_varint(bytes, &mut pos)? as usize;
    let mut series = Vec::with_capacity(bounded_capacity(n_series, 16, bytes.len() - pos));
    for _ in 0..n_series {
        let t = f64::from_bits(read_u64_le(bytes, &mut pos)?);
        let v = f64::from_bits(read_u64_le(bytes, &mut pos)?);
        series.push((t, v));
    }
    let next_sample = SimTime(read_varint(bytes, &mut pos)?);
    let takeover_time = match read_u8(bytes, &mut pos)? {
        0 => None,
        1 => Some(f64::from_bits(read_u64_le(bytes, &mut pos)?)),
        t => return Err(format!("bad takeover flag {t}")),
    };
    let packets = read_varint(bytes, &mut pos)?;
    let done = read_u8(bytes, &mut pos)? != 0;
    if pos != bytes.len() {
        return Err(format!(
            "trailing garbage: {} bytes past fastsim snapshot",
            bytes.len() - pos
        ));
    }
    Ok(AttackSimSnapshot {
        rng,
        selector,
        flows,
        sport,
        schedule,
        series,
        next_sample,
        takeover_time,
        packets,
        done,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert!(read_varint(&[0x80], &mut pos).is_err());
        let mut pos = 0;
        assert!(read_varint(&[0xff; 11], &mut pos).is_err());
    }

    #[test]
    fn recording_round_trips() {
        let mut rec = Recording {
            stage: "fig2".into(),
            config_digest: 0xDEAD_BEEF,
            final_hash: 42,
            ..Recording::default()
        };
        let k = rec.intern("packet");
        rec.events.push(EventFrame {
            time: 100,
            kind: k,
            digest: 7,
        });
        rec.events.push(EventFrame {
            time: 250,
            kind: k,
            digest: u64::MAX,
        });
        let c = rec.intern("rng");
        rec.checkpoints.push(CheckpointFrame {
            event_index: 2,
            time: 250,
            state_hash: 9,
            components: vec![(c, 11)],
            payload: Some(vec![1, 2, 3]),
        });
        let bytes = rec.to_bytes();
        let back = Recording::from_bytes(&bytes).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn recording_rejects_corruption() {
        let rec = Recording {
            stage: "x".into(),
            ..Recording::default()
        };
        let mut bytes = rec.to_bytes();
        bytes[0] = b'X';
        assert!(Recording::from_bytes(&bytes).is_err(), "bad magic");
        let mut bytes = rec.to_bytes();
        bytes.push(0);
        assert!(Recording::from_bytes(&bytes).is_err(), "trailing bytes");
        assert!(Recording::from_bytes(&rec.to_bytes()[..5]).is_err(), "truncated");
    }

    #[test]
    fn forged_counts_fail_without_reserving_for_them() {
        // A 20-odd-byte header claiming 2^40 events (then checkpoints,
        // then components) must be refused as truncated; the reservation
        // is bounded by the bytes actually present.
        let mut head = MAGIC.to_vec();
        write_varint(&mut head, VERSION);
        write_str(&mut head, "x");
        write_u64_le(&mut head, 0);
        write_varint(&mut head, 0); // names
        let mut events = head.clone();
        write_varint(&mut events, 1 << 40);
        assert!(Recording::from_bytes(&events).is_err(), "events");
        let mut ckpts = head.clone();
        write_varint(&mut ckpts, 0);
        write_varint(&mut ckpts, 1 << 40);
        assert!(Recording::from_bytes(&ckpts).is_err(), "checkpoints");
        let mut comps = head;
        write_varint(&mut comps, 0);
        write_varint(&mut comps, 1);
        for v in [0, 0] {
            write_varint(&mut comps, v);
        }
        write_u64_le(&mut comps, 0);
        write_varint(&mut comps, 1 << 40);
        assert!(Recording::from_bytes(&comps).is_err(), "components");
        assert_eq!(bounded_capacity(1 << 40, 10, 20), 2);
        assert_eq!(bounded_capacity(3, 10, 1_000), 3, "honest counts reserve exactly");
    }

    #[test]
    fn forged_payload_counts_fail_without_reserving_for_them() {
        // Each payload reader, handed a tiny buffer whose count field
        // claims 2^40 elements, must refuse it as truncated. The same
        // prefix with every count zero decodes, so each forged buffer is
        // well-formed up to its count.
        fn truncated(r: Result<impl std::fmt::Debug, String>) -> bool {
            r.is_err_and(|e| e.contains("unexpected end of input"))
        }
        let forged = |prefix: &[u8]| {
            let mut b = prefix.to_vec();
            write_varint(&mut b, 1 << 40);
            b
        };

        let mut engine = vec![0u8]; // now
        engine.extend([0u8; 32]); // rng
        engine.extend([0, 0]); // next_pkt_id, started
        assert!(truncated(engine_checkpoint_from_bytes(&forged(&engine))), "events");
        engine.extend([0, 0, 0, 0]); // events, links, logics, routing
        engine.push(0); // prefixes
        engine.extend([0u8; 8]); // state hash
        assert!(engine_checkpoint_from_bytes(&engine).is_ok());

        let mut fastsim = vec![0u8; 32]; // rng
        fastsim.extend([0u8; 9]); // no cells, last_reset, resets, six stats
        fastsim.push(1); // residencies present
        assert!(truncated(attack_sim_snapshot_from_bytes(&forged(&fastsim))), "residencies");
        fastsim.push(0); // zero residencies
        assert!(truncated(attack_sim_snapshot_from_bytes(&forged(&fastsim))), "flows");
        fastsim.extend([0, 0]); // flows, sport
        assert!(truncated(attack_sim_snapshot_from_bytes(&forged(&fastsim))), "schedule");
        fastsim.push(0); // schedule
        assert!(truncated(attack_sim_snapshot_from_bytes(&forged(&fastsim))), "series");
        fastsim.extend([0, 0, 0, 0, 0]); // series, next_sample, takeover, packets, done
        assert!(attack_sim_snapshot_from_bytes(&fastsim).is_ok());
    }

    #[test]
    fn packet_codec_round_trips_all_headers() {
        let key = FlowKey::tcp(Addr::new(10, 0, 0, 1), 443, Addr::new(10, 0, 0, 2), 5001);
        let headers = [
            Header::Tcp {
                seq: 1,
                ack: u32::MAX,
                flags: TcpFlags::from_bits(0b1010),
                window: 65_535,
            },
            Header::Udp,
            Header::IcmpEchoRequest { ident: 1, seq: 2 },
            Header::IcmpEchoReply { ident: 3, seq: 4 },
            Header::IcmpTimeExceeded {
                reported_by: Addr::new(9, 9, 9, 9),
                probe_ident: 5,
                probe_seq: 6,
            },
        ];
        for h in headers {
            let p = Packet {
                id: 77,
                key,
                header: h,
                size: 1500,
                ttl: 63,
                sent_at: SimTime(123_456),
                payload: 1460,
            };
            let mut buf = Vec::new();
            write_packet(&mut buf, &p);
            let mut pos = 0;
            assert_eq!(read_packet(&buf, &mut pos).unwrap(), p);
            assert_eq!(pos, buf.len());
        }
    }
}
