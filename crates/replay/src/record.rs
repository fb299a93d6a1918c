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
//!
//! In memory, a [`Recording`] holds its event section exactly as laid
//! out above (an [`EventLog`]), so encoding copies it and decoding
//! validates it once and copies it.

use crate::replay::ReplaySubject;
use dui_blink::fastsim::{AttackSimSnapshot, FlowState};
use dui_blink::selector::{Cell, SelectorSnapshot, SelectorStats};
use dui_netsim::event::SavedEvent;
use dui_netsim::link::{Dir, FaultConfig, LinkDirStats};
use dui_netsim::packet::{Addr, FlowKey, Header, Packet, Prefix, Proto, TcpFlags};
use dui_netsim::sim::{DirCheckpoint, EngineCheckpoint, LinkCheckpoint};
use dui_netsim::time::{SimDuration, SimTime};
use dui_netsim::topology::{LinkId, NodeId};
use std::io::Write;

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

/// Why a varint or an event frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireError {
    /// The input ended inside the item.
    Truncated,
    /// The varint's value does not fit in a `u64`.
    Overflow,
    /// The varint has a redundant high zero byte: a value has exactly
    /// one encoding, so an overlong one is refused.
    Overlong,
    /// An event's kind index does not fit in a `u32`.
    KindOverflow,
    /// An event's absolute time does not fit in a `u64`.
    TimeOverflow,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WireError::Truncated => "unexpected end of input",
            WireError::Overflow => "overflows u64",
            WireError::Overlong => "overlong encoding",
            WireError::KindOverflow => "kind overflows u32",
            WireError::TimeOverflow => "time overflows",
        })
    }
}

/// Take an LEB128 varint off the front of `bytes`. One- and two-byte
/// values, nearly all event deltas and kinds, take the first branches.
#[inline]
fn take_varint(bytes: &mut &[u8]) -> Result<u64, WireError> {
    match **bytes {
        [b0, ref rest @ ..] if b0 < 0x80 => {
            *bytes = rest;
            Ok(b0 as u64)
        }
        [b0, b1, ref rest @ ..] if b1 < 0x80 && b1 != 0 => {
            *bytes = rest;
            Ok((b0 & 0x7f) as u64 | (b1 as u64) << 7)
        }
        _ => take_long_varint(bytes),
    }
}

fn take_long_varint(bytes: &mut &[u8]) -> Result<u64, WireError> {
    let mut v = 0u64;
    for (i, &b) in bytes.iter().enumerate() {
        let shift = 7 * i as u32;
        let payload = (b & 0x7f) as u64;
        if shift >= 64 || (shift == 63 && payload > 1) {
            return Err(WireError::Overflow);
        }
        v |= payload << shift;
        if b & 0x80 == 0 {
            if b == 0 && i > 0 {
                return Err(WireError::Overlong);
            }
            *bytes = &bytes[i + 1..];
            return Ok(v);
        }
    }
    Err(WireError::Truncated)
}

/// Read an LEB128 varint at `*pos`, advancing it. Only the shortest
/// encoding of a value, the one [`write_varint`] writes, is accepted.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut rest = bytes.get(*pos..).unwrap_or_default();
    let v = take_varint(&mut rest).map_err(|e| format!("varint: {e}"))?;
    *pos = bytes.len() - rest.len();
    Ok(v)
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

/// A recording's event stream, held as its wire encoding: per event a
/// varint delta-time (ns since the previous event, or since 0), a varint
/// kind and an 8-byte LE digest, as in the events section of the
/// [layout](self). That is about 10.5 bytes per packet-engine event,
/// against the 24 of an [`EventFrame`].
///
/// Every log holds the one canonical encoding of its frames: [`push`]
/// writes it and decoding refuses anything else, so two logs are equal
/// exactly when they yield the same frames. Frames are reached by
/// [`iter`] only; reaching event `i` decodes the `i` before it (about
/// 7 ns each).
///
/// [`push`]: EventLog::push
/// [`iter`]: EventLog::iter
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventLog {
    bytes: Vec<u8>,
    len: usize,
    last_time: u64,
}

impl EventLog {
    /// Append one frame.
    ///
    /// # Panics
    ///
    /// If `frame.time` is earlier than the previous frame's: the wire
    /// format stores time as a non-negative delta, so such a stream has
    /// no encoding. A [`ReplaySubject`]'s clock never runs backwards.
    pub fn push(&mut self, frame: EventFrame) {
        let Some(dt) = frame.time.checked_sub(self.last_time) else {
            // lint: allow(panic): a subject whose clock runs backwards breaks the ReplaySubject contract
            panic!(
                "event {} at {} ns precedes the previous event at {} ns",
                self.len, frame.time, self.last_time
            );
        };
        write_varint(&mut self.bytes, dt);
        write_varint(&mut self.bytes, frame.kind as u64);
        write_u64_le(&mut self.bytes, frame.digest);
        self.last_time = frame.time;
        self.len += 1;
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log holds no frame.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The frames, in order.
    pub fn iter(&self) -> EventIter<'_> {
        EventIter {
            rest: &self.bytes,
            time: 0,
            left: self.len,
        }
    }

    /// Decode `count` frames off the front of `bytes`, checking each.
    fn decode(bytes: &[u8], count: usize) -> Result<EventLog, String> {
        let mut rest = bytes;
        let mut time = 0u64;
        for i in 0..count {
            time = next_frame(&mut rest, time)
                .map_err(|e| format!("event {i}: {e}"))?
                .time;
        }
        Ok(EventLog {
            bytes: bytes[..bytes.len() - rest.len()].to_vec(),
            len: count,
            last_time: time,
        })
    }
}

/// Take one frame off the front of `bytes`, `prev` being the previous
/// frame's time. The one event decoder: [`EventLog`] validates with it
/// and iterates with it.
#[inline]
fn next_frame(bytes: &mut &[u8], prev: u64) -> Result<EventFrame, WireError> {
    let dt = take_varint(bytes)?;
    let time = prev.checked_add(dt).ok_or(WireError::TimeOverflow)?;
    let kind = u32::try_from(take_varint(bytes)?).map_err(|_| WireError::KindOverflow)?;
    let (digest, rest) = bytes.split_first_chunk::<8>().ok_or(WireError::Truncated)?;
    *bytes = rest;
    Ok(EventFrame {
        time,
        kind,
        digest: u64::from_le_bytes(*digest),
    })
}

/// The frames of an [`EventLog`], in order.
#[derive(Debug, Clone)]
pub struct EventIter<'a> {
    rest: &'a [u8],
    time: u64,
    left: usize,
}

impl Iterator for EventIter<'_> {
    type Item = EventFrame;

    #[inline]
    fn next(&mut self) -> Option<EventFrame> {
        if self.left == 0 {
            return None;
        }
        // A log's bytes were checked when they were pushed or decoded,
        // so this never fails.
        let frame = next_frame(&mut self.rest, self.time).ok()?;
        self.time = frame.time;
        self.left -= 1;
        Some(frame)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for EventIter<'_> {}

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
    pub events: EventLog,
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

    /// Write the versioned binary format to `w`: the header, the event
    /// section as it sits in memory, then the checkpoints one by one.
    fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        write_varint(&mut buf, VERSION);
        write_str(&mut buf, &self.stage);
        write_u64_le(&mut buf, self.config_digest);
        write_varint(&mut buf, self.names.len() as u64);
        for n in &self.names {
            write_str(&mut buf, n);
        }
        write_varint(&mut buf, self.events.len() as u64);
        w.write_all(&buf)?;
        w.write_all(&self.events.bytes)?;
        buf.clear();
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
                    w.write_all(&buf)?;
                    buf.clear();
                    w.write_all(p)?;
                }
            }
        }
        write_u64_le(&mut buf, self.final_hash);
        w.write_all(&buf)
    }

    /// Serialize to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        // Reserve an upper bound on the encoded size, counting 10 bytes
        // per varint: the header up to the event count is 52 bytes plus
        // the stage and the names, a checkpoint 49 plus 18 per component
        // and its payload, and the checkpoint count and final hash 18.
        let names: usize = self.names.iter().map(|n| 10 + n.len()).sum();
        let ckpts: usize = self
            .checkpoints
            .iter()
            .map(|c| 49 + 18 * c.components.len() + c.payload.as_ref().map_or(0, Vec::len))
            .sum();
        let mut out =
            Vec::with_capacity(70 + self.stage.len() + names + self.events.bytes.len() + ckpts);
        // Writing into a `Vec` cannot fail.
        let _ = self.write_to(&mut out);
        out
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
        // Minimum encoded sizes: a name is a 1-byte length; a checkpoint
        // two 1-byte varints, an 8-byte hash, a 1-byte component count and
        // a 1-byte payload flag; a component a 1-byte name and an 8-byte
        // digest.
        let mut names = Vec::with_capacity(bounded_capacity(name_count, 1, bytes.len() - pos));
        for _ in 0..name_count {
            names.push(read_str(bytes, &mut pos)?);
        }
        let event_count = read_varint(bytes, &mut pos)? as usize;
        let events = EventLog::decode(&bytes[pos..], event_count)?;
        pos += events.bytes.len();
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
                let name = read_varint(bytes, &mut pos)?;
                let name = u32::try_from(name)
                    .map_err(|_| format!("component name {name} overflows u32"))?;
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

    /// Write to a file, streaming the encoding through a buffer rather
    /// than building it whole first.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut w)?;
        w.flush()
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
    ///
    /// # Panics
    ///
    /// If `subject` steps back in time (see [`EventLog::push`]).
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
    // A packet takes 11 bytes at least: a 1-byte id, a 5-byte key, a
    // 1-byte header tag, and 1-byte size, ttl, send time and payload.
    let mut queue = Vec::with_capacity(bounded_capacity(n, 11, bytes.len() - *pos));
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
    // Minimum encoded sizes: a link is a 1-byte flag, two 11-byte
    // directions (queue count, in-flight flag, 8-byte drop probability,
    // jitter tag) and two 6-byte stats; a logic a 1-byte flag; a routing
    // row a 1-byte column count and a column a 1-byte tag; a prefix a
    // 1-byte address, a length byte and a 1-byte node.
    let mut links = Vec::with_capacity(bounded_capacity(n_links, 35, bytes.len() - pos));
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
    let mut logics = Vec::with_capacity(bounded_capacity(n_logics, 1, bytes.len() - pos));
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
    let mut routing = Vec::with_capacity(bounded_capacity(n_rows, 1, bytes.len() - pos));
    for _ in 0..n_rows {
        let n_cols = read_varint(bytes, &mut pos)? as usize;
        let mut row = Vec::with_capacity(bounded_capacity(n_cols, 1, bytes.len() - pos));
        for _ in 0..n_cols {
            row.push(read_opt_varint(bytes, &mut pos)?.map(|h| NodeId(h as usize)));
        }
        routing.push(row);
    }
    let n_prefixes = read_varint(bytes, &mut pos)? as usize;
    let mut prefixes = Vec::with_capacity(bounded_capacity(n_prefixes, 3, bytes.len() - pos));
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
    // One 1-byte flag per cell at least.
    let mut cells = Vec::with_capacity(bounded_capacity(n, 1, bytes.len() - *pos));
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
        engine.push(0); // no events
        assert!(truncated(engine_checkpoint_from_bytes(&forged(&engine))), "links");
        let mut one_link = engine.clone();
        one_link.extend([1, 0]); // one link, down
        assert!(truncated(engine_checkpoint_from_bytes(&forged(&one_link))), "link queue");
        engine.push(0); // no links
        assert!(truncated(engine_checkpoint_from_bytes(&forged(&engine))), "logics");
        engine.push(0); // no logics
        assert!(truncated(engine_checkpoint_from_bytes(&forged(&engine))), "routing rows");
        let mut one_row = engine.clone();
        one_row.push(1); // one routing row
        assert!(truncated(engine_checkpoint_from_bytes(&forged(&one_row))), "routing columns");
        engine.push(0); // no routing rows
        assert!(truncated(engine_checkpoint_from_bytes(&forged(&engine))), "prefixes");
        engine.push(0); // no prefixes
        engine.extend([0u8; 8]); // state hash
        assert!(engine_checkpoint_from_bytes(&engine).is_ok());

        let mut fastsim = vec![0u8; 32]; // rng
        assert!(truncated(attack_sim_snapshot_from_bytes(&forged(&fastsim))), "selector cells");
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

    /// A small recording with one- to six-byte event deltas, two event
    /// kinds and two checkpoints, one of them with a payload.
    fn sample() -> Recording {
        let mut rec = Recording {
            stage: "sample".into(),
            config_digest: 0x0123_4567_89AB_CDEF,
            final_hash: 0xFEED,
            ..Recording::default()
        };
        let kinds = [rec.intern("deliver"), rec.intern("timer")];
        let mut time = 0u64;
        for (i, dt) in [0u64, 1, 127, 128, 300_000, 1 << 35].into_iter().enumerate() {
            time += dt;
            rec.events.push(EventFrame {
                time,
                kind: kinds[i % 2],
                digest: dui_stats::rng::hash64(i as u64),
            });
        }
        let rng = rec.intern("rng");
        rec.checkpoints.push(CheckpointFrame {
            event_index: 0,
            time: 0,
            state_hash: 1,
            components: vec![(rng, 2)],
            payload: None,
        });
        rec.checkpoints.push(CheckpointFrame {
            event_index: 6,
            time,
            state_hash: 3,
            components: vec![(rng, 4), (kinds[0], 5)],
            payload: Some(vec![9, 8, 7]),
        });
        rec
    }

    #[test]
    fn truncations_and_bit_flips_never_panic() {
        let rec = sample();
        let bytes = rec.to_bytes();
        assert_eq!(Recording::from_bytes(&bytes).as_ref(), Ok(&rec));
        for end in 0..bytes.len() {
            assert!(Recording::from_bytes(&bytes[..end]).is_err(), "truncated at {end}");
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(back) = Recording::from_bytes(&flipped) {
                assert_eq!(back.to_bytes(), flipped, "bit {bit} decodes but re-encodes differently");
            }
        }
    }

    #[test]
    fn event_decoder_accepts_only_canonical_frames() {
        let decode = |section: &[u8]| EventLog::decode(section, 1);
        let mut ok = vec![5, 1];
        ok.extend([0u8; 8]);
        assert!(decode(&ok).is_ok());
        let mut overlong = vec![0x85, 0x00, 1];
        overlong.extend([0u8; 8]);
        assert!(decode(&overlong).is_err_and(|e| e.contains("overlong")));
        let mut wide_kind = vec![0];
        write_varint(&mut wide_kind, 1 << 32);
        wide_kind.extend([0u8; 8]);
        assert!(decode(&wide_kind).is_err_and(|e| e.contains("kind overflows")));
        let mut late = EventLog::default();
        late.push(EventFrame {
            time: u64::MAX,
            kind: 0,
            digest: 0,
        });
        let mut after = late.bytes.clone();
        after.extend(&ok);
        assert!(EventLog::decode(&after, 2).is_err_and(|e| e.contains("time overflows")));
    }

    /// Steps at 10 ns, then at 5 ns.
    struct Backwards(u64);

    impl ReplaySubject for Backwards {
        fn config_digest(&self) -> u64 {
            0
        }

        fn now_ns(&self) -> u64 {
            self.0
        }

        fn step(&mut self) -> Option<crate::replay::StepInfo> {
            self.0 = match self.0 {
                0 => 10,
                10 => 5,
                _ => return None,
            };
            Some(crate::replay::StepInfo {
                time: self.0,
                kind: "tick",
                digest: 0,
            })
        }

        fn state_hash(&self) -> u64 {
            self.0
        }

        fn component_digests(&self) -> Vec<(&'static str, u64)> {
            Vec::new()
        }
    }

    #[test]
    #[should_panic(expected = "event 1 at 5 ns precedes the previous event at 10 ns")]
    fn recorder_refuses_a_clock_that_runs_backwards() {
        Recorder::new("backwards", 0, 1).record(&mut Backwards(0));
    }

    #[test]
    fn save_writes_what_to_bytes_returns() {
        let mut rec = sample();
        // Enough events that the event section outgrows the write buffer.
        let last = rec.events.iter().last().map_or(0, |e| e.time);
        for i in 0..5_000u64 {
            rec.events.push(EventFrame {
                time: last + i * 1_000,
                kind: 1,
                digest: i,
            });
        }
        rec.checkpoints[1].event_index = rec.events.len() as u64;
        let path = std::env::temp_dir().join(format!("dui-replay-save-{}.duir", std::process::id()));
        rec.save(&path).unwrap();
        let written = std::fs::read(&path);
        let _ = std::fs::remove_file(&path);
        assert_eq!(written.unwrap(), rec.to_bytes());
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
