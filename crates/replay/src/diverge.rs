//! Pinpointing where two recordings of "the same" run part ways.
//!
//! Divergence in a deterministic simulation is monotone: once two runs
//! differ, they never re-converge (state feeds forward). That makes the
//! checkpoint stream binary-searchable — find the first checkpoint whose
//! state hashes disagree, then scan the event frames between the last
//! good checkpoint and the first bad one for the first differing event.
//! The result names the exact event index *and* the state component
//! that went bad, which turns "the CSVs differ" into "event 48 312, the
//! RNG stream, at t=261.03s".

use crate::record::{EventFrame, Recording};

/// One state component whose digests disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentDiff {
    /// Component name (e.g. `"rng"`, `"selector"`).
    pub name: String,
    /// Digest in recording A (or the recorded side during replay).
    pub a: u64,
    /// Digest in recording B (or the live side during replay).
    pub b: u64,
}

/// Where and how two recordings first diverge.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Index of the first event whose frames differ, if the event
    /// streams themselves diverge. `None` means every shared event
    /// matched — the runs differ only in length or final state.
    pub event_index: Option<u64>,
    /// `(time, kind, digest)` of that event in recording A.
    pub a_event: Option<(u64, String, u64)>,
    /// `(time, kind, digest)` of that event in recording B.
    pub b_event: Option<(u64, String, u64)>,
    /// Index of the first checkpoint whose state hashes disagree, if
    /// any.
    pub checkpoint_index: Option<u64>,
    /// Components whose digests differ at that checkpoint.
    pub components: Vec<ComponentDiff>,
    /// Event counts of the two recordings (differ when one run is a
    /// prefix of the other).
    pub lengths: (u64, u64),
}

impl Divergence {
    /// A human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        match (self.event_index, &self.a_event, &self.b_event) {
            (Some(i), Some(a), Some(b)) => {
                out.push_str(&format!("first divergent event: #{i}\n"));
                out.push_str(&format!(
                    "  A: {} @{}ns digest {:#018x}\n",
                    a.1, a.0, a.2
                ));
                out.push_str(&format!(
                    "  B: {} @{}ns digest {:#018x}\n",
                    b.1, b.0, b.2
                ));
            }
            _ => {
                if self.lengths.0 != self.lengths.1 {
                    out.push_str(&format!(
                        "event streams agree on their shared prefix, but lengths differ: \
                         A has {} events, B has {}\n",
                        self.lengths.0, self.lengths.1
                    ));
                } else {
                    out.push_str(
                        "event streams agree; state diverges only at a checkpoint\n",
                    );
                }
            }
        }
        if let Some(c) = self.checkpoint_index {
            out.push_str(&format!("first divergent checkpoint: #{c}\n"));
        }
        for comp in &self.components {
            out.push_str(&format!(
                "  component {}: A {:#018x} vs B {:#018x}\n",
                comp.name, comp.a, comp.b
            ));
        }
        out
    }
}

fn event_tuple(rec: &Recording, e: &EventFrame) -> (u64, String, u64) {
    (e.time, rec.name(e.kind).to_string(), e.digest)
}

/// Scan events `[from, to)` of both recordings for the first differing
/// frame, returning its index and both frames.
fn first_event_diff(
    a: &Recording,
    b: &Recording,
    from: u64,
    to: u64,
) -> Option<(u64, EventFrame, EventFrame)> {
    let frames = a.events.iter().zip(b.events.iter());
    (from..to)
        .zip(frames.skip(from as usize))
        .find(|(_, (ea, eb))| {
            ea.time != eb.time || ea.digest != eb.digest || a.name(ea.kind) != b.name(eb.kind)
        })
        .map(|(i, (ea, eb))| (i, ea, eb))
}

/// Compare two recordings of the same stage and report the first point
/// of divergence, or `None` if they are equivalent (same events, same
/// checkpoints, same final hash).
pub fn first_divergence(a: &Recording, b: &Recording) -> Option<Divergence> {
    let lengths = (a.events.len() as u64, b.events.len() as u64);

    // Pair up checkpoints by event index: binary search only makes
    // sense over checkpoints taken at the same point in both streams.
    let paired: Vec<(usize, usize)> = a
        .checkpoints
        .iter()
        .enumerate()
        .filter_map(|(i, ca)| {
            b.checkpoints
                .iter()
                .position(|cb| cb.event_index == ca.event_index)
                .map(|j| (i, j))
        })
        .collect();

    // Binary search: divergence is monotone, so the predicate
    // "hashes disagree at pair k" is false..false true..true.
    let mut lo = 0usize;
    let mut hi = paired.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let (i, j) = paired[mid];
        if a.checkpoints[i].state_hash == b.checkpoints[j].state_hash {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first_bad_pair = lo; // == paired.len() when all paired checkpoints agree

    // The event scan window: from the last good checkpoint's event
    // index to the first bad one's (or the end of the shared prefix).
    let scan_from = if first_bad_pair == 0 {
        0
    } else {
        a.checkpoints[paired[first_bad_pair - 1].0].event_index
    };
    let (scan_to, checkpoint_index, components) = if first_bad_pair < paired.len() {
        let (i, j) = paired[first_bad_pair];
        let (ca, cb) = (&a.checkpoints[i], &b.checkpoints[j]);
        let mut components = Vec::new();
        for (na, da) in &ca.components {
            let name = a.name(*na);
            if let Some((_, db)) = cb
                .components
                .iter()
                .find(|(nb, _)| b.name(*nb) == name)
            {
                if da != db {
                    components.push(ComponentDiff {
                        name: name.to_string(),
                        a: *da,
                        b: *db,
                    });
                }
            }
        }
        (ca.event_index, Some(i as u64), components)
    } else {
        (u64::MAX, None, Vec::new())
    };

    let first_diff = first_event_diff(a, b, scan_from, scan_to)
        // The mutation may sit between the last good checkpoint and a
        // stream end / unpaired region; fall back to a full scan of the
        // shared prefix if the window missed it.
        .or_else(|| first_event_diff(a, b, 0, u64::MAX));
    let event_index = first_diff.map(|(i, _, _)| i);

    let diverged = event_index.is_some()
        || checkpoint_index.is_some()
        || lengths.0 != lengths.1
        || a.final_hash != b.final_hash;
    if !diverged {
        return None;
    }

    Some(Divergence {
        event_index,
        a_event: first_diff.map(|(_, ea, _)| event_tuple(a, &ea)),
        b_event: first_diff.map(|(_, _, eb)| event_tuple(b, &eb)),
        checkpoint_index,
        components,
        lengths,
    })
}

/// Where two canonical line-oriented logs (e.g. supervisord verdict
/// JSONL, where each line is one totally-ordered record) first differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineDivergence {
    /// 0-based index of the first differing line.
    pub line: usize,
    /// That line in log A (`None` when A ended first).
    pub a: Option<String>,
    /// That line in log B (`None` when B ended first).
    pub b: Option<String>,
    /// Line counts of the two logs.
    pub lengths: (usize, usize),
}

impl LineDivergence {
    /// A human-readable report, mirroring [`Divergence::render`].
    pub fn render(&self) -> String {
        let mut out = format!("first divergent line: #{}\n", self.line);
        match &self.a {
            Some(l) => out.push_str(&format!("  A: {l}\n")),
            None => out.push_str(&format!("  A: <ended at {} lines>\n", self.lengths.0)),
        }
        match &self.b {
            Some(l) => out.push_str(&format!("  B: {l}\n")),
            None => out.push_str(&format!("  B: <ended at {} lines>\n", self.lengths.1)),
        }
        out
    }
}

/// Compare two canonical logs line-by-line and report the first
/// divergence, or `None` when they are byte-identical. Because
/// supervisord verdict logs are totally ordered by
/// `(epoch, producer, seq)`, the first differing line names the exact
/// frame where two runs (e.g. different worker counts, or a replayed
/// producer) parted ways — the same "first divergence" contract as the
/// recording-level search above.
pub fn first_line_divergence(a: &str, b: &str) -> Option<LineDivergence> {
    let la: Vec<&str> = a.lines().collect();
    let lb: Vec<&str> = b.lines().collect();
    let lengths = (la.len(), lb.len());
    for i in 0..la.len().max(lb.len()) {
        let (xa, xb) = (la.get(i), lb.get(i));
        if xa != xb {
            return Some(LineDivergence {
                line: i,
                a: xa.map(|s| s.to_string()),
                b: xb.map(|s| s.to_string()),
                lengths,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CheckpointFrame;

    /// Build a synthetic recording: `n` events with digests from `f`,
    /// checkpoints every `every` events with state hash = xor of digests
    /// so far, a single "core" component mirroring it.
    fn synth(n: u64, every: u64, f: impl Fn(u64) -> u64) -> Recording {
        let mut rec = Recording {
            stage: "synth".into(),
            config_digest: 1,
            ..Recording::default()
        };
        let kind = rec.intern("tick");
        let core = rec.intern("core");
        let mut acc = 0u64;
        let ckpt = |rec: &mut Recording, i: u64, acc: u64| {
            rec.checkpoints.push(CheckpointFrame {
                event_index: i,
                time: i * 10,
                state_hash: acc,
                components: vec![(core, acc)],
                payload: None,
            });
        };
        ckpt(&mut rec, 0, acc);
        for i in 0..n {
            let digest = f(i);
            acc ^= digest.rotate_left((i % 63) as u32);
            rec.events.push(EventFrame {
                time: (i + 1) * 10,
                kind,
                digest,
            });
            if (i + 1) % every == 0 {
                ckpt(&mut rec, i + 1, acc);
            }
        }
        if n % every != 0 {
            ckpt(&mut rec, n, acc);
        }
        rec.final_hash = acc;
        rec
    }

    #[test]
    fn identical_recordings_do_not_diverge() {
        let a = synth(100, 10, |i| i.wrapping_mul(0x9E37_79B9));
        let b = synth(100, 10, |i| i.wrapping_mul(0x9E37_79B9));
        assert_eq!(first_divergence(&a, &b), None);
    }

    #[test]
    fn single_event_mutation_is_pinpointed() {
        let a = synth(100, 10, |i| i.wrapping_mul(0x9E37_79B9));
        // Flip one bit in event 47's digest; state differs from there on.
        let b = synth(100, 10, |i| {
            let d = i.wrapping_mul(0x9E37_79B9);
            if i == 47 {
                d ^ 1
            } else {
                d
            }
        });
        let div = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(div.event_index, Some(47));
        // Checkpoint 5 covers events 41..=50: the first bad one.
        assert_eq!(div.checkpoint_index, Some(5));
        assert_eq!(div.components.len(), 1);
        assert_eq!(div.components[0].name, "core");
        let report = div.render();
        assert!(report.contains("#47"), "report names the event: {report}");
        assert!(report.contains("core"), "report names the component");
    }

    #[test]
    fn prefix_truncation_is_reported_as_length_mismatch() {
        let a = synth(100, 10, |i| i.wrapping_mul(3));
        let b = synth(60, 10, |i| i.wrapping_mul(3));
        let div = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(div.event_index, None, "shared prefix matches");
        assert_eq!(div.lengths, (100, 60));
        assert!(div.render().contains("lengths differ"));
    }

    #[test]
    fn line_divergence_pinpoints_first_differing_line() {
        let a = "{\"seq\":0}\n{\"seq\":1,\"risk\":0.1}\n{\"seq\":2}\n";
        let b = "{\"seq\":0}\n{\"seq\":1,\"risk\":0.9}\n{\"seq\":2}\n";
        assert_eq!(first_line_divergence(a, a), None);
        let div = first_line_divergence(a, b).expect("must diverge");
        assert_eq!(div.line, 1);
        assert!(div.a.as_deref().is_some_and(|l| l.contains("0.1")));
        assert!(div.b.as_deref().is_some_and(|l| l.contains("0.9")));
        assert!(div.render().contains("#1"));
    }

    #[test]
    fn line_divergence_reports_truncation() {
        let a = "x\ny\nz\n";
        let b = "x\ny\n";
        let div = first_line_divergence(a, b).expect("must diverge");
        assert_eq!(div.line, 2);
        assert_eq!(div.b, None);
        assert_eq!(div.lengths, (3, 2));
        assert!(div.render().contains("<ended at 2 lines>"));
    }
}
