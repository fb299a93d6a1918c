//! The single-pass `checkpoint_parts` overrides record exactly what the
//! trait's default (state hash, component digests and payload, each
//! computed on its own) records: the same `Recording`, byte for byte.

use dui_bench::recordings::build_subject;
use dui_replay::{Recorder, Recording, ReplaySubject, StepInfo};

/// Forwards everything except `checkpoint_parts`, so the recorder takes
/// the trait's default path through the wrapped subject.
struct DefaultParts<'a>(&'a mut dyn ReplaySubject);

impl ReplaySubject for DefaultParts<'_> {
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

fn record(stage: &str, every: u64, default_path: bool) -> Recording {
    let mut subject = build_subject(stage).expect("recordable stage");
    let s = subject.as_subject_mut();
    let recorder = Recorder::new(stage, s.config_digest(), every);
    if default_path {
        recorder.record(&mut DefaultParts(s))
    } else {
        recorder.record(s)
    }
}

/// Record `stage` both ways and compare; `restorable` says whether its
/// checkpoints carry payloads.
fn assert_same_recording(stage: &str, every: u64, restorable: bool) {
    let fast = record(stage, every, false);
    let default = record(stage, every, true);
    assert!(fast.checkpoints.len() > 2, "{stage}: several checkpoints");
    assert!(
        fast.checkpoints.iter().all(|c| c.payload.is_some() == restorable),
        "{stage}: restorable={restorable}"
    );
    assert_eq!(fast, default, "{stage}: override and default paths differ");
}

#[test]
fn simulator_subject_override_matches_default_path() {
    // Both engines are hash-only (taps, or node logics without
    // `save_state`); `dui-replay`'s hash-count tests cover a restorable
    // engine.
    assert_same_recording("blink-packet-small", 20_000, false);
    assert_same_recording("pcc-small", 50_000, false);
}

#[test]
fn fastsim_subject_override_matches_default_path() {
    assert_same_recording("fig2-small", 4_000, true);
}
