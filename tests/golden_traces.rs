//! Golden-trace fixtures: the checkpoint hash sequences of the small
//! recordable stages, the `supervisord` stage's verdict log, and the
//! outcome of a short attacked PCC run, pinned as text files under
//! `tests/golden/`.
//!
//! This is the cross-crate determinism gate: the subject builders live
//! in `dui-bench`, the recorder and state hashing in `dui-replay`, and
//! the simulations in `dui-blink` / `dui-netsim` — a re-run through the
//! whole stack must reproduce every pinned state hash bit-for-bit, on
//! any machine. A diff here means simulation behavior changed: either a
//! regression, or an intentional change that must be re-blessed with
//!
//! ```sh
//! GOLDEN_BLESS=1 cargo test --test golden_traces
//! ```

use dui::netsim::time::{SimDuration, SimTime};
use dui::scenario::{PccScenario, PccScenarioConfig};
use dui_bench::recordings::build_subject;
use dui_bench::stages::{supervisord_stage, SupervisordOpts};
use dui_replay::{Recorder, Recording};
use dui_stats::digest::StateDigest;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Stage → (fixture file, checkpoint cadence).
const GOLDEN: &[(&str, &str, u64)] = &[
    ("fig2-small", "fig2.hashes", 4_000),
    ("blink-packet-small", "blink_packet.hashes", 20_000),
    ("pcc-small", "pcc.hashes", 50_000),
];

fn fixture_path(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

/// Record `stage` and render its trace: one header line binding the
/// configuration, one line per checkpoint, one final-hash line, and one
/// line pinning the length and digest of the encoded recording (which
/// covers components, payloads, the names table and every event frame).
fn record_trace(stage: &str, every: u64) -> String {
    let mut subject = build_subject(stage).expect("recordable stage");
    let s = subject.as_subject_mut();
    let rec: Recording = Recorder::new(stage, s.config_digest(), every).record(s);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {stage} ckpt_every={every} config={:016x} events={}",
        rec.config_digest,
        rec.events.len()
    );
    for c in &rec.checkpoints {
        let _ = writeln!(out, "{} {} {:016x}", c.event_index, c.time, c.state_hash);
    }
    let _ = writeln!(out, "final {:016x}", rec.final_hash);
    let bytes = rec.to_bytes();
    let mut d = StateDigest::new();
    d.write_bytes(&bytes);
    let _ = writeln!(out, "bytes {} {:016x}", bytes.len(), d.finish());
    out
}

/// Render the `supervisord` stage's verdict JSONL at the default fleet:
/// its line count and a 64-bit digest of its bytes.
fn verdict_log_trace() -> String {
    let out = supervisord_stage(&SupervisordOpts::scaled(1), 1);
    let jsonl = out
        .artifacts
        .iter()
        .find(|(name, _)| name == "supervisord_verdicts.jsonl")
        .map(|(_, body)| body)
        .expect("supervisord stage exports its verdict log");
    let mut d = StateDigest::new();
    d.write_bytes(jsonl.as_bytes());
    format!(
        "# supervisord verdicts opts=scaled(1)\nlines {}\ndigest {:016x}\n",
        jsonl.lines().count(),
        d.finish()
    )
}

/// Run a short C6-shaped attack — 8 PCC flows, each behind an equalizer
/// tap pinning it to 3 Mbps with a coherent ±50 % sway — and render the
/// final engine state hash with the delivered and tap-dropped counts.
///
/// The recordable `pcc-small` stage runs unattacked (a tap refuses
/// checkpoints), so this is the pin on the tap's drop decisions. The
/// taps arm after 10 s; the run ends at 14 s so two full sway periods
/// are attacked.
fn attacked_pcc_trace() -> String {
    let cfg = PccScenarioConfig {
        flows: 8,
        attacked: true,
        pin_to: Some(3.0 * 125_000.0),
        sway: Some((0.5, SimDuration::from_secs(2))),
        seed: 1,
        ..Default::default()
    };
    let end = SimTime::from_secs(14);
    let mut sc = PccScenario::build(&cfg);
    sc.sim.run_until(end);
    let snap = sc.sim.metrics_snapshot();
    format!(
        "# pcc attacked flows=8 pin=3Mbps sway=0.5/2s seed=1 end={}\n\
         final {:016x}\ndelivered {}\ndrop.tap {}\n",
        end.0,
        sc.sim.state_hash(),
        snap.counter("netsim.delivered"),
        snap.counter("netsim.drop.tap")
    )
}

fn check(stage: &str, file: &str, every: u64) {
    check_fixture(stage, file, record_trace(stage, every));
}

fn check_fixture(stage: &str, file: &str, got: String) {
    let path = fixture_path(file);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        std::fs::write(&path, &got).expect("write golden fixture");
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e});\n\
             bless with: GOLDEN_BLESS=1 cargo test --test golden_traces",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "golden trace for '{stage}' diverged — behavior changed.\n\
         If intentional, re-bless with: GOLDEN_BLESS=1 cargo test --test golden_traces"
    );
}

#[test]
fn fig2_golden_trace() {
    let (stage, file, every) = GOLDEN[0];
    check(stage, file, every);
}

#[test]
fn blink_packet_golden_trace() {
    let (stage, file, every) = GOLDEN[1];
    check(stage, file, every);
}

#[test]
fn pcc_golden_trace() {
    let (stage, file, every) = GOLDEN[2];
    check(stage, file, every);
}

#[test]
fn supervisord_verdict_golden_log() {
    check_fixture("supervisord", "supervisord_verdicts.hashes", verdict_log_trace());
}

#[test]
fn pcc_attacked_golden_outcome() {
    check_fixture("pcc-attacked", "pcc_attacked.hashes", attacked_pcc_trace());
}
