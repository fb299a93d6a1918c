//! The benchmark checks itself: two traced invocations of the binary
//! with one seed print byte-identical count-valued per-layer metrics
//! (timings are reported, not compared), and `BENCHMARK.json` lists
//! exactly the metrics the binary prints. Run with `--release`.

use std::path::Path;
use std::process::Command;

use dui_perf::{Workload, END_TO_END, PER_LAYER};

/// The result line of one traced invocation with the shortest run.
fn traced_result(w: Workload, seed: u64) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dui-perf"))
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", "1"])
        .output()
        .expect("dui-perf runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{} failed:\n{stdout}", w.name());
    stdout.lines().last().expect("a result line").to_string()
}

/// The `"value": ...` text of metric `name` in a result line.
fn value<'a>(result: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\": {{\"value\": ");
    let start = result
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing"))
        + key.len();
    let len = result[start..].find(',').expect("value ends");
    &result[start..start + len]
}

fn counts_repeat(w: Workload) {
    let (a, b) = (traced_result(w, 7), traced_result(w, 7));
    for &(name, _, counted) in PER_LAYER {
        let (va, vb) = (value(&a, name), value(&b, name));
        if counted {
            assert_eq!(va, vb, "{}: {name} differs between invocations", w.name());
        }
    }
}

#[test]
fn blink_takeover_counts_repeat() {
    counts_repeat(Workload::BlinkTakeover);
}

#[test]
fn pcc_equalizer_counts_repeat() {
    counts_repeat(Workload::PccEqualizer);
}

#[test]
fn flow_lifecycle_counts_repeat() {
    counts_repeat(Workload::FlowLifecycle);
}

#[test]
fn record_verify_counts_repeat() {
    counts_repeat(Workload::RecordVerify);
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../..");
    let json = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let listed = |name: &str, unit: &str| {
        json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", "))
    };
    for &(name, unit) in END_TO_END {
        assert!(
            listed(name, unit),
            "end-to-end metric {name} ({unit}) not listed"
        );
    }
    for &(name, unit, _) in PER_LAYER {
        assert!(
            listed(name, unit),
            "per-layer metric {name} ({unit}) not listed"
        );
    }
    let entries = json.matches("\"better\": ").count();
    assert_eq!(
        entries,
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists other metrics"
    );
    for w in Workload::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
    }
}
