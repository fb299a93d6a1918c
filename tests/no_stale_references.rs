//! Guard against removed code coming back through a doc, a script or a
//! call site: no file under `crates/` (except the benchmark under
//! `crates/bench/perf/`, which is frozen), `src/`, `tests/`, `scripts/`
//! or `docs/` may mention
//!
//! * the domain-parallel engine's thread-count option, its deleted
//!   chapter and its deleted equivalence test;
//! * the second copies of the §5 risk signals: the batch supervisor
//!   layer beside the `dui-defense::streaming` windows, supervisord's
//!   per-signal config, the unused input-quality helpers and the
//!   fixed-bin `dui-stats` histogram.

use std::path::{Path, PathBuf};

/// The forbidden spellings, assembled at run time so this file does
/// not match itself.
fn needles() -> Vec<String> {
    let sim = "sim";
    let sup = "Supervisor";
    vec![
        format!("{sim}_threads"),
        format!("--{sim}-threads"),
        format!("set_{sim}_threads"),
        format!("parallel-{}.md", "domains"),
        format!("parallel_{}", "equivalence"),
        format!("Snapshot{sup}"),
        format!("Threshold{sup}"),
        format!("Streaming{sup}"),
        format!("Signal{}", "Config"),
        format!("Operating{}", "Range"),
        format!("input_{}", "quality"),
        format!("dui_stats::{}", "hist"),
    ]
}

fn walk(dir: &Path, skip: &[PathBuf], out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if skip.iter().any(|s| path.starts_with(s)) {
            continue;
        }
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk(&path, skip, out);
        } else {
            out.push(path);
        }
    }
}

#[test]
fn removed_knob_and_duplicate_signals_are_not_mentioned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let skip = [root.join("crates/bench/perf")];
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "scripts", "docs"] {
        walk(&root.join(dir), &skip, &mut files);
    }
    files.sort();
    assert!(files.len() > 100, "walk found only {} files", files.len());
    let needles = needles();
    let mut hits = Vec::new();
    for file in &files {
        let Ok(bytes) = std::fs::read(file) else {
            continue;
        };
        let text = String::from_utf8_lossy(&bytes);
        for needle in &needles {
            if text.contains(needle.as_str()) {
                let rel = file.strip_prefix(root).unwrap_or(file);
                hits.push(format!("{} mentions `{needle}`", rel.display()));
            }
        }
    }
    assert!(hits.is_empty(), "stale references:\n{}", hits.join("\n"));
}
