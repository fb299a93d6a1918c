//! Command line of the benchmark:
//!
//! ```text
//! dui-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Prints a summary line per run and, as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics untraced, the per-layer metrics with `--trace 1`. With
//! `--out`, the spans of a traced run are written to
//! `<dir>/trace-<workload>-seed<n>.json`. Exits 1 when any correctness
//! check fails, 2 on bad arguments.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use dui_perf::{run, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER};

const USAGE: &str =
    "usage: dui-perf --workload <blink_takeover|pcc_equalizer|flow_lifecycle|record_verify> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <dir>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::BlinkTakeover,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        out: None,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value for --seconds: {value}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(format!("bad value for --seconds: {value}"));
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn metrics_json(values: &[(&str, f64)], unit: impl Fn(&str) -> &'static str) -> String {
    let mut out = String::from("{");
    for (i, (name, v)) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            unit(name)
        );
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dui-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let outcome = run(w, args.seed, args.seconds, args.traced);

    let (setup_s, run_s, record_s, verify_s) = outcome.medians();
    let first = &outcome.reps[0];
    let mut line = format!(
        "{} seed={} traced={} reps={} traced_reps={}: setup_s={setup_s:.4} s run_s={run_s:.4} s \
         pkts_per_s={:.0} 1/s",
        w.name(),
        args.seed,
        u8::from(args.traced),
        outcome.reps.len(),
        outcome.traced.len(),
        first.delivered as f64 / run_s,
    );
    let runs: Vec<f64> = outcome.reps.iter().map(|r| r.run_s).collect();
    let _ = write!(
        line,
        " (run_s min {:.4} max {:.4})",
        runs.iter().copied().fold(f64::INFINITY, f64::min),
        runs.iter().copied().fold(0.0, f64::max),
    );
    if w == Workload::FlowLifecycle {
        let _ = write!(
            line,
            " flows_per_s={:.0} 1/s",
            first.count("tcp.lifecycles") / run_s
        );
    }
    if w == Workload::RecordVerify {
        let _ = write!(line, " record_s={record_s:.4} s verify_s={verify_s:.4} s");
    }
    let checks = &outcome.checks;
    let failed = checks.failures.len() as u64;
    let _ = write!(
        line,
        " peak_rss_mb={:.1} MiB check_fail_frac={} ({failed}/{})",
        dui_perf::peak_rss_mb(),
        failed as f64 / checks.attempted.max(1) as f64,
        checks.attempted,
    );
    println!("{line}");
    for f in &checks.failures {
        println!("FAILED CHECK: {f}");
    }

    let metrics = if args.traced {
        let unit = |name: &str| {
            PER_LAYER
                .iter()
                .find(|(n, _, _)| *n == name)
                .map_or("", |(_, u, _)| *u)
        };
        metrics_json(&outcome.per_layer(), unit)
    } else {
        let unit = |name: &str| {
            END_TO_END
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| *u)
        };
        metrics_json(&outcome.end_to_end(), unit)
    };
    if let (Some(dir), Some(tr)) = (&args.out, &outcome.tracer) {
        let path = dir.join(format!("trace-{}-seed{}.json", w.name(), args.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_json()))
        {
            eprintln!("dui-perf: cannot write {}: {e}", path.display());
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0,
        checks.attempted,
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
