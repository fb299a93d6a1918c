#!/usr/bin/env python3
"""Build and run the dui benchmark from the root of a source checkout.

    python3 crates/bench/perf/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Builds the `dui-perf` binary (release, offline) into $CARGO_TARGET_DIR,
or `.bench_build` at the checkout root when that is unset, then runs one
workload. Prints the binary's summary line, a line of box facts (nproc,
rustc -V, commit, traced) and, last, the binary's JSON result. The box
facts and the result are also written to
`<target dir>/dui-perf/results/<workload>-seed<n>-trace<t>.json`, and a
traced run's spans beside them. Exits non-zero, without a result line,
when the build or any correctness check fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

PKG = Path(__file__).resolve().parent
CHECKOUT = PKG.parents[2]
WORKLOADS = ("blink_takeover", "pcc_equalizer", "flow_lifecycle", "record_verify")


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    args = {"--seed": "1", "--seconds": "10", "--trace": "0"}
    if len(argv) % 2:
        fail("every flag needs a value")
    for flag, value in zip(argv[::2], argv[1::2]):
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            fail(f"unknown flag {flag}")
        args[flag] = value
    if args.get("--workload") not in WORKLOADS:
        fail(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args["--trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1")
    return args


def box_facts(traced):
    def out(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    commit = "unknown (not a git checkout)"
    if (CHECKOUT / ".git").exists():
        commit = out(["git", "-C", str(CHECKOUT), "rev-parse", "HEAD"])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": out(["rustc", "-V"]),
        "commit": commit,
        "traced": int(traced),
    }


def main():
    args = parse_args(sys.argv[1:])
    target = Path(os.environ.get("CARGO_TARGET_DIR") or CHECKOUT / ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(PKG / "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed", build.returncode)

    out_dir = target / "dui-perf" / "results"
    run = subprocess.run(
        [str(target / "release" / "dui-perf"),
         "--workload", args["--workload"], "--seed", args["--seed"],
         "--seconds", args["--seconds"], "--trace", args["--trace"],
         "--out", str(out_dir)],
        capture_output=True, text=True,
    )
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        print("\n".join(lines[:-1]), file=sys.stderr)
        fail(f"dui-perf exited with {run.returncode}", run.returncode or 1)

    facts = box_facts(args["--trace"] == "1")
    result = json.loads(lines[-1])
    name = f"{args['--workload']}-seed{args['--seed']}-trace{args['--trace']}.json"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(json.dumps({"box": facts, "result": result}) + "\n")
    for line in lines[:-1]:
        print(line)
    print("box: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(lines[-1])


if __name__ == "__main__":
    main()
