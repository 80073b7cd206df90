#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload fanin|combine|kv_onesided \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the `perfbench` package
(release, offline) into $CARGO_TARGET_DIR, default `.bench_build`,
confines the benchmark process to one CPU, and prints the benchmark's
output. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; `--trace 0` gives
the end-to-end metrics of BENCHMARK.json and `--trace 1` the per-layer
ones. The line before it records the host facts of the run.

Exits non-zero, without a result line, if the build fails, the run
fails or times out, or the metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")


def run(binary, args, cpu, nproc):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cpu", str(cpu), "--nproc", str(nproc)]
    # The lab runs one task at a time; confining it to one CPU keeps
    # its many OS threads from migrating and its wall times steady.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")
    return out.strip().splitlines()


def check(lines, trace):
    """The result line must carry exactly the metrics BENCHMARK.json lists."""
    if not lines:
        fail("benchmark printed nothing")
    try:
        result = json.loads(lines[-1])
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read result or BENCHMARK.json: {e}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(want.keys() - got.keys())}, "
             f"extra {sorted(got.keys() - want.keys())}, "
             f"units {sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["fanin", "combine", "kv_onesided"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()

    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env["CARGO_TARGET_DIR"] = str(target)
    # Keep cargo's own bookkeeping inside the build directory too.
    env["CARGO_HOME"] = str(target / "cargo-home")
    build(env)

    cpu = max(os.sched_getaffinity(0))
    lines = run(target / "release" / "perfbench", args, cpu, os.cpu_count())
    check(lines, args.trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
