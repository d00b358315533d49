#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload bcast|churn|topics --seed N \
        --seconds S --trace 0|1 [--scale full|tiny]

Run from the repository root. The first call configures and builds the
benchmark program (Release) into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that is set; later calls rebuild
incrementally. Build output goes to stderr. The program's stdout is passed
through, with git and source provenance merged into its `provenance` line;
the last line is the result JSON, holding the metrics BENCHMARK.json names
for the mode. A traced run also writes its spans to
<build>/traces/<workload>-seed<N>.json.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """sha256 over the library sources and this benchmark: identifies the
    code measured where git is unavailable (an exported checkout)."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".h", ".cpp", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=30, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=880)
        except (OSError, subprocess.SubprocessError) as err:
            fail(f"build step {step[:2]} failed: {err}")
        if done.returncode != 0:
            fail(f"build step {step[:2]} exited {done.returncode}")
    return build_dir


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = build()
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--scale", args.scale]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"perfbench exited {done.returncode}")

    lines = done.stdout.splitlines()
    if not lines:
        fail("perfbench printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("perfbench's last line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("the result has the wrong keys")
    # The result carries exactly the metrics BENCHMARK.json names. The
    # program also computes metrics that only the unlisted `churn` workload
    # moves; those go on an `unlisted` line.
    expected = expected_metrics(args.trace == "1")
    unlisted = {}
    if expected is not None:
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        wrong = {k: u for k, u in expected.items() if printed.get(k) != u}
        if wrong:
            fail(f"metrics missing or with another unit: {sorted(wrong)}")
        unlisted = {k: v for k, v in result["metrics"].items()
                    if k not in expected}
        result["metrics"] = {k: v for k, v in result["metrics"].items()
                             if k in expected}

    for line in lines[:-1]:
        if line.startswith("provenance "):
            prov = json.loads(line[len("provenance "):])
            prov["git"] = git_revision()
            prov["source_sha256"] = source_digest()
            line = "provenance " + json.dumps(prov)
        print(line)
    if unlisted:
        print("unlisted " + json.dumps(unlisted))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
