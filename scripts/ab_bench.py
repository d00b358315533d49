#!/usr/bin/env python3
"""A/B-compares the repo benchmark between a base revision and this tree.

    scripts/ab_bench.py <base-rev> --workload W --pairs N --seconds S \
        [--scale full|tiny] [--seed N] [--work-dir DIR]

The base side is `git archive <base-rev>` exported into a scratch
directory; the change side is the working tree this script lives in,
uncommitted edits included. Each side is built and run through its own,
unmodified perfbench/run.py, with its own CARGO_TARGET_DIR. The script
then runs N pairs of untraced runs at the same seed, alternating which
side goes first, so slow drift in the host's load falls on both sides
alike.

For every end-to-end metric that BENCHMARK.json names it prints both
medians, both interquartile ranges, the relative change of the medians,
and how many pairs the change won, tied and lost (by the metric's
`better` direction). It then runs each side once more, short and with
`--trace 1`, and prints every `span.*` self-time (the median over that
run's traced reps) with its relative change, so the report names the
layer that moved. It exits 1 when any run fails or is incorrect, or
when the simulated-outcome fingerprints of the two sides differ; before
that exit it prints every simulated per-layer counter (and outcome
field) of the traced runs whose value differs.

Builds go under --work-dir (default: a temporary directory, removed at
the end); pass a directory to reuse builds across calls.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"ab_bench: {message}", file=sys.stderr)
    sys.exit(1)


def export(rev, dest):
    """Writes the tree of `rev` into dest (no .git: run.py then reports
    the source digest instead of a git revision)."""
    tar_path = dest + ".tar"
    done = subprocess.run(["git", "-C", ROOT, "archive", "-o", tar_path, rev],
                          capture_output=True, text=True)
    if done.returncode != 0:
        fail(f"git archive {rev}: {done.stderr.strip()}")
    os.makedirs(dest)
    with tarfile.open(tar_path) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    os.remove(tar_path)
    if not os.path.exists(os.path.join(dest, "perfbench", "run.py")):
        fail(f"{rev} has no perfbench/run.py")


def run_perfbench(tree, target_dir, args, trace, seconds):
    """One run of the tree's perfbench/run.py; returns its stdout lines."""
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", trace,
               "--scale", args.scale]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True,
                          text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        fail(f"{tree}: perfbench/run.py exited {done.returncode}")
    return done.stdout.splitlines()


def prefixed_json(lines, prefix):
    """The JSON object on the line starting with `prefix`, or {}."""
    for line in lines:
        if line.startswith(prefix):
            return json.loads(line[len(prefix):])
    return {}


def run_side(tree, target_dir, args):
    """One untraced run; returns (metrics dict, fingerprint)."""
    lines = run_perfbench(tree, target_dir, args, "0", args.seconds)
    fingerprint = prefixed_json(lines, "outcome ").get("fingerprint")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        fail(f"{tree}: incorrect run ({result['failed']} failed)")
    return {k: v["value"] for k, v in result["metrics"].items()}, fingerprint


# Per-layer metrics measured on the host (wall time, memory) rather than
# counted in the simulation; they differ run to run, so the counter diff
# leaves them out.
HOST_UNITS = ("s", "ns", "us")
HOST_PREFIXES = ("mem.",)


# Budget of the one traced run per side: enough for a few traced reps of
# every workload, short next to the pairs.
TRACE_SECONDS = 10.0


def trace_seconds(args):
    return min(args.seconds, TRACE_SECONDS)


def traced_run(tree, target_dir, args):
    """One short traced run; returns (per-layer metrics {name: metric},
    outcome line fields)."""
    lines = run_perfbench(tree, target_dir, args, "1", trace_seconds(args))
    metrics = dict(prefixed_json(lines, "unlisted "))
    metrics.update(json.loads(lines[-1])["metrics"])
    return metrics, prefixed_json(lines, "outcome ")


def simulated_counters(metrics, outcome):
    """{name: value} for every simulated per-layer counter (listed or
    unlisted) and the outcome line's numeric fields."""
    counters = {name: m["value"] for name, m in metrics.items()
                if m["unit"] not in HOST_UNITS
                and not name.startswith(HOST_PREFIXES)}
    for key, value in outcome.items():
        # reps counts how many repetitions fit the time budget.
        if key not in ("seed", "reps") and isinstance(value, (int, float)):
            counters[f"outcome.{key}"] = value
    return counters


def relative(b, c):
    return f"{(c - b) / b * 100:+.1f}%" if b and c is not None else "n/a"


def print_span_times(base, change, seconds):
    """Prints each span.* self-time of the two traced runs and its change."""
    names = sorted(name for name in set(base) | set(change)
                   if name.startswith("span."))
    print(f"layer self-times (span.*, median over the traced reps of one "
          f"{seconds:g} s traced run per side):")
    def seconds(metric):
        return "n/a" if metric is None else f"{metric['value']:.4g}"
    for name in names:
        b, c = base.get(name), change.get(name)
        delta = relative(b and b["value"], c and c["value"])
        print(f"  {name:<34} base {seconds(b):>10}  change {seconds(c):>10}"
              f"  {delta}")


def print_counter_diff(base, change):
    """Prints the simulated counters of the traced runs that differ."""
    names = sorted(set(base) | set(change))
    differing = [name for name in names if base.get(name) != change.get(name)]
    print(f"counters that differ ({len(differing)} of {len(names)}, "
          f"one traced run per side):")
    for name in differing:
        b, c = base.get(name), change.get(name)
        print(f"  {name:<32} base {b!s:>14}  change {c!s:>14}  "
              f"{relative(b, c)}")


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def report(args, spec, samples):
    """Prints medians, IQRs and win/tie/loss for every end-to-end metric."""
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} "
          f"pairs {args.pairs} seconds {args.seconds} base {args.base_rev}")
    header = (f"{'metric':<24} {'unit':<6} {'base median':>12} "
              f"{'base IQR':>23} {'change median':>13} {'change IQR':>23} "
              f"{'delta':>8}  win/tie/loss")
    print(header)
    for name, meta in spec.items():
        base = [s[name] for s in samples["base"]]
        change = [s[name] for s in samples["change"]]
        wins = ties = losses = 0
        for b, c in zip(base, change):
            if c == b:
                ties += 1
            elif (c < b) == (meta["better"] == "lower"):
                wins += 1
            else:
                losses += 1
        bm, cm = quantile(base, 0.5), quantile(change, 0.5)
        delta = f"{(cm - bm) / bm * 100:+.1f}%" if bm else "n/a"
        biqr = f"{quantile(base, 0.25):.4g}..{quantile(base, 0.75):.4g}"
        ciqr = f"{quantile(change, 0.25):.4g}..{quantile(change, 0.75):.4g}"
        print(f"{name:<24} {meta['unit']:<6} {bm:>12.6g} {biqr:>23} "
              f"{cm:>13.6g} {ciqr:>23} {delta:>8}  {wins}/{ties}/{losses}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--seed", default=1, type=int)
    parser.add_argument("--work-dir")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        fail("--pairs must be >= 1 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}

    work = args.work_dir or tempfile.mkdtemp(prefix="ab_bench.")
    os.makedirs(work, exist_ok=True)
    try:
        base_tree = os.path.join(work, "base")
        if os.path.exists(base_tree):
            shutil.rmtree(base_tree)
        export(args.base_rev, base_tree)
        sides = {"base": (base_tree, os.path.join(work, "build-base")),
                 "change": (ROOT, os.path.join(work, "build-change"))}

        samples = {"base": [], "change": []}
        fingerprints = {"base": set(), "change": set()}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                metrics, fingerprint = run_side(*sides[side], args)
                samples[side].append(metrics)
                fingerprints[side].add(fingerprint)
                print(f"pair {pair + 1}/{args.pairs} {side}: "
                      f"fingerprint {fingerprint}", file=sys.stderr)
        report(args, spec, samples)
        traced = {side: traced_run(*sides[side], args)
                  for side in ("base", "change")}
        print_span_times(traced["base"][0], traced["change"][0],
                         trace_seconds(args))
        base_fps, change_fps = fingerprints["base"], fingerprints["change"]
        if base_fps == change_fps and len(base_fps) == 1:
            print(f"fingerprints: equal ({base_fps.pop()})")
            return 0
        print(f"fingerprints: DIFFER (base {sorted(map(str, base_fps))}, "
              f"change {sorted(map(str, change_fps))})")
        print_counter_diff(simulated_counters(*traced["base"]),
                           simulated_counters(*traced["change"]))
        return 1
    finally:
        if not args.work_dir:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
