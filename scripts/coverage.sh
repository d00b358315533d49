#!/usr/bin/env bash
# Line coverage of src/**/*.cpp under the full ctest suite.
#
# Configures a Debug build with --coverage (default directory
# build-coverage/), builds it, runs ctest there, then reads each src/ .cpp's
# line counts from gcov and prints one row per file, sorted from the least
# covered, and the total. Headers are left out: every translation unit
# carries its own copy of a header's lines, and gcov does not merge them.
#
#   scripts/coverage.sh [build-dir [PREFIX=PERCENT]...]
#
# Each PREFIX=PERCENT is a floor: the script fails when a listed file whose
# path starts with PREFIX reads below PERCENT (CI passes src/reports/=80).
# Needs only gcov, which ships with GCC (no gcovr or lcov). Without a floor
# the script fails only when the build or a test fails.
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build-coverage}"
floors=("${@:2}")
jobs="$(nproc)"

cmake -B "$build" -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
cmake --build "$build" -j "$jobs"
# Counts accumulate across runs; keep only this one's.
find "$build" -name '*.gcda' -delete
ctest --test-dir "$build" --no-tests=error --output-on-failure -j "$jobs"

python3 - "$build/CMakeFiles/brisa.dir" "$PWD" "${floors[@]}" <<'EOF'
import json
import os
import subprocess
import sys

objdir, root, floors = sys.argv[1], sys.argv[2], sys.argv[3:]
rows = []
for dirpath, _, names in os.walk(os.path.join(objdir, "src")):
    for name in sorted(names):
        if not name.endswith(".cpp.gcno"):
            continue
        # The object tree mirrors the source tree: <objdir>/src/x/y.cpp.gcno.
        # A unit that no test ran has no .gcda beside it; gcov then reads
        # every line as not executed.
        gcno = os.path.join(dirpath, name)
        source = os.path.relpath(gcno, objdir)[: -len(".gcno")]
        out = subprocess.run(["gcov", "--json-format", "--stdout", gcno],
                             capture_output=True, text=True, check=True)
        # A line appears once per function that holds code from it (each
        # template instance, each lambda); it ran if any of them ran it.
        ran = {}
        for line in out.stdout.splitlines():
            if not line.startswith("{"):
                continue
            for entry in json.loads(line)["files"]:
                path = os.path.normpath(os.path.join(root, entry["file"]))
                if path != os.path.join(root, source):
                    continue
                for l in entry["lines"]:
                    number = l["line_number"]
                    ran[number] = ran.get(number, False) or l["count"] > 0
        rows.append((source, sum(ran.values()), len(ran)))

rows.sort(key=lambda r: (r[1] / r[2] if r[2] else 1.0, r[0]))
width = max((len(r[0]) for r in rows), default=4)
print(f"{'file':<{width}}  {'lines':>6}  {'run':>6}  {'cover':>6}")
for source, executed, total in rows:
    share = 100.0 * executed / total if total else 100.0
    print(f"{source:<{width}}  {total:>6}  {executed:>6}  {share:>5.1f}%")
all_total = sum(r[2] for r in rows)
all_run = sum(r[1] for r in rows)
share = 100.0 * all_run / all_total if all_total else 100.0
print(f"{'total':<{width}}  {all_total:>6}  {all_run:>6}  {share:>5.1f}%")

below = []
for floor in floors:
    prefix, _, percent = floor.partition("=")
    for source, executed, total in rows:
        share = 100.0 * executed / total if total else 100.0
        if source.startswith(prefix) and share < float(percent):
            below.append(f"{source} {share:.1f}% < {float(percent):g}%")
for line in below:
    print(f"below floor: {line}")
sys.exit(1 if below else 0)
EOF
