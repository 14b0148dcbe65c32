#!/bin/sh
# bench-micro: writes BENCH_micro.json, the checked-in micro-benchmark rows
# that back the repo's performance claims. Runs the core and ML micro
# benches at full size (Google Benchmark's default minimum time, no smoke
# flag) and merges their JSON reports into one file: the core run's
# `context`, then every benchmark row of both runs.
#
#   core  BM_WideInsertingApply, BM_IncrementalIdentify, BM_FullSweep
#   ml    BM_BuildDataset, BM_AnalyzeSubgroups, BM_RandomForestPredict
#
# A perf change reruns it and cites the rows it moved, before and after.
# Takes a few minutes; build the benches first.
#
# Usage: bench_micro.sh [build-dir] [out]
#        (defaults: build, BENCH_micro.json in the repo root)
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$root/build"}
out=${2:-"$root/BENCH_micro.json"}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$build/bench/micro_core_bm" \
  --benchmark_filter='^BM_(WideInsertingApply|IncrementalIdentify|FullSweep)(/|$)' \
  --benchmark_out="$tmp/core.json" --benchmark_out_format=json >/dev/null
"$build/bench/micro_ml_bm" \
  --benchmark_filter='^BM_(BuildDataset|AnalyzeSubgroups|RandomForestPredict)(/|$)' \
  --benchmark_out="$tmp/ml.json" --benchmark_out_format=json >/dev/null

python3 - "$tmp/core.json" "$tmp/ml.json" "$out" <<'EOF'
import json
import sys

core, ml, out = sys.argv[1:]
with open(core) as f:
    merged = json.load(f)
with open(ml) as f:
    merged["benchmarks"] += json.load(f)["benchmarks"]
# The path in the build tree, so the checked-in file names no host path.
merged["context"]["executable"] = "bench/micro_core_bm"
with open(out, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
EOF
echo "bench-micro: wrote $out"
