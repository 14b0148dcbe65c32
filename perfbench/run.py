#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload serve_narrow --seed 3 --seconds 20 \
        --trace 0

Builds the library and the load generator from source (perfbench/CMakeLists.txt)
into the directory named by CARGO_TARGET_DIR (default .bench_build) on first
use, runs the generator, checks its outputs (its own checks plus the values
pinned per seed in perfbench/pinned.json), prints every raw measurement by name
with its unit, and prints as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics. The end-to-end times are at the reference
clock speed (README.md, "Host speed"). perfbench/README.md defines each
metric per workload. Exit codes: 0 ok, 1 an output check failed, 2 usage or
build error, 3 the open-loop generator fell behind its schedule (the run is
invalid).

    python3 perfbench/run.py --pin SEEDS --workload W

re-derives the pinned values of workload W for the comma-separated SEEDS and
writes them into perfbench/pinned.json.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED = os.path.join(HERE, "pinned.json")

WORKLOADS = ("serve_narrow", "serve_remedy", "batch_pipeline", "count_scale")

# End-to-end metric -> (raw metric per workload, scale to the reported unit).
# The raw names are the generator's; README.md gives each definition.
END_TO_END = {
    "setup_s": {w: ("setup_s", 1.0) for w in WORKLOADS},
    "latency_p50_ms": {
        "serve_narrow": ("freshness_p50_ms", 1.0),
        "serve_remedy": ("remedy_p50_ms", 1.0),
        "batch_pipeline": ("pipeline_s", 1e3),
        "count_scale": ("identify_s_p50", 1e3),
    },
    "peak_rss_mb": {w: ("peak_rss_mb", 1.0) for w in WORKLOADS},
}

# End-to-end times reported at the reference clock speed: scaled by the
# run's host.scale, the nominal over the measured time of the generator's
# fixed reference kernel (loadgen.cc, HostReference). The raw times print
# as metric lines beside them.
AT_REFERENCE_SPEED = ("setup_s", "latency_p50_ms")

# The open-loop validity bound: a run whose generator sent batches this
# late after their due times could not offer the load it was meant to
# (freshness counts from the due time either way). The p99 bound is two
# send periods at the sweep's highest rate, 40 batches/s.
LATE_MAX_MS = 500.0
LATE_P99_MS = 50.0

TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures and builds the generator; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources under", os.path.join(ROOT, "src"))
        return None
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "loadgen",
                      "-j", "4"])
        # Compiler temporaries stay inside the checkout too.
        env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
        os.makedirs(env["TMPDIR"], exist_ok=True)
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  env=env)
            if done.returncode != 0:
                log(done.stdout[-4000:])
                log("perfbench: build step failed:", " ".join(step))
                return None
    return os.path.join(out, "loadgen")


def run_generator(binary, workload, seed, seconds, trace):
    """Runs the generator; returns (raw result dict or None, exit code)."""
    work = os.path.join(ROOT, ".bench_work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: generator timed out")
        return None, 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1]), done.returncode
    except (IndexError, ValueError):
        log("perfbench: generator printed no result (exit %d)"
            % done.returncode)
        return None, 2


def load_pins():
    if not os.path.isfile(PINNED):
        return {}
    with open(PINNED) as f:
        return json.load(f)


def check_pins(raw):
    """Compares the run's pinned outputs; returns (ok, description)."""
    pins = load_pins().get(raw["workload"], {}).get(str(raw["seed"]))
    if not raw["pins"]:
        return True, "no pinned outputs for this workload"
    if pins is None:
        return True, ("seed %d not pinned; run-internal checks only"
                      % raw["seed"])
    bad = []
    for name, want in pins.items():
        got = raw["pins"].get(name)
        if got is None:
            bad.append(name)
        elif name.startswith("fairness_"):
            want = float(want)
            if abs(float(got) - want) > 1e-9 * max(1.0, abs(want)):
                bad.append(name)
        elif got != want:
            bad.append(name)
    if bad:
        return False, "mismatch vs pinned.json: " + ", ".join(bad)
    return True, "%d values match pinned.json" % len(pins)


def benchmark_metrics(kind):
    """(name, unit) of BENCHMARK.json's "end_to_end" or "per_layer"."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec[kind]]


def result(raw, trace):
    metrics = raw["metrics"]
    out = {}
    if trace:
        # A layer the workload does not exercise reads 0 (README.md lists
        # which layers each workload is expected to move), as does a ratio
        # without a base (the generator writes it as null).
        for name, unit in benchmark_metrics("per_layer"):
            value = metrics.get(name, {}).get("value")
            out[name] = {"value": 0 if value is None else value,
                         "unit": unit}
    else:
        for name, unit in benchmark_metrics("end_to_end"):
            source, scale = END_TO_END[name][raw["workload"]]
            if name in AT_REFERENCE_SPEED:
                scale *= metrics["host.scale"]["value"]
            out[name] = {"value": metrics[source]["value"] * scale,
                         "unit": unit}
    return out


def pin(workload, seeds):
    binary = build()
    if binary is None:
        return 2
    pins = load_pins()
    for seed in seeds:
        raw, code = run_generator(binary, workload, seed, 1, 0)
        if raw is None or code != 0:
            log("perfbench: seed %d failed" % seed)
            return 1
        pins.setdefault(workload, {})[str(seed)] = raw["pins"]
        log("pinned %s seed %d" % (workload, seed))
        with open(PINNED, "w") as f:
            json.dump(pins, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", help="comma-separated seeds to re-pin")
    args = parser.parse_args()
    if args.pin:
        return pin(args.workload, [int(s) for s in args.pin.split(",")])

    binary = build()
    if binary is None:
        return 2
    raw, code = run_generator(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    if raw is None:
        return code or 2
    pins_ok, pins_note = check_pins(raw)
    print("check %-28s %s  %s" % ("pinned_outputs", "ok" if pins_ok else
                                  "FAILED", pins_note))
    metrics = raw["metrics"]
    for name in sorted(metrics):
        print("metric %-34s %s %s" % (name, metrics[name]["value"],
                                      metrics[name]["unit"]))
    print("seed %d (held-out seed for verifying claims: 1009)" % raw["seed"])
    late_max = metrics.get("gen.late_max_ms", {"value": 0})["value"]
    late_p99 = metrics.get("gen.late_p99_ms", {"value": 0})["value"]
    if late_max > LATE_MAX_MS or late_p99 > LATE_P99_MS:
        log("perfbench: invalid run: generator late by up to %.1fms (p99 "
            "%.1fms); bound %.0fms (p99 %.0fms)"
            % (late_max, late_p99, LATE_MAX_MS, LATE_P99_MS))
        return 3
    correct = bool(raw["correct"]) and pins_ok and code == 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": result(raw, args.trace)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
