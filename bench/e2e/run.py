#!/usr/bin/env python3
"""Entry point of the repository benchmark (BENCHMARK.json at the root).

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

builds gale_bench from source into .bench_build/e2e (Release), runs one
workload, and prints as its last stdout line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1, each with the unit
BENCHMARK.json declares. A build that is not an optimized release counts
as incorrect. The traced run also leaves chrome://tracing exports and
layers.json in .bench_build/trace/NAME.

    python3 bench/e2e/run.py --smoke [--binary PATH] [--work-dir DIR]

runs every workload on a tiny graph, untraced and traced, in any build
type, and fails when a correctness check fails, when the emitted
(metric, workload) names differ from those BENCHMARK.json declares, or
when layer_map.json does not match them.

Exit status: 0 on success, 1 on a failed check or run, 2 when the source
tree or the build is missing.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    """Configures once, then brings gale_bench up to date; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no source tree at {ROOT}", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "--target", "gale_bench",
              "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(ROOT / "bench" / "e2e"),
                         "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step), 2)
    return BUILD / "gale_bench"


def run_bench(args):
    """Runs gale_bench; returns (exit code, parsed JSON lines)."""
    env = dict(os.environ)
    # Both change what the program measures: an export after every
    # Gale::Run, or logical instead of wall time in its spans.
    env.pop("GALE_TRACE_DIR", None)
    env.pop("GALE_OBS_LOGICAL_TIME", None)
    try:
        done = subprocess.run(args, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"gale_bench did not finish within {RUN_TIMEOUT_S} s")
    lines = []
    for text in done.stdout.splitlines():
        print(text)
        try:
            lines.append(json.loads(text))
        except json.JSONDecodeError:
            pass
    return done.returncode, lines


def find(lines, workload, kind):
    for line in lines:
        if line.get("workload") == workload and line.get("pass") == kind:
            return line
    return None


def check_line(line, spec, kind, where, require_valid):
    """Problems with one result line: failed checks, undeclared or missing
    names, non-numeric values. Every end-to-end metric must be emitted; a
    per-layer metric is missing when the workload never reaches the layer.
    require_valid refuses builds that are not optimized releases."""
    problems = []
    if not line["correct"]:
        problems += [f"{where}: {f}" for f in line["failures"]] or \
            [f"{where}: incorrect"]
    if require_valid and not line["valid"]:
        problems.append(f"{where}: not an optimized release build")
    declared = {m["name"] for m in spec[kind]}
    emitted = set(line["metrics"])
    if emitted - declared:
        problems.append(f"{where}: undeclared metrics "
                        f"{sorted(emitted - declared)}")
    if kind == "end_to_end" and declared - emitted:
        problems.append(f"{where}: missing metrics "
                        f"{sorted(declared - emitted)}")
    for name, value in line["metrics"].items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} is not a number")
    return problems


def with_units(values, section):
    """The declared metrics of a section with their units; a per-layer
    metric of a layer the workload never reaches reads 0."""
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in section}


def measure(opts):
    spec = benchmark_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if opts.workload not in workloads:
        fail(f"unknown workload {opts.workload}; declared: {workloads}")
    binary = build()
    kind = "per_layer" if opts.trace else "end_to_end"
    seconds = opts.seconds or spec["run_seconds"]
    cmd = [str(binary), "--workload", opts.workload, "--seed", str(opts.seed),
           "--seconds", str(seconds),
           "--work-dir", str(ROOT / ".bench_build" / "work")]
    if opts.trace:
        trace = ROOT / ".bench_build" / "trace" / opts.workload
        cmd += ["--trace", str(trace)]
    code, lines = run_bench(cmd)
    line = find(lines, opts.workload, kind)
    if line is None:
        fail(f"gale_bench exited {code} without a {kind} result")
    problems = check_line(line, spec, kind, opts.workload, require_valid=True)
    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    correct = code == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": line["attempted"],
        "failed": line["failed"],
        "metrics": with_units(line["metrics"], spec[kind]),
    }))
    return 0 if correct else 1


def check_layer_map(spec, workloads):
    """layer_map.json must describe exactly the declared per-layer metrics,
    and each metric it says a layer moves must be a declared end-to-end
    metric of a declared workload."""
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    problems = []
    declared = {m["name"] for m in spec["per_layer"]}
    if set(layer_map) - declared:
        problems.append(f"layer_map.json maps undeclared metrics "
                        f"{sorted(set(layer_map) - declared)}")
    if declared - set(layer_map):
        problems.append(f"layer_map.json lacks declared metrics "
                        f"{sorted(declared - set(layer_map))}")
    targets = {m["name"] for m in spec["end_to_end"]}
    for name, entry in layer_map.items():
        for moved in entry["moves"]:
            metric, _, workload = moved.partition("@")
            if metric not in targets or workload not in workloads:
                problems.append(f"layer_map.json: {name} moves unknown "
                                f"{moved}")
    return problems


def smoke(opts):
    spec = benchmark_spec()
    binary = Path(opts.binary) if opts.binary else build()
    work = Path(opts.work_dir) if opts.work_dir else BUILD / "smoke"
    trace = work / "trace"
    code, lines = run_bench([str(binary), "--smoke", "--trace", str(trace),
                             "--work-dir", str(work)])
    problems = [] if code == 0 else [f"gale_bench exited {code}"]
    workloads = [w["name"] for w in spec["workloads"]]
    problems += check_layer_map(spec, workloads)
    emitted = sorted({l["workload"] for l in lines if "workload" in l})
    if emitted != sorted(workloads):
        problems.append(f"workloads {emitted} != declared {sorted(workloads)}")
    reached = set()
    for workload in workloads:
        for kind in ("end_to_end", "per_layer"):
            line = find(lines, workload, kind)
            if line is None:
                problems.append(f"{workload}: no {kind} result")
                continue
            # A functional check: sanitizer and debug builds are welcome.
            problems += check_line(line, spec, kind, f"{workload} {kind}",
                                   require_valid=False)
            if kind == "per_layer":
                reached |= set(line["metrics"])
        if not (trace / f"{workload}_trace.json").is_file():
            problems.append(f"{workload}: no chrome trace written")
    unreached = {m["name"] for m in spec["per_layer"]} - reached
    if unreached:
        problems.append(f"per-layer metrics no workload emits: "
                        f"{sorted(unreached)}")
    if not (trace / "layers.json").is_file():
        problems.append("no layers.json written")
    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="smoke: an already built gale_bench")
    parser.add_argument("--work-dir", help="smoke: scratch directory")
    opts = parser.parse_args()
    if opts.smoke:
        return smoke(opts)
    if opts.workload is None:
        parser.error("--workload is required")
    return measure(opts)


if __name__ == "__main__":
    sys.exit(main())
