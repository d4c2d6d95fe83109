#!/usr/bin/env python3
"""Summarizes and compares sets of gale_bench results.

    python3 bench/e2e/compare.py RUNS
    python3 bench/e2e/compare.py PARENT CHANGE

Each argument is a directory of result files named <workload>.<seed>.json,
each holding the stdout of one `run.py --trace 0` run (its last line is the
result object). Runs of the two sets are paired by file name, so give both
sets the same seeds.

With one set, prints per (metric, workload) the run count, median,
quartiles and the spread: the distance between the quartiles as a share of
the median, flagged when above a third of the metric's bound.

With two sets, prints both sides' medians and quartiles and a verdict by
the rules of the benchmark (bench/e2e/README.md):
  gain         the change wins at least 9 of 10 pairs and the medians
               differ by more than the parent's quartile distance;
  unresolved   the spread of either side is wider than the bound, and not
               every change run beats every parent run;
  regression   the change's median is worse than the parent's by more
               than the bound;
  ok           otherwise: no regression within the bound.
A gain does not count when the change failed more operations.

Quality guard: f1 on detect's test fold, read from gale_bench's own result
line in each file, must not fall. When the change's median f1 is more
than 0.01 below the parent's, f1 is reported as a regression and no gain
on any pair counts. The exit status is 1 when any pair of (metric,
workload) regressed or the guard tripped.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
# The largest fall in median f1 (absolute) a change may cost.
F1_DROP = 0.01


def load(directory):
    """{workload: {seed: result}} from <workload>.<seed>.json files. Each
    result also gets the informational values (f1) of gale_bench's own
    result line, which run.py echoes above its last line."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        workload, _, seed = path.stem.rpartition(".")
        lines = path.read_text().strip().splitlines()
        if not workload or not lines:
            continue
        result = json.loads(lines[-1])
        if not result.get("correct"):
            print(f"warning: {path} is not a correct run; skipped",
                  file=sys.stderr)
            continue
        result["info"] = {}
        for text in lines[:-1]:
            try:
                line = json.loads(text)
            except json.JSONDecodeError:
                continue
            if isinstance(line, dict) and line.get("pass") == "end_to_end":
                result["info"] = line.get("info", {})
        runs.setdefault(workload, {})[seed] = result
    return runs


def f1_of(runs):
    """{seed: f1} of the detect runs."""
    return {seed: r["info"]["f1"] for seed, r in runs.get("detect", {}).items()
            if "f1" in r["info"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def values_of(runs, metric):
    return {seed: r["metrics"][metric]["value"] for seed, r in runs.items()}


def summarize(runs, spec):
    print(f"{'metric':<16} {'workload':<14} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        for workload in sorted(runs):
            values = list(values_of(runs[workload], m["name"]).values())
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"] / 3:
                flag = "  > bound/3" if spread <= m["bound"] else "  > bound"
            print(f"{m['name']:<16} {workload:<14} {len(values):>3} "
                  f"{med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} "
                  f"{m['bound']:>6.2f}{flag}")
    f1 = list(f1_of(runs).values())
    if f1:
        q1, med, q3 = quartiles(f1)
        print(f"{'f1':<16} {'detect':<14} {len(f1):>3} {med:>12.6g} "
              f"{q1:>12.6g} {q3:>12.6g}")


def quality(parent_runs, change_runs):
    """The f1 guard on detect: a change whose median f1 is more than
    F1_DROP below the parent's has regressed, and none of its speed-ups
    count. Returns True when the guard trips."""
    parent, change = f1_of(parent_runs), f1_of(change_runs)
    if not parent or not change:
        return False
    p1, pmed, p3 = quartiles(list(parent.values()))
    c1, cmed, c3 = quartiles(list(change.values()))
    tripped = cmed < pmed - F1_DROP
    print(f"{'f1':<16} {'detect':<14} "
          f"{pmed:>12.6g} [{p1:>9.6g}, {p3:>9.6g}] "
          f"{cmed:>12.6g} [{c1:>9.6g}, {c3:>9.6g}] "
          f"{cmed - pmed:>+8.3f} {'':>7}  "
          f"{'regression' if tripped else 'ok'}")
    return tripped


def verdict(parent, change, better, bound, more_failures):
    """Verdict for one (metric, workload) from seed-keyed values."""
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    p1, pmed, p3 = quartiles(list(parent.values()))
    c1, cmed, c3 = quartiles(list(change.values()))
    improvement = sign * (cmed - pmed)
    if (seeds and wins >= 0.9 * len(seeds) and improvement > p3 - p1
            and not more_failures):
        return "gain", wins, len(seeds)
    spread = max((p3 - p1) / pmed if pmed else float("inf"),
                 (c3 - c1) / cmed if cmed else float("inf"))
    all_better = all(sign * (c - p) > 0 for c in change.values()
                     for p in parent.values())
    if spread > bound and not all_better:
        return "unresolved", wins, len(seeds)
    if pmed and -improvement / abs(pmed) > bound:
        return "regression", wins, len(seeds)
    return "ok", wins, len(seeds)


def compare(parent_runs, change_runs, spec):
    print(f"{'metric':<16} {'workload':<14} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'delta':>8} {'wins':>7}  verdict")
    quality_lost = quality(parent_runs, change_runs)
    regressed = quality_lost
    for m in spec["end_to_end"]:
        for workload in sorted(set(parent_runs) & set(change_runs)):
            parent = values_of(parent_runs[workload], m["name"])
            change = values_of(change_runs[workload], m["name"])
            failed_p = sum(r["failed"] for r in parent_runs[workload].values())
            failed_c = sum(r["failed"] for r in change_runs[workload].values())
            v, wins, pairs = verdict(parent, change, m["better"], m["bound"],
                                     failed_c > failed_p)
            if v == "gain" and quality_lost:
                v = "ok (gain refused: f1 fell)"
            regressed = regressed or v == "regression"
            p1, pmed, p3 = quartiles(list(parent.values()))
            c1, cmed, c3 = quartiles(list(change.values()))
            delta = (cmed - pmed) / pmed if pmed else float("nan")
            print(f"{m['name']:<16} {workload:<14} "
                  f"{pmed:>12.6g} [{p1:>9.6g}, {p3:>9.6g}] "
                  f"{cmed:>12.6g} [{c1:>9.6g}, {c3:>9.6g}] "
                  f"{delta:>+8.3f} {wins:>3}/{pairs:<3}  {v}")
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("sets", nargs="+", metavar="DIR")
    parser.add_argument("--spec", default=str(SPEC),
                        help="BENCHMARK.json (default: the repository's)")
    opts = parser.parse_args()
    if len(opts.sets) > 2:
        parser.error("give one set to summarize or two to compare")
    spec = json.loads(Path(opts.spec).read_text())
    runs = [load(d) for d in opts.sets]
    if len(runs) == 1:
        summarize(runs[0], spec)
        return 0
    return compare(runs[0], runs[1], spec)


if __name__ == "__main__":
    sys.exit(main())
