"""Compare the benchmark of two trees in alternating pairs of runs.

    python tools/abtest.py REF_TREE NEW_TREE [--workload W ...] [--pairs 10]

For each workload (default: every one in NEW_TREE's BENCHMARK.json) and pair
i, runs the benchmark's command (`bench/run.py`) for BENCHMARK.json's
`run_seconds` with `--trace 0` and seed 601 + i once from each tree, REF
first in even pairs and NEW first in odd ones. Each run writes its own
record under its tree's `bench/results/`, as `bench/run.py` always does;
nothing else in either tree is written.

For every end-to-end metric of BENCHMARK.json (each one lower-is-better) it
prints both medians with their interquartile ranges, the ratio NEW / REF of
each pair, how many pairs are lower, and the interval from the smallest to
the largest ratio, which holds the median ratio with probability
1 - 2^(1 - n) over n pairs whatever their distribution (the sign-test
interval). The verdict follows the benchmark's own rules:
  - "lower" (a gain) needs at least 10 pairs, NEW lower in at least 9 of
    every 10, and the medians apart by more than the interquartile range of
    REF's runs;
  - "higher" (a regression) means NEW's median is worse than REF's by more
    than the metric's bound;
  - anything else is "not resolved".
Failed operations and failed checks are printed per side.

The last line of standard output is one JSON object holding every run and
verdict. Exits with status 1 when a run gave no record, an operation failed
or a check failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

FIRST_SEED = 601
SIDES = ("ref", "new")
MIN_PAIRS = 10  # the fewest pairs that can show a gain, NEW lower in 9 of every 10


def _iqr(values: list[float]) -> float | None:
    """Distance between the quartiles, as numpy.percentile's default takes them."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def compare(ref: list[float], new: list[float], bound: float) -> dict:
    """Verdict on one lower-is-better metric from the values of n pairs, pair
    i of `ref` and `new` run together; `bound` is the relative worsening of
    the median that counts as a regression."""
    ratios = [b / a for a, b in zip(ref, new)]
    n = len(ratios)
    low, high = (min(ratios), max(ratios)) if ratios else (float("nan"), float("nan"))
    lower = sum(r < 1.0 for r in ratios)
    ref_median = statistics.median(ref) if ref else None
    new_median = statistics.median(new) if new else None
    iqr = {side: _iqr(values) for side, values in zip(SIDES, (ref, new))}
    if n >= MIN_PAIRS and 10 * lower >= 9 * n and ref_median - new_median > iqr["ref"]:
        verdict = "lower"
    elif n and new_median > ref_median * (1.0 + bound):
        verdict = "higher"
    else:
        verdict = "not resolved"
    return {
        "ref_median": ref_median,
        "new_median": new_median,
        "ref_iqr": iqr["ref"],
        "new_iqr": iqr["new"],
        "ratios": ratios,
        "lower": lower,
        "interval": [low, high],
        "coverage": 1.0 - 2.0 ** (1 - n) if n else 0.0,
        "verdict": verdict,
    }


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float):
    """The JSON record that the last line of one benchmark run prints, or None."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    args += ["--trace", "0"]
    proc = subprocess.run(args, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{tree}: {workload} seed {seed} exited {proc.returncode}\n")
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def summarize(runs: dict, bounds: dict) -> dict:
    """Per metric the verdict over the pairs in which both sides gave a
    record, and per side the failed operations and checks."""
    pairs = [(a, b) for a, b in zip(runs["ref"], runs["new"]) if a and b]
    out = {"pairs": len(pairs), "metrics": {}}
    for name, bound in bounds.items():
        ref = [a["metrics"][name]["value"] for a, _ in pairs]
        new = [b["metrics"][name]["value"] for _, b in pairs]
        out["metrics"][name] = compare(ref, new, bound)
    for side in SIDES:
        records = [r for r in runs[side] if r]
        out[side] = {
            "runs_without_record": len(runs[side]) - len(records),
            "attempted": sum(r["attempted"] for r in records),
            "failed_operations": sum(r["failed"] for r in records),
            "failed_checks": sum(not r["correct"] for r in records),
        }
    return out


def report(workload: str, summary: dict, bounds: dict) -> None:
    print(f"{workload}: {summary['pairs']} pairs")
    for name, m in summary["metrics"].items():
        if not m["ratios"]:
            print(f"  {name}: no complete pair")
            continue
        ratios = " ".join(f"{r:.3f}" for r in m["ratios"])
        print(
            f"  {name}: ref {m['ref_median']:.6g} (IQR {m['ref_iqr'] or 0:.3g}) -> "
            f"new {m['new_median']:.6g} (IQR {m['new_iqr'] or 0:.3g}); "
            f"ratios {ratios}; lower in {m['lower']} of {len(m['ratios'])}; "
            f"interval [{m['interval'][0]:.3f}, {m['interval'][1]:.3f}] "
            f"({100 * m['coverage']:.1f}%); bound {1 + bounds[name]:.2f}; {m['verdict']}"
        )
    for side in SIDES:
        s = summary[side]
        print(
            f"  {side}: {s['failed_operations']} of {s['attempted']} operations failed, "
            f"{s['failed_checks']} runs with a failed check, "
            f"{s['runs_without_record']} runs without a record"
        )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(usage=__doc__.splitlines()[2].strip())
    parser.add_argument("ref", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    opts = parser.parse_args(argv)
    if opts.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {opts.pairs}")
    spec = json.loads((opts.new / "BENCHMARK.json").read_text())
    workloads = opts.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    trees = {"ref": opts.ref.resolve(), "new": opts.new.resolve()}

    record = {"ref": str(trees["ref"]), "new": str(trees["new"]), "pairs": opts.pairs,
              "seconds": seconds, "workloads": {}}
    clean = True
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for i in range(opts.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(
                    run_once(trees[side], spec["command"], workload, FIRST_SEED + i, seconds)
                )
        summary = summarize(runs, bounds)
        report(workload, summary, bounds)
        record["workloads"][workload] = {**summary, "runs": runs}
        clean &= all(
            summary[side][key] == 0
            for side in SIDES
            for key in ("runs_without_record", "failed_operations", "failed_checks")
        )
    print(json.dumps(record))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
