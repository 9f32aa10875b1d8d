"""Time the benchmark on a parent revision and on this checkout, in pairs.

    python3 scripts/ab_pairs.py PARENT [--workloads W ...] [--seeds N ...] [--seconds S]

PARENT is a git revision of this repository. It is checked out with `git
worktree add --detach` under a temporary directory, which needs no network,
and the worktree is removed on exit. The change is this checkout, its working
tree as it is. For each workload and seed, `perfbench/run.py --trace 0` runs
once in each checkout, each in a fresh process; the side that runs first
alternates from pair to pair, the parent first in the first pair.

The report gives, for each workload and each end-to-end metric that
BENCHMARK.json names, every pair's parent and change values and their ratio,
each side's median and quartiles, the count of pairs the change won and lost
(ties count for neither), and whether the medians differ by more than the
parent's interquartile range. Workloads default to BENCHMARK.json's, seeds to
1-10 and seconds to its run_seconds. Exits 1 if any run fails or reads
`correct: false`, 2 if PARENT cannot be checked out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one untraced perfbench run, as JSON; a run that
    exits non-zero or prints no JSON reads {"correct": False}."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode or not isinstance(result, dict):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "metrics": {}}
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[dict], metric: dict) -> dict:
    """One metric over a workload's pairs: per-pair values and ratios
    (change / parent), each side's quartiles, and pairs won and lost."""
    name, lower = metric["name"], metric["better"] == "lower"
    parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
    change = [p["change"]["metrics"][name]["value"] for p in pairs]
    won = sum(c < p if lower else c > p for p, c in zip(parent, change))
    lost = sum(c > p if lower else c < p for p, c in zip(parent, change))
    parent_q, change_q = quartiles(parent), quartiles(change)
    return {"parent": parent, "change": change,
            "ratios": [c / p if p else float("nan") for p, c in zip(parent, change)],
            "parent_quartiles": parent_q, "change_quartiles": change_q,
            "won": won, "lost": lost,
            "beyond_iqr": abs(change_q[1] - parent_q[1]) > parent_q[2] - parent_q[0]}


def report(results: list[dict], end_to_end: list[dict]) -> str:
    """The text report of a list of {"workload", "seed", "parent", "change"}
    records, each side a run's JSON result."""
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in results):
        pairs = [r for r in results if r["workload"] == workload]
        failed = sum(r[side].get("correct") is not True for r in pairs for side in ("parent", "change"))
        lines.append(f"{workload}: {len(pairs)} pairs, seeds "
                     f"{' '.join(str(r['seed']) for r in pairs)}; {failed} runs not correct")
        complete = [r for r in pairs
                    if all(m["name"] in r[side]["metrics"]
                           for m in end_to_end for side in ("parent", "change"))]
        if not complete:
            continue
        for metric in end_to_end:
            s = summarize(complete, metric)
            (pq1, pmed, pq3), (cq1, cmed, cq3) = s["parent_quartiles"], s["change_quartiles"]
            lines.append(
                f"  {metric['name']} ({metric['unit']}, {metric['better']} is better): "
                f"median {pmed:.6g} -> {cmed:.6g}, quartiles [{pq1:.6g}, {pq3:.6g}] -> "
                f"[{cq1:.6g}, {cq3:.6g}]; change won {s['won']}, lost {s['lost']} "
                f"of {len(complete)}; medians differ by "
                f"{'more' if s['beyond_iqr'] else 'no more'} than the parent's IQR")
            lines.append("    parent/change (ratio): " + ", ".join(
                f"{p:.6g}/{c:.6g} ({r:.3f})"
                for p, c, r in zip(s["parent"], s["change"], s["ratios"])))
    return "\n".join(lines)


def all_correct(results: list[dict]) -> bool:
    return all(r[side].get("correct") is True for r in results for side in ("parent", "change"))


def main(argv: list[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision to compare this checkout against")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    results = []
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as scratch:
        parent_dir = os.path.join(scratch, "parent")
        added = subprocess.run(["git", "worktree", "add", "--detach", parent_dir, args.parent],
                               cwd=ROOT, stdout=subprocess.DEVNULL)
        if added.returncode:  # git has said why on stderr
            return 2
        try:
            for workload in args.workloads:
                for seed in args.seeds:
                    sides = [("parent", parent_dir), ("change", ROOT)]
                    if len(results) % 2:
                        sides.reverse()
                    record = {"workload": workload, "seed": seed}
                    for side, checkout in sides:
                        print(f"ab_pairs: {workload} seed {seed} {side}", file=sys.stderr)
                        record[side] = run_bench(checkout, workload, seed, args.seconds)
                    results.append(record)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", parent_dir],
                           cwd=ROOT, check=False)
    print(report(results, bench["end_to_end"]))
    return 0 if all_correct(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
