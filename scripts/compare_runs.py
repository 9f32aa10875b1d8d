"""Check that two `pugraph train` or two `pugraph sweep` output directories
hold the same run.

    python3 scripts/compare_runs.py RUN_A RUN_B [EVAL_JSON]

A directory that holds `runs.csv` is a sweep: its `aggregate.json` must be
byte-equal to the other's, and its `runs.csv` non-empty and equal apart from
the `wall_time` column. Otherwise `result.json` must match apart from
`wall_time_s`, and `train_log.jsonl` apart from each record's `wall_time_ms`
and `phase_ms`. These are the fields that differ between two runs of one
config. EVAL_JSON, given only for train runs, is the output of `pugraph eval
--out` on RUN_A's checkpoint, and its macro_f1 must equal RUN_A's. Exits 0
when every check holds, else 1 with the first difference found.
"""

import csv
import json
import os
import sys


def load(out_dir: str):
    """(result.json, train_log.jsonl records) of a run, wall-time fields dropped."""
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    del result["wall_time_s"]
    with open(os.path.join(out_dir, "train_log.jsonl"), encoding="utf-8") as fh:
        log = [json.loads(line) for line in fh]
    for record in log:
        del record["wall_time_ms"], record["phase_ms"]
    return result, log


def load_sweep(out_dir: str):
    """(aggregate.json bytes, runs.csv rows) of a sweep, the wall_time column dropped."""
    with open(os.path.join(out_dir, "aggregate.json"), "rb") as fh:
        aggregate = fh.read()
    with open(os.path.join(out_dir, "runs.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        del row["wall_time"]
    return aggregate, rows


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    if os.path.exists(os.path.join(argv[0], "runs.csv")):
        if len(argv) == 3:
            sys.exit("EVAL_JSON checks a train run, not a sweep")
        (first_aggregate, first_rows), (second_aggregate, second_rows) = map(load_sweep, argv)
        if first_aggregate != second_aggregate:
            sys.exit(f"aggregate.json differs between {argv[0]} and {argv[1]}")
        if not first_rows or first_rows != second_rows:
            sys.exit(f"runs.csv is empty or differs between {argv[0]} and {argv[1]}")
        return 0
    (first_result, first_log), (second_result, second_log) = load(argv[0]), load(argv[1])
    if first_result != second_result:
        sys.exit(f"result.json differs between {argv[0]} and {argv[1]}")
    if first_log != second_log:
        sys.exit(f"train_log.jsonl differs between {argv[0]} and {argv[1]}")
    if len(argv) == 3:
        with open(argv[2], encoding="utf-8") as fh:
            evaluated = json.load(fh)
        if evaluated["macro_f1"] != first_result["macro_f1"]:
            sys.exit(f"pugraph eval in {argv[2]} does not reproduce the macro_f1 of {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
