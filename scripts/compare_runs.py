"""Check that two `pugraph train` output directories hold the same run.

    python3 scripts/compare_runs.py RUN_A RUN_B [EVAL_JSON]

`result.json` must match apart from `wall_time_s`, and `train_log.jsonl`
apart from each record's `wall_time_ms` and `phase_ms`: the fields that
differ between two runs of one config. If EVAL_JSON, the output of
`pugraph eval --out` on RUN_A's checkpoint, is given, its macro_f1 must
equal RUN_A's. Exits 0 when every check holds, else 1 with the first
difference found.
"""

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


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
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
