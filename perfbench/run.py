"""pugraph benchmark: one workload, one run.

    python3 perfbench/run.py --workload cora-pugnn --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the benchmark imports the program from
`src/` and reads its run configs from `configs/`. Inputs are written from
`--seed` under `.perfbench_work/` and removed at the end. BLAS is pinned to
one thread before numpy loads, and every workload, the sweep included, runs
its training in this one process, so the benchmark keeps one core busy.
Each call measures one workload; start a fresh process per workload so that
peak memory covers that workload alone.

With `--trace 0` the workload repeats untraced for `--seconds` and the
end-to-end metrics are printed. With `--trace 1` that untraced phase is
followed by one traced run, the per-layer metrics are printed and the
traced run's spans are written to `.perfbench_spans/`. The last line of
standard output is the JSON result; the lines before it give every metric
by name and unit, the error rate and the machine.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from layers import load_layer_map  # noqa: E402
from workloads import SWEEP_JOBS, SWEEP_METHODS, WORKLOADS, make_config  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NEEDED = ("src/pugraph/__init__.py", "configs/cora_pugnn.json", "configs/sbm_pugnn.json")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def machine_note(jobs: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}, "jobs": jobs}


def layer_values(plain: dict, traced: dict, workload: str, layer_map: dict) -> tuple[dict, list]:
    """Per-layer metrics of a traced run plus those taken from the untraced
    phase; also the problems (spans that never fired where they apply)."""
    values = dict(traced["layer"])
    fired = dict(traced["fired"])
    for method in SWEEP_METHODS + ("pugnn",):
        f1s = [c["macro_f1"] for c in traced["cells"] if c["method"] == method]
        values[f"evaluate.macro_f1.{method}"] = statistics.fmean(f1s) if f1s else 0.0
        fired[f"evaluate.macro_f1.{method}"] = len(f1s)
    values["evaluate.pool.efficiency"] = plain.get("pool_efficiency", 0.0)
    fired["evaluate.pool.efficiency"] = plain["runs"] if "pool_efficiency" in plain else 0
    # the traced run's wall time against the untraced median of the same work
    untraced = plain["end_to_end"].get("wall_s")
    if traced["wall_s"] is not None and untraced:
        values["trace.overhead"] = traced["wall_s"] / untraced - 1.0
        fired["trace.overhead"] = 1
    problems = [f"{name} never fired on {workload}"
                for name, where in layer_map["applies"].items()
                if workload in where and not fired.get(name)]
    return values, problems


def traced_matches(plain: dict, traced: dict) -> list[str]:
    """The wrappers must not change the program: compare macro-F1 run by run."""
    want = [c["macro_f1"] for c in plain["cells"]]
    got = [c["macro_f1"] for c in traced["cells"]]
    if got != want:
        return [f"traced macro_f1 {got} differs from untraced {want}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in NEEDED:
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found; run from a pugraph checkout",
                  file=sys.stderr)
            return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    import phase  # imports pugraph, so only once the checkout is known to hold it

    bench = load_benchmark()
    layer_map = load_layer_map()
    jobs = SWEEP_JOBS if args.workload == "cora-sweep" else 1
    work_dir = os.path.join(ROOT, ".perfbench_work",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        os.makedirs(work_dir, exist_ok=True)
        config = make_config(args.workload, args.seed, ROOT, work_dir)
        if args.workload == "cora-sweep":
            plain = phase.plain_sweep(config, args.seconds, args.seed)
        else:
            plain = phase.plain_single(config, args.seconds)
        traced = phase.traced(args.workload, config) if args.trace else None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:  # another run still uses it
            pass

    failures = list(plain["failures"])
    attempted = plain["attempted"]
    end_to_end = plain["end_to_end"]
    problems = [] if end_to_end.keys() >= {m["name"] for m in bench["end_to_end"]} \
        else ["no training run finished"]
    layer = {}
    if traced is not None:
        failures += traced["failures"]
        attempted += traced["attempted"]
        layer, span_problems = layer_values(plain, traced, args.workload, layer_map)
        problems += span_problems + traced_matches(plain, traced)
        spans_dir = os.path.join(ROOT, ".perfbench_spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")
        traced["tracer"].write_jsonl(spans_path)
        print(f"spans: {os.path.relpath(spans_path, ROOT)} "
              f"({len(traced['tracer'].spans)} spans)")

    print(f"machine: {json.dumps(machine_note(jobs), sort_keys=True)}")
    print(f"workload: {args.workload} seed={args.seed} runs={plain['runs']} "
          f"epochs={config['train']['epochs']}"
          + (f" traced={json.dumps(traced['notes'], sort_keys=True)}" if traced else ""))
    for m in bench["end_to_end"]:
        print(f"  {m['name']:<34} {end_to_end.get(m['name'], float('nan')):>14.6f} {m['unit']}")
    print(f"  {'error_rate':<34} {len(failures) / attempted:>14.6f} fraction "
          f"({len(failures)} of {attempted} training runs failed)")
    for m in bench["per_layer"] if traced is not None else ():
        print(f"  {m['name']:<34} {layer.get(m['name'], float('nan')):>14.6f} {m['unit']}")
    for text in failures + problems:
        print(f"problem: {text}", file=sys.stderr)
    wanted, values = (bench["per_layer"], layer) if traced else (bench["end_to_end"], end_to_end)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": not failures and not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
