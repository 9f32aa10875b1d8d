"""Command-line entry point: train, sweep, partition, eval.

A run is described by one JSON config document::

    {
      "dataset": { ... dataset manifest ... },
      "label_ratio": 0.01,
      "loss":  { "kind": "distance_aware", "pi_p": "auto", ... },
      "train": { "epochs": 400, "learning_rate": 0.01, ... }
    }

A manifest's ``format`` is ``content_cites``, ``jsonl`` or ``sbm`` (an SBM
generated in memory from the manifest's parameters).
``--override key=value`` patches the document with dotted paths
(e.g. ``--override loss.alpha=0``); values are parsed as JSON when possible.
A loss key takes a sweep method's pin, else a sweep cell's knob, else the
``loss`` section, else the LossConfig default; ``"pi_p": "auto"`` (or none)
is the true positive rate, an oracle read from the true labels.
Every command checks the document alike; ``train.seed`` is a run's seed.
Exit codes: 0 success, 1 configuration error, 2 data error (or a command
line argparse rejects), 3 numeric abort.
"""

import argparse
import datetime
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .data import prepare_dataset
from .errors import EXIT_CODES, ConfigError, TrainingAbort, check_value, error_kind
from .evaluate import (SWEEPS, aggregate, build_run, loss_config, run_sweep, score,
                       write_results_csv)
from .nn import load_checkpoint, save_checkpoint
from .train import TrainConfig, train

DATA_DIR_ENV = "PUGRAPH_DATA"


def _fail(kind: str, code: int, message: str) -> int:
    print(f'pugraph-error kind={kind} exit={code} msg="{message}"', file=sys.stderr)
    return code


def _parse_override(text: str) -> tuple[list[str], object]:
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like dotted.key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def _apply_overrides(config: dict, overrides) -> dict:
    for text in overrides or []:
        path, value = _parse_override(text)
        node = config
        for part in path[:-1]:
            if not isinstance(node.get(part), dict):
                node[part] = {}
            node = node[part]
        node[path[-1]] = value
    return config


def _load_config(path: str, overrides) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc.msg}")
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, got {config!r}")
    return _apply_overrides(config, overrides)


def _section(config: dict, name: str) -> dict:
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"the {name!r} section must be a JSON object, got {section!r}")
    return dict(section)


def _resolve_data_path(path: str, config_dir: str) -> str:
    """Absolute as-is; else try cwd, the config's directory, then $PUGRAPH_DATA."""
    if os.path.isabs(path) or os.path.exists(path):
        return path
    beside_config = os.path.join(config_dir, path)
    if os.path.exists(beside_config):
        return beside_config
    data_dir = os.environ.get(DATA_DIR_ENV)
    if data_dir and os.path.exists(os.path.join(data_dir, path)):
        return os.path.join(data_dir, path)
    return path


def _resolve_manifest(config: dict, config_path: str) -> dict:
    manifest = _section(config, "dataset")
    if not manifest:
        raise ConfigError("config is missing the 'dataset' section")
    config_dir = os.path.dirname(os.path.abspath(config_path))
    for key in ("content", "cites", "path"):
        if key in manifest:
            path = check_value(f"dataset.{key}", manifest[key], str)
            manifest[key] = _resolve_data_path(path, config_dir)
    return manifest


# Every top-level key a config document may hold; "_note" is a comment
CONFIG_KEYS = {"dataset", "label_ratio", "loss", "train", "_note"}


def _read_config(config: dict, config_path: str):
    """A config document's manifest, label ratio, loss section and TrainConfig, checked."""
    unknown = sorted(set(config) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; known: {sorted(CONFIG_KEYS)}")
    manifest = _resolve_manifest(config, config_path)
    label_ratio = check_value("label_ratio", config.get("label_ratio", 0.01), float)
    if not 0.0 < label_ratio <= 1.0:
        raise ConfigError(f"label_ratio must lie in (0, 1], got {label_ratio!r}")
    train = _section(config, "train")
    if "loss" in train:
        raise ConfigError("train.loss: loss settings belong in the top-level 'loss' section")
    try:
        train_config = TrainConfig(**train)
    except TypeError as exc:
        raise ConfigError(f"bad 'train' section: {exc}") from None
    loss = _section(config, "loss")
    loss_config(loss, 0.5)  # checked as a run would be; any prior in (0, 1) passes "auto"
    return manifest, label_ratio, loss, train_config


def _setup_run(config: dict, config_path: str):
    """A run's manifest, label ratio, TrainConfig (resolved loss, run seed) and dataset."""
    manifest, label_ratio, loss, base = _read_config(config, config_path)
    dataset, cfg = build_run(prepare_dataset(manifest), loss, base, label_ratio, base.seed)
    return manifest, label_ratio, cfg, dataset


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_run_manifest(out_dir: str, config_path: str, resolved: dict):
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "config_path": os.path.abspath(config_path),
        "resolved_config": resolved,
        "out_dir": os.path.abspath(out_dir),
        "tool_version": __version__,
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    })


def _write_train_log(out_dir: str, records: list[dict]):
    with open(os.path.join(out_dir, "train_log.jsonl"), "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


# OpenBLAS reads OPENBLAS_NUM_THREADS before OMP_NUM_THREADS; MKL reads its own
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _thread_note() -> dict:
    return {"cpu_count": os.cpu_count(),
            **{var.lower(): os.environ.get(var) for var in THREAD_VARS}}


def cmd_train(args) -> int:
    config = _load_config(args.config, args.override)
    manifest, label_ratio, cfg, dataset = _setup_run(config, args.config)
    out_dir = args.out or "run_out"
    _write_run_manifest(out_dir, args.config, config)
    t0 = time.perf_counter()
    try:
        params, records = train(dataset, cfg)
    except TrainingAbort as exc:
        save_checkpoint(os.path.join(out_dir, "checkpoint.bin"), exc.last_good)
        _write_train_log(out_dir, exc.records)
        raise
    save_checkpoint(os.path.join(out_dir, "checkpoint.bin"), params)
    _write_train_log(out_dir, records)
    metrics = score(dataset, params)
    part = dataset.partition
    _write_json(os.path.join(out_dir, "result.json"), {
        "dataset": manifest.get("name", "unnamed"),
        "seed": cfg.seed,
        "label_ratio": label_ratio,
        "loss": asdict(cfg.loss),
        "set_sizes": {"labeled": int(part.labeled.size), "near": int(part.near_unlabeled.size),
                      "far": int(part.far_unlabeled.size)},
        **asdict(metrics),
        "wall_time_s": time.perf_counter() - t0,
        "threads": _thread_note(),
        "tool_version": __version__,
    })
    print(f"train done: macro_f1={metrics.macro_f1:.2f} out={out_dir}")
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args.config, args.override)
    manifest, _, loss, train_config = _read_config(config, args.config)
    out_dir = args.out or f"sweep_{args.kind}"
    _write_run_manifest(out_dir, args.config, config)
    results = run_sweep(manifest, args.kind, args.ratios, range(args.seeds), train_config,
                        loss, jobs=args.jobs)
    write_results_csv(os.path.join(out_dir, "runs.csv"), results)
    _write_json(os.path.join(out_dir, "aggregate.json"), {"rows": aggregate(results)})
    failures = [r for r in results if r.error]
    print(f"sweep {args.kind}: {len(results) - len(failures)} runs ok, "
          f"{len(failures)} failed, out={out_dir}")
    if failures:
        # the first failed run in grid order sets the exit code; an error
        # the CLI does not map exits 1, as an uncaught exception would
        kind = failures[0].error_kind
        return _fail(kind or "internal", EXIT_CODES.get(kind, 1),
                     f"{len(failures)} of {len(results)} runs failed; "
                     f"first: {failures[0].error}")
    return 0


def cmd_partition(args) -> int:
    deltas = [args.delta] if args.delta is not None else list(range(1, 7))
    _, _, _, dataset = _setup_run(_load_config(args.config, args.override), args.config)
    dist = dataset.partition.min_dist
    finite = dist[np.isfinite(dist)].astype(int)
    print(f"labeled |V_L| = {dataset.partition.labeled.size}")
    print("min-distance histogram (hops: count):")
    for hop in range(int(finite.max()) + 1 if finite.size else 0):
        print(f"  {hop}: {int(np.sum(finite == hop))}")
    unreachable = int(np.sum(~np.isfinite(dist)))
    if unreachable:
        print(f"  unreachable: {unreachable}")
    print("delta  |near V_U|  |far V_U|")
    unlabeled = dist[dist > 0]  # min_dist does not depend on delta
    for delta in deltas:
        near = int(np.sum(unlabeled <= delta))
        print(f"{delta:>5}  {near:>10}  {unlabeled.size - near:>9}")
    return 0


def cmd_eval(args) -> int:
    manifest, _, _, dataset = _setup_run(_load_config(args.config, args.override), args.config)
    metrics = score(dataset, load_checkpoint(args.checkpoint))
    payload = {
        "dataset": manifest.get("name", "unnamed"),
        "checkpoint": os.path.abspath(args.checkpoint),
        **asdict(metrics),
    }
    if args.out:
        _write_json(args.out, payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _ratios(text: str) -> tuple[float, ...]:
    try:
        ratios = tuple(float(r) for r in text.split(","))
        if all(0.0 < r <= 1.0 for r in ratios):
            return ratios
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected comma-separated ratios in (0, 1], got {text!r}")


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pugraph",
        description="Positive-unlabeled node classification engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run config JSON document")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="patch the config with a dotted path, repeatable")

    p_train = sub.add_parser("train", help="train one model and score it")
    common(p_train)
    p_train.add_argument("--out", default=None, help="output directory")
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="run an experiment grid", allow_abbrev=False)
    p_sweep.add_argument("kind", choices=list(SWEEPS), help="which sweep to run")
    common(p_sweep)
    p_sweep.add_argument("--out", default=None, help="output directory")
    p_sweep.add_argument("--seeds", type=_positive_int, default=5,
                         help="number of seeds (0..N-1) per cell")
    p_sweep.add_argument("--ratios", type=_ratios, default=None,
                         help="comma-separated label ratios (default: the kind's own)")
    p_sweep.add_argument("--jobs", type=_positive_int, default=1,
                         help="worker processes for grid cells")
    p_sweep.set_defaults(func=cmd_sweep)

    p_part = sub.add_parser("partition",
                            help="show distance-partition sizes per delta")
    common(p_part)
    p_part.add_argument("--delta", type=_positive_int, default=None,
                        help="single delta to report (default: 1..6)")
    p_part.set_defaults(func=cmd_partition)

    p_eval = sub.add_parser("eval", help="re-score a saved checkpoint")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True, help="checkpoint file")
    p_eval.add_argument("--out", default=None, help="optional metrics JSON path")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        kind = error_kind(exc)
        if kind is None:
            raise
        return _fail(kind, EXIT_CODES[kind], str(exc))
