import csv
import dataclasses
import importlib
import json
import os
import re

import numpy as np
import pytest

import pugraph
from pugraph import cli, evaluate
from pugraph.cli import _read_config, main
from pugraph.data import build_dataset, make_sbm_dataset, prepare_dataset
from pugraph.errors import ConfigError, InputError, NumericError, TrainingAbort, error_kind
from pugraph.evaluate import MAIN_METHODS, build_run
from pugraph.graph import DistancePartition, partition_unlabeled
from pugraph.nn import load_checkpoint

from conftest import save_jsonl, small_manifest

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def write_config(tmp_path, **sections):
    """A run config on small_manifest(); keyword arguments replace whole sections."""
    config = {
        "dataset": small_manifest(),
        "label_ratio": 0.02,
        "loss": {"kind": "distance_aware", "delta": 2, "k": 5},
        "train": {"epochs": 20},
    }
    config.update(sections)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestTrainCommand:
    def test_divergence_exits_3_and_keeps_last_good(self, tmp_path, capsys):
        config = {
            "dataset": small_manifest(),
            "label_ratio": 0.02,
            "loss": {"kind": "distance_aware", "delta": 2, "k": 5},
            "train": {"epochs": 200, "learning_rate": 1e18, "weight_decay": 0.0},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "run"
        code = main(["train", "--config", str(config_path), "--out", str(out_dir)])
        assert code == 3
        assert "pugraph-error kind=numeric" in capsys.readouterr().err
        params = load_checkpoint(out_dir / "checkpoint.bin")
        assert all(np.isfinite(v).all() for v in params.values())
        assert not (out_dir / "result.json").exists()

    def test_divergence_writes_the_log_of_the_epochs_before_the_abort(self, tmp_path, capsys):
        config_path = write_config(tmp_path, train={
            "epochs": 200, "learning_rate": 1e18, "weight_decay": 0.0})
        out_dir = tmp_path / "run"
        code = main(["train", "--config", str(config_path), "--out", str(out_dir)])
        assert code == 3
        abort_epoch = int(re.search(r"at epoch (\d+)", capsys.readouterr().err).group(1))
        log_path = out_dir / "train_log.jsonl"
        assert log_path.exists()
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert records
        assert all(r["epoch"] < abort_epoch for r in records)
        assert not (out_dir / "result.json").exists()

    def test_eval_reproduces_the_trained_macro_f1(self, tmp_path, capsys):
        config_path = write_config(tmp_path, train={"epochs": 20})
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out_dir)]) == 0
        result = json.loads((out_dir / "result.json").read_text())
        metrics_path = tmp_path / "eval.json"
        code = main(["eval", "--config", str(config_path), "--checkpoint",
                     str(out_dir / "checkpoint.bin"), "--out", str(metrics_path)])
        assert code == 0
        assert json.loads(metrics_path.read_text())["macro_f1"] == result["macro_f1"]

    def test_eval_of_a_checkpoint_of_another_feature_width_exits_1(self, tmp_path, capsys):
        config_path = write_config(tmp_path, train={"epochs": 2})
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out_dir)]) == 0
        code = main(["eval", "--config", str(config_path), "--override",
                     "dataset.feature_dim=12", "--checkpoint", str(out_dir / "checkpoint.bin")])
        assert code == 1
        assert ('pugraph-error kind=config exit=1 msg="features have 12 columns, '
                'W1 expects 8"') in capsys.readouterr().err

    def test_eval_of_a_truncated_checkpoint_exits_2(self, tmp_path, capsys):
        config_path = write_config(tmp_path, train={"epochs": 2})
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out_dir)]) == 0
        checkpoint = out_dir / "checkpoint.bin"
        checkpoint.write_bytes(checkpoint.read_bytes()[:2000])
        code = main(["eval", "--config", str(config_path), "--checkpoint", str(checkpoint)])
        assert code == 2
        assert "pugraph-error kind=data exit=2" in capsys.readouterr().err

    def test_result_records_every_blas_thread_variable(self, tmp_path, capsys, monkeypatch):
        for var, value in (("OPENBLAS_NUM_THREADS", "1"), ("OMP_NUM_THREADS", "2"),
                           ("MKL_NUM_THREADS", "3")):
            monkeypatch.setenv(var, value)
        config_path = write_config(tmp_path, train={"epochs": 2})
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out_dir)]) == 0
        threads = json.loads((out_dir / "result.json").read_text())["threads"]
        assert {k: v for k, v in threads.items() if k != "cpu_count"} == {
            "openblas_num_threads": "1", "omp_num_threads": "2", "mkl_num_threads": "3"}

    @pytest.mark.parametrize("b_head, share, word", [(50.0, 1.0, "positive"),
                                                     (-50.0, 0.0, "negative")])
    def test_a_one_class_model_is_recorded_and_warned_once(self, tmp_path, capsys, caplog,
                                                          monkeypatch, b_head, share, word):
        original = cli.train

        def one_class(dataset, config):
            params, records = original(dataset, config)
            params["b_head"][...] = b_head  # every score on one side of 0.5
            return params, records

        monkeypatch.setattr(cli, "train", one_class)
        config_path = write_config(tmp_path, train={"epochs": 2})
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out_dir)]) == 0
        assert json.loads((out_dir / "result.json").read_text())["frac_positive"] == share
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert [r.getMessage() for r in warnings] == [
            f"the trained model predicts every node {word}"]
        metrics_path = tmp_path / "eval.json"
        assert main(["eval", "--config", str(config_path), "--checkpoint",
                     str(out_dir / "checkpoint.bin"), "--out", str(metrics_path)]) == 0
        assert json.loads(metrics_path.read_text())["frac_positive"] == share
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert [r.getMessage() for r in warnings] == [
            f"the trained model predicts every node {word}"] * 2

    def test_a_two_class_model_is_not_warned(self, tmp_path, capsys, caplog):
        config_path = write_config(tmp_path, train={"epochs": 20}, loss={
            "kind": "distance_aware", "delta": 2, "alpha": 0.0})
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out_dir)]) == 0
        assert 0.0 < json.loads((out_dir / "result.json").read_text())["frac_positive"] < 1.0
        assert not [r for r in caplog.records if r.levelname == "WARNING"]

    def test_result_records_the_set_sizes_that_partition_prints(self, tmp_path, capsys):
        config = os.path.join(CONFIGS, "sbm_pugnn.json")
        assert main(["partition", "--config", config, "--delta", "2"]) == 0
        printed = capsys.readouterr().out
        labeled = int(re.search(r"labeled \|V_L\| = (\d+)", printed).group(1))
        delta, near, far = map(int, printed.splitlines()[-1].split())
        out_dir = tmp_path / "run"
        assert main(["train", "--config", config, "--override", "train.epochs=2",
                     "--out", str(out_dir)]) == 0
        result = json.loads((out_dir / "result.json").read_text())
        assert result["loss"]["delta"] == delta == 2
        assert result["set_sizes"] == {"labeled": labeled, "near": near, "far": far}
        assert labeled + near + far == 400 and labeled > 0 and near > 0 and far > 0

    def test_pi_hat_not_above_pi_breve_exits_1(self, tmp_path, capsys):
        config_path = write_config(tmp_path, loss={"kind": "distance_aware", "delta": 2,
                                                   "pi_hat": 0.3, "pi_breve": 0.3})
        code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "run")])
        assert code == 1
        assert "pugraph-error kind=config" in capsys.readouterr().err

    def test_missing_jsonl_file_exits_2(self, tmp_path, capsys):
        manifest = {"name": "missing", "format": "jsonl",
                    "path": str(tmp_path / "no_such_file.jsonl"),
                    "positive_classes": ["pos"], "train_fraction": 0.1, "split_seed": 0}
        config_path = write_config(tmp_path, dataset=manifest)
        code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "pugraph-error kind=data" in capsys.readouterr().err

    def test_jsonl_records_without_features_exit_2_before_any_output(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("".join(json.dumps({"id": str(i), "features": [],
                                            "label": "pos" if i % 2 else "neg",
                                            "neighbors": []}) + "\n" for i in range(40)))
        manifest = {"format": "jsonl", "path": str(path), "positive_classes": ["pos"]}
        out_dir = tmp_path / "run"
        code = main(["train", "--config", str(write_config(tmp_path, dataset=manifest)),
                     "--out", str(out_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert "pugraph-error kind=data exit=2" in err
        assert f"{path}:1: 'features' must not be empty" in err
        assert not (out_dir / "manifest.json").exists()

    @pytest.mark.parametrize("content", [{}, {"content": None}])
    def test_a_manifest_without_a_content_path_exits_1(self, tmp_path, capsys, content):
        manifest = {"name": "no-content", "format": "content_cites",
                    "cites": str(tmp_path / "x.cites"), "positive_classes": ["pos"], **content}
        config_path = write_config(tmp_path, dataset=manifest)
        code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert "pugraph-error kind=config exit=1" in err and "dataset.content" in err
        assert "Traceback" not in err

    def test_a_config_file_that_is_no_object_exits_1(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text("[1]")
        code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "run")])
        assert code == 1
        assert "pugraph-error kind=config exit=1" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (None, "config file not found"), ("{", "is not valid JSON"),
        ('{"label_ratio": 0.02}', "config is missing the 'dataset' section")])
    def test_a_config_file_without_a_document_to_run_exits_1(self, tmp_path, capsys,
                                                              text, message):
        config_path = tmp_path / "config.json"
        if text is not None:
            config_path.write_text(text)
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "pugraph-error kind=config exit=1" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["beside the config", "under $PUGRAPH_DATA"])
    def test_a_relative_data_path_is_found(self, tmp_path, capsys, monkeypatch, where):
        # the path is neither absolute nor found from the working directory
        data_dir, config_dir = tmp_path / "data", tmp_path / "configs"
        for d in (data_dir, config_dir, tmp_path / "cwd"):
            d.mkdir()
        graph, features, labels = make_sbm_dataset(20, 20, 0.3, 0.05, 0)
        save_jsonl(data_dir / "sbm.jsonl", graph, features, labels)
        if where == "beside the config":
            config_dir = data_dir
        else:
            monkeypatch.setenv(cli.DATA_DIR_ENV, str(data_dir))
        manifest = {"format": "jsonl", "path": "sbm.jsonl", "positive_classes": ["pos"],
                    "train_fraction": 0.5}
        monkeypatch.chdir(tmp_path / "cwd")
        assert main(["partition", "--config", str(write_config(config_dir, dataset=manifest))]) == 0
        assert "labeled |V_L| = 1" in capsys.readouterr().out

    def test_an_exception_the_cli_does_not_map_propagates(self, tmp_path, monkeypatch):
        def broken(dataset, config):
            raise RuntimeError("not a pugraph error")

        monkeypatch.setattr(cli, "train", broken)
        with pytest.raises(RuntimeError, match="not a pugraph error"):
            main(["train", "--config", str(write_config(tmp_path)), "--out",
                  str(tmp_path / "run")])


# overrides that name no field or replace a section, each with the text its error must hold
STRUCTURAL_OVERRIDES = {
    "loss=null": "the 'loss' section must be a JSON object, got None",
    "train=null": "the 'train' section must be a JSON object, got None",
    "loss.bogus=1": "bad 'loss' section: LossConfig.__init__() got an unexpected keyword "
                    "argument 'bogus'",
    "train.bogus=1": "bad 'train' section: TrainConfig.__init__() got an unexpected keyword "
                     "argument 'bogus'",
    "=5": "unknown config keys ['']",
    "label_ratio": "override 'label_ratio' must look like dotted.key=value",
    "label_ratio.x=1": "label_ratio must be a finite number, got {'x': 1}",
    "labl_ratio=0.5": "unknown config keys ['labl_ratio']",
    "dataset.train_fracton=0.5": "unknown dataset keys ['train_fracton']",
    'train.loss={"alpha":0}': "train.loss: loss settings belong in the top-level 'loss' section",
    "dataset.positive_classes=5": "dataset manifest must list positive_classes, got 5",
    'dataset.positive_classes="pos"': "dataset manifest must list positive_classes, got 'pos'",
}


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("override", [
    "loss.delta=abc", "label_ratio=abc", "train.epochs=abc", "dataset.n_pos=abc",
    "dataset.train_fraction=abc", "dataset.split_seed=abc", "loss.alpha=NaN",
    "loss.alpha=Infinity", "train.learning_rate=NaN", "train.weight_decay=NaN",
    "label_ratio=true", 'label_ratio="0.1"', "label_ratio=2", "label_ratio=0",
    "label_ratio=-0.5", "label_ratio=NaN", "train.seed=-1", "dataset.split_seed=-1",
    "dataset.graph_seed=-1", "dataset.feature_dim=-1", "dataset.n_pos=200.5",
    "dataset.n_pos=true", 'dataset.n_pos="200"', 'dataset.normalize_features="false"',
    "dataset.format=xyz", "dataset.feature_dim=0", "dataset.train_fraction=-0.5",
    "dataset.train_fraction=0", "dataset.train_fraction=3", "dataset.train_count=0",
    "dataset.p_intra=2", "dataset.p_inter=0.5", "dataset.n_pos=0", "dataset.name=5",
    "loss.delta=0", "loss.pi_hat=1.5", "loss.k=0", "train.weight_decay=-1",
    "loss.pi_breve=0.7", "loss.alpha=-1", "train.epochs=0", "train.learning_rate=0",
    "loss.kind=xyz", *STRUCTURAL_OVERRIDES])
def test_a_bad_config_value_exits_1(tmp_path, capsys, override, command):
    out = tmp_path / "out"
    argv = ["train"] if command == "train" else ["sweep", "main", "--seeds", "1",
                                                 "--ratios", "0.02"]
    code = main([*argv, "--config", str(write_config(tmp_path)),
                 "--override", override, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "pugraph-error kind=config exit=1" in err
    # a value override's error names its full dotted key
    assert STRUCTURAL_OVERRIDES.get(override, override.split("=")[0]) in err
    if command == "sweep":
        # a sweep reads the document, its loss section included, as train does
        # and writes nothing if that fails; a bad dataset value fails the
        # cells, which are recorded
        assert out.exists() == override.startswith("dataset.")


@pytest.mark.parametrize("command", [
    ["train"], ["sweep", "main"], ["partition"], ["eval", "--checkpoint", "absent.bin"]])
def test_a_bad_loss_section_is_a_config_error_before_a_data_error(tmp_path, capsys, command):
    # the jsonl file is missing too, but the document's loss section is read first
    manifest = {"format": "jsonl", "path": str(tmp_path / "absent.jsonl"),
                "positive_classes": ["pos"]}
    config = write_config(tmp_path, dataset=manifest, loss={"kind": "xyz"})
    out = [] if command[0] in ("partition", "eval") else ["--out", str(tmp_path / "out")]
    assert main([*command, "--config", str(config), *out]) == 1
    assert "pugraph-error kind=config exit=1 msg=\"loss.kind must be one of" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("exc, kind", [
    (ConfigError("x"), "config"), (InputError("x"), "data"), (FileNotFoundError("x"), "data"),
    (NumericError("x"), "numeric"), (TrainingAbort("x", {}, []), "numeric"),
    (RuntimeError("x"), None)])
def test_error_kind_maps_each_pugraph_error_and_nothing_else(exc, kind):
    assert error_kind(exc) == kind


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
def test_every_committed_config_resolves(name):
    # a key that TrainConfig or LossConfig no longer has fails here
    path = os.path.join(CONFIGS, name)
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    _, label_ratio, loss, base = _read_config(config, path)
    assert base.epochs >= 1
    _, cfg = build_run(prepare_dataset(small_manifest()), loss, base, label_ratio, base.seed)
    assert cfg.loss.kind == "distance_aware"


def test_every_command_builds_the_same_run(tmp_path, monkeypatch):
    # train, eval, partition and the matching sweep cell resolve one config alike
    runs, original = [], evaluate.build_run

    def capture(*args):
        runs.append(original(*args))
        return runs[-1]

    monkeypatch.setattr(cli, "build_run", capture)
    monkeypatch.setattr(evaluate, "build_run", capture)
    config = str(write_config(tmp_path, train={"epochs": 2, "seed": 0}))
    out = tmp_path / "run"
    assert main(["train", "--config", config, "--out", str(out)]) == 0
    assert main(["eval", "--config", config, "--checkpoint", str(out / "checkpoint.bin")]) == 0
    assert main(["partition", "--config", config]) == 0
    assert main(["sweep", "main", "--config", config, "--out", str(tmp_path / "sweep"),
                 "--seeds", "1", "--ratios", "0.02"]) == 0
    assert len(runs) == 3 + len(MAIN_METHODS) and MAIN_METHODS[-1] == "pugnn"
    (first, first_cfg), *others = runs[:3] + runs[-1:]  # the sweep's pugnn cell runs last
    for dataset, cfg in others:
        for field in dataclasses.fields(DistancePartition):
            assert np.array_equal(getattr(dataset.partition, field.name),
                                  getattr(first.partition, field.name))
        assert cfg == first_cfg


class TestSweepCommand:
    def test_main_sweep_exits_0_with_one_row_per_method(self, tmp_path, capsys):
        config_path = write_config(tmp_path, train={"epochs": 10})
        out_dir = tmp_path / "sweep"
        code = main(["sweep", "main", "--config", str(config_path), "--out", str(out_dir),
                     "--seeds", "1", "--ratios", "0.02"])
        assert code == 0
        with open(out_dir / "runs.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert sorted(r["method"] for r in rows) == sorted(MAIN_METHODS)

    def test_failed_cell_exits_with_its_code_and_writes_strict_json(self, tmp_path, capsys):
        # naive passes pi_hat = pi_breve; the pugnn cell's distance-aware loss rejects it
        config_path = write_config(tmp_path, train={"epochs": 10}, loss={
            "kind": "naive", "delta": 2, "k": 5, "pi_hat": 0.3, "pi_breve": 0.3})
        out_dir = tmp_path / "sweep"
        code = main(["sweep", "main", "--config", str(config_path), "--out", str(out_dir),
                     "--seeds", "1", "--ratios", "0.02"])
        assert code == 1
        assert "pugraph-error kind=config" in capsys.readouterr().err

        def reject(constant):
            raise ValueError(f"aggregate.json holds {constant}")

        text = (out_dir / "aggregate.json").read_text()
        rows = {r["method"]: r for r in json.loads(text, parse_constant=reject)["rows"]}
        assert rows["pugnn"]["n"] == 0
        assert rows["pugnn"]["mean"] is None and rows["pugnn"]["std"] is None
        assert rows["pugnn"]["errors"][0].startswith("ConfigError")
        assert all(rows[m]["n"] == 1 for m in MAIN_METHODS if m != "pugnn")

    def test_aggregate_counts_the_one_class_runs(self, tmp_path, capsys, monkeypatch, caplog):
        # naive predicts every node negative and nnpu every node positive; the
        # other cells count as their scored models say (cells run in grid order)
        trained, scored = [], []
        train, score = evaluate.train, evaluate.score
        kind_method = {"naive": "naive", "nnpu": "nnpu", "distpu": "distpu",
                       "distance_aware": "pugnn"}

        def forced_train(dataset, config):
            params, records = train(dataset, config)
            trained.append(kind_method[config.loss.kind])
            forced = {"naive": -50.0, "nnpu": 50.0}.get(trained[-1])
            if forced is not None:
                params["b_head"][...] = forced  # every score on one side of 0.5
            return params, records

        def recorded_score(dataset, params):
            metrics = score(dataset, params)
            scored.append(metrics.frac_positive)
            return metrics

        monkeypatch.setattr(evaluate, "train", forced_train)
        monkeypatch.setattr(evaluate, "score", recorded_score)
        config_path = write_config(tmp_path, train={"epochs": 10})
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "main", "--config", str(config_path), "--out", str(out_dir),
                     "--seeds", "2", "--ratios", "0.02"]) == 0
        rows = json.loads((out_dir / "aggregate.json").read_text())["rows"]
        want = {m: sum(frac in (0.0, 1.0) for t, frac in zip(trained, scored) if t == m)
                for m in MAIN_METHODS}
        assert {r["method"]: r["one_class_runs"] for r in rows} == want
        assert want["naive"] == want["nnpu"] == 2 and len(scored) == 8
        warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warned) == sum(want.values())
        assert all(m.startswith("the trained model predicts every node ") for m in warned)

    def test_missing_content_file_fails_every_cell_and_exits_2(self, tmp_path, capsys):
        # the sweep prepares its dataset once; a failed preparation is every cell's error
        (tmp_path / "x.cites").write_text("")
        manifest = {"name": "missing", "format": "content_cites",
                    "content": str(tmp_path / "absent.content"),
                    "cites": str(tmp_path / "x.cites"), "positive_classes": ["a"]}
        out_dir = tmp_path / "sweep"
        code = main(["sweep", "main", "--config", str(write_config(tmp_path, dataset=manifest)),
                     "--out", str(out_dir), "--seeds", "2", "--ratios", "0.02"])
        assert code == 2
        assert "pugraph-error kind=data" in capsys.readouterr().err
        assert (out_dir / "runs.csv").read_text().splitlines() == [
            "dataset,method,ratio,seed,macro_f1,f1_pos,f1_neg,wall_time"]
        rows = json.loads((out_dir / "aggregate.json").read_text())["rows"]
        assert sorted(r["method"] for r in rows) == sorted(MAIN_METHODS)
        for row in rows:
            assert row["n"] == 0 and row["mean"] is None
            assert len(row["errors"]) == 2
            assert all(e.startswith("FileNotFoundError") and "absent.content" in e
                       for e in row["errors"])

    def test_main_sweep_on_cora_writes_only_the_computed_rows(self, tmp_path, capsys):
        # no transcribed numbers from other papers ride along for a known name
        config_path = write_config(tmp_path, dataset=small_manifest(name="cora"),
                                   train={"epochs": 2})
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "main", "--config", str(config_path), "--out", str(out_dir),
                     "--seeds", "1", "--ratios", "0.02"]) == 0
        aggregate = json.loads((out_dir / "aggregate.json").read_text())
        assert list(aggregate) == ["rows"]
        assert {r["dataset"] for r in aggregate["rows"]} == {"cora"}

    @pytest.mark.parametrize("flag, value", [("--seeds", "0"), ("--seeds", "-3"),
                                             ("--jobs", "0"), ("--jobs", "-2"),
                                             ("--jobs", "abc")])
    def test_seeds_or_jobs_below_one_are_a_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "sweep"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "main", "--config", str(write_config(tmp_path)), "--out",
                  str(out), "--seeds", "1", "--ratios", "0.02", flag, value])
        assert exc.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err
        assert not out.exists()


def spy_losses(monkeypatch) -> list:
    """Wrap evaluate.train so that it records the LossConfig of every call."""
    losses, original = [], evaluate.train

    def wrapper(dataset, config):
        losses.append(config.loss)
        return original(dataset, config)

    monkeypatch.setattr(evaluate, "train", wrapper)
    return losses


class TestSweepLossSection:
    """Every sweep kind trains with the config's loss section, under the
    method's pins and the cell's own knobs."""

    def sweep(self, tmp_path, kind, *extra, **loss):
        config_path = write_config(tmp_path, train={"epochs": 2}, loss={
            "kind": "distance_aware", "delta": 2, "k": 5, **loss})
        code = main(["sweep", kind, "--config", str(config_path), "--out",
                     str(tmp_path / kind), "--seeds", "1", *extra])
        assert code == 0

    def test_ablation_trains_every_cell_with_the_config_delta(self, tmp_path, monkeypatch):
        losses = spy_losses(monkeypatch)
        self.sweep(tmp_path, "ablation", "--ratios", "0.02")
        assert len(losses) == 4
        assert all(loss.delta == 2 and loss.k == 5 for loss in losses)

    def test_prior_sweep_takes_the_alpha_override(self, tmp_path, monkeypatch):
        losses = spy_losses(monkeypatch)
        self.sweep(tmp_path, "prior", "--ratios", "0.02", "--override", "loss.alpha=0")
        assert len(losses) == 20
        assert all(loss.alpha == 0 and loss.delta == 2 for loss in losses)
        assert len({(loss.pi_hat, loss.pi_breve) for loss in losses}) == 20

    def test_delta_sweep_keeps_the_config_priors(self, tmp_path, monkeypatch):
        losses = spy_losses(monkeypatch)
        self.sweep(tmp_path, "delta", "--ratios", "0.02", pi_hat=0.7, pi_breve=0.2)
        assert [loss.delta for loss in losses] == [1, 2, 3, 4, 5]
        assert all((loss.pi_hat, loss.pi_breve) == (0.7, 0.2) for loss in losses)

    def test_prior_sweep_trains_at_the_given_ratio(self, tmp_path, monkeypatch):
        ratios, original = [], evaluate.build_dataset

        def wrapper(prepared, label_ratio, seed, delta):
            ratios.append(label_ratio)
            return original(prepared, label_ratio, seed, delta)

        monkeypatch.setattr(evaluate, "build_dataset", wrapper)
        self.sweep(tmp_path, "prior", "--ratios", "0.02")
        assert ratios == [0.02] * 20
        with open(tmp_path / "prior" / "runs.csv", newline="", encoding="utf-8") as fh:
            assert {row["ratio"] for row in csv.DictReader(fh)} == {"0.02"}

    @pytest.mark.parametrize("argv", [
        ["sweep", "main", "--seeds", "1", "--ratios", "0.02", "--seed", "1"],
        ["sweep", "main", "--seeds", "1", "--ratios", "0.02", "--ratio", "1"],
        ["train", "--seed", "1"]], ids=["--seed", "--ratio", "train --seed"])
    def test_a_removed_flag_is_a_usage_error(self, tmp_path, argv):
        # no abbreviation: --seed is not read as --seeds, nor --ratio as --ratios;
        # train takes its run seed from train.seed alone
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(write_config(tmp_path)), "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("ratios", ["abc", "0.02,abc", "", "5", "0", "-1", "0.02,1.5",
                                        "nan"])
    def test_ratios_that_are_not_numbers_are_a_usage_error(self, tmp_path, ratios):
        out = tmp_path / "sweep"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "prior", "--config", str(write_config(tmp_path)), "--out",
                  str(out), "--seeds", "1", "--ratios", ratios])
        assert exc.value.code == 2
        assert not out.exists()

    def test_main_sweep_lets_the_method_pins_win(self, tmp_path, monkeypatch):
        losses = spy_losses(monkeypatch)
        self.sweep(tmp_path, "main", "--ratios", "0.02", alpha=0.02)
        assert {(loss.kind, loss.alpha) for loss in losses} == {
            ("naive", 0.0), ("nnpu", 0.0), ("distpu", 0.0), ("distance_aware", 0.02)}
        assert all(loss.delta == 2 for loss in losses)


class TestPartitionCommand:
    def test_sbm_exits_0_with_a_row_per_delta(self, tmp_path, capsys):
        code = main(["partition", "--config", str(write_config(tmp_path))])
        assert code == 0
        table = capsys.readouterr().out.split("delta  |near V_U|  |far V_U|\n")[1]
        ds = build_dataset(small_manifest(), 0.02, 0, 2)
        want = []
        for delta in range(1, 7):
            part = partition_unlabeled(ds.graph, ds.partition.labeled, delta)
            want.append([delta, part.near_unlabeled.size, part.far_unlabeled.size])
        assert [[int(x) for x in line.split()] for line in table.splitlines()] == want

    @pytest.mark.parametrize("value", ["0", "-1", "abc"])
    def test_delta_below_one_is_a_usage_error(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["partition", "--config", str(write_config(tmp_path)), "--delta", value])
        assert exc.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err

    def test_a_zero_feature_dim_exits_1(self, tmp_path, capsys):
        # no model is built, yet the manifest itself is checked
        code = main(["partition", "--config", str(write_config(tmp_path)),
                     "--override", "dataset.feature_dim=0"])
        assert code == 1
        assert "dataset.feature_dim must be >= 1" in capsys.readouterr().err

    def test_missing_jsonl_file_exits_2(self, tmp_path, capsys):
        manifest = {"name": "missing", "format": "jsonl",
                    "path": str(tmp_path / "no_such_file.jsonl"),
                    "positive_classes": ["pos"], "train_fraction": 0.1, "split_seed": 0}
        code = main(["partition", "--config", str(write_config(tmp_path, dataset=manifest))])
        assert code == 2
        assert "pugraph-error kind=data" in capsys.readouterr().err

    def test_a_malformed_jsonl_record_exits_2_naming_its_line(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "features": [1], "label": "pos", "neighbors": []}\n'
                        '{"id": "b", "features": ["zz"], "label": "neg", "neighbors": []}\n')
        manifest = {"format": "jsonl", "path": str(path), "positive_classes": ["pos"]}
        code = main(["partition", "--config", str(write_config(tmp_path, dataset=manifest))])
        assert code == 2
        err = capsys.readouterr().err
        assert "pugraph-error kind=data exit=2" in err
        assert f"{path}:2: non-numeric feature value" in err


    def test_invalid_utf8_in_a_content_file_exits_2_naming_its_line(self, tmp_path, capsys):
        content, cites = tmp_path / "u.content", tmp_path / "u.cites"
        content.write_bytes(b"a\t1\t0\tpos\nb\t0\t1\tneg\nc\t1\t\xff\tneg\n")
        cites.write_bytes(b"a\tb\n")
        manifest = {"content": str(content), "cites": str(cites), "positive_classes": ["pos"]}
        code = main(["partition", "--config", str(write_config(tmp_path, dataset=manifest))])
        assert code == 2
        err = capsys.readouterr().err
        assert "pugraph-error kind=data exit=2" in err
        assert f"{content}:3: byte 0xff is not valid UTF-8" in err

class TestRemovedRoutes:
    def test_gen_synth_is_a_usage_error(self, tmp_path):
        # an SBM comes from a manifest with "format": "sbm"
        with pytest.raises(SystemExit) as exc:
            main(["gen-synth", "--out", str(tmp_path / "sbm.jsonl")])
        assert exc.value.code == 2
        assert not (tmp_path / "sbm.jsonl").exists()

    def test_the_package_name_train_is_the_module(self):
        assert importlib.import_module("pugraph.train") is pugraph.train
