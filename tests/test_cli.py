"""Tests for the experiment harness: config validation, runs, summaries,
correlation export, and byte-level determinism."""

import concurrent.futures
import json
import os
import struct
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from adareg.cli import (
    ExperimentConfig,
    _load_base_cached,
    export_correlation,
    main,
    run_experiment,
    summarize,
)
from adareg.errors import (
    ConfigError,
    Diverged,
    EmptyDirectory,
    MissingWeights,
    SchemaMismatch,
    SizeTooLarge,
)
from mnist_surrogate import ensure_idx_files, make_dataset
from adareg import cli
from adareg import data as data_mod
from adareg.data import (
    Dataset,
    DatasetKind,
    SyntheticMultitaskSpec,
    load_idx,
    subsample,
    write_idx,
)
from adareg.optimizer import BcdSchedule

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = CONFIG_DIR.parent / "src"


def _run_fresh(argv, **env):
    """``python -m adareg`` with ``argv`` in a new process that imports this
    checkout's ``src``, with ``env`` added to the environment."""
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "adareg", *argv],
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
    )


@pytest.fixture(autouse=True)
def _fresh_dataset_cache():
    _load_base_cached.cache_clear()
    yield
    _load_base_cached.cache_clear()


def _synth_config(out_dir, **overrides):
    cfg = {
        "dataset": {
            "kind": "synthetic_multitask",
            "n_train": 48,
            "n_test": 24,
            "input_dim": 4,
            "num_tasks": 2,
            "task_correlation": 0.5,
            "noise_std": 0.2,
            "seed": 3,
        },
        "architecture": {"layer_sizes": [4, 6, 2]},
        "methods": ["none", "adareg"],
        "schedule": {
            "outer_loops": 1,
            "epochs_per_block": 2,
            "batch_size": 16,
            "learning_rate": 0.1,
        },
        "bounds_v": 10.0,
        "lambda": 0.01,
        "training_sizes": [32],
        "seeds": [0],
        "output_dir": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


def _write_idx_files(data_dir):
    """The four IDX files an ``_idx_settings`` config names: 120 training and
    40 test surrogate digits."""
    train = make_dataset(120, seed=7)
    test = make_dataset(40, seed=8)
    write_idx(train, data_dir / "tr-img", data_dir / "tr-lab", 28, 28)
    write_idx(test, data_dir / "te-img", data_dir / "te-lab", 28, 28)


def _idx_config(data_dir, out_dir, **overrides):
    _write_idx_files(data_dir)
    return _idx_settings(data_dir, out_dir, **overrides)


def _idx_settings(data_dir, out_dir, **overrides):
    cfg = {
        "dataset": {
            "kind": "mnist_idx",
            "train_images": str(data_dir / "tr-img"),
            "train_labels": str(data_dir / "tr-lab"),
            "test_images": str(data_dir / "te-img"),
            "test_labels": str(data_dir / "te-lab"),
        },
        "architecture": {"layer_sizes": [784, 8, 10]},
        "methods": ["adareg"],
        "schedule": {
            "outer_loops": 1,
            "epochs_per_block": 1,
            "batch_size": 64,
            "learning_rate": 0.2,
        },
        "training_sizes": [50],
        "seeds": [0],
        "output_dir": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


def _read_all_outputs(out_dir):
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


class TestConfigValidation:
    def test_valid_config_parses(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_synth_config(tmp_path))
        assert cfg.methods == ("none", "adareg")
        assert cfg.schedule.batch_size == 16

    def test_missing_required_key(self, tmp_path):
        raw = _synth_config(tmp_path)
        del raw["schedule"]
        with pytest.raises(ConfigError, match="schedule"):
            ExperimentConfig.from_dict(raw)

    def test_unknown_method(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown method"):
            ExperimentConfig.from_dict(_synth_config(tmp_path, methods=["sgd"]))

    def test_dropout_method_needs_rate(self, tmp_path):
        with pytest.raises(ConfigError, match="dropout_rate"):
            ExperimentConfig.from_dict(_synth_config(tmp_path, methods=["dropout"]))

    def test_weight_decay_method_needs_coefficient(self, tmp_path):
        with pytest.raises(ConfigError, match="weight_decay"):
            ExperimentConfig.from_dict(
                _synth_config(tmp_path, methods=["weight_decay"])
            )

    def test_dataset_kind_keys_checked(self, tmp_path):
        raw = _synth_config(tmp_path)
        raw["dataset"] = {"kind": "mnist_idx", "train_images": "x"}
        with pytest.raises(ConfigError, match="train_labels"):
            ExperimentConfig.from_dict(raw)

    def test_bad_training_sizes(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_synth_config(tmp_path, training_sizes=[0]))

    def test_bad_json_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            ExperimentConfig.from_file(p)

    def test_unreadable_config_file(self, tmp_path, capsys):
        p = tmp_path / "missing.json"
        with pytest.raises(ConfigError, match="cannot read config"):
            ExperimentConfig.from_file(p)
        assert main(["validate", str(p)]) == 1
        assert "error: cannot read config" in capsys.readouterr().err

    def test_validate_subcommand(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_synth_config(tmp_path / "runs")))
        assert main(["validate", str(p)]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_validate_subcommand_rejects(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"dataset": {}}))
        assert main(["validate", str(p)]) == 1
        assert "error:" in capsys.readouterr().err

    BAD_VALUES = [
        (("bounds_v",), "ten"),
        (("lambda",), "x"),
        (("weight_decay",), "1e-3"),
        (("schedule", "batch_size"), 0),
        (("schedule", "outer_loops"), 0),
        (("seeds",), [True]),
        (("training_sizes",), [True]),
        (("regularized_layer_index",), 5),
        (("dataset", "task_correlation"), 1.0),
        (("dataset", "noise_std"), 0),
        (("dataset", "n_train"), "64"),
        (("dataset", "n_train"), 64.7),
        (("dataset", "num_targets"), "x"),
        (("dataset", "seed"), -1),
        (("output_dir",), ["a", 1]),
        # json reads NaN and Infinity as floats
        (("lambda",), float("nan")),
        (("bounds_v",), float("inf")),
        (("weight_decay",), float("nan")),
        (("schedule", "learning_rate"), float("inf")),
        (("dataset", "noise_std"), float("inf")),
        (("bounds_v",), 0.5),
        (("lambda",), -1),
        (("weight_decay",), -1),
        (("dropout_rate",), 1.0),
        (("architecture", "layer_sizes"), [4]),
        (("architecture", "layer_sizes"), [4, 0, 2]),
        # the regularized layer's row correlations need >= 2 inputs
        (("architecture", "layer_sizes"), [4, 1, 2]),
        (("dataset", "kind"), "parquet"),
        (("dataset", "num_targets"), 0),
        (("methods",), []),
        # sizes numpy cannot index: the generator's (n, 2 * input_dim) and
        # (num_tasks, num_tasks) arrays, and a layer's weight
        (("dataset", "n_test"), 10**30),
        (("dataset", "input_dim"), 10**12),
        (("dataset", "num_tasks"), 10**10),
        (("architecture", "layer_sizes"), [4, 10**18, 2]),
        # misspelled keys, which would otherwise leave the default in force
        (("dataset", "task_corelation"), 0.5),
        (("bounds_V",), 5.0),
        (("schedule", "learning_rte"), 0.1),
        (("architecture", "activation"), "tanh"),
        (("regularised_layer_index",), 0),
    ]
    # A dataset block for the keys only the CSV kind reads.
    CSV_DATASET = {
        "kind": "csv_regression",
        "train_path": "train.csv",
        "test_path": "test.csv",
        "num_targets": 2,
    }

    @pytest.mark.parametrize(
        "path, value", BAD_VALUES, ids=[path[-1] for path, _ in BAD_VALUES]
    )
    def test_bad_value_rejected_by_from_dict_and_validate(
        self, tmp_path, capsys, path, value
    ):
        raw = _synth_config(tmp_path / "runs")
        if path[0] == "dataset" and path[-1] in self.CSV_DATASET:
            raw["dataset"] = dict(self.CSV_DATASET)
        where = raw
        for key in path[:-1]:
            where = where[key]
        where[path[-1]] = value
        with pytest.raises(ConfigError, match=path[-1]):
            ExperimentConfig.from_dict(raw)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        assert main(["validate", str(p)]) == 1
        assert path[-1] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dataset, layer_sizes, message",
        [
            ({}, [5, 6, 2], "input dim"),
            ({}, [4, 6, 3], "output dim"),
            (CSV_DATASET, [4, 6, 3], "output dim"),
        ],
        ids=["synthetic_input", "synthetic_output", "csv_output"],
    )
    def test_architecture_mismatch_rejected_by_validate(
        self, tmp_path, capsys, dataset, layer_sizes, message
    ):
        raw = _synth_config(tmp_path / "runs")
        if dataset:
            raw["dataset"] = dict(dataset)
        raw["architecture"]["layer_sizes"] = layer_sizes
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        assert main(["validate", str(p)]) == 1
        assert message in capsys.readouterr().err

    def test_config_must_be_an_object(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="JSON object"):
            ExperimentConfig.from_dict(5)
        p = tmp_path / "cfg.json"
        p.write_text("5")
        for command in ("validate", "run"):
            assert main([command, str(p)]) == 1
            assert "error: config must be a JSON object" in capsys.readouterr().err


_RUN_GROUP = cli._run_group


def _fail_seed_0_then_sleep(config, loss, group):
    """Stand-in for ``cli._run_group``: the seed-0 group fails at once, and
    every other group waits 0.5 s before it trains, so the failure reaches
    the parent before the worker asks for more groups."""
    if group[2] == 0:
        raise Diverged(f"{group[1][0]}: stand-in failure")
    time.sleep(0.5)
    _RUN_GROUP(config, loss, group)


def _fail_seed_0_late_others_at_once(config, loss, group):
    """Stand-in for ``cli._run_group``: the seed-0 group fails after 0.5 s,
    every other group at once."""
    if group[2] == 0:
        time.sleep(0.5)
    raise Diverged(f"{group[1][0]}: stand-in failure")


def _exit_on_seed_1(config, loss, group):
    """Stand-in for ``cli._run_group`` whose worker dies on the seed-1 group."""
    if group[2] == 1:
        os._exit(9)
    _RUN_GROUP(config, loss, group)


class TestRunExperiment:
    def test_smoke_run_writes_expected_files(self, tmp_path):
        out = tmp_path / "runs"
        config = ExperimentConfig.from_dict(_synth_config(out))
        assert run_experiment(config) == 0
        for method in ("none", "adareg"):
            for suffix in ("metrics.csv", "summary.json", "weights.npz"):
                assert (out / f"{method}_n32_s0_{suffix}").exists()
        assert (out / "resolved_config.json").exists()

    def test_each_split_computes_its_target_variance_once(self, tmp_path, monkeypatch):
        """The load-time check computes both splits' target variances, and
        every group's training subsample computes its own, each once."""
        computed = []
        original = data_mod.target_variance

        def counting(targets):
            computed.append(targets)
            return original(targets)

        monkeypatch.setattr(data_mod, "target_variance", counting)
        raw = _synth_config(
            tmp_path / "runs",
            methods=["none", "adareg", "dropout"],
            dropout_rate=0.1,
            training_sizes=[32, 48],
            seeds=[0, 1],
        )
        config = ExperimentConfig.from_dict(raw)
        assert run_experiment(config) == 0
        train_full, test = _load_base_cached(json.dumps(config.dataset, sort_keys=True))
        groups = 2 * 2 * 2  # training sizes x seeds x dropout rates
        assert len(computed) == 2 + groups
        assert computed[0] is train_full.targets and computed[1] is test.targets
        assert len({id(t) for t in computed}) == len(computed)

    def test_metrics_csv_shape(self, tmp_path):
        out = tmp_path / "runs"
        run_experiment(ExperimentConfig.from_dict(_synth_config(out)))
        lines = (out / "none_n32_s0_metrics.csv").read_text().strip().splitlines()
        assert lines[0] == (
            "epoch,outer_iter,train_loss,train_objective,test_loss,"
            "train_metric,test_metric"
        )
        assert len(lines) == 3  # header + 2 epochs

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_experiment(ExperimentConfig.from_dict(_synth_config(out1)))
        run_experiment(ExperimentConfig.from_dict(_synth_config(out2, output_dir=str(out2))))
        a, b = _read_all_outputs(out1), _read_all_outputs(out2)
        assert a.keys() == b.keys()
        for name in a:
            if name == "resolved_config.json":
                continue  # embeds the differing output_dir
            assert a[name] == b[name], f"{name} differs"

    def test_parallel_jobs_match_sequential(self, tmp_path):
        out1, out2 = tmp_path / "seq", tmp_path / "par"
        run_experiment(ExperimentConfig.from_dict(_synth_config(out1)))
        run_experiment(
            ExperimentConfig.from_dict(_synth_config(out2, output_dir=str(out2))),
            jobs=2,
        )
        a, b = _read_all_outputs(out1), _read_all_outputs(out2)
        for name in a:
            if name == "resolved_config.json":
                continue
            assert a[name] == b[name], f"{name} differs"

    def test_idx_jobs_match_serial_in_fresh_processes(self, tmp_path):
        """A surrogate IDX sweep, run by ``python -m adareg`` serially and on
        two forked workers that share the parent's byte-backed splits, with
        one BLAS thread each: both exit 0 and every cell artifact is equal."""
        config = {
            "dataset": {
                "kind": "mnist_idx",
                **ensure_idx_files(tmp_path, n_train=1000, n_test=300, seed=7),
            },
            "architecture": {"layer_sizes": [784, 16, 10]},
            "methods": ["none", "adareg", "dropout"],
            "dropout_rate": 0.1,
            "schedule": {
                "outer_loops": 2,
                "epochs_per_block": 2,
                "batch_size": 64,
                "learning_rate": 0.1,
            },
            "training_sizes": [200, 600],
            "seeds": [0, 1],
        }
        p = tmp_path / "config.json"
        p.write_text(json.dumps(config))
        for name, jobs in (("serial", []), ("jobs", ["--jobs", "2"])):
            argv = ["run", str(p), "--output", str(tmp_path / name), *jobs]
            done = _run_fresh(argv, OPENBLAS_NUM_THREADS="1")
            assert done.returncode == 0, done.stderr
        cells = 0
        for pattern in ("*_metrics.csv", "*_summary.json", "*_weights.npz"):
            for serial in sorted((tmp_path / "serial").glob(pattern)):
                jobs = tmp_path / "jobs" / serial.name
                assert serial.read_bytes() == jobs.read_bytes(), serial.name
                cells += 1
        assert cells == 36  # 3 methods x 2 training sizes x 2 seeds, 3 artifacts each

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The ``max_workers`` of every process pool a run builds."""
        import concurrent.futures

        sizes = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return sizes

    def test_pool_has_one_worker_per_group_at_most(self, tmp_path, pool_sizes):
        out1, out2 = tmp_path / "seq", tmp_path / "par"
        cfg = _synth_config(out1, seeds=[0, 1])  # two groups
        run_experiment(ExperimentConfig.from_dict(cfg))
        assert pool_sizes == []
        run_experiment(ExperimentConfig.from_dict(cfg), jobs=3, output_override=str(out2))
        assert pool_sizes == [2]
        a, b = _read_all_outputs(out1), _read_all_outputs(out2)
        assert a.keys() == b.keys()
        for name in a:
            if name != "resolved_config.json":  # embeds the differing output_dir
                assert a[name] == b[name], f"{name} differs"

    @pytest.fixture
    def one_worker_pool(self, monkeypatch):
        """Every process pool a run builds has one worker, whatever it asks."""

        class OneWorkerPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(1, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", OneWorkerPool)

    def test_failed_group_cancels_the_queued_groups(
        self, tmp_path, capsys, monkeypatch, one_worker_pool
    ):
        """The pool has one worker, but the run counts two, so it hands out
        seeds 0 and 1 together and starts no group after seed 0 fails; seed 1,
        already handed out, finishes with all its artifacts or none, and no
        later seed writes."""
        monkeypatch.setattr(cli, "_run_group", _fail_seed_0_then_sleep)
        out = tmp_path / "runs"
        p = tmp_path / "cfg.json"
        cfg = _synth_config(out, methods=["none"], seeds=list(range(8)))  # 8 groups
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--jobs", "2"]) == 1
        assert capsys.readouterr().err == "error: none_n32_s0: stand-in failure\n"
        files = [sorted(out.glob(f"none_n32_s{seed}_*")) for seed in range(8)]
        assert not any(files[2:])
        assert len(files[1]) in {0, 3}

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_error_line_names_the_first_failing_group_in_plan_order(
        self, tmp_path, capsys, monkeypatch, jobs
    ):
        """Seed 1 fails first in time, but seed 0 comes first in the plan."""
        monkeypatch.setattr(cli, "_run_group", _fail_seed_0_late_others_at_once)
        p = tmp_path / "cfg.json"
        cfg = _synth_config(tmp_path / "runs", methods=["none"], seeds=[0, 1, 2])
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--jobs", jobs]) == 1
        assert capsys.readouterr().err == "error: none_n32_s0: stand-in failure\n"

    def test_dead_worker_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_run_group", _exit_on_seed_1)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_synth_config(tmp_path / "runs", seeds=[0, 1, 2])))
        assert main(["run", str(p), "--jobs", "2"]) == 1
        assert capsys.readouterr().err == (
            "error: a worker process died (for example, killed or out of memory)\n"
        )

    def test_one_group_runs_without_a_pool(self, tmp_path, pool_sizes):
        out = tmp_path / "runs"
        run_experiment(ExperimentConfig.from_dict(_synth_config(out)), jobs=3)
        assert pool_sizes == []
        assert len(list(out.glob("*_weights.npz"))) == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_writes_nothing(self, tmp_path, capsys, jobs):
        out = tmp_path / "runs"
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_synth_config(out)))
        assert main(["run", str(p), "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert err == f"error: jobs must be >= 1, got {jobs}\n"
        assert not out.exists()

    @pytest.mark.parametrize("sizes", [[1, 20], [20, 1]], ids=repr)
    def test_constant_subsample_targets_write_nothing(self, tmp_path, capsys, sizes):
        """A one-row regression subsample has constant targets; the plan finds
        them before any file is written, whichever group would train first."""
        out = tmp_path / "runs"
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_synth_config(out, training_sizes=sizes)))
        assert main(["validate", str(p)]) == 0
        capsys.readouterr()
        assert main(["run", str(p)]) == 1
        assert capsys.readouterr().err == "error: target column 0 is constant\n"
        assert not out.exists()

    def test_seed_override(self, tmp_path):
        out = tmp_path / "runs"
        config = ExperimentConfig.from_dict(_synth_config(out))
        run_experiment(config, seed_override=(5, 6))
        assert (out / "none_n32_s5_summary.json").exists()
        assert (out / "none_n32_s6_summary.json").exists()
        assert not (out / "none_n32_s0_summary.json").exists()

    @pytest.mark.parametrize("seeds", [(0, 0), (-1,), (), (0.5,), (True,)], ids=repr)
    def test_seed_override_follows_the_seeds_rule(self, tmp_path, seeds):
        out = tmp_path / "runs"
        config = ExperimentConfig.from_dict(_synth_config(out))
        with pytest.raises(ConfigError, match="seed override"):
            run_experiment(config, seed_override=seeds)
        assert not out.exists()

    def test_resolved_config_records_the_overrides(self, tmp_path):
        out = tmp_path / "other"
        config = ExperimentConfig.from_dict(_synth_config(tmp_path / "runs"))
        run_experiment(config, seed_override=(6, 5), output_override=str(out))
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved == {**config.to_dict(), "seeds": [6, 5], "output_dir": str(out)}
        assert not (tmp_path / "runs").exists()

    def test_idx_pipeline_and_env_root(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        out = tmp_path / "runs"
        cfg = _idx_config(data_dir, out)
        # switch to paths relative to ADAREG_DATA_DIR
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            cfg["dataset"][key] = os.path.basename(cfg["dataset"][key])
        monkeypatch.setenv("ADAREG_DATA_DIR", str(data_dir))
        run_experiment(ExperimentConfig.from_dict(cfg))
        summary = json.loads((out / "adareg_n50_s0_summary.json").read_text())
        assert summary["metric_name"] == "accuracy"
        assert summary["training_size"] == 50
        with np.load(out / "adareg_n50_s0_weights.npz") as z:
            assert z["weight_1"].shape == (10, 8)
            assert "omega_r" in z and "sigma_c" in z

    def test_missing_dataset_file_is_a_data_error(self, tmp_path, capsys, monkeypatch):
        cfg = _idx_config(tmp_path, tmp_path / "runs")
        cfg["dataset"]["train_images"] = "no-such-images"
        monkeypatch.setenv("ADAREG_DATA_DIR", str(tmp_path))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["validate", str(p)]) == 0
        assert main(["run", str(p)]) == 1
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'no-such-images'}: cannot read" in err

    @pytest.mark.parametrize(
        "layer_sizes, message",
        [([783, 8, 10], "input dim"), ([784, 8, 9], "classes exceed output dim")],
        ids=["input", "classes"],
    )
    def test_mismatch_found_before_any_file_is_written(
        self, tmp_path, capsys, layer_sizes, message
    ):
        out = tmp_path / "runs"
        cfg = _idx_config(tmp_path, out)
        cfg["architecture"]["layer_sizes"] = layer_sizes
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["validate", str(p)]) == 0  # IDX shapes are known only on load
        assert main(["run", str(p)]) == 1
        assert message in capsys.readouterr().err
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("second_dir", ["b", "a"], ids=["other_data_dir", "rewritten"])
    def test_each_run_reads_the_files_it_starts_with(
        self, tmp_path, monkeypatch, second_dir
    ):
        """The splits are cached for one run only: a second run in the same
        process reads its own ADAREG_DATA_DIR, and files rewritten since."""
        (tmp_path / "a").mkdir()
        cfg = _idx_config(tmp_path / "a", tmp_path / "runs", methods=["none"])
        cfg["dataset"] = {k: Path(v).name for k, v in cfg["dataset"].items()}
        config = ExperimentConfig.from_dict(cfg)

        def final_summary(data_dir, out):
            monkeypatch.setenv("ADAREG_DATA_DIR", str(data_dir))
            run_experiment(config, output_override=str(tmp_path / out))
            return (tmp_path / out / "none_n50_s0_summary.json").read_bytes()

        first = final_summary(tmp_path / "a", "first")
        data_dir = tmp_path / second_dir
        data_dir.mkdir(exist_ok=True)
        for name, n in (("tr", 120), ("te", 40)):
            ds = make_dataset(n, seed=n)
            write_idx(ds, data_dir / f"{name}-img", data_dir / f"{name}-lab", 28, 28)
        second = final_summary(data_dir, "second")
        _load_base_cached.cache_clear()
        assert second == final_summary(data_dir, "fresh") != first

    def test_architecture_dataset_mismatch(self, tmp_path):
        out = tmp_path / "runs"
        raw = _synth_config(out)
        raw["architecture"]["layer_sizes"] = [5, 6, 2]
        with pytest.raises(ConfigError, match="input dim"):
            run_experiment(ExperimentConfig.from_dict(raw))


class TestSummarize:
    def test_mean_std_match_recomputation(self, tmp_path):
        out = tmp_path / "runs"
        config = ExperimentConfig.from_dict(
            _synth_config(out, seeds=[0, 1, 2], methods=["none"])
        )
        run_experiment(config)
        path = summarize(out)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        finals = []
        for seed in (0, 1, 2):
            s = json.loads((out / f"none_n32_s{seed}_summary.json").read_text())
            finals.append(s["final_test_metric"])
        finals = np.array(finals)
        got_mean = float(row[header.index("test_metric_mean")])
        got_std = float(row[header.index("test_metric_std")])
        assert abs(got_mean - finals.mean()) < 1e-12
        assert abs(got_std - finals.std()) < 1e-12
        # regression summaries carry per-task explained-variance columns
        assert "ev_task0_mean" in header and "ev_task1_std" in header

    def test_one_row_per_method_size(self, tmp_path):
        out = tmp_path / "runs"
        config = ExperimentConfig.from_dict(
            _synth_config(out, seeds=[0, 1], training_sizes=[24, 32])
        )
        run_experiment(config)
        lines = summarize(out).read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + methods x sizes

    def test_empty_directory(self, tmp_path):
        with pytest.raises(EmptyDirectory):
            summarize(tmp_path)

    def test_schema_mismatch(self, tmp_path):
        out = tmp_path / "runs"
        run_experiment(ExperimentConfig.from_dict(_synth_config(out, methods=["none"])))
        doctored = json.loads((out / "none_n32_s0_summary.json").read_text())
        doctored["metric_name"] = "accuracy"
        (out / "fake_n32_s1_summary.json").write_text(json.dumps(doctored))
        with pytest.raises(SchemaMismatch):
            summarize(out)

    def test_mixed_task_counts(self, tmp_path):
        out = tmp_path / "runs"
        run_experiment(ExperimentConfig.from_dict(_synth_config(out, methods=["none"])))
        doctored = json.loads((out / "none_n32_s0_summary.json").read_text())
        doctored["per_task_explained_variance"].append(0.5)
        (out / "none_n32_s1_summary.json").write_text(json.dumps(doctored))
        with pytest.raises(SchemaMismatch, match=r"mixed task counts \[2, 3\]"):
            summarize(out)

    def test_unknown_schema_version(self, tmp_path):
        (tmp_path / "x_summary.json").write_text(json.dumps({"schema": "other"}))
        with pytest.raises(SchemaMismatch):
            summarize(tmp_path)

    def test_truncated_summary(self, tmp_path):
        out = tmp_path / "runs"
        run_experiment(ExperimentConfig.from_dict(_synth_config(out, methods=["none"])))
        path = out / "none_n32_s0_summary.json"
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(SchemaMismatch, match="none_n32_s0_summary.json"):
            summarize(out)

    def test_summary_that_is_not_an_object(self, tmp_path):
        (tmp_path / "x_summary.json").write_text("[1, 2]")
        with pytest.raises(SchemaMismatch, match="x_summary.json"):
            summarize(tmp_path)

    def test_tagged_summary_missing_a_key(self, tmp_path):
        (tmp_path / "x_summary.json").write_text(json.dumps({"schema": "adareg-run-v1"}))
        with pytest.raises(SchemaMismatch, match="x_summary.json"):
            summarize(tmp_path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("final_test_metric", "abc"),
            ("final_test_metric", True),
            ("training_size", None),
            ("per_task_explained_variance", ["abc"]),
            ("per_task_explained_variance", 0.5),
            ("final_test_metric", float("nan")),
        ],
    )
    def test_mistyped_summary_value(self, tmp_path, key, value):
        out = tmp_path / "runs"
        run_experiment(ExperimentConfig.from_dict(_synth_config(out, methods=["none"])))
        path = out / "none_n32_s0_summary.json"
        doctored = json.loads(path.read_text())
        doctored[key] = value
        path.write_text(json.dumps(doctored))
        with pytest.raises(SchemaMismatch, match=f"none_n32_s0_summary.json.*{key}"):
            summarize(out)


class TestExportCorrelation:
    def test_classification_export(self, tmp_path):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        out = tmp_path / "runs"
        run_experiment(ExperimentConfig.from_dict(_idx_config(data_dir, out)))
        paths = export_correlation(out, layer_index=1)
        assert len(paths) == 1
        lines = paths[0].read_text().strip().splitlines()
        assert lines[0].split(",")[1:] == [f"class_{i}" for i in range(10)]
        matrix = np.array(
            [[float(x) for x in line.split(",")[1:]] for line in lines[1:]]
        )
        assert matrix.shape == (10, 10)
        np.testing.assert_allclose(np.diag(matrix), 1.0)

    def test_regression_export_is_task_labeled(self, tmp_path):
        out = tmp_path / "runs"
        run_experiment(
            ExperimentConfig.from_dict(_synth_config(out, methods=["adareg"]))
        )
        paths = export_correlation(out, layer_index=1)
        lines = paths[0].read_text().strip().splitlines()
        assert lines[0].split(",")[1:] == ["task_0", "task_1"]

    def test_rerun_identical_bytes(self, tmp_path):
        out = tmp_path / "runs"
        run_experiment(ExperimentConfig.from_dict(_synth_config(out, methods=["adareg"])))
        first = export_correlation(out, layer_index=1)[0].read_bytes()
        second = export_correlation(out, layer_index=1)[0].read_bytes()
        assert first == second

    def test_missing_weights(self, tmp_path):
        with pytest.raises(MissingWeights):
            export_correlation(tmp_path, layer_index=0)

    def test_truncated_weights(self, tmp_path):
        out = tmp_path / "runs"
        run_experiment(ExperimentConfig.from_dict(_synth_config(out, methods=["none"])))
        path = out / "none_n32_s0_weights.npz"
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(MissingWeights, match="none_n32_s0_weights.npz"):
            export_correlation(out, layer_index=1)

    def test_missing_layer_index(self, tmp_path):
        out = tmp_path / "runs"
        run_experiment(ExperimentConfig.from_dict(_synth_config(out, methods=["none"])))
        with pytest.raises(MissingWeights):
            export_correlation(out, layer_index=5)


class TestMainEntry:
    def test_run_and_summarize_via_main(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "runs"
        cfg_path.write_text(json.dumps(_synth_config(out, methods=["none"])))
        assert main(["run", str(cfg_path)]) == 0
        assert main(["summarize", str(out)]) == 0
        assert (out / "summary.csv").exists()

    def test_output_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_synth_config(tmp_path / "ignored")))
        override = tmp_path / "other"
        assert main(["run", str(cfg_path), "--output", str(override)]) == 0
        assert (override / "none_n32_s0_summary.json").exists()

    def test_bad_seed_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_synth_config(tmp_path / "runs")))
        assert main(["run", str(cfg_path), "--seed-override", "a,b"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_export_correlation_via_main(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "runs"
        cfg_path.write_text(json.dumps(_synth_config(out, methods=["adareg"])))
        main(["run", str(cfg_path)])
        assert main(["export-correlation", str(out), "--layer", "1"]) == 0


class TestCsvRegression:
    """The ``csv_regression`` dataset kind, end to end through ``main``."""

    def _config(self, tmp_path, out, test_rows):
        rng = np.random.default_rng(9)
        rows = ["x0,x1,x2,y0,y1"]
        rows += [",".join(map(repr, rng.normal(size=5).tolist())) for _ in range(40)]
        (tmp_path / "train.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "test.csv").write_text("\n".join(test_rows or rows[:21]) + "\n")
        cfg = _synth_config(out, architecture={"layer_sizes": [3, 5, 2]})
        cfg["dataset"] = {
            "kind": "csv_regression",
            "train_path": str(tmp_path / "train.csv"),
            "test_path": str(tmp_path / "test.csv"),
            "num_targets": 2,
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        return p

    def test_run_and_summarize(self, tmp_path):
        out = tmp_path / "runs"
        p = self._config(tmp_path, out, None)
        assert main(["run", str(p)]) == 0
        assert main(["summarize", str(out)]) == 0
        header, *rows = (out / "summary.csv").read_text().strip().splitlines()
        assert "ev_task1_mean" in header.split(",")
        assert [row.split(",")[:3] for row in rows] == [
            ["adareg", "32", "1"],
            ["none", "32", "1"],
        ]
        summary = json.loads((out / "adareg_n32_s0_summary.json").read_text())
        assert summary["metric_name"] == "explained_variance"
        assert len(summary["per_task_explained_variance"]) == 2

    def test_nan_cell_fails_before_any_file_is_written(self, tmp_path, capsys):
        out = tmp_path / "runs"
        p = self._config(tmp_path, out, ["x0,x1,x2,y0,y1", "1,2,3,4,5", "1,nan,3,4,5"])
        assert main(["validate", str(p)]) == 0  # cells are read only by run
        assert main(["run", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "test.csv: row 2, column 1: 'nan' is not a finite number" in err
        assert not out.exists()

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_constant_target_column_fails_before_any_file_is_written(
        self, tmp_path, capsys, split
    ):
        out = tmp_path / "runs"
        p = self._config(tmp_path, out, None)
        path = tmp_path / f"{split}.csv"
        header, *rows = path.read_text().splitlines()
        rows = [row.rsplit(",", 1)[0] + ",1.5" for row in rows]  # y1 constant
        path.write_text("\n".join([header, *rows]) + "\n")
        assert main(["validate", str(p)]) == 0  # cells are read only by run
        assert main(["run", str(p)]) == 1
        assert capsys.readouterr().err == "error: target column 1 is constant\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "standardize, message",
        [
            (True, "train has 3 input columns, test 4"),
            (False, "architecture expects input dim 3, dataset has 4"),
        ],
        ids=["standardized", "raw"],
    )
    def test_test_split_of_another_width_fails_before_any_file_is_written(
        self, tmp_path, capsys, standardize, message
    ):
        out = tmp_path / "runs"
        rng = np.random.default_rng(2)
        wide = ["x0,x1,x2,x3,y0,y1"]
        wide += [",".join(map(repr, rng.normal(size=6).tolist())) for _ in range(10)]
        p = self._config(tmp_path, out, wide)
        cfg = json.loads(p.read_text())
        cfg["dataset"]["standardize"] = standardize
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestSingleInputLayer:
    def test_export_of_a_one_input_layer_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "runs"
        cfg = _synth_config(out, methods=["adareg"])
        cfg["dataset"]["input_dim"] = 1
        cfg["architecture"]["layer_sizes"] = [1, 6, 2]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p)]) == 0
        capsys.readouterr()
        assert main(["export-correlation", str(out), "--layer", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "layer 0: need a matrix with >= 2 columns, got (6, 1)" in err
        assert main(["export-correlation", str(out), "--layer", "1"]) == 0


class TestIdxTrainingSplit:
    """The IDX training split is cached as pixel bytes, and each cell's rows
    stay bytes; its row reader gives the bits ``load_idx`` gives."""

    @pytest.fixture
    def cell_train_sets(self, monkeypatch):
        """The training split each cell passes to run_adareg."""
        seen = []
        original = cli.run_adareg

        def spying(network, schedule, train, *args, **kwargs):
            seen.append(train)
            return original(network, schedule, train, *args, **kwargs)

        monkeypatch.setattr(cli, "run_adareg", spying)
        return seen

    @pytest.mark.parametrize("size", [50, None], ids=["n50", "full"])
    def test_cell_rows_equal_subsample_of_load_idx(
        self, tmp_path, cell_train_sets, size
    ):
        sizes = None if size is None else [size]
        cfg = _idx_config(
            tmp_path, tmp_path / "runs", methods=["none"], training_sizes=sizes, seeds=[0, 3]
        )
        run_experiment(ExperimentConfig.from_dict(cfg))
        full = load_idx(cfg["dataset"]["train_images"], cfg["dataset"]["train_labels"])
        assert len(cell_train_sets) == 2
        for seed, got in zip([0, 3], cell_train_sets):
            if size is None:
                want = subsample(full, full.n, [seed, 101])
            else:
                want = subsample(full, size, [seed, 101], stratified=True)
            got_rows, want_rows = got.rows(slice(None)), want.rows(slice(None))
            assert got_rows.dtype == want_rows.dtype == np.float64
            assert got_rows.tobytes() == want_rows.tobytes()
            np.testing.assert_array_equal(got.targets, want.targets)
            assert got.targets.dtype == want.targets.dtype

    def test_one_cell_peak_stays_below_the_float_split(self, tmp_path):
        """Loading the splits and preparing one 600-row cell from a cold cache
        must not hold a float64 copy of the 3,000-row training split."""
        dataset = _idx_config(tmp_path, tmp_path / "runs")["dataset"]
        n_train, n_test, pixels = 3000, 300, 784
        rng = np.random.default_rng(5)
        for name, n in (("tr", n_train), ("te", n_test)):
            ds = Dataset(
                rng.integers(0, 256, size=(n, pixels)) / 255.0,
                np.arange(n) % 10,
                DatasetKind.CLASSIFICATION,
            )
            write_idx(ds, tmp_path / f"{name}-img", tmp_path / f"{name}-lab", 28, 28)
        key = json.dumps(dataset, sort_keys=True)
        _load_base_cached.cache_clear()
        tracemalloc.start()
        try:
            train, _ = _load_base_cached(key)
            rows = subsample(train, 600, [0, 101], stratified=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert train.n == n_train and rows.n == 600
        assert peak < n_train * pixels * 8


class TestConfigRejections:
    def test_standardize_on_idx_rejected(self, tmp_path, capsys):
        cfg = _idx_config(tmp_path, tmp_path / "runs")
        cfg["dataset"]["standardize"] = True
        with pytest.raises(ConfigError, match="standardize"):
            ExperimentConfig.from_dict(cfg)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["validate", str(p)]) == 1
        assert "standardize" in capsys.readouterr().err

    def test_overflowing_noise_fails_before_any_file_is_written(self, tmp_path, capsys):
        out = tmp_path / "runs"
        cfg = _synth_config(out)
        cfg["dataset"]["noise_std"] = 1e308
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["validate", str(p)]) == 0  # whether it overflows, the draws decide
        assert main(["run", str(p)]) == 1
        err = capsys.readouterr().err
        assert err == "error: noise_std 1e+308 overflows the synthetic targets\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "message, line",
        [("Unable to allocate 153. TiB", "Unable to allocate 153. TiB"), ("", "MemoryError")],
        ids=["numpy", "bare"],
    )
    def test_allocation_failure_is_an_error_line(
        self, tmp_path, capsys, monkeypatch, message, line
    ):
        def unservable(spec):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "synth_multitask", unservable)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_synth_config(tmp_path / "runs")))
        assert main(["run", str(p)]) == 1
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_unallocatable_network_leaves_no_run_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        def unservable(*args, **kwargs):
            raise MemoryError("Unable to allocate 153. TiB")

        monkeypatch.setattr(cli.Network, "init", unservable)
        out = tmp_path / "runs"
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_synth_config(out)))
        assert main(["run", str(p)]) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 153. TiB\n"
        assert not out.exists()

    def test_size_above_synthetic_n_train_rejected(self, tmp_path, capsys):
        cfg = _synth_config(tmp_path / "runs", training_sizes=[32, 49])
        with pytest.raises(ConfigError, match="49"):
            ExperimentConfig.from_dict(cfg)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["validate", str(p)]) == 1
        ExperimentConfig.from_dict(_synth_config(tmp_path, training_sizes=[48]))

    def test_size_too_large_fails_before_any_file_is_written(self, tmp_path, capsys):
        out = tmp_path / "runs"
        cfg = _idx_config(tmp_path, out, methods=["none"], training_sizes=[50, 121])
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p)]) == 1
        assert "requested 121 of 120 examples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "test_side, test_classes, message",
        [
            (3, 3, "architecture expects input dim 16, dataset has 9"),
            (4, 5, "5 classes exceed output dim 3"),
        ],
        ids=["test_images", "test_labels"],
    )
    def test_test_split_that_does_not_fit_fails_before_any_file_is_written(
        self, tmp_path, capsys, test_side, test_classes, message
    ):
        out = tmp_path / "runs"
        cfg = _idx_config(tmp_path, out, methods=["none"], training_sizes=[12])
        cfg["architecture"]["layer_sizes"] = [16, 4, 3]
        rng = np.random.default_rng(4)
        for name, side, classes in (("tr", 4, 3), ("te", test_side, test_classes)):
            pixels = rng.integers(0, 256, size=(30, side * side)) / 255.0
            ds = Dataset(pixels, np.arange(30) % classes, DatasetKind.CLASSIFICATION)
            write_idx(ds, tmp_path / f"{name}-img", tmp_path / f"{name}-lab", side, side)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["validate", str(p)]) == 0  # IDX shapes are known only on load
        assert main(["run", str(p)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_class_too_small_fails_before_any_file_is_written(self, tmp_path):
        full = make_dataset(120, seed=7)
        keep = np.flatnonzero(full.targets != 9)
        keep = np.concatenate([keep, np.flatnonzero(full.targets == 9)[:2]])
        short = Dataset(full.inputs[keep], full.targets[keep], full.kind)
        out = tmp_path / "runs"
        cfg = _idx_config(tmp_path, out, methods=["none"], training_sizes=[100])
        write_idx(short, tmp_path / "tr-img", tmp_path / "tr-lab", 28, 28)
        with pytest.raises(SizeTooLarge, match="class 9 has 2 examples, need 10"):
            run_experiment(ExperimentConfig.from_dict(cfg))
        assert not out.exists()


class TestGroupSweep:
    """Cells that share (size, seed, dropout rate) train as one group."""

    def test_one_backward_and_batch_per_group_step(self, tmp_path, monkeypatch):
        from adareg import net as net_mod
        from adareg import optimizer

        calls = {"backward": 0, "batches": 0}
        backward, batches = net_mod.backward, optimizer.batches

        def counting_backward(*args, **kwargs):
            calls["backward"] += 1
            return backward(*args, **kwargs)

        def counting_batches(*args, **kwargs):
            for batch in batches(*args, **kwargs):
                calls["batches"] += 1
                yield batch

        monkeypatch.setattr(net_mod, "backward", counting_backward)
        monkeypatch.setattr(optimizer, "batches", counting_batches)
        cfg = _synth_config(
            tmp_path / "runs",
            methods=["none", "weight_decay", "adareg"],
            weight_decay=1e-3,
            seeds=[0, 1],
        )
        run_experiment(ExperimentConfig.from_dict(cfg))
        # 2 seeds x 1 outer loop x 2 epochs x ceil(32 / 16) batches, 3 cells each
        assert calls == {"backward": 8, "batches": 8}
        assert len(list((tmp_path / "runs").glob("*_weights.npz"))) == 6

    def test_diverged_group_names_the_method(self, tmp_path, capsys):
        out = tmp_path / "runs"
        cfg = _synth_config(
            out, methods=["none", "weight_decay", "adareg"], weight_decay=1e100
        )
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p)]) == 1
        err = capsys.readouterr().err
        assert "error: weight_decay_n32_s0: " in err
        assert "cell 1" not in err
        assert not list(out.glob("*_n32_s0_*"))

    def test_failed_weights_write_leaves_no_file(self, tmp_path, monkeypatch):
        """np.savez failing partway leaves neither the cell's weights nor a
        temporary file; the cells written before it stay complete."""
        out = tmp_path / "runs"
        real_savez = np.savez
        saved = []

        def failing_savez(file, *args, **kwargs):
            if not saved:
                saved.append(file)
                return real_savez(file, *args, **kwargs)
            if isinstance(file, (str, os.PathLike)):
                with open(file, "wb") as f:
                    f.write(b"PK\x03\x04 partial")
            else:
                file.write(b"PK\x03\x04 partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", failing_savez)
        cfg = _synth_config(out, methods=["none", "adareg"])
        with pytest.raises(OSError, match="disk full"):
            run_experiment(ExperimentConfig.from_dict(cfg))
        assert sorted(p.name for p in out.iterdir()) == [
            "adareg_n32_s0_metrics.csv",
            "adareg_n32_s0_summary.json",
            "none_n32_s0_metrics.csv",
            "none_n32_s0_summary.json",
            "none_n32_s0_weights.npz",
            "resolved_config.json",
        ]
        with np.load(out / "none_n32_s0_weights.npz") as z:
            assert "weight_0" in z


class TestConfigSchema:
    """The schema follows the dataclasses it fills; ``to_dict`` is what
    ``from_dict`` reads."""

    @pytest.mark.parametrize(
        "block, key",
        [("dataset", f.name) for f in fields(SyntheticMultitaskSpec)]
        + [("schedule", f.name) for f in fields(BcdSchedule)],
    )
    def test_string_field_rejected_by_from_dict_and_validate(
        self, tmp_path, capsys, block, key
    ):
        raw = _synth_config(tmp_path / "runs")
        raw[block][key] = "7"
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(raw)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        assert main(["validate", str(p)]) == 1
        assert key in capsys.readouterr().err

    def test_to_dict_with_nulls(self, tmp_path):
        raw = _synth_config("out", training_sizes=None)
        raw["lambda"] = None
        assert ExperimentConfig.from_dict(raw).to_dict() == {
            "dataset": {
                "kind": "synthetic_multitask",
                "n_train": 48,
                "n_test": 24,
                "input_dim": 4,
                "num_tasks": 2,
                "task_correlation": 0.5,
                "noise_std": 0.2,
                "seed": 3,
            },
            "architecture": {"layer_sizes": [4, 6, 2]},
            "methods": ["none", "adareg"],
            "schedule": {
                "outer_loops": 1,
                "epochs_per_block": 2,
                "batch_size": 16,
                "learning_rate": 0.1,
            },
            "bounds_v": 10.0,
            "lambda": None,
            "weight_decay": 0.0,
            "dropout_rate": 0.0,
            "training_sizes": [None],
            "seeds": [0],
            "regularized_layer_index": -1,
            "output_dir": "out",
        }

    @pytest.mark.parametrize(
        "path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name
    )
    def test_example_config_round_trips(self, path):
        config = ExperimentConfig.from_file(path)
        assert ExperimentConfig.from_dict(config.to_dict()) == config


class TestDistinctEntries:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("methods", ["none", "adareg", "none"]),
            ("training_sizes", [32, 16, 32]),
            ("seeds", [0, 0, 0, 0]),
        ],
    )
    def test_repeated_entry_rejected_by_validate_and_run(
        self, tmp_path, capsys, key, value
    ):
        out = tmp_path / "runs"
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_synth_config(out, **{key: value})))
        for command in ("validate", "run"):
            assert main([command, str(p)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and key in err
        assert not out.exists()

    def test_repeated_deep_entry_is_one_short_line(self, tmp_path, capsys):
        """The line names the key and both positions, not the value."""
        cfg = json.dumps(_synth_config(tmp_path / "runs", methods=["DEEP", "DEEP"]))
        p = tmp_path / "cfg.json"
        p.write_text(cfg.replace('"DEEP"', "[" * 900 + "]" * 900))
        assert main(["validate", str(p)]) == 1
        err = capsys.readouterr().err
        assert err == "error: methods: entries 0 and 1 are equal\n"

    @pytest.mark.parametrize(
        "key, line",
        [
            (
                ("methods", 1),
                "error: methods[1]: unknown method; choose from none, "
                "weight_decay, dropout, adareg, adareg+weight_decay, adareg+dropout\n",
            ),
            (
                ("dataset", "kind"),
                "error: dataset['kind']: unknown dataset kind; choose from "
                "mnist_idx, csv_regression, synthetic_multitask\n",
            ),
        ],
    )
    def test_unknown_name_is_one_short_line(self, tmp_path, capsys, key, line):
        """The line names the entry's position, not its value, which may be
        a 900-deep list or a string of any length."""
        cfg = _synth_config(tmp_path / "runs")
        cfg[key[0]][key[1]] = "HUGE"
        deep = "[" * 900 + "]" * 900 if key[0] == "methods" else '"' + "x" * 10**5 + '"'
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg).replace('"HUGE"', deep))
        assert main(["validate", str(p)]) == 1
        assert capsys.readouterr().err == line

    @pytest.mark.parametrize("seeds", ["0,0", "0,,1", "1,", ""])
    def test_bad_seed_override_writes_nothing(self, tmp_path, capsys, seeds):
        out = tmp_path / "runs"
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_synth_config(out)))
        assert main(["run", str(p), "--seed-override", seeds]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestOutputErrors:
    @pytest.mark.parametrize("under_file", [False, True], ids=["file", "under_file"])
    def test_output_that_is_not_a_directory(self, tmp_path, capsys, under_file):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep")
        output = blocker / "runs" if under_file else blocker
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_synth_config(tmp_path / "runs")))
        assert main(["run", str(p), "--output", str(output)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocker) in err
        assert blocker.read_text() == "keep"

    def test_failed_summary_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        out = tmp_path / "runs"
        run_experiment(ExperimentConfig.from_dict(_synth_config(out)))
        before = summarize(out).read_bytes()
        real_writer = cli.csv.writer

        class HeaderOnly:
            """Writes the header row, then fails."""

            def __init__(self, f):
                self.inner = real_writer(f)

            def writerow(self, row):
                self.inner.writerow(row)

            def writerows(self, rows):
                raise OSError("disk full")

        monkeypatch.setattr(cli.csv, "writer", HeaderOnly)
        with pytest.raises(OSError, match="disk full"):
            summarize(out)
        assert (out / "summary.csv").read_bytes() == before
        assert not (out / ".summary.csv.tmp").exists()



def _unreadable_input(case, tmp_path, out):
    """Writes one input that no reader can parse; returns the ``main`` argv
    that reads it."""
    if case.startswith("config"):
        p = tmp_path / "cfg.json"
        if case == "config_not_utf8":
            p.write_bytes(b'\xff\xfe{"a": 1}')
        else:
            p.write_text("[" * 100_000)
        return ["validate", str(p)]
    if case == "summary_too_deep":
        out.mkdir()
        (out / "none_n32_s0_summary.json").write_text("[" * 100_000)
        return ["summarize", str(out)]
    if case.startswith("csv"):
        bad = b"\xff,2,3,4,5" if case == "csv_not_utf8" else b"0" * 200_000
        (tmp_path / "train.csv").write_bytes(b"x0,x1,x2,y0,y1\n1,2,3,4,5\n" + bad)
        (tmp_path / "test.csv").write_text("1,2,3,4,5\n2,3,4,5,6\n")
        cfg = _synth_config(out, architecture={"layer_sizes": [3, 5, 2]})
        cfg["dataset"] = {
            "kind": "csv_regression",
            "train_path": str(tmp_path / "train.csv"),
            "test_path": str(tmp_path / "test.csv"),
            "num_targets": 2,
        }
    else:
        cfg = _idx_config(tmp_path, out)
        split = "tr" if case == "idx_train_empty" else "te"
        (tmp_path / f"{split}-img").write_bytes(struct.pack(">IIII", 2051, 0, 28, 28))
        (tmp_path / f"{split}-lab").write_bytes(struct.pack(">II", 2049, 0))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return ["run", str(p)]


# Each unreadable input, with a part of the one error line it gives.
UNREADABLE_INPUTS = {
    "config_not_utf8": "config is not valid JSON: ",
    "config_too_deep": "config is not valid JSON: ",
    "summary_too_deep": "none_n32_s0_summary.json: not valid JSON: ",
    "csv_not_utf8": "train.csv: not a readable CSV file: ",
    "csv_oversized_field": "train.csv: not a readable CSV file: ",
    "idx_train_empty": "tr-img: holds no images",
    "idx_test_empty": "te-img: holds no images",
}


class TestUnreadableInputs:
    @pytest.mark.parametrize(
        "case, message", UNREADABLE_INPUTS.items(), ids=list(UNREADABLE_INPUTS)
    )
    def test_is_one_error_line_and_writes_nothing(
        self, tmp_path, capsys, case, message
    ):
        out = tmp_path / "runs"
        argv = _unreadable_input(case, tmp_path, out)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and "Traceback" not in err
        if argv[0] == "run":
            assert not out.exists()

    @pytest.mark.parametrize(
        "case, line",
        [
            (
                "csv_not_utf8",
                "train.csv: not a readable CSV file: 'utf-8' codec can't decode "
                "byte 0xff in position 25: invalid start byte",
            ),
            ("idx_train_empty", "tr-img: holds no images"),
        ],
        ids=["csv_not_utf8", "idx_train_empty"],
    )
    def test_is_one_error_line_in_a_fresh_process(self, tmp_path, case, line):
        """``python -m adareg run`` exits 1, its whole stderr is the one
        ``error:`` line, and it makes no output directory."""
        out = tmp_path / "runs"
        done = _run_fresh(_unreadable_input(case, tmp_path, out))
        assert done.returncode == 1
        assert done.stderr == f"error: {tmp_path / line}\n"
        assert not out.exists()


def _key_paths(node, path=()):
    """Every key path under a config node: dict keys and list indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _key_paths(child, path + (key,))


MISSING_KEY = object()
MUTATIONS = [MISSING_KEY, None, "x", True, "3", 0, -1, 10**30, [], {}, 2.5]
ONE_EPOCH = {"outer_loops": 1, "epochs_per_block": 1}
BASE_CONFIG = _synth_config("runs")
BASE_CONFIG["schedule"].update(ONE_EPOCH)
# Training, not validation, decides these: both raise Diverged in ``run``.
DECIDED_BY_TRAINING = [
    (("dataset", "noise_std"), 10**30),
    (("schedule", "learning_rate"), 10**30),
]
# IDX file names resolve against ADAREG_DATA_DIR, which the test sets.
BASE_IDX_CONFIG = _idx_settings(Path(), "runs")
# ``validate`` reads no data file, so only ``run`` can reject these.
SEEN_ONLY_IN_FILES = [
    # An IDX path that names no file (test_missing_dataset_file_is_a_data_error).
    *((("dataset", key), name) for key in cli.IDX_KEYS for name in ("x", "3")),
    # Layer sizes that do not fit the files' shapes: [8, 10] and [784, 8]
    # (test_mismatch_found_before_any_file_is_written).
    (("architecture", "layer_sizes", 0), MISSING_KEY),
    (("architecture", "layer_sizes", 2), MISSING_KEY),
    # More rows than the training file holds
    # (test_size_too_large_fails_before_any_file_is_written).
    (("training_sizes", 0), 10**30),
]


def _agreement_cases(base, exempt):
    """Each mutation at each key path of ``base`` but ``output_dir``, less
    ``exempt``."""
    return [
        (path, value)
        for path in _key_paths(base)
        if path != ("output_dir",)
        for value in MUTATIONS
        # A 10**30-long schedule never ends; that is not a validation gap.
        if not (value == 10**30 and path[-1] in ONE_EPOCH)
        and (path, value) not in exempt
    ]


def _case_id(path, value):
    shown = "missing" if value is MISSING_KEY else repr(value)
    return f"{'.'.join(map(str, path))}={shown}"


AGREEMENT_CASES = _agreement_cases(BASE_CONFIG, DECIDED_BY_TRAINING)
IDX_AGREEMENT_CASES = _agreement_cases(BASE_IDX_CONFIG, SEEN_ONLY_IN_FILES)


@pytest.fixture(scope="module")
def idx_data_dir(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("idx")
    _write_idx_files(data_dir)
    return data_dir


class TestValidateRunAgreement:
    """``validate`` rejects a config exactly when a one-epoch ``run`` does,
    and every ``error:`` line either prints is short (139 characters at most
    when the bound was set)."""

    MAX_ERROR_LINE = 200

    @classmethod
    def _validate_and_run(cls, base, path, value, tmp_path, capsys):
        """``validate`` and ``run``'s exit codes and their stderr."""
        cfg = json.loads(json.dumps(base))
        *parents, key = path
        node = cfg
        for step in parents:
            node = node[step]
        if value is MISSING_KEY:
            del node[key]
        else:
            node[key] = value
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        validated = main(["validate", str(p)])
        ran = main(["run", str(p), "--output", str(tmp_path / "runs")])
        err = capsys.readouterr().err
        for line in err.splitlines():
            if line.startswith("error: "):
                assert len(line) <= cls.MAX_ERROR_LINE, line
        return validated, ran, err

    @pytest.mark.parametrize(
        "path, value", AGREEMENT_CASES, ids=[_case_id(*c) for c in AGREEMENT_CASES]
    )
    def test_validate_and_run_agree(self, tmp_path, capsys, path, value):
        validated, ran, err = self._validate_and_run(
            BASE_CONFIG, path, value, tmp_path, capsys
        )
        assert validated == ran, err

    @pytest.mark.parametrize(
        "path, value",
        IDX_AGREEMENT_CASES,
        ids=[_case_id(*c) for c in IDX_AGREEMENT_CASES],
    )
    def test_validate_and_run_agree_on_idx(
        self, tmp_path, capsys, monkeypatch, idx_data_dir, path, value
    ):
        monkeypatch.setenv("ADAREG_DATA_DIR", str(idx_data_dir))
        validated, ran, err = self._validate_and_run(
            BASE_IDX_CONFIG, path, value, tmp_path, capsys
        )
        assert validated == ran, err

    @pytest.mark.parametrize(
        "path, value",
        SEEN_ONLY_IN_FILES,
        ids=[_case_id(*c) for c in SEEN_ONLY_IN_FILES],
    )
    def test_idx_exemptions_pass_validate_and_fail_run(
        self, tmp_path, capsys, monkeypatch, idx_data_dir, path, value
    ):
        monkeypatch.setenv("ADAREG_DATA_DIR", str(idx_data_dir))
        validated, ran, err = self._validate_and_run(
            BASE_IDX_CONFIG, path, value, tmp_path, capsys
        )
        assert (validated, ran) == (0, 1)
        assert err.count("error: ") == 1
        assert not (tmp_path / "runs").exists()
