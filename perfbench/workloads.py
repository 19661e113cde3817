"""The benchmark's workloads: sweep configs and the inputs they read.

``--seed`` picks one of ``POOL_SIZE`` input sets per workload (pool index
``seed % POOL_SIZE``); ``reference.json`` holds every cell's final test
metric and loss for each pool index, so every run's outputs can be checked.
Pool index 0 reproduces the acceptance-suite configs exactly.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
POOL_SIZE = 16
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# The correctness gate.  A solver change at LAPACK level moves final losses
# by about 1e-14 relative; a wrong solver moves them far more than 1e-9.
LOSS_RTOL = 1e-9
# Regression metrics (mean explained variance) get the same relative slack;
# accuracy may differ by one flipped test prediction.
METRIC_RTOL = 1e-9

DIGIT_FILES = {
    "train_images": "surrogate-train-images-idx3-ubyte",
    "train_labels": "surrogate-train-labels-idx1-ubyte",
    "test_images": "surrogate-test-images-idx3-ubyte",
    "test_labels": "surrogate-test-labels-idx1-ubyte",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Callable[[int], dict]  # pool index -> experiment config
    write_inputs: Callable[[Path, int], None] | None
    n_test: int
    classification: bool


def _digit_config(k: int) -> dict:
    return {
        "dataset": {"kind": "mnist_idx", **DIGIT_FILES},
        "architecture": {"layer_sizes": [784, 50, 10]},
        "methods": ["none", "weight_decay", "adareg"],
        "schedule": {
            "outer_loops": 2,
            "epochs_per_block": 20,
            "batch_size": 256,
            "learning_rate": 0.6,
        },
        "bounds_v": 10.0,
        "lambda": 1e-3,
        "weight_decay": 1e-3,
        "training_sizes": [600, 6000],
        "seeds": [k],
        "output_dir": "run",
    }


def _write_digit_inputs(directory: Path, k: int) -> None:
    """The acceptance suite's bitmap-digit surrogate, 8000 train / 2000 test."""
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from mnist_surrogate import ensure_idx_files
    finally:
        sys.path.remove(str(ROOT / "tests"))
    paths = ensure_idx_files(directory, n_train=8000, n_test=2000, seed=1234 + 2 * k)
    for key, name in DIGIT_FILES.items():
        if Path(paths[key]).name != name:
            raise RuntimeError(f"surrogate wrote {paths[key]}, expected {name}")


def _multitask_config(k: int) -> dict:
    return {
        "dataset": {
            "kind": "synthetic_multitask",
            "n_train": 2000,
            "n_test": 1000,
            "input_dim": 21,
            "num_tasks": 7,
            "task_correlation": 0.7,
            "noise_std": 0.3,
            "seed": k,
        },
        "architecture": {"layer_sizes": [21, 64, 7]},
        "methods": ["none", "weight_decay", "adareg"],
        "schedule": {
            "outer_loops": 2,
            "epochs_per_block": 20,
            "batch_size": 256,
            "learning_rate": 0.2,
        },
        "bounds_v": 10.0,
        "lambda": None,
        "weight_decay": 1e-3,
        "seeds": list(range(5 * k, 5 * k + 5)),
        "output_dir": "run",
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "digit_sweep",
            "784-50-10 digit MLP: forward, backward and per-epoch evaluation dominate",
            _digit_config,
            _write_digit_inputs,
            n_test=2000,
            classification=True,
        ),
        Workload(
            "multitask_sweep",
            "21-64-7 regression: the 64x64 eigh of every precision refresh dominates",
            _multitask_config,
            None,
            n_test=1000,
            classification=False,
        ),
    )
}


def write_inputs(workload: Workload, k: int, directory: Path) -> Path:
    """Write the workload's input files and config; returns the config path."""
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    if workload.write_inputs is not None:
        workload.write_inputs(directory, k)
    config_path = directory / "config.json"
    with open(config_path, "w") as f:
        json.dump(workload.config(k), f, indent=2, sort_keys=True)
        f.write("\n")
    return config_path


def check_cells(workload: Workload, k: int, cells: dict) -> list[str]:
    """Compare each cell's (final test metric, final test loss) with the
    reference; returns one message per mismatch."""
    with open(REFERENCE) as f:
        expected = json.load(f)[workload.name][str(k)]
    problems = []
    if sorted(cells) != sorted(expected):
        problems.append(
            f"cells {sorted(set(cells) ^ set(expected))} differ from the reference set"
        )
    metric_atol = 1.0 / workload.n_test if workload.classification else 0.0
    for name in sorted(set(cells) & set(expected)):
        (metric, loss), (ref_metric, ref_loss) = cells[name], expected[name]
        if abs(loss - ref_loss) > LOSS_RTOL * max(1.0, abs(ref_loss)):
            problems.append(f"{name}: test loss {loss!r}, reference {ref_loss!r}")
        if abs(metric - ref_metric) > max(
            metric_atol, METRIC_RTOL * max(1.0, abs(ref_metric))
        ):
            problems.append(f"{name}: test metric {metric!r}, reference {ref_metric!r}")
    return problems
