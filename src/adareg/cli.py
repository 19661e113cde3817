"""Experiment harness: config validation, runs, summaries, and exports.

Subcommands:

    adareg run <config.json> [--seed-override 0,1] [--jobs N] [--output DIR]
    adareg summarize <run_dir>
    adareg export-correlation <run_dir> --layer N
    adareg validate <config.json>

A config sweeps every (method x training size x seed) cell, writing one
per-epoch metrics CSV, one summary JSON, and one weights NPZ per cell.
Outputs are byte-reproducible: rerunning the same config and seeds yields
identical files (wall-clock timing goes to stderr only, never into files).
Dataset paths resolve against ADAREG_DATA_DIR when set.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, astuple, dataclass, fields, replace
from functools import lru_cache, partial
from pathlib import Path
from typing import get_type_hints
from zipfile import BadZipFile

import numpy as np

from .data import (
    Dataset,
    DatasetKind,
    IdxSplit,
    MAX_FLOAT64S,
    SyntheticMultitaskSpec,
    load_csv_regression,
    load_idx,
    pick_rows,
    read_idx,
    standardize_inputs,
    subsample,
    synth_multitask,
)
from .diagnostics import SpectrumReport, correlation_matrix, explained_variance
from .errors import (
    AdaRegError,
    ConfigError,
    DimensionMismatch,
    Diverged,
    EmptyDirectory,
    MissingWeights,
    SchemaMismatch,
)
from .net import LossKind, Network
from .optimizer import BcdSchedule, EpochRecord, MetricLog, predict, run_adareg
from .spectral import SpectralBounds

__all__ = [
    "ExperimentConfig",
    "MetricLog",
    "run_experiment",
    "summarize",
    "export_correlation",
    "main",
]

METHODS = (
    "none",
    "weight_decay",
    "dropout",
    "adareg",
    "adareg+weight_decay",
    "adareg+dropout",
)

SUMMARY_SCHEMA = "adareg-run-v1"

IDX_KEYS = ("train_images", "train_labels", "test_images", "test_labels")


def _keys_of(cls) -> dict:
    """``{field: (type, default)}`` of a dataclass.  A field without a default
    gets MISSING, which marks a key a config must give."""
    types = get_type_hints(cls)
    return {f.name: (types[f.name], f.default) for f in fields(cls)}


# Per dataset kind: each key its loader reads, as (type, default or MISSING).
STANDARDIZE = {"standardize": (bool, True)}
DATASET_KEYS = {
    "mnist_idx": dict.fromkeys(IDX_KEYS, (str, MISSING)),
    "csv_regression": {
        "train_path": (str, MISSING),
        "test_path": (str, MISSING),
        "num_targets": (int, MISSING),
        **STANDARDIZE,
    },
    "synthetic_multitask": {**_keys_of(SyntheticMultitaskSpec), **STANDARDIZE},
}
SCHEDULE_KEYS = _keys_of(BcdSchedule)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see README for the JSON schema."""

    dataset: dict
    layer_sizes: tuple[int, ...]
    methods: tuple[str, ...]
    schedule: BcdSchedule
    bounds_v: float
    lam: float | None  # None resolves to 1 / (2 * p * d) of the target layer
    weight_decay: float
    dropout_rate: float
    training_sizes: tuple[int | None, ...]
    seeds: tuple[int, ...]
    regularized_layer_index: int
    output_dir: str

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as f:
                raw = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")

        def need(key, kind, where=raw, ctx="config", default=MISSING):
            if key not in where:
                if default is not MISSING:
                    return default
                raise ConfigError(f"{ctx} is missing required key {key!r}")
            val = where[key]
            if kind is float:
                if not _is_number(val):
                    raise ConfigError(f"{ctx}[{key!r}] must be a finite number")
                return float(val)
            if kind is int:
                if not _is_int(val):
                    raise ConfigError(f"{ctx}[{key!r}] must be an integer")
                return val
            if not isinstance(val, kind):
                raise ConfigError(
                    f"{ctx}[{key!r}] must be {kind.__name__}, got {type(val).__name__}"
                )
            return val

        def known_only(where: dict, keys, ctx: str) -> None:
            unknown = [key for key in where if key not in keys]
            if unknown:
                raise ConfigError(f"unknown {ctx} key(s): {', '.join(unknown)}")

        def need_each(keys: dict, where: dict, ctx: str) -> dict:
            known_only(where, keys, ctx)
            return {k: need(k, t, where, ctx, d) for k, (t, d) in keys.items()}

        dataset = need("dataset", dict)
        kind = need("kind", str, dataset, "dataset")
        if kind not in DATASET_KEYS:
            raise ConfigError(f"unknown dataset kind {kind!r}")
        need_each({"kind": (str, MISSING), **DATASET_KEYS[kind]}, dataset, "dataset")
        if kind == "csv_regression" and dataset["num_targets"] < 1:
            raise ConfigError("dataset['num_targets'] must be >= 1")
        if kind == "synthetic_multitask":
            try:
                spec = _synthetic_spec(dataset)
            except ValueError as e:
                raise ConfigError(f"dataset: {e}") from None
        arch = need("architecture", dict)
        known_only(arch, ["layer_sizes"], "architecture")
        sizes = need("layer_sizes", list, arch, "architecture")
        if len(sizes) < 2 or not all(_is_int(s) and s >= 1 for s in sizes):
            raise ConfigError("layer_sizes must be >= 2 positive integers")
        if max(a * b for a, b in zip(sizes, sizes[1:])) > MAX_FLOAT64S:
            raise ConfigError("layer_sizes ask for a weight larger than numpy can index")
        if kind == "synthetic_multitask":
            _check_dims(sizes, spec.input_dim, spec.num_tasks)
        elif kind == "csv_regression":
            _check_dims(sizes, None, dataset["num_targets"])

        methods = _distinct(need("methods", list), "methods")
        for m in methods:
            if m not in METHODS:
                raise ConfigError(
                    f"unknown method {m!r}; choose from {', '.join(METHODS)}"
                )

        sched_raw = need("schedule", dict)
        try:
            schedule = BcdSchedule(**need_each(SCHEDULE_KEYS, sched_raw, "schedule"))
        except ValueError as e:
            raise ConfigError(f"schedule: {e}") from None

        bounds_v = need("bounds_v", float, default=10.0)
        if bounds_v < 1.0:
            raise ConfigError("bounds_v must be >= 1")
        lam = None if raw.get("lambda") is None else need("lambda", float)
        if lam is not None and lam < 0.0:
            raise ConfigError("lambda must be >= 0")
        weight_decay = need("weight_decay", float, default=0.0)
        dropout_rate = need("dropout_rate", float, default=0.0)
        if weight_decay < 0.0:
            raise ConfigError("weight_decay must be >= 0")
        if not 0.0 <= dropout_rate < 1.0:
            raise ConfigError("dropout_rate must lie in [0, 1)")
        if any("weight_decay" in m for m in methods) and weight_decay == 0.0:
            raise ConfigError(
                "a weight_decay method is listed but weight_decay is 0"
            )
        if any("dropout" in m for m in methods) and dropout_rate == 0.0:
            raise ConfigError("a dropout method is listed but dropout_rate is 0")

        training_sizes = (None,)  # the whole split; ``to_dict`` writes it as [null]
        if raw.get("training_sizes") not in (None, [None]):
            training_sizes = _int_list(raw["training_sizes"], 1, "training_sizes")
            if kind == "synthetic_multitask" and max(training_sizes) > spec.n_train:
                raise ConfigError(
                    f"training size {max(training_sizes)} exceeds n_train {spec.n_train}"
                )

        seeds = _int_list(need("seeds", list), 0, "seeds")

        num_layers = len(sizes) - 1
        layer_index = need("regularized_layer_index", int, default=-1)
        if not -num_layers <= layer_index < num_layers:
            raise ConfigError(
                f"regularized_layer_index {layer_index} is out of range for "
                f"{num_layers} layers"
            )
        if sizes[:-1][layer_index] < 2:
            raise ConfigError(
                "layer_sizes: the regularized layer needs >= 2 inputs for its "
                f"row correlations, got {sizes[:-1][layer_index]}"
            )

        config = cls(
            dataset=dataset,
            layer_sizes=tuple(sizes),
            methods=methods,
            schedule=schedule,
            bounds_v=bounds_v,
            lam=lam,
            weight_decay=weight_decay,
            dropout_rate=dropout_rate,
            training_sizes=training_sizes,
            seeds=seeds,
            regularized_layer_index=layer_index,
            output_dir=need("output_dir", str, default="runs"),
        )
        known_only(raw, config.to_dict(), "config")  # the keys to_dict writes
        return config

    def to_dict(self) -> dict:
        """The config as the JSON object ``from_dict`` reads."""
        out = asdict(self)
        out["architecture"] = {"layer_sizes": list(out.pop("layer_sizes"))}
        out["lambda"] = out.pop("lam")
        return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_number(val) -> bool:
    """A finite int or float; ``json`` also reads NaN and +-Infinity."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    return abs(val) <= sys.float_info.max


def _distinct(values: list, key: str) -> tuple:
    """``values`` as a tuple; ConfigError naming ``key`` if it is empty or an
    entry repeats."""
    if not values:
        raise ConfigError(f"{key} must not be empty")
    for i, val in enumerate(values):
        if val in values[:i]:
            raise ConfigError(f"{key} lists {val!r} more than once")
    return tuple(values)


def _int_list(values, least: int, key: str) -> tuple[int, ...]:
    """``values`` as a tuple if it is a non-empty list of distinct ints
    >= ``least``; ConfigError naming ``key`` otherwise."""
    ok = isinstance(values, list) and all(_is_int(v) and v >= least for v in values)
    if not ok:
        raise ConfigError(f"{key} must be a list of ints >= {least}")
    return _distinct(values, key)


def _resolve_path(path: str) -> Path:
    p = Path(path)
    if p.is_absolute():
        return p
    root = os.environ.get("ADAREG_DATA_DIR")
    return (Path(root) / p) if root else p


def _synthetic_spec(dataset: dict) -> SyntheticMultitaskSpec:
    """Generator settings of a ``synthetic_multitask`` block; keys the block
    leaves out take the spec's defaults."""
    names = {f.name for f in fields(SyntheticMultitaskSpec)}
    return SyntheticMultitaskSpec(**{k: v for k, v in dataset.items() if k in names})


@lru_cache(maxsize=1)
def _load_base_cached(dataset_json: str) -> tuple[Dataset | IdxSplit, Dataset]:
    """One run's training and test splits; an IDX training split stays as bytes."""
    spec = json.loads(dataset_json)
    kind = spec["kind"]
    if kind == "mnist_idx":
        paths = [_resolve_path(spec[key]) for key in IDX_KEYS]
        return read_idx(*paths[:2]), load_idx(*paths[2:])
    if kind == "csv_regression":
        num_targets = spec["num_targets"]
        train = load_csv_regression(_resolve_path(spec["train_path"]), num_targets)
        test = load_csv_regression(_resolve_path(spec["test_path"]), num_targets)
    else:
        train, test = synth_multitask(_synthetic_spec(spec))
    if spec.get("standardize", True):
        train, test = standardize_inputs(train, test)
    return train, test


def _check_dims(layer_sizes, input_dim, target_columns, num_classes=None) -> None:
    """Raise ConfigError when the input dim, the regression target column
    count or the class count, where known, does not fit the architecture's ends."""
    if input_dim is not None and input_dim != layer_sizes[0]:
        raise ConfigError(
            f"architecture expects input dim {layer_sizes[0]}, dataset has {input_dim}"
        )
    if target_columns is not None and target_columns != layer_sizes[-1]:
        raise ConfigError(
            f"{target_columns} target columns but output dim {layer_sizes[-1]}"
        )
    if num_classes is not None and num_classes > layer_sizes[-1]:
        raise ConfigError(f"{num_classes} classes exceed output dim {layer_sizes[-1]}")


def _loss_kind(config: ExperimentConfig, *splits: Dataset | IdxSplit) -> LossKind:
    """The splits' loss; ConfigError if any split does not fit the architecture."""
    classes = splits[0].kind == DatasetKind.CLASSIFICATION
    for split in splits:
        ends = (None, split.num_classes) if classes else (split.targets.shape[1], None)
        _check_dims(config.layer_sizes, split.input_dim, *ends)
    return LossKind.SOFTMAX_CROSS_ENTROPY if classes else LossKind.SQUARED_ERROR


def _method_knobs(config: ExperimentConfig, method: str, p: int, d: int):
    """Map a method name to (lambda, weight_decay, dropout_rate)."""
    lam = config.lam if config.lam is not None else 1.0 / (2.0 * p * d)
    uses_prior = method.startswith("adareg")
    return (
        lam if uses_prior else 0.0,
        config.weight_decay if "weight_decay" in method else 0.0,
        config.dropout_rate if "dropout" in method else 0.0,
    )


def _plan(config: ExperimentConfig, train: Dataset | IdxSplit) -> list[tuple]:
    """The sweep's groups in run order, each ``(methods, cell names, seed,
    rows, stratified)``; a group is the cells of one (training size, seed)
    that share a dropout rate, and ``rows`` and ``stratified`` are what
    ``subsample`` takes.  SizeTooLarge if a training size does not fit."""
    by_rate: dict[bool, list[str]] = {}
    for method in config.methods:
        by_rate.setdefault("dropout" in method, []).append(method)
    plan = []
    for size in config.training_sizes:
        if size is None or size == train.n:
            rows, stratified = train.n, False
        else:
            rows, stratified = size, train.kind == DatasetKind.CLASSIFICATION
        pick_rows(train, rows, 0, stratified)  # raises SizeTooLarge
        tag = "full" if size is None else size
        for seed in config.seeds:
            for methods in by_rate.values():
                names = tuple(f"{m}_n{tag}_s{seed}" for m in methods)
                plan.append((tuple(methods), names, seed, rows, stratified))
    return plan


def _run_group(config: ExperimentConfig, loss: LossKind, group: tuple) -> None:
    """Train one ``_plan`` group and write each of its cells' artifacts."""
    methods, names, seed, rows, stratified = group
    out_dir = Path(config.output_dir)
    train_full, test = _load_base_cached(json.dumps(config.dataset, sort_keys=True))
    train = subsample(train_full, rows, [seed, 101], stratified)

    network = Network.init(
        list(config.layer_sizes),
        loss,
        [seed, 202],
        config.regularized_layer_index,
    )
    p, d = network.regularized_weight.shape
    lams, decays, rates = zip(*(_method_knobs(config, m, p, d) for m in methods))
    bounds = SpectralBounds.from_v(config.bounds_v)

    started = time.perf_counter()
    try:
        results = run_adareg(
            network,
            config.schedule,
            train,
            bounds,
            lams,
            seed,
            test_dataset=test,
            weight_decay=decays,
            dropout_rate=rates[0],
        )
    except Diverged as e:
        raise Diverged(f"{names[e.cell or 0]}: {e.reason}") from None
    wall_seconds = time.perf_counter() - started

    header = [f.name for f in fields(EpochRecord)]
    for method, name, (state, log) in zip(methods, names, results):
        _write_csv(out_dir / f"{name}_metrics.csv", header, map(astuple, log.records))
        _write_summary_json(
            out_dir / f"{name}_summary.json", method, seed, train, test, state, log
        )
        _write_weights_npz(out_dir / f"{name}_weights.npz", state, train.kind)
        note = f"[adareg] {name}: done in {wall_seconds:.1f}s (group of {len(methods)})"
        if log.records:
            note += f" (final test metric {log.records[-1].test_metric:.4f})"
        print(note, file=sys.stderr)


@contextmanager
def _replacing(path: Path, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path`` and move it onto ``path`` once
    the block completes; if the block raises, remove it instead.  So
    ``path`` is either absent or complete, never half-written."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: list, rows) -> None:
    with _replacing(path, newline="") as f:
        # csv writes a Python float as its repr, so the floats round-trip.
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, value: dict) -> None:
    with _replacing(path) as f:
        json.dump(value, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_summary_json(
    path: Path,
    method: str,
    seed: int,
    train: Dataset,
    test: Dataset,
    state,
    log: MetricLog,
) -> None:
    """Final metrics from the log, plus the final network's layer spectra and
    row correlations and, for regression, its per-task test explained variance."""
    final = state.net
    is_classification = train.kind == DatasetKind.CLASSIFICATION
    summary = {
        "schema": SUMMARY_SCHEMA,
        "method": method,
        "training_size": train.n,
        "seed": seed,
        "dataset_kind": train.kind,
        "metric_name": "accuracy" if is_classification else "explained_variance",
        "epochs": len(log.records),
        "final_train_loss": log.records[-1].train_loss if log.records else None,
        "final_test_loss": log.records[-1].test_loss if log.records else None,
        "final_train_metric": log.records[-1].train_metric if log.records else None,
        "final_test_metric": log.records[-1].test_metric if log.records else None,
        "spectrum_per_layer": [
            {"layer": i, **SpectrumReport.of(layer.weight).__dict__}
            for i, layer in enumerate(final.layers)
        ],
        "correlation": correlation_matrix(final.regularized_weight).tolist(),
    }
    if not is_classification:
        summary["per_task_explained_variance"] = [
            float(x) for x in explained_variance(predict(final, test), test.targets)
        ]
    _write_json(path, summary)


def _write_weights_npz(path: Path, state, dataset_kind: str) -> None:
    arrays = {"dataset_kind": np.array(dataset_kind)}
    for i, layer in enumerate(state.net.layers):
        arrays[f"weight_{i}"] = layer.weight
        arrays[f"bias_{i}"] = layer.bias
    arrays["regularized_layer_index"] = np.array(
        state.net.regularized_layer_index
    )
    if state.lam > 0.0:
        arrays["omega_r"] = state.precisions.omega_r.entries
        arrays["omega_c"] = state.precisions.omega_c.entries
        covs = state.precisions.to_prior()
        arrays["sigma_r"] = covs.row_cov.entries
        arrays["sigma_c"] = covs.col_cov.entries
    with _replacing(path, "wb") as f:
        np.savez(f, **arrays)


def run_experiment(
    config: ExperimentConfig,
    jobs: int = 1,
    seed_override: tuple[int, ...] | None = None,
    output_override: str | None = None,
) -> int:
    """Run every (method, training size, seed) cell of the sweep.

    ``seed_override`` (non-empty, distinct ints >= 0, as ``seeds``) and
    ``output_override`` replace the config's seeds and output directory in
    the one config that the plan, ``resolved_config.json`` and each group read.
    The cells train in the groups of ``_plan``; a Diverged stops the group
    and names the failing cell.  ``jobs`` worker processes, at most one per
    group, run the groups; with one, they run in this process.  In a pool, a
    group that raises cancels the groups not yet handed to a worker, and a
    worker process that dies is an AdaRegError.

    Returns 0 on success; raises AdaRegError subclasses on config, data, or
    divergence problems (the command-line wrapper turns those into non-zero
    exits).  Both splits are loaded and checked against the architecture and
    every training size, one network is allocated (a MemoryError for sizes
    the machine cannot hold), and the plan is fixed, before anything is
    written.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if seed_override is not None:
        config = replace(config, seeds=_int_list([*seed_override], 0, "seed override"))
    if output_override:
        config = replace(config, output_dir=str(Path(output_override)))
    _load_base_cached.cache_clear()  # ADAREG_DATA_DIR or the files may have changed
    train_full, test = _load_base_cached(json.dumps(config.dataset, sort_keys=True))
    loss = _loss_kind(config, train_full, test)
    Network.init(list(config.layer_sizes), loss, 0)
    plan = _plan(config, train_full)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "resolved_config.json", config.to_dict())

    run = partial(_run_group, config, loss)
    workers = min(jobs, len(plan))
    if workers == 1:
        for group in plan:
            run(group)
    else:
        # Imported here: multiprocessing loads only for runs that need a pool.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # The first group that raises cancels those not yet handed out.
                list(pool.map(run, plan))
        except BrokenProcessPool:
            msg = "a worker process died (for example, killed or out of memory)"
            raise AdaRegError(msg) from None
    cells = sum(len(names) for _, names, *_ in plan)
    print(f"[adareg] wrote {cells} cells to {out_dir}", file=sys.stderr)
    return 0


def _read_summary(path: Path) -> dict:
    """One cell summary, with every key ``summarize`` reads type-checked."""
    try:
        s = json.loads(path.read_text())
    except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
        raise SchemaMismatch(f"{path}: not valid JSON: {e}") from None
    if not isinstance(s, dict) or s.get("schema") != SUMMARY_SCHEMA:
        raise SchemaMismatch(f"{path}: not an {SUMMARY_SCHEMA!r} summary")
    metric = s.get("final_test_metric", "")  # null when no epoch ran; "" if absent
    per_task = s.get("per_task_explained_variance", [])
    valid = {
        "method": isinstance(s.get("method"), str),
        "training_size": _is_int(s.get("training_size")),
        "dataset_kind": isinstance(s.get("dataset_kind"), str),
        "metric_name": isinstance(s.get("metric_name"), str),
        "final_test_metric": metric is None or _is_number(metric),
        "per_task_explained_variance": isinstance(per_task, list)
        and all(map(_is_number, per_task)),
    }
    for key, ok in valid.items():
        if not ok:
            raise SchemaMismatch(f"{path}: {key!r} is missing or mistyped")
    return s


def summarize(run_directory) -> Path:
    """Aggregate per-cell summaries into one CSV row per (method, size).

    Means and standard deviations (population) are over seeds; regression
    rows also get per-task explained-variance columns.
    """
    run_dir = Path(run_directory)
    paths = sorted(run_dir.glob("*_summary.json"))
    if not paths:
        raise EmptyDirectory(f"no *_summary.json files under {run_dir}")
    summaries = [_read_summary(p) for p in paths]
    metric_names = {s["metric_name"] for s in summaries}  # one per dataset kind
    if len(metric_names) > 1:
        raise SchemaMismatch(f"mixed logs: metric {sorted(metric_names)}")
    # A classification summary lists no per-task explained variance: 0 tasks.
    task_counts = {len(s.get("per_task_explained_variance", [])) for s in summaries}
    if len(task_counts) > 1:
        raise SchemaMismatch(f"mixed task counts {sorted(task_counts)}")
    num_tasks = task_counts.pop()

    # Per (method, size), one row per seed: the test metric, then each task's EV.
    columns = ["test_metric"] + [f"ev_task{t}" for t in range(num_tasks)]
    groups: dict[tuple[str, int], list[list]] = {}
    for s in summaries:
        values = [s["final_test_metric"], *s.get("per_task_explained_variance", [])]
        groups.setdefault((s["method"], s["training_size"]), []).append(values)

    out_path = run_dir / "summary.csv"
    header = ["method", "training_size", "n_seeds"]
    header += [f"{name}_{stat}" for name in columns for stat in ("mean", "std")]
    rows = []
    for (method, size), values in sorted(groups.items()):
        row = [method, size, len(values)]
        for column in np.array(values, dtype=float).T:
            row += [repr(float(column.mean())), repr(float(column.std()))]
        rows.append(row)
    _write_csv(out_path, header, rows)
    return out_path


def export_correlation(run_directory, layer_index: int) -> list[Path]:
    """Write the row-correlation matrix of one layer for every saved run.

    Reads each cell's weights NPZ; emits one labeled CSV per cell.
    """
    run_dir = Path(run_directory)
    weight_files = sorted(run_dir.glob("*_weights.npz"))
    if not weight_files:
        raise MissingWeights(f"no *_weights.npz files under {run_dir}")
    written = []
    for wf in weight_files:
        try:
            with open(wf, "rb") as f, np.load(f) as z:
                key = f"weight_{layer_index}"
                if key not in z:
                    raise MissingWeights(f"{wf}: no saved layer {layer_index}")
                w = z[key]
                kind = str(z["dataset_kind"])
        except (BadZipFile, EOFError, KeyError, OSError, ValueError) as e:
            raise MissingWeights(f"{wf}: unreadable weights file: {e}") from None
        try:
            corr = correlation_matrix(w)
        except ValueError as e:  # a layer with one input has no correlations
            raise DimensionMismatch(f"{wf}: layer {layer_index}: {e}") from None
        prefix = "class" if kind == DatasetKind.CLASSIFICATION else "task"
        labels = [f"{prefix}_{i}" for i in range(corr.shape[0])]
        out = run_dir / (
            wf.name.replace("_weights.npz", f"_correlation_layer{layer_index}.csv")
        )
        rows = [[lab, *(repr(float(x)) for x in row)] for lab, row in zip(labels, corr)]
        _write_csv(out, [""] + labels, rows)
        written.append(out)
    return written


def _parse_seed_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"bad seed list {text!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adareg",
        description="Adaptive-regularization experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config's full sweep")
    p_run.add_argument("config", help="path to the experiment config JSON")
    p_run.add_argument(
        "--seed-override",
        help="comma-separated seeds replacing the config's list",
    )
    p_run.add_argument(
        "--jobs", type=int, default=1, help="parallel worker processes"
    )
    p_run.add_argument("--output", help="output directory override")

    p_sum = sub.add_parser("summarize", help="aggregate a run directory")
    p_sum.add_argument("run_dir")

    p_exp = sub.add_parser(
        "export-correlation", help="export per-run row correlation matrices"
    )
    p_exp.add_argument("run_dir")
    p_exp.add_argument("--layer", type=int, required=True)

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("config")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = ExperimentConfig.from_file(args.config)
            override = (
                _parse_seed_list(args.seed_override)
                if args.seed_override is not None
                else None
            )
            return run_experiment(
                config,
                jobs=args.jobs,
                seed_override=override,
                output_override=args.output,
            )
        if args.command == "summarize":
            out = summarize(args.run_dir)
            print(out)
            return 0
        if args.command == "export-correlation":
            for path in export_correlation(args.run_dir, args.layer):
                print(path)
            return 0
        if args.command == "validate":
            ExperimentConfig.from_file(args.config)
            print("config OK")
            return 0
    except (AdaRegError, OSError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
