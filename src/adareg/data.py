"""Dataset ingestion, generation, subsampling, and minibatching.

Sources: IDX image/label pairs (big-endian headers, magic 2051 for images
and 2049 for labels), numeric CSV regression tables whose trailing columns
are the targets, and a synthetic correlated multitask generator standing in
for robot-arm style regression (21 inputs, 7 related tasks by default).
Every routine is deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    CountMismatch,
    DataError,
    DimensionMismatch,
    ParseError,
    RaggedRows,
    SizeTooLarge,
    TruncatedFile,
)
from .net import Batch

__all__ = [
    "DatasetKind",
    "Dataset",
    "IdxSplit",
    "SyntheticMultitaskSpec",
    "read_idx",
    "load_idx",
    "write_idx",
    "load_csv_regression",
    "synth_multitask",
    "pick_rows",
    "subsample",
    "batches",
    "standardize_inputs",
]

IMAGES_MAGIC = 2051
LABELS_MAGIC = 2049
MAX_FLOAT64S = np.iinfo(np.intp).max // 8  # the most float64s one array holds


class DatasetKind:
    CLASSIFICATION = "classification"
    REGRESSION = "regression"


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray  # (n, d_in)
    targets: np.ndarray  # int labels (n,) or reals (n, d_out)
    kind: str

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError(f"inputs must be (n, d) with n >= 1, got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("inputs contain non-finite values")
        if self.kind == DatasetKind.CLASSIFICATION:
            y = np.asarray(self.targets)
            if y.shape != (x.shape[0],):
                raise ValueError(f"labels must be ({x.shape[0]},), got {y.shape}")
            if not (y.dtype.kind in "iu" or (np.floor(y) == y).all()):
                raise ValueError("class labels must be whole numbers")
            y = y.astype(int, copy=False)
            if y.min() < 0:
                raise ValueError("class labels must be non-negative")
        elif self.kind == DatasetKind.REGRESSION:
            y = np.asarray(self.targets, dtype=float)
            if y.ndim == 1:
                y = y[:, None]
            if y.shape[0] != x.shape[0]:
                raise ValueError("inputs and targets disagree on n")
            if not np.isfinite(y).all():
                raise ValueError("targets contain non-finite values")
        else:
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", y)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def num_classes(self) -> int:
        if self.kind != DatasetKind.CLASSIFICATION:
            raise ValueError("num_classes only applies to classification")
        return int(self.targets.max()) + 1

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    def take(self, idx) -> Dataset:
        return Dataset(self.inputs[idx], self.targets[idx], self.kind)

    def as_batch(self) -> Batch:
        return Batch(self.inputs, self.targets)


@dataclass(frozen=True)
class IdxSplit:
    """A classification split kept as its IDX pixel bytes, one byte per
    pixel instead of eight; ``take`` scales only the rows it picks."""

    pixels: np.ndarray  # (n, rows*cols) uint8
    targets: np.ndarray  # int labels (n,)
    kind = DatasetKind.CLASSIFICATION

    @property
    def n(self) -> int:
        return self.pixels.shape[0]

    @property
    def input_dim(self) -> int:
        return self.pixels.shape[1]

    num_classes = Dataset.num_classes

    def take(self, idx) -> Dataset:
        inputs = self.pixels[idx].astype(float) / 255.0
        return Dataset(inputs, self.targets[idx], self.kind)


@dataclass(frozen=True)
class SyntheticMultitaskSpec:
    """Parameters of the correlated multitask regression generator."""

    n_train: int
    n_test: int
    input_dim: int = 21
    num_tasks: int = 7
    task_correlation: float = 0.0
    noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if min(self.n_train, self.n_test, self.input_dim, self.num_tasks) < 1:
            raise ValueError("all sizes must be positive")
        # The generator's largest arrays: (2d, d), (t, t) and (n, max(2d, t)).
        d, t, n = self.input_dim, self.num_tasks, self.n_train + self.n_test
        if max(2 * d * d, t * t, n * max(2 * d, t)) > MAX_FLOAT64S:
            raise ValueError(
                "n_train + n_test, input_dim and num_tasks exceed numpy's array size"
            )
        if not 0.0 <= self.task_correlation < 1.0:
            raise ValueError("task_correlation must lie in [0, 1)")
        if self.noise_std <= 0.0:
            raise ValueError("noise_std must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _open(path: Path, mode: str, **kwargs):
    """``open`` that reports a missing or unreadable file as a DataError."""
    try:
        return open(path, mode, **kwargs)
    except OSError as e:
        raise DataError(f"{path}: cannot read: {e.strerror or e}") from None


def _read_be_u32(f, path, what: str) -> int:
    raw = f.read(4)
    if len(raw) != 4:
        raise TruncatedFile(f"{path}: ran out of bytes reading {what}")
    return struct.unpack(">I", raw)[0]


def _read_idx_file(path, magic: int, size_names, what: str):
    """(header sizes, payload) of one IDX file: its magic number, one
    big-endian u32 per name in ``size_names``, then the product of those
    sizes in ``what`` bytes.  BadMagic or TruncatedFile names ``path``."""
    path = Path(path)
    with _open(path, "rb") as f:
        found = _read_be_u32(f, path, "magic number")
        if found != magic:
            raise BadMagic(f"{path}: magic {found}, expected {magic}")
        sizes = [_read_be_u32(f, path, name) for name in size_names]
        payload = f.read()
    expected = math.prod(sizes)
    if len(payload) < expected:
        raise TruncatedFile(
            f"{path}: expected {expected} {what} bytes, got {len(payload)}"
        )
    return sizes, np.frombuffer(payload[:expected], dtype=np.uint8)


def read_idx(images_path, labels_path) -> IdxSplit:
    """An IDX image/label file pair as stored: (n, rows*cols) pixel bytes."""
    (count, rows, cols), pixels = _read_idx_file(
        images_path, IMAGES_MAGIC, ("item count", "row count", "column count"), "pixel"
    )
    (label_count,), labels = _read_idx_file(
        labels_path, LABELS_MAGIC, ("item count",), "label"
    )
    if label_count != count:
        raise CountMismatch(f"{count} images but {label_count} labels")
    return IdxSplit(pixels.reshape(count, rows * cols), labels.astype(int))


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair into a classification dataset.

    Pixels are scaled from bytes to [0, 1] and images flattened row-major
    to (n, rows*cols).
    """
    return read_idx(images_path, labels_path).take(slice(None))


def write_idx(ds: Dataset, images_path, labels_path, rows: int, cols: int) -> None:
    """Write a classification dataset as an IDX image/label pair.

    Inputs must be [0, 1] scaled with rows*cols features, labels 0-255; values
    are quantized back to bytes, so only byte-grid data round-trips exactly.
    """
    if ds.kind != DatasetKind.CLASSIFICATION:
        raise ValueError("only classification datasets can be written as IDX")
    if ds.inputs.shape[1] != rows * cols:
        raise ValueError(
            f"inputs have {ds.inputs.shape[1]} features, need {rows * cols}"
        )
    if ds.targets.max() > 255:
        raise ValueError(f"label {ds.targets.max()} does not fit in one byte")
    pixels = np.clip(np.rint(ds.inputs * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGES_MAGIC, ds.n, rows, cols))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", LABELS_MAGIC, ds.n))
        f.write(ds.targets.astype(np.uint8).tobytes())


def _float(cell: str) -> float | None:
    """``cell`` as a float, or None if ``float`` cannot read it."""
    try:
        return float(cell)
    except ValueError:
        return None


def _parse_cell(cell: str, row: int, col: int, path) -> float:
    value = _float(cell)
    if value is None or not np.isfinite(value):  # also "nan" and "inf"
        raise ParseError(
            f"{path}: row {row}, column {col}: {cell!r} is not a finite number"
        )
    return value


def load_csv_regression(path, num_targets: int) -> Dataset:
    """Load a numeric CSV where the last ``num_targets`` columns are targets.

    A single header row is auto-detected (a first row in which no cell reads
    as a number, ``nan`` and ``inf`` included) and skipped.  Rows of unequal
    width raise RaggedRows; bad cells raise ParseError with their location.
    """
    path = Path(path)
    if num_targets < 1:
        raise ValueError("num_targets must be >= 1")
    with _open(path, "r", newline="") as f:
        rows = [
            (i, [cell.strip() for cell in row])
            for i, row in enumerate(csv.reader(f))
            if row and any(cell.strip() for cell in row)
        ]
    if not rows:
        raise ParseError(f"{path}: file holds no data rows")
    if all(_float(cell) is None for cell in rows[0][1]):  # a header row
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: only a header row present")
    width = len(rows[0][1])
    if width < num_targets + 1:
        raise ParseError(
            f"{path}: {width} columns cannot hold {num_targets} targets "
            "plus at least one input"
        )
    data = np.empty((len(rows), width))
    for out_row, (line, cells) in enumerate(rows):
        if len(cells) != width:
            raise RaggedRows(
                f"{path}: row {line} has {len(cells)} cells, expected {width}"
            )
        for j, cell in enumerate(cells):
            data[out_row, j] = _parse_cell(cell, line, j, path)
    return Dataset(
        data[:, : width - num_targets],
        data[:, width - num_targets :],
        DatasetKind.REGRESSION,
    )


def synth_multitask(spec: SyntheticMultitaskSpec) -> tuple[Dataset, Dataset]:
    """Generate correlated multitask regression data, split train/test.

    Targets follow y = tanh(x A.T) B + eps.  The rows of B are i.i.d. draws
    from a Gaussian whose correlation between any two coordinates is
    ``task_correlation``, so task columns of B (and hence the noiseless
    targets) share that pairwise correlation.  Inputs are standard normal;
    train and test are disjoint slices of one stream.
    """
    rng = np.random.default_rng(spec.seed)
    d = spec.input_dim
    k = 2 * d  # hidden width of the generative map
    t = spec.num_tasks

    a = rng.normal(size=(k, d)) / np.sqrt(d)
    corr = np.full((t, t), spec.task_correlation)
    np.fill_diagonal(corr, 1.0)
    chol = np.linalg.cholesky(corr)
    b = (rng.normal(size=(k, t)) @ chol.T) / np.sqrt(k)

    n_total = spec.n_train + spec.n_test
    x = rng.normal(size=(n_total, d))
    clean = np.tanh(x @ a.T) @ b
    with np.errstate(over="ignore"):
        y = clean + rng.normal(scale=spec.noise_std, size=clean.shape)
    if not np.isfinite(y).all():
        raise DataError(f"noise_std {spec.noise_std:g} overflows the synthetic targets")

    train = Dataset(x[: spec.n_train], y[: spec.n_train], DatasetKind.REGRESSION)
    test = Dataset(x[spec.n_train :], y[spec.n_train :], DatasetKind.REGRESSION)
    return train, test


def pick_rows(
    ds: Dataset | IdxSplit, size: int, seed, stratified: bool = False
) -> np.ndarray:
    """The rows ``subsample`` takes; SizeTooLarge if ``ds`` has too few."""
    if size < 1:
        raise ValueError("size must be >= 1")
    if size > ds.n:
        raise SizeTooLarge(f"requested {size} of {ds.n} examples")
    rng = np.random.default_rng(seed)
    if stratified and ds.kind == DatasetKind.CLASSIFICATION:
        classes = np.unique(ds.targets)
        base, extra = divmod(size, classes.size)
        picked = []
        for rank, label in enumerate(classes):
            want = base + (1 if rank < extra else 0)
            pool = np.flatnonzero(ds.targets == label)
            if want > pool.size:
                raise SizeTooLarge(
                    f"class {label} has {pool.size} examples, need {want}"
                )
            picked.append(rng.permutation(pool)[:want])
        return rng.permutation(np.concatenate(picked))
    return rng.permutation(ds.n)[:size]


def subsample(
    ds: Dataset | IdxSplit, size: int, seed, stratified: bool = False
) -> Dataset:
    """Seeded subsample of ``size`` examples, keeping input/target pairing.

    With ``stratified`` on a classification dataset, per-class counts differ
    by at most one (classes in ascending label order receive the remainder).
    """
    return ds.take(pick_rows(ds, size, seed, stratified))


def batches(ds: Dataset, batch_size: int, seed):
    """Yield one epoch of minibatches after a seeded shuffle.

    The final short batch is included, so the union of all yielded batches
    is exactly the dataset.  Each call shuffles afresh from its seed;
    iterate once per epoch with a distinct seed.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    perm = np.random.default_rng(seed).permutation(ds.n)
    for lo in range(0, ds.n, batch_size):
        take = perm[lo : lo + batch_size]
        yield Batch(ds.inputs[take], ds.targets[take])


def standardize_inputs(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset]:
    """Per-feature standardization fit on train, applied to both splits.

    Constant features are left unscaled (divisor 1) rather than divided by
    zero.  DimensionMismatch if the splits have different input widths.
    """
    if train.input_dim != test.input_dim:
        raise DimensionMismatch(
            f"train has {train.input_dim} input columns, test {test.input_dim}"
        )
    mean = train.inputs.mean(axis=0)
    std = train.inputs.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return (
        Dataset((train.inputs - mean) / std, train.targets, train.kind),
        Dataset((test.inputs - mean) / std, test.targets, test.kind),
    )
