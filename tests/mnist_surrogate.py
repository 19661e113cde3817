"""Deterministic 10-class 28x28 digit surrogate, written as IDX files.

Real MNIST files are not bundled; this generator renders bitmap-font digits
with random shifts, contrast jitter, and pixel noise, giving a 784-feature
10-class problem on which a small MLP visibly overfits at small training
sizes.  The acceptance suite uses real MNIST instead when ADAREG_DATA_DIR
points at the official IDX files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from adareg.data import Dataset, DatasetKind, write_idx

# 5x7 bitmap font for the ten digits.
_GLYPHS = {
    0: ["01110", "10001", "10011", "10101", "11001", "10001", "01110"],
    1: ["00100", "01100", "00100", "00100", "00100", "00100", "01110"],
    2: ["01110", "10001", "00001", "00010", "00100", "01000", "11111"],
    3: ["11111", "00010", "00100", "00010", "00001", "10001", "01110"],
    4: ["00010", "00110", "01010", "10010", "11111", "00010", "00010"],
    5: ["11111", "10000", "11110", "00001", "00001", "10001", "01110"],
    6: ["00110", "01000", "10000", "11110", "10001", "10001", "01110"],
    7: ["11111", "00001", "00010", "00100", "01000", "01000", "01000"],
    8: ["01110", "10001", "10001", "01110", "10001", "10001", "01110"],
    9: ["01110", "10001", "10001", "01111", "00001", "00010", "01100"],
}

IMAGE_SIDE = 28

# Each glyph upscaled by each scale _render draws (2 or 3), built once.
_BLOCKS = {
    (digit, scale): np.kron(
        np.array([[float(c) for c in row] for row in rows]), np.ones((scale, scale))
    )
    for digit, rows in _GLYPHS.items()
    for scale in (2, 3)
}


def _render(digit: int, rng: np.random.Generator) -> np.ndarray:
    """One noisy sample: random glyph scale, stroke thickness, position,
    contrast, a distractor bar, and pixel noise."""
    img = np.zeros((IMAGE_SIDE, IMAGE_SIDE))
    scale = int(rng.integers(2, 4))
    block = _BLOCKS[digit, scale]
    if rng.random() < 0.5:  # thicken strokes by smearing one pixel diagonally
        shifted = np.zeros_like(block)
        shifted[1:, 1:] = block[:-1, :-1]
        block = np.maximum(block, shifted)
    h, w = block.shape
    r0 = (IMAGE_SIDE - h) // 2 + int(rng.integers(-4, 5))
    c0 = (IMAGE_SIDE - w) // 2 + int(rng.integers(-4, 5))
    r0 = min(max(r0, 0), IMAGE_SIDE - h)
    c0 = min(max(c0, 0), IMAGE_SIDE - w)
    contrast = rng.uniform(0.5, 0.95)
    speckle = rng.uniform(0.7, 1.0, size=block.shape)
    img[r0 : r0 + h, c0 : c0 + w] = block * contrast * speckle
    # a distractor bar makes pixels outside the glyph informative-looking
    bar_r = int(rng.integers(0, IMAGE_SIDE))
    img[bar_r, :] += rng.uniform(0.0, 0.3)
    img += rng.normal(scale=0.3, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def make_dataset(n: int, seed: int) -> Dataset:
    """n images with near-balanced shuffled labels, seeded."""
    rng = np.random.default_rng([seed, 424242])
    labels = rng.permutation(np.tile(np.arange(10), (n + 9) // 10)[:n])
    images = np.stack([_render(int(c), rng).ravel() for c in labels])
    # quantize to the byte grid so IDX round-trips exactly
    images = np.rint(images * 255.0) / 255.0
    return Dataset(images, labels, DatasetKind.CLASSIFICATION)


def ensure_idx_files(
    directory, n_train: int = 8000, n_test: int = 2000, seed: int = 1234
) -> dict:
    """Write (or reuse) surrogate IDX files; returns the four paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "train_images": directory / "surrogate-train-images-idx3-ubyte",
        "train_labels": directory / "surrogate-train-labels-idx1-ubyte",
        "test_images": directory / "surrogate-test-images-idx3-ubyte",
        "test_labels": directory / "surrogate-test-labels-idx1-ubyte",
    }
    if not all(p.exists() for p in paths.values()):
        train = make_dataset(n_train, seed)
        test = make_dataset(n_test, seed + 1)
        write_idx(train, paths["train_images"], paths["train_labels"], IMAGE_SIDE, IMAGE_SIDE)
        write_idx(test, paths["test_images"], paths["test_labels"], IMAGE_SIDE, IMAGE_SIDE)
    return {k: str(v) for k, v in paths.items()}
