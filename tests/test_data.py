"""Tests for IDX/CSV ingestion, the synthetic generator, subsampling, and
minibatching."""

import re
import struct
from pathlib import Path

import numpy as np
import pytest

from adareg.data import (
    Dataset,
    DatasetKind,
    SyntheticMultitaskSpec,
    batches,
    load_csv_regression,
    load_idx,
    pick_rows,
    standardize_inputs,
    subsample,
    synth_multitask,
    write_idx,
)
from adareg.errors import (
    BadMagic,
    CountMismatch,
    DimensionMismatch,
    ParseError,
    RaggedRows,
    SizeTooLarge,
    TruncatedFile,
)


def _write_images(path, count, rows, cols, pixels, magic=2051):
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", magic, count, rows, cols))
        f.write(bytes(pixels))


def _write_labels(path, labels, magic=2049, count=None):
    with open(path, "wb") as f:
        f.write(struct.pack(">II", magic, len(labels) if count is None else count))
        f.write(bytes(labels))


class TestLoadIdx:
    def test_hand_built_fixture(self, tmp_path):
        img = tmp_path / "img"
        lab = tmp_path / "lab"
        _write_images(img, 2, 2, 2, [0, 51, 102, 255, 255, 204, 153, 0])
        _write_labels(lab, [3, 7])
        ds = load_idx(img, lab)
        assert ds.kind == DatasetKind.CLASSIFICATION
        np.testing.assert_allclose(
            ds.inputs,
            np.array([[0, 51, 102, 255], [255, 204, 153, 0]]) / 255.0,
        )
        np.testing.assert_array_equal(ds.targets, [3, 7])

    def test_wrong_magic_in_labels(self, tmp_path):
        img = tmp_path / "img"
        lab = tmp_path / "lab"
        _write_images(img, 1, 1, 1, [5])
        _write_labels(lab, [1], magic=2051)
        with pytest.raises(BadMagic):
            load_idx(img, lab)

    def test_wrong_magic_in_images(self, tmp_path):
        img = tmp_path / "img"
        lab = tmp_path / "lab"
        _write_images(img, 1, 1, 1, [5], magic=2049)
        _write_labels(lab, [1])
        with pytest.raises(BadMagic):
            load_idx(img, lab)

    def test_truncated_pixels(self, tmp_path):
        img = tmp_path / "img"
        lab = tmp_path / "lab"
        _write_images(img, 2, 2, 2, [1, 2, 3])  # needs 8 bytes
        _write_labels(lab, [0, 1])
        with pytest.raises(TruncatedFile):
            load_idx(img, lab)

    def test_truncated_header(self, tmp_path):
        img = tmp_path / "img"
        lab = tmp_path / "lab"
        img.write_bytes(b"\x00\x00")
        _write_labels(lab, [0])
        with pytest.raises(TruncatedFile):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img = tmp_path / "img"
        lab = tmp_path / "lab"
        _write_images(img, 2, 1, 1, [1, 2])
        _write_labels(lab, [0, 1, 2])
        with pytest.raises(CountMismatch):
            load_idx(img, lab)

    def test_official_mnist_counts_when_available(self):
        import os

        root = os.environ.get("ADAREG_DATA_DIR")
        names = (
            "train-images-idx3-ubyte",
            "train-labels-idx1-ubyte",
            "t10k-images-idx3-ubyte",
            "t10k-labels-idx1-ubyte",
        )
        if not root or not all((Path(root) / n).exists() for n in names):
            pytest.skip("official MNIST IDX files not provided")
        train = load_idx(Path(root) / names[0], Path(root) / names[1])
        test = load_idx(Path(root) / names[2], Path(root) / names[3])
        assert train.n == 60000 and test.n == 10000
        assert train.inputs.shape[1] == 784

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(5, 9)).astype(np.uint8)
        ds = Dataset(
            pixels.astype(float) / 255.0,
            rng.integers(0, 10, size=5),
            DatasetKind.CLASSIFICATION,
        )
        img, lab = tmp_path / "img", tmp_path / "lab"
        write_idx(ds, img, lab, rows=3, cols=3)
        back = load_idx(img, lab)
        np.testing.assert_array_equal(back.inputs, ds.inputs)
        np.testing.assert_array_equal(back.targets, ds.targets)

    @pytest.mark.parametrize("bad", ["images", "labels"])
    @pytest.mark.parametrize(
        "fault, error",
        [
            ("magic", BadMagic),
            ("short_header", TruncatedFile),
            ("short_payload", TruncatedFile),
        ],
    )
    def test_error_names_the_file_at_fault(self, tmp_path, bad, fault, error):
        img, lab = tmp_path / "img", tmp_path / "lab"
        _write_images(img, 2, 2, 2, range(8))
        _write_labels(lab, [0, 1])
        path = img if bad == "images" else lab
        data = path.read_bytes()
        if fault == "magic":
            path.write_bytes(struct.pack(">I", 2051 + 2049) + data[4:])
        elif fault == "short_header":
            path.write_bytes(data[:6])
        else:
            path.write_bytes(data[:-1])
        with pytest.raises(error, match=re.escape(str(path))) as info:
            load_idx(img, lab)
        other = lab if bad == "images" else img
        assert str(other) not in str(info.value)


class TestDataset:
    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError, match="inputs contain non-finite values"):
            Dataset(np.array([[1.0, np.inf]]), np.array([[0.0]]), DatasetKind.REGRESSION)


def _regression(n=3):
    x = np.arange(n, dtype=float)[:, None]
    return Dataset(x, 2.0 * x, DatasetKind.REGRESSION)


class TestInputGuards:
    """Each guard raises on the one bad input it exists for."""

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: Dataset(np.ones(3), np.ones(3), DatasetKind.REGRESSION),
             "inputs must be"),
            (lambda: Dataset(np.ones((0, 2)), np.ones(0), DatasetKind.CLASSIFICATION),
             "inputs must be"),
            (lambda: Dataset(np.ones((3, 2)), np.zeros((3, 1)), DatasetKind.CLASSIFICATION),
             "labels must be"),
            (lambda: Dataset(np.ones((3, 2)), [0, -1, 1], DatasetKind.CLASSIFICATION),
             "non-negative"),
            (lambda: Dataset(np.ones((3, 2)), [0.5, 1.7, 2.9], DatasetKind.CLASSIFICATION),
             "whole numbers"),
            (lambda: Dataset(np.ones((3, 2)), [0.0, np.nan, 1.0], DatasetKind.CLASSIFICATION),
             "whole numbers"),
            (lambda: Dataset(np.ones((3, 2)), np.ones((2, 1)), DatasetKind.REGRESSION),
             "disagree on n"),
            (lambda: Dataset(np.ones((3, 2)), [0.0, np.nan, 1.0], DatasetKind.REGRESSION),
             "targets contain non-finite"),
            (lambda: Dataset(np.ones((3, 2)), np.ones(3), "ranking"), "unknown dataset kind"),
            (lambda: _regression().num_classes, "only applies to classification"),
            (lambda: SyntheticMultitaskSpec(n_train=0, n_test=5), "sizes must be positive"),
            (lambda: write_idx(_regression(), "x", "y", 1, 1), "only classification"),
            (lambda: write_idx(
                Dataset(np.ones((3, 2)), [0, 1, 2], DatasetKind.CLASSIFICATION),
                "x", "y", 2, 2),
             "need 4"),
            (lambda: write_idx(
                Dataset(np.ones((3, 4)), [0, 1, 300], DatasetKind.CLASSIFICATION),
                "x", "y", 2, 2),
             "label 300 does not fit in one byte"),
            (lambda: load_csv_regression("unread.csv", 0), "num_targets must be"),
            (lambda: pick_rows(_regression(), 0, 0), "size must be"),
            (lambda: next(batches(_regression(), 0, seed=0)), "batch_size must be"),
        ],
        ids=[
            "one_dim_inputs",
            "empty_inputs",
            "label_shape",
            "negative_label",
            "fractional_labels",
            "nan_label",
            "row_counts",
            "non_finite_targets",
            "unknown_kind",
            "num_classes_of_regression",
            "zero_spec_size",
            "idx_of_regression",
            "idx_feature_count",
            "idx_label_range",
            "zero_num_targets",
            "zero_pick_size",
            "zero_batch_size",
        ],
    )
    def test_bad_input_raises(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()


class TestLoadCsvRegression:
    def test_small_fixture(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1,2,3,4\n5,6,7,8\n9,10,11,12\n")
        ds = load_csv_regression(p, num_targets=1)
        assert ds.kind == DatasetKind.REGRESSION
        assert ds.inputs.shape == (3, 3)
        assert ds.targets.shape == (3, 1)
        np.testing.assert_array_equal(ds.targets.ravel(), [4, 8, 12])

    def test_header_auto_detected(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("a,b,y\n1,2,3\n4,5,6\n")
        ds = load_csv_regression(p, num_targets=1)
        assert ds.n == 2
        np.testing.assert_array_equal(ds.inputs, [[1, 2], [4, 5]])

    def test_parse_error_carries_location(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1,2,3\n4,oops,6\n")
        with pytest.raises(ParseError, match="row 1, column 1"):
            load_csv_regression(p, num_targets=1)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_is_a_parse_error(self, tmp_path, cell):
        p = tmp_path / "data.csv"
        p.write_text(f"a,b,y\n1,2,3\n4,{cell},6\n")
        with pytest.raises(ParseError, match=f"data.csv: row 2, column 1: '{cell}'"):
            load_csv_regression(p, num_targets=1)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,NA,3,4,5\n6,7,8,9,10\n", "row 0, column 1: 'NA' is not a finite number"),
            ("nan,nan,nan\n1,2,3\n", "row 0, column 0: 'nan' is not a finite number"),
        ],
        ids=["mixed", "all_nan"],
    )
    def test_first_row_with_a_number_is_data(self, tmp_path, text, message):
        """Only a first row in which no cell reads as a number is a header;
        any other first row is data, and its bad cells are parse errors."""
        p = tmp_path / "data.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match=f"data.csv: {message}"):
            load_csv_regression(p, num_targets=1)

    @pytest.mark.parametrize(
        "text, message",
        [("", "file holds no data rows"), ("a,b,y\n", "only a header row present")],
        ids=["empty", "header_only"],
    )
    def test_file_without_data_rows(self, tmp_path, text, message):
        p = tmp_path / "data.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match=f"data.csv: {message}"):
            load_csv_regression(p, num_targets=1)

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1,2,3\n4,5\n")
        with pytest.raises(RaggedRows):
            load_csv_regression(p, num_targets=1)

    def test_too_few_columns(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1,2\n3,4\n")
        with pytest.raises(ParseError):
            load_csv_regression(p, num_targets=2)

    def test_multi_target_split(self, tmp_path):
        p = tmp_path / "data.csv"
        rows = "\n".join(",".join(str(c + 10 * r) for c in range(28)) for r in range(4))
        p.write_text(rows + "\n")
        ds = load_csv_regression(p, num_targets=7)
        assert ds.inputs.shape == (4, 21)
        assert ds.targets.shape == (4, 7)


class TestSynthMultitask:
    def test_deterministic(self):
        spec = SyntheticMultitaskSpec(n_train=50, n_test=20, seed=9)
        a_train, a_test = synth_multitask(spec)
        b_train, b_test = synth_multitask(spec)
        np.testing.assert_array_equal(a_train.inputs, b_train.inputs)
        np.testing.assert_array_equal(a_test.targets, b_test.targets)

    def test_shapes_and_kind(self):
        spec = SyntheticMultitaskSpec(n_train=30, n_test=10, input_dim=5, num_tasks=3)
        train, test = synth_multitask(spec)
        assert train.inputs.shape == (30, 5)
        assert test.targets.shape == (10, 3)
        assert train.kind == DatasetKind.REGRESSION

    def test_high_task_correlation_shows_in_targets(self):
        spec = SyntheticMultitaskSpec(
            n_train=10_000,
            n_test=10,
            task_correlation=0.999,
            noise_std=1e-6,
            seed=4,
        )
        train, _ = synth_multitask(spec)
        corr = np.corrcoef(train.targets, rowvar=False)
        off = corr[~np.eye(corr.shape[0], dtype=bool)]
        assert off.min() > 0.9

    def test_disjoint_train_test_rows(self):
        spec = SyntheticMultitaskSpec(n_train=40, n_test=40, seed=5)
        train, test = synth_multitask(spec)
        train_rows = {tuple(r) for r in train.inputs}
        test_rows = {tuple(r) for r in test.inputs}
        assert not train_rows & test_rows


class TestSubsample:
    def _classification(self, n=100, classes=10, seed=0):
        rng = np.random.default_rng(seed)
        labels = np.repeat(np.arange(classes), n // classes)
        # encode the label into the features so pairing is verifiable
        inputs = np.column_stack([labels.astype(float), rng.normal(size=n)])
        return Dataset(inputs, labels, DatasetKind.CLASSIFICATION)

    def test_full_size_is_permutation(self):
        ds = self._classification()
        out = subsample(ds, ds.n, seed=1)
        assert sorted(map(tuple, out.inputs)) == sorted(map(tuple, ds.inputs))

    def test_stratified_sixty_over_ten_classes(self):
        ds = self._classification()
        out = subsample(ds, 60, seed=2, stratified=True)
        counts = np.bincount(out.targets, minlength=10)
        np.testing.assert_array_equal(counts, np.full(10, 6))

    def test_stratified_remainder_spread(self):
        ds = self._classification()
        out = subsample(ds, 63, seed=3, stratified=True)
        counts = np.bincount(out.targets, minlength=10)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 63

    def test_same_seed_same_subset(self):
        ds = self._classification()
        a = subsample(ds, 30, seed=4, stratified=True)
        b = subsample(ds, 30, seed=4, stratified=True)
        np.testing.assert_array_equal(a.inputs, b.inputs)

    def test_pairing_preserved(self):
        ds = self._classification()
        out = subsample(ds, 40, seed=5, stratified=True)
        np.testing.assert_array_equal(out.inputs[:, 0].astype(int), out.targets)

    def test_too_large_raises(self):
        ds = self._classification()
        with pytest.raises(SizeTooLarge):
            subsample(ds, ds.n + 1, seed=6)

    def test_stratified_insufficient_class(self):
        ds = self._classification(n=20, classes=10)  # 2 per class
        with pytest.raises(SizeTooLarge):
            subsample(ds, 15 * 2, seed=7, stratified=True)


class TestBatches:
    def _regression(self, n):
        x = np.arange(n, dtype=float)[:, None]
        return Dataset(x, 2.0 * x, DatasetKind.REGRESSION)

    def test_sizes_include_short_final_batch(self):
        got = [b.size for b in batches(self._regression(10), 4, seed=0)]
        assert got == [4, 4, 2]

    def test_single_batch_when_batch_size_exceeds_n(self):
        got = list(batches(self._regression(5), 8, seed=1))
        assert len(got) == 1 and got[0].size == 5

    def test_coverage_is_exact(self):
        ds = self._regression(23)
        seen = np.concatenate(
            [b.inputs.ravel() for b in batches(ds, 5, seed=2)]
        )
        assert sorted(seen) == sorted(ds.inputs.ravel())

    def test_seeded_shuffle_reproducible(self):
        ds = self._regression(12)
        a = np.concatenate([b.inputs.ravel() for b in batches(ds, 5, seed=3)])
        b = np.concatenate([b.inputs.ravel() for b in batches(ds, 5, seed=3)])
        np.testing.assert_array_equal(a, b)

    def test_pairing_preserved(self):
        ds = self._regression(9)
        for b in batches(ds, 4, seed=4):
            np.testing.assert_array_equal(b.targets, 2.0 * b.inputs)


class TestStandardize:
    def test_train_becomes_zero_mean_unit_std(self):
        rng = np.random.default_rng(8)
        train = Dataset(
            rng.normal(3.0, 2.5, size=(50, 4)),
            rng.normal(size=(50, 2)),
            DatasetKind.REGRESSION,
        )
        test = Dataset(
            rng.normal(3.0, 2.5, size=(20, 4)),
            rng.normal(size=(20, 2)),
            DatasetKind.REGRESSION,
        )
        strain, stest = standardize_inputs(train, test)
        np.testing.assert_allclose(strain.inputs.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(strain.inputs.std(axis=0), 1.0, atol=1e-12)
        # test transformed with train statistics, not its own
        expect = (test.inputs - train.inputs.mean(axis=0)) / train.inputs.std(axis=0)
        np.testing.assert_allclose(stest.inputs, expect)

    def test_constant_feature_survives(self):
        train = Dataset(
            np.column_stack([np.ones(10), np.arange(10.0)]),
            np.arange(10.0)[:, None],
            DatasetKind.REGRESSION,
        )
        strain, _ = standardize_inputs(train, train)
        assert np.isfinite(strain.inputs).all()

    def test_splits_of_different_widths_rejected(self):
        train = Dataset(np.ones((10, 3)), np.ones((10, 2)), DatasetKind.REGRESSION)
        test = Dataset(np.ones((10, 4)), np.ones((10, 2)), DatasetKind.REGRESSION)
        with pytest.raises(DimensionMismatch, match="train has 3 input columns, test 4"):
            standardize_inputs(train, test)
