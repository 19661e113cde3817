"""Span tracer that wraps adareg's public functions from outside the package.

Several adareg modules import names from each other directly (``from
.spectral import eigh``), so replacing a module attribute is not enough: a
:class:`Patches` rebinds every module-level reference to a wrapped object
across all loaded ``adareg`` modules, and restores each one afterwards.

Spans are kept in memory as ``[name, start, end, parent, size, child_s]``
lists; a span's self time is its duration minus the time its direct child
spans cover.  ``size`` is a per-call work measure: rows passed to
``net.forward``, rows scored by ``optimizer.evaluate``, and the matrix
order of ``spectral.eigh``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

# (module, function, span name, size of the call's work or None)
FUNCTIONS = (
    ("data", "load_idx", "data.load", None),
    ("data", "load_csv_regression", "data.load", None),
    ("data", "synth_multitask", "data.load", None),
    ("data", "standardize_inputs", "data.load", None),
    ("data", "subsample", "data.subsample", None),
    ("net", "forward", "net.forward", lambda a, k: np.shape(a[1])[0]),
    ("net", "backward", "net.backward", None),
    ("net", "sgd_step", "net.sgd_step", None),
    ("optimizer", "run_adareg", "optimizer.run_adareg", None),
    ("optimizer", "train_block", "optimizer.train_block", None),
    ("optimizer", "update_precisions", "optimizer.update_precisions", None),
    ("optimizer", "evaluate", "optimizer.evaluate", lambda a, k: a[1].n),
    ("optimizer", "predict", "optimizer.predict", None),
    ("prior", "regularizer_value", "prior.regularizer_value", None),
    ("prior", "regularizer_grad", "prior.regularizer_grad", None),
    ("spectral", "eigh", "spectral.eigh", lambda a, k: np.shape(getattr(a[0], "entries", a[0]))[0]),
    ("spectral", "inv_threshold", "spectral.inv_threshold", None),
    ("diagnostics", "correlation_matrix", "diagnostics.correlation_matrix", None),
    ("diagnostics", "explained_variance", "diagnostics.explained_variance", None),
    ("cli", "run_experiment", "cli.run_experiment", None),
    ("cli", "summarize", "cli.summarize", None),
    ("cli", "export_correlation", "cli.export_correlation", None),
)
# Generators: each next() call is one span; the creating call is not timed.
GENERATORS = (("data", "batches", "data.batches"),)
# (module, class, attribute, span name); __post_init__ times construction.
METHODS = (
    ("net", "Network", "init", "net.Network.init"),
    ("prior", "PrecisionPair", "__post_init__", "prior.PrecisionPair"),
    ("prior", "PrecisionPair", "to_prior", "prior.to_prior"),
    ("prior", "MatrixNormalPrior", "__post_init__", "prior.MatrixNormalPrior"),
    ("diagnostics", "SpectrumReport", "of", "diagnostics.SpectrumReport"),
)

EXCLUDED = "bench.check"
_DONE = object()
MODULES = ("cli", "data", "diagnostics", "net", "optimizer", "prior", "spectral")


def import_modules() -> dict:
    return {name: importlib.import_module(f"adareg.{name}") for name in MODULES}


def adareg_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "adareg" or name.startswith("adareg."))
    ]


class Patches:
    """Replaces objects in adareg modules and classes, and undoes it."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def rebind(self, original, replacement) -> None:
        """Point every module-level name bound to ``original`` at
        ``replacement``."""
        for module in adareg_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def set_class_attr(self, cls, attr: str, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """Records nested spans around adareg calls while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.paused = False
        self.missing: list[str] = []
        self.items: dict[str, int] = {}  # generator name -> items yielded
        # span name -> the plain function whose calls it times
        self.targets: dict[str, list] = {}
        self._patches = Patches()

    # -- recording -------------------------------------------------------
    def _open(self, name: str, size) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, size, 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    @contextmanager
    def excluded(self):
        """Run bench-side checks: recorded as one span, nothing inside is."""
        index = self._open(EXCLUDED, None)
        self.paused = True
        try:
            yield
        finally:
            self.paused = False
            self._close(index)

    def excluded_seconds(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == EXCLUDED)

    # -- wrappers --------------------------------------------------------
    def _timed(self, fn, name: str, size_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = self._open(name, size_of(args, kwargs) if size_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def _timed_generator(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                if self.paused:
                    item = next(inner, _DONE)
                else:
                    index = self._open(name, None)
                    try:
                        item = next(inner, _DONE)
                    finally:
                        self._close(index)
                if item is _DONE:
                    return
                if not self.paused:
                    self.items[name] = self.items.get(name, 0) + 1
                yield item

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self, modules: dict) -> None:
        """Wrap every target; ``modules`` maps short names to modules."""
        for mod, attr, name, size_of in FUNCTIONS:
            self._wrap_function(modules[mod], attr, name, self._timed, size_of)
        for mod, attr, name in GENERATORS:
            self._wrap_function(modules[mod], attr, name, self._timed_generator)
        for mod, cls_name, attr, name in METHODS:
            cls = getattr(modules[mod], cls_name, None)
            if cls is None or attr not in cls.__dict__:
                self.missing.append(name)
                continue
            raw = cls.__dict__[attr]
            fn = getattr(raw, "__func__", raw)  # the function under a classmethod
            wrapped = self._timed(fn, name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._patches.set_class_attr(cls, attr, wrapped)
            self.targets.setdefault(name, []).append(fn)

    def _wrap_function(self, module, attr, name, make, *extra) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{name} ({attr})")
            return
        self._patches.rebind(original, make(original, name, *extra))
        self.targets.setdefault(name, []).append(original)

    def uninstall(self) -> None:
        self._patches.restore()

    # -- results ---------------------------------------------------------
    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, summed size and
        summed size cubed."""
        out: dict[str, dict] = {}
        for name, start, end, _parent, size, child_s in self.spans:
            entry = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0, "size3": 0}
            )
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_s
            if size is not None:
                entry["size"] += int(size)
                entry["size3"] += int(size) ** 3
        return out

    def size_under(self, name: str, ancestor: str) -> int:
        """Summed size of ``name`` spans that have an ``ancestor`` span."""
        total = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent >= 0:
                total += span[4]
        return total

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, size, _ in self.spans:
                f.write(json.dumps([name, start, end, parent, size]) + "\n")


class BcdChecker:
    """Checks the paper's precision-step invariants during a traced sweep.

    Around every ``update_precisions`` call it evaluates the public
    ``full_objective`` before and after (the objective must not rise) and
    the eigenvalues of both new precisions with LAPACK (each must lie in
    [u, v]).  The check time is recorded as an excluded span, so it counts
    toward no layer's self time.
    """

    # Relative slack on the objective; the step is an exact minimizer, so
    # only roundoff may show as a rise.
    OBJECTIVE_RTOL = 1e-10
    # Absolute slack on precision eigenvalues, as in prior.SPECTRUM_SLACK.
    SPECTRUM_SLACK = 1e-8

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.refreshes = 0
        self.objective_rises = 0
        self.spectrum_violations = 0
        self._dataset = None
        self._patches = Patches()

    def install(self, optimizer) -> None:
        run_adareg = optimizer.run_adareg
        update = optimizer.update_precisions
        full_objective = optimizer.full_objective

        @functools.wraps(run_adareg)
        def checked_run(network, schedule, dataset, *args, **kwargs):
            self._dataset = dataset
            return run_adareg(network, schedule, dataset, *args, **kwargs)

        @functools.wraps(update)
        def checked_update(state):
            with self.tracer.excluded():
                before = full_objective(state, self._dataset)
            new = update(state)
            with self.tracer.excluded():
                after = full_objective(new, self._dataset)
                self.refreshes += 1
                if after > before + self.OBJECTIVE_RTOL * max(1.0, abs(before)):
                    self.objective_rises += 1
                bounds = new.precisions.bounds
                for omega in (new.precisions.omega_r, new.precisions.omega_c):
                    vals = np.linalg.eigvalsh(omega.entries)
                    self.spectrum_violations += int(
                        np.sum(
                            (vals < bounds.u - self.SPECTRUM_SLACK)
                            | (vals > bounds.v + self.SPECTRUM_SLACK)
                        )
                    )
            return new

        self._patches.rebind(run_adareg, checked_run)
        self._patches.rebind(update, checked_update)

    def uninstall(self) -> None:
        self._patches.restore()
