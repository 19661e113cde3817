"""adareg benchmark: whole sweeps end to end, or one traced sweep per layer.

    python3 perfbench/run.py --workload digit_sweep --seed 0 --seconds 56 --trace 0

Closed loop with one client: every timed sweep is a fresh process running
``adareg.cli.run_experiment`` with ``jobs=1``, then ``summarize`` and
``export_correlation --layer 1`` over its run directory.  Repeats run until
``--seconds`` would be exceeded (at least one); metrics are medians over
repeats.  ``--trace 1`` alternates untraced and traced sweeps and reports
per-layer metrics instead.  Every run checks each cell against
``reference.json`` and the run directory digest across repeats; see
README.md for the metrics and the correctness gate.  Prints one metric per
line, then one JSON object as the last line.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

# Setup is short and noisy: repeat it at least this often and this long.
SETUP_MIN = 5
SETUP_SECONDS = 3.0
# Every run must end within 180 s; a child that would push past this is killed.
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer metric -> (unit, span name, field of the tracer summary)
SPAN_METRICS = {
    "data.load.self_s": ("s", "data.load", "self_s"),
    "data.subsample.self_s": ("s", "data.subsample", "self_s"),
    "data.batches.self_s": ("s", "data.batches", "self_s"),
    "net.Network.init.self_s": ("s", "net.Network.init", "self_s"),
    "net.forward.calls": ("count", "net.forward", "calls"),
    "net.forward.self_s": ("s", "net.forward", "self_s"),
    "net.backward.calls": ("count", "net.backward", "calls"),
    "net.backward.self_s": ("s", "net.backward", "self_s"),
    "net.sgd_step.self_s": ("s", "net.sgd_step", "self_s"),
    "optimizer.run_adareg.self_s": ("s", "optimizer.run_adareg", "self_s"),
    "optimizer.evaluate.calls": ("count", "optimizer.evaluate", "calls"),
    "optimizer.evaluate.self_s": ("s", "optimizer.evaluate", "self_s"),
    "optimizer.train_block.self_s": ("s", "optimizer.train_block", "self_s"),
    "optimizer.update_precisions.self_s": ("s", "optimizer.update_precisions", "self_s"),
    "optimizer.predict.calls": ("count", "optimizer.predict", "calls"),
    "spectral.eigh.calls": ("count", "spectral.eigh", "calls"),
    "spectral.eigh.n3": ("count", "spectral.eigh", "size3"),
    "spectral.eigh.self_s": ("s", "spectral.eigh", "self_s"),
    "spectral.inv_threshold.calls": ("count", "spectral.inv_threshold", "calls"),
    "spectral.inv_threshold.self_s": ("s", "spectral.inv_threshold", "self_s"),
    "prior.PrecisionPair.calls": ("count", "prior.PrecisionPair", "calls"),
    "prior.PrecisionPair.self_s": ("s", "prior.PrecisionPair", "self_s"),
    "prior.to_prior.self_s": ("s", "prior.to_prior", "self_s"),
    "prior.regularizer_grad.self_s": ("s", "prior.regularizer_grad", "self_s"),
    "prior.regularizer_value.self_s": ("s", "prior.regularizer_value", "self_s"),
    "diagnostics.SpectrumReport.self_s": ("s", "diagnostics.SpectrumReport", "self_s"),
    "diagnostics.correlation_matrix.self_s": ("s", "diagnostics.correlation_matrix", "self_s"),
    "diagnostics.explained_variance.calls": ("count", "diagnostics.explained_variance", "calls"),
    "cli.run_experiment.self_s": ("s", "cli.run_experiment", "self_s"),
    "cli.summarize.self_s": ("s", "cli.summarize", "self_s"),
    "cli.export_correlation.self_s": ("s", "cli.export_correlation", "self_s"),
}
DERIVED_UNITS = {
    "data.batches.items": "count",
    "net.forward.per_evaluate": "ratio",
    "spectral.eigh.per_solve": "ratio",
    "cli.bytes_written": "bytes",
    "bcd.refreshes": "count",
    "bcd.objective_rises": "count",
    "bcd.spectrum_violations": "count",
    "trace.sweep_s": "s",
}
# Taken from the untraced sweeps of a traced run.
UNTRACED_UNITS = {"readback_s": "s", "trace.overhead_s": "s"}
PER_LAYER = {name: unit for name, (unit, _, _) in SPAN_METRICS.items()}
PER_LAYER.update(DERIVED_UNITS)
PER_LAYER.update(UNTRACED_UNITS)


class BenchError(Exception):
    pass


def machine() -> dict:
    """Hardware, interpreter, numpy and BLAS facts for the result record."""
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _openblas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Runner:
    def __init__(self, workload: str, k: int, started: float):
        self.workload = workload
        self.k = k
        self.started = started
        self.dir = WORK / workload
        self.calls = 0

    def child(self, mode: str, *extra: str) -> dict:
        self.calls += 1
        out = self.dir / f"child{self.calls}.json"
        log = self.dir / f"child{self.calls}.log"
        budget = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        if budget <= 0:
            raise BenchError("out of time before starting a child process")
        with open(log, "w") as err:
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "worker.py"), mode,
                     self.workload, str(self.k), str(out), *extra],
                    cwd=self.dir, stdout=err, stderr=err, timeout=budget,
                )
            except subprocess.TimeoutExpired:
                raise BenchError(f"{mode} child overran the run deadline") from None
        if proc.returncode != 0:
            tail = log.read_text()[-2000:]
            raise BenchError(f"{mode} child exited {proc.returncode}:\n{tail}")
        with open(out) as f:
            result = json.load(f)
        out.unlink()
        log.unlink()
        return result


def run_setups(runner: Runner, problems: list, repeats=1, seconds=0.0) -> list[dict]:
    begun = time.perf_counter()
    setups = []
    while len(setups) < repeats or time.perf_counter() - begun < seconds:
        setups.append(runner.child("setup"))
    if len({s["inputs_sha256"] for s in setups}) != 1:
        problems.append("setup wrote different inputs for the same seed")
    return setups


def check_sweep(wl, k: int, rep: dict, problems: list, label: str) -> None:
    if rep["error"]:
        problems.append(f"{label}: {rep['error']}")
    if rep["attempted"] != rep["expected_cells"] or rep["failed"]:
        problems.append(
            f"{label}: {rep['attempted']} of {rep['expected_cells']} cells "
            f"attempted, {rep['failed']} failed"
        )
    problems.extend(f"{label}: {p}" for p in workloads.check_cells(wl, k, rep["cells"]))


def timed_loop(seconds: float, step) -> list:
    """Call ``step`` until another call would pass ``seconds`` (at least once)."""
    begun = time.perf_counter()
    results, longest = [], 0.0
    while not results or time.perf_counter() - begun + longest <= seconds:
        t = time.perf_counter()
        results.append(step())
        longest = max(longest, time.perf_counter() - t)
    return results


def end_to_end(runner: Runner, wl, seconds: float, problems: list) -> tuple[dict, dict]:
    setups = run_setups(runner, problems, SETUP_MIN, SETUP_SECONDS)
    reps = timed_loop(seconds, lambda: runner.child("sweep"))
    for i, rep in enumerate(reps):
        check_sweep(wl, runner.k, rep, problems, f"repeat {i}")
    digests = sorted({rep["run_dir_sha256"] for rep in reps})
    if len(digests) != 1:
        problems.append(f"run directories differ between repeats: {digests}")
    metrics = {
        "setup_s": median([s["setup_s"] for s in setups]),
        "sweep_s": median([r["sweep_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }
    info = {
        "repeats": len(reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "run_dir_sha256": digests[0],
        "samples": {
            "setup_s": [s["setup_s"] for s in setups],
            "sweep_s": [r["sweep_s"] for r in reps],
            "readback_s": [r["readback_s"] for r in reps],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        },
    }
    return metrics, info


def per_layer(runner: Runner, wl, seconds: float, problems: list) -> tuple[dict, dict]:
    run_setups(runner, problems)
    selftest = runner.child("selftest")["problems"]
    problems.extend(f"tracer self-test: {p}" for p in selftest)
    pairs = timed_loop(
        seconds, lambda: (runner.child("sweep"), runner.child("sweep", "--trace"))
    )
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    for i, (a, b) in enumerate(pairs):
        check_sweep(wl, runner.k, a, problems, f"untraced repeat {i}")
        check_sweep(wl, runner.k, b, problems, f"traced repeat {i}")
    digests = sorted({r["run_dir_sha256"] for r in plain + traced})
    if len(digests) != 1:
        problems.append(f"traced and untraced run directories differ: {digests}")

    samples = [_layer_values(r) for r in traced]
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in UNTRACED_UNITS:
            continue
        values = [s[name] for s in samples]
        if unit == "s":
            metrics[name] = median(values)
        else:
            metrics[name] = values[0]
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced repeats: {values}")
    metrics["readback_s"] = median([r["readback_s"] or 0.0 for r in plain])
    metrics["trace.overhead_s"] = metrics["trace.sweep_s"] - median(
        [r["sweep_s"] for r in plain]
    )
    for name in ("bcd.objective_rises", "bcd.spectrum_violations"):
        if metrics[name] != 0:
            problems.append(f"{name} = {metrics[name]}")
    info = {
        "repeats": len(pairs),
        "attempted": sum(r["attempted"] for r in plain + traced),
        "failed": sum(r["failed"] for r in plain + traced),
        "run_dir_sha256": digests[0],
        "missing_targets": traced[0]["trace"]["missing_targets"],
        "samples": {"untraced_sweep_s": [r["sweep_s"] for r in plain]},
    }
    return metrics, info


def _layer_values(rep: dict) -> dict:
    trace = rep["trace"]
    summary = trace["summary"]

    def field(span: str, key: str):
        return summary.get(span, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {name: field(span, key) for name, (_, span, key) in SPAN_METRICS.items()}
    values.update(
        {
            "data.batches.items": trace["items"].get("data.batches", 0),
            "net.forward.per_evaluate": ratio(
                trace["forward_rows_under_evaluate"], field("optimizer.evaluate", "size")
            ),
            "spectral.eigh.per_solve": ratio(
                field("spectral.eigh", "calls"), field("spectral.inv_threshold", "calls")
            ),
            "cli.bytes_written": rep["bytes_written"],
            "bcd.refreshes": trace["bcd"]["refreshes"],
            "bcd.objective_rises": trace["bcd"]["objective_rises"],
            "bcd.spectrum_violations": trace["bcd"]["spectrum_violations"],
            "trace.sweep_s": trace["sweep_s"],
        }
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "adareg" / "__init__.py").is_file():
        print(f"error: no adareg package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    k = args.seed % workloads.POOL_SIZE
    runner = Runner(args.workload, k, started)
    if runner.dir.exists():
        shutil.rmtree(runner.dir)
    runner.dir.mkdir(parents=True)

    problems: list[str] = []
    try:
        if args.trace:
            metrics, info = per_layer(runner, wl, args.seconds, problems)
            units = PER_LAYER
        else:
            metrics, info = end_to_end(runner, wl, args.seconds, problems)
            units = END_TO_END
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "pool_index": k,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine(),
        "problems": problems,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
        **info,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=2)

    m = record["machine"]
    print(
        f"# {args.workload} seed {args.seed} (pool index {k}), {info['repeats']} "
        f"repeat(s) in {time.perf_counter() - started:.1f} s; "
        f"{m['nproc']} CPUs ({m['cpu_model']}), Python {m['python']}, numpy "
        f"{m['numpy']}, {m['blas_name']} {m['blas_version']} with "
        f"{m['blas_threads']} threads (OPENBLAS_NUM_THREADS={m['OPENBLAS_NUM_THREADS']}, "
        f"OMP_NUM_THREADS={m['OMP_NUM_THREADS']})"
    )
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(f"cells attempted {info['attempted']}, failed {info['failed']}")
    print(f"run_dir_sha256 {info['run_dir_sha256']}")
    for p in problems:
        print(f"FAIL {p}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": info["attempted"],
                "failed": info["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
