"""One fresh benchmark process: set up inputs, run one sweep, or self-test.

    python3 perfbench/worker.py setup    WORKLOAD POOL_INDEX OUT.json
    python3 perfbench/worker.py sweep    WORKLOAD POOL_INDEX OUT.json [--trace]
    python3 perfbench/worker.py selftest WORKLOAD POOL_INDEX OUT.json

Runs in the workload's work directory (``.perfbench/<workload>``), which
holds ``inputs/`` (written by ``setup``) and ``run/`` (the sweep's run
directory).  Each mode writes its measurements to OUT.json.
"""

import time

STARTED = time.perf_counter()  # setup_s counts the adareg import

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

INPUTS = Path("inputs")
RUN = Path("run")
# Read-back is a few milliseconds on small sweeps; repeat it until it has
# run this long (and at least READBACK_MIN times) and keep the median.
READBACK_MIN = 5
READBACK_SECONDS = 0.3


def tree_digest(directory: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(directory).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def setup(workload_name: str, k: int) -> dict:
    from adareg.cli import ExperimentConfig

    import workloads

    config_path = workloads.write_inputs(workloads.WORKLOADS[workload_name], k, INPUTS)
    ExperimentConfig.from_file(config_path)
    return {
        "setup_s": time.perf_counter() - STARTED,
        "inputs_sha256": tree_digest(INPUTS),
    }


def _cells(run_dir: Path) -> dict:
    cells = {}
    for path in sorted(run_dir.glob("*_summary.json")):
        with open(path) as f:
            s = json.load(f)
        cells[path.name[: -len("_summary.json")]] = [
            s["final_test_metric"],
            s["final_test_loss"],
        ]
    return cells


def _readback(cli, traced: bool) -> float:
    times = []
    begun = time.perf_counter()
    while True:
        t = time.perf_counter()
        cli.summarize(RUN)
        cli.export_correlation(RUN, 1)
        times.append(time.perf_counter() - t)
        if traced or (
            len(times) >= READBACK_MIN
            and time.perf_counter() - begun >= READBACK_SECONDS
        ):
            break
    times.sort()
    return times[len(times) // 2]


def sweep(workload_name: str, k: int, traced: bool) -> dict:
    from adareg import cli
    from adareg.errors import AdaRegError

    import tracer as tracer_mod

    os.environ["ADAREG_DATA_DIR"] = str(INPUTS.resolve())
    if RUN.exists():
        shutil.rmtree(RUN)
    config = cli.ExperimentConfig.from_file(INPUTS / "config.json")
    expected_cells = (
        len(config.methods) * len(config.training_sizes) * len(config.seeds)
    )

    if traced:
        modules = tracer_mod.import_modules()
        tracer = tracer_mod.Tracer()
        checker = tracer_mod.BcdChecker(tracer)
        tracer.install(modules)
        checker.install(modules["optimizer"])
    error = None
    started = time.perf_counter()
    try:
        cli.run_experiment(config, jobs=1, output_override=str(RUN))
    except AdaRegError as e:
        error = f"{type(e).__name__}: {e}"
    sweep_s = time.perf_counter() - started
    bytes_written = tree_bytes(RUN)
    cells = _cells(RUN)
    readback_s = _readback(cli, traced) if error is None else None
    out = {
        "sweep_s": sweep_s,
        "readback_s": readback_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_written": bytes_written,
        "cells": cells,
        "expected_cells": expected_cells,
        "attempted": len(cells) + (error is not None),
        "failed": int(error is not None),
        "error": error,
        "run_dir_sha256": tree_digest(RUN),
    }
    if traced:
        checker.uninstall()
        tracer.uninstall()
        out["trace"] = {
            "sweep_s": sweep_s - tracer.excluded_seconds(),
            "summary": tracer.summary(),
            "items": tracer.items,
            "forward_rows_under_evaluate": tracer.size_under(
                "net.forward", "optimizer.evaluate"
            ),
            "bcd": {
                "refreshes": checker.refreshes,
                "objective_rises": checker.objective_rises,
                "spectrum_violations": checker.spectrum_violations,
            },
            "missing_targets": tracer.missing,
        }
        tracer.write_spans("spans.jsonl")
    return out


def main(argv: list[str]) -> int:
    mode, workload_name, k, out_path = argv[:4]
    k = int(k)
    if mode == "setup":
        result = setup(workload_name, k)
    elif mode == "sweep":
        result = sweep(workload_name, k, traced="--trace" in argv[4:])
    elif mode == "selftest":
        import selftest

        result = {"problems": selftest.run(Path("selftest"))}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(out_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
