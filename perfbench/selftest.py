"""Self-test of the tracer on a tiny sweep.

Checks that, while the tracer is installed, no adareg module still binds an
unwrapped target; that each span's call count equals cProfile's independent
ncalls for the wrapped function; that every target ran; and that
uninstalling restores every module and class binding.  Run it alone with

    python3 perfbench/selftest.py

(the traced benchmark run, ``--trace 1``, also runs it).
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import tracer as tracer_mod  # noqa: E402

# The byte-determinism acceptance config with all six methods.
TINY = {
    "dataset": {
        "kind": "synthetic_multitask",
        "n_train": 64,
        "n_test": 32,
        "input_dim": 5,
        "num_tasks": 3,
        "task_correlation": 0.4,
        "noise_std": 0.3,
        "seed": 11,
    },
    "architecture": {"layer_sizes": [5, 8, 3]},
    "methods": [
        "none",
        "weight_decay",
        "dropout",
        "adareg",
        "adareg+weight_decay",
        "adareg+dropout",
    ],
    "schedule": {
        "outer_loops": 2,
        "epochs_per_block": 2,
        "batch_size": 16,
        "learning_rate": 0.1,
    },
    "weight_decay": 1e-3,
    "dropout_rate": 0.25,
    "seeds": [0],
    "output_dir": "unused",
}


def _bindings() -> dict:
    """Every module global and class attribute defined in adareg."""
    out = {}
    for module in tracer_mod.adareg_modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for cls_attr, cls_value in vars(value).items():
                    out[(module.__name__, attr, cls_attr)] = cls_value
    return out


def _code_key(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def run(directory: Path) -> list[str]:
    """Returns one message per failed check; empty means the tracer is sound."""
    modules = tracer_mod.import_modules()
    cli = modules["cli"]
    config = cli.ExperimentConfig.from_dict(TINY)
    before = _bindings()
    problems = []

    tracer = tracer_mod.Tracer()
    tracer.install(modules)
    problems += [f"target missing: {name}" for name in tracer.missing]
    originals = {id(fn) for fns in tracer.targets.values() for fn in fns}
    for module in tracer_mod.adareg_modules():
        for attr, value in vars(module).items():
            if id(value) in originals:
                problems.append(f"{module.__name__}.{attr} is not wrapped")
    profile = cProfile.Profile()
    profile.enable()
    try:
        cli.run_experiment(config, output_override=str(directory / "run"))
        cli.summarize(directory / "run")
        cli.export_correlation(directory / "run", 1)
    finally:
        profile.disable()
        tracer.uninstall()

    ncalls = {key: row[1] for key, row in pstats.Stats(profile).stats.items()}
    summary = tracer.summary()
    for name, fns in sorted(tracer.targets.items()):
        expected = sum(ncalls.get(_code_key(fn), 0) for fn in fns)
        got = summary.get(name, {}).get("calls", 0)
        if got != expected:
            problems.append(f"{name}: tracer counted {got} calls, cProfile {expected}")
        elif got == 0:
            problems.append(f"{name}: not exercised by the self-test sweep")

    after = _bindings()
    for key in sorted(set(before) | set(after), key=str):
        if before.get(key) is not after.get(key):
            problems.append(f"{'.'.join(key)} not restored")
    return problems


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as tmp:
        found = run(Path(tmp))
    for line in found:
        print(line)
    print("selftest:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
