"""Benchmark of the psc package, driven from outside it.

    python3 perfbench/run.py --workload cv-psc --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with the package unmodified.
``--trace 1`` alternates untraced and traced units of the same work and
reports the per-layer metrics of the traced units (see ``tracing.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics, reported on every workload. The timings are taken over
the fastest quarter of a run's units (see ``fastest``):

* ``setup_s``: the median of five set-ups, each importing psc in a fresh
  interpreter and building the inputs (simulating the data; for the cv
  workloads also writing the CSV).
* ``cv_repeat_s``: wall time of one repeat. On the cv workloads that is a
  ``psc.cli.main(["cv", ...])`` call of one repeat, CSV load and JSON writes
  included; on fit-wide it is one pass fitting each training set once.
* ``fit_ms_p50``, ``fit_ms_p90``: on fit-wide the median and 90th-percentile
  latency of one ``fit_psc`` call, over at least 100 calls. On the cv
  workloads they are the same percentiles of a call's wall time divided by
  the number of fits its grid search makes with psc's default folds and
  grid (605 for psc, 125 for cssvm; see ``fits_per_repeat``).
* ``bccr``: the pooled BCCR from ``summary.json`` (cv), or the mean held-out
  BCCR of the fitted models on a fixed test set (fit-wide). Deterministic for
  a seed, so any movement is a change in results.
* ``peak_rss_mb``: ``ru_maxrss`` of this process.

Failures (outer folds written with an ``error`` entry, a crashed cv call,
a fit that raises, does not converge or returns a non-finite direction) are
counted in ``attempted``/``failed``; ``error_share`` is reported per layer.
``correct`` is false when an output check fails: a summary that does not
follow from its folds, identical work giving different results within a run
or across runs of the same seed on the same code, or a traced run in which a
layer was called on a workload that must bypass it (or the reverse).

The BLAS thread settings (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``) are
left as the caller set them, or unset, and are recorded in the ``environment``
line, so the figures describe the program as its users run it.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUPS = 5
FASTEST_SHARE = 0.25
WORKLOADS = ("cv-psc", "cv-cssvm", "fit-wide")
# layers each workload must call, and layers it must bypass
CALLED = {
    "cv-psc": {"dataset", "scatter", "smw", "qp", "intercept", "metrics", "classifier",
               "crossval", "cli"},
    "cv-cssvm": {"dataset", "qp", "metrics", "classifier", "crossval", "cli"},
    "fit-wide": {"dataset", "scatter", "smw", "qp", "intercept", "classifier"},
}
BYPASSED = {
    "cv-psc": set(),
    "cv-cssvm": {"scatter", "smw"},
    "fit-wide": {"crossval", "metrics", "cli"},
}
# counts that repeat exactly for a seed on a CPU run
EXACT = ("qp.smo_iterations", "smw.lambda_cap_calls", "classifier.fit_calls",
         "crossval.cells_attempted")
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
IMPORT_PSC = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
              "import psc; print(time.perf_counter() - t)")


def import_psc():
    """Import psc from this checkout's ``src/``, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "psc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no psc sources in {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import psc

    if Path(psc.__file__).resolve().parent != (src / "psc").resolve():
        sys.exit(f"perfbench: psc was imported from {psc.__file__}, not from {src}")
    return psc


def import_seconds() -> float:
    """Time ``import psc`` in a fresh interpreter, as a user's process pays it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PSC, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def fits_per_repeat(name: str) -> int:
    """Fits one repeat of a cv workload makes with psc's default folds and
    grid: per outer fold, every grid cell on every inner fold plus the refit.
    cssvm searches c0 only. Traced runs check the count against the calls."""
    import psc

    config = psc.ExperimentConfig(method=name.split("-", 1)[1])
    cells = len(config.c0_grid) * (1 if config.method == "cssvm" else len(config.gamma_grid))
    return config.outer_folds * (cells * config.inner_folds + 1)


def make_workload(name: str, seed: int, workdir: Path):
    import workloads

    if name == "fit-wide":
        return workloads.FitWorkload(seed)
    return workloads.CvWorkload(name.split("-", 1)[1], seed, workdir)


def measure(work, seconds: float, min_units: int, tracer=None):
    """Run units until the next one would end past ``seconds``.

    Returns the untraced units and the traced (unit, spans) pairs. Without a
    tracer every unit is untraced; with one, units alternate untraced and
    traced, starting untraced.
    """
    import tracing

    untraced, traced, walls = [], [], []
    t0 = time.perf_counter()
    while True:
        if tracer is not None and len(walls) % 2 == 1:
            tracer.reset()
            with tracing.installed(tracer):
                unit = work.unit()
            traced.append((unit, tracer.spans))
        else:
            unit = work.unit()
            untraced.append(unit)
        walls.append(unit.wall_s)
        elapsed = time.perf_counter() - t0
        if len(walls) >= min_units and elapsed + statistics.median(walls) > seconds:
            return untraced, traced


def fastest(items, wall=lambda unit: unit.wall_s):
    """The fastest quarter of the units, at least one.

    On a shared 2-core host, neighbours slow this process's CPU by up to
    1.7x in phases of seconds to minutes, and a run's median follows how much
    of the run such phases cover. The fastest units are those that met a
    quiet phase. A run that meets none still reads slow, and the host's speed
    also drifts over minutes, which no choice within a run removes;
    ``baseline.json`` records the spread over ten seeds.
    """
    return sorted(items, key=wall)[:max(1, math.ceil(len(items) * FASTEST_SHARE))]


def end_to_end(name, units, setup_s):
    import numpy as np

    quick = fastest(units)
    if name == "fit-wide":
        fit_ms = [ms for u in quick for ms in u.fit_ms]
    else:
        fit_ms = [1e3 * u.wall_s / fits_per_repeat(name) for u in quick]
    print(f"{name}: fit_ms percentiles over {len(fit_ms)} samples from {len(quick)} of {len(units)} units;"
          f" unit walls {' '.join(f'{u.wall_s:.3g}' for u in units)}")
    return {
        "setup_s": (setup_s, "s"),
        "cv_repeat_s": (statistics.median(u.wall_s for u in quick), "s"),
        "fit_ms_p50": (float(np.percentile(fit_ms, 50)), "ms"),
        "fit_ms_p90": (float(np.percentile(fit_ms, 90)), "ms"),
        "bccr": (first_bccr(units), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def first_bccr(units) -> float:
    """The bccr of the first unit that produced one; 0 when none did."""
    return next((u.bccr for u in units if math.isfinite(u.bccr)), 0.0)


def per_layer(name, untraced, traced, problems):
    import tracing

    rows = [tracing.layer_metrics(spans, unit.wall_s) for unit, spans in traced]
    for row in rows[1:]:
        for key in EXACT:
            if row[key] != rows[0][key]:
                problems.append(f"{key} differs between traced units: {row[key]} != {rows[0][key]}")
    calls = tracing.layer_calls(traced[0][1])
    for layer in sorted(CALLED[name]):
        if calls[layer] == 0:
            problems.append(f"layer {layer} was never called on {name}; a wrapper missed it")
    for layer in sorted(BYPASSED[name]):
        if calls[layer] != 0:
            problems.append(f"layer {layer} was called {calls[layer]} times on {name}")
    if name != "fit-wide" and rows[0]["classifier.fit_calls"] != fits_per_repeat(name):
        problems.append(f"a repeat made {rows[0]['classifier.fit_calls']} fits, "
                        f"not the {fits_per_repeat(name)} that fit_ms_p50/p90 divide by")
    quick = fastest(list(zip(rows, traced)), wall=lambda pair: pair[1][0].wall_s)
    metrics = {key: statistics.median(row[key] for row, _ in quick) for key in rows[0]}
    # each traced unit against the untraced one just before it, so that both
    # sides of a difference meet the same phase of the host's speed
    metrics["trace_overhead_s"] = statistics.median(
        unit.wall_s - plain.wall_s for plain, (unit, _) in zip(untraced, traced))
    return metrics


def code_digest() -> str:
    digest = hashlib.sha256()
    for base, pattern in ((ROOT / "src", "**/*.py"), (BENCH, "*.py")):
        for path in sorted(base.glob(pattern)):
            digest.update(path.relative_to(base).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_against_earlier_runs(name, seed, exact, problems):
    """Compare the exact figures with earlier runs of this seed on this code."""
    state = ROOT / ".perfbench_state" / f"{name}-seed{seed}-{code_digest()}.json"
    earlier = json.loads(state.read_text()) if state.is_file() else {}
    for key, value in exact.items():
        if key in earlier and earlier[key] != value:
            problems.append(f"{key} is {value}, an earlier run of seed {seed} gave {earlier[key]}")
    state.parent.mkdir(exist_ok=True)
    state.write_text(json.dumps({**earlier, **exact}, sort_keys=True))


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        import numba  # noqa: F401

        have_numba = True
    except ImportError:
        have_numba = False
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else None
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "nproc": os.cpu_count(),
        "numba_importable": have_numba,
        "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_psc()
    import tracing
    import workloads

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUPS):
            import_s = import_seconds()
            t0 = time.perf_counter()
            work = make_workload(args.workload, args.seed, workdir)
            work.setup()
            setups.append(import_s + time.perf_counter() - t0)
        setup_s = statistics.median(setups)

        problems = []
        # fit-wide's fastest passes must hold at least 100 fits; elsewhere two
        # units give the traced run one untraced unit to compare with
        min_units = (math.ceil(100 / workloads.FIT_TRAINING_SETS / FASTEST_SHARE)
                     if args.workload == "fit-wide" else 2)
        tracer = tracing.Tracer() if args.trace else None
        try:
            untraced, traced = measure(work, args.seconds, min_units, tracer)
        except workloads.CheckFailed as exc:
            problems.append(str(exc))
            untraced, traced = [], []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    units = untraced + [unit for unit, _ in traced]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    metrics = {}
    if units:
        if args.trace:
            values = per_layer(args.workload, untraced, traced, problems)
            values["error_share"] = failed / attempted
            metrics = {key: (values[key], unit) for key, unit in tracing.PER_LAYER_UNITS.items()}
            exact = {key: values[key] for key in EXACT}
        else:
            metrics = end_to_end(args.workload, untraced, setup_s)
            exact = {}
        exact["bccr"] = first_bccr(units)
        if any(math.isfinite(u.bccr) and u.bccr != exact["bccr"] for u in units):
            problems.append("bccr differs between units of the same run")
        check_against_earlier_runs(args.workload, args.seed, exact, problems)

    print("environment " + json.dumps(environment(), sort_keys=True))
    for key, (value, unit) in metrics.items():
        print(f"{args.workload:9s} {key:30s} {value:14.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems and bool(units)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
