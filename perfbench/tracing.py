"""In-memory span tracer for the psc layers, installed from outside the package.

Each public function is wrapped at the module attribute its caller looks up,
not where it is defined: ``psc.classifier.build_factor`` rather than
``psc.scatter.build_factor``, because ``classifier`` imported the name. The
wrappers are removed again when the ``installed`` block ends, so untraced runs
execute the unmodified functions.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

import psc.classifier
import psc.cli
import psc.crossval
import psc.dataset
import psc.intercept
import psc.qp
import psc.smw

LAYERS = ("dataset", "scatter", "smw", "qp", "intercept", "metrics", "classifier", "crossval", "cli")

# every per-layer metric of a traced run, in report order, with its unit;
# times and counts are per unit of work (a cv repeat, or a pass of fits)
PER_LAYER_UNITS = {
    "dataset.load_csv_s": "s",
    "dataset.class_stats_s": "s",
    "dataset.class_stats_calls": "count",
    "scatter.build_factor_s": "s",
    "scatter.build_factor_calls": "count",
    "smw.lambda_cap_s": "s",
    "smw.lambda_cap_calls": "count",
    "smw.build_operator_self_s": "s",
    "smw.gram_s": "s",
    "smw.apply_inverse_s": "s",
    "smw.caps_per_training_set": "1",
    "qp.solve_smo_s": "s",
    "qp.solve_smo_calls": "count",
    "qp.smo_iterations": "count",
    "qp.smo_us_per_iter": "us",
    "qp.nonconverged": "count",
    "intercept.choose_intercept_s": "s",
    "intercept.separable_share": "1",
    "metrics.evaluate_s": "s",
    "metrics.evaluate_calls": "count",
    "classifier.fit_self_s": "s",
    "classifier.fit_calls": "count",
    "classifier.fit_errors": "count",
    "crossval.tune_and_fit_self_s": "s",
    "crossval.cv_run_self_s": "s",
    "crossval.cells_attempted": "count",
    "crossval.cells_failed": "count",
    "cli.self_s": "s",
    "error_share": "1",
    "trace_overhead_s": "s",
    "unattributed_s": "s",
}


def _training_set_key(args, kwargs, result):
    data = args[0]
    # rows of one data set differ in their first column, so the first column
    # and the labels identify which subset a fit was given
    return (data.samples.shape, data.samples[:, 0].tobytes(), data.labels.tobytes())


def _smo_outcome(args, kwargs, result):
    return result.iterations, result.converged


def _truth(args, kwargs, result):
    return bool(result)


# (module, attribute the caller looks up, span name, observer of the call)
WRAP_POINTS = (
    (psc.cli, "main", "cli.main", None),
    (psc.dataset, "load_csv", "dataset.load_csv", None),
    (psc.crossval, "cv_run", "crossval.cv_run", None),
    (psc.crossval, "tune_and_fit", "crossval.tune_and_fit", None),
    (psc.crossval, "evaluate", "metrics.evaluate", None),
    (psc.classifier, "fit_psc", "classifier.fit", None),
    (psc.classifier, "fit_cssvm", "classifier.fit", None),
    (psc.classifier, "fit_rmdd", "classifier.fit", None),
    (psc.classifier, "class_stats", "dataset.class_stats", None),
    (psc.classifier, "build_factor", "scatter.build_factor", _training_set_key),
    (psc.smw, "lambda_cap", "smw.lambda_cap", None),
    (psc.smw, "build_operator", "smw.build_operator", None),
    (psc.smw, "gram", "smw.gram", None),
    (psc.smw, "apply_inverse", "smw.apply_inverse", None),
    (psc.qp, "solve_smo", "qp.solve_smo", _smo_outcome),
    (psc.classifier, "choose_intercept", "intercept.choose_intercept", None),
    (psc.intercept, "is_separable", "intercept.is_separable", _truth),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root span
    end: float = 0.0
    error: bool = False
    value: object = None


class Tracer:
    """Collects spans in memory; ``spans`` is read after the traced work ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self._open = []

    def wrap(self, fn, name: str, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = Span(name, time.perf_counter(), parent)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if observe is not None:
                span.value = observe(args, kwargs, result)
            return result

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Replace every wrap point by its traced version for the block's duration."""
    originals = []
    try:
        for module, attr, name, observe in WRAP_POINTS:
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(fn, name, observe))
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_calls(spans: list[Span]) -> dict[str, int]:
    """Number of spans per layer, for every layer."""
    calls = dict.fromkeys(LAYERS, 0)
    for s in spans:
        calls[s.name.split(".", 1)[0]] += 1
    return calls


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer totals for one traced unit of work lasting ``wall_s``."""
    own = self_times(spans)
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, t in zip(spans, own):
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        self_s[s.name] = self_s.get(s.name, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1

    def under(name, ancestor):
        return [s for s in spans if s.name == name and _has_ancestor(spans, s, ancestor)]

    smo = [s.value for s in spans if s.name == "qp.solve_smo" and s.value is not None]
    iterations = sum(it for it, _ in smo)
    smo_s = total.get("qp.solve_smo", 0.0)
    separable = [s.value for s in under("intercept.is_separable", "intercept.choose_intercept")]
    training_sets = {s.value for s in spans if s.name == "scatter.build_factor"}
    fits_in_tuning = under("classifier.fit", "crossval.tune_and_fit")
    return {
        "dataset.load_csv_s": total.get("dataset.load_csv", 0.0),
        "dataset.class_stats_s": total.get("dataset.class_stats", 0.0),
        "dataset.class_stats_calls": calls.get("dataset.class_stats", 0),
        "scatter.build_factor_s": total.get("scatter.build_factor", 0.0),
        "scatter.build_factor_calls": calls.get("scatter.build_factor", 0),
        "smw.lambda_cap_s": total.get("smw.lambda_cap", 0.0),
        "smw.lambda_cap_calls": calls.get("smw.lambda_cap", 0),
        "smw.build_operator_self_s": self_s.get("smw.build_operator", 0.0),
        "smw.gram_s": total.get("smw.gram", 0.0),
        "smw.apply_inverse_s": total.get("smw.apply_inverse", 0.0),
        "smw.caps_per_training_set": (calls.get("smw.lambda_cap", 0) / len(training_sets)
                                      if training_sets else 0.0),
        "qp.solve_smo_s": smo_s,
        "qp.solve_smo_calls": calls.get("qp.solve_smo", 0),
        "qp.smo_iterations": iterations,
        "qp.smo_us_per_iter": 1e6 * smo_s / iterations if iterations else 0.0,
        "qp.nonconverged": sum(1 for _, converged in smo if not converged),
        "intercept.choose_intercept_s": total.get("intercept.choose_intercept", 0.0),
        "intercept.separable_share": (sum(separable) / len(separable)) if separable else 0.0,
        "metrics.evaluate_s": total.get("metrics.evaluate", 0.0),
        "metrics.evaluate_calls": calls.get("metrics.evaluate", 0),
        "classifier.fit_self_s": self_s.get("classifier.fit", 0.0),
        "classifier.fit_calls": calls.get("classifier.fit", 0),
        "classifier.fit_errors": sum(1 for s in spans if s.name == "classifier.fit" and s.error),
        "crossval.tune_and_fit_self_s": self_s.get("crossval.tune_and_fit", 0.0),
        "crossval.cv_run_self_s": self_s.get("crossval.cv_run", 0.0),
        "crossval.cells_attempted": len(fits_in_tuning),
        "crossval.cells_failed": sum(1 for s in fits_in_tuning if s.error),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "unattributed_s": wall_s - sum(own),
    }


def _has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    i = span.parent
    while i >= 0:
        if spans[i].name == name:
            return True
        i = spans[i].parent
    return False
