"""The three benchmark workloads: inputs made from a seed, one unit of work,
and the checks on the program's outputs.

Every workload is closed loop with one caller: the next unit starts when the
previous one has returned.

* ``cv-psc``: ``psc cv`` in-process on the criterion-7 data (62 x 2000) with
  the default 5 x 4 folds and 30-cell grid. It is the paper's experiment;
  training-set-only work (``smw``) repeats per grid cell.
* ``cv-cssvm``: the same command, data and folds with ``--method cssvm``. It
  shares ``crossval``, ``qp``, ``intercept`` and ``metrics`` with cv-psc but
  never calls ``scatter`` or ``smw``, and is dominated by SMO.
* ``fit-wide``: repeated ``fit_psc`` at n = 30, d = 20000 (the criterion-8
  shape), rotating over training sets made in setup. The d-linear work
  dominates and neither ``crossval`` nor ``metrics`` runs.
"""

from __future__ import annotations

import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import psc
import psc.classifier
import psc.cli

CV_SHAPE = (2000, 22, 40)  # d, n_pos, n_neg of the criterion-7 data
CV_OUTER_FOLDS = psc.ExperimentConfig().outer_folds  # the cli default, which the cv workloads keep
CV_REPEATS = 1  # per cli.main call, so that a run holds several calls
FIT_SHAPE = (20_000, 20, 10)  # d, n_pos, n_neg of the criterion-8 fit
FIT_TRAINING_SETS = 8
FIT_TEST = (100, 100)  # held-out n_pos, n_neg for fit-wide's bccr
FIT_HP = psc.Hyperparams(gamma=0.5, c0=1.0)


def paper_bccr(ccr1: float, ccr2: float) -> float:
    """BCCR as the paper defines it: the mean per-class rate damped by the
    squared disparity. Written out here so the benchmark checks the
    program's figures instead of repeating its code."""
    return (ccr1 + ccr2) / 2.0 * math.exp(-((ccr1 - ccr2) ** 2) / 2.0)


@dataclass
class Unit:
    """Outcome of one unit of work: one ``cli.main`` call or one pass of fits.

    ``wall_s`` is per cv repeat, or per pass over the training sets.
    """

    wall_s: float
    attempted: int
    failed: int
    bccr: float
    fit_ms: list[float] = field(default_factory=list)


class CheckFailed(Exception):
    """An output of the program is wrong or differs between identical runs."""


class CvWorkload:
    """``psc cv`` through ``psc.cli.main`` on data written to a CSV in setup."""

    def __init__(self, method: str, seed: int, workdir: Path, shape=CV_SHAPE, cli_args=(),
                 data=None):
        self.method, self.seed, self.workdir = method, seed, workdir
        self.shape, self.cli_args = shape, list(cli_args)
        self._data = data  # a fixed data set instead of the simulated one
        self._first_output: bytes | None = None

    def setup(self) -> None:
        d, n_pos, n_neg = self.shape
        data = self._data if self._data is not None else psc.simulate_hdlss(d, n_pos, n_neg, self.seed)
        self.n = data.n
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.csv = self.workdir / "data.csv"
        psc.write_csv(data, self.csv)

    def unit(self) -> Unit:
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["cv", "--data", str(self.csv), "--seed", str(self.seed),
                "--repeats", str(CV_REPEATS), "--out-dir", str(out)]
        if self.method != "psc":
            argv += ["--method", self.method]
        argv += self.cli_args
        attempted = CV_REPEATS * CV_OUTER_FOLDS
        t0 = time.perf_counter()
        try:
            rc = psc.cli.main(argv)
        except Exception as exc:  # a crash of the program is a failed unit
            print(f"cv call raised {type(exc).__name__}: {exc}", flush=True)
            rc = None
        wall = (time.perf_counter() - t0) / CV_REPEATS
        if rc != 0 or not (out / "summary.json").is_file():
            return Unit(wall, attempted, attempted, float("nan"))
        return self._check(out, wall, attempted)

    def _check(self, out: Path, wall: float, attempted: int) -> Unit:
        blob = (out / "summary.json").read_bytes()
        pooled = json.loads(blob)["pooled"]
        confusion = pooled["confusion"]
        summed = dict.fromkeys(confusion, 0)
        failed = 0
        for rep in range(CV_REPEATS):
            doc = (out / f"repeat_{rep:03d}.json").read_bytes()
            blob += doc
            for fold in json.loads(doc)["folds"]:
                if "error" in fold:
                    failed += 1
                    continue
                for key, count in fold["report"]["confusion"].items():
                    summed[key] += count
        if summed != confusion:
            raise CheckFailed(f"pooled confusion {confusion} is not the sum of the folds {summed}")
        if not failed and sum(confusion.values()) != CV_REPEATS * self.n:
            return Unit(wall, attempted, attempted, float("nan"))  # samples went missing
        ccr1 = confusion["tp"] / (confusion["tp"] + confusion["fn"])
        ccr2 = confusion["tn"] / (confusion["tn"] + confusion["fp"])
        if not math.isclose(pooled["bccr"], paper_bccr(ccr1, ccr2), rel_tol=1e-12):
            raise CheckFailed(f"pooled bccr {pooled['bccr']} does not follow from its confusion")
        if self._first_output is None:
            self._first_output = blob
        elif blob != self._first_output:
            raise CheckFailed("identical cv calls wrote different results")
        return Unit(wall, attempted, failed, pooled["bccr"])


class FitWorkload:
    """Repeated ``fit_psc`` rotating over training sets made in setup."""

    def __init__(self, seed: int, shape=FIT_SHAPE, training_sets: int = FIT_TRAINING_SETS,
                 test=FIT_TEST):
        self.seed, self.shape, self.training_sets, self.test_shape = seed, shape, training_sets, test
        self._first: list | None = None
        self._bccr = float("nan")

    def setup(self) -> None:
        d, n_pos, n_neg = self.shape
        base = 1000 * self.seed
        self.train = [psc.simulate_hdlss(d, n_pos, n_neg, base + k) for k in range(self.training_sets)]
        self.test = psc.simulate_hdlss(d, *self.test_shape, base + 999)

    def unit(self) -> Unit:
        """One pass: each training set fitted once, timed fit by fit."""
        fit_ms, models = [], []
        failed = 0
        t0 = time.perf_counter()
        for train in self.train:
            t = time.perf_counter()
            try:
                model = psc.classifier.fit_psc(train, FIT_HP)
            except Exception as exc:  # FitError or a numerical failure: a failed fit
                model = None
                print(f"fit raised {type(exc).__name__}: {exc}", flush=True)
            fit_ms.append(1e3 * (time.perf_counter() - t))
            if model is None or not model.converged or not np.isfinite(model.w).all():
                failed += 1
            models.append(model)
        wall = time.perf_counter() - t0
        return Unit(wall, len(models), failed, self._check(models), fit_ms)

    def _check(self, models) -> float:
        """Mean held-out bccr; every pass must reproduce the first bit for bit."""
        if self._first is not None:
            for model, first in zip(models, self._first):
                same = (model is None and first is None) or (
                    model is not None and first is not None and model.b == first.b
                    and np.array_equal(model.w, first.w))
                if not same:
                    raise CheckFailed("refitting a training set gave a different model")
            return self._bccr
        self._first = models
        scores = []
        pos = self.test.labels == 1
        for model in models:
            if model is None:
                continue
            predicted_pos = self.test.samples @ model.w + model.b >= 0.0
            scores.append(paper_bccr(float(predicted_pos[pos].mean()),
                                     float((~predicted_pos[~pos]).mean())))
        self._bccr = float(np.mean(scores)) if scores else float("nan")
        return self._bccr
