"""Training pipelines: the scatter-regularized max-margin classifier (psc),
a cost-sensitive linear SVM baseline (cssvm), the normalized mean-difference
direction (rmdd), and the Gaussian Bayes oracle for simulations."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from . import intercept, qp, smw
from .dataset import ClassStats, LabeledMatrix, _freeze, centred_gram, class_stats, write_json
from .intercept import Projections, choose_intercept
from .smw import PopulationFactor, build_factor


class FitError(ValueError):
    pass


@dataclass(frozen=True)
class Hyperparams:
    """The paper's three settings, checked once here for every method. The
    dual solve always runs at qp's own tolerance and iteration cap."""

    gamma: float = 0.5  # lambda as a fraction of the PD cap
    c0: float = 1.0
    r_scale: float = intercept.DEFAULT_R

    def __post_init__(self):
        # written so that NaN fails each test
        if not 0.0 < self.gamma < 1.0:
            raise FitError(f"gamma must be in (0,1), got {self.gamma}")
        if not (self.c0 > 0 and self.r_scale > 0):
            raise FitError(f"c0 and r_scale must be positive, got {self.c0} and {self.r_scale}")


@dataclass(frozen=True)
class LinearModel:
    """A fitted linear rule. Its w is read-only, so a fit can hand the same
    model to many callers. A writable array passed in is copied, so the
    caller's later writes do not reach the model; a read-only 1-D one, such
    as another model's w, is shared as the same object."""

    w: np.ndarray
    b: float
    method_tag: str
    n1: int = 0
    n2: int = 0
    gamma: float | None = None
    lam: float | None = None
    c0: float | None = None
    r_scale: float | None = None
    converged: bool = True
    kkt_residual: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 1 or w.flags.writeable or not w.flags.c_contiguous:
            w = w.flatten()
        if not np.isfinite(w).all():
            raise FitError("direction vector has non-finite entries")
        if not np.any(w):
            raise FitError("direction vector is all-zero")
        if not math.isfinite(self.b):
            raise FitError(f"intercept must be finite, got {self.b}")
        object.__setattr__(self, "w", _freeze(w))

    @property
    def d(self) -> int:
        return self.w.shape[0]


def decision(model: LinearModel, x: np.ndarray) -> np.ndarray | float:
    """w^T x + b for a single vector or a matrix of row vectors."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != model.d:
        raise FitError(f"dimension mismatch: model takes {model.d}-vectors or rows of them, got shape {x.shape}")
    out = x @ model.w + model.b
    return float(out) if out.ndim == 0 else out


def predict(model: LinearModel, x: np.ndarray) -> np.ndarray | int:
    """sign(decision) with zero classified as +1."""
    out = np.where(np.asarray(decision(model, x)) >= 0.0, 1, -1)
    return int(out) if out.ndim == 0 else out


def _class_weights(y: np.ndarray, n1: int, n2: int) -> np.ndarray:
    # weight 1 for class +1, n1/n2 for class -1: equal total slack budget
    return np.where(y > 0, 1.0, n1 / n2)


def _solve_dual(G: np.ndarray, y: np.ndarray, caps: np.ndarray):
    sol = qp.solve_smo(qp.BoxQP(G=G, y=y, upper=caps))
    if not np.any(sol.alpha):
        raise FitError("trivial dual: all multipliers are zero (c0 too small)")
    return sol


def _intercept(proj: np.ndarray, labels: np.ndarray, r_scale: float) -> float:
    """The adaptive intercept from the training rows' projections."""
    return choose_intercept(Projections(pos=proj[labels == 1], neg=proj[labels == -1]), r_scale)


@dataclass(frozen=True)
class TrainingSet:
    """A training set with the work every fit on it shares: its class
    statistics, the Gram of its rows centred on their mean, its scatter
    factor with the factor's spectrum (built from that Gram at the first psc
    fit, so cssvm and rmdd never build it), and the c0 path memo.

    The memo holds, per setting that fixes the dual's Gram, the fit at the
    smallest c0 whose dual solve left every cap unbound (``upper_active``
    False). Any larger c0 would repeat that solve bit for bit, so a fit at
    one is read from the memo instead."""

    data: LabeledMatrix
    stats: ClassStats
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def gram(self) -> np.ndarray:
        return _freeze(centred_gram(self.data.samples, self.stats.mean))

    @cached_property
    def factor(self) -> PopulationFactor:
        return build_factor(self.data, self.stats, self.gram)

    def recall(self, key: tuple, c0: float):
        """What a fit stored under key at a c0 no larger than this one, or
        None. A fit stores only after a miss, so a stored c0 only falls."""
        hit = self.memo.get(key)
        return hit[1] if hit is not None and c0 >= hit[0] else None


def prepare(data: LabeledMatrix) -> TrainingSet:
    return TrainingSet(data=data, stats=class_stats(data))


def _prepared(data: LabeledMatrix | TrainingSet) -> TrainingSet:
    return data if isinstance(data, TrainingSet) else prepare(data)


def fit_psc(data: LabeledMatrix | TrainingSet, hp: Hyperparams) -> LinearModel:
    """Fit psc; a prepared TrainingSet shares its factor and its c0 path
    across many fits."""
    train = _prepared(data)
    key = ("psc", hp.gamma, hp.r_scale)
    model = train.recall(key, hp.c0)
    if model is not None:
        return replace(model, c0=hp.c0)
    data, stats = train.data, train.stats
    cap = smw.lambda_cap(train.factor)
    if not math.isfinite(cap):
        raise FitError("degenerate data: scatter matrix is zero")
    lam = hp.gamma * cap
    op = smw.build_operator(train.factor, lam)
    G = smw.gram(op, data)
    y = data.labels.astype(np.float64)
    sol = _solve_dual(G, y, hp.c0 * _class_weights(y, stats.n1, stats.n2))
    w = _freeze(smw.apply_inverse(op, data.samples.T @ (data.labels * sol.alpha)))  # kept, not copied
    b = _intercept(data.samples @ w, data.labels, hp.r_scale)
    model = LinearModel(
        w=w,
        b=b,
        method_tag="psc",
        n1=stats.n1,
        n2=stats.n2,
        gamma=hp.gamma,
        lam=lam,
        c0=hp.c0,
        r_scale=hp.r_scale,
        converged=sol.converged,
        kkt_residual=sol.kkt_residual,
    )
    if not sol.upper_active:
        train.memo[key] = (hp.c0, model)
    return model


def fit_cssvm(
    data: LabeledMatrix | TrainingSet,
    c0: float = Hyperparams.c0,
    r_scale: float = Hyperparams.r_scale,
) -> LinearModel:
    """Soft-margin SVM dual with per-class slack weights (the lambda=0 Gram).
    The dual reads the Gram of the rows centred on their mean, y o K o y,
    which on y^T alpha = 0 is the raw rows' dual, so a large common offset
    does not swamp it. It has no c0, so a prepared TrainingSet shares one
    dual solve across the c0 path; the intercept depends on the caps and
    is set anew."""
    Hyperparams(c0=c0, r_scale=r_scale)  # the settings check
    train = _prepared(data)
    data, stats = train.data, train.stats
    y = data.labels.astype(np.float64)
    caps = c0 * _class_weights(y, stats.n1, stats.n2)
    key = ("cssvm",)
    hit = train.recall(key, c0)
    if hit is not None:
        sol, w, proj = hit
    else:
        G = y[:, None] * train.gram * y[None, :]
        sol = _solve_dual(G, y, caps)
        w = _freeze(data.samples.T @ (y * sol.alpha))  # shared by the memo and its models
        proj = data.samples @ w
        if not sol.upper_active:
            train.memo[key] = (c0, (sol, w, proj))
    eps = 1e-8 * caps.max()
    free = (sol.alpha > eps) & (sol.alpha < caps - eps)
    if free.any():
        b = float(np.mean(y[free] - proj[free]))
    else:
        b = _intercept(proj, data.labels, r_scale)
    return LinearModel(
        w=w,
        b=b,
        method_tag="cssvm",
        n1=stats.n1,
        n2=stats.n2,
        c0=c0,
        r_scale=r_scale,
        converged=sol.converged,
        kkt_residual=sol.kkt_residual,
    )


def fit_rmdd(
    data: LabeledMatrix | TrainingSet,
    r_scale: float = Hyperparams.r_scale,
) -> LinearModel:
    """Unit-norm class-mean difference direction with the adaptive intercept."""
    Hyperparams(r_scale=r_scale)  # the settings check
    train = _prepared(data)
    data, stats = train.data, train.stats
    diff = stats.u1 - stats.u2
    norm = float(np.linalg.norm(diff))
    if norm == 0.0:
        raise FitError("class means coincide: mean-difference direction undefined")
    w = diff / norm
    b = _intercept(data.samples @ w, data.labels, r_scale)
    return LinearModel(
        w=w,
        b=b,
        method_tag="rmdd",
        n1=stats.n1,
        n2=stats.n2,
        r_scale=r_scale,
    )


METHODS = ("psc", "cssvm", "rmdd")
# what a fit raises on data it cannot fit; any other error propagates
FIT_ERRORS = (FitError, smw.SmwError, qp.QpError, intercept.InterceptError)


def fit(method: str, data: LabeledMatrix | TrainingSet, hp: Hyperparams) -> LinearModel:
    """Fit one of METHODS with the settings in hp. psc reads all three,
    cssvm reads c0 and r_scale, and rmdd reads only r_scale.
    data may be a prepared TrainingSet, which psc and cssvm fits on it share
    (see TrainingSet)."""
    if method == "psc":
        return fit_psc(data, hp)
    if method == "cssvm":
        return fit_cssvm(data, c0=hp.c0, r_scale=hp.r_scale)
    if method == "rmdd":
        return fit_rmdd(data, r_scale=hp.r_scale)
    raise FitError(f"unknown method {method!r}")


def bayes_oracle(mu_pos: np.ndarray, mu_neg: np.ndarray, sigma: np.ndarray) -> LinearModel:
    """Optimal linear rule for known Gaussian populations with shared covariance."""
    mu_pos = np.asarray(mu_pos, dtype=np.float64).ravel()
    mu_neg = np.asarray(mu_neg, dtype=np.float64).ravel()
    sigma = np.asarray(sigma, dtype=np.float64)
    d = mu_pos.size
    if sigma.shape != (d, d) or mu_neg.size != d:
        raise FitError(f"means of lengths {mu_pos.size} and {mu_neg.size} do not match "
                       f"a covariance of shape {sigma.shape}")
    not_spd = "covariance matrix is not symmetric positive definite"
    if not np.array_equal(sigma, sigma.T):  # cholesky reads only the lower triangle
        raise FitError(not_spd)
    try:
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise FitError(not_spd) from None
    w = np.linalg.solve(sigma, mu_pos - mu_neg)
    b = float(-0.5 * w @ (mu_pos + mu_neg))
    return LinearModel(w=w, b=b, method_tag="bayes")


def model_to_dict(model: LinearModel) -> dict:
    doc = {f.name: getattr(model, f.name) for f in fields(model)}
    doc["lambda"] = doc.pop("lam")
    return doc | {"w": model.w.tolist(), "d": model.d}


def save_model(model: LinearModel, path) -> None:
    write_json(model_to_dict(model), path)


def load_model(path) -> LinearModel:
    """Read a model that save_model wrote; a file that is not one raises
    FitError naming the path. Keys save_model does not write are ignored."""
    def bad(problem: str) -> FitError:
        return FitError(f"{path}: {problem}")

    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh, parse_int=float)  # so every JSON number is a float
        except ValueError as exc:  # a JSON syntax or a UTF-8 decoding error
            raise bad(f"not a JSON file: {exc}") from None

    if not isinstance(doc, dict):
        raise bad("a model file holds one JSON object")
    for key in ("w", "b", "method_tag"):
        if key not in doc:
            raise bad(f"missing key {key!r}")
    w = doc["w"]
    if not (isinstance(w, list) and all(isinstance(v, float) for v in w)):
        raise bad("w must be a list of numbers")
    if "d" in doc and not (isinstance(doc["d"], float) and doc["d"] == len(w)):
        raise bad(f"d is {doc['d']!r} but w has {len(w)} entries")
    if not isinstance(doc["method_tag"], str):
        raise bad(f"method_tag must be a string, got {doc['method_tag']!r}")
    numbers = {"b": doc["b"], "kkt_residual": doc.get("kkt_residual", 0.0)}
    settings = {key: doc.get(key) for key in ("gamma", "lambda", "c0", "r_scale")}
    counts = {key: doc.get(key, 0.0) for key in ("n1", "n2")}
    for key, value in (numbers | settings).items():
        if not (isinstance(value, float) or (key in settings and value is None)):
            raise bad(f"{key} must be a number, got {value!r}")
    for key, value in counts.items():
        if not (isinstance(value, float) and value.is_integer() and value >= 0):
            raise bad(f"{key} must be a whole number, got {value!r}")
    converged = doc.get("converged", True)
    if not isinstance(converged, bool):
        raise bad(f"converged must be true or false, got {converged!r}")
    try:
        return LinearModel(
            w=np.asarray(w, dtype=np.float64),
            b=numbers["b"],
            method_tag=doc["method_tag"],
            n1=int(counts["n1"]),
            n2=int(counts["n2"]),
            gamma=settings["gamma"],
            lam=settings["lambda"],
            c0=settings["c0"],
            r_scale=settings["r_scale"],
            converged=converged,
            kkt_residual=numbers["kkt_residual"],
        )
    except FitError as exc:  # a non-finite or all-zero w, or a non-finite b
        raise bad(str(exc)) from None
