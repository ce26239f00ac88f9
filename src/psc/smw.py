"""The population factor of beta*S_B + S_W and the Woodbury-identity operator
for M = [I - lam*(beta*S_B + S_W)]^-1, both worked in (n+1)-dimensional space.

The scatter matrix is C^T C with C = diag(sqrt(L_tau)) D, where D = E X is
a fixed combination of the n training rows X. The small matrix
C C^T = U diag(s) U^T has its nonzero eigenvalues, and the factor carries
that one eigendecomposition per training set; every lambda shares it:

    M V = V + C^T U diag(lam / (1 - lam*s)) U^T C V

The PD cap is 1/max(s). Below it every weight lam / (1 - lam*s) is positive,
so the dual Gram y o (K + P diag(weights) P^T) o y is PSD; K = Xc Xc^T and
P = Xc C^T U for the rows Xc centred on their mean. It differs from X's
Gram by y a^T + a y^T + c y y^T, so both give the same dual on y^T alpha = 0.

All of the factor comes from K, and D itself is never formed: M V applies
it as E (X V) and D^T as X^T (E^T z), so the only d-length work is products
with the n training rows. No d x d or (n+1) x d matrix is ever
materialized, and no matrix is factored or eigensolved per lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import ClassStats, LabeledMatrix


class SmwError(ValueError):
    """Operator construction or Gram assembly failed."""


@dataclass(frozen=True)
class PopulationFactor:
    """Factor of beta*S_B + S_W.

    X holds the training rows (samples, in the data's row order) and E the
    (n+1) x n centring weights: row k < n of D = E X is x_i - u_class(i) for
    the k-th training row in class order (all +1 rows first), and the last
    row is u1 - u2. Every row of E sums to zero, so D = E (X - 1 r^T) for
    any r. The row weights L_tau are 1/n1, 1/n2 and beta on the matching
    rows. spectrum is s ascending and basis is diag(sqrt(L_tau)) U, so
    C^T U = D^T basis.
    """

    samples: np.ndarray  # (n, d) the training rows, read-only, not a copy
    e_matrix: np.ndarray  # (n+1, n) centring weights, D = E X
    spectrum: np.ndarray  # (n+1,) eigenvalues of C C^T, ascending
    basis: np.ndarray  # (n+1, n+1) diag(sqrt(L_tau)) times the eigenvectors
    kc: np.ndarray  # (n, n) Xc Xc^T, Xc = X - 1 r^T centred on the mean r
    pc: np.ndarray  # (n, n+1) Xc D^T basis = (E Xc Xc^T)^T basis
    row_scale: float  # max_i |x_i - r|^2 + |r|^2, for lambda_cap's zero test

    @property
    def n(self) -> int:
        return self.kc.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class SmwOperator:
    factor: PopulationFactor
    weights: np.ndarray  # (n+1,) lam / (1 - lam*s) on the factor's spectrum

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.factor.n + 1,) or not (np.isfinite(w) & (w > 0.0)).all():
            raise SmwError(f"operator weights must be {self.factor.n + 1} finite positive values")


def beta(n1: int, n2: int) -> float:
    """Imbalance weight m^(-1/4), m = max(n1,n2)/min(n1,n2); in (0, 1]."""
    if n1 < 1 or n2 < 1:
        raise ValueError("class counts must be positive")
    m = max(n1, n2) / min(n1, n2)
    return math.exp(-math.log(m) / 4.0)


def build_factor(data: LabeledMatrix, stats: ClassStats, kc: np.ndarray) -> PopulationFactor:
    """The factor of data's scatter from kc, data's centred Gram
    dataset.centred_gram(data.samples, stats.mean)."""
    n, n1, n2 = data.n, stats.n1, stats.n2
    pos = np.flatnonzero(data.labels == 1)
    neg = np.flatnonzero(data.labels == -1)
    E = np.zeros((n + 1, n))
    E[:n1, pos] = -1.0 / n1
    E[n1:n, neg] = -1.0 / n2
    E[np.arange(n), np.concatenate([pos, neg])] += 1.0
    E[n, pos] = 1.0 / n1
    E[n, neg] = -1.0 / n2
    l_tau = np.empty(n + 1)
    l_tau[:n1] = 1.0 / n1
    l_tau[n1:n] = 1.0 / n2
    l_tau[n] = beta(n1, n2)
    # K = Xc Xc^T holds the rows centred on the training mean r, so that a
    # large common offset neither cancels in E K E^T nor swamps the dual Gram.
    r, K = stats.mean, kc
    EK = E @ K
    sqrt_l = np.sqrt(l_tau)
    A = sqrt_l[:, None] * (EK @ E.T) * sqrt_l[None, :]
    spectrum, U = np.linalg.eigh((A + A.T) / 2.0)
    basis = sqrt_l[:, None] * U
    return PopulationFactor(
        samples=data.samples, e_matrix=E, spectrum=spectrum, basis=basis,
        kc=K, pc=EK.T @ basis, row_scale=float(np.diag(K).max() + r @ r),
    )


def lambda_cap(factor: PopulationFactor) -> float:
    """1/lambda_max(beta*S_B + S_W), read off the factor's (n+1)-space spectrum.

    Returns +inf when the scatter matrix is numerically zero: its largest
    eigenvalue is at most n * eps * row_scale, which is between 1/2 and 5
    times the largest squared row norm. On rows that are all equal K holds
    only the centring's rounding, so row_scale adds |r|^2 to max diag(K).
    """
    lam_max = float(factor.spectrum[-1])
    if lam_max <= factor.n * np.finfo(np.float64).eps * factor.row_scale:
        return float("inf")
    return 1.0 / lam_max


def build_operator(factor: PopulationFactor, lam: float) -> SmwOperator:
    if not lam > 0.0:
        raise SmwError(f"lambda must be positive, got {lam}")
    margin = 1.0 - lam * factor.spectrum  # at most 0 at or above the PD cap
    if not margin.min() >= 1e-12:  # written so that NaN fails it
        raise SmwError(f"I - lambda*(beta*S_B + S_W) numerically singular at lambda {lam}")
    return SmwOperator(factor=factor, weights=lam / margin)


def apply_inverse(op: SmwOperator, V: np.ndarray) -> np.ndarray:
    """M @ V for V of shape (d,) or (d, k)."""
    V = np.asarray(V, dtype=np.float64)
    if V.shape[0] != op.factor.d:
        raise SmwError(f"dimension mismatch: operator is {op.factor.d}-dimensional, got {V.shape[0]}")
    X, E, Q = op.factor.samples, op.factor.e_matrix, op.factor.basis
    weights = op.weights if V.ndim == 1 else op.weights[:, None]
    return V + X.T @ (E.T @ (Q @ (weights * (Q.T @ (E @ (X @ V))))))


def gram(op: SmwOperator, data: LabeledMatrix) -> np.ndarray:
    """Dual Gram matrix Y Xc M Xc^T Y of the factor's centred training rows,
    symmetrized, PSD as the operator's weights are positive. data supplies
    their labels."""
    factor = op.factor
    if data.d != factor.d:
        raise SmwError("operator was built for a different dimension")
    if data.n != factor.n:
        raise SmwError(f"operator was built on {factor.n} training rows, got {data.n}")
    y = data.labels.astype(np.float64)
    G = y[:, None] * (factor.kc + (factor.pc * op.weights) @ factor.pc.T) * y[None, :]
    return (G + G.T) / 2.0
