"""Woodbury-identity operator for M = [I - lam*(beta*S_B + S_W)]^-1.

All work happens in (n+1)-dimensional space. With C = diag(sqrt(L_tau)) D,
the factor carries one eigendecomposition C C^T = U diag(s) U^T per training
set, and every lambda shares it:

    M V = V + C^T U diag(lam / (1 - lam*s)) U^T C V

The PD cap is 1/max(s), and for any lam below it the dual Gram is
y o (X X^T + P diag(lam / (1 - lam*s)) P^T) o y with P = X C^T U. The
factor carries X X^T and P, so a lambda costs n-space work only. D = E X is
never formed either: M V applies it as E (X V) and D^T as X^T (E^T z), so
the only d-length work is two products with the n training rows. No d x d
matrix is ever materialized, and no matrix is factored per lambda.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledMatrix
from .scatter import PopulationFactor


class SmwError(ValueError):
    """Operator construction or Gram assembly failed."""


@dataclass(frozen=True)
class SmwOperator:
    factor: PopulationFactor
    weights: np.ndarray  # (n+1,) lam / (1 - lam*s) on the factor's spectrum


def lambda_cap(factor: PopulationFactor) -> float:
    """1/lambda_max(beta*S_B + S_W), read off the factor's (n+1)-space spectrum.

    Returns +inf when the scatter matrix is numerically zero: its largest
    eigenvalue is at most n * eps times the largest diagonal entry of X X^T,
    below what the dual Gram, which is built on X X^T, resolves.
    """
    lam_max = float(factor.spectrum[-1])
    if lam_max <= factor.n * np.finfo(np.float64).eps * float(np.diag(factor.xx).max()):
        return float("inf")
    return 1.0 / lam_max


def build_operator(factor: PopulationFactor, lam: float) -> SmwOperator:
    cap = lambda_cap(factor)
    if not lam > 0.0:
        raise SmwError(f"lambda must be positive, got {lam}")
    if not lam < cap:
        raise SmwError(f"lambda {lam} not below the PD cap {cap}")
    margin = 1.0 - lam * factor.spectrum
    if margin.min() < 1e-12:
        raise SmwError("I - lambda*(beta*S_B + S_W) numerically singular; lambda too close to the cap")
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
    """Dual Gram matrix Y X M X^T Y of the training rows the factor was built
    from, symmetrized, with a PSD guard. data supplies their labels."""
    factor = op.factor
    if data.d != factor.d:
        raise SmwError("operator was built for a different dimension")
    if data.n != factor.n:
        raise SmwError(f"operator was built on {factor.n} training rows, got {data.n}")
    y = data.labels.astype(np.float64)
    G0 = factor.xx + (factor.xp * op.weights) @ factor.xp.T
    G = y[:, None] * G0 * y[None, :]
    G = (G + G.T) / 2.0
    eigs = np.linalg.eigvalsh(G)
    scale = max(abs(eigs[0]), abs(eigs[-1]), 1e-300)
    if eigs[0] < -1e-8 * scale:
        raise SmwError(f"Gram matrix not PSD (min eig {eigs[0]:.3e}); lambda too large or numerical breakdown")
    return G
