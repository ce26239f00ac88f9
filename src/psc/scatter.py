"""Population scatter structure: the combined matrix beta*S_B + S_W, its
low-rank factorization D^T diag(L_tau) D, the spectrum of that factor, and
the training rows' lambda-free Gram products, which the SMW operator shares
across every lambda."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import ClassStats, LabeledMatrix


@dataclass(frozen=True)
class PopulationFactor:
    """Factor of beta*S_B + S_W.

    Rows 0..n-1 of d_matrix are x_i - u_class(i) in class order (all +1 rows
    first); the last row is u1 - u2. l_tau holds 1/n1, 1/n2 and beta on the
    matching rows.

    With C = diag(sqrt(l_tau)) D, the small matrix C C^T = U diag(spectrum) U^T
    has the nonzero eigenvalues of C^T C = beta*S_B + S_W. spectrum is
    ascending and basis is diag(sqrt(l_tau)) U, so C^T U = D^T basis.

    xx = X X^T and xp = X D^T basis are the products of the training rows X
    (in the data's row order) that every lambda's dual Gram shares.
    """

    d_matrix: np.ndarray  # (n+1, d)
    l_tau: np.ndarray  # (n+1,)
    beta: float
    n1: int
    n2: int
    spectrum: np.ndarray  # (n+1,) eigenvalues of C C^T, ascending
    basis: np.ndarray  # (n+1, n+1) diag(sqrt(l_tau)) times the eigenvectors
    xx: np.ndarray  # (n, n) X X^T
    xp: np.ndarray  # (n, n+1) X D^T basis

    @property
    def n(self) -> int:
        return self.xx.shape[0]

    @property
    def d(self) -> int:
        return self.d_matrix.shape[1]


def beta(n1: int, n2: int) -> float:
    """Imbalance weight m^(-1/4), m = max(n1,n2)/min(n1,n2); in (0, 1]."""
    if n1 < 1 or n2 < 1:
        raise ValueError("class counts must be positive")
    m = max(n1, n2) / min(n1, n2)
    return math.exp(-math.log(m) / 4.0)


def build_factor(data: LabeledMatrix, stats: ClassStats) -> PopulationFactor:
    pos = np.flatnonzero(data.labels == 1)
    neg = np.flatnonzero(data.labels == -1)
    b = beta(stats.n1, stats.n2)
    D = np.empty((data.n + 1, data.d))
    D[: stats.n1] = data.samples[pos] - stats.u1
    D[stats.n1 : data.n] = data.samples[neg] - stats.u2
    D[data.n] = stats.u1 - stats.u2
    l_tau = np.empty(data.n + 1)
    l_tau[: stats.n1] = 1.0 / stats.n1
    l_tau[stats.n1 : data.n] = 1.0 / stats.n2
    l_tau[data.n] = b
    sqrt_l = np.sqrt(l_tau)
    C = D * sqrt_l[:, None]
    A = C @ C.T
    spectrum, U = np.linalg.eigh((A + A.T) / 2.0)
    basis = sqrt_l[:, None] * U
    X = data.samples
    return PopulationFactor(
        d_matrix=D, l_tau=l_tau, beta=b, n1=stats.n1, n2=stats.n2,
        spectrum=spectrum, basis=basis, xx=X @ X.T, xp=(X @ D.T) @ basis,
    )
