"""Population scatter structure: the combined matrix beta*S_B + S_W, its
low-rank factorization D^T diag(L_tau) D, the spectrum of that factor, and
the training rows' lambda-free Gram products, which the SMW operator shares
across every lambda.

Every row of D is a fixed combination of training rows, D = E X, so all of
it is computed in n-space from one n x n Gram of the mean-centred rows; no
(n+1) x d matrix is formed."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import ClassStats, LabeledMatrix


@dataclass(frozen=True)
class PopulationFactor:
    """Factor of beta*S_B + S_W.

    D = E X, where X holds the training rows (samples, in the data's row
    order) and E the (n+1) x n centring weights: row k < n of D is
    x_i - u_class(i) for the k-th training row in class order (all +1 rows
    first), and the last row is u1 - u2. Every row of E sums to zero, so
    D = E (X - 1 r^T) for any r. The row weights L_tau are 1/n1, 1/n2 and
    beta on the matching rows.

    With C = diag(sqrt(L_tau)) D, the small matrix C C^T = U diag(spectrum) U^T
    has the nonzero eigenvalues of C^T C = beta*S_B + S_W. spectrum is
    ascending and basis is diag(sqrt(L_tau)) U, so C^T U = D^T basis.

    xx = X X^T and xp = X D^T basis are the products of the training rows
    that every lambda's dual Gram shares.
    """

    samples: np.ndarray  # (n, d) the training rows, read-only, not a copy
    e_matrix: np.ndarray  # (n+1, n) centring weights, D = E X
    spectrum: np.ndarray  # (n+1,) eigenvalues of C C^T, ascending
    basis: np.ndarray  # (n+1, n+1) diag(sqrt(L_tau)) times the eigenvectors
    xx: np.ndarray  # (n, n) X X^T
    xp: np.ndarray  # (n, n+1) X D^T basis

    @property
    def n(self) -> int:
        return self.xx.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]


def beta(n1: int, n2: int) -> float:
    """Imbalance weight m^(-1/4), m = max(n1,n2)/min(n1,n2); in (0, 1]."""
    if n1 < 1 or n2 < 1:
        raise ValueError("class counts must be positive")
    m = max(n1, n2) / min(n1, n2)
    return math.exp(-math.log(m) / 4.0)


def build_factor(data: LabeledMatrix, stats: ClassStats) -> PopulationFactor:
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
    # The one d-space step: centre on the training mean r, so that E K E^T
    # does not cancel a large common offset, and form K = Xc Xc^T.
    r = (n1 * stats.u1 + n2 * stats.u2) / n
    Xc = data.samples - r
    K = Xc @ Xc.T
    g = Xc @ r
    EK = E @ K
    sqrt_l = np.sqrt(l_tau)
    A = sqrt_l[:, None] * (EK @ E.T) * sqrt_l[None, :]
    spectrum, U = np.linalg.eigh((A + A.T) / 2.0)
    basis = sqrt_l[:, None] * U
    # X = Xc + 1 r^T, so X X^T = K + g 1^T + 1 g^T + r^T r and
    # X D^T = X Xc^T E^T = (K + 1 g^T) E^T
    return PopulationFactor(
        samples=data.samples, e_matrix=E, spectrum=spectrum, basis=basis,
        xx=K + g[:, None] + g[None, :] + r @ r,
        xp=(EK.T + (E @ g)[None, :]) @ basis,
    )
