"""Exact small-scale linear-algebra oracle and theoretical-bound evaluators.

Everything here is SVD-based and capped at desk scale; it supplies the
reference least-squares solutions, range-space decompositions and the
convergence-rate constants against which the iterative solvers are checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrix as mx
from . import solvers
from .errors import ConfigError, KmzError, ScaleCapError

SCALE_CAP = 2000  # max allowed min(m, n) for a full SVD

# relative cutoff below which a singular value counts as zero
RANK_RTOL = 1e-14


def _as_dense(A) -> np.ndarray:
    """A as a 2-D array, never written to: a dense handle's own read-only
    entries, a CSR handle made dense, or the array itself."""
    handle = isinstance(A, mx.MatrixHandle)
    if not handle:
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2:
            raise KmzError("oracle expects a matrix")
    if min(A.shape) > SCALE_CAP:
        raise ScaleCapError(f"oracle capped at min(m,n) <= {SCALE_CAP}, got {A.shape}")
    if not handle:
        return A
    return A.dense if A.is_dense else A.csr.toarray()


def _thin_svd(dense: np.ndarray):
    u, s, vt = np.linalg.svd(dense, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise KmzError("oracle called with an all-zero matrix")
    keep = s > s[0] * max(dense.shape) * RANK_RTOL
    return u[:, keep], s[keep], vt[keep]


def svd_least_squares(A, b) -> np.ndarray:
    """Minimum-norm least-squares solution pinv(A) b via full SVD."""
    dense = _as_dense(A)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (dense.shape[0],):
        raise KmzError(f"b length {b.shape} does not match m={dense.shape[0]}")
    u, s, vt = _thin_svd(dense)
    return vt.T @ ((u.T @ b) / s)


def project_range_perp(A, v) -> np.ndarray:
    """Component of v in null(A^T): v - A pinv(A) v."""
    dense = _as_dense(A)
    return np.asarray(v, dtype=np.float64) - dense @ svd_least_squares(dense, v)


@dataclass
class SpectralProfile:
    sigma_min: float      # smallest nonzero singular value
    sigma_max: float
    kappa: float
    frob_sq: float
    alpha: float          # 1 - sigma_min^2 / ||A||_F^2
    gamma: float          # m * max_i ||A^(i)||^2
    min_row_norm_sq: float


def spectral_profile(A) -> SpectralProfile:
    """Singular-value summary plus the greedy-rate constants alpha and gamma."""
    dense = _as_dense(A)
    _, s, _ = _thin_svd(dense)
    row_norms_sq = np.einsum("ij,ij->i", dense, dense)
    frob_sq = float(row_norms_sq.sum())
    smin, smax = float(s[-1]), float(s[0])
    return SpectralProfile(
        sigma_min=smin,
        sigma_max=smax,
        kappa=smax / smin,
        frob_sq=frob_sq,
        alpha=1.0 - smin * smin / frob_sq,
        gamma=float(dense.shape[0] * row_norms_sq.max()),
        min_row_norm_sq=float(row_norms_sq.min()),
    )


# -- Young-type parameter pairing and convergence bounds -------------------------


def young_pair(alpha1: float) -> float:
    """beta1 = alpha1 / (alpha1 - 1), the pairing with alpha1 + beta1 = alpha1*beta1.

    Restricting alpha1 to [1/2, 1) keeps beta1 <= -1, the admissible range of
    the quadratic inequality (r1 + r2)^2 >= alpha1 r1^2 + beta1 r2^2.
    """
    if not 0.5 <= alpha1 < 1.0:
        raise ConfigError(f"alpha1 must lie in [1/2, 1), got {alpha1}")
    return alpha1 / (alpha1 - 1.0)


def rek_bound(profile: SpectralProfile, k: int, xstar_norm_sq: float) -> float:
    """Two-sequence randomized baseline bound from x_0 = 0, whose squared
    error is ||x*||^2: alpha^(k - floor(k/2)) ||x*||^2
    + (alpha^(k - floor(k/2)) + alpha^floor(k/2)) kappa^2 ||x*||^2."""
    a = profile.alpha
    k1 = k // 2
    return (a ** (k - k1) * xstar_norm_sq
            + (a ** (k - k1) + a ** k1) * profile.kappa ** 2 * xstar_norm_sq)


def contraction_rate_check(A, b, omega: int, trials: int, k_max: int, seed: int):
    """Empirical mean of ||z_k - b_perp||^2 vs the alpha^(omega k) envelope.

    Runs the z-sweep only (omega weighted-random column projections per outer
    iteration) across `trials` seeds.  Returns rows (k, empirical_mean,
    envelope) for k = 0..k_max, where envelope = alpha^(omega k) ||b_R(A)||^2.
    """
    if trials < 30:
        raise ConfigError(f"trials must be >= 30 for a stable mean, got {trials}")
    if omega < 1:
        raise ConfigError(f"omega must be >= 1, got {omega}")
    if isinstance(A, mx.MatrixHandle):
        handle = A
    else:
        handle = mx.from_dense(np.asarray(A, dtype=np.float64))
    b = np.asarray(b, dtype=np.float64)
    b_perp = project_range_perp(handle, b)
    b_range_sq = float(np.sum((b - b_perp) ** 2))
    profile = spectral_profile(handle)

    sums = np.zeros(k_max + 1)
    root = np.random.SeedSequence(seed)
    for child in root.spawn(trials):
        rng = np.random.default_rng(child)
        z = b.copy()
        sums[0] += float(np.sum((z - b_perp) ** 2))
        for k in range(1, k_max + 1):
            for _ in range(omega):
                solvers.z_project_column(
                    z, handle, solvers.sample_column_weighted(rng, handle))
            sums[k] += float(np.sum((z - b_perp) ** 2))
    means = sums / trials
    return [(k, float(means[k]), profile.alpha ** (omega * k) * b_range_sq)
            for k in range(k_max + 1)]
