"""Answer checks that use numpy alone, never kmz.

The reference solution is the minimum-norm least-squares solution from
``numpy.linalg.lstsq``.  A check returns a list of failure messages; an
empty list means the answer passed.
"""

from __future__ import annotations

import numpy as np

# Largest excess least-squares residual ||A(x - x_ls)||^2 / ||b||^2 allowed.
# RES <= tol does not bound it: b - Ax - z adds the error of x in range(A) to
# the error of z in null(A^T), and the two can cancel.  EMRK stops with the
# largest excess, up to 1.8e-3 over the seeds in the README; the other methods
# stay below 4e-6.  On the self-test problem an x that is 3% off scores 7e-4,
# 30% off 7e-2, and x = 0 about 1.
EXCESS_LIMIT = {"emrk": 1e-2}
EXCESS_LIMIT_DEFAULT = 1e-4

MEMRK4_REL_ERR_LIMIT = 1e-3   # small-200x50: ||x - x_ls|| / ||x_ls||


def lstsq_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(a, b, rcond=None)[0]


def excess_residual(a: np.ndarray, b: np.ndarray, x: np.ndarray,
                    x_ls: np.ndarray) -> float:
    d = a @ (x - x_ls)
    return float(d @ d) / float(b @ b)


def relative_error(x: np.ndarray, x_ls: np.ndarray) -> float:
    return float(np.linalg.norm(x - x_ls) / np.linalg.norm(x_ls))


def check_cell(label: str, a: np.ndarray, b: np.ndarray, x: np.ndarray,
               x_ls: np.ndarray, converged: bool, tol: float,
               rel_err_limit: float | None = None) -> tuple[list[str], float]:
    """Checks one solver cell of a tolerance workload.

    Returns (failures, excess residual).  The cell must have stopped on
    RES <= tol before max_outer, stay within its method's excess limit and, when
    `rel_err_limit` is given, within that relative error of x_ls.
    """
    failures = []
    if not converged:
        failures.append(f"{label}: stopped at max_outer before RES <= {tol:g}")
    excess = excess_residual(a, b, x, x_ls)
    limit = EXCESS_LIMIT.get(label, EXCESS_LIMIT_DEFAULT)
    if not excess <= limit:
        failures.append(f"{label}: excess residual {excess:.3g} > {limit:g}")
    if rel_err_limit is not None:
        rel = relative_error(x, x_ls)
        if not rel <= rel_err_limit:
            failures.append(f"{label}: relative error {rel:.3g} > {rel_err_limit:g}")
    return failures, excess
