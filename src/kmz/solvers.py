"""Iteration kernels and drivers for REK, PREK, EMRK and MEMRK.

All four methods share the two-sequence structure: an auxiliary vector z,
started at b, is driven toward the component of b outside range(A) by column
projections, while x is driven toward the least-squares solution by row
projections against the deflated right-hand side b - z.

Per outer iteration, one loop runs omega column z-steps and then one row
x-step; the methods differ only in how they pick the column and the row:
  REK    norm-weighted random column (omega 1), norm-weighted random row
  PREK   cyclic column (omega 1), norm-weighted random row
  MEMRK  omega norm-weighted random columns, greedy max-|residual| row
  EMRK   MEMRK with omega 1

The stopping statistic is RES_k = ||b - A x_k - z_k||^2 / ||b - A x_0||^2.
The greedy methods need all of r = b - A x - z to pick a row, so they form
it after every outer iteration, from one full mat-vec.  REK and PREK never
read r: on dense matrices with m >= CARRY_MIN_ASPECT n they carry ||r||^2 and A^T r through the
n x n Gram matrix (CarriedResidual) and form r in full only every
RESYNC_EVERY iterations, at trace rows, at the last iteration, and whenever
the carried value is within its error bound of the tolerance.  A solve
stops only on a RES formed in full, so the iterates, iteration counts and
trace rows are those of a full recompute after every iteration.

A norm-weighted draw is an inverse-CDF lookup: bisect_right over the
cumulative squared norms, kept by the matrix handle as Python float lists
(row_table, col_table), finds the index np.searchsorted(side="right") would
on the same float64 values.  solve draws its uniforms through a
UniformStream, which takes them from the generator in blocks; rng.random(B)
gives the same doubles as B scalar calls, so every index, and with it every
iterate, is the one scalar draws would give.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import matrix as mx
from .errors import (ConfigError, DivergenceError, NonFiniteInputError,
                     SolverError, ZeroRowError)

REK = "rek"
PREK = "prek"
EMRK = "emrk"
MEMRK = "memrk"
METHODS = (REK, PREK, EMRK, MEMRK)

DIVERGENCE_CAP = 1e150
# Iterations between full recomputes of r while REK/PREK carry the statistic.
RESYNC_EVERY = 64
# REK/PREK carry the statistic only on dense matrices with m >= 4 n.  The
# carried x-step costs n^2 flops against the m n of the mat-vec it saves, and
# H = A^T A costs n^2 more memory; 4 is the smallest ratio measured (200 x 50:
# 7% faster, 6000 x 500: 4x).  Nearer to square the gain is unmeasured.
CARRY_MIN_ASPECT = 4

log = logging.getLogger(__name__)


@dataclass
class SolverConfig:
    method: str
    omega: int = 1
    tol: float | None = 1e-6  # None: no RES stop, run exactly max_outer
    max_outer: int = 50_000
    seed: int = 0
    x0: np.ndarray | None = None
    trace_every: int = 0  # 0 disables intermediate trace rows

    def validate(self) -> None:
        method = self.method.lower()
        if method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.omega < 1:
            raise ConfigError(f"omega must be >= 1, got {self.omega}")
        if method != MEMRK and self.omega != 1:
            raise ConfigError(f"{method} performs a single z-step; omega must be 1")
        if self.tol is not None and not self.tol > 0:
            raise ConfigError(f"tol must be positive or None, got {self.tol}")
        if self.max_outer < 1:
            raise ConfigError(f"max_outer must be >= 1, got {self.max_outer}")
        if self.trace_every < 0:
            raise ConfigError(f"trace_every must be >= 0, got {self.trace_every}")


@dataclass
class SolveReport:
    x_final: np.ndarray
    outer_iters: int
    final_res: float
    converged: bool
    wall_seconds: float
    trace: list = field(default_factory=list)  # rows (k, res, err_sq or None)
    resyncs: int = 0          # times r = b - A x - z was formed in full
    # largest gap between carried and full ||r||^2 at a recompute, over
    # ||b - A x0||^2 (0 when nothing was carried)
    max_drift: float = 0.0
    # greedy picks of an all-zero row with a zero residual entry, which leave
    # x as it is
    zero_row_skips: int = 0


# -- selection ----------------------------------------------------------------


# Uniforms a UniformStream takes per call of rng.random(B): enough to make
# the call's cost per draw small, and a solve leaves fewer than one block unused.
_UNIFORM_BLOCK = 256


class UniformStream:
    """The uniforms of `rng`, drawn _UNIFORM_BLOCK at a time and handed out in
    order by `random()`.

    `rng.random(B)` yields the same doubles as B calls of `rng.random()`, so
    a stream gives the same sequence as its generator at a fraction of the
    interpreter cost per draw.  It stands in for the generator wherever a
    sampler calls `rng.random()`.
    """

    __slots__ = ("random",)

    def __init__(self, rng: np.random.Generator):
        blocks = iter(lambda: rng.random(_UNIFORM_BLOCK).tolist(), None)
        self.random = itertools.chain.from_iterable(blocks).__next__


def _sample_weighted(rng: np.random.Generator | UniformStream,
                     table: tuple[list, list], what: str) -> int:
    cum, norms_sq = table
    total = cum[-1]
    if total <= 0.0:
        raise SolverError(f"cannot sample a {what} of an all-zero matrix")
    # bisect_right on the float64 values picks what searchsorted(side="right") does
    k = bisect.bisect_right(cum, rng.random() * total)
    if k >= len(cum):
        k = len(cum) - 1
    while norms_sq[k] == 0.0:  # exact plateau boundary hit; walk back
        k -= 1
    return k


def sample_column_weighted(rng: np.random.Generator | UniformStream,
                           A: mx.MatrixHandle) -> int:
    """Draw column j with probability ||A_(j)||^2 / ||A||_F^2 (inverse CDF)."""
    return _sample_weighted(rng, A.col_table, "column")


def sample_row_weighted(rng: np.random.Generator | UniformStream,
                        A: mx.MatrixHandle) -> int:
    """Draw row i with probability ||A^(i)||^2 / ||A||_F^2."""
    return _sample_weighted(rng, A.row_table, "row")


class CyclicColumnCursor:
    """Cyclic column selector that skips zero-norm columns; cursor persists
    across outer iterations."""

    def __init__(self, start: int = 0):
        self.pos = start

    def next(self, A: mx.MatrixHandle) -> int:
        for _ in range(A.n):
            j = self.pos
            self.pos = (self.pos + 1) % A.n
            if A.col_table[1][j] > 0.0:
                return j
        raise SolverError("all columns have zero norm")


def select_max_residual_row(r: np.ndarray) -> int:
    """Smallest index attaining max_i |r_i| (argmax ties break low)."""
    return int(abs(r).argmax())


# -- projection steps -----------------------------------------------------------


def z_project_column(z: np.ndarray, A: mx.MatrixHandle, j: int,
                     carried: "CarriedResidual | None" = None) -> np.ndarray:
    """z -= (A_(j)^T z / ||A_(j)||^2) A_(j), in place; kills column j from z.

    `carried`, when given, is moved along with z.
    """
    nsq = A.col_table[1][j]
    if nsq <= 0.0:
        raise SolverError(f"column {j} has zero norm; cannot project")
    c = mx.col_dot(A, j, z) / nsq
    if carried is not None:
        carried.column_step(j, c)
    return mx.axpy_col(z, A, j, -c)


def x_project_row(x: np.ndarray, A: mx.MatrixHandle, i: int, rhs_i: float,
                  carried: "CarriedResidual | None" = None) -> np.ndarray:
    """x += ((rhs_i - A^(i) x) / ||A^(i)||^2) (A^(i))^T, in place.

    `carried`, when given, is moved along with x.
    """
    nsq = A.row_table[1][i]
    if nsq <= 0.0:
        raise ZeroRowError(i)
    c = (rhs_i - mx.row_dot(A, i, x)) / nsq
    if carried is not None:
        carried.row_step(i, c)
    return mx.axpy_row(x, A, i, c)


def z_multi_step(rng: np.random.Generator, z: np.ndarray, A: mx.MatrixHandle,
                 omega: int) -> np.ndarray:
    """omega successive weighted-random column projections of z, in place."""
    if omega < 1:
        raise ConfigError(f"omega must be >= 1, got {omega}")
    for _ in range(omega):
        z_project_column(z, A, sample_column_weighted(rng, A))
    return z


def residual(A: mx.MatrixHandle, x: np.ndarray, b: np.ndarray,
             z: np.ndarray) -> np.ndarray:
    """r = b - A x - z, recomputed in full."""
    b = np.asarray(b, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if b.shape != (A.m,) or z.shape != (A.m,):
        raise SolverError(f"b/z length mismatch: {b.shape}, {z.shape} vs m={A.m}")
    return b - mx.matvec(A, x) - z


# -- carried stopping statistic ---------------------------------------------------


class CarriedResidual:
    """s = ||r||^2 and g = A^T r for r = b - A x - z, kept up to date through
    the n x n Gram matrix H = A^T A of a dense handle instead of forming r.

    A column step z -= c A_(j) adds c A_(j) to r:
        s += 2 c g_j + c^2 ||A_(j)||^2,   g += c H_j            O(n)
    A row step x += d a_i^T subtracts d A a_i^T from r; with w = H a_i^T:
        s += -2 d a_i.g + d^2 a_i.w,      g -= d w              O(n^2)

    Error bound.  `bound()` bounds |s - fl(||b - A x - z||^2)|, the gap
    between the carried value and a full recompute of the current iterates.
    It is a first-order rounding bound: terms of second order in gamma are
    left out, so it is not rigorous, only far from tight.  It is kept in units of
    gamma = (m + n + 8) eps, from the norms F = ||A||_F >= ||A||_2,
    beta = ||b|| >= ||z|| (column steps are orthogonal projections), R >= ||r||
    and xi >= ||x||, with step lengths l = |c| ||A_(j)|| and l = |d| ||a_i||:
      - a full recompute is off by at most 2 R (F xi + 2 beta) + R^2, once
        at the last reset and once now;
      - a column step adds 2 R beta + 2 (R + l)^2 + 2 |c| G, where G bounds
        the error of g, which grows by F (3 l + beta + R);
      - a row step adds 3 (R + F l)^2 + 2 R F xi + 2 l G, and G grows by
        F (F (3 l + xi) + R).
    These cover the rounding of the stored x and z, of H and w, of the dot
    products and of the updates of s and g.  R grows by the length of each
    step of r (l, or F l for a row step) and xi by l, so both stay upper
    bounds between resets.
    """

    def __init__(self, A: mx.MatrixHandle, b: np.ndarray):
        self.H = A.gram
        self.rows = A.dense
        # norms as Python floats: scalar arithmetic on them is cheaper
        self.col_norms_sq = A.col_table[1]
        self.col_norms = np.sqrt(A.col_norms_sq).tolist()
        self.row_norms = np.sqrt(A.row_norms_sq).tolist()
        self.frob = math.sqrt(A.frob_sq)
        self.b_norm = float(np.linalg.norm(b))
        self.gamma = (A.m + A.n + 8) * float(np.finfo(np.float64).eps)
        # g and w = H a_i share one buffer, so a row step reads a_i.g and
        # a_i.w off a single product
        self.gw = np.empty((2, A.n))
        self.g, self.w = self.gw

    def reset(self, r: np.ndarray, s: float, x: np.ndarray) -> None:
        """Restart from the full residual r of iterate x, with s = r.r."""
        self.s = s
        np.matmul(self.rows.T, r, out=self.g)
        self.xi = float(np.linalg.norm(x))
        recompute = self.frob * self.xi + 2.0 * self.b_norm
        self.R = math.sqrt(s) * (1.0 + self.gamma) + self.gamma * recompute
        self.G = self.frob * (self.R + recompute)
        self.D = (2.0 * recompute + self.R) * self.R

    def column_step(self, j: int, c: float) -> None:
        c = float(c)
        g, R = self.g, self.R
        step = abs(c) * self.col_norms[j]
        self.s += c * (2.0 * g.item(j) + c * self.col_norms_sq[j])
        g += c * self.H[j]
        self.D += 2.0 * (R * self.b_norm + (R + step) ** 2 + abs(c) * self.G)
        self.G += self.frob * (3.0 * step + self.b_norm + R)
        self.R = R + step

    def row_step(self, i: int, d: float) -> None:
        d = float(d)
        a, g, w, R, F = self.rows[i], self.g, self.w, self.R, self.frob
        np.matmul(self.H, a, out=w)
        ag, aw = (self.gw @ a).tolist()
        step = abs(d) * self.row_norms[i]
        self.xi += step
        self.s += d * (d * aw - 2.0 * ag)
        g -= d * w
        self.D += 3.0 * (R + F * step) ** 2 + 2.0 * (R * F * self.xi + step * self.G)
        self.G += F * (F * (3.0 * step + self.xi) + R)
        self.R = R + F * step

    def bound(self) -> float:
        R = self.R
        return self.gamma * (self.D + (2.0 * (self.frob * self.xi + 2.0 * self.b_norm) + R) * R)


# -- driver ---------------------------------------------------------------------


def solve(config: SolverConfig, A: mx.MatrixHandle, b: np.ndarray,
          x_star: np.ndarray | None = None, callback=None) -> SolveReport:
    """Run one method to the RES tolerance or the outer-iteration cap.

    `x_star`, when given, adds the squared solution error to each trace row.
    `callback(k, i, x_prev, x, z)` is invoked after every x-update with the
    pre-update iterate (for step-identity checks); it forces one extra vector
    copy per iteration and is meant for tests and diagnostics.

    With `config.tol` None the run never stops on RES and forms it only for
    trace rows and the report.  Elsewhere RES is formed in full where the
    stop is decided (see the module docstring).  The divergence test runs on
    each full RES, so a carried run that diverges raises at its next full
    recompute at the latest; a run without RES stop tests x every iteration.
    A non-finite entry of b or x0 is rejected before the first iteration.
    """
    config.validate()
    method = config.method.lower()
    if A.frob_sq <= 0.0:
        raise SolverError("cannot solve with an all-zero matrix")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.m,):
        raise SolverError(f"b length {b.shape} does not match m={A.m}")
    if config.x0 is None:
        x = np.zeros(A.n)
    else:
        x = np.array(config.x0, dtype=np.float64)
        if x.shape != (A.n,):
            raise ConfigError(f"x0 length {x.shape} does not match n={A.n}")
    for name, v in (("b", b), ("x0", x)):
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise NonFiniteInputError(name, int(bad[0]), float(v[bad[0]]))

    t0 = time.perf_counter()
    z = b.copy()
    rng = UniformStream(np.random.default_rng(config.seed))
    # Built per call, so a selector rebound on this module is the one called.
    if method == PREK:
        next_column = CyclicColumnCursor().next
    else:
        next_column = functools.partial(sample_column_weighted, rng)
    greedy = method in (EMRK, MEMRK)
    budget = config.tol is None

    ax = mx.matvec(A, x)
    r0 = b - ax
    denom = float(r0 @ r0)

    trace: list = []

    def record(k: int, res: float) -> None:
        err = float(np.sum((x - x_star) ** 2)) if x_star is not None else None
        trace.append((k, res, err))

    if denom == 0.0:
        # x0 already solves the consistent system exactly
        record(0, 0.0)
        return SolveReport(x, 0, 0.0, True, time.perf_counter() - t0, trace)

    # The greedy argmax needs all of r, and without an m x m Gram matrix
    # keeping r current costs a mat-vec; so only REK/PREK on tall dense
    # matrices (CARRY_MIN_ASPECT) carry the statistic.  Every other run with
    # a RES stop recomputes every iteration (period 1, so `carried` is never
    # read below).
    carried = None
    if not (greedy or budget) and A.is_dense and A.m >= CARRY_MIN_ASPECT * A.n:
        carried = CarriedResidual(A, b)
        rvec = b - ax - z
        carried.reset(rvec, float(rvec @ rvec), x)
    period = RESYNC_EVERY if carried is not None else 1

    record(0, 1.0)
    res = 1.0
    converged = False
    k = 0
    last_recorded = 0
    resyncs = 0
    zero_row_skips = 0
    max_drift = 0.0
    row_norms_sq = A.row_table[1]
    for k in range(1, config.max_outer + 1):
        for _ in range(config.omega):
            z_project_column(z, A, next_column(A), carried)
        skip_update = False
        if greedy:
            r = b - ax - z
            i = select_max_residual_row(r)
            if row_norms_sq[i] == 0.0:
                if abs(r[i]) > 0.0:
                    raise ZeroRowError(i)
                skip_update = True  # residual is identically zero
                zero_row_skips += 1
        else:
            i = sample_row_weighted(rng, A)

        x_prev = x.copy() if callback is not None else None
        if not skip_update:
            x_project_row(x, A, i, b.item(i) - z.item(i), carried)
            if greedy:
                ax = mx.matvec(A, x)

        traced = config.trace_every and k % config.trace_every == 0
        exact = traced or k == config.max_outer
        if not budget:
            # Divided like RES, so a skip implies the full RES >= tol; `not >=`
            # so that a NaN carried value also forces a recompute.
            exact = exact or k % period == 0 or \
                not (carried.s - carried.bound()) / denom >= config.tol
        if exact:
            if not greedy:
                ax = mx.matvec(A, x)
            rvec = b - ax - z
            s = float(rvec @ rvec)
            res = s / denom
            resyncs += 1
        if (exact or budget) and \
                not (math.isfinite(res) and abs(x).max() <= DIVERGENCE_CAP):
            raise DivergenceError(f"iterate diverged at outer iteration {k}")
        if exact and carried is not None:
            max_drift = max(max_drift, abs(carried.s - s) / denom)
            carried.reset(rvec, s, x)
        if callback is not None:
            callback(k, i, x_prev, x, z)
        if traced:
            record(k, res)
            last_recorded = k
        if exact and not budget and res < config.tol:
            converged = True
            break

    if last_recorded != k:
        record(k, res)
    log.debug("%s: %d iterations, %d full residual recomputes, max carried "
              "drift %.3g of ||b - A x0||^2, %d zero-row skips", method, k,
              resyncs, max_drift, zero_row_skips)
    return SolveReport(x, k, res, converged, time.perf_counter() - t0, trace,
                       resyncs, max_drift, zero_row_skips)


def write_trace_csv(report: SolveReport, path) -> None:
    """Emit trace rows as CSV: (k, res) or (k, res, err_sq) when errors exist."""
    with_err = any(row[2] is not None for row in report.trace)
    with open(path, "w") as fh:
        fh.write("k,res,err_sq\n" if with_err else "k,res\n")
        for k, res, err in report.trace:
            if with_err:
                fh.write(f"{k},{res:.17g},{'' if err is None else format(err, '.17g')}\n")
            else:
                fh.write(f"{k},{res:.17g}\n")
