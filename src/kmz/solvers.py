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

From x_0 = 0 the stopping statistic is RES_k = ||b - A x_k - z_k||^2 / ||b||^2,
r = b - A x - z, and the greedy methods pick the row of largest |r_i|.
solve forms r by a float64 pass over A only where a residual certificate,
asked through the four calls of ResidualCertificate, cannot certify the
pick or prove that the pass would give RES >= tol and not raise; and at
trace rows and the last iteration.  plan, called once before the loop,
builds what the solve needs and gives one of these:
  AnchoredResidual     EMRK/MEMRK on a dense matrix of at least
                       _SHADOW_MIN_ENTRIES entries: r anchored at the last
                       float64 pass and bounded entrywise, advanced by one of
                       two increment sources:
    GramResidual       one column of the handle's int16 row cosines per
                       x-step, where they fit (matrix._fits_cosines);
    ResidualShadow     else one float32 pass over A per x-step.
  ResidualFloor        REK/PREK with a RES stop: a lower bound on ||r||
                       moved at O(1) per step and, where the handle keeps
                       A^T A (matrix._keeps_gram: where formed and A's bytes
                       reach 2^19; up to A's bytes), rebuilt in O(n) from the
                       tangent plane of ||A eta||^2 at the last O(n^2)
                       refresh, or else by a new refresh.
  ResidualCertificate  elsewhere: certifies nothing (the exact path).
A solve stops only on a RES formed in full, and every pick is the float64
argmax, so the iterates, iteration counts, trace rows and the iteration a
divergence is raised at are those of the exact path.

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
import contextlib
import functools
import itertools
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import matrix as mx
from .matrix import _DOWN, _EPS, _SUB, _UP
from .errors import (ConfigError, DivergenceError, NonFiniteInputError,
                     SolverError, ZeroRowError)

REK = "rek"
PREK = "prek"
EMRK = "emrk"
MEMRK = "memrk"
METHODS = (REK, PREK, EMRK, MEMRK)

DIVERGENCE_CAP = 1e150

log = logging.getLogger(__name__)


@dataclass
class SolverConfig:
    method: str
    omega: int = 1
    tol: float | None = 1e-6  # None: no RES stop, run exactly max_outer
    max_outer: int = 50_000
    seed: int = 0
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
    resyncs: int = 0          # RES formed in full: stop tests, trace rows
    floor_refreshes: int = 0  # O(n^2) rebuilds of the REK/PREK floor
    floor_tangents: int = 0   # its O(n) rebuilds from the tangent plane
    # greedy picks of an all-zero row, which leave x as it is
    zero_row_skips: int = 0
    shadow_passes: int = 0    # float32 passes of a greedy ResidualShadow
    full_passes: int = 0      # float64 passes over A (mat-vecs)
    gram_steps: int = 0       # x-steps a GramResidual advanced r~ by
    # greedy picks an AnchoredResidual settled from its candidate rows
    settled_picks: int = 0
    # seconds of each one-off build of the solve, by name (see plan)
    build_seconds: dict = field(default_factory=dict)
    col_steps: int = 0        # z-steps: omega per outer iteration
    row_steps: int = 0        # x-steps: outer iterations less zero-row skips


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

    def __init__(self):
        self.pos = 0

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
                     floor: "ResidualCertificate | None" = None
                     ) -> np.ndarray:
    """z -= (A_(j)^T z / ||A_(j)||^2) A_(j), in place; kills column j from z.

    `floor`, when given (a certificate's `stepped`), is moved along with z.
    """
    nsq = A.col_table[1][j]
    if nsq <= 0.0:
        raise SolverError(f"column {j} has zero norm; cannot project")
    c = mx.col_dot(A, j, z) / nsq
    if floor is not None:
        floor.column_step(j, c)
    return mx.axpy_col(z, A, j, -c)


def x_project_row(x: np.ndarray, A: mx.MatrixHandle, i: int, rhs_i: float,
                  floor: "ResidualCertificate | None" = None,
                  xs: np.ndarray | None = None) -> np.ndarray:
    """x += ((rhs_i - A^(i) x) / ||A^(i)||^2) (A^(i))^T, in place.

    `floor`, when given (a certificate's `stepped`: a ResidualFloor or a
    GramResidual), is moved along with x; `xs`, a matrix.row_buffer of A,
    is handed to matrix.row_dot.
    """
    nsq = A.row_table[1][i]
    if nsq <= 0.0:
        raise ZeroRowError(i)
    c = (rhs_i - mx.row_dot(A, i, x, xs)) / nsq
    if floor is not None:
        floor.row_step(i, c)
    return mx.axpy_row(x, A, i, c)


def residual(A: mx.MatrixHandle, x: np.ndarray, b: np.ndarray,
             z: np.ndarray) -> np.ndarray:
    """r = b - A x - z, recomputed in full."""
    b = np.asarray(b, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if b.shape != (A.m,) or z.shape != (A.m,):
        raise SolverError(f"b/z length mismatch: {b.shape}, {z.shape} vs m={A.m}")
    return b - mx.matvec(A, x) - z


# -- residual certificates ----------------------------------------------------


def _row_bounds(A: mx.MatrixHandle) -> tuple[float, float, np.ndarray]:
    """(gamma, tau, N), the row terms of the certificates of A: gamma = (m +
    n + 8) eps, tau = sqrt(n 2^-1074) (1 + gamma) and N_i = ||a_i||^ + tau,
    ||a_i||^ = fl(sqrt(s_i)) the root of the handle's squared norm s_i.
    That sum of n squares errs by gamma_n(eps/2) relatively, so ||a_i||^
    by (n/4 + 1/2) eps with the root, and, where products underflow, by n
    2^-1075 absolutely, which tau takes as sqrt(p + q) <= sqrt(p) +
    sqrt(q): ||a_i|| <= N_i (1 + (n/4 + 1) eps).  N_i is not raised to an
    upper bound; each use has room for that relative excess of ||a_i||."""
    g = (A.m + A.n + 8) * _EPS
    tau = math.sqrt(A.n * _SUB) * (1.0 + g)
    return g, tau, np.sqrt(A.row_norms_sq) + tau


class ResidualCertificate:
    """The four calls solve makes about r = b - A x - z instead of forming it:
      - advance(x), after an x-step that no float64 pass follows at once;
      - pick(z), the row a float64 pass would pick, argmax |r^|, or -1;
      - excludes_stop(z, tol_denom, denom), True when a float64 pass now is
        certain to give a finite RES >= tol and x within DIVERGENCE_CAP;
        `tol_denom` is tol * denom * (1 + 4 eps);
      - anchor(x, z, u, s), after a float64 pass u = fl(b - fl(A x)) and
        wherever RES is formed from it: s = fl(r.r), r = fl(u - z), or None
        after a pass that only a pick needed.
    This base certifies nothing, so every pick and stop test takes a float64
    pass: the exact path, which the other certificates must reproduce.
    z_project_column and x_project_row move `stepped`, if not None, with
    each step; floor_refreshes, floor_tangents, shadow_passes, gram_steps
    and settled_picks count a certificate's work.
    """

    __slots__ = ()
    stepped = None
    floor_refreshes = floor_tangents = shadow_passes = gram_steps = 0
    settled_picks = 0

    def advance(self, x: np.ndarray) -> None:
        pass

    def pick(self, z: np.ndarray) -> int:
        return -1

    def excludes_stop(self, z: np.ndarray, tol_denom: float,
                      denom: float) -> bool:
        return False

    def anchor(self, x: np.ndarray, z: np.ndarray, u: np.ndarray,
               s: float | None) -> None:
        pass


class ResidualFloor(ResidualCertificate):
    """The certificate of REK/PREK with a RES stop: a lower bound L on ||r||,
    r = b - A x - z of the stored iterates, with upper bounds xi >= ||x|| and
    zeta >= ||z||, moved along with x and z at O(1) scalar cost per step
    instead of forming r.  z must start at b.  It picks no row.  Where the
    step updates cannot exclude a stop, L is rebuilt by the tangent tier in
    O(n), and then, if that fails too, by a refresh in O(n^2).

    With gamma = (m + n + 8) eps and F >= ||A||_F, the terms are:
      - Anchor, after a full recompute r^ = fl(fl(b - fl(A x)) - z) and
        s^ = fl(r^.r^).  fl(A x) errs by at most gamma_n |A| |x| entrywise,
        and || |A| |x| || <= F ||x||; fl(b - fl(A x)) errs by at most
        eps (|b| + |fl(A x)|).  The last subtraction errs by at most eps |r^|,
        relative to its own result, so z adds no term: r^ is within
        gamma (||b|| + F ||x||) + eps ||r^|| of r.  With s^ <= ||r^||^2
        (1 + gamma_m), the factor 1 - gamma takes both relative terms:
        L = sqrt(s^) (1 - gamma) - gamma (||b|| + F ||x||).
      - Column step, z' = fl(z - c A_(j)).  r moves by c A_(j), of length
        t = |c| ||A_(j)||, and by the rounding of the stored z', at most
        3 eps (||z|| + t) <= e = gamma (zeta + t).  Here ||z|| does count:
        z' is rounded relative to its own size, which may dwarf ||r||.
        L -= t + e; zeta += t + e.  Where the floor refreshes, also
        c^_j = fl(c^_j + c) and D += e + eps ||A_(j)|| |c^_j| (see Refresh).
      - Row step, x' = fl(x + d a_i^T).  r moves by d A a_i^T, of length at
        most |d| reach_i (matrix.build_row_reach), and by A times the
        rounding of the stored x', at most F e, e = gamma (xi + |d| ||a_i||).
        L -= |d| reach_i + F e; xi += |d| ||a_i|| + e.
      - Refresh (`refresh`, only where the handle keeps H^ = fl(A^T A)).
        z starts at b, and every column step subtracts c A_(j) exactly and
        adds its rounding, so b - z = A g - Delta exactly, g_j the exact sum
        of the coefficients c of the steps on column j and ||Delta|| at most
        the sum of their e.  Hence r = A (g - x) - Delta for the stored x,
        whose own rounding needs no term.  The floor keeps c^, the float
        sums of the same c's; each add errs by at most eps/2 |c^_j| of its
        result (Higham, Accuracy and Stability of Numerical Algorithms,
        2002, sec. 2.2), so ||A (g - c^)|| is at most the sum of the
        eps/2 ||A_(j)|| |c^_j|.  So ||r|| >= ||A (c^ - x)|| - D, D the sum
        over the column steps of e + eps ||A_(j)|| |c^_j| (eps, not eps/2,
        covers the roundings of the sum).  For eta^ = fl(c^ - x),
        ||A (c^ - x - eta^)|| <= eps/2 F ||eta^||.  q^ = fl(eta^.fl(H^ eta^))
        is within (gamma_m + 2 gamma_n) || |A| |eta^| ||^2 <= (m + 2n) eps
        F^2 ||eta^||^2 of ||A eta^||^2, to first order: gamma_m for H^,
        gamma_n for each product, in any order of summation (sec. 3.1).
        With a = ||A eta^|| <= F ||eta^||, (a - eps/2 F ||eta^||)^2 >= a^2 -
        eps F^2 ||eta^||^2, so ||A (c^ - x)||^2 >= q^ - 2 gamma F^2 e^, e^ =
        fl(eta^.eta^): 2 gamma exceeds the (m + 2n + 1) eps needed by
        (m + 15) eps, which covers e^'s own rounding and second-order terms.
        L = max(L, sqrt(max(q^ - 2 gamma F^2 e^, 0)) (1 - gamma) - D), the
        factor 1 - gamma covering the difference and the square root (a NaN
        or inf leaves L as it is); xi and zeta stay.  Unlike the step
        terms, no term here grows with the lengths of the steps: only D
        grows, by about gamma (zeta + t) per column step.
      - Tangent (`tangent`, tried before a refresh once one has run).  The
        last refresh also keeps its eta^0 = eta^, p^ = fl(H^ eta^0) and Q0 =
        q^ - 2 gamma F^2 e^ - U, a lower bound on ||A eta^0||^2 by the
        refresh's argument, which needs (m + 2n) eps F^2 e^ here, as eta^0
        is itself the float vector: Q0 spares (m + 16) eps F^2 e^, less the
        second-order terms.  For G = A^T A and any eta, ||A eta||^2 =
        ||A eta^0||^2 + 2 (G eta^0).delta + ||A delta||^2 >= ||A eta^0||^2
        + 2 (G eta^0).delta, delta = eta - eta^0: a convex function lies
        above its tangent plane.  The tier takes eta = c^ - x exactly and
        forms d^ = fl(fl(c^ - x) - eta^0), t^ = fl(p^.d^) and f =
        fl(sqrt(fl(d^.d^) + n 2^-1074)) >= ||d^|| (1 - (n/4 + 1) eps), a
        few n-vector operations and no read of H^.  |p^| <= (1 + gamma) |A|^T
        |A| |eta^0| entrywise, so ||p^|| <= (1 + gamma) F^2 ||eta^0||, and
        (G eta^0).delta differs from t^ by at most:
        - p^ against G eta^0.  |H^ - G| <= gamma_m |A|^T |A| and
          fl(H^ eta^0) errs by gamma_n |H^| |eta^0|, so by (m + n) eps
          || |A| |eta^0| || || |A| |delta| || <= (m + n) eps F^2 ||eta^0||
          ||delta||, to first order, with ||delta|| <= ||d^|| (1 + eps) + eps/2
          ||eta^0||.
        - The difference and the dot.  d^ is within eps/2 |d^| of eta^ -
          eta^0, eta^ = fl(c^ - x), and t^ within gamma_n |p^|.|d^| of
          p^.d^: (n + 1) eps ||p^|| ||d^||.
        - The rounding of eta^, within eps/2 |eta^| of c^ - x: eps/2 ||p^||
          (||eta^0|| + ||d^|| (1 + eps)).
        Twice their sum is at most 2 (m + 2n + 2) eps F^2 ||eta^0|| ||d^||
        (1 + eps) plus
        eps (1 + (m + n) eps) F^2 e^, which Q0 spares, so the tier
        subtracts one term, 4 gamma F^2 r0 f, r0 = fl(sqrt(e')), whose
        coefficient exceeds that need by (2m + 28) eps: enough for the
        roundings of T, 3 eps (|Q0| + 2 |t^|), the rest of which Q0 spares,
        and, for n < 2^20, for the (n/4 + 1) eps by which r0 and f may each
        fall short of ||eta^0|| and ||d^|| (1 + eps).  Underflow: t^
        may lose n 2^-1075, which Q0's U spares, as it covers q^'s losses
        four times over; each entry of p^ may err by (m ||eta^0||_1 + n)
        2^-1075 more (the refresh's), and ||eta^0||_1 <= sqrt(n e^),
        ||delta||_1 <= sqrt(n) ||delta||: the term n (m ||eta^0|| +
        sqrt(n)) f 2^-1073, twice what 2 t^ needs, and Q0's U spares the
        eps/2 ||eta^0|| part of ||delta||.  A difference of floats
        that underflows is exact.  So ||A (c^ - x)||^2 >= T = Q0 + 2 t^ less
        these two terms, and L = max(L, sqrt(max(T, 0)) (1 - gamma) - D),
        as for a refresh.  Where the tier cannot prove the stop, the
        refresh runs and moves eta^0 to the current c^ - x.  Its bound is
        as tight as the refresh's while ||A delta||^2 is small beside
        ||A eta^0||^2.
      - Stop test.  A full recompute here would give, by the anchor's
        argument, ||r^|| (1 + eps) >= M = L - gamma (||b|| + F xi), so if
        M > 0 then s^ >= M^2 (1 - gamma), and M^2 (1 - gamma) >=
        tol denom (1 + 4 eps) proves fl(s^ / denom) >= tol.  The recompute
        is skipped only if it would not raise either: xi <= DIVERGENCE_CAP
        bounds max |x|, and with U = ||b|| + F xi + zeta every entry and
        partial sum of fl(A x) and r^ is at most U (1 + gamma) in size and
        s^ <= U^2 (1 + 3 gamma), so 2 U^2 / denom finite keeps its RES
        finite.
      - Underflow.  A product below 2^-1022 may err by up to 2^-1075
        absolutely, which no relative term covers (a sum of subnormal
        numbers is exact).  A sum of k squares may so lose k 2^-1075, and
        each norm above is also raised by sqrt(k) 2^-537 (1 + gamma),
        k = n for ||a_i|| and ||x||, m for ||A_(j)||, ||z|| and ||b||, m n
        for F.  ||b|| is raised by 2 rho / gamma more, rho = sqrt(m) 2^-537
        (1 + gamma), so that the anchor's gamma ||b|| also takes rho for
        the products of fl(A x) and s^ (n sqrt(m) 2^-1075 and m 2^-1075,
        under the square root), and the stop test's takes 2 rho: M0 = M +
        rho bounds ||r^|| as above, and M > 0 gives M0^2 >= M^2 + rho^2, so
        s^ >= M0^2 (1 - gamma) - m 2^-1075 >= M^2 (1 - gamma).  The entries
        of c A_(j) and d a_i^T may lose sqrt(m) and sqrt(n) 2^-1075 in
        norm, which gamma zeta and gamma xi cover, as zeta and xi are
        raised like ||z|| and ||x||.  The refresh takes e' = e^ + n 2^-1074
        for e^ and subtracts U = (m n e' + n sqrt(n e') + n) 2^-1073 from
        q^: the entries of H^ err by up to m 2^-1075 more, fl(H^ eta^)_k by
        m ||eta^||_1 2^-1075 + n 2^-1075 and q^ by (m ||eta^||_1^2 + n
        ||eta^||_1 + n) 2^-1075, ||eta^||_1^2 <= n e'; row_reach covers its
        own.
    ||x|| and ||z|| at an anchor are stored times 1 + gamma, which covers
    their own rounding.  ||A_(j)||, ||a_i|| (N_i, _row_bounds), F and ||b||
    are stored as computed, fl(sqrt(fl(sum of k squares))) within (k/4 +
    1) eps of the norm relatively (k = m, n, m n, m), plus their underflow
    terms: every use has room for that.  F and ||b|| are
    multiplied by gamma wherever they bound a rounding, in the anchor, the
    stop test and the refresh and tangent terms, whose coefficients exceed
    their need by at least 8 eps, and the stop test's 2 U^2 has a factor 2
    to spare; ||A_(j)|| and ||a_i|| give t, whose deficit of up to (k/4 +
    1) eps t the step's e = gamma (zeta + t) or gamma (xi + t) takes beside
    the 3 eps (||z|| + t) of z', or the rounding of x' (D's eps |c^_j|
    ||A_(j)|| is twice its need).  Each update
    rounds L down and xi, zeta, D up (_DOWN, _UP).  gamma exceeds the
    gamma_m and (n + 3) eps needed above by at least 8 eps, which covers
    the few roundings inside each formula.  A NaN or inf fails the stop
    test, so it forces a recompute.
    """

    __slots__ = ("m", "n", "gamma", "reach", "H", "col_norms", "row_norms",
                 "frob", "b_norm", "rho_m", "rho_n", "L", "xi", "zeta", "coef",
                 "drift", "x", "eta0", "p", "Q0", "slope",
                 "floor_refreshes", "floor_tangents")

    def __init__(self, A: mx.MatrixHandle, b: np.ndarray, reach: list,
                 H: np.ndarray | None):
        # the handle's row_reach and A^T A, None where a refresh won't pay
        self.m, self.n = m, n = A.m, A.n
        g, self.rho_n, row_norms = _row_bounds(A)
        self.gamma = g
        # what a sum of m squares may lose to underflow, under the square root
        self.rho_m = math.sqrt(m * _SUB) * (1.0 + g)
        self.reach, self.H = reach, H
        # c^ and D, kept only where a refresh can use them
        self.coef = None if self.H is None else np.zeros(A.n)
        self.drift = 0.0
        # norms as Python floats: scalar arithmetic on them is cheaper
        self.col_norms = (np.sqrt(A.col_norms_sq) + self.rho_m).tolist()
        self.row_norms = row_norms.tolist()
        self.frob = math.sqrt(A.frob_sq) + math.sqrt(m * n * _SUB)
        self.b_norm = float(np.linalg.norm(b)) + self.rho_m * (1.0 + 2.0 / g)
        self.p = None  # the tangent tier's, set by the first refresh
        self.floor_refreshes = self.floor_tangents = 0

    @property
    def stepped(self) -> "ResidualFloor":
        return self

    def advance(self, x: np.ndarray) -> None:
        self.x = x

    def anchor(self, x: np.ndarray, z: np.ndarray, u: np.ndarray,
               s: float) -> None:
        """Restart from a full recompute of the current iterates, s = fl(r.r)."""
        g = self.gamma
        self.xi = math.sqrt(x.dot(x)) * (1.0 + g) + self.rho_n
        self.zeta = math.sqrt(z.dot(z)) * (1.0 + g) + self.rho_m
        self.L = (math.sqrt(s) * (1.0 - g)
                  - g * (self.b_norm + self.frob * self.xi)) * _DOWN

    def refresh(self, x: np.ndarray) -> None:
        """Raise L to the bound rebuilt from H^ and c^, and expand the
        tangent tier at eta^ = fl(c^ - x); O(n^2), counted."""
        self.floor_refreshes += 1
        g, m, n = self.gamma, self.m, self.n
        d = self.coef - x
        e = float(d @ d) + n * _SUB
        p = self.H @ d
        q = float(d @ p)
        under = (m * n * e + n * math.sqrt(n * e) + n) * 2.0 * _SUB
        self.eta0, self.p = d, p
        self.Q0 = q - 2.0 * g * self.frob * self.frob * e - under
        # the tangent tier's terms per unit of f: rounding, then underflow
        r0 = math.sqrt(e)  # ||eta^0||, see the tangent tier
        self.slope = 4.0 * g * self.frob * self.frob * r0 \
            + n * (m * r0 + math.sqrt(n)) * 2.0 * _SUB
        self._raise(self.Q0)

    def tangent(self, x: np.ndarray) -> None:
        """Raise L to the bound from the tangent plane of ||A eta||^2 at the
        last refresh's eta^0; O(n), counted."""
        self.floor_tangents += 1
        d = self.coef - x
        d -= self.eta0
        f = math.sqrt(float(d.dot(d)) + self.n * _SUB)
        self._raise(self.Q0 + 2.0 * float(self.p.dot(d)) - self.slope * f)

    def _raise(self, T: float) -> None:
        """L = max(L, sqrt(max(T, 0)) (1 - gamma) - D) for a lower bound T
        on ||A (c^ - x)||^2; a NaN or inf leaves L as it is."""
        L = (math.sqrt(max(T, 0.0)) * (1.0 - self.gamma) - self.drift) * _DOWN
        if self.L < L < math.inf:
            self.L = L

    def column_step(self, j: int, c: float) -> None:
        t = abs(c) * self.col_norms[j]
        e = self.gamma * (self.zeta + t)
        self.L = (self.L - (t + e)) * _DOWN
        self.zeta = (self.zeta + t + e) * _UP
        if self.coef is not None:
            s = self.coef.item(j) + c
            self.coef[j] = s
            self.drift = (self.drift + e
                          + _EPS * abs(s) * self.col_norms[j]) * _UP

    def row_step(self, i: int, d: float) -> None:
        t = abs(d) * self.row_norms[i]
        e = self.gamma * (self.xi + t)
        self.L = (self.L - (abs(d) * self.reach[i] + self.frob * e)) * _DOWN
        self.xi = (self.xi + t + e) * _UP

    def excludes_stop(self, z: np.ndarray, tol_denom: float,
                      denom: float) -> bool:
        """From L as it stands or, where that fails and H^ is kept, from L
        raised by the tangent tier and then, if that fails too, by a
        refresh, both at the last advanced x (neither moves xi or zeta)."""
        g = self.gamma
        far = self.b_norm + self.frob * self.xi
        U = (far + self.zeta) * _UP
        if not (self.xi <= DIVERGENCE_CAP and 2.0 * U * U / denom < math.inf):
            return False
        rebuilds = () if self.H is None else (
            (self.refresh,) if self.p is None else (self.tangent, self.refresh))
        for rebuild in (None, *rebuilds):
            if rebuild is not None:
                rebuild(self.x)
            M = self.L - g * far
            if M > 0.0 and tol_denom <= M * M * (1.0 - g) < math.inf:
                return True
        return False


# -- anchored greedy residual --------------------------------------------------

_U32 = 2.0 ** -24   # float32 unit roundoff
_TINY = 2.0 ** -126  # float32's smallest normal number
# Fewest dense entries for which EMRK/MEMRK use an AnchoredResidual: below it
# its increments and bound save less than they cost (BENCH_greedy_shadow.json).
_SHADOW_MIN_ENTRIES = 1 << 18


class AnchoredResidual(ResidualCertificate):
    """The certificate of EMRK/MEMRK on a dense handle: the greedy pick and
    the stop test from an anchored residual instead of a float64 pass.

    Each float64 pass at an iterate x_a forms u_a = fl(b - fl(A x_a)), and
    `anchor` restarts from it.  After the x-steps to x, a subclass, the
    increment source, forms v~ from u_a and sets, in `advance`, scalars
    lam and beta such that with the current z, r~ = fl(v~ - z) stands in
    for the r^ = fl(fl(b - fl(A x)) - z) that a float64 pass forms:
      |r~_i - r^_i| <= e_i = lam N_i + beta + 3 eps |r~_i|,
    and w_norm = lam fl(||N||), within (m/4 + 1/2) eps of ||(lam N_i)_i||
    relatively (see the stop test).  There are two
    sources: ResidualShadow, one float32 pass over A per x-step, and
    GramResidual, one column of the int16 row cosines per x-step.  With
    eps, gamma, tau and N_i (`norms`) from _row_bounds, a_i row i of A, and
    ||a_i|| <= N_i (1 + (n/4 + 1) eps), the terms both share are:
      - The two float64 passes.  fl(a_i x) and fl(a_i x_a) err by at most
        gamma_n(eps/2) |a_i| |x| <= n eps/2 (1 + n eps) ||a_i|| ||x||, and
        the same with x_a (Higham, Accuracy and Stability of Numerical
        Algorithms, 2002, sec. 3.1), and by n 2^-1075 of underflow, which
        each source covers.  fl(b_i - p) errs by at most eps/2 |b_i - p|,
        and |b_i - p| is at most |u_a_i| (1 + eps) for u_a and |u_a_i| (1
        + eps) + ||a_i|| ||x - x_a|| + n eps ||a_i|| (||x|| + ||x_a||) for
        r^: together eps (1 + eps) ||u_a||_inf + eps/2 ||a_i|| ||x - x_a||
        and the second-order n eps^2/2 ||a_i|| (||x|| + ||x_a||).  lam
        holds c_x (||x|| + ||x_a||), c_x = n eps, and beta 2 eps
        ||u_a||_inf; c_x exceeds the passes' n eps/2 (1 + n eps) by nearly
        n eps/2, which takes the second-order term, so (n + 1) eps is not
        needed, and the (n/4 + 1/2) eps by which fl(sqrt(fl(x.x))), the
        ||x|| and ||x_a|| the sources take, may fall short of the norm.
        Each source covers eps/2 ||a_i|| ||x - x_a||.
      - The last subtractions of r~ and r^ err by at most eps/2 |r~_i| and
        eps/2 |r^_i| (relative to their results), and |r^_i| <= |r~_i| +
        e_i; solved for e_i this puts 1 / (1 - eps) on the sum and adds
        2 eps |r~_i| / (1 - eps) <= 3 eps |r~_i|.
      - Pick (`pick`).  i* = argmax |r~| is certified when lo = |r~_i*| -
        e_i* > |r~_j| + e_j for every j != i*, using |r~_j| <= |r~_i*| in
        e_j; then |r^_i*| > |r^_j|, so argmax |r^| = i* with no tie.  It
        is tested first with max_j N_j for every N_j, which needs no
        m-vector of the e_j.  e_i* and the right side are each taken times
        1 + 4 eps, which covers the roundings of both sides.  A row of
        squared norm 0 is all zero (MatrixHandle rejects any other), so
        both sources leave v~_l = u_a_l = b_l and r~_l = fl(b_l - z_l) = 0
        there: at i* it gives lo <= 0, so neither a certified nor a settled
        pick is such a row.
      - Settled pick (`settle`), where that fails with 0 < lo and the last
        pick was certified or the last pass came after it.  The candidates
        S are the rows j with |r~_j| + e_j >= lo, i* among them; every
        other row has |r^_j| < lo <= |r^_i*|, so a row that beats the other
        candidates beats the excluded rows too.  For l in S, settle forms
        p_l = fl(a_l x) from the rows of S (MatrixHandle.rows), u_l =
        fl(b_l - p_l) and rho_l = fl(u_l - z_l).  p_l and the pass's
        fl(a_l x) sum in different orders, each within n eps/2 (1 + n eps)
        ||a_l|| ||x|| and n 2^-1075 of underflow of a_l x: |p_l - p'_l| <=
        P_l = n eps (1 + n eps) ||a_l|| ||x|| + n 2^-1074.  With X =
        fl(sqrt(fl(x.x))), N_l X >= ||a_l|| ||x|| (1 - (n/2 + 2) eps), so 2
        c_x N_l X + n 2^-1073 is nearly twice P_l.  fl(b_l - p) and fl(b_l -
        p') differ by at most P_l (1 + eps) + eps |u_l| (1 + eps), since
        |b_l - p_l| <= |u_l| (1 + eps), and the last subtractions add eps
        |rho_l| (1 + eps) more, so |rho_l - r^_l| <= delta_l = (2 c_x N_l X
        + eps (|u_l| + |rho_l|) + n 2^-1072) (1 + 4 eps), the spare of its
        first term taking P_l's factor 1 + eps.  k = argmax |rho_S| is
        the pick when |rho_k| - delta_k > |rho_j| + delta_j for every other
        j in S, each side taken times 1 + 4 eps; else -1.  A pick after a
        settled one is not settled: a bound that needed settling gets the
        pass, which re-anchors it.
      - Stop test (`excludes_stop`).  ||r^|| >= ||r~|| - ||e|| and ||e|| <=
        w_norm + beta sqrt(m) + 3 eps ||r~||; with M <= ||r~|| - ||e||, M
        > 0, a float64 pass would give s^ >= M^2 (below), so M^2 >= tol
        denom (1 + 4 eps) proves fl(s^ / denom) >= tol, as in
        ResidualFloor.  fl(sqrt(fl(r~.r~))) is within (m/4 + 1/2) eps of
        ||r~|| relatively, so M takes ||r~|| as that times 1 - gamma, at
        least (3m/4 + n + 7) eps ||r~|| >= 8.75 eps ||r~|| below it, and U
        as that times 1 + gamma, as far above: the spare takes the 3 eps
        ||r~|| of ||e||, which needs no term of its own.  M > 0 puts ||r~||
        above w_norm + beta sqrt(m), so the spare also takes the (m/4 + 1/2)
        eps of fl(||N||) and the eps/2 of fl(sqrt(m)).  It also needs 2
        (||r~|| + ||e||)^2 / denom finite, which bounds the RES a float64
        pass would form, and max |x| <= DIVERGENCE_CAP, so the pass it
        skips would neither stop the run nor raise.  The spare of M's
        factor 1 - gamma, at least (3m/4 + n + 4) eps ||r~|| after the
        terms above, is (3m/2 + 2n + 8) eps on M^2, beyond the (m/2 + 1)
        eps by which s^ may fall short of ||r^||^2, so M^2 needs no factor
        1 - gamma of its own.
    A source sets beta = inf, so that no test passes, where it cannot
    bound its increment or max |x| > DIVERGENCE_CAP.  A NaN fails every
    test.
    """

    __slots__ = ("A", "b", "gamma", "tau", "norms", "norm_max", "frob",
                 "root_m", "c_x", "res", "buf", "x", "x_norm",
                 "x_a_norm", "u_a", "u_a_term", "v", "lam", "beta", "w_norm",
                 "settled", "settled_picks")

    def __init__(self, A: mx.MatrixHandle, b: np.ndarray):
        m, n = A.m, A.n
        self.A, self.b = A, b
        g, self.tau, self.norms = _row_bounds(A)
        self.gamma = g
        self.norm_max = float(self.norms.max())
        self.frob = float(np.linalg.norm(self.norms))
        self.root_m = math.sqrt(m)
        self.c_x = n * _EPS
        self.res, self.buf = np.empty(m), np.empty(m)
        self.settled_picks = 0

    def anchor(self, x: np.ndarray, z: np.ndarray, u: np.ndarray,
               s: float | None) -> None:
        """Restart from a float64 pass at x, u = fl(b - fl(A x))."""
        # x beyond DIVERGENCE_CAP may overflow ||x||; solve raises next
        with np.errstate(over="ignore"):
            self.x_a_norm = math.sqrt(x.dot(x))
        self.u_a = u
        self.u_a_term = 2.0 * _EPS * float(abs(u).max())
        self.settled = False

    def bound(self, r: np.ndarray) -> np.ndarray:
        """e, entrywise, for r = r~ = fl(v~ - z)."""
        return self.lam * self.norms + self.beta + 3.0 * _EPS * abs(r)

    def pick(self, z: np.ndarray) -> int:
        """The row a float64 pass would pick, argmax |r^|, certified by the
        bound or settled from the candidate rows; -1 where neither can."""
        a = np.abs(np.subtract(self.v, z, out=self.res), out=self.res)
        i = int(a.argmax())
        top = a.item(i)
        if not top < math.inf:
            return -1
        beta = self.beta + 3.0 * _EPS * top
        lo = top - (self.lam * self.norms.item(i) + beta) * _UP
        a[i] = -math.inf
        # first with max N for every N_j, a test of one pass over |r~|
        rest = (float(a.max()) + self.lam * self.norm_max + beta) * _UP
        if not lo > rest:
            up = np.multiply(self.norms, self.lam, out=self.buf)
            up += a
            rest = (float(up.max()) + beta) * _UP
        if lo > rest:
            self.settled = False
            return i
        if self.settled or not (lo > 0.0 and rest < math.inf):
            return -1
        up += beta
        up *= _UP
        up[i] = math.inf
        return self.settle(np.flatnonzero(up >= lo), z)

    def settle(self, S: np.ndarray, z: np.ndarray) -> int:
        """The row of S whose residual, formed from its row of A, beats
        those of the other rows of S by more than their bounds; else -1."""
        with np.errstate(over="ignore", invalid="ignore"):
            u = self.b[S] - self.A.rows[S] @ self.x
            rho = abs(u - z[S])
            delta = (2.0 * self.c_x * self.x_norm * self.norms[S]
                     + _EPS * (abs(u) + rho) + 4.0 * self.A.n * _SUB) * _UP
        k = int(rho.argmax())
        low = rho.item(k) - delta.item(k) * _UP
        high = (rho + delta) * _UP
        high[k] = -math.inf
        row = int(S[k])
        if not low > float(high.max()):
            return -1
        self.settled = True
        self.settled_picks += 1
        return row

    def excludes_stop(self, z: np.ndarray, tol_denom: float,
                      denom: float) -> bool:
        g = self.gamma
        r = np.subtract(self.v, z, out=self.res)
        norm = math.sqrt(float(r @ r))
        e = (self.w_norm + self.beta * self.root_m) * _UP
        M = (norm * (1.0 - g) - e) * _DOWN
        U = (norm * (1.0 + g) + e) * _UP
        return M > 0.0 and tol_denom <= M * M \
            and 2.0 * U * U / denom < math.inf


class ResidualShadow(AnchoredResidual):
    """The float32 increment source: after an x-step to x, `advance` forms
    d^ = fl(x - x_a), w = fl32(A32 fl32(d^)) (matrix.matvec_single, A32 =
    fl32(A) column-major) and v~ = fl(u_a - w), with x_a the iterate of the
    last anchor.  With u32 = 2^-24, tau32 = 2^-126 and g32 = (n + 2) u32 /
    (1 - (n + 2) u32), lam = alpha and beta = beta0:
      alpha = g32 ||d^|| + c_x (||x|| + ||x_a||) + 3 tau32 sqrt(n),
      beta0 = 2 eps ||u_a||_inf + 2 tau32 (||d^||_1 + 3 n).
    Exactly, b_i - a_i x = (b_i - a_i x_a) - a_i d; beyond the terms of
    AnchoredResidual:
      - The float32 pass.  fl32 rounds each entry of A and d^ by at most
        u32 relative, and the n-term product errs by at most
        gamma_n(u32) |A32| |fl32(d^)| entrywise (Higham 2002, sec. 3.1), in
        any order of summation: |w_i - a_i d^| <= ((n + 2) u32 + u32^2) /
        (1 - n u32) ||a_i|| ||d^|| <= g32 ||a_i|| ||d^||.
      - Underflow.  An entry of A or d^, a product or a partial sum below
        tau32 may turn subnormal or, under flush-to-zero, zero; each errs
        by at most tau32 absolutely.  That adds at most 2 tau32 (||a_i||_1
        + ||d^||_1 + 2n) <= 2 tau32 (sqrt(n) ||a_i|| + ||d^||_1 + 2n), the
        factor 2 covering the relative terms on top; float64 underflow in
        the two float64 passes adds well under tau32 n more.
      - The anchor distance.  d^ rounds d = x - x_a: |a_i (d - d^)| <=
        eps/2 ||a_i|| ||d^|| (1 + eps), and the float64 passes' eps/2
        ||a_i|| ||d|| adds as much.
      - v~'s subtraction errs by at most eps/2 (|u_a_i| + |w_i|), with
        |w_i| <= 2 ||a_i|| ||d^|| + (the underflow) as g32 <= 1.
    Summed: ((n + 2) u32 + u32^2) / (1 - n u32) + 2 eps on ||a_i|| ||d^||,
    and g32 exceeds the first part by (2n + 3) u32^2 + O(u32^3) >= 2^-46,
    which takes the 2 eps = 2^-51, so g32 alone is the coefficient; (n +
    3) u32 would add a spare u32 that nothing needs.  ||d^|| and ||d^||_1
    enter as computed, fl(sqrt(fl(d^.d^))) and fl(sum |d^_j|), within
    gamma_n of the norms: g32's spare takes the first, and N_i's shortfall
    against ||a_i||, and beta0's factor 2
    on tau32 ||d^||_1 and the factor 1/2 of the limit below the second.
    alpha and beta0 take no factor for their own roundings, at most five
    along any term, and AnchoredResidual's 1 / (1 - eps): each of their
    terms exceeds its need by at least a factor 1 + 2^-23 (g32's spare
    relative to g32, c_x's near 2, tau_row's 3/2, 2 eps ||u_a||_inf's 4/3,
    the 2 and 6 of the tau32 terms' 1 and 4 + 1), and (1 + eps/2)^5 / (1 -
    eps) < 1 + 4 eps.  `advance`
    makes no pass, and sets beta = inf, when ||d^||_1 max(1, max |A32|) >
    float32 max / 2, which keeps fl32(d^), every product and every partial
    sum of the pass in range, or when max |x| > DIVERGENCE_CAP.
    """

    __slots__ = ("A32", "g32", "tau_row", "tau_fixed", "limit",
                 "shadow_passes", "x_a")

    def __init__(self, A: mx.MatrixHandle, b: np.ndarray, A32: np.ndarray):
        super().__init__(A, b)
        n, g = A.n, self.gamma
        self.A32 = A32
        self.g32 = (n + 2) * _U32 / (1.0 - (n + 2) * _U32)
        self.tau_row = 3.0 * _TINY * math.sqrt(n) * (1.0 + g)
        self.tau_fixed = 6.0 * _TINY * n
        amax = max(float(A32.max()), -float(A32.min()), 1.0)
        self.limit = mx._F32_MAX / 2.0 / amax * _DOWN
        self.shadow_passes = 0

    def anchor(self, x: np.ndarray, z: np.ndarray, u: np.ndarray,
               s: float | None) -> None:
        super().anchor(x, z, u, s)
        self.x_a = x.copy()

    def advance(self, x: np.ndarray) -> None:
        """One float32 pass at x: sets v~, lam and beta."""
        d = x - self.x_a
        d1 = float(abs(d).sum())
        if not (d1 <= self.limit and abs(x).max() <= DIVERGENCE_CAP):
            self.v, self.beta, self.lam, self.w_norm = \
                self.u_a, math.inf, 0.0, 0.0
            return
        self.shadow_passes += 1
        self.v = self.u_a - mx.matvec_single(self.A32, d)
        nd = math.sqrt(d.dot(d))
        self.x, self.x_norm = x, math.sqrt(x.dot(x))
        self.lam = self.g32 * nd + self.c_x * (self.x_norm + self.x_a_norm) \
            + self.tau_row
        self.w_norm = self.lam * self.frob
        self.beta = self.u_a_term + 2.0 * _TINY * d1 + self.tau_fixed


class GramResidual(AnchoredResidual):
    """The Gram increment source: v~ starts at u_a, and each x-step x' =
    fl(x + fl(c a_i^T)) moves it, in `row_step`, by
      v~ = fl(v~ - w), w = fl(s t), s = fl(c nu_i), t = fl(nu' (.) q_i),
    where nu_l = fl(sqrt(||a_l||^2)), nu'_l = fl(nu_l / 32767) and q_i is
    column i of the handle's int16 cosines q = rint(32767 C)
    (matrix.build_cosines), read by matrix.cosine_column
    straight into the float64 buffer t, an exact cast, from two slices of
    their tile-column panels: an m-vector per step instead of the m n
    entries of A.  Exactly, an x-step moves b - A x by -c A a_i^T - A
    delta, delta = x' - x - c a_i^T, the rounding of the stored x.  With
    K the x-steps since the anchor, beyond the terms of AnchoredResidual:
      - Gram and cosine.  fl(A A^T)_li errs by at most gamma_n(eps/2)
        ||a_l|| ||a_i|| + n 2^-1075 of underflow; its two scalings, nu',
        the products s, t and w and an underflow of the scaled cosine below
        2^-1022 add under 7 eps/2 ||a_l|| ||a_i|| more; rounding to the
        grid errs by at most 1/65534 absolute in C, so by |c| nu_i nu_l /
        65534 in w_l.  The clip to |C| <= 1 acts only where |fl(A A^T)_li|
        > nu_l nu_i, a squared norm that underflowed in part: ||a_l|| <=
        nu_l (1 + (n + 3) eps/4) + tau, so it leaves w_l within |c| ((n +
        3) eps/2 N_l N_i + tau (N_l + N_i)) of c a_l a_i^T.  With eps/2 for
        the float64 passes' ||x - x_a|| term, each step adds |c| (kappa N_i
        N_l + tau N_l + tau N_i) to e_l, kappa = (n + 8) eps + 1/65534.
        The underflow |c| n 2^-1075 needs no term of its own: where the
        clip does not act, |c| tau N_i is not otherwise needed, and tau N_i
        >= tau^2 >= n 2^-1074; where it acts, tau (N_l + N_i) >= tau (nu_l
        + nu_i) + 2 tau^2 bounds the deficit as well as the excess.  A row
        l with nu_l = 0 is all zero: q_li = 0 and a_l a_i^T = 0.
      - v~'s subtractions err by at most eps/2 |v~_l| each, and after the
        k-th step |v~_l| <= ||u_a||_inf + N_l M_k (1 + eps), M_k =
        sum_(steps <= k) |c| N_i, since |w_l| <= |c| nu_i nu_l (1 + 3 eps):
        K eps/2 ||u_a||_inf and N_l eps/2 sum_k M_k in all.
      - The stored x.  |delta_j| <= eps/2 (|c a_ij| + |x'_j|) (1 + eps) +
        2^-1075, so |a_l delta| <= N_l (1 + (n/4 + 1) eps) (eps/2 (|c| N_i
        + ||x'||) (1 + eps) + sqrt(n) 2^-1075).  xi, carried as fl(xi + |c|
        N_i) from fl(sqrt(fl(x_a.x_a))), is at least (1 - 2^-10) (||x_a||
        + M_k) while K eps < 2^-10, and ||x'|| is at most ||x_a|| + M_k
        plus the roundings of the stored x, so eps xi is nearly twice the
        eps/2 ||x'|| (1 + eps) needed, and takes it; the stored x's
        underflow, eps/2 sqrt(n) 2^-1075 a step in ||x'||, is under the
        spare of tau N_l below.  Each step adds tau N_l for
        the underflow, though sqrt(n) 2^-1075 N_l <= 2^-538 tau N_l.
      - Underflow of the products s, t and w adds (|s| + 2 max nu + 1)
        2^-1074 per step, and that of the two float64 passes n 2^-1074 in
        all.  The latter needs no term of its own: the bound is asked only
        after an x-step (K >= 1), and the first step's tau N_l, less its
        2^-538 share above, is at least tau^2 (1 - 2^-538) >= n 2^-1074,
        also for a step with c = 0.
    Summed, lam = c_x (||x|| + ||x_a||) + alpha, alpha the sum over the
    steps of kappa |c| N_i + eps (|c| N_i + xi + M_k) + (1 + |c|) tau, one
    scalar, so the bound keeps no m-vector of its own; beta = 2 eps
    ||u_a||_inf (1 + K) plus the sum of the absolute terms.  alpha is
    rounded up at each step (_UP), as kappa's spare, (n + 9) eps/2 against
    its 1/65534, a factor 1 + 2^-36 at least, does not take the K eps/2
    that a running sum may lose; it does take the few roundings of lam and
    AnchoredResidual's 1 / (1 - eps), under 4 eps, as do c_x's spare (near
    2) and those of alpha's other terms.  Each term of beta exceeds its
    need by a factor of sqrt(2) or more (the tau terms' sqrt(2), the 2 of 2
    eps ||u_a||_inf and of the product underflow), which takes its running
    sum's K eps/2 as well.  These hold while K eps < 2^-10, for any run of
    fewer than 2^42 x-steps.  A step makes no update, and every
    later test fails until the next anchor, when ||u_a||_inf + ||x_a|| +
    sum |s| (2 max nu + 1) passes a sixteenth of float64's range, which
    keeps v~ and lam finite, or when c is not finite.
    """

    __slots__ = ("nu_list", "nu_one", "norm_list", "kappa", "spread", "room",
                 "steps", "xi", "moved", "alpha_sum", "beta_sum", "gram_steps")

    def __init__(self, A: mx.MatrixHandle, b: np.ndarray):
        super().__init__(A, b)
        n = A.n
        nu = np.sqrt(A.row_norms_sq)
        self.nu_list = nu.tolist()
        self.nu_one = nu / mx._COS_ONE
        self.norm_list = self.norms.tolist()
        self.kappa = (n + 8) * _EPS + 1.0 / (2 * mx._COS_ONE)
        self.spread = 2.0 * float(nu.max()) + 1.0
        self.v = np.empty(A.m)
        self.gram_steps = 0

    @property
    def stepped(self) -> "GramResidual":
        return self

    def anchor(self, x: np.ndarray, z: np.ndarray, u: np.ndarray,
               s: float | None) -> None:
        super().anchor(x, z, u, s)
        np.copyto(self.v, u)
        self.room = float(np.finfo(np.float64).max) / 16.0 \
            - self.u_a_term / (2.0 * _EPS) - self.x_a_norm
        self.steps = 0
        self.xi = self.x_a_norm
        self.moved = self.alpha_sum = self.beta_sum = 0.0

    def column_step(self, j: int, c: float) -> None:
        pass

    def row_step(self, i: int, c: float) -> None:
        s = c * self.nu_list[i]
        room = self.room - abs(s) * self.spread
        if not room >= 0.0:  # also for a NaN
            self.room = -math.inf
            return
        self.room = room
        t = mx.cosine_column(self.A, i, self.buf)
        w = np.multiply(np.multiply(t, self.nu_one, out=t), s, out=t)
        np.subtract(self.v, w, out=self.v)
        self.gram_steps += 1
        self.steps += 1
        a = abs(c) * self.norm_list[i]
        self.xi += a
        self.moved += a
        self.alpha_sum = (self.alpha_sum + self.kappa * a
                          + (1.0 + abs(c)) * self.tau
                          + _EPS * (a + self.xi + self.moved)) * _UP
        self.beta_sum += abs(c) * self.tau * self.norm_list[i] \
            + (abs(s) + self.spread) * _SUB

    def advance(self, x: np.ndarray) -> None:
        """Sets lam and beta for v~ as the steps since the anchor left it."""
        if not (self.room >= 0.0 and abs(x).max() <= DIVERGENCE_CAP):
            self.beta, self.lam, self.w_norm = math.inf, 0.0, 0.0
            return
        self.x, self.x_norm = x, math.sqrt(x.dot(x))
        self.lam = self.c_x * (self.x_norm + self.x_a_norm) + self.alpha_sum
        self.w_norm = self.lam * self.frob
        self.beta = self.u_a_term * (1 + self.steps) + self.beta_sum


@contextlib.contextmanager
def _timed(builds: dict, what: str, A: mx.MatrixHandle):
    """Times the build in the with-block into builds[what] and logs it at
    INFO, with the bytes and the note it sets in the dict it is given."""
    made = {"bytes": 0, "note": ""}
    start = time.perf_counter()
    yield made
    builds[what] = seconds = time.perf_counter() - start
    log.info("built %s of a %d x %d matrix: %.3f s, %.1f MB%s", what, A.m,
             A.n, seconds, made["bytes"] / 1e6, made["note"])


def plan(method: str, A: mx.MatrixHandle, b: np.ndarray, budget: bool,
         max_outer: int) -> tuple[ResidualCertificate, dict]:
    """(certificate, build_seconds) of a solve: the one place that
    evaluates the gates and calls the matrix builders, each build timed
    and logged by _timed.  The handle keeps what they build, so a later
    solve builds it no more, and none of it is alive before the first
    solve, during a set-up SVD of A.  The builds, by name:
      rows       the row views, with a row-major copy where _keeps_rows
                 holds: the first solve on a handle.
      cosines    the row cosines, for a GramResidual: EMRK/MEMRK on a dense
                 handle of at least _SHADOW_MIN_ENTRIES entries (n < 2^22
                 keeps g32 below 1) where they fit (_fits_cosines) and are
                 built or repaid; on _cosine_workers threads, which the
                 log line names: two where OpenBLAS runs one thread and
                 two cores are usable, else one.
      float32    else A's float32 copy, for a ResidualShadow where it is
                 finite; made per solve, as it would hold 4 m n bytes.
      row_reach  row_reach, and A^T A where _keeps_gram holds (formed, and
                 A's stored bytes >= 2^19; up to A's bytes), for the
                 ResidualFloor of REK/PREK with a RES stop.
    Elsewhere the certificate is the exact path.

    A solve builds the cosines only if max_outer >= m: the build took as
    long as the per-iteration time it saves over 0.13 m to 1.26 m
    iterations, on four shapes from 700 x 400 to 20000 x 500
    (BENCH_gram_greedy.json), so a shorter solve, such as a one-iteration
    set-up pass, would not repay it."""
    builds: dict = {}
    if A.row_views is None:
        with _timed(builds, "rows", A) as made:
            made["bytes"] = mx.build_rows(A, mx._keeps_rows(A))
    if method in (EMRK, MEMRK):
        if A.is_dense and A.m * A.n >= _SHADOW_MIN_ENTRIES and A.n < 1 << 22:
            if mx._fits_cosines(A) and (A.cosines is not None
                                        or max_outer >= A.m):
                if A.cosines is None:
                    workers = mx._cosine_workers(A)
                    with _timed(builds, "cosines", A) as made:
                        made["bytes"] = mx.build_cosines(A, workers)
                        made["note"] = f" on {workers} thread" + "s" * (workers > 1)
                return GramResidual(A, b), builds
            with _timed(builds, "float32", A) as made:
                A32 = mx.single_copy(A)  # None beyond the float32 range
                made["bytes"] = 0 if A32 is None else A32.nbytes
            if A32 is not None:
                return ResidualShadow(A, b, A32), builds
    elif not budget:
        if A.row_reach is None:
            with _timed(builds, "row_reach", A) as made:
                path = mx.build_row_reach(A, mx._keeps_gram(A))
                made["note"] = f" of A^T A kept, {path}"
                made["bytes"] = 0 if A.gram is None else A.gram.nbytes
        return ResidualFloor(A, b, A.row_reach, A.gram), builds
    return ResidualCertificate(), builds


# -- driver ---------------------------------------------------------------------


def solve(config: SolverConfig, A: mx.MatrixHandle, b: np.ndarray,
          x_star: np.ndarray | None = None, callback=None) -> SolveReport:
    """Run one method to the RES tolerance or the outer-iteration cap.

    `x_star`, when given, adds the squared solution error to each trace row.
    `callback(k, i, x_prev, x, z)` is invoked after every x-update with the
    pre-update iterate (for step-identity checks); it forces one extra vector
    copy per iteration and is meant for tests and diagnostics.

    A float64 pass is made only where the certificate of plan cannot
    certify a pick or, with a RES stop (`config.tol` not None),
    exclude the stop; RES is formed in full there, at trace rows and at the
    last iteration.  A pass is skipped only where it is proven not to raise,
    so a diverging run raises where the exact path does; without a RES stop
    x is tested every iteration.  x starts at 0, where r = 0 needs no pass,
    and a non-finite entry of b is rejected before the first iteration.
    """
    config.validate()
    method = config.method.lower()
    if A.frob_sq <= 0.0:
        raise SolverError("cannot solve with an all-zero matrix")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.m,):
        raise SolverError(f"b length {b.shape} does not match m={A.m}")
    bad = np.flatnonzero(~np.isfinite(b))
    if bad.size:
        raise NonFiniteInputError(int(bad[0]), float(b[bad[0]]))

    t0 = time.perf_counter()
    x = np.zeros(A.n)
    z = b.copy()
    rng = UniformStream(np.random.default_rng(config.seed))
    # Built per call, so a selector rebound on this module is the one called.
    if method == PREK:
        next_column = CyclicColumnCursor().next
    else:
        next_column = functools.partial(sample_column_weighted, rng)
    greedy = method in (EMRK, MEMRK)
    budget = config.tol is None

    # u = fl(b - fl(A x)) at the current x while `fresh`: b at x = 0, up to
    # the signs of zero entries, which no square or |r_i| sees
    u = b
    fresh = True
    passes = 0
    denom = float(b @ b)

    trace: list = []

    def record(k: int, res: float) -> None:
        err = float(np.sum((x - x_star) ** 2)) if x_star is not None else None
        trace.append((k, res, err))

    if denom == 0.0:
        # b = 0, and x = 0 solves it exactly
        record(0, 0.0)
        return SolveReport(x, 0, 0.0, True, time.perf_counter() - t0, trace)

    cert, builds = plan(method, A, b, budget, config.max_outer)
    stepped = cert.stepped
    cert.anchor(x, z, u, 0.0)  # r = b - b = 0 exactly
    if not budget:
        tol_denom = config.tol * denom * _UP

    record(0, 1.0)
    res = 1.0
    converged = False
    k = 0
    resyncs = 0
    zero_row_skips = 0
    row_norms_sq = A.row_table[1]
    xs = mx.row_buffer(A)
    for k in range(1, config.max_outer + 1):
        for _ in range(config.omega):
            z_project_column(z, A, next_column(A), stepped)
        skip_update = False
        if greedy:
            if not fresh:
                i = cert.pick(z)
                if i < 0:
                    u, fresh, passes = b - mx.matvec(A, x), True, passes + 1
                    cert.anchor(x, z, u, None)
            if fresh:
                i = select_max_residual_row(u - z)
                # a row of squared norm 0 is all zero (MatrixHandle), and
                # r_i = b_i - z_i stays +-0 or NaN there: no x-step to take
                if row_norms_sq[i] == 0.0:
                    skip_update = True
                    zero_row_skips += 1
        else:
            i = sample_row_weighted(rng, A)

        x_prev = x.copy() if callback is not None else None
        if not skip_update:
            x_project_row(x, A, i, b.item(i) - z.item(i), stepped, xs)
            fresh = False

        traced = config.trace_every and k % config.trace_every == 0
        exact = traced or k == config.max_outer or (fresh and not budget)
        if not (exact or fresh):
            cert.advance(x)
            exact = not (budget or cert.excludes_stop(z, tol_denom, denom))
        if exact:
            if not fresh:
                u, fresh, passes = b - mx.matvec(A, x), True, passes + 1
            rvec = u - z
            s = float(rvec @ rvec)
            res = s / denom
            resyncs += 1
            cert.anchor(x, z, u, s)
        if (exact or budget) and \
                not (math.isfinite(res) and abs(x).max() <= DIVERGENCE_CAP):
            raise DivergenceError(f"iterate diverged at outer iteration {k}")
        if callback is not None:
            callback(k, i, x_prev, x, z)
        if traced:
            record(k, res)
        if exact and not budget and res < config.tol:
            converged = True
            break

    if trace[-1][0] != k:
        record(k, res)
    col_steps, row_steps = config.omega * k, k - zero_row_skips
    log.debug("%s: %d iterations, %d column steps, %d row steps, %d float64 "
              "passes, %d full residual recomputes, %d floor refreshes, %d "
              "tangent floors, %d float32 shadow passes, %d Gram steps, %d "
              "settled picks, %d zero-row skips", method, k, col_steps,
              row_steps, passes, resyncs, cert.floor_refreshes,
              cert.floor_tangents, cert.shadow_passes, cert.gram_steps,
              cert.settled_picks, zero_row_skips)
    return SolveReport(x, k, res, converged, time.perf_counter() - t0, trace,
                       resyncs, cert.floor_refreshes, cert.floor_tangents,
                       zero_row_skips, cert.shadow_passes, passes,
                       cert.gram_steps, cert.settled_picks, builds,
                       col_steps, row_steps)


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
