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
trace rows and the last iteration.  choose_certificate gives one of these:
  AnchoredResidual     EMRK/MEMRK on a dense matrix of at least
                       _SHADOW_MIN_ENTRIES entries: r anchored at the last
                       float64 pass and bounded entrywise, advanced by one of
                       two increment sources:
    GramResidual       one column of the handle's float16 row cosines per
                       x-step, where they fit (matrix._fits_cosines);
    ResidualShadow     else one float32 pass over A per x-step.
  ResidualFloor        REK/PREK with a RES stop: a lower bound on ||r||
                       moved at O(1) per step, rebuilt in O(n^2) where the
                       handle keeps A^T A (matrix._keeps_gram).
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

_EPS = float(np.finfo(np.float64).eps)
# Factors that round a stored upper (lower) bound up (down): a product with
# them stays on the safe side after its own rounding and that of two adds.
_UP = 1.0 + 4.0 * _EPS
_DOWN = 1.0 - 4.0 * _EPS

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
    # greedy picks of a zero-norm row with a zero residual entry, which leave
    # x as it is
    zero_row_skips: int = 0
    shadow_passes: int = 0    # float32 passes of a greedy ResidualShadow
    full_passes: int = 0      # float64 passes over A (mat-vecs)
    gram_steps: int = 0       # x-steps a GramResidual advanced r~ by


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
    each step; floor_refreshes, shadow_passes and gram_steps count a
    certificate's work.
    """

    __slots__ = ()
    stepped = None
    floor_refreshes = shadow_passes = gram_steps = 0

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
    instead of forming r.  z must start at b.  It picks no row.

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
        most |d| reach_i (MatrixHandle.row_reach), and by A times the
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
      - Stop test.  A full recompute here would give, by the anchor's
        argument, ||r^|| (1 + eps) >= M = L - gamma (||b|| + F xi), so if
        M > 0 then s^ >= M^2 (1 - gamma), and M^2 (1 - gamma) >=
        tol denom (1 + 4 eps) proves fl(s^ / denom) >= tol.  The recompute
        is skipped only if it would not raise either: xi <= DIVERGENCE_CAP
        bounds max |x|, and with U = ||b|| + F xi + zeta every entry and
        partial sum of fl(A x) and r^ is at most U (1 + gamma) in size and
        s^ <= U^2 (1 + 3 gamma), so 2 U^2 / denom finite keeps its RES
        finite.
    The norms ||A_(j)||, ||a_i||, F, ||b||, and ||x||, ||z|| at an anchor are
    stored times 1 + gamma, which covers their own rounding.  Each update
    rounds L down and xi, zeta, D up (_DOWN, _UP).  gamma exceeds the
    gamma_m and (n + 3) eps needed above by at least 8 eps, which covers
    the few roundings inside each formula.  A NaN or inf fails the stop
    test, so it forces a recompute.
    """

    __slots__ = ("gamma", "reach", "H", "col_norms", "row_norms", "frob",
                 "b_norm", "L", "xi", "zeta", "coef", "drift", "x",
                 "floor_refreshes")

    def __init__(self, A: mx.MatrixHandle, b: np.ndarray):
        self.gamma = g = (A.m + A.n + 8) * _EPS
        self.reach = A.row_reach
        self.H = A._gram  # built with row_reach; None where a refresh won't pay
        # c^ and D, kept only where a refresh can use them
        self.coef = None if self.H is None else np.zeros(A.n)
        self.drift = 0.0
        # norms as Python floats: scalar arithmetic on them is cheaper
        self.col_norms = (np.sqrt(A.col_norms_sq) * (1.0 + g)).tolist()
        self.row_norms = (np.sqrt(A.row_norms_sq) * (1.0 + g)).tolist()
        self.frob = math.sqrt(A.frob_sq) * (1.0 + g)
        self.b_norm = float(np.linalg.norm(b)) * (1.0 + g)
        self.floor_refreshes = 0

    @property
    def stepped(self) -> "ResidualFloor":
        return self

    def advance(self, x: np.ndarray) -> None:
        self.x = x

    def anchor(self, x: np.ndarray, z: np.ndarray, u: np.ndarray,
               s: float) -> None:
        """Restart from a full recompute of the current iterates, s = fl(r.r)."""
        g = self.gamma
        self.xi = math.sqrt(x.dot(x)) * (1.0 + g)
        self.zeta = math.sqrt(z.dot(z)) * (1.0 + g)
        self.L = (math.sqrt(s) * (1.0 - g)
                  - g * (self.b_norm + self.frob * self.xi)) * _DOWN

    def refresh(self, x: np.ndarray) -> None:
        """Raise L to the bound rebuilt from H^ and c^; O(n^2), counted."""
        self.floor_refreshes += 1
        g = self.gamma
        d = self.coef - x
        e = float(d @ d)
        q = float(d @ (self.H @ d))
        near = math.sqrt(max(q - 2.0 * g * self.frob * self.frob * e, 0.0))
        L = (near * (1.0 - g) - self.drift) * _DOWN
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
        refreshed at the last advanced x (which leaves xi and zeta)."""
        g = self.gamma
        far = self.b_norm + self.frob * self.xi
        U = (far + self.zeta) * _UP
        safe = self.xi <= DIVERGENCE_CAP and 2.0 * U * U / denom < math.inf
        M = self.L - g * far
        if safe and M > 0.0 and tol_denom <= M * M * (1.0 - g) < math.inf:
            return True
        if self.H is None:
            return False
        self.refresh(self.x)
        M = self.L - g * far
        return safe and M > 0.0 and tol_denom <= M * M * (1.0 - g) < math.inf


# -- anchored greedy residual --------------------------------------------------

_U32 = 2.0 ** -24   # float32 unit roundoff
_TINY = 2.0 ** -126  # float32's smallest normal number
_SUB = 2.0 ** -1074  # float64's smallest subnormal number
# float16's unit roundoff 2^-11, with room for 1 / (1 - 2^-11) and a cast
# that rounds through float32 first
_U16 = 2.0 ** -11 * (1.0 + 2.0 ** -9)
# Covers 1 / (1 - eps) and the few roundings of each margin formula.
_FAC = 1.0 + 8.0 * _EPS
# Fewest dense entries for which EMRK/MEMRK use an AnchoredResidual: below it
# its increments and bound save less than they cost (BENCH_greedy_shadow.json).
_SHADOW_MIN_ENTRIES = 1 << 18


class AnchoredResidual(ResidualCertificate):
    """The certificate of EMRK/MEMRK on a dense handle: the greedy pick and
    the stop test from an anchored residual instead of a float64 pass.

    Each float64 pass at an iterate x_a forms u_a = fl(b - fl(A x_a)), and
    `anchor` restarts from it.  After the x-steps to x, a subclass, the
    increment source, forms v~ from u_a and sets, in `advance`, a vector
    W >= 0, a scalar beta and w_norm >= ||W|| such that with the current z,
    r~ = fl(v~ - z) stands in for the r^ = fl(fl(b - fl(A x)) - z) that a
    float64 pass forms:
      |r~_i - r^_i| <= e_i = W_i + beta + 3 eps |r~_i|.
    There are two sources: ResidualShadow, one float32 pass over A per
    x-step, and GramResidual, one column of the float16 row cosines per
    x-step.  With eps = 2^-52 (twice float64's unit roundoff), a_i row i of
    A and ||a_i|| (`norms`) stored times 1 + gamma, gamma = (m + n + 8) eps,
    which covers their rounding, the terms both share are:
      - The two float64 passes.  fl(a_i x) and fl(a_i x_a) err by at most
        gamma_n(eps/2) |a_i| |x| <= n eps ||a_i|| ||x||, and the same with
        x_a (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
        sec. 3.1).  fl(b_i - p) errs by at most eps/2 |b_i - p|, and
        |b_i - p| is at most |u_a_i| (1 + eps) for u_a and |u_a_i| (1 +
        eps) + ||a_i|| ||x - x_a|| + n eps ||a_i|| (||x|| + ||x_a||) for r^:
        together eps (1 + eps) ||u_a||_inf + eps/2 ||a_i|| ||x - x_a|| and
        a second-order term.  W_i holds (n + 1) eps ||a_i|| (||x|| +
        ||x_a||) and beta 2 eps ||u_a||_inf, with slack for the
        second-order terms; each source covers eps/2 ||a_i|| ||x - x_a||.
      - The last subtractions of r~ and r^ err by at most eps/2 |r~_i| and
        eps/2 |r^_i| (relative to their results), and |r^_i| <= |r~_i| +
        e_i; solved for e_i this puts 1 / (1 - eps) on the sum and adds
        2 eps |r~_i| / (1 - eps) <= 3 eps |r~_i|.
      - Pick (`pick`).  i* = argmax |r~| is certified when |r~_i*| - e_i* >
        |r~_j| + e_j for every j != i*, using |r~_j| <= |r~_i*| in e_j; then
        |r^_i*| > |r^_j|, so argmax |r^| = i* with no tie.  e_i* and the
        right side are each taken times 1 + 4 eps, which covers the
        roundings of both sides.  Else, or if row i* is all zero, -1.
      - Stop test (`excludes_stop`).  ||r^|| >= ||r~|| - ||e|| and ||e|| <=
        w_norm + beta sqrt(m) + 3 eps ||r~||; with M = ||r~|| - ||e|| > 0,
        a float64 pass would give s^ >= M^2 (1 - gamma), so M^2 (1 - gamma)
        >= tol denom (1 + 4 eps) proves fl(s^ / denom) >= tol, as in
        ResidualFloor.  It also needs 2 (||r~|| + ||e||)^2 / denom finite,
        which bounds the RES a float64 pass would form, and max |x| <=
        DIVERGENCE_CAP, so the pass it skips would neither stop the run nor
        raise.
    A source sets beta = inf, so that neither test passes, where it cannot
    bound its increment or max |x| > DIVERGENCE_CAP.  A NaN fails both
    tests.
    """

    __slots__ = ("gamma", "norms", "root_m", "c_x", "row_sq", "buf", "W",
                 "x_a_norm", "u_a", "u_a_term", "v", "beta", "w_norm")

    def __init__(self, A: mx.MatrixHandle):
        m, n = A.m, A.n
        self.gamma = g = (m + n + 8) * _EPS
        self.norms = np.sqrt(A.row_norms_sq) * (1.0 + g)
        self.root_m = math.sqrt(m) * (1.0 + g)
        self.c_x = (n + 1) * _EPS
        self.row_sq = A.row_table[1]
        self.buf = np.empty(m)
        self.W = np.zeros(m)

    def anchor(self, x: np.ndarray, z: np.ndarray, u: np.ndarray,
               s: float | None) -> None:
        """Restart from a float64 pass at x, u = fl(b - fl(A x))."""
        # x beyond DIVERGENCE_CAP may overflow ||x||; solve raises next
        with np.errstate(over="ignore"):
            self.x_a_norm = math.sqrt(x.dot(x)) * (1.0 + self.gamma)
        self.u_a = u
        self.u_a_term = 2.0 * _EPS * float(abs(u).max())

    def bound(self, r: np.ndarray) -> np.ndarray:
        """e, entrywise, for r = r~ = fl(v~ - z)."""
        return self.W + self.beta + 3.0 * _EPS * abs(r)

    def pick(self, z: np.ndarray) -> int:
        """The row a float64 pass would pick, argmax |r^|, or -1 when r~
        cannot certify it."""
        r = self.v - z
        i = select_max_residual_row(r)
        a = np.abs(r, out=r)
        top = a.item(i)
        if not (top < math.inf and self.row_sq[i] > 0.0):
            return -1
        beta = self.beta + 3.0 * _EPS * top
        lo = top - (self.W.item(i) + beta) * _UP
        others = np.add(self.W, a, out=self.buf)
        others[i] = -math.inf
        return i if lo > (float(others.max()) + beta) * _UP else -1

    def excludes_stop(self, z: np.ndarray, tol_denom: float,
                      denom: float) -> bool:
        g = self.gamma
        r = self.v - z
        norm = math.sqrt(float(r @ r))
        e = (self.w_norm + self.beta * self.root_m
             + 3.0 * _EPS * norm * (1.0 + g)) * _UP
        M = (norm * (1.0 - g) - e) * _DOWN
        U = (norm * (1.0 + g) + e) * _UP
        return M > 0.0 and tol_denom <= M * M * (1.0 - g) \
            and 2.0 * U * U / denom < math.inf


class ResidualShadow(AnchoredResidual):
    """The float32 increment source: after an x-step to x, `advance` forms
    d^ = fl(x - x_a), w = fl32(A32 fl32(d^)) (matrix.matvec_single, A32 =
    fl32(A) column-major) and v~ = fl(u_a - w), with x_a the iterate of the
    last anchor.  With u32 = 2^-24, tau = 2^-126 and g32 = (n + 3) u32 /
    (1 - (n + 3) u32), W = alpha ||a_i|| and beta = beta0:
      alpha = (g32 + 2 eps) ||d^|| + (n + 1) eps (||x|| + ||x_a||)
              + 3 tau sqrt(n),
      beta0 = 2 eps ||u_a||_inf + 2 tau (||d^||_1 + 3 n).
    Exactly, b_i - a_i x = (b_i - a_i x_a) - a_i d; beyond the terms of
    AnchoredResidual:
      - The float32 pass.  fl32 rounds each entry of A and d^ by at most
        u32 relative, and the n-term product errs by at most
        gamma_n(u32) |A32| |fl32(d^)| entrywise (Higham 2002, sec. 3.1), in
        any order of summation: |w_i - a_i d^| <= ((n + 2) u32 + u32^2) /
        (1 - n u32) ||a_i|| ||d^|| <= g32 ||a_i|| ||d^||.
      - Underflow.  An entry of A or d^, a product or a partial sum below
        tau may turn subnormal or, under flush-to-zero, zero; each errs by
        at most tau absolutely.  That adds at most 2 tau (||a_i||_1 +
        ||d^||_1 + 2n) <= 2 tau (sqrt(n) ||a_i|| + ||d^||_1 + 2n), the
        factor 2 covering the relative terms on top; float64 underflow in
        the two float64 passes adds well under tau n more.
      - The anchor distance.  d^ rounds d = x - x_a: |a_i (d - d^)| <=
        eps/2 ||a_i|| ||d^|| (1 + eps), and the float64 passes' eps/2
        ||a_i|| ||d|| adds as much.
      - v~'s subtraction errs by at most eps/2 (|u_a_i| + |w_i|), with
        |w_i| <= 2 ||a_i|| ||d^|| + (the underflow) as g32 <= 1.
    Summed: g32 + 2 eps on ||a_i|| ||d^||, each with slack for the
    second-order terms; alpha and beta0 are taken times _FAC, and w_norm
    is alpha F, F >= ||(||a_i||)_i||.  `advance` makes no pass, and sets
    beta = inf, when ||d^||_1 max(1, max |A32|) > float32 max / 2, which
    keeps fl32(d^), every product and every partial sum of the pass in
    range, or when max |x| > DIVERGENCE_CAP.
    """

    __slots__ = ("A32", "frob", "c_delta", "tau_row", "tau_fixed", "limit",
                 "shadow_passes", "x_a")

    def __init__(self, A: mx.MatrixHandle, A32: np.ndarray):
        super().__init__(A)
        n, g = A.n, self.gamma
        self.A32 = A32
        self.frob = float(np.linalg.norm(self.norms)) * (1.0 + g)
        g32 = (n + 3) * _U32 / (1.0 - (n + 3) * _U32)
        self.c_delta = g32 + 2.0 * _EPS
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
        """One float32 pass at x: sets v~, W and beta."""
        g = self.gamma
        d = x - self.x_a
        d1 = float(abs(d).sum()) * (1.0 + g)
        if not (d1 <= self.limit and abs(x).max() <= DIVERGENCE_CAP):
            self.v, self.beta, self.w_norm = self.u_a, math.inf, 0.0
            self.W.fill(0.0)
            return
        self.shadow_passes += 1
        self.v = self.u_a - mx.matvec_single(self.A32, d)
        nd = math.sqrt(d.dot(d)) * (1.0 + g)
        nx = math.sqrt(x.dot(x)) * (1.0 + g)
        alpha = (self.c_delta * nd + self.c_x * (nx + self.x_a_norm)
                 + self.tau_row) * _FAC
        np.multiply(self.norms, alpha, out=self.W)
        self.w_norm = alpha * self.frob
        self.beta = (self.u_a_term + 2.0 * _TINY * d1 + self.tau_fixed) * _FAC


class GramResidual(AnchoredResidual):
    """The Gram increment source: v~ starts at u_a, and each x-step x' =
    fl(x + fl(c a_i^T)) moves it, in `row_step`, by
      v~ = fl(v~ - w), w = fl(s t), s = fl(c nu_i), t = fl(nu (.) C_i),
    where nu_l = fl(sqrt(||a_l||^2)) and C_i is column i of the float16
    cosines of the handle (matrix.MatrixHandle.row_cosines), read by
    matrix.cosine_column straight into the float64 buffer t from two slices
    of their tile-column panels: an m-vector per step instead of the m n
    entries of A.  Exactly, an x-step moves
    b - A x by -c A a_i^T - A delta, delta = x' - x - c a_i^T, the rounding
    of the stored x.  With u16 = 2^-11, N_l = nu_l (1 + gamma) + tau >=
    ||a_l|| (`norms`), tau = sqrt(n) 2^-537 (1 + gamma) (a row whose squared
    norm underflows to 0 has norm below sqrt(n 2^-1074)), and K the x-steps
    since the anchor, beyond the terms of AnchoredResidual:
      - Gram and cosine.  fl(A A^T)_li errs by at most gamma_n(eps/2)
        ||a_l|| ||a_i|| + n 2^-1075 of underflow; its two scalings by
        1 / nu, the products s and t, and an underflow of the scaled cosine
        below 2^-1022 add under 5 eps/2 ||a_l|| ||a_i|| more; the float16
        cast errs by at most u16 |C_li| / (1 - u16) or, below 2^-14,
        2^-25.  With eps/2 for the float64 passes' ||x - x_a|| term, each
        step adds |c| (kappa N_i N_l + u16' nu_i nu_l |C_li|), kappa =
        (n + 8) eps + 2^-23, u16' = u16 (1 + 2^-9), and |c| n 2^-1073 to
        e_l.  A row l with nu_l = 0 has C_li = 0, and adds |c| tau N_i,
        since |a_l a_i^T| <= tau N_i.
      - The float16 term sums over the steps, as F_l = sum fl(|w_l|)
        (`F`): |w_l| >= |c| nu_i nu_l |C_li| (1 - 3 eps/2) less underflow,
        and w's own two roundings add 3 eps/2 |w_l| each step.
      - v~'s subtractions err by at most eps/2 |v~_l| each, and |v~_l| <=
        ||u_a||_inf + F_l (1 + eps): K eps/2 (||u_a||_inf + F_l) in all.
      - The stored x.  |delta_j| <= eps/2 (|c a_ij| + |x'_j|) (1 + eps) +
        2^-1075, so |a_l delta| <= N_l (eps/2 (|c| N_i + ||x'||) (1 + eps)
        + tau); xi >= ||x'|| is carried as (xi + |c| N_i) (1 + 2 eps) + tau
        from ||x_a|| (1 + gamma).
      - Underflow of the products s, t and w adds (|s| + 2 max nu + 1)
        2^-1074 per step, and that of the two float64 passes n 2^-1073.
    Summed, W_l = alpha N_l + phi F_l with alpha = ((n + 1) eps (||x|| +
    ||x_a||) + sum over the steps of kappa |c| N_i + eps (|c| N_i + xi) +
    tau) _FAC and phi = (u16 (1 + 2^-9) + (K + 4) eps) (1 + (K + 4) eps)
    _FAC, the last factor covering the rounding of F's sums; beta = (2 eps
    ||u_a||_inf (1 + K) + the absolute terms) _FAC; w_norm = ||W|| (1 +
    gamma).  These hold while K eps < 2^-10, for any run of fewer than 2^42
    x-steps.  A step makes no update, and every later test fails until the
    next anchor, when ||u_a||_inf + ||x_a|| + sum |s| (2 max nu + 1) passes
    a sixteenth of float64's range, which keeps v~, F and W finite, or when
    c is not finite.
    """

    __slots__ = ("A", "nu", "nu_list", "norm_list", "tau", "kappa",
                 "under_c", "spread", "tau_fixed", "F",
                 "room", "steps", "xi", "alpha_sum", "beta_sum", "gram_steps")

    def __init__(self, A: mx.MatrixHandle):
        super().__init__(A)
        m, n, g = A.m, A.n, self.gamma
        self.A = A
        self.nu = np.sqrt(A.row_norms_sq)
        self.nu_list = self.nu.tolist()
        self.tau = math.sqrt(n) * 2.0 ** -537 * (1.0 + g)
        self.norms += self.tau
        self.norm_list = self.norms.tolist()
        self.kappa = (n + 8) * _EPS + 2.0 ** -23
        self.under_c = n * 2.0 ** -1073
        self.spread = 2.0 * float(self.nu.max()) + 1.0
        self.tau_fixed = n * 2.0 ** -1072
        self.v = np.empty(m)
        self.F = np.empty(m)
        self.gram_steps = 0

    @property
    def stepped(self) -> "GramResidual":
        return self

    def anchor(self, x: np.ndarray, z: np.ndarray, u: np.ndarray,
               s: float | None) -> None:
        super().anchor(x, z, u, s)
        np.copyto(self.v, u)
        self.F.fill(0.0)
        self.room = float(np.finfo(np.float64).max) / 16.0 \
            - self.u_a_term / (2.0 * _EPS) - self.x_a_norm
        self.steps = 0
        self.xi = self.x_a_norm
        self.alpha_sum = self.beta_sum = 0.0

    def column_step(self, j: int, c: float) -> None:
        pass

    def row_step(self, i: int, c: float) -> None:
        s = c * self.nu_list[i]
        room = self.room - abs(s) * self.spread
        if not room >= 0.0:  # also for a NaN
            self.room = -math.inf
            return
        self.room = room
        # cast, then multiply: faster than one float16-float64 multiply
        t = mx.cosine_column(self.A, i, self.buf)
        w = np.multiply(np.multiply(t, self.nu, out=t), s, out=t)
        np.subtract(self.v, w, out=self.v)
        np.add(self.F, np.abs(w, out=w), out=self.F)
        self.gram_steps += 1
        self.steps += 1
        a = abs(c) * self.norm_list[i]
        self.xi = (self.xi + a) * (1.0 + 2.0 * _EPS) + self.tau
        self.alpha_sum += self.kappa * a + _EPS * (a + self.xi) + self.tau
        self.beta_sum += abs(c) * (self.tau * self.norm_list[i] + self.under_c) \
            + (abs(s) + self.spread) * _SUB

    def advance(self, x: np.ndarray) -> None:
        """Sets W and beta for v~ as the steps since the anchor left it."""
        if not (self.room >= 0.0 and abs(x).max() <= DIVERGENCE_CAP):
            self.beta, self.w_norm = math.inf, 0.0
            self.W.fill(0.0)
            return
        g, K = self.gamma, self.steps
        nx = math.sqrt(x.dot(x)) * (1.0 + g)
        alpha = (self.c_x * (nx + self.x_a_norm) + self.alpha_sum) * _FAC
        phi = (_U16 + (K + 4) * _EPS) * (1.0 + (K + 4) * _EPS) * _FAC
        W = np.multiply(self.norms, alpha, out=self.W)
        W += np.multiply(self.F, phi, out=self.buf)
        self.w_norm = math.sqrt(float(W @ W)) * (1.0 + g)
        self.beta = (self.u_a_term * (1 + K) + self.beta_sum
                     + self.tau_fixed) * _FAC


def choose_certificate(method: str, A: mx.MatrixHandle, b: np.ndarray,
                       budget: bool, max_outer: int) -> ResidualCertificate:
    """The certificate solve runs `method` with: for EMRK/MEMRK on a dense
    handle of at least _SHADOW_MIN_ENTRIES entries (n < 2^22 keeps g32
    below 1), a GramResidual where the handle's row cosines fit
    (matrix._fits_cosines) and are built or repaid, else a ResidualShadow
    where A's float32 copy is finite; a ResidualFloor for REK/PREK with a
    RES stop; else the exact path.

    A solve builds the cosines only if max_outer >= m: the build took as
    long as the per-iteration time it saves over 0.13 m to 1.26 m
    iterations, on four shapes from 700 x 400 to 20000 x 500
    (BENCH_gram_greedy.json), so a shorter solve, such as a one-iteration
    set-up pass, would not repay it.  Once built, the handle keeps them for
    every later greedy solve."""
    if method in (EMRK, MEMRK):
        if A.m * A.n >= _SHADOW_MIN_ENTRIES and A.n < 1 << 22:
            if mx._fits_cosines(A) and (A._cosines is not None
                                        or max_outer >= A.m):
                A.row_cosines  # built on first use
                return GramResidual(A)
            A32 = mx.single_copy(A)  # None for CSR, or beyond float32
            if A32 is not None:
                return ResidualShadow(A, A32)
    elif not budget:
        return ResidualFloor(A, b)
    return ResidualCertificate()


# -- driver ---------------------------------------------------------------------


def solve(config: SolverConfig, A: mx.MatrixHandle, b: np.ndarray,
          x_star: np.ndarray | None = None, callback=None) -> SolveReport:
    """Run one method to the RES tolerance or the outer-iteration cap.

    `x_star`, when given, adds the squared solution error to each trace row.
    `callback(k, i, x_prev, x, z)` is invoked after every x-update with the
    pre-update iterate (for step-identity checks); it forces one extra vector
    copy per iteration and is meant for tests and diagnostics.

    A float64 pass is made only where the certificate of choose_certificate
    cannot certify a pick or, with a RES stop (`config.tol` not None),
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

    cert = choose_certificate(method, A, b, budget, config.max_outer)
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
                r = u - z
                i = select_max_residual_row(r)
                # an all-zero row's r_i stays +-0 or NaN; a row whose squared
                # norm underflows may have r_i != 0, and its x-step raises
                if row_norms_sq[i] == 0.0 and not abs(r[i]) > 0.0:
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
    log.debug("%s: %d iterations, %d float64 passes, %d full residual "
              "recomputes, %d floor refreshes, %d float32 shadow passes, %d "
              "Gram steps, %d zero-row skips", method, k, passes, resyncs,
              cert.floor_refreshes, cert.shadow_passes, cert.gram_steps,
              zero_row_skips)
    return SolveReport(x, k, res, converged, time.perf_counter() - t0, trace,
                       resyncs, cert.floor_refreshes, zero_row_skips,
                       cert.shadow_passes, passes, cert.gram_steps)


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
