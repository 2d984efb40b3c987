"""Test-problem construction: dense/sparse Gaussian systems and parallel-beam
tomography, with inconsistent right-hand sides and on-disk problem directories.

Images are stored column-major: an N x N image X maps to the flat vector
X.flatten(order="F"), and the tomography matrix indexes pixels the same way.
The sparse and tomography generators, and enforce_rank_deficiency on a CSR
handle, import scipy.sparse where they use it, so a dense problem needs numpy
alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import matrix as mx
from . import oracle
from .errors import ConfigError, MatrixError, ProblemError

DENSE = "dense"
SPARSE = "sparse"
TOMO = "tomo"


@dataclass
class TomoGeometry:
    """Parallel-beam geometry: N x N pixel grid over [-d, d]^2, `rays` equally
    spaced parallel lines per angle spanning `span` across the detector,
    rotated about the domain center."""

    image_n: int
    half_width: float
    angles_deg: list
    rays: int
    span: float

    @property
    def rows(self) -> int:
        return len(self.angles_deg) * self.rays

    @property
    def cols(self) -> int:
        return self.image_n ** 2

    def validate(self) -> None:
        if self.image_n < 1 or self.half_width <= 0:
            raise ProblemError("degenerate tomography grid")
        if not self.angles_deg:
            raise ProblemError("empty angle list")
        if self.rays < 1 or self.span <= 0:
            raise ProblemError("degenerate detector (rays >= 1, span > 0 required)")

    def to_dict(self) -> dict:
        return {"image_n": self.image_n, "half_width": self.half_width,
                "angles_deg": list(self.angles_deg), "rays": self.rays,
                "span": self.span}

    @staticmethod
    def from_dict(d: dict) -> "TomoGeometry":
        return TomoGeometry(image_n=int(d["image_n"]),
                            half_width=float(d["half_width"]),
                            angles_deg=[float(a) for a in d["angles_deg"]],
                            rays=int(d["rays"]), span=float(d["span"]))


@dataclass
class ProblemInstance:
    A: mx.MatrixHandle
    b: np.ndarray
    x_star: np.ndarray | None = None
    r_tilde: np.ndarray | None = None
    kind: str = DENSE
    seed: int = 0
    geometry: TomoGeometry | None = None
    meta: dict = field(default_factory=dict)


# -- random matrix families ------------------------------------------------------


def gen_dense_gaussian(m: int, n: int, seed: int) -> mx.MatrixHandle:
    """i.i.d. standard-normal dense m x n matrix, deterministic per seed."""
    if m < 1 or n < 1:
        raise ProblemError(f"matrix dimensions must be >= 1, got {m} x {n}")
    rng = np.random.default_rng(seed)
    return mx.from_dense(rng.standard_normal((m, n)))


# Uniforms per block of the sparse presence mask.
_MASK_BLOCK = 1 << 16


def gen_sparse_gaussian(m: int, n: int, density: float, seed: int) -> mx.MatrixHandle:
    """CSR matrix with each entry present independently with probability
    `density` and standard-normal value.

    The presence mask and the values come from separate RNG substreams, so the
    pattern is reproducible independently of the values.
    """
    if m < 1 or n < 1:
        raise ProblemError(f"matrix dimensions must be >= 1, got {m} x {n}")
    if not 0.0 < density <= 1.0:
        raise ProblemError(f"density must lie in (0, 1], got {density}")
    import scipy.sparse as sp

    mask_seq, value_seq = np.random.SeedSequence(seed).spawn(2)
    # The mask is drawn in blocks of rows, so no m x n array exists at once;
    # stacked rng.random((k, n)) blocks are the doubles of one (m, n) draw.
    mask_rng = np.random.default_rng(mask_seq)
    step = max(1, _MASK_BLOCK // n)
    rows, cols = [], []
    for start in range(0, m, step):
        r, c = np.nonzero(mask_rng.random((min(step, m - start), n)) < density)
        rows.append(r + start)
        cols.append(c)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    values = np.random.default_rng(value_seq).standard_normal(rows.size)
    coo = sp.coo_matrix((values, (rows, cols)), shape=(m, n))
    return mx.from_scipy(coo)


def enforce_rank_deficiency(A: mx.MatrixHandle) -> mx.MatrixHandle:
    """Copy of A whose last row is the average of its first two rows."""
    if A.m < 3:
        raise ProblemError(f"need at least 3 rows, got {A.m}")
    if A.dense is not None:
        # one column-major copy, which the handle keeps: from_dense would
        # copy it again
        dense = np.array(A.dense, order="F")
        with np.errstate(over="ignore"):  # an overflow is raised below
            dense[-1] = 0.5 * (dense[0] + dense[1])
        if not np.all(np.isfinite(dense)):
            raise MatrixError("non-finite entry in dense matrix")
        return mx.MatrixHandle(dense=dense)
    import scipy.sparse as sp

    csr = A.csr
    avg = 0.5 * (csr[0] + csr[1])
    return mx.from_scipy(sp.vstack([csr[:-1], avg], format="csr"))


def build_inconsistent_rhs(A: mx.MatrixHandle, x_star: np.ndarray, seed: int,
                           scale: float):
    """(b, r_tilde) with b = A x_star + r_tilde, r_tilde in null(A^T) and
    ||r_tilde|| = scale * ||A x_star||.

    Requires a nontrivial null(A^T); raises otherwise with a hint to make the
    matrix rank-deficient or overdetermined.
    """
    if scale <= 0.0:
        raise ProblemError(f"scale must be positive (r_tilde must be nonzero), got {scale}")
    x_star = np.asarray(x_star, dtype=np.float64)
    ax = mx.matvec(A, x_star)
    ax_norm = float(np.linalg.norm(ax))
    if ax_norm == 0.0:
        raise ProblemError("A x_star is zero; cannot scale the null-space component")
    w = np.random.default_rng(seed).standard_normal(A.m)
    r = oracle.project_range_perp(A, w)
    r_norm = float(np.linalg.norm(r))
    if r_norm <= 1e-10 * float(np.linalg.norm(w)):
        raise ProblemError(
            "null(A^T) is numerically trivial; use a rank-deficient or "
            "overdetermined matrix to build an inconsistent right-hand side")
    r *= scale * ax_norm / r_norm
    # construction sanity: r must be orthogonal to range(A)
    at_r = (A.dense.T @ r) if A.dense is not None else (A.csr.T @ r)
    if float(np.linalg.norm(at_r)) > 1e-8 * np.sqrt(A.frob_sq) * float(np.linalg.norm(r)):
        raise ProblemError("null-space projection failed: A^T r_tilde is not ~0")
    return ax + r, r


def add_gaussian_noise(b_clean: np.ndarray, level: float, seed: int):
    """(b, r_tilde) with r_tilde Gaussian of relative 2-norm `level`.

    The noise is NOT projected onto null(A^T); this is the tomography
    convention where the perturbed system is genuinely inconsistent.
    """
    if level < 0.0:
        raise ProblemError(f"noise level must be >= 0, got {level}")
    b_clean = np.asarray(b_clean, dtype=np.float64)
    if level == 0.0:
        return b_clean.copy(), np.zeros_like(b_clean)
    b_norm = float(np.linalg.norm(b_clean))
    if b_norm == 0.0:
        raise ProblemError("cannot add relative noise to a zero right-hand side")
    g = np.random.default_rng(seed).standard_normal(b_clean.shape[0])
    r = g * (level * b_norm / float(np.linalg.norm(g)))
    return b_clean + r, r


# -- tomography -------------------------------------------------------------------


def _siddon_row(x0: float, y0: float, dx: float, dy: float, n: int,
                d: float, h: float):
    """Intersection lengths of one ray with the n x n pixel grid over [-d, d]^2.

    The ray is p(t) = (x0, y0) + t (dx, dy) with (dx, dy) a unit vector.
    Returns (pixel_columns, lengths) with pixels indexed column-major:
    flat = (n - 1 - iy) + ix * n, ix counting from the left edge, iy from the
    bottom edge.
    """
    tiny = 1e-12
    t_lo, t_hi = -np.inf, np.inf
    for p0, dp in ((x0, dx), (y0, dy)):
        if abs(dp) < tiny:
            if not -d <= p0 <= d:
                return None
        else:
            t1, t2 = (-d - p0) / dp, (d - p0) / dp
            t_lo = max(t_lo, min(t1, t2))
            t_hi = min(t_hi, max(t1, t2))
    if not t_lo < t_hi:
        return None

    crossings = [np.array([t_lo, t_hi])]
    planes = np.arange(n + 1) * h - d
    for p0, dp in ((x0, dx), (y0, dy)):
        if abs(dp) >= tiny:
            t = (planes - p0) / dp
            crossings.append(t[(t > t_lo) & (t < t_hi)])
    t = np.unique(np.concatenate(crossings))
    lengths = np.diff(t)
    keep = lengths > tiny
    if not np.any(keep):
        return None
    t_mid = 0.5 * (t[:-1] + t[1:])[keep]
    lengths = lengths[keep]
    ix = np.clip(((x0 + t_mid * dx + d) / h).astype(np.int64), 0, n - 1)
    iy = np.clip(((y0 + t_mid * dy + d) / h).astype(np.int64), 0, n - 1)
    return (n - 1 - iy) + ix * n, lengths


def gen_parallel_tomo(geom: TomoGeometry) -> mx.MatrixHandle:
    """CSR system matrix whose entry (ray, pixel) is the intersection length
    of the ray with the pixel, rows ordered angle-major then ray."""
    geom.validate()
    n, d = geom.image_n, geom.half_width
    h = 2.0 * d / n
    if geom.rays == 1:
        offsets = np.array([0.0])
    else:
        offsets = np.linspace(-geom.span / 2.0, geom.span / 2.0, geom.rays)

    data, indices, indptr = [], [], [0]
    nnz = 0
    for angle in geom.angles_deg:
        theta = np.deg2rad(angle)
        dx, dy = np.cos(theta), np.sin(theta)
        nx, ny = -dy, dx  # detector axis, perpendicular to the ray direction
        for off in offsets:
            hit = _siddon_row(off * nx, off * ny, dx, dy, n, d, h)
            if hit is not None:
                cols, lengths = hit
                order = np.argsort(cols)
                indices.append(cols[order])
                data.append(lengths[order])
                nnz += len(lengths)
            indptr.append(nnz)
    if nnz == 0:
        raise ProblemError("no ray intersects the domain; degenerate geometry")
    import scipy.sparse as sp

    csr = sp.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), np.array(indptr)),
        shape=(geom.rows, geom.cols))
    return mx.from_scipy(csr)


# modified Shepp-Logan ellipses: (intensity, a, b, x0, y0, phi_deg)
_ELLIPSES = (
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.8740, 0.0, -0.0184, 0.0),
    (-0.2, 0.1100, 0.3100, 0.22, 0.0, -18.0),
    (-0.2, 0.1600, 0.4100, -0.22, 0.0, 18.0),
    (0.1, 0.2100, 0.2500, 0.0, 0.35, 0.0),
    (0.1, 0.0460, 0.0460, 0.0, 0.1, 0.0),
    (0.1, 0.0460, 0.0460, 0.0, -0.1, 0.0),
    (0.1, 0.0460, 0.0230, -0.08, -0.605, 0.0),
    (0.1, 0.0230, 0.0230, 0.0, -0.606, 0.0),
    (0.1, 0.0230, 0.0460, 0.06, -0.605, 0.0),
)


def shepp_logan_phantom(n: int) -> np.ndarray:
    """Standard 10-ellipse head phantom on an n x n grid, values in [0, 1].

    Row 0 is the top of the image; pixel centers sample [-1, 1]^2.
    """
    if n < 8:
        raise ProblemError(f"phantom needs n >= 8, got {n}")
    centers = (np.arange(n) + 0.5) * (2.0 / n) - 1.0
    xg, yg = np.meshgrid(centers, centers[::-1])  # row 0 at the top
    img = np.zeros((n, n))
    for value, a, b, x0, y0, phi in _ELLIPSES:
        c, s = np.cos(np.deg2rad(phi)), np.sin(np.deg2rad(phi))
        xr = (xg - x0) * c + (yg - y0) * s
        yr = -(xg - x0) * s + (yg - y0) * c
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += value
    return np.clip(img, 0.0, 1.0)


# -- problem recipes -------------------------------------------------------------


def make_gaussian(kind: str, m: int, n: int, seed: int, density: float = 0.1,
                  rank_deficient: bool | None = None,
                  scale: float = 0.25) -> ProblemInstance:
    """Dense or sparse Gaussian instance with x* = 1 and b = A x* + r_tilde,
    r_tilde in null(A^T) of relative norm `scale` (build_inconsistent_rhs,
    seed + 1).  `rank_deficient` None means only when m <= n."""
    if kind == DENSE:
        A = gen_dense_gaussian(m, n, seed)
        meta = {"scale": scale}
    elif kind == SPARSE:
        A = gen_sparse_gaussian(m, n, density, seed)
        meta = {"scale": scale, "density": density}
    else:
        raise ConfigError(f"unknown problem kind {kind!r}")
    if rank_deficient is None:
        rank_deficient = m <= n
    if rank_deficient:
        A = enforce_rank_deficiency(A)
    x_star = np.ones(n)
    b, r = build_inconsistent_rhs(A, x_star, seed + 1, scale)
    return ProblemInstance(A=A, b=b, x_star=x_star, r_tilde=r, kind=kind,
                           seed=seed, meta=meta)


def make_tomo(geom: TomoGeometry, noise_level: float, seed: int) -> ProblemInstance:
    """Parallel-beam instance: x* is the Shepp-Logan phantom flattened
    column-major, b = A x* plus Gaussian noise of relative norm `noise_level`."""
    A = gen_parallel_tomo(geom)
    x_star = shepp_logan_phantom(geom.image_n).flatten(order="F")
    b, r = add_gaussian_noise(mx.matvec(A, x_star), noise_level, seed)
    return ProblemInstance(A=A, b=b, x_star=x_star, r_tilde=r, kind=TOMO,
                           seed=seed, geometry=geom,
                           meta={"noise_level": noise_level})


# -- on-disk problem directories ---------------------------------------------------


def save_problem(prob: ProblemInstance, directory) -> None:
    """Write A.mtx, b.txt, xstar.txt, rtilde.txt and meta.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    mx.write_matrix_market(prob.A, directory / "A.mtx")
    np.savetxt(directory / "b.txt", prob.b, fmt="%.17g")
    if prob.x_star is not None:
        np.savetxt(directory / "xstar.txt", prob.x_star, fmt="%.17g")
    if prob.r_tilde is not None:
        np.savetxt(directory / "rtilde.txt", prob.r_tilde, fmt="%.17g")
    meta = {"kind": prob.kind, "seed": prob.seed, "m": prob.A.m, "n": prob.A.n}
    meta.update(prob.meta)
    if prob.geometry is not None:
        meta["geometry"] = prob.geometry.to_dict()
    with open(directory / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_problem(directory) -> ProblemInstance:
    directory = Path(directory)
    A = mx.read_matrix_market(directory / "A.mtx")
    path = directory / "b.txt"
    try:
        b = np.atleast_1d(np.loadtxt(path))
        x_star = r_tilde = None
        if (path := directory / "xstar.txt").exists():
            x_star = np.atleast_1d(np.loadtxt(path))
        if (path := directory / "rtilde.txt").exists():
            r_tilde = np.atleast_1d(np.loadtxt(path))
        with open(path := directory / "meta.json") as fh:
            meta = json.load(fh)
        if not isinstance(meta, dict):
            raise TypeError("not a JSON object")
        geometry = None
        if "geometry" in meta:
            geometry = TomoGeometry.from_dict(meta.pop("geometry"))
    except (ValueError, KeyError, TypeError) as exc:  # an OSError stays one
        raise ProblemError(f"malformed {path}: {exc!r}") from exc
    kind = meta.pop("kind", DENSE)
    seed = meta.pop("seed", 0)
    meta.pop("m", None)
    meta.pop("n", None)
    return ProblemInstance(A=A, b=b, x_star=x_star, r_tilde=r_tilde,
                           kind=kind, seed=seed, geometry=geometry, meta=meta)
