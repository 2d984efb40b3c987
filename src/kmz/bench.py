"""Experiment harness: seeded batch runs, tomography reconstructions and
CSV/JSON result emission.

Every (method, trial) cell derives its own RNG stream from the experiment
seed, the method tag and the trial index, so results are deterministic
regardless of execution order.
"""

from __future__ import annotations

import json
import logging
import math
import os
import platform
import statistics
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from . import oracle, problems, solvers
from .errors import ConfigError, KmzError

log = logging.getLogger(__name__)

RESULT_HEADER = "method,m,n,omega,seed,iters,wall_seconds,final_res,err_sq,psnr"


@dataclass
class ExperimentSpec:
    kind: str = problems.DENSE          # dense | sparse
    m: int = 100
    n: int = 20
    density: float = 0.1                # sparse only
    methods: list = field(default_factory=lambda: [("memrk", 4)])
    trials: int = 1
    tol: float = 1e-6
    max_outer: int = 50_000
    seed: int = 0
    scale: float = 0.25                 # ||r_tilde|| / ||A x*||
    rank_deficient: bool | None = None  # None -> only when m <= n
    record_err: bool = False            # squared error vs the oracle solution

    def validate(self) -> None:
        if self.kind not in (problems.DENSE, problems.SPARSE):
            raise ConfigError(f"experiment kind must be dense or sparse, got {self.kind!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        for method, omega in self.methods:
            solvers.SolverConfig(method=method, omega=omega, tol=self.tol,
                                 max_outer=self.max_outer).validate()

    def to_dict(self) -> dict:
        return asdict(self) | {"methods": [[m, o] for m, o in self.methods]}

    @staticmethod
    def from_dict(d: dict) -> "ExperimentSpec":
        """Build a spec from parsed JSON, coercing each value to its field's
        declared type ("2" -> 2 for an int field); ConfigError otherwise."""
        if not isinstance(d, dict):
            raise ConfigError(f"experiment spec must be a JSON object, got {type(d).__name__}")
        types = {f.name: f.type for f in fields(ExperimentSpec)}
        spec = ExperimentSpec()
        for key, value in d.items():
            if key not in types:
                raise ConfigError(f"unknown experiment field {key!r}")
            setattr(spec, key, convert(key, _COERCE[types[key]], value))
        return spec


# -- converters: a JSON value, or the text of a command-line flag, to a typed
# value; a ValueError says what the value must be, and convert() names the key.


def convert(key: str, converter, value):
    """converter(value), its ValueError raised as a ConfigError naming key."""
    try:
        return converter(value)
    except ValueError as exc:
        raise ConfigError(f"{key} {exc}") from None


def as_int(value) -> int:
    """An integer, an integral float or the text of an integer; not a bool."""
    error = ValueError(f"must be an integer, got {value!r}")
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise error
    try:
        return int(value)
    except (TypeError, ValueError):
        raise error from None


def as_float(value) -> float:
    """A finite number, or its text; not a bool."""
    error = ValueError(f"must be a number, got {value!r}")
    if isinstance(value, bool):
        raise error
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise error from None
    if not math.isfinite(number):
        raise ValueError(f"must be a finite number, got {value!r}")
    return number


def as_bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def as_str(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


def as_path(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"must be a path string, got {value!r}")
    return value


_METHOD_ITEMS = "a list of name[:omega] strings or [name, omega] pairs"


def as_methods(value) -> list:
    """[(name, omega), ...], names lower-cased, from a list whose items are
    "name[:omega]" strings (omega 1 when left out) or [name, omega] pairs."""
    if not isinstance(value, list):
        raise ValueError(f"must be {_METHOD_ITEMS}, got {value!r}")
    methods = []
    for item in value:
        pair = item
        if isinstance(item, str):
            name, sep, omega = item.strip().partition(":")
            pair = (name, omega if sep else 1)
        try:
            name, omega = pair
            methods.append((as_str(name).lower(), as_int(omega)))
        except (TypeError, ValueError):
            raise ValueError(f"must be {_METHOD_ITEMS}, got {item!r}") from None
    return methods


# Converters keyed by the field annotations of ExperimentSpec.
_COERCE = {
    "str": as_str, "int": as_int, "float": as_float, "bool": as_bool,
    "bool | None": lambda v: None if v is None else as_bool(v),
    "list": as_methods,
}


@dataclass
class ResultRow:
    method: str
    m: int
    n: int
    omega: int
    seed: int            # trial index; -1 marks the per-method median row
    iters: int
    wall_seconds: float
    final_res: float
    err_sq: float | None = None
    psnr: float | None = None


def method_label(method: str, omega: int) -> str:
    return f"{method}{omega}" if method == solvers.MEMRK else method


def _cell_seed(base: int, method_index: int, trial: int) -> int:
    return int(np.random.SeedSequence([base, method_index, trial]).generate_state(1)[0])


def _make_problem(spec: ExperimentSpec, trial: int) -> problems.ProblemInstance:
    seed = int(np.random.SeedSequence([spec.seed, 0xA, trial]).generate_state(1)[0])
    return problems.make_gaussian(spec.kind, spec.m, spec.n, seed, spec.density,
                                  spec.rank_deficient, spec.scale)


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """All (method, trial) cells, rows sorted (method, trial), with one
    median row (seed = -1) appended per method."""
    spec.validate()
    probs = [_make_problem(spec, t) for t in range(spec.trials)]
    refs = [None] * spec.trials
    if spec.record_err:
        refs = [oracle.svd_least_squares(p.A, p.b) for p in probs]

    def run_cell(mi, trial):
        method, omega = spec.methods[mi]
        prob = probs[trial]
        config = solvers.SolverConfig(
            method=method, omega=omega, tol=spec.tol, max_outer=spec.max_outer,
            seed=_cell_seed(spec.seed, mi, trial))
        try:
            report = solvers.solve(config, prob.A, prob.b)
        except KmzError as exc:
            log.error("cell (%s, trial %d) failed: %s", method_label(method, omega),
                      trial, exc)
            return ResultRow(method_label(method, omega), spec.m, spec.n, omega,
                             trial, -1, math.nan, math.nan)
        err_sq = None
        if refs[trial] is not None:
            err_sq = float(np.sum((report.x_final - refs[trial]) ** 2))
        return ResultRow(method_label(method, omega), spec.m, spec.n, omega,
                         trial, report.outer_iters, report.wall_seconds,
                         report.final_res, err_sq)

    rows = [run_cell(mi, t) for mi in range(len(spec.methods))
            for t in range(spec.trials)]
    rows.sort(key=lambda r: (r.method, r.seed))
    aggregates = []
    for mi, (method, omega) in enumerate(spec.methods):
        label = method_label(method, omega)
        group = [r for r in rows if r.method == label and r.iters >= 0]
        if not group:
            continue
        errs = [r.err_sq for r in group if r.err_sq is not None]
        aggregates.append(ResultRow(
            label, spec.m, spec.n, omega, -1,
            iters=int(statistics.median(r.iters for r in group)),
            wall_seconds=statistics.median(r.wall_seconds for r in group),
            final_res=statistics.median(r.final_res for r in group),
            err_sq=statistics.median(errs) if errs else None))
    return rows + aggregates


def median_iters(rows: list[ResultRow]) -> dict[str, int]:
    """Median IT per method, read off the appended aggregate rows."""
    return {r.method: r.iters for r in rows if r.seed == -1}


# -- tomography pipeline -----------------------------------------------------------


def psnr(x_true: np.ndarray, x_recon: np.ndarray) -> float:
    """Peak signal-to-noise ratio 10 log10(max(x_true)^2 / MSE) in dB.

    Returns +inf when the images are identical (zero MSE).
    """
    x_true = np.asarray(x_true, dtype=np.float64)
    x_recon = np.asarray(x_recon, dtype=np.float64)
    if x_true.shape != x_recon.shape:
        raise KmzError(f"image shapes differ: {x_true.shape} vs {x_recon.shape}")
    peak = float(np.max(x_true))
    if peak <= 0.0:
        raise KmzError("reference image is constant zero; PSNR undefined")
    mse = float(np.mean((x_true - x_recon) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def tomo_experiment(geom: problems.TomoGeometry, noise_level: float,
                    methods: list, iter_budget_factor: int = 10,
                    seed: int = 0):
    """Reconstruct the head phantom from noisy parallel-beam data.

    Each method runs for exactly iter_budget_factor * m outer iterations
    (SolverConfig tol None: no residual stop) and is scored by PSNR
    against the phantom.  Returns (rows, images) where images maps 'phantom'
    and each method label to an N x N array.
    """
    prob = problems.make_tomo(geom, noise_level, seed)
    A, b, n_img = prob.A, prob.b, geom.image_n
    phantom = prob.x_star.reshape((n_img, n_img), order="F")

    budget = iter_budget_factor * A.m
    rows, images = [], {"phantom": phantom}
    if budget == 0:
        zero = np.zeros_like(phantom)
        for mi, (method, omega) in enumerate(methods):
            rows.append(ResultRow(method_label(method, omega), A.m, A.n, omega,
                                  0, 0, 0.0, 1.0, psnr=psnr(phantom, zero)))
        return rows, images

    for mi, (method, omega) in enumerate(methods):
        config = solvers.SolverConfig(
            method=method, omega=omega, tol=None, max_outer=budget,
            seed=_cell_seed(seed, mi, 0))
        report = solvers.solve(config, A, b)
        recon = report.x_final.reshape((n_img, n_img), order="F")
        label = method_label(method, omega)
        images[label] = recon
        rows.append(ResultRow(label, A.m, A.n, omega, 0, report.outer_iters,
                              report.wall_seconds, report.final_res,
                              psnr=psnr(phantom, recon)))
    return rows, images


# -- emission ----------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def result_line(r: ResultRow) -> str:
    """One CSV line under RESULT_HEADER; None fields are left empty."""
    return ",".join(_fmt(v) for v in (r.method, r.m, r.n, r.omega, r.seed, r.iters,
                                      r.wall_seconds, r.final_res, r.err_sq, r.psnr))


def emit_results(rows: list[ResultRow], path) -> None:
    """Fixed-header CSV; None fields are left empty."""
    with open(path, "w") as fh:
        fh.write(RESULT_HEADER + "\n")
        for r in rows:
            fh.write(result_line(r) + "\n")


def environment() -> dict:
    """What a result depends on beyond the spec: interpreter, numpy, scipy,
    the BLAS numpy calls (its strided ddot decides the row-dot bits) and
    the processors this process may run on."""
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": nproc}


def emit_meta(spec: ExperimentSpec, path) -> None:
    meta = {"spec": spec.to_dict(), "kmz_version": __version__,
            "environment": environment()}
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_pgm(img: np.ndarray, path) -> None:
    """8-bit plain PGM, image scaled to [0, 255] over its own range."""
    img = np.asarray(img, dtype=np.float64)
    lo, hi = float(img.min()), float(img.max())
    scaled = np.zeros_like(img) if hi <= lo else (img - lo) / (hi - lo)
    pixels = np.round(scaled * 255).astype(int)
    with open(path, "w") as fh:
        fh.write(f"P2\n{img.shape[1]} {img.shape[0]}\n255\n")
        for row in pixels:
            fh.write(" ".join(str(v) for v in row) + "\n")


def write_image_txt(img: np.ndarray, path) -> None:
    np.savetxt(path, np.asarray(img, dtype=np.float64), fmt="%.17g")
