"""Seeded kmz benchmark: time to tolerance per method, set-up and memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A round is one call to ``kmz.bench.run_experiment`` on inputs made from the
seed.  A run first makes SETUP_PASSES short passes (the same set-up with
one-iteration solves).  It then makes one round, and more while the next is
expected to end within S seconds of the first, so it measures whole rounds
for at most S seconds unless one round takes longer.  Every solver cell of
every round is checked against numpy (checks.py) outside the timed region.
A speed probe (SpeedProbe) runs between the solve calls of untraced rounds,
and every time is reported at the reference machine's unloaded speed.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds (tracing.py) and prints the per-layer metrics.  The last line
of stdout is one JSON object; a record of the run with its environment,
per-round figures and the trace is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

METHODS = [("rek", 1), ("prek", 1), ("emrk", 1), ("memrk", 4), ("memrk", 6)]
LABELS = ("rek", "prek", "emrk", "memrk4", "memrk6")
MAX_OUTER = 50_000
SETUP_PASSES = 7

# Workloads, as kmz.bench.ExperimentSpec fields.
WORKLOADS = {
    "dense-6000x500": dict(kind="dense", m=6000, n=500, trials=1, tol=1e-6),
    "small-200x50": dict(kind="dense", m=200, n=50, trials=20, tol=1e-8,
                         rank_deficient=True),
}

# Speed probe per workload: (steps of one probe chunk, the chunk's time on an
# unloaded vCPU of the reference machine in README.md).  The time is a fixed
# unit: it was set so that the scaled figures match the times measured there
# while the machine was quiet.
PROBES = {
    "dense-6000x500": (5, 0.00493),
    "small-200x50": (20, 0.000143),
}
# After each solve call the probe runs for this share of the time since it
# last ran, so it samples the machine's speed evenly over a round.
PROBE_SHARE = 0.1

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
M_MMAP_THRESHOLD = -3          # mallopt parameter, from glibc's malloc.h
MMAP_THRESHOLD = 128 * 1024

# Per-layer metrics: name -> (unit, how, traced names).  "group" is the wall
# time during which any of the names is on the stack, "count" the number of
# calls, "self" the summed self time, "counter" a meter's running total.  A
# name ending in ".*" stands for every instrumented name with that prefix.
LAYER_METRICS = {
    "solvers.col_steps": ("count", "count", ["solvers.z_project_column"]),
    "solvers.row_steps": ("count", "count", ["solvers.x_project_row"]),
    "solvers.sample_s": ("s", "group", ["solvers.sample_column_weighted",
                                        "solvers.sample_row_weighted",
                                        "solvers.CyclicColumnCursor.next"]),
    "solvers.z_step_s": ("s", "group", ["solvers.z_project_column"]),
    "solvers.x_step_s": ("s", "group", ["solvers.x_project_row"]),
    "solvers.select_s": ("s", "group", ["solvers.select_max_residual_row"]),
    "solvers.solve_self_s": ("s", "self", ["solvers.solve"]),
    "matrix.matvec_calls": ("count", "count", ["matrix.matvec"]),
    "matrix.matvec_s": ("s", "group", ["matrix.matvec"]),
    "matrix.matvec_flops": ("count", "counter", ["matrix.matvec"]),
    "matrix.matvec_bytes": ("B", "counter", ["matrix.matvec"]),
    "matrix.col_kernel_s": ("s", "group", ["matrix.col_dot", "matrix.axpy_col"]),
    "matrix.row_kernel_s": ("s", "group", ["matrix.row_dot", "matrix.axpy_row"]),
    "matrix.handle_s": ("s", "group", ["matrix.from_dense", "matrix.from_csr",
                                       "matrix.from_scipy", "matrix.build_matrix"]),
    "problems.gen_s": ("s", "group", ["problems.gen_dense_gaussian",
                                      "problems.gen_sparse_gaussian",
                                      "problems.enforce_rank_deficiency"]),
    "problems.rhs_s": ("s", "group", ["problems.build_inconsistent_rhs"]),
    "oracle.svd_calls": ("count", "count", ["oracle.svd_least_squares"]),
    "oracle.svd_s": ("s", "group", ["oracle.svd_least_squares"]),
    "bench.self_s": ("s", "self", ["bench.*"]),
}


def pin_environment() -> dict:
    """Pins what would otherwise vary from run to run.  Call before numpy is
    imported.

    - BLAS threads default to 1 and never exceed nproc, and kmz cells run
      serially.  With two OpenBLAS threads the set-up of small-200x50 took
      0.98 s, with one 0.04 s.
    - numpy asks for no transparent huge pages.  It otherwise asks for them
      for arrays of 4 MB or more, and whether the host has free ones varies:
      with them, 1500 REK iterations on dense-6000x500 took 2.0-2.1 s,
      without 2.1-2.4 s.
    - glibc's mmap threshold is fixed at its default of 128 KiB.  glibc
      otherwise raises it after a large array is freed, and later arrays
      then come from the heap, whose layout varies: in 5 of 12 processes
      the set-up of dense-6000x500 peaked 13.6 MB higher.  Fixed, every
      array of 128 KiB or more gets its own mapping, returned when freed.
    """
    for var in BLAS_VARS:
        try:
            n = int(os.environ.get(var, "1"))
        except ValueError:
            n = 1
        os.environ[var] = str(min(max(n, 1), NPROC))
    os.environ["KMZ_THREADS"] = "0"
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    pinned = {var: os.environ[var] for var in (*BLAS_VARS, "KMZ_THREADS",
                                                "NUMPY_MADVISE_HUGEPAGE")}
    try:
        fixed = ctypes.CDLL("libc.so.6").mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    except (OSError, AttributeError):   # not glibc
        fixed = False
    pinned["malloc_mmap_threshold"] = MMAP_THRESHOLD if fixed else None
    return pinned


def git_revision() -> dict:
    if not (ROOT / ".git").exists():
        return {"revision": None, "dirty": None}
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"revision": None, "dirty": None}
    if rev.returncode != 0:
        return {"revision": None, "dirty": None}
    return {"revision": rev.stdout.strip(),
            "dirty": status.returncode != 0 or bool(status.stdout.strip())}


def environment(pinned: dict) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "pinned": pinned,
            "nproc": NPROC, "git": git_revision()}


# -- one round ------------------------------------------------------------------


@dataclass
class Cell:
    label: str
    A: object
    b: object
    report: object          # None when solve raised
    seconds: float
    probe_chunks: int = 0   # speed probe run right after this cell
    probe_s: float = 0.0


@dataclass
class Round:
    wall: float
    cells: list
    failed: int = 0
    trace: object = None
    failures: list = field(default_factory=list)
    excess: dict = field(default_factory=dict)

    @property
    def setup(self) -> float:
        return self.wall - sum(c.seconds for c in self.cells)

    def chunk_s(self, label: str | None = None) -> float:
        """Mean time of a probe chunk over the round, or over the probes
        that ran right after the cells of one method."""
        cells = [c for c in self.cells if label in (None, c.label)]
        return sum(c.probe_s for c in cells) / sum(c.probe_chunks for c in cells)

    def per_label(self, what) -> dict:
        out = dict.fromkeys(LABELS, 0)
        for c in self.cells:
            out[c.label] += what(c)
        return out

    def solve_s(self) -> dict:
        return self.per_label(lambda c: c.seconds)

    def iters(self) -> dict:
        """Outer iterations per method; a cell whose solve raised counts -1."""
        return self.per_label(lambda c: c.report.outer_iters if c.report else -1)


class SpeedProbe:
    """Measures how fast the machine runs while a round runs.

    A chunk is a fixed randomized Kaczmarz loop in plain numpy on a matrix
    of the workload's shape: a row step and a full residual per step, the
    same mix of interpreter and mat-vec work as a kmz iteration.  It uses no
    kmz code, and every chunk of every run does the same arithmetic, so its
    time changes only with the machine.  Other tenants slow the reference
    machine by up to 2x, in bursts of milliseconds and in spells of minutes;
    the benchmark divides its times by the chunk's to take that out (see
    scaled()).
    """

    def __init__(self, workload: str):
        import numpy as np

        self.np = np
        spec = WORKLOADS[workload]
        steps, self.unloaded_s = PROBES[workload]
        rng = np.random.default_rng(20240917)
        self.A = rng.standard_normal((spec["m"], spec["n"]))
        self.b = rng.standard_normal(spec["m"])
        norms = np.einsum("ij,ij->i", self.A, self.A)
        self.inv_norms = 1.0 / norms
        self.cdf = np.cumsum(norms) / norms.sum()
        self.u = rng.random(steps)
        # Work arrays, so that a chunk allocates no array memory and leaves
        # the heap, and with it peak_rss_mb, as kmz alone would.
        self.x = np.empty(spec["n"])
        self.step = np.empty(spec["n"])
        self.r = np.empty(spec["m"])

    def chunk(self) -> None:
        np, A, b, x, step, r = self.np, self.A, self.b, self.x, self.step, self.r
        x.fill(0.0)
        for u in self.u:
            i = int(np.searchsorted(self.cdf, u))
            row = A[i]
            np.multiply(row, (b[i] - row @ x) * self.inv_norms[i], out=step)
            x += step
            np.matmul(A, x, out=r)
            np.subtract(b, r, out=r)
        if not np.isfinite(r @ r):
            raise RuntimeError("speed probe diverged")

    def measure(self, covered_s: float) -> tuple[int, float]:
        """Runs chunks for PROBE_SHARE of covered_s, and at least one;
        returns (chunks, seconds)."""
        chunks, start = 0, time.perf_counter()
        while True:
            self.chunk()
            chunks += 1
            elapsed = time.perf_counter() - start
            if elapsed >= PROBE_SHARE * covered_s:
                return chunks, elapsed


class SolveRecorder:
    """Rebinds kmz.solvers.solve to time each call from outside and keep the
    inputs and report the checks need.  With a probe, runs it after each
    call, outside the call's time, and adds up the probes' time."""

    def __init__(self, solvers, probe=None):
        self.solvers = solvers
        self.probe = probe
        self.probe_s = 0.0
        self.cells: list[Cell] = []

    def __enter__(self):
        original = self.original = self.solvers.solve
        self.probed = time.perf_counter()

        def solve(config, A, b, *args, **kwargs):
            report = None
            start = time.perf_counter()
            try:
                report = original(config, A, b, *args, **kwargs)
                return report
            finally:
                label = config.method + (str(config.omega) if config.method == "memrk" else "")
                end = time.perf_counter()
                cell = Cell(label, A, b, report, end - start)
                if self.probe is not None:
                    cell.probe_chunks, cell.probe_s = self.probe.measure(end - self.probed)
                    self.probe_s += cell.probe_s
                    self.probed = time.perf_counter()
                self.cells.append(cell)

        self.solvers.solve = solve
        return self

    def __exit__(self, *exc):
        self.solvers.solve = self.original


def run_round(kmz, workload: str, seed: int, short: bool = False,
              probe: SpeedProbe | None = None) -> Round:
    """One call into kmz.bench; `short` keeps the set-up and cuts every
    solve to one iteration.  The probes' time is not part of the round's."""
    spec = kmz.bench.ExperimentSpec(methods=list(METHODS), seed=seed,
                                    max_outer=1 if short else MAX_OUTER,
                                    **WORKLOADS[workload])
    with SolveRecorder(kmz.solvers, probe) as rec:
        start = time.perf_counter()
        kmz.bench.run_experiment(spec)
        wall = time.perf_counter() - start - rec.probe_s
    # run_experiment logs a failed cell and gives it iters = -1; the recorder
    # sees the same cell as a solve call that raised.
    done = sum(c.report is not None for c in rec.cells)
    return Round(wall, rec.cells, failed=len(METHODS) * spec.trials - done)


def check_round(rnd: Round, workload: str) -> None:
    """Fills rnd.failures and rnd.excess from checks.py."""
    import checks

    tol = WORKLOADS[workload]["tol"]
    refs = {}
    for c in rnd.cells:
        if c.report is None:
            continue
        if id(c.A) not in refs:
            a = c.A.to_dense()
            refs[id(c.A)] = (a, checks.lstsq_reference(a, c.b))
        a, x_ls = refs[id(c.A)]
        rel_limit = (checks.MEMRK4_REL_ERR_LIMIT
                     if workload == "small-200x50" and c.label == "memrk4" else None)
        failures, excess = checks.check_cell(
            c.label, a, c.b, c.report.x_final, x_ls, c.report.converged, tol, rel_limit)
        rnd.failures += failures
        rnd.excess[c.label] = max(rnd.excess.get(c.label, 0.0), excess)


# -- tracing --------------------------------------------------------------------


def matvec_meter(A, *args, **kwargs) -> dict:
    """Computed (not measured) work of y = A x: 2 flops per stored entry, and
    the bytes of the entries, their indices, x and y each read or written once."""
    dense, csr = getattr(A, "dense", None), getattr(A, "csr", None)
    if dense is not None:
        nnz, index_bytes = dense.size, 0
    elif csr is not None:
        nnz, index_bytes = csr.nnz, csr.indices.nbytes + csr.indptr.nbytes
    else:
        return {}
    return {"matrix.matvec_flops": 2 * nnz,
            "matrix.matvec_bytes": 8 * nnz + index_bytes + 8 * (A.m + A.n)}


def make_tracer(kmz):
    import tracing

    targets = []
    for short in ("bench", "solvers", "matrix", "problems", "oracle"):
        targets += tracing.public_functions(getattr(kmz, short), short)
    cursor = getattr(kmz.solvers, "CyclicColumnCursor", None)
    if cursor is not None and hasattr(cursor, "next"):
        targets.append((cursor, "next", "solvers.CyclicColumnCursor.next"))
    names = {t[2] for t in targets}
    groups: dict[str, list] = {}
    for metric, (_, how, sources) in LAYER_METRICS.items():
        if how == "group":
            for name in sources:
                groups.setdefault(name, []).append(metric)
    tracer = tracing.Tracer()
    tracer.instrument(targets, groups, {"matrix.matvec": matvec_meter})
    return tracer, names


def expand(sources, names) -> tuple[list, list]:
    """(present, missing) traced names for a metric's sources."""
    present, missing = [], []
    for s in sources:
        if s.endswith(".*"):
            found = sorted(n for n in names if n.startswith(s[:-1]))
            present += found
            if not found:
                missing.append(s)
        elif s in names:
            present.append(s)
        else:
            missing.append(s)
    return present, missing


def layer_values(tracer, names) -> tuple[dict, set]:
    values, missing = {}, set()
    for metric, (_, how, sources) in LAYER_METRICS.items():
        present, gone = expand(sources, names)
        missing.update(gone)
        if not present:
            continue   # every source is gone: reported as missing, not as zero
        if how == "group":
            values[metric] = tracer.group_s[metric]
        elif how == "count":
            values[metric] = sum(tracer.stats[n][0] for n in present)
        elif how == "self":
            values[metric] = sum(tracer.stats[n][2] for n in present)
        elif metric in tracer.counters:
            values[metric] = tracer.counters[metric]
        elif all(tracer.stats[n][0] == 0 for n in present):
            values[metric] = 0   # never called; a meter that could not read A stays missing
    return values, missing


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values):
    return statistics.median(list(values))


def scaled(rounds: list, unloaded_s: float) -> dict:
    """Each end-to-end time of each round, given at the speed of the
    unloaded reference machine: divided by the mean probe chunk of the same
    round (of the same method's cells, for solve_s) and multiplied by the
    chunk's unloaded time."""
    times = {"wall_s": [], "setup_s": []}
    for r in rounds:
        times["wall_s"].append(r.wall * unloaded_s / r.chunk_s())
        times["setup_s"].append(r.setup * unloaded_s / r.chunk_s())
        for label, t in r.solve_s().items():
            times.setdefault(f"solve_s.{label}", []).append(t * unloaded_s / r.chunk_s(label))
    return times


def layer_metrics(plain: list, traced: list, missing: set, unloaded_s: float) -> dict:
    """Per-layer metrics: iteration counts, untraced seconds per iteration
    (from solve_s as --trace 0 gives it), and the traced layer figures,
    each from its fastest traced round."""
    iters = plain[0].iters()
    solve_s = {name: median(ts) for name, ts in scaled(plain, unloaded_s).items()}
    metrics = {f"solvers.iters.{label}": (iters[label], "count") for label in LABELS}
    for label in LABELS:
        if iters[label] > 0:
            metrics[f"solvers.iter_us.{label}"] = (
                solve_s[f"solve_s.{label}"] / iters[label] * 1e6, "us")
    per_round = []
    for rnd in traced:
        values, gone = layer_values(*rnd.trace)
        per_round.append(values)
        missing |= gone
    for metric, (unit, _, _) in LAYER_METRICS.items():
        if all(metric in v for v in per_round):
            metrics[metric] = (min(v[metric] for v in per_round), unit)
    metrics["trace_overhead_s"] = (min(r.wall for r in traced)
                                   - min(r.wall for r in plain), "s")
    return metrics


# -- a run ----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pinned = pin_environment()
    if not (SRC / "kmz" / "__init__.py").is_file():
        sys.exit(f"perfbench: no kmz package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import kmz.bench
    import kmz.matrix
    import kmz.oracle
    import kmz.problems
    import kmz.solvers

    env = environment(pinned)
    # The probe's arrays stay resident throughout; peak_rss_mb leaves out
    # the memory the process gained while making them.
    rss_before = max_rss_mb()
    probe = SpeedProbe(workload)
    probe.chunk()
    probe_rss_mb = max_rss_mb() - rss_before

    def setup_pass() -> tuple[float, float]:
        # Only the figures are kept, so a pass's matrices are freed before
        # the next pass makes its own.
        r = run_round(kmz, workload, seed, short=True, probe=probe)
        return r.setup, r.chunk_s()

    passes = [setup_pass() for _ in range(SETUP_PASSES)]

    plain, traced, peak_rss_mb = [], [], None
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        plain.append(run_round(kmz, workload, seed, probe=probe))
        if peak_rss_mb is None:   # before any check allocates
            peak_rss_mb = max_rss_mb() - probe_rss_mb
        if trace:
            tracer, names = make_tracer(kmz)
            try:
                traced.append(run_round(kmz, workload, seed))
            finally:
                tracer.restore()
            traced[-1].trace = (tracer, names)
        now = time.perf_counter()
        if now - start + (now - begin) > seconds:
            break

    rounds = plain + traced
    for rnd in rounds:
        check_round(rnd, workload)
    failures = [f for rnd in rounds for f in rnd.failures]
    if len({json.dumps(r.iters()) for r in rounds}) > 1:
        failures.append("iteration counts differ between rounds: "
                        + "; ".join(json.dumps(r.iters()) for r in rounds))

    missing = set()
    if trace:
        metrics = layer_metrics(plain, traced, missing, probe.unloaded_s)
        for name in sorted(missing):
            print(f"missing: {name} is no longer a public name", file=sys.stderr)
    else:
        times = scaled(plain, probe.unloaded_s)
        times["setup_s"] += [t * probe.unloaded_s / chunk for t, chunk in passes]
        metrics = {name: (median(ts), "s") for name, ts in times.items()}
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

    attempted = len(METHODS) * WORKLOADS[workload]["trials"] * len(rounds)
    failed = sum(r.failed for r in rounds)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "probe_unloaded_s": probe.unloaded_s,
        "probe_rss_mb": probe_rss_mb,
        "setup_passes": [{"setup_s": t, "probe_chunk_s": chunk} for t, chunk in passes],
        "rounds": [{"traced": r.trace is not None, "wall_s": r.wall, "setup_s": r.setup,
                    "solve_s": r.solve_s(), "iters": r.iters(),
                    "probe_chunk_s": None if r.trace else
                    {label: r.chunk_s(label) for label in (None, *LABELS)},
                    "failed": r.failed, "excess_residual": r.excess}
                   for r in rounds],
        "failures": failures, "missing": sorted(missing),
        "traces": [r.trace[0].to_dict() for r in traced],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"env {json.dumps(env, sort_keys=True)}")
    for f in failures:
        print(f"check failed: {f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
