"""Fixed-seed solves give the bits of the committed digest.

tests/data/solve_digest.json holds, for each cell, the SHA-1 of x_final,
outer_iters, final_res, the trace rows and every SolveReport counter (or
the error a solve raised): the five benchmark cells (REK, PREK, EMRK,
MEMRK4, MEMRK6) x {tol, budget, trace} on four dense matrices, some above
the A^T A, float32-shadow and row-cosine gates, and a CSR one.  The last bits of a
dot product depend on the BLAS, on the processor core it dispatches to and,
for the SVD oracle whose x_star sets the trace rows' err_sq, on its thread
count, so the digest is keyed by numpy version, BLAS name and version,
OpenBLAS core and OpenBLAS threads; under any other key the test skips and
names the key it lacks.

Run as a script, the module writes the digest of its own key into the file
and keeps the other keys.  A change that moves iterates or counters on
purpose regenerates both thread counts kept today, the default and one
thread:

    PYTHONPATH=src python tests/test_solve_digest.py
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_solve_digest.py

and names the cells that changed.  A failing test names, for each cell that
differs, the fields that do (`differing_fields`), so a regeneration that
moves only counters can be told from one that moves iterates.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from kmz import bench, oracle
from kmz import matrix as mx
from kmz import solvers as sv
from kmz.errors import KmzError

DIGEST = Path(__file__).parent / "data" / "solve_digest.json"

CELLS = (("rek", 1), ("prek", 1), ("emrk", 1), ("memrk", 4), ("memrk", 6))
MODES = ("tol", "budget", "trace")
# name -> (m, n, tol); the 1400 x 100, 2200 x 120 and 700 x 400 handles
# keep A^T A, the 2200 x 120 one also runs the float32 shadow (its row
# cosines would not fit), and 700 x 400 steps its greedy residual by the
# row cosines
SHAPES = {
    "dense_200x50_rank_deficient": (200, 50, 1e-8),
    "dense_1400x100": (1400, 100, 1e-6),
    "dense_2200x120": (2200, 120, 1e-6),
    "dense_700x400": (700, 400, 1e-6),
    "csr_300x60_empty_row_and_column": (300, 60, 1e-6),
}
MAX_OUTER = 6000   # caps the tol and trace modes
BUDGET = 500       # iterations of the budget mode
TRACE_EVERY = 37


def environment_key() -> str:
    env = bench.environment()
    core, threads = mx.openblas()
    return (f"numpy {env['numpy']}; blas {env['blas']['name']} "
            f"{env['blas']['version']}; core {core}; threads {threads}")


def problem(name: str):
    """(handle, b, tol) of a seeded shape: standard normal entries and
    b = A x + noise, inconsistent in every shape."""
    m, n, tol = SHAPES[name]
    rng = np.random.default_rng(sorted(SHAPES).index(name))
    entries = rng.standard_normal((m, n))
    b = entries @ rng.standard_normal(n) + 0.25 * rng.standard_normal(m)
    if name.startswith("csr"):
        entries[rng.random((m, n)) >= 0.2] = 0.0
        entries[17] = 0.0     # an empty row
        entries[:, 5] = 0.0   # an empty column
        return mx.from_scipy(sp.csr_matrix(entries)), b, tol
    if "rank_deficient" in name:
        entries[:, -1] = entries[:, 0] - 0.5 * entries[:, 1]
    return mx.from_dense(entries), b, tol


def digest_cell(A, b, tol, method, omega, mode, x_star) -> dict:
    config = sv.SolverConfig(
        method=method, omega=omega, seed=11,
        tol=None if mode == "budget" else tol,
        max_outer=BUDGET if mode == "budget" else MAX_OUTER,
        trace_every=TRACE_EVERY if mode == "trace" else 0)
    try:
        report = sv.solve(config, A, b,
                          x_star=x_star if mode == "trace" else None)
    except KmzError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {
        "x_sha1": hashlib.sha1(report.x_final.tobytes()).hexdigest(),
        "outer_iters": report.outer_iters,
        "final_res": report.final_res.hex(),
        "converged": report.converged,
        "trace": [[k, res.hex(), None if err is None else err.hex()]
                  for k, res, err in report.trace],
        "counters": {key: getattr(report, key) for key in (
            "resyncs", "floor_refreshes", "floor_tangents", "zero_row_skips",
            "shadow_passes", "full_passes", "gram_steps", "settled_picks")},
    }


# a cell's field -> its name in a failure message
FIELDS = {"x_sha1": "x_final", "outer_iters": "outer_iters",
          "final_res": "final_res", "converged": "converged",
          "trace": "trace", "error": "error", "message": "error message"}


def differing_fields(got: dict, want: dict) -> list[str]:
    """The fields in which two digests of a cell differ: x_final,
    outer_iters, final_res, converged, trace, the error raised, or
    counters.<name> for each counter, present in one only or unequal."""
    names = [FIELDS[key] for key in sorted(set(got) | set(want))
             if key != "counters" and got.get(key) != want.get(key)]
    mine, theirs = got.get("counters", {}), want.get("counters", {})
    return names + [f"counters.{key}" for key in sorted(set(mine) | set(theirs))
                    if mine.get(key) != theirs.get(key)]


def digest_shape(name: str) -> dict:
    A, b, tol = problem(name)
    x_star = oracle.svd_least_squares(A, b)
    return {f"{name}/{method}{omega}/{mode}":
            digest_cell(A, b, tol, method, omega, mode, x_star)
            for method, omega in CELLS for mode in MODES}


@pytest.fixture(scope="module")
def committed() -> dict:
    key = environment_key()
    cells = json.loads(DIGEST.read_text()).get(key)
    if cells is None:
        pytest.skip(f"{DIGEST.name} holds no digest for the key {key!r}")
    return cells


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_solves_match_the_committed_digest(name, committed):
    got = digest_shape(name)
    want = {cell: value for cell, value in committed.items()
            if cell.startswith(name + "/")}
    assert len(want) == len(CELLS) * len(MODES)
    assert {cell: differing_fields(got[cell], want[cell]) for cell in want
            if got[cell] != want[cell]} == {}


def test_differing_fields_names_each_field():
    cell = {"x_sha1": "a", "outer_iters": 3, "final_res": "0x1p-20",
            "converged": True, "trace": [[0, "0x1p+0", None]],
            "counters": {"full_passes": 2, "gram_steps": 3}}
    assert differing_fields(cell, dict(cell)) == []
    moved = dict(cell, x_sha1="b", trace=[],
                 counters={"full_passes": 1, "settled_picks": 4,
                           "gram_steps": 3})
    assert differing_fields(moved, cell) == [
        "trace", "x_final", "counters.full_passes", "counters.settled_picks"]
    raised = {"error": "DivergenceError", "message": "at 5"}
    assert differing_fields(raised, cell) == [
        "converged", "error", "final_res", "error message", "outer_iters",
        "trace", "x_final", "counters.full_passes", "counters.gram_steps"]


if __name__ == "__main__":
    digest = json.loads(DIGEST.read_text()) if DIGEST.exists() else {}
    cells = {}
    for name in sorted(SHAPES):
        cells.update(digest_shape(name))
    digest[environment_key()] = cells
    DIGEST.write_text(json.dumps(digest, indent=1, sort_keys=True) + "\n")
