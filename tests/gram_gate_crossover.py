"""Times REK and PREK with the A^T A gate, matrix._keeps_gram, forced each
way: the crossover table that sets matrix._GRAM_MIN_BYTES.

Each row is one problem (problems.make_gaussian, instance seed 7 unless
the row names another; solve seed 1, tol 1e-6 unless the row names
another, at most 50000 iterations) on which build_row_reach forms A^T A,
8 n^2 <= A's stored bytes; only there does the gate choose anything.  A
"freed" solve runs with the gate forced false (no A^T A kept: the floor's
O(1) tier alone, per-row row_reach), a "kept" solve with it forced true
(refresh, tangent tier, spectral row_reach).  A certificate never changes
an iterate, so the script asserts that both sides give the same x_final,
iteration count and final RES.

Every solve runs on a fresh handle of the same entries, so its time is
SolveReport.wall_seconds with the one-off builds (row views, row_reach,
A^T A) in it, as the first solve on a matrix pays them.  The two sides
alternate in-process, the first side swapped from pair to pair.  Per row
and method the script prints the float64 passes, tangent rebuilds and
refreshes of each side, and each side's quartiles of the solve time; the
kept side is "faster" where it is lower in at least 9 of 10 pairs and its
median is below the freed median by more than the freed side's
interquartile range, "slower" where the same holds the other way, and
"within spread" otherwise.  The table goes to stdout as JSON, or to the
file given by --out.

    OPENBLAS_NUM_THREADS=1 python tests/gram_gate_crossover.py \\
        --out BENCH_gram_gate.json   # every row, 10 pairs: ~6 min on 2 cores
    python tests/gram_gate_crossover.py --pairs 3 --rows dense_700x400

The BLAS thread count defaults to one when OPENBLAS_NUM_THREADS is unset;
the table records the count OpenBLAS reports (environment.openblas).
pytest does not collect this file.
"""

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kmz import bench  # noqa: E402
from kmz import matrix as mx  # noqa: E402
from kmz import problems as pb  # noqa: E402
from kmz import solvers as sv  # noqa: E402

# name -> (kind, m, n, instance seed, other make_gaussian arguments, tol)
ROWS = {
    "dense_200x50_rank_deficient": ("dense", 200, 50, 7, {"rank_deficient": True},
                                    1e-8),
    "dense_400x100": ("dense", 400, 100, 7, {}, 1e-6),
    "dense_600x100": ("dense", 600, 100, 7, {}, 1e-6),
    "dense_256x250": ("dense", 256, 250, 7, {}, 1e-6),
    "dense_260x256": ("dense", 260, 256, 7, {}, 1e-6),
    "dense_300x250": ("dense", 300, 250, 7, {}, 1e-6),
    "dense_1000x70": ("dense", 1000, 70, 7, {}, 1e-6),
    "dense_3000x30": ("dense", 3000, 30, 7, {}, 1e-6),
    "dense_2000x50": ("dense", 2000, 50, 7, {}, 1e-6),
    "dense_1200x100": ("dense", 1200, 100, 7, {}, 1e-6),
    "dense_700x400": ("dense", 700, 400, 7, {}, 1e-6),
    "dense_1000x900": ("dense", 1000, 900, 7, {}, 1e-6),
    "csr_1000x200_d0.1": ("sparse", 1000, 200, 7, {"density": 0.1}, 1e-6),
    "csr_1500x250_d0.1": ("sparse", 1500, 250, 7, {"density": 0.1}, 1e-6),
    "csr_3000x300_d0.05": ("sparse", 3000, 300, 7, {"density": 0.05}, 1e-6),
    "csr_2000x400_d0.1_seed7": ("sparse", 2000, 400, 7, {"density": 0.1}, 1e-6),
    "csr_2000x400_d0.1_seed8": ("sparse", 2000, 400, 8, {"density": 0.1}, 1e-6),
}
METHODS = (sv.REK, sv.PREK)
SIDES = ("freed", "kept")
MAX_OUTER = 50_000


def fresh(A: mx.MatrixHandle) -> mx.MatrixHandle:
    """A handle of A's entries with nothing built."""
    return mx.MatrixHandle(dense=A.dense) if A.is_dense \
        else mx.MatrixHandle(csr=A.csr)


def solve(A, b, method, tol, kept: bool) -> sv.SolveReport:
    keeps_gram = mx._keeps_gram
    mx._keeps_gram = lambda _: kept
    try:
        return sv.solve(sv.SolverConfig(method=method, tol=tol, seed=1,
                                        max_outer=MAX_OUTER), fresh(A), b)
    finally:
        mx._keeps_gram = keeps_gram


def quartiles(xs: list) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def measure(name: str, pairs: int) -> dict:
    kind, m, n, seed, extra, tol = ROWS[name]
    prob = pb.make_gaussian(kind, m, n, seed, **extra)
    A, b = prob.A, prob.b
    stored = mx._stored_bytes(A)
    assert 8 * n * n <= stored, f"{name}: build_row_reach forms no A^T A"
    row = {"stored_bytes": stored, "gram_bytes": 8 * n * n,
           "keeps": mx._keeps_gram(A), "tol": tol}
    if not A.is_dense:
        row["nnz"] = int(A.csr.nnz)
    for method in METHODS:
        seconds = {side: [] for side in SIDES}
        reports = {}
        for p in range(pairs):
            for side in (SIDES if p % 2 == 0 else SIDES[::-1]):
                r = solve(A, b, method, tol, side == "kept")
                seconds[side].append(r.wall_seconds)
                reports.setdefault(side, []).append(r)
        f, k = reports["freed"][0], reports["kept"][0]
        assert f.x_final.tobytes() == k.x_final.tobytes(), (name, method)
        assert (f.outer_iters, f.final_res) == (k.outer_iters, k.final_res)
        q = {side: quartiles(seconds[side]) for side in SIDES}
        lower = sum(a < b for a, b in zip(seconds["kept"], seconds["freed"]))
        higher = sum(a > b for a, b in zip(seconds["kept"], seconds["freed"]))
        spread = q["freed"]["q3"] - q["freed"]["q1"]
        gap = q["freed"]["median"] - q["kept"]["median"]
        verdict = ("faster" if lower >= 0.9 * pairs and gap > spread else
                   "slower" if higher >= 0.9 * pairs and -gap > spread else
                   "within spread")
        row[method] = {
            "iters": f.outer_iters, "converged": f.converged,
            "passes": [f.full_passes, k.full_passes],
            "tangents": [f.floor_tangents, k.floor_tangents],
            "refreshes": [f.floor_refreshes, k.floor_refreshes],
            "build_s": [statistics.median(r.build_seconds["row_reach"]
                                          for r in reports[side])
                        for side in SIDES],
            "seconds": q, "kept_lower_pairs": f"{lower}/{pairs}",
            "freed_iqr": spread, "verdict": verdict}
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--rows", nargs="*", choices=list(ROWS),
                        default=list(ROWS))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    table = {
        "what": "REK/PREK solve seconds (wall_seconds, builds included, on "
                "a fresh handle) with matrix._keeps_gram forced false "
                "(freed) and true (kept); pairs alternate in-process. "
                "passes, tangents, refreshes and build_s are [freed, kept].",
        "command": "OPENBLAS_NUM_THREADS=1 python tests/gram_gate_crossover.py",
        "environment": bench.environment(),
        "gate": {"rule": "max(8 n^2, _GRAM_MIN_BYTES) <= stored bytes",
                 "_GRAM_MIN_BYTES": mx._GRAM_MIN_BYTES},
        "pairs": args.pairs, "max_outer": MAX_OUTER, "solve_seed": 1,
        "rows": {},
    }
    for name in args.rows:
        row = table["rows"][name] = measure(name, args.pairs)
        print(name, json.dumps({k: row[k] for k in METHODS}), file=sys.stderr,
              flush=True)
    text = json.dumps(table, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
