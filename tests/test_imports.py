"""The dense path imports no scipy submodule, and with emit_meta no scipy.

scipy.sparse and scipy.io hold about 22 MB of a kmz process, and the dense
path (problem generation, the SVD oracle, the five solvers and the bench
harness) needs numpy alone, so kmz imports them where a CSR handle, the
sparse or tomography generators, or Matrix Market I/O first needs them;
bench.environment reads scipy's version from its installed metadata.  The
check runs in a fresh interpreter: this one has imported scipy already.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import sys
import tempfile
from pathlib import Path

import numpy as np

import kmz.cli
from kmz import bench, oracle, problems, solvers
from kmz import matrix as mx


def loaded():
    return sorted(name for name in sys.modules
                  if name.startswith(("scipy.sparse", "scipy.io", "scipy.linalg")))


spec = bench.ExperimentSpec(
    kind="dense", m=200, n=50, rank_deficient=True, trials=1, tol=1e-8,
    methods=[("rek", 1), ("prek", 1), ("emrk", 1), ("memrk", 4), ("memrk", 6)])
rows = bench.run_experiment(spec)
assert len(rows) == 10 and all(row.iters > 0 for row in rows), rows
dense = problems.make_gaussian(problems.DENSE, 200, 50, 0, rank_deficient=True)
oracle.spectral_profile(dense.A)
assert loaded() == [], "the dense path imported " + ", ".join(
    sorted({".".join(name.split(".")[:2]) for name in loaded()}))
with tempfile.TemporaryDirectory() as tmp:
    bench.emit_meta(spec, Path(tmp) / "meta.json")  # scipy's version unimported
assert not any(name.split(".")[0] == "scipy" for name in sys.modules), \
    "a dense emit_meta imported scipy"

sparse = problems.make_gaussian(problems.SPARSE, 120, 30, 1, density=0.3)
assert sparse.A.csr is not None and "scipy.sparse" in sys.modules
report = solvers.solve(solvers.SolverConfig(method="rek", seed=0),
                       sparse.A, sparse.b)
assert report.converged, report.final_res

with tempfile.TemporaryDirectory() as tmp:
    for name, A in (("dense", dense.A), ("csr", sparse.A)):
        path = Path(tmp) / f"{name}.mtx"
        mx.write_matrix_market(A, path)
        back = mx.read_matrix_market(path)
        assert (back.dense is None) == (A.dense is None), name
        assert np.array_equal(back.to_dense(), A.to_dense()), name
print("ok")
"""


def test_dense_path_imports_no_scipy_submodule():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
