"""Replays the margin-term table, tests/data/margin_terms.json, on a
temporary copy of the checkout.

Each row of the table names one term of a bound: of the residual
certificates in kmz.solvers (ResidualFloor, AnchoredResidual, GramResidual,
ResidualShadow) or of matrix.build_row_reach and matrix._norm_sq_bound.  It
gives the text `find` in `file` that holds the term, a mutant text
`replace` that drops or weakens it, and one of three outcomes:

  "fails <test id>"            the named test fails on the mutant;
  "proved redundant, removed"  the docstring proves the term redundant, and
                               `find` (its text before the removal) no
                               longer occurs in `file`;
  "open"                       neither yet: no test needs the term and no
                               proof removes it; `find` must still occur
                               once, and the mutant is not run.

For a "fails" row the script replaces the one occurrence of `find` by
`replace` in a copy of src/, tests/ and pyproject.toml, and runs the named
test with pytest -x, hypothesis restricted to the explicit @example inputs:
a drawn input pins nothing, as each run may draw anew.  Each named test is
first run on the unmutated copy, where it must pass.  The script prints one
line per row, reports every row whose outcome differs from the table, and
exits 1 if any does.  It writes nothing into the checkout.

    python tests/mutants.py          # every row
    python tests/mutants.py 3 7      # rows 3 and 7 (0-based)
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "data" / "margin_terms.json"
FAILS = "fails "
REMOVED = "proved redundant, removed"
OPEN = "open"
# A profile that runs only the explicit @example inputs of a hypothesis test.
CONFTEST = """from hypothesis import Phase, settings

settings.register_profile("explicit", phases=[Phase.explicit])
"""


def passes(copy: Path, test: str) -> bool:
    """Whether `test` passes in the copy; a run past 15 minutes fails."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-profile=explicit", test]
    try:
        return subprocess.run(cmd, cwd=copy, env=env, capture_output=True,
                              timeout=900).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def check(copy: Path, row: dict, clean: dict) -> str:
    """Why the row's outcome differs from the table, or "" if it does not."""
    path = copy / row["file"]
    text = path.read_text()
    count = text.count(row["find"])
    if row["outcome"] == REMOVED:
        return f"still in {row['file']}" if count else ""
    if count != 1:
        return f"find occurs {count} times in {row['file']}"
    if row["outcome"] == OPEN:
        return ""
    if not row["outcome"].startswith(FAILS):
        return f"unknown outcome {row['outcome']!r}"
    test = row["outcome"][len(FAILS):]
    if test not in clean:
        clean[test] = passes(copy, test)
    if not clean[test]:
        return "the test fails without the mutant"
    path.write_text(text.replace(row["find"], row["replace"]))
    try:
        return "the test passes the mutant" if passes(copy, test) else ""
    finally:
        path.write_text(text)


def main(argv: list) -> int:
    rows = json.loads(TABLE.read_text())
    picked = [int(a) for a in argv] or range(len(rows))
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", "*.egg-info"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / "conftest.py").write_text(CONFTEST)
        clean: dict = {}
        for k in picked:
            row = rows[k]
            why = check(copy, row, clean)
            state = "DIFFERS" if why else row["outcome"].split()[0]
            print(f"{k:3d} {state:7s} {row['place']}: "
                  f"{row['term']}{f' ({why})' if why else ''}", flush=True)
            if why:
                differ.append(k)
    still_open = sum(rows[k]["outcome"] == OPEN for k in picked)
    print(f"{len(picked) - len(differ)} of {len(picked)} rows as recorded, "
          f"{still_open} of them open"
          + (f"; differing: {differ}" if differ else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
