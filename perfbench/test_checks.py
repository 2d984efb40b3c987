"""Self-test of the answer checks: each one passes the reference answer and
rejects a perturbed one.

    python3 -m pytest -q perfbench/test_checks.py
"""

import numpy as np

import checks


def problem():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((200, 50))
    b = a @ np.ones(50) + 0.25 * rng.standard_normal(200)
    return a, b, checks.lstsq_reference(a, b)


def test_reference_answer_passes():
    a, b, x_ls = problem()
    failures, excess = checks.check_cell("memrk4", a, b, x_ls.copy(), x_ls, True, 1e-8,
                                         checks.MEMRK4_REL_ERR_LIMIT)
    assert failures == [] and excess < 1e-20


def test_excess_residual_rejects_perturbed_x():
    a, b, x_ls = problem()
    direction = np.random.default_rng(1).standard_normal(50)
    for label, off in (("rek", 0.03), ("emrk", 0.3)):
        x = x_ls + off * np.linalg.norm(x_ls) * direction / np.linalg.norm(direction)
        failures, excess = checks.check_cell(label, a, b, x, x_ls, True, 1e-6)
        assert excess > checks.EXCESS_LIMIT.get(label, checks.EXCESS_LIMIT_DEFAULT)
        assert len(failures) == 1 and "excess residual" in failures[0]


def test_relative_error_rejects_null_space_shift():
    # x_ls plus a null(A) vector has the same residual but is not the
    # minimum-norm solution: only the relative-error check can see it.
    a, b, _ = problem()
    a[:, -1] = a[:, 0]
    x_ls = checks.lstsq_reference(a, b)
    null = np.zeros(50)
    null[0], null[-1] = 1.0, -1.0
    x = x_ls + 0.01 * np.linalg.norm(x_ls) * null
    failures, excess = checks.check_cell("memrk4", a, b, x, x_ls, True, 1e-8,
                                         checks.MEMRK4_REL_ERR_LIMIT)
    assert excess < 1e-20
    assert len(failures) == 1 and "relative error" in failures[0]


def test_unconverged_cell_rejected():
    a, b, x_ls = problem()
    failures, _ = checks.check_cell("prek", a, b, x_ls, x_ls, False, 1e-6)
    assert len(failures) == 1 and "max_outer" in failures[0]
