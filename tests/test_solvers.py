import copy
import itertools
import math
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kmz.solvers as sv
from kmz import bench
from kmz import matrix as mx
from kmz import oracle
from kmz import problems as pb
from kmz.errors import (ConfigError, DivergenceError, NonFiniteInputError,
                        SolverError, ZeroRowError)
from kmz.solvers import (CyclicColumnCursor, SolverConfig, residual,
                         sample_column_weighted, sample_row_weighted,
                         select_max_residual_row, solve, x_project_row,
                         z_project_column)


def handle(rows):
    """A dense handle of `rows`, with the row views that a solve's plan
    builds first (matrix.build_rows), so that the row kernels and the
    certificates can be called outside solve."""
    A = mx.from_dense(np.asarray(rows, dtype=float))
    mx.build_rows(A, mx._keeps_rows(A))
    return A


def z_multi_step(rng, z, A, omega):
    """omega successive weighted-random column projections of z, in place."""
    for _ in range(omega):
        z_project_column(z, A, sample_column_weighted(rng, A))
    return z


class TestSampling:
    def test_single_nonzero_column(self):
        A = handle([[0.0, 3.0]])
        rng = np.random.default_rng(0)
        assert all(sample_column_weighted(rng, A) == 1 for _ in range(20))

    def test_column_frequencies(self):
        A = handle([[1.0, 0.0], [0.0, np.sqrt(3.0)]])  # squared norms 1 and 3
        rng = np.random.default_rng(1)
        draws = np.array([sample_column_weighted(rng, A) for _ in range(100_000)])
        freq = np.bincount(draws, minlength=2) / draws.size
        assert abs(freq[0] - 0.25) < 0.01
        assert abs(freq[1] - 0.75) < 0.01

    def test_zero_norm_column_never_sampled(self):
        A = handle([[1.0, 0.0, np.sqrt(3.0)]])
        rng = np.random.default_rng(2)
        draws = [sample_column_weighted(rng, A) for _ in range(10_000)]
        assert 1 not in draws

    def test_row_frequencies(self):
        A = handle([[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]])  # squared norms 9, 16, 0
        rng = np.random.default_rng(3)
        draws = np.array([sample_row_weighted(rng, A) for _ in range(100_000)])
        freq = np.bincount(draws, minlength=3) / draws.size
        assert abs(freq[0] - 0.36) < 0.01
        assert abs(freq[1] - 0.64) < 0.01
        assert freq[2] == 0.0

    def test_zero_matrix_rejected(self):
        A = handle([[0.0, 0.0]])
        rng = np.random.default_rng(4)
        with pytest.raises(SolverError):
            sample_row_weighted(rng, A)
        with pytest.raises(SolverError):
            sample_column_weighted(rng, A)


class TestCyclicCursor:
    def test_wraps(self):
        A = handle(np.eye(3))
        cur = CyclicColumnCursor()
        assert [cur.next(A) for _ in range(5)] == [0, 1, 2, 0, 1]

    def test_skips_zero_columns(self):
        A = handle([[1.0, 0.0, 2.0]])
        cur = CyclicColumnCursor()
        assert [cur.next(A) for _ in range(4)] == [0, 2, 0, 2]

    def test_single_column(self):
        A = handle([[1.0], [2.0]])
        cur = CyclicColumnCursor()
        assert [cur.next(A) for _ in range(3)] == [0, 0, 0]

    def test_all_zero_columns_rejected(self):
        A = handle([[0.0, 0.0]])
        with pytest.raises(SolverError):
            CyclicColumnCursor().next(A)


class TestProjections:
    def test_z_step_removes_column_component(self):
        A = handle([[1.0], [0.0], [1.0]])
        z = z_project_column(np.array([1.0, 1.0, 1.0]), A, 0)
        assert np.allclose(z, [0.0, 1.0, 0.0])

    def test_z_step_annihilates_the_column_itself(self):
        A = handle([[1.0], [0.0], [1.0]])
        z = z_project_column(np.array([1.0, 0.0, 1.0]), A, 0)
        assert np.allclose(z, 0.0, atol=1e-15)

    def test_z_step_leaves_orthogonal_vectors(self):
        A = handle([[1.0], [0.0], [1.0]])
        z0 = np.array([1.0, 5.0, -1.0])
        assert np.allclose(z_project_column(z0.copy(), A, 0), z0)

    def test_x_step_examples(self):
        A = handle([[3.0, 4.0]])
        x = x_project_row(np.zeros(2), A, 0, 5.0)
        assert np.allclose(x, [0.6, 0.8])
        B = handle([[0.0, 1.0]])
        y = x_project_row(np.array([1.0, 1.0]), B, 0, 7.0)
        assert np.allclose(y, [1.0, 7.0])

    def test_x_step_zero_row(self):
        A = handle([[0.0, 0.0]])
        with pytest.raises(ZeroRowError, match="row 0 has zero norm; cannot project"):
            x_project_row(np.zeros(2), A, 0, 1.0)

    def test_x_step_lands_on_hyperplane(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            A = handle(rng.standard_normal((4, 6)))
            i = int(rng.integers(0, 4))
            beta = float(rng.standard_normal())
            x = x_project_row(rng.standard_normal(6), A, i, beta)
            assert mx.row_dot(A, i, x) == pytest.approx(beta, rel=1e-10, abs=1e-10)


class TestMultiStep:
    def test_omega_one_matches_single_step(self):
        A = handle(np.random.default_rng(6).standard_normal((5, 3)))
        z0 = np.arange(5.0)
        za = z_multi_step(np.random.default_rng(7), z0.copy(), A, 1)
        j = sample_column_weighted(np.random.default_rng(7), A)
        zb = z_project_column(z0.copy(), A, j)
        assert np.array_equal(za, zb)

    def test_cyclic_sweep_on_identity_hits_zero(self):
        A = handle(np.eye(4))
        cur = CyclicColumnCursor()
        z = np.random.default_rng(8).standard_normal(4)
        for _ in range(4):
            z = z_project_column(z, A, cur.next(A))
        assert np.allclose(z, 0.0, atol=1e-15)

    def test_range_orthogonal_fixed_point(self):
        rng = np.random.default_rng(9)
        A = handle(rng.standard_normal((8, 3)))
        b = rng.standard_normal(8)
        bperp = oracle.project_range_perp(A, b)
        for omega in (1, 3, 6):
            z = z_multi_step(np.random.default_rng(10), bperp.copy(), A, omega)
            assert np.allclose(z, bperp, atol=1e-12)

    def test_statistical_contraction(self):
        rng = np.random.default_rng(11)
        A = handle(rng.standard_normal((100, 20)))
        b = rng.standard_normal(100)
        bperp = oracle.project_range_perp(A, b)
        prof = oracle.spectral_profile(A)
        for omega in (1, 4):
            ratios = np.zeros(30)
            for seed in range(100):
                step_rng = np.random.default_rng(seed)
                z = b.copy()
                for k in range(30):
                    before = float(np.sum((z - bperp) ** 2))
                    z = z_multi_step(step_rng, z, A, omega)
                    ratios[k] += np.sum((z - bperp) ** 2) / before
            ratios /= 100
            assert np.all(ratios <= prof.alpha ** omega * 1.10)


class TestGreedySelection:
    def test_examples(self):
        assert select_max_residual_row(np.array([1.0, -3.0, 2.0])) == 1
        assert select_max_residual_row(np.array([5.0, 5.0, 1.0])) == 0
        assert select_max_residual_row(np.zeros(2)) == 0

    def test_residual_examples(self):
        A = handle(np.eye(2))
        b = np.array([3.0, 4.0])
        assert np.array_equal(residual(A, np.zeros(2), b, np.zeros(2)), b)
        assert np.array_equal(residual(A, b.copy(), b, np.zeros(2)), [0.0, 0.0])
        assert np.array_equal(residual(A, np.zeros(2), b, b.copy()), [0.0, 0.0])


class TestConfig:
    def test_non_greedy_methods_reject_multi_step(self):
        for method in (sv.REK, sv.PREK, sv.EMRK):
            with pytest.raises(ConfigError):
                SolverConfig(method=method, omega=3).validate()

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            SolverConfig(method="bogus").validate()
        with pytest.raises(ConfigError):
            SolverConfig(method=sv.MEMRK, omega=0).validate()
        with pytest.raises(ConfigError):
            SolverConfig(method=sv.REK, tol=0.0).validate()
        with pytest.raises(ConfigError):
            SolverConfig(method=sv.REK, max_outer=0).validate()

    def test_valid_configs(self):
        SolverConfig(method=sv.MEMRK, omega=6).validate()
        SolverConfig(method=sv.EMRK).validate()


class TestSolve:
    def fat_problem(self, seed=0):
        rng = np.random.default_rng(seed)
        A = handle(rng.standard_normal((60, 12)))
        x_star = rng.standard_normal(12)
        w = rng.standard_normal(60)
        r = oracle.project_range_perp(A, w)
        return A, mx.matvec(A, x_star) + r, x_star

    def test_consistent_system_recovers_solution(self):
        rng = np.random.default_rng(100)
        A = handle(rng.standard_normal((30, 6)))
        x_true = rng.standard_normal(6)
        b = mx.matvec(A, x_true)
        for method, omega in ((sv.REK, 1), (sv.PREK, 1), (sv.EMRK, 1), (sv.MEMRK, 2)):
            rep = solve(SolverConfig(method=method, omega=omega, seed=3,
                                     tol=1e-14, max_outer=100_000), A, b)
            assert rep.converged, method
            assert np.allclose(rep.x_final, x_true, atol=1e-5), method

    def test_inconsistent_padded_identity(self):
        A = handle([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        b = np.array([1.0, 2.0, 3.0])
        seen = {}

        def grab(k, i, x_prev, x, z):
            seen["z"] = z.copy()

        rep = solve(SolverConfig(method=sv.MEMRK, omega=4, seed=0, tol=1e-20),
                    A, b, callback=grab)
        assert np.allclose(rep.x_final, [1.0, 2.0], atol=1e-8)
        assert np.allclose(seen["z"], [0.0, 0.0, 3.0], atol=1e-8)

    def test_all_methods_reach_least_squares_solution(self):
        A, b, _ = self.fat_problem(12)
        x_ls = oracle.svd_least_squares(A, b)
        for method, omega in ((sv.REK, 1), (sv.PREK, 1), (sv.EMRK, 1), (sv.MEMRK, 4)):
            rep = solve(SolverConfig(method=method, omega=omega, seed=5,
                                     tol=1e-12, max_outer=200_000), A, b)
            assert rep.converged, method
            assert np.linalg.norm(rep.x_final - x_ls) <= 1e-4 * np.linalg.norm(x_ls)

    def test_greedy_picks_dominant_residual_row(self):
        A, b, _ = self.fat_problem(13)
        checked = []

        def check(k, i, x_prev, x, z):
            r = b - mx.matvec(A, x_prev) - z
            checked.append(abs(r[i]) >= np.max(np.abs(r)) - 1e-12)

        solve(SolverConfig(method=sv.MEMRK, omega=2, seed=1, max_outer=300,
                           tol=1e-300), A, b, callback=check)
        assert checked and all(checked)

    def test_hyperplane_membership_each_step(self):
        A, b, _ = self.fat_problem(14)

        def check(k, i, x_prev, x, z):
            assert mx.row_dot(A, i, x) == pytest.approx(b[i] - z[i], rel=1e-10, abs=1e-10)

        solve(SolverConfig(method=sv.REK, seed=2, max_outer=200, tol=1e-300),
              A, b, callback=check)

    def test_trace_semantics(self):
        A, b, _ = self.fat_problem(15)
        rep = solve(SolverConfig(method=sv.EMRK, seed=0, max_outer=40,
                                 tol=1e-300, trace_every=1), A, b)
        assert not rep.converged
        assert rep.outer_iters == 40
        assert len(rep.trace) == 41
        assert rep.trace[0] == (0, 1.0, None)
        ks = [row[0] for row in rep.trace]
        assert ks == list(range(41))

    def test_trace_stride(self):
        A, b, _ = self.fat_problem(16)
        rep = solve(SolverConfig(method=sv.EMRK, seed=0, max_outer=10,
                                 tol=1e-300, trace_every=4), A, b)
        assert [row[0] for row in rep.trace] == [0, 4, 8, 10]

    def test_error_trace_with_reference(self):
        A, b, x_star = self.fat_problem(17)
        x_ls = oracle.svd_least_squares(A, b)
        rep = solve(SolverConfig(method=sv.MEMRK, omega=2, seed=0, max_outer=20,
                                 tol=1e-300, trace_every=1), A, b, x_star=x_ls)
        assert all(len(row) == 3 for row in rep.trace)
        assert rep.trace[0][2] == pytest.approx(float(x_ls @ x_ls))

    def test_determinism_bit_identical(self):
        A, b, _ = self.fat_problem(18)
        cfg = SolverConfig(method=sv.MEMRK, omega=3, seed=9, max_outer=150,
                           tol=1e-300, trace_every=1)
        r1 = solve(cfg, A, b)
        r2 = solve(cfg, A, b)
        assert np.array_equal(r1.x_final, r2.x_final)
        assert r1.trace == r2.trace

    def test_zero_rhs_is_solved_by_the_start(self):
        A = handle(np.eye(2))
        for b in (np.zeros(2), np.array([0.0, -0.0])):
            for method in sv.METHODS:
                rep = solve(SolverConfig(method=method), A, b)
                assert rep.converged and rep.outer_iters == 0
                assert rep.full_passes == 0 and rep.trace == [(0, 0.0, None)]
                assert np.array_equal(rep.x_final, [0.0, 0.0])

    def test_zero_row_greedy_pick_is_skipped(self):
        # range(A) has no component in coordinate 0, so the deflated residual
        # there is identically zero; when argmax lands on the zero row the
        # solver must skip the update rather than divide by a zero norm.
        A = handle([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([5.0, 0.0])
        rep = solve(SolverConfig(method=sv.MEMRK, omega=2, seed=0), A, b)
        assert rep.converged
        assert rep.outer_iters == 1
        assert np.array_equal(rep.x_final, [0.0, 0.0])

    def test_divergence_guard(self, monkeypatch):
        monkeypatch.setattr(sv, "DIVERGENCE_CAP", 1e-12)
        A, b, _ = self.fat_problem(19)
        with pytest.raises(DivergenceError):
            solve(SolverConfig(method=sv.REK, seed=0, max_outer=1000, tol=1e-300), A, b)

    def test_b_length_mismatch(self):
        with pytest.raises(SolverError):
            solve(SolverConfig(method=sv.REK), handle(np.eye(2)), np.ones(3))

    def test_write_trace_csv(self, tmp_path):
        A, b, _ = self.fat_problem(20)
        rep = solve(SolverConfig(method=sv.EMRK, seed=0, max_outer=5,
                                 tol=1e-300, trace_every=1), A, b)
        path = tmp_path / "trace.csv"
        sv.write_trace_csv(rep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,res"
        assert len(lines) == 7


def tall_problem(seed, m=1200, n=100, rank_deficient=False):
    A = pb.gen_dense_gaussian(m, n, seed)
    if rank_deficient:
        A = pb.enforce_rank_deficiency(A)
    b, _ = pb.build_inconsistent_rhs(A, np.ones(n), seed + 1, 0.25)
    return A, b


def rek_steps(A, b, x, z, floor, rng, steps):
    """Yields after each REK outer iteration, moving `floor` along."""
    for _ in range(steps):
        z_project_column(z, A, sample_column_weighted(rng, A), floor)
        i = sample_row_weighted(rng, A)
        x_project_row(x, A, i, float(b[i] - z[i]), floor)
        yield


def floor_case(case, seed):
    """(A, b, tol) for the shapes on which REK/PREK skip recomputes."""
    if case == "tall":
        return (*tall_problem(seed), 1e-6)
    if case == "rank_deficient":
        return (*tall_problem(seed, m=200, n=50, rank_deficient=True), 1e-8)
    if case == "near_square":  # one row short of the old m >= 4n cutoff
        return (*tall_problem(seed, m=4 * 25 - 1, n=25), 1e-6)
    if case == "wide":
        rng = np.random.default_rng(seed)
        return handle(rng.standard_normal((30, 60))), rng.standard_normal(30), 1e-6
    if case == "gated":  # 140000 stored entries: the handle keeps A^T A
        return (*tall_problem(seed, m=1400, n=100), 1e-6)
    A = pb.gen_sparse_gaussian(300, 60, 0.2, seed)
    b, _ = pb.build_inconsistent_rhs(A, np.ones(60), seed + 1, 0.25)
    return A, b, 1e-6


def exact_path(mp):
    """Makes solve run every method on the certificate that certifies
    nothing, so r is formed wherever a pick or a stop test needs it: the
    reference that every certified shortcut must match.  That is the plan
    of a budget-mode REK solve, which builds the row views alone."""
    plan = sv.plan
    mp.setattr(sv, "plan", lambda method, A, b, budget, max_outer:
               plan(sv.REK, A, b, True, max_outer))


def new_floor(A, b):
    """The ResidualFloor of A from the plan of a REK solve with a RES stop,
    with the row views and the row_reach (and A^T A) it builds."""
    floor, _ = sv.plan(sv.REK, A, b, False, 1)
    return floor


def finite_reach(A):
    """Whether A's row_reach, built as that plan builds it, is finite; a
    floor on any other is never positive."""
    mx.build_row_reach(A, mx._keeps_gram(A))
    return bool(np.isfinite(A.row_reach).all())


# The two increment sources of a dense greedy AnchoredResidual: a column of
# the row cosines per x-step (GramResidual), or a float32 pass over A
# (ResidualShadow).
SOURCES = ("gram", "pass")


def lift_cosine_gate(mp):
    """Lets a dense handle of any shape keep its row cosines (the gate's
    finite-norm test still holds): on a matrix of a few columns the panel
    store's padding alone outweighs the 16 m n bytes that the gate allows."""
    mp.setattr(mx, "_cosine_bytes", lambda m: 0)


def use_source(mp, source):
    """Makes a dense greedy solve above the shadow gate advance r~ from
    `source`: "pass" takes the float32 pass by failing the cosines' gate,
    "gram" the row cosines with their byte gate lifted."""
    if source == "pass":
        mp.setattr(mx, "_fits_cosines", lambda A: False)
    else:
        lift_cosine_gate(mp)


def raised_at(cfg, A, b):
    """The outer iteration at which solve raises DivergenceError."""
    with pytest.raises(DivergenceError) as info:
        solve(cfg, A, b)
    return int(str(info.value).rsplit(" ", 1)[1])


def exact_residual_norm(entries, x, b, z):
    """||b - A x - z|| for A's `entries` in long double, far closer to the
    exact value than the float64 rounding the floor allows for."""
    ld = np.longdouble
    r = b.astype(ld) - entries @ x.astype(ld) - z.astype(ld)
    return float(np.sqrt(np.sum(r * r)))


class TestCarriedResidual:
    """REK/PREK carry a lower bound on ||r|| (ResidualFloor) and skip the full
    recompute while it proves RES >= tol; the shortcut must not change a
    single iterate, count or reported RES."""

    @pytest.mark.parametrize("case", ["tall", "rank_deficient", "near_square",
                                      "wide", "csr", "gated"])
    def test_matches_full_recompute(self, case, monkeypatch):
        for seed in range(10):
            A, b, tol = floor_case(case, seed)
            for method in (sv.REK, sv.PREK):
                cfg = SolverConfig(method=method, tol=tol, seed=seed, trace_every=97)
                with monkeypatch.context() as mp:
                    exact_path(mp)
                    full = solve(cfg, A, b)
                floor = solve(cfg, A, b)
                assert full.converged and floor.converged
                assert floor.outer_iters == full.outer_iters, (seed, method)
                assert floor.final_res == full.final_res
                assert np.array_equal(floor.x_final, full.x_final)
                assert floor.trace == full.trace
                # the shortcut ran: measured 0.12-0.27 recomputes per
                # iteration over these cases, trace rows included
                assert full.resyncs == full.outer_iters
                assert floor.resyncs <= floor.outer_iters / 3
                if A.gram is None:  # below the cost gate: the O(1) tier only
                    assert floor.floor_refreshes == 0
                    continue
                with monkeypatch.context() as mp:
                    mp.setattr(A, "gram", None)
                    o1 = solve(cfg, A, b)
                assert np.array_equal(o1.x_final, floor.x_final)
                assert floor.floor_refreshes > 0
                assert floor.resyncs < o1.resyncs, (seed, method)
        assert (A.gram is not None) == (case == "gated")
        # greedy runs on either increment source of the anchored residual
        # (gate patched to take any dense shape) take the exact path's
        # iterates
        cfg = SolverConfig(method=sv.EMRK, tol=tol, seed=0)
        with monkeypatch.context() as mp:
            exact_path(mp)
            plain = solve(cfg, A, b)
        for source in SOURCES:
            with monkeypatch.context() as mp:
                mp.setattr(sv, "_SHADOW_MIN_ENTRIES", 0)
                use_source(mp, source)
                greedy = solve(cfg, A, b)
            assert greedy.x_final.tobytes() == plain.x_final.tobytes()
            assert (greedy.outer_iters, greedy.final_res) == \
                (plain.outer_iters, plain.final_res)
            assert greedy.full_passes + greedy.shadow_passes \
                + greedy.gram_steps >= greedy.outer_iters
            assert (greedy.shadow_passes > 0) == (A.is_dense and source == "pass")
            assert (greedy.gram_steps > 0) == (A.is_dense and source == "gram")

    def test_first_iteration_stop_is_kept(self, monkeypatch):
        # small-200x50 seed 48 of the benchmark stops at k = 1 (RES_1 < tol
        # because z starts at b); the carried statistic must stop there too
        spec = bench.ExperimentSpec(kind="dense", m=200, n=50, trials=20, tol=1e-8,
                                    methods=[("rek", 1), ("prek", 1)], seed=48,
                                    rank_deficient=True)
        carried = bench.run_experiment(spec)
        exact_path(monkeypatch)
        full = bench.run_experiment(spec)
        assert [(r.iters, r.final_res) for r in carried] == \
               [(r.iters, r.final_res) for r in full]
        assert min(r.iters for r in carried) == 1

    @pytest.mark.parametrize("kind", ["tall", "rank_deficient", "badly_scaled",
                                      "wide", "csr"])
    def test_floor_below_recomputed_norm(self, kind):
        # 2000 iterations without a reset
        rng = np.random.default_rng(11)
        if kind == "badly_scaled":
            entries = rng.standard_normal((300, 40)) * np.logspace(-3, 3, 40) \
                * np.logspace(-2, 2, 300)[:, None]
            A, b = handle(entries), 100.0 * rng.standard_normal(300)
        else:
            A, b, _ = floor_case(kind, 3)
        x0 = rng.standard_normal(A.n)
        entries = A.to_dense().astype(np.longdouble)
        # Without a reset the floor runs out after a few steps; so the same
        # 2000 steps run a second time with a reset whenever L <= 0, as solve
        # would, and then most steps test a positive floor.
        for reset_when_spent in (False, True):
            x, z = x0.copy(), b.copy()
            floor = new_floor(A, b)
            r = residual(A, x, b, z)
            floor.anchor(x, z, None, float(r @ r))
            norm = exact_residual_norm(entries, x, b, z)
            assert 0.0 < floor.L <= norm and floor.L > (1.0 - 1e-9) * norm
            positive = 0
            steps = rek_steps(A, b, x, z, floor, np.random.default_rng(12), 2000)
            for k, _ in enumerate(steps, start=1):
                norm = exact_residual_norm(entries, x, b, z)
                assert floor.L <= norm, (k, floor.L, norm)
                assert floor.xi >= np.linalg.norm(x)
                assert floor.zeta >= np.linalg.norm(z)
                positive += floor.L > 0.0
                if reset_when_spent and floor.L <= 0.0:
                    r = residual(A, x, b, z)
                    floor.anchor(x, z, None, float(r @ r))
            assert positive >= (1000 if reset_when_spent else 2), positive

    @pytest.mark.parametrize("kind", ["tall", "rank_deficient", "badly_scaled",
                                      "csr"])
    def test_refreshed_floor_below_recomputed_norm(self, kind, monkeypatch):
        # the handle keeps its own A^T A below the cost gate too, so the
        # refresh runs on the H that row_reach built (densified CSR blocks
        # for "csr")
        monkeypatch.setattr(mx, "_keeps_gram", lambda A: True)
        rng = np.random.default_rng(13)
        if kind == "badly_scaled":
            entries = rng.standard_normal((300, 40)) * np.logspace(-3, 3, 40) \
                * np.logspace(-2, 2, 300)[:, None]
            A, b = handle(entries), 100.0 * rng.standard_normal(300)
        else:
            A, b, _ = floor_case(kind, 4)
        floor = new_floor(A, b)
        assert floor.H is not None
        x, z = rng.standard_normal(A.n), b.copy()
        entries = A.to_dense().astype(np.longdouble)

        r = residual(A, x, b, z)
        floor.anchor(x, z, None, float(r @ r))
        raised, worst = 0, 1.0
        for k, _ in enumerate(rek_steps(A, b, x, z, floor,
                                        np.random.default_rng(14), 2000), start=1):
            before, xi, zeta = floor.L, floor.xi, floor.zeta
            floor.refresh(x)
            norm = exact_residual_norm(entries, x, b, z)
            assert floor.L <= norm, (k, floor.L, norm)
            assert floor.L >= before and (floor.xi, floor.zeta) == (xi, zeta)
            raised += floor.L > before
            worst = min(worst, floor.L / norm)
        # measured: every refresh raised L, to at least 0.99996 ||r||; the
        # O(1) floor alone needed 172-599 resets in these 2000 steps
        assert raised >= 1900 and worst > 0.999, (raised, worst)

    # Each case below fails if the rounding term it names is dropped from
    # ResidualFloor.refresh or the D it subtracts; L is -inf before the
    # refresh, so it is the refresh's.  Where a test sets c^, z and D by hand,
    # they are the state that exact column steps from z = b leave.

    @staticmethod
    def gram_floor(entries, b):
        A = handle(entries)
        b = np.array(b, dtype=float)
        floor = new_floor(A, b)
        floor.H = A.dense.T @ A.dense  # fl(A^T A), as the handle forms it
        floor.coef = np.zeros(A.n)
        return A, b, floor

    @staticmethod
    def refreshed(A, floor, x, b, z):
        floor.L = -np.inf
        floor.refresh(x)
        exact = exact_residual_norm(A.to_dense().astype(np.longdouble), x, b, z)
        return floor.L, exact

    def test_refresh_covers_the_rounding_of_a_large_z(self):
        # z = b = 1 dwarfs r: z - 0.8 eps rounds to 1 - eps, so b - z is 0.2
        # eps more than A c^.  At x = 8 eps, r = -7 eps but A (c^ - x) =
        # -7.2 eps: D needs the column step's gamma (zeta + t)
        eps = np.finfo(float).eps
        A, b, floor = self.gram_floor([[1.0]], [1.0])
        x, z = np.array([8 * eps]), b.copy()
        r = residual(A, x, b, z)
        floor.anchor(x, z, None, float(r @ r))
        floor.column_step(0, 0.8 * eps)
        mx.axpy_col(z, A, 0, -0.8 * eps)
        assert z[0] == 1.0 - eps
        L, exact = self.refreshed(A, floor, x, b, z)
        assert exact == 7 * eps and L <= exact

    def test_refresh_covers_the_rounding_of_the_coefficient_sums(self):
        # b = 1 and an exact step c = 1 leave z = 0 and c^ = 1.  The step c =
        # 0.6 eps then moves z exactly, to -0.6 eps, but c^ = fl(1 + 0.6 eps)
        # = 1 + eps.  At x = 1, r = 0.6 eps while c^ - x = eps: D needs the
        # eps ||A_(j)|| |c^_j| term
        eps = np.finfo(float).eps
        A, b, floor = self.gram_floor([[1.0]], [1.0])
        x, z = np.array([1.0]), np.zeros(1)
        floor.coef[0] = 1.0
        floor.L = floor.zeta = 0.0
        c = 0.6 * eps
        floor.column_step(0, c)
        mx.axpy_col(z, A, 0, -c)
        assert z[0] == -c and floor.coef[0] == 1.0 + eps
        L, exact = self.refreshed(A, floor, x, b, z)
        assert exact == c and L <= exact

    def test_refresh_covers_the_rounding_of_the_gram_product(self):
        # A = [1, c], c = 1 + h, h = 3 * 2^-28: fl(c^2) rounds 7 * 2^-56 up,
        # so for eta^ = (1, -1) q^ = 2^-52 while ||A eta^||^2 = h^2 = 9 *
        # 2^-56.  b = 0 and exact steps c^ = (1, -1) leave z = h; at x = 0,
        # r = -h.  Only the 2 gamma F^2 e^ term keeps L <= h < sqrt(q^)
        h = 3 * 2.0 ** -28
        A, b, floor = self.gram_floor([[1.0, 1.0 + h]], [0.0])
        x, z = np.zeros(2), np.array([h])
        floor.coef[:] = (1.0, -1.0)
        eta = floor.coef - x
        assert float(eta @ (floor.H @ eta)) == 2.0 ** -52
        L, exact = self.refreshed(A, floor, x, b, z)
        assert exact == h and L <= exact

    def test_stop_test_rejects_a_spent_or_non_finite_floor(self):
        A, b, _ = floor_case("rank_deficient", 0)
        floor = new_floor(A, b)
        x, z = np.zeros(A.n), np.zeros(A.m)
        r = residual(A, x, b, z)
        s = float(r @ r)
        floor.anchor(x, z, None, s)
        assert floor.excludes_stop(z, 1e-8 * s, s)
        # a negative floor proves nothing, however large its square
        for L in (-1e10, float("nan"), float("inf")):
            floor.L = L
            assert not floor.excludes_stop(z, 1e-8 * s, s), L

    def test_stop_test_rejects_a_pass_that_would_raise(self, monkeypatch):
        # the floor proves RES >= tol, but the recompute it would skip raises:
        # for x beyond DIVERGENCE_CAP, or for a RES that may overflow
        A, b, _ = floor_case("rank_deficient", 0)
        floor = new_floor(A, b)
        x, z = np.full(A.n, 0.5), b.copy()
        r = residual(A, x, b, z)
        s = float(r @ r)
        floor.anchor(x, z, None, s)
        assert floor.excludes_stop(z, 1e-8 * s, s)
        with monkeypatch.context() as mp:
            mp.setattr(sv, "DIVERGENCE_CAP", floor.xi * 0.99)
            assert not floor.excludes_stop(z, 1e-8 * s, s)
        tiny = 5e-324  # s / tiny overflows
        assert not floor.excludes_stop(z, 1e-8 * tiny, tiny)

    # The four tests below build 1x1 systems whose rounding moves r by as much
    # as the step itself.  Each starts from the tightest sound floor, the
    # exact ||r||, and fails if the rounding term it names is dropped.

    @staticmethod
    def tight_floor(entry, x, b, z):
        A, x, b, z = handle([[entry]]), np.array([x]), np.array([b]), np.array([z])
        floor = new_floor(A, b)
        floor.L = exact_residual_norm(A.to_dense().astype(np.longdouble), x, b, z)
        floor.xi, floor.zeta = abs(x[0]), abs(z[0])
        return A, x, b, z, floor

    def test_reset_covers_the_rounding_of_the_recompute(self):
        # fl(0.1 * 3) = 0.30000000000000004 is 2.8e-17 above 0.1 * 3, so
        # fl(0.3 - fl(0.1 * 3)) is twice the exact residual
        A, x, b, z, floor = self.tight_floor(0.1, 3.0, 0.3, 0.0)
        exact = floor.L
        r = residual(A, x, b, z)
        assert abs(r[0]) > 1.9 * exact
        floor.anchor(x, z, None, float(r @ r))
        assert floor.L <= exact

    def test_column_step_covers_the_rounding_of_a_large_z(self):
        # ||z|| = 1 dwarfs ||r|| = 8 eps: z - 0.8 eps rounds to 1 - eps, so r
        # moves by eps, more than the step's own 0.8 eps
        eps = np.finfo(float).eps
        A, x, b, z, floor = self.tight_floor(1.0, 0.0, 1.0 - 8 * eps, 1.0)
        floor.column_step(0, 0.8 * eps)
        mx.axpy_col(z, A, 0, -0.8 * eps)
        assert z[0] == 1.0 - eps
        assert floor.L <= exact_residual_norm(A.to_dense().astype(np.longdouble),
                                              x, b, z)

    def test_row_step_covers_the_rounding_of_x(self):
        # x + 0.75 eps rounds to 1 + eps, so A x moves by eps
        eps = np.finfo(float).eps
        A, x, b, z, floor = self.tight_floor(1.0, 1.0, 1.0 + 8 * eps, 0.0)
        floor.row_step(0, 0.75 * eps)
        mx.axpy_row(x, A, 0, 0.75 * eps)
        assert x[0] == 1.0 + eps
        assert floor.L <= exact_residual_norm(A.to_dense().astype(np.longdouble),
                                              x, b, z)

    def test_stop_test_covers_the_rounding_of_the_recompute(self):
        # r = fl(0.1 * 3) - 0.1 * 3 = 2.8e-17 is exact ||r||, yet a recompute
        # gives RES = 0: no tolerance may be certified
        b = float(np.float64(0.1) * 3.0)
        A, x, b, z, floor = self.tight_floor(0.1, 3.0, b, 0.0)
        assert floor.L > 0.0 and float(residual(A, x, b, z)[0]) == 0.0
        assert not floor.excludes_stop(z, 1e-300, 1.0)

    def test_wide_square_and_sparse_use_the_floor(self):
        rng = np.random.default_rng(6)
        wide = handle(rng.standard_normal((20, 40)))
        near_square = handle(rng.standard_normal((4 * 20 - 1, 20)))
        sparse = mx.from_scipy(scipy.sparse.random(80, 20, density=0.3, random_state=6))
        for A in (wide, near_square, sparse):
            for method in (sv.REK, sv.PREK):
                rep = solve(SolverConfig(method=method, tol=1e-300, max_outer=50),
                            A, rng.standard_normal(A.m))
                assert rep.resyncs < 25
            assert len(A.row_reach) == A.m and A.gram is None

    def test_divergence_still_raised(self, monkeypatch):
        A, b = tall_problem(7)
        monkeypatch.setattr(sv, "DIVERGENCE_CAP", 1e-12)
        cfg = SolverConfig(method=sv.REK, seed=0, max_outer=1000, tol=1e-300)
        with pytest.raises(DivergenceError, match=r"iteration (\d|[1-5]\d|6[0-4])$"):
            solve(cfg, A, b)

    def test_divergence_raised_where_a_full_recompute_raises(self, monkeypatch):
        # A skipped recompute must not skip a raise: each run raises at the
        # iteration at which one that forms r after every iteration does,
        # past k = 64 and far from any trace row or the last iteration.
        step = sv.x_project_row

        def overshoot(x, A, i, rhs_i, floor=None, xs=None):  # 11 times the step
            ax = mx.row_dot(A, i, x)
            return step(x, A, i, ax + 11.0 * (rhs_i - ax), floor, xs)

        for case in ("gated", "rank_deficient", "csr"):
            A, b, tol = floor_case(case, 1)
            for method in (sv.REK, sv.PREK):
                cfg = SolverConfig(method=method, tol=tol, seed=1)
                # x first crosses the cap set at its largest entry up to
                # k = 64: needs the floor's xi <= DIVERGENCE_CAP
                peaks = []
                solve(cfg, A, b, callback=lambda k, i, xp, x, z:
                      peaks.append(abs(x).max()))
                cap = max(peaks[:64])
                first = next(k for k, p in enumerate(peaks, 1) if p > cap)
                # x diverges, and with b scaled down RES overflows while x is
                # still far below the cap: needs the finiteness test
                for cap, rhs, x_step in ((cap, b, step),
                                         (sv.DIVERGENCE_CAP, b * 2.0 ** -300,
                                          overshoot)):
                    with monkeypatch.context() as mp:
                        mp.setattr(sv, "DIVERGENCE_CAP", cap)
                        mp.setattr(sv, "x_project_row", x_step)
                        k = raised_at(cfg, A, rhs)
                        exact_path(mp)
                        assert k == raised_at(cfg, A, rhs) > 64, \
                            (case, method, cap)
                    assert k == first or x_step is overshoot

    def test_nan_forces_immediate_recompute(self):
        A, b = tall_problem(8)
        b[5] = np.nan
        for method in (sv.REK, sv.PREK, sv.EMRK):
            with pytest.raises(DivergenceError, match="iteration 1$"):
                solve(SolverConfig(method=method, seed=0), A, b)

    def test_overflowing_carried_value_forces_immediate_recompute(self):
        # b is finite but ||b||^2 overflows: the carried value turns NaN at
        # k = 1, which must force the full recompute that raises
        A, b = tall_problem(8)
        for method in (sv.REK, sv.PREK):
            with np.errstate(all="ignore"), \
                    pytest.raises(DivergenceError, match="iteration 1$"):
                solve(SolverConfig(method=method, seed=0), A, b * 1e200)

    def test_debug_log(self, caplog):
        # 200 x 50 is below the cost gate; 1400 x 100 above it
        for m, n in ((200, 50), (1400, 100)):
            A, b = tall_problem(9, m=m, n=n)
            caplog.clear()
            with caplog.at_level("DEBUG", logger="kmz.solvers"):
                rep = solve(SolverConfig(method=sv.PREK, seed=0), A, b)
            assert f"{rep.full_passes} float64 passes, " \
                   f"{rep.resyncs} full residual recomputes, " \
                   f"{rep.floor_refreshes} floor refreshes, " \
                   f"{rep.floor_tangents} tangent floors" in caplog.text
            assert (rep.floor_refreshes > 0) == (m == 1400)
            # most rebuilds come from the tangent plane
            assert rep.floor_tangents > rep.floor_refreshes or m == 200


EPS = np.finfo(float).eps


def exact_sq(v):
    """The sum of squares of a float vector's entries, exactly."""
    return sum(Fraction(e) ** 2 for e in v.tolist())


def exact_residual_sq(exact, x, b, z):
    """||b - A x - z||^2, exactly, for A's entries as Fractions (`exact`)."""
    return sum((Fraction(bi) - sum(a * Fraction(xj) for a, xj in
                                   zip(row, x.tolist())) - Fraction(zi)) ** 2
               for row, bi, zi in zip(exact, b.tolist(), z.tolist()))


def below_norm(L, sq):
    """Whether the float L <= sqrt(sq) for an exact square sq."""
    return not L > 0.0 or Fraction(L) ** 2 <= sq


@st.composite
def floor_cases(draw):
    """(entries, b, x0, seed): a small dense matrix whose rows and columns
    span scales from 1e-100 to 1e100, with zero, duplicated and
    near-parallel rows and columns drawn in; b = A x_t + noise, the noise
    from 2^-80 to 1 of ||A x_t||, so that r may be tiny beside ||b|| and
    ||A|| ||x|| and the roundings set it; and x0, the start: 0, near x_t,
    or x_t plus a large move along two near-parallel columns, where A x
    cancels."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    spread = draw(st.sampled_from([0, 2, 30]))
    entries = rng.standard_normal((m, n)) \
        * 10.0 ** draw(st.integers(-100, 100)) \
        * 10.0 ** rng.integers(-spread, spread + 1, size=(m, 1)) \
        * 10.0 ** rng.integers(-spread, spread + 1, size=n)
    for kind in draw(st.lists(st.sampled_from(
            ["zero_row", "dup_row", "near_row", "zero_col", "dup_col",
             "near_col"]), max_size=3)):
        k, j = rng.integers(m, size=2) if kind.endswith("row") \
            else rng.integers(n, size=2)
        if kind == "zero_row":
            entries[k] = 0.0
        elif kind == "dup_row":
            entries[k] = entries[j]
        elif kind == "near_row":
            entries[k] = entries[j] * (1.0 + 1e-3 * rng.standard_normal(n))
        elif kind == "zero_col":
            entries[:, k] = 0.0
        elif kind == "dup_col":
            entries[:, k] = entries[:, j]
        else:
            entries[:, k] = entries[:, j] * (1.0 + 1e-3 * rng.standard_normal(m))
    x_t = rng.standard_normal(n) * 2.0 ** draw(st.integers(-60, 60))
    with np.errstate(over="ignore", invalid="ignore"):  # b may not be finite
        image = entries @ x_t
        b = image + rng.standard_normal(m) * float(np.linalg.norm(image)) \
            * 2.0 ** draw(st.integers(-80, 0))
    start = draw(st.sampled_from(["zero", "near", "cancel"]))
    x0 = np.zeros(n)
    if start != "zero":
        x0 = x_t * (1.0 + 2.0 ** -30 * rng.standard_normal(n))
    if start == "cancel" and n > 1:
        j, k = rng.choice(n, size=2, replace=False)
        x0[j] += 1e6 * abs(x_t).max()
        x0[k] -= 1e6 * abs(x_t).max()
    return entries, b, x0, seed


class TestResidualFloorSoundness:
    """Property-based: on drawn matrices, REK/PREK's lower bound L on ||r||
    (ResidualFloor), moved along every column and row step, refreshed from
    A^T A and anchored at full recomputes, stays at or below the exact
    ||r|| of the stored iterates at every step, xi and zeta stay above
    ||x|| and ||z||, the stop test never skips a recompute that would stop,
    and solve gives the exact path's iterates, counts and raises."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=floor_cases(), steps=st.integers(1, 40),
           refresh=st.booleans())
    # entries near 1e-82: ||A a_i^T||^2 underflows to 0, and only
    # row_reach's underflow term keeps the row step's reach above 0
    @example(case=(np.array([[1.25730221e-82, -1.32104863e-82],
                             [6.40422650e-82, 1.04900117e-82],
                             [-5.35669373e-82, 3.61595055e-82]]),
                   np.array([-6.65423865e-82, -3.31908742e-82,
                             -9.79794162e-82]), np.zeros(2), 0),
             steps=2, refresh=False)
    # r = 0.775 2^-537: fl(r^2) rounds up to 2^-1074, so sqrt(s^) exceeds
    # |r| (the anchor's rho)
    @example(case=(np.ones((1, 1)), np.array([2.0 ** -530]),
                   np.array([-0.775 * 2.0 ** -537]), 0), steps=1, refresh=False)
    # ||z|| and ||x|| = 1e-170 square to 0 (zeta's and xi's rho)
    @example(case=(np.ones((1, 1)), np.array([1e-170]), np.array([1e-170]), 0),
             steps=1, refresh=False)
    def test_floor_stays_below_the_exact_norm(self, case, steps, refresh):
        entries, b, x0, seed = case
        if not (np.isfinite(b).all() and np.isfinite(x0).all()):
            return
        A = handle(entries)
        if A.frob_sq == 0.0 or not finite_reach(A):
            return
        floor = new_floor(A, b)
        # fl(A^T A), as the handle forms it where it keeps it
        floor.H = A.dense.T @ A.dense if refresh else None
        floor.coef = np.zeros(A.n) if refresh else None
        exact = [[Fraction(e) for e in row] for row in entries.tolist()]
        rng = np.random.default_rng(seed)
        x, z = x0.copy(), b.copy()
        denom = float(b @ b)

        def check(k):
            sq = exact_residual_sq(exact, x, b, z)
            assert below_norm(floor.L, sq), (k, floor.L, float(sq) ** 0.5)
            assert Fraction(floor.xi) ** 2 >= exact_sq(x), k
            assert Fraction(floor.zeta) ** 2 >= exact_sq(z), k

        r = residual(A, x, b, z)
        floor.anchor(x, z, None, float(r @ r))
        check(0)
        for k in range(1, steps + 1):
            z_project_column(z, A, sample_column_weighted(rng, A), floor)
            check(k)
            i = sample_row_weighted(rng, A)
            x_project_row(x, A, i, b.item(i) - z.item(i), floor)
            floor.advance(x)
            if not (np.isfinite(x).all() and np.isfinite(z).all()):
                return
            check(k)
            if refresh:
                floor.refresh(x)
                check(k)
            # a tolerance one ulp above the RES a recompute gives stops
            # there, so the floor must not skip that recompute (solve asks
            # no stop test where ||b||^2 underflows to 0)
            r = residual(A, x, b, z)
            s = float(r @ r)
            if denom > 0.0:
                stopping = np.nextafter(s / denom, np.inf) * denom * sv._UP
                assert not floor.excludes_stop(z, stopping, denom), k
                check(k)
            if not floor.L > 0.0 or rng.random() < 0.25:
                floor.anchor(x, z, None, s)
                check(k)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=floor_cases(), refresh=st.booleans(),
           tilt=st.tuples(st.integers(-60, -30), st.booleans()),
           steps=st.lists(st.tuples(st.booleans(), st.integers(0, 8),
                                    st.floats(-2.0, 2.0), st.integers(-56, 2)),
                          min_size=1, max_size=25))
    # z = 1 dwarfs r = -8 eps, and z - 0.8 eps rounds to 1 - eps: r moves
    # by eps, more than the step (the column step's e)
    @example(case=(np.ones((1, 1)), np.array([1.0 - 8 * EPS]), np.zeros(1), 0),
             refresh=False, tilt=(-49, False), steps=[(True, 0, 0.8, -52)])
    # x = 1 and x + 0.75 eps rounds to 1 + eps: A x moves by eps (the row
    # step's F e)
    @example(case=(np.ones((1, 1)), np.array([1.0 + 8 * EPS]), np.ones(1), 0),
             refresh=False, tilt=(-49, True), steps=[(False, 0, 0.75, -52)])
    # r = fl(0.1 * 3) - 0.1 * 3 = 2.8e-17 exactly, but a recompute gives 0:
    # no tolerance may be certified (the stop test's gamma term)
    @example(case=(np.full((1, 1), 0.1), np.array([0.1 * 3.0]), np.full(1, 3.0),
                   0), refresh=False, tilt=(-60, False), steps=[(True, 0, 0.0, 0)])
    # the refreshes of TestCarriedResidual: z = 1 - eps after a step of
    # 0.8 eps (D needs the step's e), and c^ = fl(1 + 0.6 eps) = 1 + eps
    # after exact steps of 1 and 0.6 eps (D needs eps |c^_j| ||A_(j)||)
    @example(case=(np.ones((1, 1)), np.ones(1), np.full(1, 8 * EPS), 0),
             refresh=True, tilt=(-60, False), steps=[(True, 0, 0.8, -52)])
    @example(case=(np.ones((1, 1)), np.ones(1), np.ones(1), 0), refresh=True,
             tilt=(-60, False), steps=[(True, 0, 1.0, 0), (True, 0, 0.6, -52)])
    # A = [1, 1 + 3 2^-28]: after exact steps c^ = (1, -1), z = h and
    # fl(c^2) rounds q^ up to 2^-52, above ||A c^||^2 = 9 2^-56 (the
    # refresh's 2 gamma F^2 e^)
    @example(case=(np.array([[1.0, 1.0 + 3 * 2.0 ** -28]]), np.zeros(1),
                   np.zeros(2), 0), refresh=True, tilt=(-60, False),
             steps=[(True, 0, 1.0, 0), (True, 1, -1.0 - 3 * 2.0 ** -28, 0)])
    # a row and a column whose squared norms underflow in part, to
    # 2.5e-323: sqrt gives 4.97e-162 for ||(3, 4) 1e-162|| = 5e-162, and
    # a step along the row (column) grows ||x|| (||z||) by more than
    # |d| (|c|) times that (the rho of the stored row and column norms)
    @example(case=(np.array([[3e-162, 4e-162]]), np.array([1e-140]),
                   np.array([6e-151, 8e-151]), 0), refresh=False,
             tilt=(-60, False), steps=[(False, 0, 1.0, 0)])
    @example(case=(np.array([[3e-162], [4e-162]]), np.array([6e-151, 8e-151]),
                   np.zeros(1), 0), refresh=False, tilt=(-60, False),
             steps=[(True, 0, -1.0, 0)])
    def test_any_steps_from_a_tight_floor(self, case, refresh, tilt, steps):
        # column and row steps of any size, down to far below the rounding
        # of z and x, from an anchor whose L is then raised to the exact
        # ||r||: each step's own terms, not the anchor's slack, must cover
        # its rounding.  Without a refresh, z is tilted from fl(b - A x0) by
        # 2^tilt max |b|, so that r is small; with one, z starts at b (so r
        # = -A x0, small where x0 cancels) and L is rebuilt from A^T A after
        # every step.  A step's size is set against max |z0| or max |x0|,
        # over the stored norm of its column or row.
        entries, b, x0, _ = case
        A = handle(entries)
        if A.frob_sq == 0.0 or not (np.isfinite(b).all()
                                    and np.isfinite(x0).all()
                                    and finite_reach(A)):
            return
        floor = new_floor(A, b)
        floor.H = A.dense.T @ A.dense if refresh else None
        floor.coef = np.zeros(A.n) if refresh else None
        x = x0.copy()
        if refresh:
            z = b.copy()
        else:
            size, down = tilt
            z = b - mx.matvec(A, x) + (-1.0 if down else 1.0) * 2.0 ** size \
                * (float(abs(b).max()) or 1.0) * (-1.0) ** np.arange(A.m)
        z_scale = float(abs(z).max()) or 1.0
        x_scale = float(abs(x).max()) or 1.0
        exact = [[Fraction(e) for e in row] for row in entries.tolist()]
        denom = float(b @ b)


        def check():
            sq = exact_residual_sq(exact, x, b, z)
            assert below_norm(floor.L, sq), (floor.L, float(sq) ** 0.5)
            assert Fraction(floor.xi) ** 2 >= exact_sq(x)
            assert Fraction(floor.zeta) ** 2 >= exact_sq(z)
            # a tolerance one ulp above the RES a recompute gives stops
            # there, so the floor must not skip that recompute
            if denom > 0.0:
                r = residual(A, x, b, z)
                stopping = np.nextafter(float(r @ r) / denom, np.inf) \
                    * denom * sv._UP
                assert not floor.excludes_stop(z, stopping, denom)

        r = residual(A, x, b, z)
        floor.anchor(x, z, None, float(r @ r))  # sets xi and zeta
        floor.L = math.sqrt(float(exact_residual_sq(exact, x, b, z))) * sv._DOWN
        floor.advance(x)
        check()
        for column, index, coef, size in steps:
            if column:
                j = index % A.n
                if A.col_table[1][j] == 0.0:
                    continue
                c = coef * 2.0 ** size * z_scale / A.col_table[1][j] ** 0.5
                floor.column_step(j, c)
                mx.axpy_col(z, A, j, -c)
            else:
                i = index % A.m
                if A.row_table[1][i] == 0.0:
                    continue
                d = coef * 2.0 ** size * x_scale / A.row_table[1][i] ** 0.5
                floor.row_step(i, d)
                mx.axpy_row(x, A, i, d)
            if not (np.isfinite(x).all() and np.isfinite(z).all()):
                return
            floor.advance(x)
            if refresh:
                floor.L = -math.inf
                floor.refresh(x)
            check()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(case=floor_cases(), tie=st.sampled_from([0.0, 1e-3, 1e-9, 1e-14]),
           scale=st.sampled_from([0, 150, -150]), lean=st.integers(-60, 60),
           steps=st.lists(st.tuples(st.booleans(), st.integers(0, 8),
                                    st.floats(-2.0, 2.0), st.integers(-56, 2),
                                    st.booleans()), min_size=1, max_size=20))
    # A with singular values in the ratios 1 : 3.4e-6 : 2.5e-14, x0 = v_2,
    # and three column steps (b = 0, so z_scale = 1) that move c^ by 2552
    # v_3: (A eta^0).(A delta) is about 0, and only the 4 gamma F^2
    # ||eta^0|| f term keeps the rounding of p^ from raising T above
    # ||A (c^ - x)||^2
    @example(case=(np.array([[0.37820476863610764, 0.19409111658883224,
                              0.039133504358031854],
                             [-0.9263810789030058, -0.4754130137993149,
                              -0.09585221609515214],
                             [-1.0, -0.5131998249408787,
                              -0.1034654052454024]]),
                   np.zeros(3),
                   np.array([0.30306583843684654, -0.7170871755499694,
                             0.6276440712970518]), 0),
             tie=0.0, scale=0, lean=-60,
             steps=[(True, 0, -1.2378711333538435, 10, False),
                    (True, 1, 1.9117012711367691, 9, False),
                    (True, 2, 1.128081991498629, 8, False)])
    # the same construction (1 : 0.18 : 3.8e-13), with entries near 1e-160
    # and c^ moved by about 10^3 ||x0|| along v_3: H^'s entries are
    # subnormal, each p^_k may err by m ||eta^0||_1 2^-1075, and t^ = p^.d^
    # by that times ||d^||_1, which only the tier's underflow term covers
    @example(case=(np.array([[0.40677635729117284, -0.20747459475904467,
                              0.2806138556762601],
                             [-0.4343378782808737, 0.7501062635006739, -1.0],
                             [-0.060463139554125245, 0.19608573454379183,
                              -0.2606661778332532]]),
                   np.zeros(3),
                   np.array([-0.2239695518435559, -0.056739118814962554,
                             0.07203939507582433]), 0),
             tie=0.0, scale=-160, lean=-60,
             steps=[(True, 0, -1.9037501998071797, -532, False),
                    (True, 1, 1.885725574510856, -525, False),
                    (True, 2, 1.8986886878344693, -525, False)])
    def test_tangent_floor_from_any_steps(self, case, tie, scale, lean, steps):
        # A refresh at eta^0 = fl(c^ - x0) = -x0 (c^ = 0, z = b), then column
        # and row steps of any size, a step flagged `back` undoing the one
        # before; after each, L is rebuilt from -inf by the tangent tier
        # alone and must stay at or below the exact ||r||, and a stop test
        # from a spent step floor, on a copy so that its refresh leaves
        # eta^0 where it is, must not skip a recompute that would stop.
        # Columns 0 and 1 are made nearly dependent (A_(1) = A_(0) (1 +
        # tie N(0, 1))) and x0 is moved by 2^lean max |x0| along (1, -1),
        # where A nearly cancels, so that ||A eta^0|| is small beside F
        # ||eta^0|| and p^'s rounding counts; A and b are scaled to a
        # largest entry of 10^scale, where products underflow.
        entries, b, x0, seed = case
        entries, x0 = entries.copy(), x0.copy()
        rng = np.random.default_rng(seed)
        m, n = entries.shape
        if tie and n > 1:
            entries[:, 1] = entries[:, 0] \
                * (1.0 + tie * rng.standard_normal(m))
        if not (np.isfinite(b).all() and np.isfinite(x0).all()) \
                or not abs(entries).max() > 0.0:
            return
        if n > 1:
            move = 2.0 ** lean * (float(abs(x0).max()) or 1.0)
            x0[0] += move
            x0[1] -= move
        factor = 10.0 ** scale / float(abs(entries).max())
        entries, b = entries * factor, b * factor
        A = handle(entries)
        if A.frob_sq == 0.0 or not (np.isfinite(b).all() and finite_reach(A)):
            return
        floor = new_floor(A, b)
        floor.H = A.dense.T @ A.dense  # fl(A^T A), as the handle forms it
        floor.coef = np.zeros(n)
        x, z = x0.copy(), b.copy()
        z_scale = float(abs(z).max()) or 1.0
        x_scale = float(abs(x).max()) or 1.0
        exact = [[Fraction(e) for e in row] for row in entries.tolist()]
        denom = float(b @ b)
        r = residual(A, x, b, z)
        floor.anchor(x, z, None, float(r @ r))
        floor.advance(x)
        floor.refresh(x)
        last = None
        for column, index, coef, size, back in steps:
            if back and last is not None:
                column, k, step = last[0], last[1], -last[2]
            else:
                # a step's size is set against max |z0| or max |x0|, over
                # the stored norm of its column or row
                k = index % (n if column else m)
                nsq = (A.col_table if column else A.row_table)[1][k]
                step = coef * 2.0 ** size * (z_scale if column else x_scale) \
                    / nsq ** 0.5 if nsq > 0.0 else 0.0
            if step == 0.0:
                continue
            if column:
                floor.column_step(k, step)
                mx.axpy_col(z, A, k, -step)
            else:
                floor.row_step(k, step)
                mx.axpy_row(x, A, k, step)
            last = column, k, step
            if not (np.isfinite(x).all() and np.isfinite(z).all()):
                return
            floor.advance(x)
            floor.L = -math.inf
            floor.tangent(x)
            sq = exact_residual_sq(exact, x, b, z)
            assert below_norm(floor.L, sq), (floor.L, float(sq) ** 0.5)
            if denom > 0.0:
                r = residual(A, x, b, z)
                stopping = np.nextafter(float(r @ r) / denom, np.inf) \
                    * denom * sv._UP
                spent = copy.copy(floor)
                spent.L = -math.inf
                assert not spent.excludes_stop(z, stopping, denom)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=floor_cases(), method=st.sampled_from([sv.REK, sv.PREK]),
           keeps_gram=st.booleans())
    def test_solve_takes_the_exact_path(self, case, method, keeps_gram):
        entries, b, _, seed = case
        if not np.isfinite(b).all():
            return
        cfg = SolverConfig(method=method, seed=seed % 1000, tol=1e-6,
                           max_outer=150, trace_every=37)

        def outcome(mp, exact):
            mp.setattr(mx, "_keeps_gram", lambda A: keeps_gram)
            if exact:
                exact_path(mp)
            try:
                rep = solve(cfg, handle(entries), b)
            except (SolverError, DivergenceError) as exc:
                return type(exc).__name__, str(exc)
            return (rep.x_final.tobytes(), rep.outer_iters, rep.final_res,
                    rep.converged, rep.trace)

        with pytest.MonkeyPatch.context() as mp:
            want = outcome(mp, True)
        with pytest.MonkeyPatch.context() as mp:
            assert outcome(mp, False) == want


class TestFixedBudget:
    def test_runs_whole_budget_and_reports_exact_res(self):
        A, b = tall_problem(10, m=200, n=50)
        for method, omega in ((sv.REK, 1), (sv.PREK, 1), (sv.MEMRK, 2)):
            cfg = SolverConfig(method=method, omega=omega, seed=1, max_outer=700,
                               tol=None)
            rep = solve(cfg, A, b)
            assert rep.outer_iters == 700 and not rep.converged
            assert rep.resyncs == 1  # RES formed once, for the report
            assert rep.trace[-1] == (700, rep.final_res, None)
            # the same iterates as a run that cannot meet its tolerance
            plain = solve(SolverConfig(method=method, omega=omega, seed=1,
                                       max_outer=700, tol=1e-300), A, b)
            assert np.array_equal(rep.x_final, plain.x_final)
            assert rep.final_res == plain.final_res

    def test_tol_none_is_the_only_budget_spelling(self):
        SolverConfig(method=sv.REK, tol=None).validate()
        for tol in (0.0, -1.0, float("nan")):
            with pytest.raises(ConfigError):
                SolverConfig(method=sv.REK, tol=tol).validate()

    def test_divergence_raised_at_once(self, monkeypatch):
        # RES is formed only at the end, so x is tested every iteration
        A, b = tall_problem(12, m=200, n=50)
        bad = b.copy()
        bad[5] = np.nan
        for method in (sv.REK, sv.PREK, sv.EMRK):
            cfg = SolverConfig(method=method, seed=0, max_outer=5000, tol=None)
            with pytest.raises(DivergenceError, match="iteration 1$"):
                solve(cfg, A, bad)
            with monkeypatch.context() as mp:
                mp.setattr(sv, "DIVERGENCE_CAP", 1e-12)
                with pytest.raises(DivergenceError, match="iteration 1$"):
                    solve(cfg, A, b)

    def test_trace_rows_are_exact(self):
        A, b = tall_problem(11, m=200, n=50)
        cfg = SolverConfig(method=sv.REK, seed=2, max_outer=300, trace_every=50)
        budget = solve(replace(cfg, tol=None), A, b)
        plain = solve(replace(cfg, tol=1e-300), A, b)
        assert budget.trace == plain.trace
        assert budget.resyncs == 6


class TestFullPasses:
    @pytest.mark.parametrize("shape", ["below_gates", "above_gates", "csr"])
    def test_counts_every_matvec(self, shape, monkeypatch):
        if shape == "csr":
            A, b, _ = floor_case("csr", 2)
        else:  # 1400 x 200 is above the shadow gate and keeps A^T A
            A, b = tall_problem(2, *((200, 50) if shape == "below_gates"
                                     else (1400, 200)))
        assert (A.m * A.n >= sv._SHADOW_MIN_ENTRIES) == (shape == "above_gates")
        calls, before_first_step = [], []
        matvec, z_step = mx.matvec, sv.z_project_column
        monkeypatch.setattr(mx, "matvec",
                            lambda A, x: calls.append(1) or matvec(A, x))

        def first_step(*args):
            if not before_first_step:
                before_first_step.append(len(calls))
            return z_step(*args)

        monkeypatch.setattr(sv, "z_project_column", first_step)
        for method, omega in ((sv.REK, 1), (sv.PREK, 1), (sv.EMRK, 1),
                              (sv.MEMRK, 4), (sv.MEMRK, 6)):
            for tol, max_outer, trace_every in ((1e-6, 3000, 0),
                                                (None, 300, 100)):
                for source in SOURCES:
                    calls.clear()
                    before_first_step.clear()
                    with monkeypatch.context() as mp:
                        use_source(mp, source)
                        rep = solve(SolverConfig(
                            method=method, omega=omega, tol=tol,
                            max_outer=max_outer, seed=3,
                            trace_every=trace_every), A, b)
                    key = (method, omega, tol, source)
                    assert rep.full_passes == len(calls) >= 1, key
                    # x starts at 0: no pass
                    assert before_first_step == [0], key
                    greedy = method != sv.REK and method != sv.PREK \
                        and shape == "above_gates"
                    assert (rep.gram_steps > 0) == (greedy and source == "gram")
                    assert (rep.shadow_passes > 0) == \
                        (greedy and source == "pass")
        assert (A.gram is not None) == (shape == "above_gates")

    @pytest.mark.parametrize("case", ["tall", "rank_deficient", "csr", "gated"])
    def test_rek_and_prek_pass_only_to_form_res(self, case):
        # with a RES stop, REK/PREK pick no row from r, so each float64 pass
        # forms RES and none is made at the start
        for seed in range(3):
            A, b, tol = floor_case(case, seed)
            for method in (sv.REK, sv.PREK):
                for trace_every in (0, 97):
                    rep = solve(SolverConfig(method=method, tol=tol, seed=seed,
                                             trace_every=trace_every), A, b)
                    assert rep.converged
                    assert rep.full_passes == rep.resyncs, (seed, method)


class TestNonFiniteInput:
    @pytest.mark.parametrize("name", ["b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_before_any_iteration(self, name, bad):
        A, b = tall_problem(13, m=200, n=50)
        b[7] = b[9] = bad
        for method, omega in ((sv.REK, 1), (sv.PREK, 1), (sv.MEMRK, 4)):
            for tol in (1e-6, None):
                cfg = SolverConfig(method=method, omega=omega, tol=tol)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(NonFiniteInputError,
                                       match=rf"^{name}\[7\] = ") as info:
                        solve(cfg, A, b)
                assert info.value.index == 7


class TestColumnMajorLayout:
    """A column-major handle gives the iterates of a row-major one."""

    @pytest.mark.parametrize("case", ["rank_deficient", "tall"])
    def test_same_iterations_as_row_major(self, case):
        tol, kw = (1e-8, dict(m=200, n=50, rank_deficient=True)) \
            if case == "rank_deficient" else (1e-6, {})
        cells = ((sv.REK, 1), (sv.PREK, 1), (sv.EMRK, 1), (sv.MEMRK, 4),
                 (sv.MEMRK, 6))
        for seed in range(10):
            A, b = tall_problem(seed, **kw)
            assert A.dense.flags.f_contiguous
            row_major = mx.MatrixHandle(dense=np.ascontiguousarray(A.dense))
            assert row_major.dense.flags.c_contiguous
            for method, omega in cells:
                cfg = SolverConfig(method=method, omega=omega, tol=tol, seed=seed)
                col = solve(cfg, A, b)
                row = solve(cfg, row_major, b)
                assert col.outer_iters == row.outer_iters, (seed, method, omega)
                assert np.linalg.norm(col.x_final - row.x_final) <= \
                    1e-12 * np.linalg.norm(row.x_final)


class TestRowMajorCopy:
    """The x-step reads rows from the handle's row-major copy (matrix
    MatrixHandle.rows) through a stride-2 copy of x: every iterate, count,
    trace row and report counter is that of the strided row reads."""

    @pytest.mark.parametrize("mode", ["tol", "budget", "trace"])
    def test_bit_identical_to_the_strided_rows(self, mode, monkeypatch):
        cells = ((sv.REK, 1), (sv.PREK, 1), (sv.EMRK, 1), (sv.MEMRK, 4),
                 (sv.MEMRK, 6))
        # above _keeps_gram, above _SHADOW_MIN_ENTRIES, and a C-order array
        shapes = (("gram", 1400, 100), ("shadow", 2200, 120), ("c_order", 1400, 100))
        for seed, (shape, m, n) in enumerate(shapes):
            A, b = tall_problem(40 + seed, m=m, n=n)
            entries = A.dense if shape != "c_order" else np.ascontiguousarray(A.dense)
            x_ls = oracle.svd_least_squares(A, b) if mode == "trace" else None
            for method, omega in cells:
                cfg = SolverConfig(method=method, omega=omega, seed=seed,
                                   tol=None if mode == "budget" else 1e-6,
                                   max_outer=700 if mode == "budget" else 50_000,
                                   trace_every=37 if mode == "trace" else 0)
                runs = {}
                for keeps in (True, False):
                    with monkeypatch.context() as mp:
                        mp.setattr(mx, "_keeps_rows", lambda A: keeps)
                        H = mx.MatrixHandle(dense=entries.copy(order="K"))
                        runs[keeps] = solve(cfg, H, b, x_star=x_ls)
                    assert (H.rows is H.dense) == (not keeps or shape == "c_order")
                copied, strided = runs[True], runs[False]
                key = (shape, method, omega)
                assert copied.x_final.tobytes() == strided.x_final.tobytes(), key
                # every other SolveReport field: counts, final_res, trace rows
                for f in fields(copied):
                    if f.name not in ("x_final", "wall_seconds", "build_seconds"):
                        assert getattr(copied, f.name) == getattr(strided, f.name), \
                            (key, f.name)


class TestOneLoop:
    """All methods run one loop body; they differ only in their selectors."""

    @pytest.mark.parametrize("kind", [pb.DENSE, pb.SPARSE])
    def test_emrk_is_memrk_omega_one(self, kind):
        for seed in range(3):
            prob = pb.make_gaussian(kind, 120, 30, seed, 0.3)
            runs = [solve(SolverConfig(method=method, omega=1, seed=seed,
                                       trace_every=3), prob.A, prob.b,
                          x_star=prob.x_star)
                    for method in (sv.EMRK, sv.MEMRK)]
            assert runs[0].x_final.tobytes() == runs[1].x_final.tobytes()
            assert runs[0].outer_iters == runs[1].outer_iters
            assert runs[0].final_res == runs[1].final_res
            assert runs[0].trace == runs[1].trace

    @pytest.mark.parametrize("method,omega", [(sv.REK, 1), (sv.PREK, 1), (sv.EMRK, 1),
                                              (sv.MEMRK, 4)])
    def test_selectors_called_through_the_module(self, method, omega, monkeypatch):
        """Counting wrappers rebound on the module see every selection:
        omega columns and one row per outer iteration."""
        A, b = tall_problem(2, m=200, n=50)  # m = 4n: REK/PREK carry the statistic
        cfg = SolverConfig(method=method, omega=omega, seed=4, tol=1e-8)
        plain = solve(cfg, A, b)
        calls = {}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            return wrapper

        for name in ("sample_column_weighted", "sample_row_weighted",
                     "select_max_residual_row"):
            monkeypatch.setattr(sv, name, counting(name, getattr(sv, name)))
        monkeypatch.setattr(CyclicColumnCursor, "next",
                            counting("cursor", CyclicColumnCursor.next))
        counted = solve(cfg, A, b)
        assert counted.x_final.tobytes() == plain.x_final.tobytes()
        k = counted.outer_iters
        column = "cursor" if method == sv.PREK else "sample_column_weighted"
        row = "sample_row_weighted" if method in (sv.REK, sv.PREK) \
            else "select_max_residual_row"
        assert calls == {column: omega * k, row: k}


def reference_sample(rng, norms_sq):
    """The weighted sampler as it was before block draws: one scalar draw per
    call and np.searchsorted over the numpy cumulative sums."""
    cum = np.cumsum(norms_sq)
    total = cum[-1]
    if total <= 0.0:
        raise SolverError("all-zero matrix")
    u = rng.random() * total
    k = int(np.searchsorted(cum, u, side="right"))
    if k >= len(cum):
        k = len(cum) - 1
    while norms_sq[k] == 0.0:
        k -= 1
    return k


@st.composite
def sampling_cases(draw):
    """A small matrix with some all-zero rows and columns, and a sequence of
    column (True) and row (False) draws."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    entry = st.one_of(st.just(0.0), st.floats(-1e6, 1e6, allow_nan=False))
    dense = np.array(draw(st.lists(entry, min_size=m * n, max_size=m * n))).reshape(m, n)
    dense[sorted(draw(st.sets(st.integers(0, m - 1))))] = 0.0
    dense[:, sorted(draw(st.sets(st.integers(0, n - 1))))] = 0.0
    return dense, draw(st.lists(st.booleans(), min_size=1, max_size=600))


def sample_sequence(sample, rng, A, columns):
    """Indices of the given draws; a raised SolverError ends the sequence."""
    out = []
    try:
        for col in columns:
            out.append(sample(rng, A, col))
    except SolverError:
        out.append("raised")
    return out


class FixedDraws:
    """Stands in for a generator: random() hands out the given values."""

    def __init__(self, values):
        self.random = iter(values).__next__


ZERO_ENDS_AND_MIDDLE = np.array([[0.0, 1.0, 0.0, 2.0, 0.0],
                                 [0.0, 0.0, 0.0, 0.0, 0.0],
                                 [0.0, 3.0, 0.0, 0.5, 0.0],
                                 [0.0, 0.0, 0.0, 0.0, 0.0]])
INTERLEAVED = [True, False] * 400   # crosses block boundaries of the stream


class TestBlockDrawnSampler:
    """Block-drawn uniforms and bisect over float lists pick, draw for draw,
    what scalar draws and np.searchsorted picked."""

    @staticmethod
    def new(rng, A, col):
        return (sample_column_weighted if col else sample_row_weighted)(rng, A)

    @staticmethod
    def old(rng, A, col):
        return reference_sample(rng, A.col_norms_sq if col else A.row_norms_sq)

    @settings(max_examples=150, deadline=None)
    @given(case=sampling_cases(), seed=st.integers(0, 2**32 - 1))
    @example(case=(ZERO_ENDS_AND_MIDDLE, INTERLEAVED), seed=0)
    @example(case=(ZERO_ENDS_AND_MIDDLE.T, INTERLEAVED), seed=1)
    @example(case=(np.array([[0.5, 0.0, 2.0, 0.0]]), INTERLEAVED), seed=2)
    @example(case=(np.array([[0.0, 0.0]]), [True]), seed=3)
    def test_same_indices_as_scalar_draws(self, case, seed):
        dense, columns = case
        A = mx.from_dense(dense)
        expected = sample_sequence(self.old, np.random.default_rng(seed), A, columns)
        stream = sv.UniformStream(np.random.default_rng(seed))
        assert sample_sequence(self.new, stream, A, columns) == expected
        plain = np.random.default_rng(seed)
        assert sample_sequence(self.new, plain, A, columns) == expected

    @settings(max_examples=150, deadline=None)
    @given(dense=st.integers(1, 12).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0, -3.0]), min_size=n, max_size=n),
        min_size=1, max_size=12)), data=st.data())
    @example(dense=[[1.0, 2.0, 0.0], [0.0, 0.0, 0.0]], data=None)
    def test_same_indices_at_exact_boundaries(self, dense, data):
        """Uniforms that land exactly on a cumulative sum, or round up to the
        total, reach the bisect side, the clamp and the zero-norm walk-back."""
        A = mx.from_dense(dense)
        for col in (True, False):
            norms_sq = A.col_norms_sq if col else A.row_norms_sq
            cum = np.cumsum(norms_sq)
            if cum[-1] <= 0.0:
                continue
            edges = [c / cum[-1] for c in cum] + [1.0 - 2.0 ** -53, 0.0]
            draws = edges if data is None else data.draw(st.lists(
                st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0, exclude_max=True)),
                min_size=1, max_size=20))
            new = sample_sequence(self.new, FixedDraws(draws), A, [col] * len(draws))
            old = sample_sequence(self.old, FixedDraws(draws), A, [col] * len(draws))
            assert new == old

    def test_stream_gives_the_generators_doubles(self):
        stream = sv.UniformStream(np.random.default_rng(5))
        rng = np.random.default_rng(5)
        assert [stream.random() for _ in range(5000)] == \
            [rng.random() for _ in range(5000)]

    @pytest.mark.parametrize("kind", ["dense-rank-deficient", "csr"])
    def test_solve_matches_scalar_draw_reference(self, kind, monkeypatch):
        if kind == "csr":
            prob = pb.make_gaussian(pb.SPARSE, 300, 60, 3, density=0.2)
        else:
            prob = pb.make_gaussian(pb.DENSE, 200, 50, 110, rank_deficient=True)
        assert prob.A.is_dense == (kind != "csr")
        cells = [(sv.REK, 1), (sv.PREK, 1), (sv.EMRK, 1), (sv.MEMRK, 4), (sv.MEMRK, 6)]
        for index, (method, omega) in enumerate(cells):
            cfg = SolverConfig(method=method, omega=omega, tol=1e-8,
                               seed=100 + index, trace_every=50)
            new = solve(cfg, prob.A, prob.b, x_star=prob.x_star)
            gen = np.random.default_rng(cfg.seed)   # one generator, as before
            with monkeypatch.context() as patch:
                patch.setattr(sv, "sample_column_weighted",
                              lambda rng, A: reference_sample(gen, A.col_norms_sq))
                patch.setattr(sv, "sample_row_weighted",
                              lambda rng, A: reference_sample(gen, A.row_norms_sq))
                old = solve(cfg, prob.A, prob.b, x_star=prob.x_star)
            assert new.x_final.tobytes() == old.x_final.tobytes(), (method, omega)
            assert (new.outer_iters, new.final_res, new.trace, new.resyncs) == \
                (old.outer_iters, old.final_res, old.trace, old.resyncs)


class TestZeroRowSkips:
    def test_counted(self, caplog):
        # as in test_zero_row_greedy_pick_is_skipped: r_0 is exactly zero on
        # the zero row 0, which the argmax picks when r is all zero
        A = handle([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([5.0, 0.0])
        steps = []
        with caplog.at_level("DEBUG", logger="kmz.solvers"):
            rep = solve(SolverConfig(method=sv.EMRK, seed=0), A, b,
                        callback=lambda k, i, x_prev, x, z: steps.append(
                            (i, np.array_equal(x_prev, x))))
        assert steps == [(0, True)]
        assert rep.zero_row_skips == 1
        assert "1 zero-row skips" in caplog.text

    @pytest.mark.parametrize("method", [sv.EMRK, sv.MEMRK])
    def test_underflowing_row_with_a_residual_raises(self, method):
        # row 1 is not zero, but its squared norm underflows to 0; the z-step
        # on column 1 leaves r_1 = 1.5e-12, the largest |r_i|, and the x-step
        # the greedy pick asks for raises
        A = handle([[1e-150, 1e-150], [0.0, 1.5e-162]])
        assert A.row_norms_sq[1] == 0.0
        cfg = SolverConfig(method=method, omega=2 if method == sv.MEMRK else 1,
                           tol=None, max_outer=10)
        with pytest.raises(ZeroRowError, match="row 1 has zero norm") as info:
            solve(cfg, A, np.array([1.0, 0.0]))
        assert info.value.row == 1

    def test_zero_without_zero_rows(self):
        prob = pb.make_gaussian(pb.DENSE, 60, 12, 4)
        for method in (sv.REK, sv.EMRK):
            assert solve(SolverConfig(method=method, seed=0), prob.A,
                         prob.b).zero_row_skips == 0


def shadow_case(kind):
    """(A, b) on which the float32 shadow's bound is checked."""
    if kind == "tall":
        return tall_problem(21, m=600, n=60)
    if kind == "rank_deficient":
        return tall_problem(22, m=400, n=80, rank_deficient=True)
    rng = np.random.default_rng(23)  # row_scaled: row norms 1e-3 ... 1e3
    entries = rng.standard_normal((400, 40)) * np.logspace(-3, 3, 400)[:, None]
    return handle(entries), 100.0 * rng.standard_normal(400)


def new_shadow(A, x, b):
    """A ResidualShadow of A anchored at x, from the plan of an EMRK solve
    with the gates set so that it takes the float32 pass; None where A's
    float32 copy is not finite."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sv, "_SHADOW_MIN_ENTRIES", 0)
        use_source(mp, "pass")
        shadow, _ = sv.plan(sv.EMRK, A, b, False, 1)
    if not isinstance(shadow, sv.ResidualShadow):
        return None
    shadow.anchor(x, b, b - mx.matvec(A, x), None)
    return shadow


def covered(shadow, A, x, b, z):
    """Whether e_i >= |r~_i - r^_i| for every i, r^ as a float64 pass forms it."""
    r_tilde = shadow.v - z
    r_hat = b - mx.matvec(A, x) - z
    return bool(np.all(abs(r_tilde - r_hat) <= shadow.bound(r_tilde)))


class TestResidualShadow:
    """EMRK/MEMRK on a dense matrix above _SHADOW_MIN_ENTRIES pick rows and
    test the stop from a float32 pass (ResidualShadow), bounded so that
    every pick, iterate and count is the float64 path's."""

    @pytest.mark.parametrize("kind", ["tall", "rank_deficient", "row_scaled"])
    def test_bound_covers_the_float64_residual(self, kind):
        # 2000 MEMRK(omega 2) iterations picking exactly, the shadow
        # advanced after each x-step and re-anchored where solve would be
        A, b = shadow_case(kind)
        rng = np.random.default_rng(24)
        x, z = np.zeros(A.n), b.copy()
        shadow = new_shadow(A, x, b)
        denom = float(b @ b)
        certified = skips = 0
        for k in range(2000):
            for _ in range(2):
                z_project_column(z, A, sample_column_weighted(rng, A))
            r = b - mx.matvec(A, x) - z
            i = select_max_residual_row(r)
            if k:
                assert covered(shadow, A, x, b, z), k  # at the pick's z
                pick = shadow.pick(z)
                assert pick in (-1, i), k
                if pick < 0:
                    shadow.anchor(x, z, b - mx.matvec(A, x), None)
                certified += pick >= 0
            x_project_row(x, A, i, b[i] - z[i])
            shadow.advance(x)
            assert covered(shadow, A, x, b, z), k  # at the stop test's z
            # a float64 pass would give RES = res; a tol one ulp above it
            # stops there, so the shadow must not skip that pass
            r_hat = b - mx.matvec(A, x) - z
            res = float(r_hat @ r_hat) / denom
            stopping = np.nextafter(res, np.inf) * denom * sv._UP
            assert not shadow.excludes_stop(z, stopping, denom), k
            skips += shadow.excludes_stop(z, 0.5 * res * denom * sv._UP, denom)
        assert shadow.shadow_passes == 2000
        # and both bounds are tight enough to pay: measured 1662-2000 skips,
        # the fewest on tall, whose RES falls to 1e-26, into float64 noise
        assert skips >= 1500
        assert certified >= 1500  # measured 1575-1995 of 1999

    def test_near_tie_falls_back_to_the_low_index(self):
        # r^ is 0 in both rows, a tie that argmax breaks to row 0.  Row 1's
        # u_a rounds 1 - x_a up and v~ = fl(u_a - w) rounds once more, so
        # r~ = (0, 2^-53): the float32 and distance terms are below 1e-21,
        # and only the float64 rounding terms of e keep row 1 uncertified.
        A, b = handle(np.eye(2)), np.ones(2)
        x_a = np.array([8.05432829873957e-10, 8.054334257692587e-10])
        x = np.full(2, 8.054335817834102e-10)
        shadow = new_shadow(A, x_a, b)
        shadow.advance(x)
        z = b - mx.matvec(A, x)
        r_tilde = shadow.v - z
        assert select_max_residual_row(r_tilde) == 1
        assert select_max_residual_row(b - mx.matvec(A, x) - z) == 0
        assert covered(shadow, A, x, b, z)
        assert shadow.pick(z) == -1

    def test_pick_subtracts_the_picked_rows_margin(self):
        # fl32(1000.1) is 2.4e-5 low, so r~_0 exceeds r^_0 by that much and
        # passes r^_1 = r~_1, which a float64 pass picks; only e_0 on the
        # left side of the pick's test keeps row 0 uncertified, and the
        # pick is settled from the two rows instead
        A = handle([[1000.1], [1.0]])
        b = np.array([2000.1, 1001.00001])
        shadow = new_shadow(A, np.zeros(1), b)
        x, z = np.ones(1), np.zeros(2)
        shadow.advance(x)
        assert select_max_residual_row(shadow.v - z) == 0
        assert select_max_residual_row(b - mx.matvec(A, x) - z) == 1
        assert covered(shadow, A, x, b, z)
        assert shadow.pick(z) == 1 and shadow.settled_picks == 1

    def test_bound_covers_the_rounding_of_a_large_r(self):
        # r ~ -1.7e8 while u_a = 0 and A d ~ 0.08: r~ and r^ round to
        # neighbouring doubles, one ulp of r apart, which only the
        # 3 eps |r~_i| term covers
        A, b = handle([[0.1]]), np.zeros(1)
        shadow = new_shadow(A, np.zeros(1), b)
        x, z = np.array([0.8228604197502136]), np.array([171990938.3508693])
        shadow.advance(x)
        assert abs(shadow.v - z - (b - mx.matvec(A, x) - z))[0] == 2.0 ** -25
        assert covered(shadow, A, x, b, z)

    def test_exact_ties_fall_back(self, monkeypatch):
        # every row twice: r^ and r~ tie in each pair, so no pick certifies
        # or settles, on either increment source, and each falls back to
        # the float64 argmax, which breaks ties low
        rng = np.random.default_rng(25)
        half = rng.standard_normal((150, 30))
        A = handle(np.vstack([half, half]))
        b = np.concatenate([np.ones(150), np.ones(150)]) + \
            np.tile(rng.standard_normal(150), 2)
        cfg = SolverConfig(method=sv.MEMRK, omega=2, seed=3, tol=1e-6)
        plain = solve(cfg, A, b)
        assert plain.shadow_passes == plain.gram_steps == 0
        for source in SOURCES:
            with monkeypatch.context() as mp:
                mp.setattr(sv, "_SHADOW_MIN_ENTRIES", 0)
                use_source(mp, source)
                tied = solve(cfg, A, b)
            assert tied.shadow_passes + tied.gram_steps > 0, source
            assert tied.x_final.tobytes() == plain.x_final.tobytes()
            assert (tied.outer_iters, tied.final_res) == \
                (plain.outer_iters, plain.final_res)
            assert tied.full_passes >= tied.outer_iters
            assert tied.settled_picks == 0

    def test_bound_covers_subnormal_float32_entries(self):
        # A and b near 1e-41: A's entries are subnormal in float32 and keep
        # about 4 digits, far below the (n + 3) u32 relative term; only the
        # absolute underflow term of e covers them
        rng = np.random.default_rng(26)
        A = handle(1e-41 * rng.standard_normal((60, 8)))
        b = 1e-41 * rng.standard_normal(60)
        x, z = np.zeros(8), b.copy()
        shadow = new_shadow(A, x, b)
        for k in range(300):
            z_project_column(z, A, sample_column_weighted(rng, A))
            i = select_max_residual_row(b - mx.matvec(A, x) - z)
            x_project_row(x, A, i, b[i] - z[i])
            shadow.advance(x)
            assert covered(shadow, A, x, b, z), k
        assert shadow.shadow_passes == 300

    def test_entry_beyond_float32_turns_the_shadow_off(self, monkeypatch):
        A, b = tall_problem(27, m=300, n=40)
        entries = A.to_dense()
        entries[3, 7] = 1e39  # float32 max is 3.4e38
        big = mx.from_dense(entries)
        cfg = SolverConfig(method=sv.EMRK, seed=0, max_outer=50, tol=1e-300)
        monkeypatch.setattr(sv, "_SHADOW_MIN_ENTRIES", 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mx.single_copy(big) is None
            rep = solve(cfg, big, b)
        assert rep.shadow_passes == 0 and rep.resyncs == rep.outer_iters == 50

    def test_far_iterate_makes_no_pass(self):
        # ||d||_1 max |A| beyond float32 range: fl32(A d) could overflow, so
        # advance makes no pass and neither test passes
        A = handle(np.full((3, 2), 1e30))
        b = np.ones(3)
        shadow = new_shadow(A, np.zeros(2), b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shadow.advance(np.array([1e10, -1e10]))
            assert shadow.shadow_passes == 0
            assert shadow.pick(b) == -1
            assert not shadow.excludes_stop(b, 1e-300, 1.0)

    @pytest.mark.parametrize("top", [np.inf, np.nan])
    def test_pick_falls_back_on_a_non_finite_top(self, top):
        # an inf or NaN |r~_i| certifies no pick
        A, b = handle([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.ones(3)
        shadow = new_shadow(A, np.zeros(2), b)
        shadow.advance(np.array([0.5, 0.25]))
        assert shadow.shadow_passes == 1
        assert shadow.pick(np.zeros(3)) >= 0
        assert shadow.pick(np.array([0.0, top, 0.0])) == -1

    @pytest.mark.parametrize("mode", ["tol", "budget", "trace"])
    def test_bit_identical_to_the_float64_path(self, mode, monkeypatch):
        # unpatched gate: 2200 x 120 is above _SHADOW_MIN_ENTRIES
        for seed in range(3):
            A, b = tall_problem(30 + seed, m=2200, n=120)
            assert A.m * A.n >= sv._SHADOW_MIN_ENTRIES
            x_ls = oracle.svd_least_squares(A, b) if mode == "trace" else None
            for method, omega in ((sv.EMRK, 1), (sv.MEMRK, 4), (sv.MEMRK, 6)):
                cfg = SolverConfig(method=method, omega=omega, seed=seed,
                                   tol=None if mode == "budget" else 1e-6,
                                   max_outer=700 if mode == "budget" else 50_000,
                                   trace_every=37 if mode == "trace" else 0)
                shadowed = solve(cfg, A, b, x_star=x_ls)
                with monkeypatch.context() as mp:
                    exact_path(mp)
                    plain = solve(cfg, A, b, x_star=x_ls)
                key = (seed, method, omega)
                assert shadowed.x_final.tobytes() == plain.x_final.tobytes(), key
                assert (shadowed.outer_iters, shadowed.final_res, shadowed.converged,
                        shadowed.trace) == (plain.outer_iters, plain.final_res,
                                            plain.converged, plain.trace), key
                assert plain.shadow_passes == 0
                assert shadowed.shadow_passes > 0
                if mode == "tol":
                    assert plain.resyncs == plain.outer_iters
                    assert shadowed.resyncs <= shadowed.outer_iters / 20, key
                    assert shadowed.full_passes + shadowed.shadow_passes >= \
                        shadowed.outer_iters

    def test_below_the_gate_every_iteration_is_float64(self):
        A, b = tall_problem(28, m=200, n=50)
        assert A.m * A.n < sv._SHADOW_MIN_ENTRIES
        for method, omega in ((sv.EMRK, 1), (sv.MEMRK, 4)):
            rep = solve(SolverConfig(method=method, omega=omega, seed=1), A, b)
            assert rep.shadow_passes == 0
            assert rep.resyncs == rep.outer_iters

    def test_debug_log_counts_both_passes(self, caplog):
        A, b = tall_problem(29, m=2200, n=120)
        with caplog.at_level("DEBUG", logger="kmz.solvers"):
            rep = solve(SolverConfig(method=sv.EMRK, seed=0), A, b)
        assert 0 < rep.resyncs < rep.shadow_passes
        assert f"{rep.resyncs} full residual recomputes, 0 floor refreshes, " \
               f"0 tangent floors, {rep.shadow_passes} float32 shadow passes" \
               in caplog.text


def new_gram(A, x, b):
    """A GramResidual of A anchored at x, from the plan of an EMRK solve of
    m iterations with the gates set so that it builds the row cosines;
    None where they cannot be built."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sv, "_SHADOW_MIN_ENTRIES", 0)
        use_source(mp, "gram")
        gram, _ = sv.plan(sv.EMRK, A, b, False, A.m)
    if not isinstance(gram, sv.GramResidual):
        return None
    gram.anchor(x, b, b - mx.matvec(A, x), None)
    return gram


def new_anchored(source, A, x, b):
    """An AnchoredResidual of A from `source`, anchored at x; None where the
    source cannot serve A."""
    return (new_gram if source == "gram" else new_shadow)(A, x, b)


def greedy_walk(cert, A, b, steps, rng, omega=1):
    """`steps` MEMRK(omega) iterations that pick by a float64 pass, with
    `cert` moved along, asked for each pick and stop test and anchored
    where solve would anchor it.  Asserts at every step that its bound
    covers the float64 residual, that a pick it certifies is the float64
    argmax, and that it does not exclude a stop a float64 pass would make.
    Ends early at a zero-norm row, whose x-step solve skips or raises, and
    at an x beyond DIVERGENCE_CAP.  Each x-step takes its right-hand side
    as a Python float, as solve's does.  Returns the number of certified
    picks."""
    x, z = np.zeros(A.n), b.copy()
    cert.anchor(x, z, b, 0.0)
    fresh, certified = True, 0
    denom = float(b @ b)
    for k in range(steps):
        for _ in range(omega):
            z_project_column(z, A, sample_column_weighted(rng, A), cert.stepped)
        i = select_max_residual_row(b - mx.matvec(A, x) - z)
        if not fresh:
            assert covered(cert, A, x, b, z), k  # at the pick's z
            pick = cert.pick(z)
            assert pick in (-1, i), k
            certified += pick >= 0
            if pick < 0:
                cert.anchor(x, z, b - mx.matvec(A, x), None)
        if A.row_table[1][i] == 0.0:
            break
        x_project_row(x, A, i, b.item(i) - z.item(i), cert.stepped)
        if not abs(x).max() <= sv.DIVERGENCE_CAP:
            break  # solve raises at its next float64 pass
        fresh = False
        cert.advance(x)
        assert covered(cert, A, x, b, z), k  # at the stop test's z
        r_hat = b - mx.matvec(A, x) - z
        res = float(r_hat @ r_hat) / denom
        stopping = np.nextafter(res, np.inf) * denom * sv._UP
        assert not cert.excludes_stop(z, stopping, denom), k
    return certified


class TestGramResidual:
    """EMRK/MEMRK on a dense matrix above _SHADOW_MIN_ENTRIES whose row
    cosines fit (matrix._fits_cosines) step r~ by one column of the cosines
    per x-step (GramResidual), bounded so that every pick, iterate and count
    is the float64 path's."""

    @pytest.mark.parametrize("kind", ["tall", "rank_deficient", "row_scaled"])
    def test_bound_covers_the_float64_residual(self, kind):
        A, b = shadow_case(kind)
        gram = new_gram(A, np.zeros(A.n), b)
        certified = greedy_walk(gram, A, b, 1500, np.random.default_rng(24),
                                omega=2)
        assert gram.gram_steps == 1500
        # tight enough to pay: measured 1455-1499 certified picks of 1499,
        # 22-46 of them settled from their candidate rows
        assert certified >= 1300
        assert gram.settled_picks > 0

    def test_bound_covers_the_underflowing_row(self):
        # row 1's squared norm underflows to 0, so its cosines are 0; the
        # x-step on row 0 (c = 5e299) moves r_1 by c a_1 a_0^T = -7.5e-13,
        # which only the absolute term |c| tau N_0 covers
        A, b = handle([[1e-150, 1e-150], [0.0, 1.5e-162]]), np.ones(2)
        gram = new_gram(A, np.zeros(2), b)
        x, z = np.zeros(2), np.array([0.0, 1.0])
        x_project_row(x, A, 0, 1.0, gram)
        gram.advance(x)
        r_hat = b - mx.matvec(A, x) - z
        assert r_hat[1] == pytest.approx(-7.5e-13, rel=1e-3)
        assert (gram.v - z)[1] == 0.0
        assert covered(gram, A, x, b, z)

    def test_bound_covers_the_rounding_of_the_stored_x(self):
        # x = 2^53, where float64's spacing is 2: each step x += 0.75 leaves
        # x as it is, while r~ moves by 0.75 a step; after 40 steps that is
        # 30, beyond every term but the stored-x rounding (u_a is 0)
        A, b = handle(np.ones((3, 1))), np.full(3, 2.0 ** 53)
        x = np.full(1, 2.0 ** 53)
        gram, z = new_gram(A, x, b), np.zeros(3)
        for k in range(40):
            gram.row_step(0, 0.75)
            mx.axpy_row(x, A, 0, 0.75)
            gram.advance(x)
            assert covered(gram, A, x, b, z), k
        assert x[0] == 2.0 ** 53 and (gram.v - z)[0] == -30.0

    def test_near_parallel_rows_cover_the_grid_rounding(self):
        # cosines near 1, each within 1/65534 on the int16 grid: a step on
        # row 0 moves r_1 by about c ||a_0|| ||a_1||, and the grid's
        # rounding of that move is seen
        rng = np.random.default_rng(31)
        row = rng.standard_normal(6)
        entries = np.array([row * (1.0 + 1e-4 * k) + 1e-3 * rng.standard_normal(6)
                            for k in range(12)])
        A, b = handle(entries), rng.standard_normal(12)
        greedy_walk(new_gram(A, np.zeros(A.n), b), A, b, 300,
                    np.random.default_rng(32), omega=1)

    def test_overflowing_step_turns_the_source_off(self):
        A, b = handle([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), np.ones(3)
        gram = new_gram(A, np.zeros(2), b)
        x = np.zeros(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gram.row_step(0, 1e307)
            mx.axpy_row(x, A, 0, 1e307)
            gram.advance(x)
            assert gram.gram_steps == 0
            assert gram.pick(np.zeros(3)) == -1
            assert not gram.excludes_stop(np.zeros(3), 1e-300, 3.0)
            gram.row_step(1, np.nan)  # stays off until the next anchor
            assert gram.gram_steps == 0
        x = np.zeros(2)
        gram.anchor(x, b, b - mx.matvec(A, x), None)
        gram.row_step(1, 0.5)
        assert gram.gram_steps == 1

    def test_short_solves_do_not_build_the_cosines(self, monkeypatch):
        # a solve capped below m iterations takes the float32 pass and
        # leaves the handle without cosines
        monkeypatch.setattr(sv, "_SHADOW_MIN_ENTRIES", 0)
        A, b = tall_problem(33, m=400, n=40)
        short = solve(SolverConfig(method=sv.EMRK, seed=0, max_outer=399), A, b)
        assert A.cosines is None and short.gram_steps == 0 < short.shadow_passes
        full = solve(SolverConfig(method=sv.EMRK, seed=0, max_outer=400), A, b)
        assert A.cosines is not None and full.shadow_passes == 0 < full.gram_steps
        again = solve(SolverConfig(method=sv.EMRK, seed=0, max_outer=399), A, b)
        assert again.gram_steps > 0
        assert again.x_final.tobytes() == short.x_final.tobytes()

    def test_debug_log_counts_gram_steps(self, caplog, monkeypatch):
        monkeypatch.setattr(sv, "_SHADOW_MIN_ENTRIES", 0)
        A, b = tall_problem(29, m=600, n=60)
        with caplog.at_level("DEBUG", logger="kmz"):
            rep = solve(SolverConfig(method=sv.EMRK, seed=0), A, b)
        assert 0 < rep.full_passes < rep.gram_steps == rep.outer_iters
        assert rep.settled_picks > 0
        assert f"{rep.full_passes} float64 passes" in caplog.text
        assert f"0 float32 shadow passes, {rep.gram_steps} Gram steps, " \
            f"{rep.settled_picks} settled picks" in caplog.text
        assert "built cosines of a 600 x 60 matrix" in caplog.text


def order_case():
    """(A, x, b, z): rows a_0, e_0 and ones of n = 64 columns, at which
    the float64 pass and a settle form a_0 x in different orders of
    summation, 1e8-sized terms that cancel, and differ by 1e-7; z puts
    r^_1 midway between the two values of r_0, about 1e6, and r^_2 at 0.
    None where the BLAS sums both in the same order."""
    n = 64
    x = np.full(n, 0.37)
    b = np.array([1e6, 0.0, 0.0])
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a_0 = rng.permutation(np.repeat([1e8, -1e8], n // 2)) \
            + rng.standard_normal(n)
        A = handle(np.vstack([a_0, np.eye(n)[0], np.ones(n)]))
        u_pass = (b - mx.matvec(A, x))[0]
        u_settle = (b[:2] - A.rows[:2] @ x)[0]
        if abs(u_pass - u_settle) > 1e-9:
            mid = (u_pass + u_settle) / 2.0
            return A, x, b, np.array([0.0, -0.37 - mid, -0.37 * n])
    return None


class TestSettledPicks:
    """Where the anchored bound cannot certify a pick, AnchoredResidual
    settles it from the rows that may hold the largest |r^_l|, formed from
    their rows of A, within a bound that covers their own order of
    summation; a pick after a settled one takes the float64 pass."""

    def test_bound_covers_the_other_order_of_summation(self, monkeypatch):
        # the settle's r_0 and the float64 pass's straddle r^_1, and both
        # lie 1e-7 from it, far beyond eps |r|: only the 2 (n + 1) eps N X
        # term keeps the settle of rows 0 and 1 from picking row 0
        case = order_case()
        if case is None:
            pytest.skip("the BLAS sums a_0 x in one order on both paths")
        A, x, b, z = case
        r_hat = b - mx.matvec(A, x) - z
        assert select_max_residual_row(r_hat) == 1
        shadow = new_shadow(A, np.zeros(A.n), b)
        shadow.advance(x)
        assert covered(shadow, A, x, b, z)
        settled = []
        settle = sv.AnchoredResidual.settle
        monkeypatch.setattr(sv.AnchoredResidual, "settle", lambda self, S, z:
                            settled.append(S.tolist()) or settle(self, S, z))
        assert shadow.pick(z) == -1
        assert settled == [[0, 1]]

    def test_no_two_settled_picks_in_a_row(self):
        # the near tie of TestResidualShadow's margin test: row 1 settles,
        # the same pick again takes the pass, and an anchor lets it settle
        A = handle([[1000.1], [1.0]])
        b = np.array([2000.1, 1001.00001])
        x, z = np.ones(1), np.zeros(2)
        shadow = new_shadow(A, np.zeros(1), b)
        shadow.advance(x)
        assert shadow.pick(z) == 1 and shadow.settled_picks == 1
        assert shadow.pick(z) == -1
        shadow.anchor(np.zeros(1), b, b.copy(), None)
        shadow.advance(x)
        assert shadow.pick(z) == 1 and shadow.settled_picks == 2

    def test_no_settle_where_every_row_is_a_candidate(self):
        # |r~_i*| - e_i* <= 0 makes every row a candidate: the pass is as
        # cheap, and re-anchors, so pick takes it
        A = handle([[1000.1], [1.0]])
        b = np.array([2000.1, 1001.00001])
        shadow = new_shadow(A, np.zeros(1), b)
        shadow.advance(np.ones(1))
        shadow.beta = 1e7
        assert shadow.pick(np.zeros(2)) == -1 and shadow.settled_picks == 0

    @pytest.mark.parametrize("source", SOURCES)
    def test_solve_counts_settled_picks(self, source, monkeypatch):
        A, b, _ = matrix_shape("above_gates", monkeypatch)
        cfg = SolverConfig(method=sv.EMRK, seed=7)
        with monkeypatch.context() as mp:
            use_source(mp, source)
            fast = solve(cfg, A, b)
        with monkeypatch.context() as mp:
            exact_path(mp)
            exact = solve(cfg, A, b)
        assert fast.x_final.tobytes() == exact.x_final.tobytes()
        assert fast.settled_picks > 0 == exact.settled_picks
        # a pass follows each settled pick at most once
        assert fast.full_passes < fast.outer_iters


def near_tie(A, x, b, pair, gap, flip):
    """z at which rows p and q of r^ = fl(fl(b - fl(A x)) - z), the r a
    float64 pass forms, hold the largest |r^_l|: r^_p = T and r^_q = +-T (1
    + gap), every other |r^_l| at most T / 4.  Where gap is 0, z_q is
    moved by a few ulps so that the tie is exact, if that can be done."""
    u = b - mx.matvec(A, x)
    p, q = pair
    top = 2.0 * float(abs(u).max()) or 1.0
    z = 0.5 * u
    z[p] = u[p] - top
    z[q] = u[q] - (-top if flip else top) * (1.0 + gap)
    if gap == 0.0:
        for _ in range(8):
            miss = abs(u[q] - z[q]) - abs(u[p] - z[p])
            if miss == 0.0:
                break
            z[q] = np.nextafter(z[q], -np.inf if (miss > 0) != flip else np.inf)
    return z


@st.composite
def anchored_cases(draw):
    """(entries, b, seed, omega): a small dense matrix whose rows span
    scales from 1e-100 to 1e100 (squared norms may underflow to 0), with
    zero, duplicated and near-parallel rows drawn in."""
    m, n = draw(st.integers(2, 12)), draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    spread = draw(st.sampled_from([0, 2, 50]))
    scale = 10.0 ** draw(st.integers(-100, 100))
    entries = rng.standard_normal((m, n)) * scale \
        * 10.0 ** rng.integers(-spread, spread + 1, size=(m, 1))
    for kind in draw(st.lists(st.sampled_from(["zero", "dup", "near"]),
                              max_size=3)):
        k, j = rng.integers(m, size=2)
        if kind == "zero":
            entries[k] = 0.0
        elif kind == "dup":
            entries[k] = entries[j]
        else:  # near-parallel: cosine near 1, and near ties for pick
            entries[k] = entries[j] * (1.0 + 1e-3 * rng.standard_normal(n))
    b = rng.standard_normal(m) * 10.0 ** draw(st.integers(-100, 100))
    return entries, b, seed, draw(st.integers(1, 3))


UNDERFLOW = np.array([[1e-150, 1e-150], [0.0, 1.5e-162]])
# rows whose squared norms underflow in part: the float64 cosine of rows 0
# and 1 is about 1.79, and the int16 grid clips it to 1
PARTLY_UNDERFLOWING = np.array([[-2.2796357842907424e-162, 4.609611642481368e-162],
                                [-1.3310525454002463e-162, 2.6914980683813054e-162],
                                [1e-150, -2e-150]])


class TestAnchoredResidualSoundness:
    """Property-based: on drawn matrices, with the gates patched to 0, the
    bound e of both increment sources covers the float64 residual at every
    step, every certified pick is the float64 argmax, and solve gives the
    exact path's iterates, counts and raises."""

    @settings(max_examples=100, deadline=None)
    @given(case=anchored_cases())
    @example(case=(UNDERFLOW, np.ones(2), 0, 1))
    @example(case=(UNDERFLOW, np.array([1.0, 1e-150]), 1, 2))
    @example(case=(PARTLY_UNDERFLOWING, np.array([1e-150, 1e-150, 1e-150]), 3, 1))
    # c = b_1 / ||a_1||^2 overflows: the walk's x-step must take Python
    # floats, as solve's does, whose division gives inf without a numpy
    # overflow warning
    @example(case=(np.array([[0.0], [-1.32104863e-129]]),
                   np.array([-5.35669373e50, 3.61595055e50]), 0, 1))
    def test_bound_covers_the_float64_residual(self, case):
        entries, b, seed, omega = case
        A = handle(entries)
        if A.frob_sq == 0.0:
            return
        for source in SOURCES:
            cert = new_anchored(source, A, np.zeros(A.n), b)
            if cert is not None:
                greedy_walk(cert, A, b, 40, np.random.default_rng(seed), omega)

    @settings(max_examples=100, deadline=None)
    @given(case=anchored_cases(), start=st.integers(-60, 60),
           noise=st.integers(-30, 0),
           steps=st.lists(st.tuples(st.integers(0, 11), st.floats(-1.0, 1.0),
                                    st.integers(-60, 10)),
                          min_size=1, max_size=40))
    # x near 2^50, spacing 2^-2, and steps of 0.75 2^-4 that each round away
    @example(case=(np.ones((3, 1)), np.zeros(3), 0, 1), start=53, noise=-1000,
             steps=[(0, 0.75, -57)] * 40)
    def test_bound_covers_any_x_steps(self, case, start, noise, steps):
        # x-steps x += c a_i^T with any c, from an anchor x_a at which b is
        # nearly A x_a: then the roundings of the stored x, not r, set the
        # error of r~
        entries, _, seed, _ = case
        A = handle(entries)
        rng = np.random.default_rng(seed)
        x = np.round(rng.standard_normal(A.n) * 2.0 ** 20) * 2.0 ** (start - 20)
        b = mx.matvec(A, x) + rng.standard_normal(A.m) * 2.0 ** (start + noise)
        if not np.isfinite(b).all():
            return
        z = np.zeros(A.m)
        for source in SOURCES:
            cert = new_anchored(source, A, x, b)
            if cert is None:
                continue
            xs = x.copy()
            for row, c, size in steps:
                i = row % A.m
                if A.row_table[1][i] == 0.0:
                    continue
                c *= 2.0 ** (start + size) / A.row_table[1][i] ** 0.5
                if source == "gram":
                    cert.row_step(i, c)
                mx.axpy_row(xs, A, i, c)
                if not np.isfinite(xs).all():
                    break
                cert.advance(xs)
                assert covered(cert, A, xs, b, z), (source, row)

    @settings(max_examples=60, deadline=None)
    @given(case=anchored_cases(), steps=st.integers(1, 10),
           pair=st.tuples(st.integers(0, 11), st.integers(0, 11)),
           gap=st.sampled_from([0.0] + [2.0 ** -k for k in range(4, 56, 6)]),
           flip=st.booleans())
    def test_settled_picks_are_the_float64_argmax(self, case, steps, pair,
                                                  gap, flip):
        # after greedy x-steps with no anchor between them, z is set so that
        # two rows of r^ tie or nearly tie at the top (duplicated and
        # near-parallel rows among the drawn ones): a pick, certified or
        # settled, is the float64 argmax, and an exact tie takes the pass
        entries, b, seed, omega = case
        A = handle(entries)
        p, q = (k % A.m for k in pair)
        if A.frob_sq == 0.0 or p == q:
            return
        for source in SOURCES:
            cert = new_anchored(source, A, np.zeros(A.n), b)
            if cert is None:
                continue
            rng = np.random.default_rng(seed)
            x, z = np.zeros(A.n), b.copy()
            for _ in range(steps):
                for _ in range(omega):
                    z_project_column(z, A, sample_column_weighted(rng, A),
                                     cert.stepped)
                i = select_max_residual_row(b - mx.matvec(A, x) - z)
                if A.row_table[1][i] == 0.0:
                    break
                x_project_row(x, A, i, b.item(i) - z.item(i), cert.stepped)
            if not abs(x).max() <= sv.DIVERGENCE_CAP:
                continue
            cert.advance(x)
            z = near_tie(A, x, b, (p, q), gap, flip)
            if not np.isfinite(z).all():
                continue
            a = abs(b - mx.matvec(A, x) - z)
            pick = cert.pick(z)
            assert pick in (-1, int(a.argmax())), source
            if np.sort(a)[-2] == a.max():
                assert pick == -1, source

    @settings(max_examples=40, deadline=None)
    @given(case=anchored_cases(), method=st.sampled_from([sv.EMRK, sv.MEMRK]),
           budget=st.booleans())
    @example(case=(UNDERFLOW, np.ones(2), 0, 1), method=sv.EMRK, budget=False)
    def test_solve_takes_the_exact_path(self, case, method, budget):
        entries, b, seed, omega = case
        A = handle(entries)
        cfg = SolverConfig(method=method, omega=omega if method == sv.MEMRK else 1,
                           seed=seed % 1000, tol=None if budget else 1e-6,
                           max_outer=60)

        def outcome(mp, source=None):
            if source is None:
                exact_path(mp)
            else:
                mp.setattr(sv, "_SHADOW_MIN_ENTRIES", 0)
                use_source(mp, source)
            try:
                rep = solve(cfg, A, b)
            except (SolverError, DivergenceError) as exc:
                return type(exc).__name__, str(exc)
            return (rep.x_final.tobytes(), rep.outer_iters, rep.final_res,
                    rep.converged, rep.trace, rep.zero_row_skips)

        with pytest.MonkeyPatch.context() as mp:
            want = outcome(mp)
        for source in SOURCES:
            with pytest.MonkeyPatch.context() as mp:
                assert outcome(mp, source) == want, source


def matrix_shape(shape, mp):
    """(A, b, tol) for a shape of the certificate matrix.  "above_gates" is
    300 x 50 with the certificates' gates patched on: the greedy methods
    run on the shadow and the floor refreshes from a kept A^T A, as on
    dense 6000 x 500; "c_order" is the same matrix stored row-major;
    "dense_as_csr" refreshes from A^T A built in dense row blocks."""
    if shape == "below_gates":
        return (*tall_problem(50, m=200, n=50, rank_deficient=True), 1e-8)
    if shape == "csr":
        A = pb.gen_sparse_gaussian(300, 60, 0.2, 52)
        return A, pb.build_inconsistent_rhs(A, np.ones(60), 53, 0.25)[0], 1e-6
    mp.setattr(mx, "_keeps_gram", lambda A: True)
    if shape == "dense_as_csr":
        entries, b = tall_problem(54, m=200, n=40)
        return mx.from_scipy(scipy.sparse.csr_matrix(entries.dense)), b, 1e-6
    mp.setattr(sv, "_SHADOW_MIN_ENTRIES", 0)
    A, b = tall_problem(51, m=300, n=50)
    if shape == "c_order":
        A = mx.MatrixHandle(dense=np.ascontiguousarray(A.dense))
    return A, b, 1e-6


def rows_handle(A, keeps):
    """A fresh handle of a dense A's entries, in their layout, that reads
    x-step rows from a row-major copy (keeps) or from the stored array; a
    CSR A as it is."""
    if not A.is_dense:
        return A
    H = mx.MatrixHandle(dense=A.dense.copy(order="K"))
    mx.build_rows(H, keeps)
    return H


class TestCertificateMatrix:
    """Each certificate gives the exact path's iterates, counts, RES, trace
    rows and raise iteration: the five benchmark cells x {tol, budget,
    trace}, and a run that diverges, on each shape of matrix_shape, with
    both increment sources (SOURCES) of the greedy shapes above the gates.  On a
    column-major dense shape the fast path also reads its x-step rows from
    the row-major copy (matrix.build_rows, through a stride-2 copy
    of x), and the exact path the strided rows of the stored array;
    TestRowMajorCopy checks that copy alone."""

    def test_one_function_chooses_the_certificate(self, monkeypatch):
        monkeypatch.setattr(sv, "_SHADOW_MIN_ENTRIES", 0)
        dense, b = tall_problem(55, m=60, n=10)
        sparse = mx.from_scipy(scipy.sparse.csr_matrix(dense.dense))
        tall, _ = tall_problem(55, m=161, n=10)  # m + b > 16 n: no cosines
        # a solve of m = 60 iterations may build the cosines
        for A, max_outer in ((dense, 59), (dense, 60), (dense, 1),
                             (sparse, 50), (tall, 5000)):
            for method in sv.METHODS:
                for budget in (False, True):
                    built = dense.cosines is not None
                    cert, _ = sv.plan(method, A, b, budget, max_outer)
                    key = (method, budget, A.shape, max_outer)
                    if method in (sv.EMRK, sv.MEMRK) and A.is_dense:
                        expected = sv.ResidualShadow
                        if A is dense and (built or max_outer >= 60):
                            expected = sv.GramResidual
                    elif method in (sv.REK, sv.PREK) and not budget:
                        expected = sv.ResidualFloor
                    else:
                        expected = sv.ResidualCertificate
                    assert type(cert) is expected, key
                    # the floor and the Gram source move with the x-steps
                    assert (cert.stepped is cert) == \
                        (expected in (sv.ResidualFloor, sv.GramResidual)), key
            # built by the first greedy solve that repays them, then kept
            assert (dense.cosines is not None) == (max_outer >= 60 or built)
        assert tall.cosines is None and sparse.cosines is None

    @pytest.mark.parametrize("shape", ["below_gates", "above_gates", "c_order",
                                       "csr", "dense_as_csr"])
    def test_bit_identical_to_the_exact_path(self, shape, monkeypatch):
        A, b, tol = matrix_shape(shape, monkeypatch)
        x_ls = oracle.svd_least_squares(A, b)
        A, A_exact = (rows_handle(A, keeps) for keeps in (True, False))
        if A.is_dense:
            assert (A.rows is A.dense) == (shape == "c_order")
            assert A_exact.rows is A_exact.dense
        gated = shape in ("above_gates", "c_order")
        for (method, omega), source in itertools.product(
                ((sv.REK, 1), (sv.PREK, 1), (sv.EMRK, 1), (sv.MEMRK, 4),
                 (sv.MEMRK, 6)), SOURCES):
            greedy = method in (sv.EMRK, sv.MEMRK)
            if source != "gram" and not (greedy and gated):
                continue  # one source only: the certificate reads none
            shadowed = greedy and gated
            refreshed = not greedy and (gated or shape == "dense_as_csr")
            for mode in ("tol", "budget", "trace"):
                cfg = SolverConfig(method=method, omega=omega, seed=7,
                                   tol=None if mode == "budget" else tol,
                                   max_outer=400 if mode == "budget" else 50_000,
                                   trace_every=37 if mode == "trace" else 0)
                x_star = x_ls if mode == "trace" else None
                with monkeypatch.context() as mp:
                    use_source(mp, source)
                    fast = solve(cfg, A, b, x_star=x_star)
                key = (shape, method, omega, mode, source)
                peaks = []
                with monkeypatch.context() as mp:
                    exact_path(mp)
                    exact = solve(cfg, A_exact, b, x_star=x_star, callback=lambda
                                  k, i, x_prev, x, z: peaks.append(abs(x).max()))
                assert fast.x_final.tobytes() == exact.x_final.tobytes(), key
                assert (fast.outer_iters, fast.final_res, fast.converged,
                        fast.trace, fast.zero_row_skips) == \
                    (exact.outer_iters, exact.final_res, exact.converged,
                     exact.trace, exact.zero_row_skips), key
                # the shortcut ran
                assert exact.shadow_passes == exact.floor_refreshes == \
                    exact.gram_steps == 0
                assert (fast.shadow_passes > 0) == (shadowed and source == "pass")
                assert (fast.gram_steps > 0) == (shadowed and source == "gram")
                assert (fast.floor_refreshes > 0) == (refreshed and mode != "budget")
                if mode != "tol":
                    continue
                assert exact.resyncs == exact.outer_iters
                if shadowed:
                    assert fast.resyncs <= fast.outer_iters / 20, key
                    assert fast.full_passes + fast.shadow_passes + \
                        fast.gram_steps >= fast.outer_iters
                elif not greedy:
                    assert fast.resyncs <= fast.outer_iters / 3, key
                # x first passes a cap set just below its largest entry: a
                # skipped pass must not skip the raise
                top = int(np.argmax(peaks))
                with monkeypatch.context() as mp:
                    mp.setattr(sv, "DIVERGENCE_CAP", max(peaks[:top], default=0.0))
                    use_source(mp, source)
                    raised = raised_at(cfg, A, b)
                    exact_path(mp)
                    assert raised == raised_at(cfg, A_exact, b) == top + 1, key


# the structures a solve's plan builds and a handle keeps
BUILT = ("rows", "row_views", "row_reach", "gram", "cosines")


def built(A):
    """The names of BUILT that A holds."""
    return {name for name in BUILT if getattr(A, name) is not None}


def build_lines(caplog):
    """The INFO lines of the builds logged by the plan."""
    return [r.getMessage() for r in caplog.records
            if r.name == "kmz.solvers" and r.getMessage().startswith("built ")]


class TestBuildPlan:
    """solve builds its one-off structures in plan and nowhere else, each
    once per handle (the float32 copy once per solve), timed into
    SolveReport.build_seconds and logged in one INFO line."""

    def test_floor_builds_are_listed_once(self, caplog):
        # 1400 x 100 keeps A^T A (0.08 MB) and is below _keeps_rows, so its
        # "rows" are the row views of the stored array
        A, b = tall_problem(60, m=1400, n=100)
        assert mx._keeps_gram(A) and not mx._keeps_rows(A)
        cfg = SolverConfig(method=sv.REK, seed=0)
        with caplog.at_level("INFO", logger="kmz.solvers"):
            first = solve(cfg, A, b)
        assert list(first.build_seconds) == ["rows", "row_reach"]
        assert all(t >= 0.0 for t in first.build_seconds.values())
        rows, reach = build_lines(caplog)
        assert rows.startswith("built rows of a 1400 x 100 matrix: ")
        assert rows.endswith(" s, 0.0 MB")
        assert reach.startswith("built row_reach of a 1400 x 100 matrix: ")
        assert " s, 0.1 MB of A^T A kept, spectral, ||A||_2^2 <= " in reach
        caplog.clear()
        with caplog.at_level("INFO", logger="kmz.solvers"):
            again = solve(cfg, A, b)
            prek = solve(replace(cfg, method=sv.PREK), A, b)
        assert again.build_seconds == prek.build_seconds == {}
        assert build_lines(caplog) == []
        assert again.x_final.tobytes() == first.x_final.tobytes()

    def test_greedy_builds_are_listed(self, caplog):
        # 1400 x 400 is above _keeps_rows (a 4.5 MB row-major copy), the
        # shadow gate and the cosines' gate (2.0 MB of panels)
        A, b = tall_problem(61, m=1400, n=400)
        assert mx._keeps_rows(A) and mx._fits_cosines(A)
        short = SolverConfig(method=sv.EMRK, seed=0, tol=None, max_outer=300)
        runs = []
        with caplog.at_level("INFO", logger="kmz.solvers"):
            for cfg in (short, short, replace(short, tol=1e-6, max_outer=1400),
                        short):
                caplog.clear()
                rep = solve(cfg, A, b)
                runs.append((list(rep.build_seconds), build_lines(caplog)))
        # a solve shorter than m iterations takes the float32 pass, whose
        # copy is made on every call; the first full one builds the cosines,
        # which the handle keeps for every later greedy solve
        assert [names for names, _ in runs] == [
            ["rows", "float32"], ["float32"], ["cosines"], []]
        first, second, full, last = (lines for _, lines in runs)
        assert first[0].endswith(" s, 4.5 MB")
        assert first[1].startswith("built float32 of a 1400 x 400 matrix: ")
        assert first[1].endswith(" s, 2.2 MB")
        assert len(second) == 1 and second[0].endswith(" s, 2.2 MB")
        assert len(full) == 1 and full[0].endswith(" s, 2.0 MB")
        assert last == []

    @pytest.mark.parametrize("kind", ["dense", "csr"])
    def test_nothing_is_built_outside_the_plan(self, kind):
        # not with the handle, not by a read of any of its attributes, and
        # not by the set-up SVD, which sets the peak memory on dense
        # 6000 x 500 and must not find these structures alive
        if kind == "dense":
            A, b = tall_problem(62, m=1400, n=400)
        else:
            A, b, _ = floor_case("csr", 62)
        assert built(A) == set()
        for name in dir(A):
            getattr(A, name)
        oracle.svd_least_squares(A, b)
        assert built(A) == set()
        for method in sv.METHODS:  # m iterations: the greedy ones may build
            solve(SolverConfig(method=method, seed=0, tol=1e-300,
                               max_outer=A.m), A, b)
        assert built(A) == ({"rows", "row_views", "row_reach", "gram", "cosines"}
                            if kind == "dense" else {"row_views", "row_reach"})
