import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

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
                         z_multi_step, z_project_column)


def handle(rows):
    return mx.from_dense(np.asarray(rows, dtype=float))


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
        with pytest.raises(ZeroRowError):
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

    def test_x0_and_immediate_convergence(self):
        A = handle(np.eye(2))
        b = np.array([1.0, 2.0])
        rep = solve(SolverConfig(method=sv.REK, x0=b.copy()), A, b)
        assert rep.converged and rep.outer_iters == 0
        assert np.array_equal(rep.x_final, b)

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


def rek_steps(A, b, x, z, carried, rng, steps):
    """Yields after each REK outer iteration, moving `carried` along."""
    for _ in range(steps):
        z_project_column(z, A, sample_column_weighted(rng, A), carried)
        i = sample_row_weighted(rng, A)
        x_project_row(x, A, i, float(b[i] - z[i]), carried)
        yield


class TestCarriedResidual:
    """REK/PREK carry ||r||^2 through the Gram matrix; the shortcut must not
    change a single iterate, count or reported RES."""

    @pytest.mark.parametrize("case", ["tall", "rank_deficient"])
    def test_matches_full_recompute(self, case, monkeypatch):
        tol, kw = (1e-6, {}) if case == "tall" else \
            (1e-8, dict(m=200, n=50, rank_deficient=True))
        for seed in range(10):
            A, b = tall_problem(seed, **kw)
            for method in (sv.REK, sv.PREK):
                cfg = SolverConfig(method=method, tol=tol, seed=seed, trace_every=97)
                with monkeypatch.context() as mp:
                    mp.setattr(sv, "RESYNC_EVERY", 1)
                    full = solve(cfg, A, b)
                carried = solve(cfg, A, b)
                assert full.converged and carried.converged
                assert carried.outer_iters == full.outer_iters, (seed, method)
                assert carried.final_res == full.final_res
                assert np.array_equal(carried.x_final, full.x_final)
                assert carried.trace == full.trace
                # the shortcut ran: few full recomputes beyond the periodic ones
                assert full.resyncs == full.outer_iters
                periodic = carried.outer_iters // sv.RESYNC_EVERY
                trace_rows = carried.outer_iters // 97
                assert carried.resyncs <= periodic + trace_rows + 3

    def test_first_iteration_stop_is_kept(self, monkeypatch):
        # small-200x50 seed 48 of the benchmark stops at k = 1 (RES_1 < tol
        # because z starts at b); the carried statistic must stop there too
        spec = bench.ExperimentSpec(kind="dense", m=200, n=50, trials=20, tol=1e-8,
                                    methods=[("rek", 1), ("prek", 1)], seed=48,
                                    rank_deficient=True)
        carried = bench.run_experiment(spec)
        monkeypatch.setattr(sv, "RESYNC_EVERY", 1)
        full = bench.run_experiment(spec)
        assert [(r.iters, r.final_res) for r in carried] == \
               [(r.iters, r.final_res) for r in full]
        assert min(r.iters for r in carried) == 1

    @pytest.mark.parametrize("kind", ["tall", "rank_deficient", "badly_scaled"])
    def test_drift_within_stated_bound(self, kind):
        # 300 iterations without a reset: more than four times RESYNC_EVERY
        rng = np.random.default_rng(11)
        if kind == "tall":
            A, b = tall_problem(3)
            x = np.zeros(A.n)
        elif kind == "rank_deficient":
            A, b = tall_problem(4, m=200, n=50, rank_deficient=True)
            x = rng.standard_normal(A.n)
        else:
            entries = rng.standard_normal((300, 40)) * np.logspace(-3, 3, 40) \
                * np.logspace(-2, 2, 300)[:, None]
            A, b = handle(entries), 100.0 * rng.standard_normal(300)
            x = rng.standard_normal(A.n)
        z = b.copy()
        carried = sv.CarriedResidual(A, b)
        r = residual(A, x, b, z)
        carried.reset(r, float(r @ r), x)
        denom = float(np.sum((b - mx.matvec(A, x)) ** 2))
        worst_ratio = 0.0
        for k, _ in enumerate(rek_steps(A, b, x, z, carried, rng, 300), start=1):
            r = residual(A, x, b, z)
            drift = abs(carried.s - float(r @ r))
            bound = carried.bound()
            assert drift <= bound, (k, drift, bound)
            worst_ratio = max(worst_ratio, drift / bound)
            if k == sv.RESYNC_EVERY:
                # the bound at a resync is far below any tolerance used here
                assert bound <= 1e-6 * denom
        assert 0.0 < worst_ratio < 1.0

    def test_reported_drift(self):
        A, b = tall_problem(5)
        rep = solve(SolverConfig(method=sv.REK, tol=1e-6, seed=5), A, b)
        assert 0.0 < rep.max_drift < 1e-12
        greedy = solve(SolverConfig(method=sv.EMRK, tol=1e-6, seed=5), A, b)
        assert greedy.resyncs == greedy.outer_iters
        assert greedy.max_drift == 0.0

    def test_wide_square_and_sparse_recompute_every_iteration(self):
        rng = np.random.default_rng(6)
        wide = handle(rng.standard_normal((20, 40)))
        # one row short of the CARRY_MIN_ASPECT cutoff
        near_square = handle(rng.standard_normal((sv.CARRY_MIN_ASPECT * 20 - 1, 20)))
        sparse = mx.from_scipy(scipy.sparse.random(80, 20, density=0.3, random_state=6))
        for A in (wide, near_square, sparse):
            for method in (sv.REK, sv.PREK):
                rep = solve(SolverConfig(method=method, tol=1e-300, max_outer=50),
                            A, rng.standard_normal(A.m))
                assert rep.resyncs == 50
        assert wide._gram is None and near_square._gram is None
        at_cutoff = handle(rng.standard_normal((sv.CARRY_MIN_ASPECT * 20, 20)))
        rep = solve(SolverConfig(method=sv.REK, tol=1e-300, max_outer=50),
                    at_cutoff, rng.standard_normal(at_cutoff.m))
        assert rep.resyncs == 1

    def test_divergence_still_raised(self, monkeypatch):
        A, b = tall_problem(7)
        monkeypatch.setattr(sv, "DIVERGENCE_CAP", 1e-12)
        with pytest.raises(DivergenceError, match=f"iteration {sv.RESYNC_EVERY}$"):
            solve(SolverConfig(method=sv.REK, seed=0, max_outer=1000, tol=1e-300), A, b)

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
        A, b = tall_problem(9, m=200, n=50)
        with caplog.at_level("DEBUG", logger="kmz.solvers"):
            rep = solve(SolverConfig(method=sv.PREK, seed=0), A, b)
        assert f"{rep.resyncs} full residual recomputes" in caplog.text


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


class TestNonFiniteInput:
    @pytest.mark.parametrize("name", ["b", "x0"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_before_any_iteration(self, name, bad):
        A, b = tall_problem(13, m=200, n=50)
        x0 = np.zeros(A.n)
        vec = b if name == "b" else x0
        vec[7] = vec[9] = bad
        for method, omega in ((sv.REK, 1), (sv.PREK, 1), (sv.MEMRK, 4)):
            for tol in (1e-6, None):
                cfg = SolverConfig(method=method, omega=omega, tol=tol, x0=x0)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(NonFiniteInputError,
                                       match=rf"^{name}\[7\] = ") as info:
                        solve(cfg, A, b)
                assert (info.value.name, info.value.index) == (name, 7)


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
