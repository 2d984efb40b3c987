import math

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmz import bench, solvers
from kmz import matrix as mx
from kmz import problems as pb
from kmz.errors import ConfigError, DivergenceError, KmzError


class TestPsnr:
    def test_identical_images(self):
        img = pb.shepp_logan_phantom(16)
        assert bench.psnr(img, img) == math.inf

    def test_twenty_db(self):
        x_true = np.full((10, 10), 1.0)
        x_recon = x_true - 0.1
        assert bench.psnr(x_true, x_recon) == pytest.approx(20.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        x_true = rng.random((8, 8)) + 0.5
        x_recon = x_true + rng.standard_normal((8, 8)) * 0.05
        a = bench.psnr(x_true, x_recon)
        b = bench.psnr(3.0 * x_true, 3.0 * x_recon)
        assert a == pytest.approx(b, rel=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(KmzError):
            bench.psnr(np.zeros((4, 4)), np.ones((4, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(KmzError):
            bench.psnr(np.ones((4, 4)), np.ones((4, 5)))


class TestMethodLabel:
    def test_labels(self):
        assert bench.method_label("rek", 1) == "rek"
        assert bench.method_label("memrk", 4) == "memrk4"


class TestExperimentSpec:
    def test_roundtrip(self):
        spec = bench.ExperimentSpec(kind="sparse", m=200, n=40, density=0.2,
                                    methods=[("rek", 1), ("memrk", 6)],
                                    trials=3, seed=9)
        back = bench.ExperimentSpec.from_dict(spec.to_dict())
        assert back.to_dict() == spec.to_dict()

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            bench.ExperimentSpec.from_dict({"bogus": 1})

    def test_to_dict_has_each_field_and_no_trace_stride(self):
        d = bench.ExperimentSpec(methods=[("rek", 1), ("memrk", 6)]).to_dict()
        assert list(d) == [f.name for f in fields(bench.ExperimentSpec)]
        assert d["methods"] == [["rek", 1], ["memrk", 6]]
        # run_experiment keeps no trace, so a stride would only cost passes
        with pytest.raises(ConfigError, match="unknown experiment field 'trace_every'"):
            bench.ExperimentSpec.from_dict({"trace_every": 1})

    def test_invalid_method_rejected(self):
        spec = bench.ExperimentSpec(methods=[("rek", 2)])
        with pytest.raises(ConfigError):
            spec.validate()

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            bench.ExperimentSpec(kind="tomo").validate()

    def test_values_coerced_to_declared_types(self):
        spec = bench.ExperimentSpec.from_dict(
            {"trials": "2", "m": 60.0, "tol": "1e-7", "methods": [["REK", "1"]],
             "rank_deficient": None})
        assert (spec.trials, spec.m, spec.tol) == (2, 60, 1e-7)
        assert type(spec.trials) is int and type(spec.m) is int
        assert spec.methods == [("rek", 1)]

    @pytest.mark.parametrize("field, value", [
        ("trials", "two"), ("trials", 2.5), ("trials", True), ("m", None),
        ("tol", "tiny"), ("tol", float("nan")), ("kind", 3), ("record_err", "yes"),
        ("methods", "rek"), ("methods", [["rek", 1, 2]]), ("methods", 4),
        ("seed", float("inf")), ("trials", 0)])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            bench.ExperimentSpec.from_dict({field: value}).validate()

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            bench.ExperimentSpec.from_dict([["trials", 2]])

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(
        st.sampled_from([f.name for f in fields(bench.ExperimentSpec)] + ["bogus"]),
        st.recursive(st.none() | st.booleans() | st.integers() | st.floats()
                     | st.text(max_size=6),
                     lambda inner: st.lists(inner, max_size=3), max_leaves=6)))
    def test_from_dict_typed_or_config_error(self, raw):
        try:
            spec = bench.ExperimentSpec.from_dict(raw)
        except ConfigError:
            return
        types = {"str": str, "int": int, "float": float, "bool": bool}
        for f in fields(bench.ExperimentSpec):
            value = getattr(spec, f.name)
            if f.type in types:
                assert type(value) is types[f.type], (f.name, value)
            elif f.type == "bool | None":
                assert value is None or type(value) is bool
            else:
                assert all(type(m) is str and type(o) is int for m, o in value)


class TestRunExperiment:
    def small_spec(self, **kw):
        base = dict(kind="dense", m=50, n=10,
                    methods=[("emrk", 1), ("memrk", 2)], trials=2,
                    tol=1e-8, max_outer=20_000, seed=5, record_err=True)
        base.update(kw)
        return bench.ExperimentSpec(**base)

    def test_row_layout_and_convergence(self):
        rows = bench.run_experiment(self.small_spec())
        per_cell = [r for r in rows if r.seed >= 0]
        medians = [r for r in rows if r.seed == -1]
        assert len(per_cell) == 4 and len(medians) == 2
        assert [(r.method, r.seed) for r in per_cell] == [
            ("emrk", 0), ("emrk", 1), ("memrk2", 0), ("memrk2", 1)]
        for r in per_cell:
            assert r.final_res < 1e-8
            assert r.err_sq is not None and r.err_sq < 1e-2

    def test_determinism_modulo_wall_time(self):
        spec = self.small_spec()
        a = bench.run_experiment(spec)
        b = bench.run_experiment(spec)
        for ra, rb in zip(a, b):
            assert (ra.method, ra.seed, ra.iters, ra.final_res, ra.err_sq) == \
                   (rb.method, rb.seed, rb.iters, rb.final_res, rb.err_sq)

    def test_median_iters_helper(self):
        rows = bench.run_experiment(self.small_spec())
        med = bench.median_iters(rows)
        assert set(med) == {"emrk", "memrk2"}
        assert all(v > 0 for v in med.values())

    def test_failed_cells(self, monkeypatch, tmp_path, caplog):
        # every memrk2 cell raises: its rows say so, and it gets no median
        solve = solvers.solve

        def failing(config, A, b, **kw):
            if config.method == solvers.MEMRK:
                raise DivergenceError("iterate diverged at outer iteration 3")
            return solve(config, A, b, **kw)

        monkeypatch.setattr(solvers, "solve", failing)
        rows = bench.run_experiment(self.small_spec())
        failed = [r for r in rows if r.method == "memrk2"]
        assert [r.seed for r in failed] == [0, 1]
        for r in failed:
            assert r.iters == -1 and r.err_sq is None
            assert math.isnan(r.wall_seconds) and math.isnan(r.final_res)
        assert [(r.method, r.iters > 0) for r in rows if r.seed == -1] == [
            ("emrk", True)]
        assert "cell (memrk2, trial 1) failed: iterate diverged" in caplog.text
        path = tmp_path / "r.csv"
        bench.emit_results(rows, path)
        text = path.read_text()
        assert "None" not in text
        assert text.count("memrk2,50,10,2,") == 2
        assert text.count(",-1,nan,nan,,\n") == 2

    def test_underdetermined_auto_rank_deficiency(self):
        spec = self.small_spec(m=8, n=12, methods=[("memrk", 2)], trials=1)
        rows = bench.run_experiment(spec)
        assert rows[0].final_res < 1e-8

    def test_multi_step_medians_nonincreasing(self):
        spec = bench.ExperimentSpec(
            kind="dense", m=2000, n=200,
            methods=[("memrk", 1), ("memrk", 2), ("memrk", 4), ("memrk", 6)],
            trials=5, tol=1e-6, max_outer=50_000, seed=0)
        med = bench.median_iters(bench.run_experiment(spec))
        its = [med["memrk1"], med["memrk2"], med["memrk4"], med["memrk6"]]
        assert its == sorted(its, reverse=True)


class TestConvergenceCurve:
    def test_multi_step_curve_dominates_single_step(self):
        # the trace of `kmz solve --trace-every 10`: after a burn-in, RES of
        # MEMRK(omega 6) stays at or below that of MEMRK(omega 1)
        prob = pb.make_gaussian(pb.DENSE, 2000, 200, seed=2)
        curves = {}
        for omega in (1, 6):
            cfg = solvers.SolverConfig(method="memrk", omega=omega, tol=1e-300,
                                       max_outer=600, seed=omega, trace_every=10)
            report = solvers.solve(cfg, prob.A, prob.b)
            curves[omega] = {k: res for k, res, _ in report.trace}
        burn_in = [k for k in curves[1] if k >= 200]
        assert len(burn_in) == 41
        assert all(curves[6][k] <= curves[1][k] for k in burn_in)


class TestTomoExperiment:
    def geom(self):
        return pb.TomoGeometry(image_n=8, half_width=4.0,
                               angles_deg=list(np.arange(0.0, 180.0, 20.0)),
                               rays=11, span=10.0)

    def test_budget_zero_scores_blank_image(self):
        rows, images = bench.tomo_experiment(self.geom(), 0.01,
                                             [("rek", 1)], iter_budget_factor=0)
        assert rows[0].iters == 0
        blank_psnr = bench.psnr(pb.shepp_logan_phantom(8), np.zeros((8, 8)))
        assert rows[0].psnr == pytest.approx(blank_psnr)
        assert set(images) == {"phantom"}

    def test_noiseless_reconstruction_improves_with_budget(self):
        small = bench.tomo_experiment(self.geom(), 0.0, [("memrk", 4)],
                                      iter_budget_factor=1, seed=3)[0][0].psnr
        large = bench.tomo_experiment(self.geom(), 0.0, [("memrk", 4)],
                                      iter_budget_factor=10, seed=3)[0][0].psnr
        assert large > small

    def test_exact_budget_and_images(self):
        geom = self.geom()
        rows, images = bench.tomo_experiment(geom, 0.01, [("rek", 1), ("memrk", 2)],
                                             iter_budget_factor=2, seed=4)
        m = geom.rows
        for r in rows:
            assert r.iters == 2 * m
            assert np.isfinite(r.psnr)
        assert set(images) == {"phantom", "rek", "memrk2"}
        assert images["rek"].shape == (8, 8)

    @pytest.mark.parametrize("seed", [4, 8])
    def test_budget_not_cut_short_by_zero_residual(self, seed):
        # On these seeds of the criterion-7 geometry EMRK's RES is exactly
        # 0.0 after its first step; a fixed budget must still run all 10 m
        # iterations.  EMRK keeps its index (2) of the five-method list, so
        # it draws the same cell seed.
        geom = pb.TomoGeometry(image_n=24, half_width=20.0,
                               angles_deg=list(np.arange(0.0, 175.0, 6.0)),
                               rays=75, span=72.0)
        rows, images = bench.tomo_experiment(
            geom, 0.01, [("rek", 1), ("prek", 1), ("emrk", 1)],
            iter_budget_factor=10, seed=seed)
        blank = bench.psnr(images["phantom"], np.zeros_like(images["phantom"]))
        for r in rows:
            assert r.iters == 10 * geom.rows, r.method
            assert r.psnr > blank + 10.0, r.method

    def test_determinism(self):
        a = bench.tomo_experiment(self.geom(), 0.01, [("rek", 1)],
                                  iter_budget_factor=1, seed=5)[0][0]
        b = bench.tomo_experiment(self.geom(), 0.01, [("rek", 1)],
                                  iter_budget_factor=1, seed=5)[0][0]
        assert a.psnr == b.psnr and a.final_res == b.final_res


class TestEmission:
    def test_results_header_and_empty_fields(self, tmp_path):
        path = tmp_path / "r.csv"
        bench.emit_results([], path)
        assert path.read_text() == bench.RESULT_HEADER + "\n"
        row = bench.ResultRow("rek", 5, 3, 1, 0, 17, 0.25, 1e-7)
        bench.emit_results([row], path)
        lines = path.read_text().splitlines()
        assert lines[0] == bench.RESULT_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "rek" and fields[5] == "17"
        assert fields[8] == "" and fields[9] == ""  # err_sq, psnr unset

    def test_float_roundtrip_precision(self, tmp_path):
        value = 1.0 / 3.0
        row = bench.ResultRow("rek", 5, 3, 1, 0, 17, value, value, value, value)
        path = tmp_path / "r.csv"
        bench.emit_results([row], path)
        fields = path.read_text().splitlines()[1].split(",")
        assert float(fields[7]) == value

    def test_emit_meta(self, tmp_path):
        import json
        spec = bench.ExperimentSpec(seed=42)
        path = tmp_path / "meta.json"
        bench.emit_meta(spec, path)
        meta = json.loads(path.read_text())
        assert meta["spec"]["seed"] == 42
        assert "kmz_version" in meta
        env = meta["environment"]
        assert env["numpy"] == np.__version__
        assert env["python"].count(".") == 2 and env["scipy"]
        assert set(env["blas"]) == {"name", "version"}
        assert env["openblas"] == dict(zip(("core", "threads"), mx.openblas()))
        assert env["nproc"] == mx.usable_cores() >= 1
        git = env["git"]
        assert set(git) == {"revision", "dirty"}
        if git["revision"] is None:
            assert git["dirty"] is None
        else:
            assert len(git["revision"]) == 40 and isinstance(git["dirty"], bool)

    def test_git_revision_outside_a_checkout(self, tmp_path, monkeypatch):
        # a copy of kmz with no .git above it, as an installed package
        monkeypatch.setattr(bench, "__file__", str(tmp_path / "kmz" / "bench.py"))
        assert bench._git_revision() == {"revision": None, "dirty": None}

    def test_write_pgm(self, tmp_path):
        img = np.array([[0.0, 0.5], [1.0, 0.25]])
        path = tmp_path / "i.pgm"
        bench.write_pgm(img, path)
        lines = path.read_text().split()
        assert lines[0] == "P2" and lines[1] == "2" and lines[2] == "2"
        pixels = [int(v) for v in lines[4:]]
        assert max(pixels) == 255 and min(pixels) == 0

    def test_write_image_txt_roundtrip(self, tmp_path):
        img = np.random.default_rng(6).random((5, 5))
        path = tmp_path / "i.txt"
        bench.write_image_txt(img, path)
        assert np.array_equal(np.loadtxt(path), img)
