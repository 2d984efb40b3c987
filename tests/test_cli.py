import hashlib
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.io import mmwrite

from kmz import bench, cli, oracle, problems, solvers
from kmz import matrix as mx
from kmz.errors import ConfigError


def dir_digest(directory):
    digest = hashlib.sha256()
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def gen_small(out, seed=3, m=40, n=8):
    rc = cli.main(["gen", "--kind", "dense", "--m", str(m), "--n", str(n),
                   "--seed", str(seed), "--out", str(out)])
    assert rc == 0


class TestParsing:
    def test_angle_range(self):
        assert cli._parse_angles("0:6:174") == list(np.arange(0.0, 175.0, 6.0))
        assert cli._parse_angles("0:2:150")[-1] == 150.0

    def test_bad_angles(self):
        with pytest.raises(ConfigError):
            cli._parse_angles("0-6-174")
        with pytest.raises(ConfigError):
            cli._parse_angles("0:0:90")
        with pytest.raises(ConfigError):
            cli._parse_angles("0:inf:10")
        with pytest.raises(ConfigError, match="below start"):
            cli._parse_angles("10:5:0")
        assert cli._parse_angles("10:5:10") == [10.0]

    def test_method_list(self):
        assert cli._parse_methods("rek,emrk,memrk:4") == [
            ("rek", 1), ("emrk", 1), ("memrk", 4)]

    def test_unknown_flag_is_usage_error(self):
        assert cli.main(["solve", "--bogus"]) == 1

    def test_missing_subcommand(self):
        assert cli.main([]) == 1


class TestMissingInputPath:
    """A path that cannot be opened is a usage error, not a traceback."""

    def check(self, argv, missing, capsys):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("kmz: usage error: ") and missing in err

    def test_gen_config(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        self.check(["gen", "--config", missing, "--seed", "1",
                    "--out", str(tmp_path / "p")], missing, capsys)
        assert not (tmp_path / "p").exists()

    def test_solve_problem(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        self.check(["solve", "--problem", str(missing), "--method", "rek"],
                   str(missing / "A.mtx"), capsys)

    def test_bench_spec(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        self.check(["bench", "--spec", missing, "--out", str(tmp_path / "r.csv")],
                   missing, capsys)


class TestMalformedProblemFile:
    """A problem file that cannot be parsed is a numerical/domain error
    (exit 2) naming the file, as a malformed A.mtx is, not a traceback."""

    @pytest.mark.parametrize("name,text", [
        ("meta.json", '{"kind": "dense", "seed"'),
        ("b.txt", None),
        ("meta.json", '{"geometry": {"image_n": "x"}}'),
    ], ids=["truncated_meta", "non_numeric_b", "bad_geometry"])
    def test_solve_and_theory_exit_2(self, tmp_path, capsys, name, text):
        gen_small(tmp_path / "p", m=30, n=5)
        path = tmp_path / "p" / name
        if text is None:
            lines = path.read_text().splitlines()
            lines[3] = "0.5x"
            text = "\n".join(lines) + "\n"
        path.write_text(text)
        capsys.readouterr()
        for argv in (["solve", "--method", "rek"], ["theory"]):
            assert cli.main(argv + ["--problem", str(tmp_path / "p")]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"kmz: error: malformed {path}: ")

    @pytest.mark.parametrize("undecodable", ["bom_before_banner",
                                             "value_after_banner"])
    def test_undecodable_matrix_exits_2(self, tmp_path, capsys, undecodable):
        # a byte that decodes to no text, before the banner or as the first
        # value (within the first 8 KB, which a text-mode readline of the
        # banner would decode), is a malformed file, not a traceback
        gen_small(tmp_path / "p", m=30, n=5)
        path = tmp_path / "p" / "A.mtx"
        lines = path.read_bytes().split(b"\n")
        if undecodable == "bom_before_banner":
            lines[0] = b"\xff\xfe" + lines[0]
        else:
            assert lines[2] == b"30 5"
            lines[3] = b"\xff"
        path.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        for argv in (["solve", "--method", "rek"], ["theory"]):
            assert cli.main(argv + ["--problem", str(tmp_path / "p")]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"kmz: error: {path}: ")

    def test_underflowing_row_exits_2(self, tmp_path, capsys):
        # a row whose squared norm underflows to 0 is refused when the
        # handle is built, with the row named
        gen_small(tmp_path / "p", m=30, n=5)
        A = mx.read_matrix_market(tmp_path / "p" / "A.mtx").to_dense()
        A[1] = [0.0, 1.5e-162, 0.0, 0.0, 0.0]
        mmwrite(tmp_path / "p" / "A.mtx", A, precision=17)
        capsys.readouterr()
        assert cli.main(["solve", "--method", "emrk", "--problem",
                         str(tmp_path / "p")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "row 1 has nonzero entries but a squared norm that " \
            "underflows to 0" in captured.err


class TestWrongTypedValue:
    """A value that cannot be read as the option's number type is a usage
    error (exit 1), not a raw ValueError traceback."""

    def check(self, argv, capsys, expected):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("kmz: usage error: ") and expected in err

    def config(self, tmp_path, values):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(values))
        return str(path)

    def test_gen(self, tmp_path, capsys):
        self.check(["gen", "--config", self.config(tmp_path, {"m": "abc"}),
                    "--seed", "0", "--out", str(tmp_path / "d")], capsys,
                   "m must be an integer, got 'abc'")
        assert not (tmp_path / "d").exists()

    def test_gen_tomo_geometry(self, tmp_path, capsys):
        self.check(["gen", "--kind", "tomo", "--config",
                    self.config(tmp_path, {"rays": [1]}), "--seed", "0",
                    "--out", str(tmp_path / "d")], capsys, "rays must be an integer")

    def test_solve(self, tmp_path, capsys):
        gen_small(tmp_path / "p")
        capsys.readouterr()
        self.check(["solve", "--problem", str(tmp_path / "p"), "--method", "rek",
                    "--config", self.config(tmp_path, {"tol": "tight"})], capsys,
                   "tol must be a number, got 'tight'")

    @pytest.mark.parametrize("methods", ["rek:x", "memrk:", "memrk:1.5"])
    def test_tomo_method_list(self, tmp_path, capsys, methods):
        self.check(["tomo", "--methods", methods, "--out", str(tmp_path / "t")],
                   capsys, f"got {methods!r}")

    def test_tomo_config_method_pairs(self, tmp_path, capsys):
        for methods in ([["rek"]], [["memrk", "four"]], 3, []):
            self.check(["tomo", "--config", self.config(tmp_path, {"methods": methods}),
                        "--out", str(tmp_path / "t")], capsys, "methods must be")
        assert not (tmp_path / "t").exists()

    def test_theory(self, tmp_path, capsys):
        gen_small(tmp_path / "p")
        capsys.readouterr()
        problem = ["theory", "--problem", str(tmp_path / "p")]
        self.check(problem + ["--config", self.config(tmp_path, {"k_max": None})],
                   capsys, "k_max must be an integer, got None")
        for flags, expected in ((["--k-step", "0"], "k_step must be >= 1"),
                                (["--k-max", "-5"], "k_max must be >= 0")):
            assert cli.main(problem + flags) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and expected in captured.err

    @pytest.mark.parametrize("text,expected", [
        ("{not json", "not valid JSON"), ("[1, 2]", "must be a JSON object"),
        ('{"out": 5}', "out must be a path string, got 5")])
    def test_gen_config_file(self, tmp_path, capsys, text, expected):
        path = tmp_path / "c.json"
        path.write_text(text)
        self.check(["gen", "--config", str(path), "--seed", "0"], capsys, expected)

    def test_undecodable_config_file(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"out": "r\xff.csv"}')
        self.check(["bench", "--spec", "s.json", "--config", str(path)],
                   capsys, "not valid JSON")

    def test_solve_problem_path(self, tmp_path, capsys):
        self.check(["solve", "--method", "rek",
                    "--config", self.config(tmp_path, {"problem": 3})], capsys,
                   "problem must be a path string, got 3")

    def test_bench_output_path(self, tmp_path, capsys):
        self.check(["bench", "--spec", "s.json",
                    "--config", self.config(tmp_path, {"out": 5})], capsys,
                   "out must be a path string, got 5")

    def test_method_pairs_from_config(self):
        assert cli._parse_methods([["REK", 1], ["memrk", "4"]]) == [
            ("rek", 1), ("memrk", 4)]


def options_of(converter):
    return [(command, key) for command, options in cli.OPTIONS.items()
            for key, (convert, _) in options.items() if convert is converter]


# (flag text, config value) for each converter, neither the option's default
SAMPLES = {
    bench.as_int: ("7", 7), bench.as_float: ("0.5", 0.5), bench.as_path: ("p", "p"),
    bench.as_str: ("sparse", "sparse"), cli._lower: ("REK", "REK"),
    cli._rank_mode: ("yes", "yes"), cli._parse_angles: ("0:6:174", "0:6:174"),
    cli._parse_methods: ("rek,memrk:4", [["rek", 1], ["memrk", 4]]),
}


class TestOptionTable:
    """Every option of every subcommand is typed by its converter, whether it
    comes from a flag or from a --config file."""

    def run_config(self, tmp_path, command, values):
        """Exit code of `command` with a --config file of `values` over what
        it needs to run and write under tmp_path, and whether it wrote."""
        gen_small(tmp_path / "p")
        before = sorted(tmp_path.rglob("*"))
        problem, out = str(tmp_path / "p"), str(tmp_path / "out")
        needs = {"gen": {"seed": 0}, "tomo": {}, "theory": {"problem": problem},
                 "solve": {"problem": problem, "method": "rek",
                           "trace": str(tmp_path / "t.csv")}}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**needs[command], "out": out, **values}))
        rc = cli.main([command, "--config", str(cfg)])
        cfg.unlink()
        return rc, sorted(tmp_path.rglob("*")) != before

    @pytest.mark.parametrize("command, key, value", [
        *[(c, k, v) for c, k in options_of(bench.as_int) for v in (2.5, True)],
        ("gen", "m", 100.7), ("gen", "n", True)])
    def test_integer_option_rejects_fraction_and_bool(self, tmp_path, capsys,
                                                      command, key, value):
        capsys.readouterr()
        assert self.run_config(tmp_path, command, {key: value}) == (1, False)
        assert f"{key} must be an integer, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", options_of(bench.as_float))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_number_option_rejects_non_finite(self, tmp_path, capsys,
                                              command, key, value):
        capsys.readouterr()
        assert self.run_config(tmp_path, command, {key: value}) == (1, False)
        assert f"{key} must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [
        (command, key) for command, options in cli.OPTIONS.items() for key in options])
    def test_flag_and_config_value_agree(self, tmp_path, command, key):
        options = cli.OPTIONS[command]
        flag_text, config_value = SAMPLES[options[key][0]]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: config_value}))
        parse = cli._build_parser().parse_args
        by_flag = cli._merge(options, parse([command, "--" + key.replace("_", "-"),
                                             flag_text]))
        by_config = cli._merge(options, parse([command, "--config", str(cfg)]))
        default = cli._merge(options, parse([command]))
        assert by_flag == by_config
        assert by_flag[key] != default[key]
        assert type(by_flag[key]) is type(by_config[key])


class TestReadme:
    def test_cli_block_names_only_known_options(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("kmz ")]
        assert sorted({argv[1] for argv in commands}) == sorted(cli.OPTIONS)
        parser = cli._build_parser()
        for argv in commands:
            parser.parse_args(argv[1:])  # ConfigError on an unknown option


class TestGen:
    def test_deterministic_output(self, tmp_path):
        gen_small(tmp_path / "a")
        gen_small(tmp_path / "b")
        assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")

    def test_seed_required(self, tmp_path):
        assert cli.main(["gen", "--out", str(tmp_path / "x")]) == 1

    def test_sparse_and_rank_modes(self, tmp_path):
        rc = cli.main(["gen", "--kind", "sparse", "--m", "30", "--n", "10",
                       "--density", "0.3", "--rank-deficient", "yes",
                       "--seed", "1", "--out", str(tmp_path / "s")])
        assert rc == 0
        meta = json.loads((tmp_path / "s" / "meta.json").read_text())
        assert meta["kind"] == "sparse" and meta["density"] == 0.3

    def test_tomo_kind(self, tmp_path):
        rc = cli.main(["gen", "--kind", "tomo", "--image-n", "8",
                       "--half-width", "4", "--angles", "0:20:160",
                       "--rays", "11", "--span", "10", "--noise", "0.01",
                       "--seed", "2", "--out", str(tmp_path / "t")])
        assert rc == 0
        meta = json.loads((tmp_path / "t" / "meta.json").read_text())
        assert meta["geometry"]["image_n"] == 8
        assert meta["m"] == 9 * 11

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 30, "n": 6, "seed": 4}))
        # flag --m 50 beats config m=30 beats default m=100; n comes from config
        rc = cli.main(["gen", "--config", str(cfg), "--m", "50",
                       "--out", str(tmp_path / "p")])
        assert rc == 0
        meta = json.loads((tmp_path / "p" / "meta.json").read_text())
        assert meta["m"] == 50 and meta["n"] == 6 and meta["seed"] == 4

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert cli.main(["gen", "--config", str(cfg), "--seed", "0",
                         "--out", str(tmp_path / "p")]) == 1

    def test_unknown_kind_in_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "banded"}))
        assert cli.main(["gen", "--config", str(cfg), "--seed", "0",
                         "--out", str(tmp_path / "p")]) == 1

    @pytest.mark.parametrize("kind", ["dense", "sparse", "tomo"])
    def test_directory_is_the_recipe_saved(self, tmp_path, kind):
        argv = {"dense": ["--m", "12", "--n", "30"],
                "sparse": ["--m", "30", "--n", "10", "--density", "0.3",
                           "--scale", "0.5", "--rank-deficient", "yes"],
                "tomo": ["--image-n", "8", "--half-width", "4", "--angles",
                         "0:20:160", "--rays", "11", "--span", "10",
                         "--noise", "0.02"]}[kind]
        assert cli.main(["gen", "--kind", kind, *argv, "--seed", "6",
                         "--out", str(tmp_path / "cli")]) == 0
        if kind == "dense":
            prob = problems.make_gaussian("dense", 12, 30, 6, 0.1, None, 0.25)
        elif kind == "sparse":
            prob = problems.make_gaussian("sparse", 30, 10, 6, 0.3, True, 0.5)
        else:
            geom = problems.TomoGeometry(8, 4.0, cli._parse_angles("0:20:160"), 11, 10.0)
            prob = problems.make_tomo(geom, 0.02, 6)
        problems.save_problem(prob, tmp_path / "lib")
        assert dir_digest(tmp_path / "cli") == dir_digest(tmp_path / "lib")


    def test_sparse_directory_equals_one_mask_draw(self, tmp_path, monkeypatch):
        # the mask is drawn in row blocks (three here, the last one short);
        # the files must be those of the single (m, n) draw it replaced
        argv = ["gen", "--kind", "sparse", "--m", "4000", "--n", "40",
                "--density", "0.02", "--rank-deficient", "yes", "--seed", "8"]
        assert cli.main([*argv, "--out", str(tmp_path / "blocks")]) == 0
        monkeypatch.setattr(problems, "gen_sparse_gaussian", one_draw_sparse_gaussian)
        assert cli.main([*argv, "--out", str(tmp_path / "one")]) == 0
        assert dir_digest(tmp_path / "blocks") == dir_digest(tmp_path / "one")


def one_draw_sparse_gaussian(m, n, density, seed):
    """gen_sparse_gaussian as it was, with its mask from one (m, n) draw."""
    mask_seq, value_seq = np.random.SeedSequence(seed).spawn(2)
    mask = np.random.default_rng(mask_seq).random((m, n)) < density
    rows, cols = np.nonzero(mask)
    values = np.random.default_rng(value_seq).standard_normal(rows.size)
    return mx.from_scipy(sp.coo_matrix((values, (rows, cols)), shape=(m, n)))


class TestSolve:
    def test_solve_writes_row_and_trace(self, tmp_path):
        gen_small(tmp_path / "p")
        out = tmp_path / "row.csv"
        trace = tmp_path / "trace.csv"
        rc = cli.main(["solve", "--problem", str(tmp_path / "p"),
                       "--method", "memrk", "--omega", "4", "--tol", "1e-8",
                       "--out", str(out), "--trace", str(trace)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("method,")
        fields = lines[1].split(",")
        assert fields[0] == "memrk4"
        assert float(fields[7]) < 1e-8          # final_res
        assert float(fields[8]) < 1e-2          # err_sq vs the oracle
        assert trace.read_text().startswith("k,res,err_sq")

    @pytest.mark.parametrize("flags, trace_every", [
        ([], 0), (["--trace-every", "5"], 0), (["--trace", "t.csv"], 1),
        (["--trace", "t.csv", "--trace-every", "5"], 5)])
    def test_trace_rows_only_for_a_trace_file(self, tmp_path, monkeypatch,
                                              flags, trace_every):
        gen_small(tmp_path / "p")
        configs, solve = [], solvers.solve
        monkeypatch.setattr(solvers, "solve",
                            lambda config, *a, **kw: configs.append(config)
                            or solve(config, *a, **kw))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["solve", "--problem", "p", "--method", "rek",
                         "--out", "row.csv", *flags]) == 0
        assert [c.trace_every for c in configs] == [trace_every]
        if trace_every == 1:  # one row per iteration
            iters = int(Path("row.csv").read_text().splitlines()[1].split(",")[5])
            rows = Path("t.csv").read_text().splitlines()[1:]
            assert [int(row.split(",")[0]) for row in rows] == list(range(iters + 1))

    def test_negative_trace_stride_rejected_without_trace_file(self, tmp_path, capsys):
        gen_small(tmp_path / "p")
        assert cli.main(["solve", "--problem", str(tmp_path / "p"), "--method", "rek",
                         "--trace-every", "-1"]) == 1
        assert "trace_every must be >= 0" in capsys.readouterr().err

    def test_does_not_mutate_problem_dir(self, tmp_path):
        gen_small(tmp_path / "p")
        before = dir_digest(tmp_path / "p")
        cli.main(["solve", "--problem", str(tmp_path / "p"), "--method", "rek",
                  "--out", str(tmp_path / "row.csv")])
        assert dir_digest(tmp_path / "p") == before

    def test_omega_rejected_for_single_step_methods(self, tmp_path):
        gen_small(tmp_path / "p")
        rc = cli.main(["solve", "--problem", str(tmp_path / "p"),
                       "--method", "emrk", "--omega", "3"])
        assert rc == 1

    def test_missing_problem_flag(self):
        assert cli.main(["solve", "--method", "rek"]) == 1

    def test_stdout_row_without_oracle(self, tmp_path, capsys, monkeypatch):
        gen_small(tmp_path / "p")
        monkeypatch.setattr(oracle, "SCALE_CAP", 0)  # skip the SVD reference
        rc = cli.main(["solve", "--problem", str(tmp_path / "p"), "--method", "rek"])
        assert rc == 0
        captured = capsys.readouterr()
        header, line = captured.out.splitlines()
        assert header == bench.RESULT_HEADER
        fields = line.split(",")
        assert len(fields) == len(header.split(","))
        assert "None" not in line
        assert fields[0] == "rek" and fields[8] == "" and fields[9] == ""
        assert float(fields[7]) < 1e-6
        assert captured.err.strip().endswith(
            "; reference SVD skipped: min(m, n) = 8 > SCALE_CAP = 0"), captured.err

    def test_summary_reports_reference_svd(self, tmp_path, capsys):
        gen_small(tmp_path / "p")
        capsys.readouterr()
        assert cli.main(["solve", "--problem", str(tmp_path / "p"), "--method", "rek",
                         "--out", str(tmp_path / "row.csv")]) == 0
        err = capsys.readouterr().err
        assert re.search(r"; reference SVD took \S+ s$", err.strip()), err
        # the float64 passes of the solve, SolveReport.full_passes
        passes = re.search(r"^rek: iters=\d+ res=\S+ passes=(\d+) converged=True; ",
                           err, re.M)
        assert passes and int(passes.group(1)) >= 1, err


class TestBench:
    def spec(self, tmp_path, **extra):
        raw = {"kind": "dense", "m": 50, "n": 10, "trials": 2,
               "methods": [["emrk", 1], ["memrk", 2]], "tol": 1e-6,
               "seed": 7}
        raw.update(extra)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        return path

    def test_spec_must_pin_seed(self, tmp_path):
        raw = {"kind": "dense", "m": 50, "n": 10}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["bench", "--spec", str(path),
                         "--out", str(tmp_path / "r.csv")]) == 1

    def test_run_and_rerun_identical_modulo_wall(self, tmp_path):
        spec = self.spec(tmp_path)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert cli.main(["bench", "--spec", str(spec), "--out", str(out1),
                         "--meta", str(tmp_path / "meta.json")]) == 0
        assert cli.main(["bench", "--spec", str(spec), "--out", str(out2)]) == 0

        def strip_wall(path):
            rows = []
            for line in Path(path).read_text().splitlines():
                parts = line.split(",")
                if len(parts) > 6 and parts[0] != "method":
                    parts[6] = ""
                rows.append(",".join(parts))
            return rows

        assert strip_wall(out1) == strip_wall(out2)
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["spec"]["seed"] == 7

    def test_outputs_block_in_spec(self, tmp_path, capsys):
        # --out and --meta name the files; a spec cannot
        out = tmp_path / "res.csv"
        spec = self.spec(tmp_path, outputs={"results": str(out)})
        assert cli.main(["bench", "--spec", str(spec), "--out", str(out)]) == 1
        assert "unknown experiment field 'outputs'" in capsys.readouterr().err
        assert not out.exists()

    def test_no_output_path_is_usage_error(self, tmp_path, capsys):
        spec = self.spec(tmp_path)
        assert cli.main(["bench", "--spec", str(spec)]) == 1
        assert "--out is required" in capsys.readouterr().err

    def test_string_values_coerced_or_usage_error(self, tmp_path):
        out = tmp_path / "r.csv"
        assert cli.main(["bench", "--spec", str(self.spec(tmp_path, trials="2")),
                         "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 2 + 2
        assert cli.main(["bench", "--spec", str(self.spec(tmp_path, trials="two")),
                         "--out", str(out)]) == 1

    def test_empty_method_list_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert cli.main(["bench", "--spec", str(self.spec(tmp_path, methods=[])),
                         "--out", str(out), "--meta", str(tmp_path / "m.json")]) == 1
        assert "methods must be a non-empty list" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "spec.json"]

    def test_malformed_spec_is_usage_error(self, tmp_path):
        path = tmp_path / "spec.json"
        for text in ("{not json", "[1, 2]", '{"seed": 1, "outputs": "r.csv"}'):
            path.write_text(text)
            assert cli.main(["bench", "--spec", str(path),
                             "--out", str(tmp_path / "r.csv")]) == 1


class TestTomo:
    def test_small_pipeline(self, tmp_path):
        out = tmp_path / "tomo"
        rc = cli.main(["tomo", "--image-n", "8", "--half-width", "4",
                       "--angles", "0:20:160", "--rays", "11", "--span", "10",
                       "--noise", "0.01", "--methods", "rek,memrk:2",
                       "--budget-factor", "1", "--seed", "0",
                       "--out", str(out)])
        assert rc == 0
        assert (out / "results.csv").exists()
        for label in ("phantom", "rek", "memrk2"):
            assert (out / f"{label}.txt").exists()
            assert (out / f"{label}.pgm").read_text().startswith("P2")


    def test_negative_budget_factor_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "tomo"
        assert cli.main(["tomo", "--budget-factor", "-1", "--out", str(out)]) == 1
        assert "budget factor must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["tomo"], ["gen", "--kind", "tomo",
                                                    "--seed", "0"]])
    def test_empty_angle_range_is_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "t"
        assert cli.main([*command, "--angles", "10:5:0", "--out", str(out)]) == 1
        assert "angle stop 0 is below start 10" in capsys.readouterr().err
        assert not out.exists()


class TestTheory:
    def test_profile_and_table(self, tmp_path, capsys):
        gen_small(tmp_path / "p")
        out = tmp_path / "bounds.csv"
        rc = cli.main(["theory", "--problem", str(tmp_path / "p"),
                       "--k-max", "10", "--out", str(out)])
        assert rc == 0
        profile = json.loads(capsys.readouterr().out)
        assert 0.0 < profile["alpha"] < 1.0
        assert "alpha1" not in profile and "beta1" not in profile
        lines = out.read_text().splitlines()
        assert lines[0] == "k,rek_bound"
        assert len(lines) == 12

    def test_rek_bound_bounds_rek(self, tmp_path, capsys):
        """Every REK error trace of 30 seeds stays below the printed bound
        (measured: at most 0.10 of it) at each k <= 400."""
        assert cli.main(["gen", "--m", "100", "--n", "20", "--seed", "0",
                         "--out", str(tmp_path / "p")]) == 0
        out = tmp_path / "bounds.csv"
        assert cli.main(["theory", "--problem", str(tmp_path / "p"),
                         "--k-max", "400", "--out", str(out)]) == 0
        bound = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
        prob = problems.load_problem(tmp_path / "p")
        x_ls = oracle.svd_least_squares(prob.A, prob.b)
        for seed in range(30):
            report = solvers.solve(
                solvers.SolverConfig(method="rek", tol=None, max_outer=400,
                                     seed=seed, trace_every=1),
                prob.A, prob.b, x_star=x_ls)
            err = np.array([row[2] for row in report.trace])
            assert np.all(err <= bound), seed
