"""Command-line entry point: gen / solve / bench / tomo / theory.

Every subcommand accepts --config FILE (JSON); explicit flags override config
values, which override built-in defaults.  OPTIONS declares each option once:
the flag --a-b is the config key a_b, and flag text and config values alike
go through the option's converter, the ones bench specs use.  Exit codes: 0
success, 1 usage error, 2 numerical/domain error.  Diagnostics go to stderr;
data goes to files or stdout only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import bench, oracle, problems, solvers
from .errors import ConfigError, KmzError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must not call sys.exit(2)
        raise ConfigError(message)


def _parse_angles(text: str) -> list:
    try:
        start, step, stop = (bench.as_float(v) for v in str(text).split(":"))
    except ValueError as exc:
        raise ConfigError(f"angles must be start:step:stop, got {text!r}") from exc
    if step <= 0:
        raise ConfigError("angle step must be positive")
    return list(np.arange(start, stop + step / 2.0, step))


def _parse_methods(value) -> list:
    """[(name, omega), ...] from "rek,memrk:4" or [["rek", 1], ["memrk", 4]]."""
    methods = bench.as_methods(value.split(",") if isinstance(value, str) else value)
    if not methods:
        raise ConfigError("empty method list")
    return methods


_RANK_MODES = {"auto": None, "yes": True, "no": False}


def _rank_mode(value) -> bool | None:
    mode = bench.as_str(value).lower()
    if mode not in _RANK_MODES:
        raise ValueError(f"must be auto/yes/no, got {mode!r}")
    return _RANK_MODES[mode]


def _lower(value) -> str:
    return bench.as_str(value).lower()


# Every option of every subcommand: name -> (converter, default).  Option
# a_b is the flag --a-b and the config key a_b; a default of None marks an
# option that may be left unset (_require says which must not be).
_GEOMETRY = {
    "image_n": (bench.as_int, 40), "half_width": (bench.as_float, 20.0),
    "angles": (_parse_angles, "0:2:150"), "rays": (bench.as_int, 125),
    "span": (bench.as_float, 120.0), "noise": (bench.as_float, 0.01),
}
OPTIONS = {
    "gen": {
        "kind": (bench.as_str, problems.DENSE), "m": (bench.as_int, 100),
        "n": (bench.as_int, 20), "density": (bench.as_float, 0.1),
        "scale": (bench.as_float, 0.25), "rank_deficient": (_rank_mode, "auto"),
        "seed": (bench.as_int, None), "out": (bench.as_path, None), **_GEOMETRY,
    },
    "solve": {
        "problem": (bench.as_path, None), "method": (_lower, None),
        "omega": (bench.as_int, 1), "tol": (bench.as_float, 1e-6),
        "max_it": (bench.as_int, 50_000), "seed": (bench.as_int, 0),
        "trace_every": (bench.as_int, 1), "out": (bench.as_path, None),
        "trace": (bench.as_path, None),
    },
    "bench": {"spec": (bench.as_path, None), "out": (bench.as_path, None),
              "meta": (bench.as_path, None)},
    "tomo": {
        **_GEOMETRY, "methods": (_parse_methods, "rek,emrk,memrk:4"),
        "budget_factor": (bench.as_int, 10), "seed": (bench.as_int, 0),
        "out": (bench.as_path, None),
    },
    "theory": {"problem": (bench.as_path, None), "k_max": (bench.as_int, 50),
               "k_step": (bench.as_int, 1), "out": (bench.as_path, None)},
}


def _read_json_object(path, what: str) -> dict:
    with open(path) as fh:
        try:
            loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return loaded


def _merge(options: dict, args: argparse.Namespace) -> dict:
    """Each option's flag, else its --config value, else its default, typed
    by the option's converter."""
    merged = {key: default for key, (_, default) in options.items()}
    if args.config:
        for key, value in _read_json_object(args.config, "a config file").items():
            if key not in options:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = value
    for key in options:
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    return {key: None if value is None and options[key][1] is None
            else bench.convert(key, options[key][0], value)
            for key, value in merged.items()}


def _require(opt: dict, *keys):
    for key in keys:
        if opt[key] is None:
            raise ConfigError(f"--{key.replace('_', '-')} is required")


def _geometry(opt: dict) -> problems.TomoGeometry:
    return problems.TomoGeometry(
        image_n=opt["image_n"], half_width=opt["half_width"],
        angles_deg=opt["angles"], rays=opt["rays"], span=opt["span"])


# -- subcommands: each takes the merged, typed options -------------------------


def _cmd_gen(opt: dict) -> int:
    """generate a problem directory"""
    _require(opt, "seed", "out")
    out, kind = Path(opt["out"]), opt["kind"]
    if kind == problems.TOMO:
        prob = problems.make_tomo(_geometry(opt), opt["noise"], opt["seed"])
    else:
        prob = problems.make_gaussian(kind, opt["m"], opt["n"], opt["seed"],
                                      opt["density"], opt["rank_deficient"],
                                      opt["scale"])
    problems.save_problem(prob, out)
    print(f"wrote problem ({prob.A.m} x {prob.A.n}, kind={kind}) to {out}",
          file=sys.stderr)
    return 0


def _cmd_solve(opt: dict) -> int:
    """run one method on a problem directory"""
    _require(opt, "problem", "method")
    prob = problems.load_problem(opt["problem"])
    # trace rows make solve form RES in full, so only a --trace file asks for
    # them; min() leaves a negative stride an error either way
    config = solvers.SolverConfig(
        method=opt["method"], omega=opt["omega"], tol=opt["tol"],
        max_outer=opt["max_it"], seed=opt["seed"],
        trace_every=opt["trace_every"] if opt["trace"] else min(opt["trace_every"], 0))
    x_ref = None
    if min(prob.A.m, prob.A.n) <= oracle.SCALE_CAP:
        t0 = time.perf_counter()
        x_ref = oracle.svd_least_squares(prob.A, prob.b)
        reference = f"reference SVD took {time.perf_counter() - t0:.3g} s"
    else:
        reference = (f"reference SVD skipped: min(m, n) = {min(prob.A.m, prob.A.n)}"
                     f" > SCALE_CAP = {oracle.SCALE_CAP}")
    report = solvers.solve(config, prob.A, prob.b, x_star=x_ref)
    err_sq = report.trace[-1][2]  # ||x_final - x_ref||^2, or None
    row = bench.ResultRow(
        bench.method_label(config.method, config.omega), prob.A.m, prob.A.n,
        config.omega, config.seed, report.outer_iters, report.wall_seconds,
        report.final_res, err_sq)
    if opt["out"]:
        bench.emit_results([row], opt["out"])
    else:
        print(bench.RESULT_HEADER)
        print(bench.result_line(row))
    if opt["trace"]:
        solvers.write_trace_csv(report, opt["trace"])
    print(f"{row.method}: iters={row.iters} res={row.final_res:.3e} "
          f"converged={report.converged}; {reference}", file=sys.stderr)
    return 0


def _cmd_bench(opt: dict) -> int:
    """execute an experiment spec JSON"""
    _require(opt, "spec", "out")
    raw = _read_json_object(opt["spec"], "bench spec")
    if "seed" not in raw:
        raise ConfigError("bench spec must pin a seed (no wall-clock seeding)")
    spec = bench.ExperimentSpec.from_dict(raw)
    rows = bench.run_experiment(spec)
    bench.emit_results(rows, opt["out"])
    if opt["meta"]:
        bench.emit_meta(spec, opt["meta"])
    print(f"wrote {len(rows)} result rows to {opt['out']}", file=sys.stderr)
    return 0


def _cmd_tomo(opt: dict) -> int:
    """run the tomography reconstruction pipeline"""
    _require(opt, "out")
    rows, images = bench.tomo_experiment(
        _geometry(opt), opt["noise"], opt["methods"],
        iter_budget_factor=opt["budget_factor"], seed=opt["seed"])
    out = Path(opt["out"])
    out.mkdir(parents=True, exist_ok=True)
    bench.emit_results(rows, out / "results.csv")
    for label, img in images.items():
        bench.write_image_txt(img, out / f"{label}.txt")
        bench.write_pgm(img, out / f"{label}.pgm")
    for row in rows:
        print(f"{row.method}: psnr={row.psnr:.2f} dB after {row.iters} iterations",
              file=sys.stderr)
    return 0


def _cmd_theory(opt: dict) -> int:
    """print spectral profile and bound tables"""
    _require(opt, "problem")
    if opt["k_step"] < 1:
        raise ConfigError(f"k_step must be >= 1, got {opt['k_step']}")
    if opt["k_max"] < 0:
        raise ConfigError(f"k_max must be >= 0, got {opt['k_max']}")
    prob = problems.load_problem(opt["problem"])
    profile = oracle.spectral_profile(prob.A)
    x_star = oracle.svd_least_squares(prob.A, prob.b)
    xstar_norm_sq = float(x_star @ x_star)
    print(json.dumps({
        "sigma_min": profile.sigma_min, "sigma_max": profile.sigma_max,
        "kappa": profile.kappa, "frob_sq": profile.frob_sq,
        "alpha": profile.alpha, "gamma": profile.gamma,
        "min_row_norm_sq": profile.min_row_norm_sq,
    }, indent=2))
    lines = ["k,rek_bound"]
    for k in range(0, opt["k_max"] + 1, opt["k_step"]):
        rb = oracle.rek_bound(profile, k, xstar_norm_sq)
        lines.append(f"{k},{rb:.17g}")
    table = "\n".join(lines) + "\n"
    if opt["out"]:
        Path(opt["out"]).write_text(table)
    else:
        sys.stdout.write(table)
    return 0


# -- wiring ---------------------------------------------------------------------


_COMMANDS = {"gen": _cmd_gen, "solve": _cmd_solve, "bench": _cmd_bench,
             "tomo": _cmd_tomo, "theory": _cmd_theory}


def _build_parser() -> _Parser:
    parser = _Parser(prog="kmz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key in OPTIONS[name]:
            p.add_argument("--" + key.replace("_", "-"), dest=key)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](_merge(OPTIONS[args.command], args))
    except (ConfigError, OSError) as exc:  # OSError: a path that cannot be opened
        print(f"kmz: usage error: {exc}", file=sys.stderr)
        return 1
    except KmzError as exc:
        print(f"kmz: error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
