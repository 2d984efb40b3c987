"""Command-line entry point: gen / solve / bench / tomo / theory.

Every subcommand accepts --config FILE (JSON); explicit flags override config
values, which override built-in defaults.  Exit codes: 0 success, 1 usage
error, 2 numerical/domain error.  Diagnostics go to stderr; data goes to
files or stdout only.
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


GEN_DEFAULTS = {
    "kind": "dense", "m": 100, "n": 20, "density": 0.1, "scale": 0.25,
    "rank_deficient": "auto", "seed": None, "out": None,
    "image_n": 40, "half_width": 20.0, "angles": "0:2:150",
    "rays": 125, "span": 120.0, "noise": 0.01,
}
SOLVE_DEFAULTS = {
    "problem": None, "method": None, "omega": 1, "tol": 1e-6,
    "max_it": 50_000, "seed": 0, "trace_every": 1, "out": None, "trace": None,
}
BENCH_DEFAULTS = {"spec": None, "out": None, "meta": None}
TOMO_DEFAULTS = {
    "image_n": 40, "half_width": 20.0, "angles": "0:2:150", "rays": 125,
    "span": 120.0, "noise": 0.01, "methods": "rek,emrk,memrk:4",
    "budget_factor": 10, "seed": 0, "out": None,
}
THEORY_DEFAULTS = {"problem": None, "k_max": 50, "k_step": 1, "out": None}


def _parse_angles(text: str) -> list:
    try:
        start, step, stop = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"angles must be start:step:stop, got {text!r}") from exc
    if step <= 0:
        raise ConfigError("angle step must be positive")
    return list(np.arange(start, stop + step / 2.0, step))


def _parse_methods(text: str) -> list:
    methods = []
    for item in text.split(","):
        item = item.strip().lower()
        if ":" in item:
            name, omega = item.split(":", 1)
            methods.append((name, int(omega)))
        else:
            methods.append((item, 1))
    if not methods:
        raise ConfigError("empty method list")
    return methods


def _merge(defaults: dict, args: argparse.Namespace) -> dict:
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path) as fh:
            loaded = json.load(fh)
        for key, value in loaded.items():
            if key not in defaults:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = value
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _require(merged: dict, *keys):
    for key in keys:
        if merged[key] is None:
            raise ConfigError(f"--{key.replace('_', '-')} is required")


def _geometry(opt: dict) -> problems.TomoGeometry:
    return problems.TomoGeometry(
        image_n=int(opt["image_n"]), half_width=float(opt["half_width"]),
        angles_deg=_parse_angles(opt["angles"]), rays=int(opt["rays"]),
        span=float(opt["span"]))


# -- subcommands ----------------------------------------------------------------


def _cmd_gen(args) -> int:
    opt = _merge(GEN_DEFAULTS, args)
    _require(opt, "seed", "out")
    seed, out = int(opt["seed"]), Path(opt["out"])
    kind = opt["kind"]
    if kind == problems.TOMO:
        prob = problems.make_tomo(_geometry(opt), float(opt["noise"]), seed)
    else:
        mode = str(opt["rank_deficient"]).lower()
        modes = {"auto": None, "yes": True, "no": False}
        if mode not in modes:
            raise ConfigError(f"rank_deficient must be auto/yes/no, got {mode!r}")
        prob = problems.make_gaussian(kind, int(opt["m"]), int(opt["n"]), seed,
                                      float(opt["density"]), modes[mode],
                                      float(opt["scale"]))
    problems.save_problem(prob, out)
    print(f"wrote problem ({prob.A.m} x {prob.A.n}, kind={kind}) to {out}",
          file=sys.stderr)
    return 0


def _cmd_solve(args) -> int:
    opt = _merge(SOLVE_DEFAULTS, args)
    _require(opt, "problem", "method")
    prob = problems.load_problem(opt["problem"])
    config = solvers.SolverConfig(
        method=str(opt["method"]).lower(), omega=int(opt["omega"]),
        tol=float(opt["tol"]), max_outer=int(opt["max_it"]),
        seed=int(opt["seed"]), trace_every=int(opt["trace_every"]))
    x_ref = None
    if min(prob.A.m, prob.A.n) <= oracle.SCALE_CAP:
        t0 = time.perf_counter()
        x_ref = oracle.svd_least_squares(prob.A, prob.b)
        reference = f"reference SVD took {time.perf_counter() - t0:.3g} s"
    else:
        reference = (f"reference SVD skipped: min(m, n) = {min(prob.A.m, prob.A.n)}"
                     f" > SCALE_CAP = {oracle.SCALE_CAP}")
    report = solvers.solve(config, prob.A, prob.b, x_star=x_ref)
    err_sq = None
    if x_ref is not None:
        err_sq = float(np.sum((report.x_final - x_ref) ** 2))
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


def _cmd_bench(args) -> int:
    opt = _merge(BENCH_DEFAULTS, args)
    _require(opt, "spec")
    with open(opt["spec"]) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{opt['spec']}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("bench spec must be a JSON object")
    outputs = raw.pop("outputs", {})
    if not isinstance(outputs, dict):
        raise ConfigError("bench spec 'outputs' must be a JSON object")
    if "seed" not in raw:
        raise ConfigError("bench spec must pin a seed (no wall-clock seeding)")
    spec = bench.ExperimentSpec.from_dict(raw)
    rows = bench.run_experiment(spec)
    out = opt["out"] or outputs.get("results")
    if not out:
        raise ConfigError("no results path: pass --out or spec outputs.results")
    bench.emit_results(rows, out)
    meta = opt["meta"] or outputs.get("meta")
    if meta:
        bench.emit_meta(spec, meta)
    print(f"wrote {len(rows)} result rows to {out}", file=sys.stderr)
    return 0


def _cmd_tomo(args) -> int:
    opt = _merge(TOMO_DEFAULTS, args)
    _require(opt, "out")
    geom = _geometry(opt)
    methods = _parse_methods(opt["methods"]) if isinstance(opt["methods"], str) \
        else [(str(m).lower(), int(o)) for m, o in opt["methods"]]
    rows, images = bench.tomo_experiment(
        geom, float(opt["noise"]), methods,
        iter_budget_factor=int(opt["budget_factor"]), seed=int(opt["seed"]))
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


def _cmd_theory(args) -> int:
    opt = _merge(THEORY_DEFAULTS, args)
    _require(opt, "problem")
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
    # no greedy column: oracle.memrk_bound is not positive, so it bounds nothing
    lines = ["k,rek_bound"]
    for k in range(0, int(opt["k_max"]) + 1, int(opt["k_step"])):
        rb = oracle.rek_bound(profile, k, xstar_norm_sq, xstar_norm_sq)
        lines.append(f"{k},{rb:.17g}")
    table = "\n".join(lines) + "\n"
    if opt["out"]:
        Path(opt["out"]).write_text(table)
    else:
        sys.stdout.write(table)
    return 0


# -- wiring ---------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="kmz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        return p

    p = add("gen", "generate a problem directory")
    p.add_argument("--kind", choices=["dense", "sparse", "tomo"])
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--density", type=float)
    p.add_argument("--scale", type=float)
    p.add_argument("--rank-deficient", dest="rank_deficient",
                   choices=["auto", "yes", "no"])
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--image-n", dest="image_n", type=int)
    p.add_argument("--half-width", dest="half_width", type=float)
    p.add_argument("--angles")
    p.add_argument("--rays", type=int)
    p.add_argument("--span", type=float)
    p.add_argument("--noise", type=float)

    p = add("solve", "run one method on a problem directory")
    p.add_argument("--problem")
    p.add_argument("--method")
    p.add_argument("--omega", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-it", dest="max_it", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--trace-every", dest="trace_every", type=int)
    p.add_argument("--out")
    p.add_argument("--trace")

    p = add("bench", "execute an experiment spec JSON")
    p.add_argument("--spec")
    p.add_argument("--out")
    p.add_argument("--meta")

    p = add("tomo", "run the tomography reconstruction pipeline")
    p.add_argument("--image-n", dest="image_n", type=int)
    p.add_argument("--half-width", dest="half_width", type=float)
    p.add_argument("--angles")
    p.add_argument("--rays", type=int)
    p.add_argument("--span", type=float)
    p.add_argument("--noise", type=float)
    p.add_argument("--methods")
    p.add_argument("--budget-factor", dest="budget_factor", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = add("theory", "print spectral profile and bound tables")
    p.add_argument("--problem")
    p.add_argument("--k-max", dest="k_max", type=int)
    p.add_argument("--k-step", dest="k_step", type=int)
    p.add_argument("--out")

    return parser


_COMMANDS = {"gen": _cmd_gen, "solve": _cmd_solve, "bench": _cmd_bench,
             "tomo": _cmd_tomo, "theory": _cmd_theory}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
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
