"""Command-line driver.

Subcommands:

* ``direct`` / ``adjoint``: solve the eigenproblem for a rate spec and
  write the profile CSV plus a flat metadata file.
* ``gre`` / ``gap``: entropy-balance and spectral-gap studies over random
  bump perturbations.
* ``toy``: noise sweep for the weighted-antiderivative model problem.
* ``invert``: recover a division rate from an observed distribution CSV.
* ``sweep``: full noise-level convergence study driven by a flat
  key = value configuration file, every key overridable by a flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import entropy, harness, inverse, toy
from .direct import adjoint_residual, check_invariants, direct_residual, solve_direct, solve_pair
from .grid import GridFunction, make_grid, read_csv, write_csv

OUT_DIR_ENV = "CELLDIV_OUT_DIR"

# Short scheme names of ``invert --scheme`` and the sweep's ``scheme`` key.
_SCHEMES = {"fd": "direct-fd", "dfree": "derivative-free"}

_CONFIG_KEYS = (
    "bspec",
    "grid.length",
    "grid.n",
    "epsilons",
    "alpha.rule",
    "alpha.c",
    "seeds",
    "scheme",
    "out.dir",
    "formats",
    "slope.min",
    "slope.max",
)


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bspec", required=True, help="constant:<v> | piecewise:<file> | table:<file>")
    p.add_argument("--grid-length", type=float, default=12.0)
    p.add_argument("--grid-n", type=int, default=4096)
    p.add_argument("--tol", type=float, default=1e-9)


def _meta_path(output: Path) -> Path:
    return output.with_suffix(".meta.json")


def _cmd_direct(args) -> int:
    grid = make_grid(args.grid_length, args.grid_n)
    rate = harness.parse_rate_spec(args.bspec, grid)
    solve = solve_pair if args.which == "adjoint" else solve_direct
    pair = solve(rate, tol=args.tol, max_iters=args.max_iters)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    profile = pair.phi if args.which == "adjoint" else pair.N
    write_csv(profile, out)
    report = check_invariants(pair, rate)
    phi = pair.phi
    meta = {
        "lambda0": pair.lambda0,
        "lambda0_quad": report.checks["f1"].rhs,  # int B N
        "residual_N": direct_residual(pair.N, rate, pair.lambda0),
        "residual_phi": None if phi is None else adjoint_residual(phi, rate, pair.lambda0),
        "iterations": pair.iterations,
        "phi_growth": None if phi is None else float(np.max(phi.values / (1.0 + grid.nodes))),
        "invariants_passed": report.passed,
    }
    _meta_path(out).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    for line in report.lines():
        print(line)
    return 0


def _cmd_gre(args) -> int:
    grid = make_grid(args.grid_length, args.grid_n)
    rate = harness.parse_rate_spec(args.bspec, grid)
    directions = entropy.random_bump_directions(grid, args.directions, args.seed)
    probes = [_parse_probe(p) for p in args.probe.split(",")]
    base = solve_pair(rate, tol=args.tol)
    lines = ["direction,probe,lhs,rhs,gap,scale"]
    worst = 0.0
    for i, d in enumerate(directions):
        scaled = GridFunction(grid, args.amplitude * d.values)
        pair = entropy.build_perturbation(rate, scaled, base, tol=args.tol)
        for probe in probes:
            lhs, rhs, scale = entropy.gre_terms(pair, probe)
            rel = abs(lhs - rhs) / max(scale, 1e-300)
            worst = max(worst, rel)
            lines.append(f"{i},{probe.kind},{lhs!r},{rhs!r},{abs(lhs - rhs)!r},{scale!r}")
    lines.append(f"summary,max_relative_gap,{worst!r},,,")
    Path(args.output).write_text("\n".join(lines) + "\n")
    print(f"max relative balance gap: {worst:.3e}")
    return 0


def _cmd_gap(args) -> int:
    grid = make_grid(args.grid_length, args.grid_n)
    rate = harness.parse_rate_spec(args.bspec, grid)
    directions = entropy.random_bump_directions(grid, args.directions, args.seed)
    report = entropy.gap_study(rate, directions, args.amplitude, tol=args.tol)
    lines = ["direction,delta,dn_norm,weighted_residual,ratio"]
    for i, s in enumerate(report.samples):
        lines.append(f"{i},{s.delta!r},{s.delta_n_norm!r},{s.weighted_residual_norm!r},{s.ratio!r}")
    moment = float(report.moment_check[2])
    lines.append(f"summary,nu_hat,{report.nu_hat!r},moment_constant,{moment!r}")
    Path(args.output).write_text("\n".join(lines) + "\n")
    print(f"m={report.m} nu_hat={report.nu_hat:.6g} moment constant={moment:.6g}")
    return 0


def _parse_probe(spec: str) -> entropy.ConvexProbe:
    if spec == "square":
        return entropy.ConvexProbe.square()
    if spec == "linear":
        return entropy.ConvexProbe.linear()
    if spec.startswith("pospart:"):
        return entropy.ConvexProbe.positive_part(float(spec.split(":", 1)[1]))
    raise SystemExit(f"unknown probe {spec!r} (square | linear | pospart:<xi>)")


def _cmd_toy(args) -> int:
    grid = make_grid(args.grid_length, args.grid_n)
    if args.v == "x2":
        data = GridFunction(grid, grid.nodes ** 2)
        u_true = GridFunction(grid, 2.0 * grid.nodes)
    elif args.v.startswith("table:"):
        data = read_csv(args.v.split(":", 1)[1])
        grid = data.grid
        u_true = None
    else:
        raise SystemExit(f"unknown data spec {args.v!r}")
    if args.weight.startswith("const:"):
        weight = GridFunction(grid, np.full(grid.intervals + 1, float(args.weight.split(":", 1)[1])))
    elif args.weight.startswith("table:"):
        weight = read_csv(args.weight.split(":", 1)[1])
    else:
        raise SystemExit(f"unknown weight spec {args.weight!r}")
    problem = toy.ToyProblem(weight, data, apriori=args.E, u_true=u_true)
    epsilons = [float(e) for e in args.epsilons.split(",")]
    report = toy.toy_study(problem, args.seeds, epsilons)
    lines = ["epsilon,seed,alpha,error,bound,pass"]
    for r in report.rows:
        lines.append(f"{r.epsilon!r},{r.seed},{r.alpha!r},{r.error!r},{r.bound!r},{int(r.passed)}")
    Path(args.output).write_text("\n".join(lines) + "\n")
    if report.slope is not None:
        print(f"slope={report.slope:.4f} +/- {report.slope_halfwidth:.4f}")
    return 0 if all(r.passed for r in report.rows) else 3


def _rate_table(nodes: np.ndarray, rate: np.ndarray, defined: np.ndarray) -> str:
    """``x,B_recovered,defined_flag`` rows; the rate is left blank where undefined."""
    rows = [
        f"{x!r},{b!r},1" if ok else f"{x!r},,0"
        for x, b, ok in zip(nodes.tolist(), rate.tolist(), defined.tolist())
    ]
    return "\n".join(["x,B_recovered,defined_flag", *rows, ""])


def _cmd_invert(args) -> int:
    data = read_csv(args.data)
    grid = data.grid
    if args.filter_upper == "auto":
        smooth = np.convolve(np.maximum(data.values, 0.0), np.ones(5) / 5.0, mode="same")
        upper_values = harness.FILTER_MULTIPLE * smooth
        upper_values[0] = 0.0
        upper = GridFunction(grid, upper_values)
    else:
        upper = read_csv(args.filter_upper)
    if args.filter_lower == "zero":
        lower = GridFunction(grid, np.zeros_like(data.values))
    else:
        lower = read_csv(args.filter_lower)
    lam = None if args.lambda0 == "auto" else float(args.lambda0)
    obs = inverse.clamp_observation(data, (lower, upper), lambda0=lam)
    solve = inverse.recover_rate(obs, args.alpha, _SCHEMES[args.scheme])
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(_rate_table(grid.nodes, solve.rate, solve.defined))
    rep = inverse.stability_report(solve, inverse.exact_product_source(solve.data, solve.lambda0))
    diag = {
        "alpha": solve.alpha,
        "scheme": solve.scheme,
        "lambda0": solve.lambda0,
        "sup_alpha_p_sq": rep.sup_alpha_p_sq,
        "int_p_sq": rep.int_p_sq,
        "int_f_sq": rep.int_f_sq,
        "alpha_sq_int_dp_sq": rep.alpha_sq_int_dp_sq,
        "int_dp_sq": rep.int_dp_sq,
        "int_df_sq": rep.int_df_sq,
        "const_combined": rep.const_combined,
        "const_gradient": rep.const_gradient,
    }
    out.with_suffix(".diag.json").write_text(json.dumps(diag, sort_keys=True, indent=2) + "\n")
    return 0


def _load_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for ln in Path(path).read_text().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise SystemExit(f"{path}: malformed line {ln!r} (expected key = value)")
        key, _, value = ln.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise SystemExit(f"{path}: unknown configuration key {key!r}")
        cfg[key] = value
    return cfg


def _cmd_sweep(args, overrides: dict[str, str]) -> int:
    cfg = _load_config(args.config) if args.config else {}
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    missing = [k for k in ("bspec", "epsilons") if k not in cfg]
    if missing:
        raise SystemExit(f"missing configuration keys: {missing}")
    out_dir = cfg.get("out.dir") or os.environ.get(OUT_DIR_ENV) or "."
    scheme = cfg.get("scheme", "dfree")
    config = harness.ExperimentConfig(
        bspec=cfg["bspec"],
        grid_length=float(cfg.get("grid.length", 12.0)),
        grid_n=int(cfg.get("grid.n", 4096)),
        epsilons=tuple(float(e) for e in cfg["epsilons"].split(",")),
        alpha_rule=cfg.get("alpha.rule", "sqrt"),
        alpha_c=float(cfg.get("alpha.c", 1.0)),
        seeds=int(cfg.get("seeds", 10)),
        scheme=_SCHEMES.get(scheme, scheme),
        out_dir=out_dir,
        formats=tuple(cfg.get("formats", "csv").split(",")),
        slope_min=float(cfg["slope.min"]) if "slope.min" in cfg else None,
        slope_max=float(cfg["slope.max"]) if "slope.max" in cfg else None,
    )
    report = harness.convergence_study(config)
    written = harness.emit_report(report, out_dir, config.formats)
    for kind, path in written.items():
        print(f"wrote {kind}: {path}")
    if report.slope is not None:
        print(f"slope={report.slope:.4f} +/- {report.slope_halfwidth:.4f}")
    if not report.invariants_passed:
        print("synthesis invariants failed", file=sys.stderr)
        return 2
    if config.slope_min is not None and (report.slope is None or report.slope < config.slope_min):
        print("slope below acceptance threshold", file=sys.stderr)
        return 2
    if config.slope_max is not None and (report.slope is None or report.slope > config.slope_max):
        print("slope above acceptance threshold", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="celldiv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for which in ("direct", "adjoint"):
        p = sub.add_parser(which, help=f"solve the {which} eigenproblem")
        _add_grid_flags(p)
        capped = "root-finder iterations" if which == "direct" else "adjoint sweeps (not the direct solve)"
        p.add_argument("--max-iters", type=int, default=200, help=f"cap on the {capped}")
        p.add_argument("--output", required=True)
        p.set_defaults(func=_cmd_direct, which=which)

    for which, fn in (("gre", _cmd_gre), ("gap", _cmd_gap)):
        p = sub.add_parser(which, help=f"{which} study over random bump perturbations")
        _add_grid_flags(p)
        if which == "gre":
            p.add_argument("--probe", default="square,linear,pospart:0.1")
        p.add_argument("--directions", type=int, default=10)
        p.add_argument("--amplitude", type=float, default=0.05)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", required=True)
        p.set_defaults(func=fn)

    p = sub.add_parser("toy", help="regularized differentiation noise sweep")
    p.add_argument("--v", default="x2", help="x2 | table:<file>")
    p.add_argument("--lambda", dest="weight", default="const:1.0", help="const:<v> | table:<file>")
    p.add_argument("--E", type=float, default=None)
    p.add_argument("--epsilons", default="1e-6,1e-5,1e-4,1e-3,1e-2")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--grid-length", type=float, default=1.0)
    p.add_argument("--grid-n", type=int, default=4096)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_toy)

    p = sub.add_parser("invert", help="recover the division rate from a distribution CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--lambda0", default="auto")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--scheme", choices=tuple(_SCHEMES), default="dfree")
    p.add_argument("--filter-upper", default="auto")
    p.add_argument("--filter-lower", default="zero")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("sweep", help="noise-level convergence study")
    p.add_argument("--config", default=None, help="flat key = value configuration file")
    for key in _CONFIG_KEYS:
        p.add_argument(f"--{key}", dest=f"cfg_{key.replace('.', '_')}", default=None)
    p.set_defaults(func=None)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.command == "sweep":
        overrides = {
            key: getattr(args, f"cfg_{key.replace('.', '_')}") for key in _CONFIG_KEYS
        }
        return _cmd_sweep(args, overrides)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
