"""Acceptance suite: one test per criterion, each printing a pass line.

Expensive eigen-solves are shared through module fixtures; criteria with
runtime budgets time their own fresh work.
"""

import time

import numpy as np
import pytest

from celldiv.direct import (
    bump_rate,
    bump_values,
    check_invariants,
    constant_b_series,
    constant_rate,
    piecewise_rate,
    solve_direct,
    solve_pair,
)
from celldiv.entropy import ConvexProbe, build_perturbation, gap_study, gre_terms, random_bump_directions
from celldiv.fitting import fit_loglog_slope
from celldiv.grid import GridFunction, make_grid, norm, seminorm
from celldiv.harness import ExperimentConfig, add_noise, convergence_study, default_filters
from celldiv.inverse import (
    clamp_observation,
    rate_error_on_support,
    recover_rate,
    solve_regularized_general,
    stability_report,
    weak_stability_check,
)
from celldiv.toy import ToyProblem, toy_solve, toy_study

# Relative balance gaps below this level sit at the discrete solvability
# residual int phi dR of the separately discretized adjoint (about 1.5e-10
# for the linear probe, the same at n=4096 and n=8192) and cannot improve
# under grid refinement.
GRE_FLOOR = 1e-8


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


@pytest.fixture(scope="module")
def fine_pair():
    """Unit-rate eigen-elements with adjoint on the doubled grid."""
    grid = make_grid(12.0, 8192)
    return grid, solve_pair(constant_rate(grid, 1.0), tol=1e-11)


def test_criterion_1_constant_rate_oracle(grid12, unit_series):
    t0 = time.perf_counter()
    pair = solve_direct(constant_rate(grid12, 1.0), tol=1e-9)
    elapsed = time.perf_counter() - t0
    lam_err = abs(pair.lambda0 - 1.0)
    dist = norm(GridFunction(grid12, pair.N.values - unit_series.values))
    assert lam_err <= 1e-3
    assert dist <= 1e-3
    assert elapsed <= 30.0
    _report(1, f"lambda error {lam_err:.2e}, oracle distance {dist:.2e}, {elapsed:.1f} s")


def test_criterion_2_eigen_invariant_suite(grid12):
    t0 = time.perf_counter()
    rates = [
        constant_rate(grid12, 1.0),
        constant_rate(grid12, 2.0),
        piecewise_rate(grid12, [0.0, 3.0], [1.0, 2.0]),
        piecewise_rate(grid12, [0.0, 4.5], [2.0, 1.0]),
        bump_rate(grid12, 1.0, 0.4, 2.0, 1.5),
    ]
    worst_eq = 0.0
    min_slack = np.inf
    for rate in rates:
        pair = solve_pair(rate, tol=1e-10)
        assert pair.iterations <= 64  # root iterations; unit-CFL stepping needs thousands
        report = check_invariants(pair, rate)
        assert report.passed, report.lines()
        for name in ("f1", "f2"):
            worst_eq = max(worst_eq, abs(report.checks[name].lhs - report.checks[name].rhs))
        for name in ("f3", "f5"):
            slack = report.checks[name].slack
            assert slack > 0.0, (name, slack)
            min_slack = min(min_slack, slack)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 180.0
    _report(2, f"5 rates, worst f1/f2 gap {worst_eq:.2e}, min f3/f5 slack {min_slack:.3f}, {elapsed:.1f} s")


def test_criterion_3_entropy_balance(grid12, unit_pair, unit_rate, fine_pair):
    bumps = [(1.5, 2.0, 0.10), (1.0, 1.5, 0.10), (2.0, 2.0, 0.15)]
    probes = [ConvexProbe.square(), ConvexProbe.linear(), ConvexProbe.positive_part(0.1)]
    fine_grid, fine_base = fine_pair
    fine_rate = constant_rate(fine_grid, 1.0)

    gaps = {}
    for tag, grid, rate, base in (
        ("coarse", grid12, unit_rate, unit_pair),
        ("fine", fine_grid, fine_rate, fine_base),
    ):
        for i, (center, width, amp) in enumerate(bumps):
            d = GridFunction(grid, amp * bump_values(grid.nodes, center, width))
            pair = build_perturbation(rate, d, tol=1e-11, base=base)
            for probe in probes:
                lhs, rhs, scale = gre_terms(pair, probe)
                gaps[(tag, i, probe.kind)] = abs(lhs - rhs) / max(scale, 1e-300)

    worst_ratio = np.inf
    for i in range(len(bumps)):
        for probe in probes:
            coarse = gaps[("coarse", i, probe.kind)]
            fine = gaps[("fine", i, probe.kind)]
            assert coarse <= 1e-3, (i, probe.kind, coarse)
            assert fine <= 1e-3, (i, probe.kind, fine)
            if coarse > GRE_FLOOR:  # below the floor there is nothing left to improve
                ratio = coarse / max(fine, 1e-300)
                worst_ratio = min(worst_ratio, ratio)
                assert ratio >= 3.0, (i, probe.kind, coarse, fine)
    worst = max(v for (tag, _, _), v in gaps.items() if tag == "coarse")
    _report(3, f"max relative gap {worst:.2e} at n=4096, worst refinement ratio {worst_ratio:.2f}")


def test_criterion_4_spectral_gap(grid12, unit_rate):
    t0 = time.perf_counter()
    directions = random_bump_directions(grid12, 100, seed=42)
    report = gap_study(unit_rate, directions, 0.05, tol=1e-9)
    elapsed = time.perf_counter() - t0
    assert len(report.samples) == 100
    assert report.nu_hat > 0.0
    lhs, rhs, constant = report.moment_check
    assert np.isfinite(constant) and constant >= 0.0
    assert lhs <= constant * rhs + 1e-12
    assert elapsed <= 300.0
    _report(4, f"nu_hat {report.nu_hat:.4f} (m={report.m}), moment constant {constant:.3e}, {elapsed:.0f} s")


def test_criterion_5_toy_module():
    grid = make_grid(1.0, 8192)
    x = grid.nodes
    ones = GridFunction(grid, np.ones_like(x))
    weight = ones.values ** 2

    # closed form at alpha = 0.1
    problem = ToyProblem(ones, GridFunction(grid, x ** 2), apriori=2.0,
                         u_true=GridFunction(grid, 2.0 * x))
    alpha = 0.1
    u = toy_solve(problem, alpha)
    closed = 2.0 * x - 2.0 * alpha * (1.0 - np.exp(-x / alpha))
    closed_err = norm(GridFunction(grid, u.values - closed))
    assert closed_err <= 1e-3

    # stability: alpha ||u_alpha|| <= ||v|| over the data family
    for values in (x ** 2, np.sin(40.0 * x), x ** 2 + x ** 3):
        data = GridFunction(grid, values - values[0])
        p = ToyProblem(ones, data)
        for a in (1e-3, 1e-2, 1e-1):
            assert a * norm(toy_solve(p, a), weight) <= norm(data) * (1.0 + 1e-9)

    # consistency on compatible data
    suite = [
        (x ** 2, 2.0 * x),
        (x ** 2 + x ** 3, 2.0 * x + 3.0 * x ** 2),
        (1.0 - np.cos(np.pi * x), np.pi * np.sin(np.pi * x)),
    ]
    for values, exact in suite:
        p = ToyProblem(ones, GridFunction(grid, values), u_true=GridFunction(grid, exact))
        assert p.compatible
        curvature = seminorm(p.data, "H2")
        for a in (1e-2, 1e-1):
            err = norm(GridFunction(grid, toy_solve(p, a).values - exact), weight)
            assert err <= 1.02 * a * curvature + 5.0 * grid.spacing

    # balanced-rule slope and total error bound
    study = toy_study(problem, seeds=6, epsilons=[1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
    assert study.slope == pytest.approx(0.5, abs=0.15)
    noisy = [r for r in study.rows if r.epsilon > 0]
    assert all(r.error <= 1.1 * r.bound for r in noisy)
    _report(5, f"closed-form gap {closed_err:.2e}, slope {study.slope:.3f} "
               f"+/- {study.slope_halfwidth:.3f}, all bounds met")


def test_criterion_6_energy_estimates(grid12, unit_series):
    x = grid12.nodes
    sources = {
        "poly-decay": x ** 2 * np.exp(-x),
        "gauss": np.exp(-((x - 3.0) ** 2)),
        "wave-packet": x * np.sin(2.0 * x) * np.exp(-0.5 * x),
    }
    worst = {"combined": 0.0, "sup": 0.0, "mass": 0.0, "gradient": 0.0, "origin": 0.0}
    for values in sources.values():
        F = GridFunction(grid12, values)
        for alpha in (1e-3, 1e-2, 1e-1):
            rep = stability_report(solve_regularized_general(unit_series, F, alpha), F.values)
            worst["sup"] = max(worst["sup"], rep.const_sup)
            worst["mass"] = max(worst["mass"], rep.const_mass)
            worst["combined"] = max(worst["combined"], rep.const_combined)
            worst["gradient"] = max(worst["gradient"], rep.const_gradient / 16.5)
            if rep.source_vanishes_at_origin:
                worst["origin"] = max(worst["origin"], rep.const_gradient_vs_source)
    assert worst["sup"] <= 1.1
    assert worst["mass"] <= 1.1
    assert worst["combined"] <= 1.1
    assert worst["gradient"] <= 1.1
    assert worst["origin"] > 0.0  # at least one source exercised the origin estimate
    assert worst["origin"] <= 4.0 / 11.0 + 0.05
    _report(6, "worst constants: combined {combined:.3f}, sup {sup:.3f}, mass {mass:.3f}, "
               "gradient {gradient:.4f} (of 16.5), origin {origin:.4f} (of 4/11+0.05)".format(**worst))


def test_criterion_7_consistency_slope():
    alphas = [1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1]
    slopes = {}
    for scheme, n in (("direct-fd", 4096), ("derivative-free", 8192)):
        grid = make_grid(12.0, n)
        series = constant_b_series(1.0, grid)
        obs = clamp_observation(series, default_filters(series), truth=series, lambda0=1.0)
        truth = GridFunction(grid, np.ones(grid.intervals + 1))
        errs = [
            rate_error_on_support(recover_rate(obs, a, scheme), truth, weight_values=series.values)
            for a in alphas
        ]
        slope, _ = fit_loglog_slope(alphas, errs)
        slopes[scheme] = slope
        assert slope == pytest.approx(1.0, abs=0.3), (scheme, slope)
    _report(7, f"noise-free slopes: direct-fd {slopes['direct-fd']:.3f}, "
               f"derivative-free {slopes['derivative-free']:.3f}")


def test_criterion_8_weak_stability_ensemble():
    eps = 1e-3
    alpha = float(np.sqrt(eps))
    maxima = {}
    for n in (2048, 4096):
        grid = make_grid(12.0, n)
        series = constant_b_series(1.0, grid)
        exact_obs = clamp_observation(series, default_filters(series), truth=series, lambda0=1.0)
        exact = recover_rate(exact_obs, alpha)
        ratios = []
        for seed in range(20):
            obs = add_noise(series, eps, seed, lambda0=1.0)
            lhs, bound = weak_stability_check(exact, recover_rate(obs, alpha), alpha)
            ratios.append(lhs / bound)
        maxima[n] = max(ratios)
        assert np.isfinite(maxima[n])
    drift = maxima[4096] / maxima[2048]
    assert 0.5 <= drift <= 2.0  # stable within 2x under grid doubling
    _report(8, f"max ensemble constant {maxima[2048]:.3f} (n=2048) -> {maxima[4096]:.3f} "
               f"(n=4096), drift {drift:.2f}x")


def test_criterion_9_convergence_rate(tmp_path):
    t0 = time.perf_counter()
    step_file = tmp_path / "step.csv"
    step_file.write_text("0.0,1.0\n3.0,2.0\n")
    slopes = {}
    for label, bspec in (("constant", "constant:1.0"), ("step", f"piecewise:{step_file}")):
        cfg = ExperimentConfig(
            bspec=bspec,
            grid_length=12.0,
            grid_n=4096,
            epsilons=(1e-2, 1e-3, 1e-4, 1e-5),
            alpha_rule="sqrt",
            alpha_c=1.0,
            seeds=10,
        )
        report = convergence_study(cfg)
        assert report.invariants_passed
        assert report.slope is not None
        slopes[label] = report.slope
        assert report.slope == pytest.approx(0.5, abs=0.15), (label, report.slope)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0
    _report(9, f"slopes: constant {slopes['constant']:.3f}, step {slopes['step']:.3f}, {elapsed:.0f} s")


def test_criterion_10_scheme_equivalence():
    alpha = 1e-2
    scaled = {}
    for n in (2048, 4096, 8192):
        grid = make_grid(12.0, n)
        series = constant_b_series(1.0, grid)
        obs = clamp_observation(series, default_filters(series), truth=series, lambda0=1.0)
        fd = recover_rate(obs, alpha, "direct-fd")
        dfree = recover_rate(obs, alpha, "derivative-free")
        gap = norm(GridFunction(grid, fd.P.values - dfree.P.values))
        scaled[n] = gap / grid.spacing
    values = list(scaled.values())
    assert max(values) / min(values) <= 1.5  # gap scales like the mesh width
    _report(10, "scheme gap over h: " + ", ".join(f"n={n}: {v:.3f}" for n, v in scaled.items()))
