import re

import numpy as np
import pytest

import celldiv.harness
from celldiv.direct import check_invariants, solve_direct, solve_pair
from celldiv.inverse import clamp_observation, rate_error_on_support, recover_rate, weighted_product_error
from celldiv.grid import Grid, GridFunction, make_grid, norm
from celldiv.harness import (
    CSV_SCHEMA,
    ExperimentConfig,
    add_noise,
    convergence_study,
    default_filters,
    emit_report,
    parse_rate_spec,
)
from celldiv.noise import perturbed, unit_noise
from celldiv.toy import ToyProblem, toy_study


@pytest.fixture(scope="module")
def small_cfg(tmp_path_factory):
    return ExperimentConfig(
        bspec="constant:1.0",
        grid_length=12.0,
        grid_n=1024,
        epsilons=(1e-2, 1e-3, 1e-4),
        seeds=3,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig("constant:1.0", 12.0, 1024, (-1e-3,))
    with pytest.raises(ValueError):
        ExperimentConfig("constant:1.0", 12.0, 1024, (1e-3,), seeds=0)
    with pytest.raises(ValueError):
        ExperimentConfig("constant:1.0", 12.0, 1024, (1e-3,), alpha_rule="cubic")
    with pytest.raises(ValueError):
        ExperimentConfig("constant:1.0", 12.0, 1024, (1e-3,), formats=("pdf",))
    cfg = ExperimentConfig("constant:1.0", 12.0, 1024, (1e-4, 1e-2, 1e-3))
    assert cfg.epsilons == (1e-2, 1e-3, 1e-4)  # sorted descending
    assert cfg.alpha_for(1e-4) == pytest.approx(1e-2)
    fixed = ExperimentConfig("constant:1.0", 12.0, 1024, (1e-3,), alpha_rule="fixed", alpha_c=0.05)
    assert fixed.alpha_for(1e-3) == 0.05


def test_config_rejects_unknown_scheme():
    # rejected with the other settings, before any eigen-solve
    with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
        ExperimentConfig("constant:1.0", 12.0, 1024, (1e-3,), scheme="bogus")


@pytest.mark.parametrize("line", ["3,2,5", "3", "3,abc"])
def test_parse_rate_spec_rejects_malformed_piecewise_line(tmp_path, line):
    pw = tmp_path / "steps.csv"
    pw.write_text(f"0.0,1.0\n{line}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(pw))}: malformed piecewise line {re.escape(repr(line))}$"):
        parse_rate_spec(f"piecewise:{pw}", make_grid(4.0, 64))


def test_parse_rate_spec(tmp_path):
    grid = make_grid(4.0, 64)
    rate = parse_rate_spec("constant:1.5", grid)
    assert rate.b_min == rate.b_max == 1.5
    pw = tmp_path / "steps.csv"
    pw.write_text("0.0,1.0\n2.0,2.0\n")
    rate = parse_rate_spec(f"piecewise:{pw}", grid)
    assert rate.b_min == 1.0 and rate.b_max == 2.0
    with pytest.raises(ValueError):
        parse_rate_spec("spline:1", grid)


def test_synthesize_step_invariants(tmp_path):
    pw = tmp_path / "steps.csv"
    pw.write_text("0.0,1.0\n2.0,2.0\n")
    grid = make_grid(16.0, 4096)  # jump at a node
    rate = parse_rate_spec(f"piecewise:{pw}", grid)
    pair = solve_pair(rate)
    report = check_invariants(pair, rate)
    assert report.passed, report.lines()


def test_synthesize_rejects_nonpositive_rate(tmp_path):
    pw = tmp_path / "bad.csv"
    pw.write_text("0.0,0.0\n2.0,1.0\n")
    grid = make_grid(12.0, 1024)
    with pytest.raises(ValueError):
        parse_rate_spec(f"piecewise:{pw}", grid)


def test_add_noise_identity_at_zero(grid12, unit_series):
    obs = add_noise(unit_series, 0.0, unit_noise(grid12, 0), default_filters(unit_series))
    np.testing.assert_allclose(obs.data.values[1:], unit_series.values[1:])


def test_add_noise_exact_preclamp_distance(grid12, unit_series):
    eps = 1e-3
    raw = perturbed(unit_series, eps, unit_noise(grid12, 3))
    achieved = norm(raw.values - unit_series.values, raw.grid)
    assert achieved == pytest.approx(eps, rel=1e-12)


@pytest.mark.parametrize("level", [-1e-3, np.nan, np.inf])
def test_perturbed_rejects_negative_or_nonfinite_level(grid12, unit_series, level):
    with pytest.raises(ValueError, match="noise level must be nonnegative and finite"):
        perturbed(unit_series, level, unit_noise(grid12, 0))


def test_add_noise_deterministic(grid12, unit_series):
    a = add_noise(unit_series, 1e-3, unit_noise(grid12, 9), default_filters(unit_series))
    b = add_noise(unit_series, 1e-3, unit_noise(grid12, 9), default_filters(unit_series))
    np.testing.assert_array_equal(a.data.values, b.data.values)
    assert a.epsilon == b.epsilon
    assert a.epsilon <= 1e-3 + 1e-15  # clamping can only bring the data closer


def test_convergence_study_rows_and_slope(small_cfg):
    report = convergence_study(small_cfg)
    assert report.invariants_passed
    # rows sorted by (epsilon desc, alpha, seed) within nominal groups
    nominals = [r.nominal_epsilon for r in report.rows]
    assert nominals == sorted(nominals, reverse=True)
    assert report.slope is not None
    assert 0.2 <= report.slope <= 0.8
    for row in report.rows:
        assert row.err_weighted >= 0.0
        assert row.h2_norm > 0.0


def test_convergence_study_fixed_alpha_plateau():
    cfg = ExperimentConfig(
        bspec="constant:1.0",
        grid_length=12.0,
        grid_n=1024,
        epsilons=(1e-5, 1e-6, 0.0),
        alpha_rule="fixed",
        alpha_c=0.03,
        seeds=3,
    )
    report = convergence_study(cfg)
    errs = {}
    for row in report.rows:
        errs.setdefault(row.nominal_epsilon, []).append(row.err_weighted)
    floor = errs[0.0][0]
    assert floor > 0.0
    assert np.mean(errs[1e-5]) <= 1.5 * floor + 1e-12
    assert np.mean(errs[1e-6]) <= 1.2 * floor + 1e-12


def test_convergence_study_noise_free_only():
    # one deterministic row: the noise-free recovery, whatever the seed count
    cfg = ExperimentConfig("constant:1.0", 12.0, 1024, (0.0,), seeds=3)
    report = convergence_study(cfg)
    assert [(r.epsilon, r.seed) for r in report.rows] == [(0.0, 0)]
    assert report.slope is None
    rate = parse_rate_spec(cfg.bspec, Grid(cfg.grid_length, cfg.grid_n))
    pair = solve_direct(rate)
    obs = clamp_observation(pair.N, default_filters(pair.N), truth=pair.N, lambda0=pair.lambda0)
    solve = recover_rate(obs, cfg.alpha_for(0.0), cfg.scheme)
    assert report.rows[0].err_weighted == weighted_product_error(solve, rate.rate)
    assert report.rows[0].err_plain == rate_error_on_support(solve, rate.rate)


def test_convergence_study_insufficient_rows_no_slope():
    cfg = ExperimentConfig(
        bspec="constant:1.0", grid_length=12.0, grid_n=1024, epsilons=(1e-3,), seeds=1
    )
    report = convergence_study(cfg)
    assert report.slope is None


def test_emit_report_schema_and_determinism(small_cfg, tmp_path):
    report = convergence_study(small_cfg)
    written = emit_report(report, tmp_path, formats=("csv", "svg"))
    csv_text = written["csv"].read_text()
    assert csv_text.splitlines()[0] == CSV_SCHEMA
    assert len(csv_text.splitlines()) == len(report.rows) + 1
    again = emit_report(report, tmp_path / "again", formats=("csv", "svg"))
    assert again["csv"].read_text() == csv_text
    svg = written["svg"].read_text()
    assert svg.startswith("<svg") and "slope=" in svg


def test_emit_report_rejects_empty(tmp_path):
    from celldiv.harness import StudyReport

    with pytest.raises(ValueError):
        emit_report(StudyReport([], None, None, True), tmp_path)


def test_partial_results_persisted_on_failure(tmp_path, monkeypatch):
    cfg = ExperimentConfig(
        bspec="constant:1.0",
        grid_length=12.0,
        grid_n=1024,
        epsilons=(1e-2, 1e-3),
        seeds=2,
        out_dir=str(tmp_path),
    )

    calls = []

    def explode_on_third(*args):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("simulated mid-sweep failure")
        return recover_rate(*args)

    monkeypatch.setattr(celldiv.harness, "recover_rate", explode_on_third)
    with pytest.raises(RuntimeError, match="mid-sweep"):
        convergence_study(cfg)
    partial = (tmp_path / "sweep.partial.csv").read_text().splitlines()
    assert partial[0] == CSV_SCHEMA
    assert len(partial) == 3  # header + the two completed rows


def test_pipeline_determinism(small_cfg):
    a = convergence_study(small_cfg)
    b = convergence_study(small_cfg)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.epsilon == rb.epsilon
        assert ra.alpha == rb.alpha
        assert ra.seed == rb.seed
        assert ra.err_weighted == rb.err_weighted
        assert ra.err_plain == rb.err_plain
    assert a.slope == b.slope


def test_repeated_studies_write_identical_tables(small_cfg, tmp_path):
    # the table holds no wall-clock column, so a rerun is byte-identical
    first = emit_report(convergence_study(small_cfg), tmp_path / "a")["csv"].read_bytes()
    second = emit_report(convergence_study(small_cfg), tmp_path / "b")["csv"].read_bytes()
    assert first == second
    assert first.splitlines()[0] == b"epsilon,alpha,seed,err_weighted,err_plain,h2_norm"


def test_error_decomposition_bound(small_cfg):
    # err <= C1 alpha h2 + C2 eps / alpha with stable constants
    report = convergence_study(small_cfg)
    cs = []
    for row in report.rows:
        denom = row.alpha * row.h2_norm + row.epsilon / row.alpha
        cs.append(row.err_weighted / denom)
    assert max(cs) <= 10.0
    assert max(cs) / max(min(cs), 1e-12) <= 50.0


def test_studies_draw_each_seed_once(monkeypatch):
    # 2 levels x 3 seeds: one draw per seed serves both levels
    drawn = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: drawn.append(seed) or default_rng(seed))
    report = convergence_study(ExperimentConfig("constant:1.0", 12.0, 256, (1e-2, 1e-3), seeds=3))
    assert len(report.rows) == 6
    assert drawn == [0, 1, 2]
    drawn.clear()
    grid = make_grid(1.0, 256)
    problem = ToyProblem(GridFunction(grid, np.ones(257)), GridFunction(grid, grid.nodes ** 2))
    assert len(toy_study(problem, 3, (1e-2, 1e-3)).rows) == 6
    assert drawn == [0, 1, 2]
