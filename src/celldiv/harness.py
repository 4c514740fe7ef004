"""End-to-end experiment driver: synthesize, perturb, recover, tabulate.

A study synthesizes the stable distribution for a chosen rate, injects
calibrated noise at a ladder of levels, recovers the rate with the
balanced parameter rule alpha = c sqrt(epsilon), and fits the slope of
the log mean recovery error against the log noise level. The canonical
artifact is a CSV table with one row per (epsilon, alpha, seed) cell; an
optional SVG renders the log-log error curve with the fitted slope. All
outputs are pure functions of the configuration and seeds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .direct import RateBounds, check_invariants, piecewise_rate, solve_direct
from .direct import solve_pair  # noqa: F401 (perfbench test_tracer_wraps_every_lookup_and_reports_absent_names)
from .fitting import fit_loglog_slope
from .grid import Grid, GridFunction, make_grid, read_csv, sobolev_norm
from .inverse import (
    SCHEMES,
    NoisyObservation,
    clamp_observation,
    recover_rate,
    rate_error_on_support,
    weighted_product_error,
)
from .noise import perturbed

__all__ = [
    "ExperimentConfig",
    "StudyRow",
    "StudyReport",
    "CSV_SCHEMA",
    "parse_rate_spec",
    "default_domain_length",
    "default_filters",
    "add_noise",
    "convergence_study",
    "emit_report",
]

CSV_SCHEMA = "epsilon,alpha,seed,err_weighted,err_plain,h2_norm,runtime_ms"

# Upper envelope default: a multiple of the truth, which vanishes at both
# ends and caps unrealistic excursions without biasing the bulk.
FILTER_MULTIPLE = 3.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep configuration; epsilons sorted descending, seeds at least one."""

    bspec: str
    grid_length: float
    grid_n: int
    epsilons: tuple[float, ...]
    alpha_rule: str = "sqrt"  # "sqrt" (alpha = c sqrt(eps)) or "fixed" (alpha = c)
    alpha_c: float = 1.0
    seeds: int = 10
    scheme: str = "derivative-free"
    out_dir: str | None = None
    formats: tuple[str, ...] = ("csv",)
    slope_min: float | None = None
    slope_max: float | None = None

    def __post_init__(self) -> None:
        eps = tuple(float(e) for e in self.epsilons)
        if any(e < 0 for e in eps):
            raise ValueError("noise levels must be nonnegative")
        object.__setattr__(self, "epsilons", tuple(sorted(eps, reverse=True)))
        if self.seeds < 1:
            raise ValueError("need at least one seed")
        if self.alpha_rule not in ("sqrt", "fixed"):
            raise ValueError(f"unknown alpha rule {self.alpha_rule!r}")
        if self.alpha_c <= 0.0:
            raise ValueError("alpha constant must be positive")
        unknown = set(self.formats) - {"csv", "svg"}
        if unknown:
            raise ValueError(f"unknown output formats {sorted(unknown)}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")

    def alpha_for(self, epsilon: float) -> float:
        if self.alpha_rule == "fixed":
            return self.alpha_c
        if epsilon <= 0.0:
            return self.alpha_c * 1e-6  # noise-free: small but positive
        return self.alpha_c * float(np.sqrt(epsilon))

    def grid(self) -> Grid:
        return make_grid(self.grid_length, self.grid_n)


def default_domain_length(rate_scale: float) -> float:
    """Domain long enough that the profile tail is below 1e-12 of its peak."""
    return float(np.ceil(28.0 / rate_scale))


def parse_rate_spec(spec: str, grid: Grid) -> RateBounds:
    """Rate from a spec string: constant:<v>, piecewise:<file>, table:<file>.

    Piecewise files hold ``x,value`` breakpoint lines (no header), each
    value applying from its abscissa to the next; tables are grid-function
    CSVs that must match the target grid.
    """
    kind, _, arg = spec.partition(":")
    if kind == "constant":
        from .direct import constant_rate

        return constant_rate(grid, float(arg))
    if kind == "piecewise":
        rows = []
        for ln in Path(arg).read_text().splitlines():
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            try:
                xs, vs = ln.split(",")
                rows.append((float(xs), float(vs)))
            except ValueError:
                raise ValueError(f"{arg}: malformed piecewise line {ln!r}") from None
        if not rows:
            raise ValueError(f"{arg}: empty piecewise rate file")
        return piecewise_rate(grid, [r[0] for r in rows], [r[1] for r in rows])
    if kind == "table":
        f = read_csv(arg)
        if f.grid != grid:
            raise ValueError(f"{arg}: table grid does not match the target grid")
        return RateBounds.from_function(f)
    raise ValueError(f"unknown rate spec {spec!r}")


def default_filters(truth: GridFunction) -> tuple[GridFunction, GridFunction]:
    """Zero lower envelope and a scaled-truth upper envelope."""
    lower = truth.with_values(np.zeros_like(truth.values))
    upper_values = FILTER_MULTIPLE * np.maximum(truth.values, 0.0)
    upper_values[0] = 0.0
    return lower, truth.with_values(upper_values)


def add_noise(
    truth: GridFunction,
    epsilon: float,
    seed: int,
    lambda0: float | None = None,
) -> NoisyObservation:
    """Noisy observation of a known profile, clamped into its default envelopes.

    The raw perturbation sits at exact L2 distance epsilon from the
    truth; the recorded noise level is the post-clamp distance, which is
    what any error analysis downstream should use.
    """
    raw = perturbed(truth, epsilon, seed)
    return clamp_observation(raw, default_filters(truth), truth=truth, lambda0=lambda0)


@dataclass(frozen=True)
class StudyRow:
    epsilon: float  # achieved (post-clamp) noise level
    alpha: float
    seed: int
    err_weighted: float
    err_plain: float
    h2_norm: float
    runtime_ms: int
    nominal_epsilon: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class StudyReport:
    rows: list[StudyRow]
    slope: float | None
    slope_halfwidth: float | None
    invariants_passed: bool


def _level_means(rows: list[StudyRow]) -> list[tuple[float, float, int]]:
    """(mean achieved epsilon, mean weighted error, row count) per noisy level, noisiest first."""
    groups: dict[float, list[StudyRow]] = {}
    for r in rows:
        if r.nominal_epsilon > 0.0:
            groups.setdefault(r.nominal_epsilon, []).append(r)
    out = []
    for nominal in sorted(groups, reverse=True):
        level = groups[nominal]
        out.append(
            (
                float(np.mean([r.epsilon for r in level])),
                float(np.mean([r.err_weighted for r in level])),
                len(level),
            )
        )
    return out


def convergence_study(cfg: ExperimentConfig, progress=None) -> StudyReport:
    """Run the full sweep described by a configuration.

    Rows are ordered by (epsilon descending, alpha, seed). The slope is
    fitted on log mean weighted error against log mean achieved noise
    level, over noisy levels carrying at least three seeds. If a cell
    fails mid-sweep, the rows computed so far are persisted to the
    configured output directory before the error propagates.
    """
    rate = parse_rate_spec(cfg.bspec, cfg.grid())
    pair = solve_direct(rate)  # the sweep never reads the adjoint
    report = check_invariants(pair, rate)
    truth_rate = rate.rate
    h2 = sobolev_norm(pair.N)

    rows: list[StudyRow] = []
    try:
        for eps in cfg.epsilons:
            alpha = cfg.alpha_for(eps)
            for seed in range(cfg.seeds):
                t0 = time.perf_counter()
                obs = add_noise(pair.N, eps, seed, lambda0=pair.lambda0)
                solve = recover_rate(obs, alpha, cfg.scheme)
                err_w = weighted_product_error(solve, truth_rate)
                err_p = rate_error_on_support(solve, truth_rate)
                ms = int(round(1000.0 * (time.perf_counter() - t0)))
                achieved = obs.epsilon if obs.epsilon is not None else eps
                rows.append(
                    StudyRow(achieved, alpha, seed, err_w, err_p, h2, ms, nominal_epsilon=eps)
                )
                if progress is not None:
                    progress(rows[-1])
                if eps == 0.0:
                    break  # deterministic row, further seeds are identical
    except Exception:
        if rows and cfg.out_dir is not None:
            partial = StudyReport(rows, None, None, report.passed)
            emit_report(partial, cfg.out_dir, ("csv",), basename="sweep.partial")
        raise

    slope = halfwidth = None
    eligible = [(eps, err) for eps, err, count in _level_means(rows) if count >= 3]
    if len(eligible) >= 2:
        slope, halfwidth = fit_loglog_slope(*zip(*eligible))
    return StudyReport(rows, slope, halfwidth, report.passed)


def _csv_lines(report: StudyReport) -> list[str]:
    lines = [CSV_SCHEMA]
    for r in report.rows:
        lines.append(
            f"{r.epsilon!r},{r.alpha!r},{r.seed},{r.err_weighted!r},"
            f"{r.err_plain!r},{r.h2_norm!r},{r.runtime_ms}"
        )
    return lines


def _svg_plot(report: StudyReport) -> str:
    """Minimal hand-rolled log-log line plot of mean error against noise."""
    points = _level_means(report.rows)
    width, height, margin = 640, 480, 60
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
    ]
    if points:
        lx = np.log10([p[0] for p in points])
        ly = np.log10([max(p[1], 1e-300) for p in points])
        x0, x1 = float(lx.min()), float(lx.max())
        y0, y1 = float(ly.min()), float(ly.max())
        sx = (width - 2 * margin) / max(x1 - x0, 1e-12)
        sy = (height - 2 * margin) / max(y1 - y0, 1e-12)
        coords = [
            (margin + (px - x0) * sx, height - margin - (py - y0) * sy)
            for px, py in zip(lx, ly)
        ]
        path = " ".join(f"{cx:.2f},{cy:.2f}" for cx, cy in coords)
        body.append(f'<polyline points="{path}" fill="none" stroke="steelblue" stroke-width="2"/>')
        for cx, cy in coords:
            body.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="steelblue"/>')
        body.append(
            f'<text x="{margin}" y="{margin - 20}" font-family="monospace" font-size="14">'
            f"log10 mean recovery error vs log10 noise level</text>"
        )
    if report.slope is not None:
        body.append(
            f'<text x="{margin}" y="{margin}" font-family="monospace" font-size="14">'
            f"slope={report.slope:.4f} +/- {report.slope_halfwidth:.4f}</text>"
        )
    body.append("</svg>")
    return "\n".join(body) + "\n"


def emit_report(
    report: StudyReport,
    out_dir: str | Path,
    formats=("csv",),
    basename: str = "sweep",
) -> dict[str, Path]:
    """Write the study table (and optional plot); returns the written paths.

    The CSV column schema is fixed; emitting the same report twice yields
    byte-identical files.
    """
    if not report.rows:
        raise ValueError("refusing to emit an empty report")
    unknown = set(formats) - {"csv", "svg"}
    if unknown:
        raise ValueError(f"unknown output formats {sorted(unknown)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    if "csv" in formats:
        path = out / f"{basename}.csv"
        path.write_text("\n".join(_csv_lines(report)) + "\n")
        written["csv"] = path
    if "svg" in formats:
        path = out / f"{basename}.svg"
        path.write_text(_svg_plot(report))
        written["svg"] = path
    return written
