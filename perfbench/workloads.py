"""The four benchmark workloads: inputs, operations and output checks.

Each workload builds its inputs from the benchmark seed in ``setup`` and
then hands out one pass at a time as a list of :class:`Op`, each a
``celldiv`` command line plus the check of its outputs. Checks read only
the files and text the command produced, so the program under test sees
nothing but generated inputs and arguments.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")

# The README sweep configuration, verbatim.
SWEEP_CFG = """bspec = constant:1.0
grid.length = 12.0
grid.n = 4096
epsilons = 1e-2,1e-3,1e-4,1e-5
alpha.rule = sqrt
alpha.c = 1.0
seeds = 10
scheme = dfree
formats = csv,svg
slope.min = 0.35
slope.max = 0.65
"""

GAP_DIRECTIONS = 8
GAP_AMPLITUDE = 0.05
# The gap outputs must equal those of the reference commit up to the
# convergence tolerance of the eigen-solves (1e-9), not bit for bit.
GAP_RTOL = 1e-6

PIECEWISE_RATE = "0,1\n3,2\n"
# Nodes where the observation is at least this share of its maximum must
# have a recovered rate.
BULK_FRACTION = 1e-3
PROFILE_ALPHA = 0.01

FINE_N = 65536
FINE_LEVELS = (1e-3, 1e-4)
FINE_ALPHA = 0.01
FINE_SCHEMES = ("fd", "dfree")
GRID_LENGTH = 12.0


@dataclass
class Outcome:
    ok: bool
    items: int = 0
    recovery_err: float | None = None
    note: str = ""


@dataclass
class Op:
    """One celldiv command line, the files it must write and the check of what it produced.

    ``outputs`` are removed before the command runs, so a command that
    writes nothing is not judged on an earlier pass's files.
    """

    kind: str
    argv: list[str]
    check: Callable[[int, str], Outcome]
    outputs: tuple[Path, ...] = ()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _number(field: str) -> float:
    """A float written either plainly or as numpy 2's ``np.float64(...)`` repr."""
    return float(field.removeprefix("np.float64(").removesuffix(")"))


def _rows(path: Path) -> list[list[str]]:
    return [ln.split(",") for ln in path.read_text().splitlines()[1:] if ln]


def recovery_error(rate_csv: Path, data_csv: Path, true_rate: Callable[[np.ndarray], np.ndarray]) -> tuple[float, int]:
    """Relative observation-weighted L2 error of ``B_recovered``, and the bulk nodes left undefined.

    The error is ``||N (B_recovered - B)|| / ||N B||`` with ``N`` the
    observation the command read, the weight of the product error the
    sweep reports. It is measured where the rate is determined: in the
    tail, where ``B = P / N`` divides by a tiny ``N``, noise and rounding
    dominate the plain error and the weight suppresses them. A node the
    command marks undefined counts as ``B_recovered = 0``, so an empty or
    all-zero output scores 1. The bulk is the nodes where ``N`` is at
    least ``BULK_FRACTION`` of its maximum; each of them must be defined.
    """
    rows = _rows(rate_csv)
    x = np.array([_number(r[0]) for r in rows])
    defined = np.array([r[2] == "1" for r in rows])
    b = np.array([_number(r[1]) if ok else 0.0 for r, ok in zip(rows, defined)])
    n = np.array([float(r[1]) for r in _rows(data_csv)])
    if n.size != x.size:
        raise ValueError(f"{rate_csv.name} has {x.size} nodes, the observation {n.size}")
    truth = true_rate(x)
    err = np.sqrt(np.trapezoid((n * (b - truth)) ** 2, x) / np.trapezoid((n * truth) ** 2, x))
    undefined_bulk = int(np.count_nonzero((n >= BULK_FRACTION * n.max()) & ~defined))
    return float(err), undefined_bulk


def check_invert(rate_csv: Path, data_csv: Path, true_rate, limits: list[float]) -> Callable[[int, str], Outcome]:
    """Exit code 0, every bulk node defined, and the recovery error within ``[low, high]``."""
    low, high = limits

    def check(rc: int, out: str) -> Outcome:
        if rc != 0:
            return Outcome(False, note=f"invert exit code {rc}")
        err, undefined = recovery_error(rate_csv, data_csv, true_rate)
        if undefined:
            return Outcome(False, 1, err, f"{undefined} bulk nodes undefined")
        if not low <= err <= high:
            return Outcome(False, 1, err, f"recovery error {err!r} outside [{low!r}, {high!r}]")
        return Outcome(True, 1, err)

    return check


def check_sweep(csv: Path, cells: int, last_alpha: float) -> Callable[[int, str], Outcome]:
    """Exit code 0 (slope band and invariants hold) and a full table.

    ``recovery_err`` is the mean ``err_weighted`` over the cells of the
    smallest noise level, identified by their alpha.
    """

    def check(rc: int, out: str) -> Outcome:
        if rc != 0:
            return Outcome(False, note=f"sweep exit code {rc}")
        rows = [ln.split(",") for ln in csv.read_text().splitlines()[1:] if ln]
        if len(rows) != cells:
            return Outcome(False, note=f"sweep wrote {len(rows)} rows, expected {cells}")
        last = [float(r[3]) for r in rows if abs(float(r[1]) - last_alpha) <= 1e-12 * last_alpha]
        return Outcome(True, len(rows), float(np.mean(last)) if last else None)

    return check


_FLOAT = r"[-+0-9.eEinfa]+"  # also matches inf and nan


def parse_gap(csv: Path, out: str) -> tuple[int, float, float, int]:
    """(m, nu_hat, moment constant, direction rows) from a gap run's outputs."""
    lines = csv.read_text().splitlines()
    summary = lines[-1]
    nu = re.search(r"^summary,nu_hat,(" + _FLOAT + r")", summary)
    moment = re.search(r"moment_constant,(?:np\.float64\()?(" + _FLOAT + r")", summary)
    m = re.search(r"m=(\d+) ", out)
    if not (nu and moment and m):
        raise ValueError(f"unparsable gap output: {summary!r} / {out!r}")
    return int(m.group(1)), float(nu.group(1)), float(moment.group(1)), len(lines) - 2


def check_gap(csv: Path, expected: dict, directions: int) -> Callable[[int, str], Outcome]:
    def check(rc: int, out: str) -> Outcome:
        if rc != 0:
            return Outcome(False, note=f"gap exit code {rc}")
        m, nu_hat, moment, rows = parse_gap(csv, out)
        if rows != directions:
            return Outcome(False, note=f"gap wrote {rows} directions, expected {directions}")
        if not nu_hat > 0.0:
            return Outcome(False, note=f"nu_hat {nu_hat!r} not positive")
        if m != expected["m"]:
            return Outcome(False, note=f"moment exponent {m} != {expected['m']}")
        for name, got in (("nu_hat", nu_hat), ("moment_constant", moment)):
            want = expected[name]
            if not abs(got - want) <= GAP_RTOL * abs(want):
                return Outcome(False, note=f"{name} {got!r} != reference {want!r}")
        return Outcome(True, directions)

    return check


def check_meta(meta: Path) -> Callable[[int, str], Outcome]:
    def check(rc: int, out: str) -> Outcome:
        if rc != 0:
            return Outcome(False, note=f"exit code {rc}")
        if json.loads(meta.read_text()).get("invariants_passed") is not True:
            return Outcome(False, note=f"{meta.name}: invariants_passed is not true")
        return Outcome(True, 1)

    return check


def check_toy(csv: Path) -> Callable[[int, str], Outcome]:
    def check(rc: int, out: str) -> Outcome:
        if rc != 0:
            return Outcome(False, note=f"toy exit code {rc}")
        return Outcome(True, len(csv.read_text().splitlines()) - 1)

    return check


def piecewise_truth(x: np.ndarray) -> np.ndarray:
    """The rate of ``PIECEWISE_RATE``: 1 below x = 3, 2 above, 1.5 at the jump."""
    return np.where(x < 3.0, 1.0, np.where(x > 3.0, 2.0, 1.5))


def unit_truth(x: np.ndarray) -> np.ndarray:
    return np.ones_like(x)


class Workload:
    """Base: ``setup`` writes inputs under ``work``; ``ops`` lists one pass."""

    name = ""
    item = ""

    def __init__(self, seed: int, reference: dict) -> None:
        self.seed = seed
        self.reference = reference
        self.work = Path()

    def setup(self, work: Path) -> None:
        self.work = work
        work.mkdir(parents=True, exist_ok=True)

    def ops(self, p: int) -> list[Op]:
        raise NotImplementedError


class Sweep(Workload):
    """README ``celldiv sweep``; noise comes from the program's own seeds 0..9."""

    name = "sweep"
    item = "recovery cell"

    def setup(self, work: Path) -> None:
        super().setup(work)
        (work / "sweep.cfg").write_text(SWEEP_CFG)

    def ops(self, p: int) -> list[Op]:
        out = self.work / "sweep"
        argv = ["sweep", "--config", str(self.work / "sweep.cfg"), "--out.dir", str(out)]
        csv = out / "sweep.csv"
        return [Op("sweep", argv, check_sweep(csv, 40, float(np.sqrt(1e-5))), (csv,))]


class Gap(Workload):
    """``celldiv gap`` on B = 1, one pass per ``--seed`` of the reference pool.

    The cost of a direction varies about twofold between directions, so
    every run cycles through the same small pool of gap seeds, whose calls
    cost about the same, and the benchmark seed only sets their order.
    """

    name = "gap"
    item = "perturbation direction"

    def setup(self, work: Path) -> None:
        super().setup(work)
        pool = sorted(self.reference["gap"]["expected"], key=int)
        self.order = [pool[i] for i in np.random.default_rng(self.seed).permutation(len(pool))]

    def ops(self, p: int) -> list[Op]:
        cli_seed = self.order[p % len(self.order)]
        csv = self.work / "gap.csv"
        argv = [
            "gap", "--bspec", "constant:1.0", "--grid-length", str(GRID_LENGTH), "--grid-n", "4096",
            "--directions", str(GAP_DIRECTIONS), "--amplitude", str(GAP_AMPLITUDE),
            "--seed", cli_seed, "--output", str(csv),
        ]
        expected = self.reference["gap"]["expected"][cli_seed]
        return [Op("gap", argv, check_gap(csv, expected, GAP_DIRECTIONS), (csv,))]


class Profiles(Workload):
    """README pipeline ``direct`` -> ``adjoint`` -> ``invert`` on a piecewise rate."""

    name = "profiles"
    item = "CLI call"

    def setup(self, work: Path) -> None:
        super().setup(work)
        (work / "rate.txt").write_text(PIECEWISE_RATE)

    def ops(self, p: int) -> list[Op]:
        w = self.work
        grid = ["--bspec", f"piecewise:{w / 'rate.txt'}", "--grid-length", str(GRID_LENGTH), "--grid-n", "4096"]
        limits = self.reference["profiles"]["recovery_err_limits"]
        n_csv, n_meta, phi_csv, phi_meta, b_csv = (
            w / "N.csv", w / "N.meta.json", w / "phi.csv", w / "phi.meta.json", w / "B.csv"
        )
        return [
            Op("direct", ["direct", *grid, "--output", str(n_csv)], check_meta(n_meta), (n_csv, n_meta)),
            Op("adjoint", ["adjoint", *grid, "--output", str(phi_csv)], check_meta(phi_meta), (phi_csv, phi_meta)),
            Op(
                "invert",
                ["invert", "--data", str(n_csv), "--alpha", str(PROFILE_ALPHA), "--output", str(b_csv)],
                check_invert(b_csv, n_csv, piecewise_truth, limits),
                (b_csv,),
            ),
        ]


def fine_observations(work: Path, seed: int) -> list[Path]:
    """Constant-rate truth at n = 65536 with seeded multiplicative noise, one CSV per level."""
    from celldiv import direct, grid

    g = grid.make_grid(GRID_LENGTH, FINE_N)
    truth = direct.constant_b_series(1.0, g).values
    rng = np.random.default_rng(seed)
    paths = []
    for level in FINE_LEVELS:
        obs = truth * (1.0 + level * rng.standard_normal(truth.size))
        paths.append(grid.write_csv(grid.GridFunction(g, obs), work / f"obs-{level:g}.csv"))
    return paths


class Fine(Workload):
    """Both marchers and the toy solver at n = 65536, no eigen-solve."""

    name = "fine"
    item = "65536-node marching solve"

    def setup(self, work: Path) -> None:
        super().setup(work)
        self.observations = fine_observations(work, self.seed)

    def ops(self, p: int) -> list[Op]:
        limits = self.reference["fine"]["recovery_err_limits"]
        ops = []
        for level, obs in zip(FINE_LEVELS, self.observations):
            for scheme in FINE_SCHEMES:
                out = self.work / f"B-{level:g}-{scheme}.csv"
                argv = ["invert", "--data", str(obs), "--alpha", str(FINE_ALPHA), "--scheme", scheme,
                        "--output", str(out)]
                check = check_invert(out, obs, unit_truth, limits[f"{level:g}/{scheme}"])
                ops.append(Op("invert", argv, check, (out,)))
        toy_csv = self.work / "toy.csv"
        ops.append(Op("toy", ["toy", "--grid-n", str(FINE_N), "--E", "2.0", "--output", str(toy_csv)],
                      check_toy(toy_csv), (toy_csv,)))
        return ops


WORKLOADS = {w.name: w for w in (Sweep, Gap, Profiles, Fine)}
