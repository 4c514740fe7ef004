"""Regenerate ``reference.json``: the expected outputs the benchmark checks.

Run from the repository root:

    python3 perfbench/make_reference.py

It runs the same commands as the workloads and records:

* ``gap``: ``m``, ``nu_hat`` and the moment constant for each ``--seed``
  of the pool the gap workload draws from;
* ``profiles``: the recovery error of the piecewise-rate pipeline and
  limits ``PROFILES_RTOL`` either side of it (the pipeline is
  deterministic);
* ``fine``: per noise level and scheme, the recovery errors over
  ``FINE_SEEDS`` benchmark seeds and limits ``FINE_MARGIN`` below their
  smallest and above their largest.

The values pin the behaviour of the commit that generated them. A change
that is meant to alter these outputs regenerates the file and says so.
"""

from __future__ import annotations

import json
import shutil
from collections import defaultdict
from pathlib import Path

import run  # pins the thread variables before numpy loads
from workloads import (
    GAP_AMPLITUDE,
    GAP_DIRECTIONS,
    REFERENCE,
    Fine,
    Gap,
    Profiles,
    parse_gap,
    piecewise_truth,
    recovery_error,
    unit_truth,
)

GAP_POOL = 5
FINE_SEEDS = 24
PROFILES_RTOL = 1e-3
FINE_MARGIN = 0.1


def _run(ops, cli) -> list[tuple[Path, str]]:
    """Run commands that must succeed; returns each one's output path and stdout."""
    done = []
    for op, rc, out, error in run.run_ops(ops, cli)[1]:
        if error or rc != 0:
            raise RuntimeError(f"{op.argv}: exit {rc} {error}")
        done.append((Path(op.argv[op.argv.index("--output") + 1]), out))
    return done


def main() -> None:
    cli = run.import_celldiv()
    work = run.WORK / "reference"
    stub = {
        "gap": {"expected": defaultdict(dict)},
        "profiles": {"recovery_err_limits": [0.0, float("inf")]},
        "fine": {"recovery_err_limits": defaultdict(lambda: [0.0, float("inf")])},
    }
    try:
        gap = Gap(0, stub)
        gap.setup(work / "gap")
        gap.order = [str(s) for s in range(GAP_POOL)]
        expected = {}
        for p in range(GAP_POOL):
            [(csv, out)] = _run(gap.ops(p), cli)
            m, nu_hat, moment, _ = parse_gap(csv, out)
            expected[str(p)] = {"m": m, "nu_hat": nu_hat, "moment_constant": moment}
            print(f"gap seed {p}: m={m} nu_hat={nu_hat!r} moment_constant={moment!r}", flush=True)

        prof = Profiles(0, stub)
        prof.setup(work / "profiles")
        _run(prof.ops(0), cli)
        prof_err, _ = recovery_error(prof.work / "B.csv", prof.work / "N.csv", piecewise_truth)
        print(f"profiles recovery_err={prof_err!r}", flush=True)

        fine_errs: dict[str, list[float]] = {}
        for seed in range(FINE_SEEDS):
            fine = Fine(seed, stub)
            fine.setup(work / f"fine{seed}")
            inverts = [op for op in fine.ops(0) if op.kind == "invert"]
            for op, (csv, _) in zip(inverts, _run(inverts, cli)):
                key = csv.stem.removeprefix("B-").replace("-", "/")
                data = Path(op.argv[op.argv.index("--data") + 1])
                fine_errs.setdefault(key, []).append(recovery_error(csv, data, unit_truth)[0])
            print(f"fine seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in fine_errs.items()), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = {
        "gap": {"directions": GAP_DIRECTIONS, "amplitude": GAP_AMPLITUDE, "expected": expected},
        "profiles": {
            "recovery_err": prof_err,
            "recovery_err_limits": [(1 - PROFILES_RTOL) * prof_err, (1 + PROFILES_RTOL) * prof_err],
        },
        "fine": {
            "seeds": FINE_SEEDS,
            "recovery_err_range": {k: [min(v), max(v)] for k, v in fine_errs.items()},
            "recovery_err_limits": {k: [(1 - FINE_MARGIN) * min(v), (1 + FINE_MARGIN) * max(v)]
                                    for k, v in fine_errs.items()},
        },
    }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
