"""celldiv benchmark: one workload per run, end-to-end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads (see README.md in this directory): ``sweep``, ``gap``,
``profiles`` and ``fine``. Every workload runs in this one process
through ``celldiv.cli.main`` with BLAS/OpenMP threads pinned to 1. The
run sets up, makes one untimed warm-up pass and then times passes for
``--seconds``, setting up ``SETUP_REPS - 1`` more times spread over that
stretch. Every command's outputs are checked; a command that raises or
fails its check counts as failed and the run goes on. With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` each pass runs untraced and then traced on the same inputs,
the per-layer metrics come from the traced runs and the spans are written to
``.perfbench_work/traces/``. The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Outcome, load_reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 5

# (layer span, field, unit) of every per-layer metric, named "<span>.<field>".
PER_LAYER = (
    ("direct.solve_direct", "calls", "count"),
    ("direct.solve_direct", "self_s", "s"),
    ("direct.solve_direct", "iters", "count"),
    ("direct.solve_direct", "ns_per_node_iter", "ns"),
    ("direct.solve_adjoint", "calls", "count"),
    ("direct.solve_adjoint", "self_s", "s"),
    ("direct.check_invariants", "self_s", "s"),
    ("direct.constant_b_series", "self_s", "s"),
    ("entropy.build_perturbation", "calls", "count"),
    ("entropy.build_perturbation", "self_s", "s"),
    ("entropy.gap_study", "self_s", "s"),
    ("inverse.recover_rate", "calls", "count"),
    ("inverse.recover_rate", "self_s", "s"),
    ("inverse.clamp_observation", "self_s", "s"),
    ("inverse.error_metrics", "self_s", "s"),
    ("harness.add_noise", "self_s", "s"),
    ("harness.convergence_study", "self_s", "s"),
    ("harness.emit_report", "self_s", "s"),
    ("toy.toy_solve", "calls", "count"),
    ("toy.toy_solve", "self_s", "s"),
    ("toy.toy_study", "self_s", "s"),
    ("grid.write_csv", "calls", "count"),
    ("grid.write_csv", "self_s", "s"),
    ("grid.write_csv", "bytes", "B"),
    ("grid.read_csv", "calls", "count"),
    ("grid.read_csv", "self_s", "s"),
    ("grid.read_csv", "bytes", "B"),
    ("cli.main", "self_s", "s"),
    ("trace", "overhead_s", "s"),
)

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def import_celldiv():
    """Import celldiv from this checkout's ``src``, never from elsewhere."""
    init = SRC / "celldiv" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: celldiv sources not found at {init}")
    sys.path.insert(0, str(SRC))
    import celldiv.cli

    if Path(celldiv.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported celldiv from {celldiv.__file__}, not {init}")
    return celldiv.cli


def import_fresh() -> None:
    """Start a fresh interpreter that imports the celldiv CLI, and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # No timeout: with one, the wait polls in steps of up to 50 ms, which
    # would quantize the set-up time.
    subprocess.run([sys.executable, "-c", "import celldiv.cli"], env=env, cwd=ROOT, check=True)


def run_ops(ops, cli):
    """Run one pass; returns its seconds and ``(op, rc, stdout, error)`` per command.

    Only the commands are timed; each command's outputs are removed before
    it runs and checked afterwards by :func:`judge`. The CLI is looked up on the module at each call so a
    traced pass goes through the wrapper.
    """
    results = []
    seconds = 0.0
    for op in ops:
        out = io.StringIO()
        rc, error = None, ""
        for path in op.outputs:
            path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(op.argv)
        except (Exception, SystemExit) as exc:  # a failing command is a result, not a crash
            error = f"{op.kind}: {type(exc).__name__}: {exc}"
        seconds += time.perf_counter() - t0
        results.append((op, rc, out.getvalue(), error))
    return seconds, results


def judge(results) -> list[Outcome]:
    outcomes = []
    for op, rc, out, error in results:
        if error:
            outcomes.append(Outcome(False, note=error))
            continue
        try:
            outcomes.append(op.check(rc, out))
        except Exception as exc:  # unreadable output fails the command
            outcomes.append(Outcome(False, note=f"{op.kind}: check raised {type(exc).__name__}: {exc}"))
    return outcomes


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.errors: list[float] = []

    def add(self, outcomes: list[Outcome]) -> int:
        """Count the outcomes; returns the items completed."""
        items = 0
        for o in outcomes:
            self.attempted += 1
            if o.ok:
                items += o.items
            else:
                self.failed += 1
                self.notes.append(o.note)
            if o.recovery_err is not None:
                self.errors.append(o.recovery_err)
        return items


def provenance(args) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "celldiv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def layer_metrics(tracer: spans.Tracer, traced: list[float], untraced: list[float]) -> dict[str, float]:
    """Per-layer values for one set-up plus one pass.

    Set-up spans are averaged over the set-up repetitions and pass spans
    over the traced passes; the two are added.
    """
    per_setup = spans.layer_totals([s for s in tracer.spans if s[6].startswith("setup")])
    per_pass = spans.layer_totals([s for s in tracer.spans if s[6].startswith("pass")])
    totals = {}
    for name in spans.SPAN_NAMES:
        keys = set(per_setup[name]) | set(per_pass[name])
        totals[name] = {
            k: per_setup[name].get(k, 0) / SETUP_REPS + per_pass[name].get(k, 0) / len(traced) for k in keys
        }
    solve = totals["direct.solve_direct"]
    node_iters = solve.get("node_iters", 0)
    solve["ns_per_node_iter"] = 1e9 * solve["self_s"] / node_iters if node_iters else 0.0
    totals["trace"] = {"overhead_s": statistics.median(t - u for t, u in zip(traced, untraced))}
    return {f"{name}.{field}": float(totals[name].get(field, 0)) for name, field, _ in PER_LAYER}


def measure(args, cli, run_dir: Path) -> dict:
    reference = load_reference()
    workload = WORKLOADS[args.workload](args.seed, reference)
    tracer = spans.Tracer() if args.trace else None
    setup_times: list[float] = []

    def set_up(target) -> None:
        r = len(setup_times)
        t0 = time.perf_counter()
        import_fresh()
        if tracer:
            tracer.phase = f"setup{r}"
            tracer.install()
        try:
            target.setup(run_dir / f"setup{r}")
        finally:
            if tracer:
                tracer.uninstall()
        setup_times.append(time.perf_counter() - t0)

    set_up(workload)
    tally = Tally()
    tally.add(judge(run_ops(workload.ops(0), cli)[1]))  # warm-up, checked but not timed

    # The remaining set-ups are spread over the timed run, on fresh
    # instances, so that setup_s samples the same stretch of machine time
    # as the passes. A traced run repeats each pass's inputs, untraced then
    # traced, so the tracing overhead is a paired difference.
    times, traced, untraced = [], [], []
    items = 0
    start = time.perf_counter()
    p = 1
    while True:
        for is_traced in (False, True) if tracer else (False,):
            if is_traced:
                tracer.phase = f"pass{p}"
                tracer.install()
            try:
                seconds, results = run_ops(workload.ops(p), cli)
            finally:
                if is_traced:
                    tracer.uninstall()
            items += tally.add(judge(results))
            times.append(seconds)
            (traced if is_traced else untraced).append(seconds)
        elapsed = time.perf_counter() - start
        if len(setup_times) < SETUP_REPS and elapsed >= len(setup_times) * args.seconds / SETUP_REPS:
            set_up(WORKLOADS[args.workload](args.seed, reference))
        if elapsed >= args.seconds:
            break
        p += 1
    while len(setup_times) < SETUP_REPS:
        set_up(WORKLOADS[args.workload](args.seed, reference))

    lines = [f"provenance {json.dumps(provenance(args), sort_keys=True)}"]
    if tracer:
        metrics = layer_metrics(tracer, traced, untraced)
        units = {f"{n}.{f}": u for n, f, u in PER_LAYER}
        samples = {}
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {"provenance": provenance(args), "traced_pass_s": traced, "untraced_pass_s": untraced})
        lines.append(f"spans written to {trace_path.relative_to(ROOT)} ({len(traced)} traced passes)")
        lines.append(f"traced pass_s = {statistics.median(traced)!r} s (median, the base for shares)")
        if tracer.absent:
            lines.append(f"absent (0 calls): {', '.join(tracer.absent)}")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(times),
            "items_per_s": items / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        samples = {
            "setup_s": f"median of {len(setup_times)} set-ups",
            "pass_s": f"median of {len(times)} passes",
            "items_per_s": f"{items} {workload.item}s in {sum(times):.3f} s",
            "peak_rss_mb": "max RSS of this process",
        }
    for name, value in metrics.items():
        lines.append(f"{name} = {value!r} {units[name]}" + (f" ({samples[name]})" if name in samples else ""))
    lines.append(f"failed_ratio = {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted!r}")
    if tally.errors:
        lines.append(f"recovery_err = {statistics.mean(tally.errors)!r} (mean of {len(tally.errors)} checks)")
    lines += [f"failed: {note}" for note in tally.notes[:5]]
    print("\n".join(lines))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_celldiv()
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(args, cli, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
