"""Self-test of the benchmark: checks catch bad outputs, spans add up.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import run  # pins the thread variables before numpy loads
import spans
from workloads import (
    Gap,
    Op,
    Sweep,
    WORKLOADS,
    check_gap,
    check_invert,
    check_meta,
    check_sweep,
    load_reference,
    unit_truth,
)

CLI = run.import_celldiv()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def failed_ratio(results) -> float:
    tally = run.Tally()
    tally.add(run.judge(results))
    return tally.failed / tally.attempted


def test_benchmark_json_names_what_the_run_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (f"{n}.{f}", u) for n, f, u in run.PER_LAYER
    ]


def _sweep_table(path: Path, rows: int) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    body = [f"1e-5,{1e-5 ** 0.5!r},{s},0.01,0.02,1.0,3" for s in range(rows)]
    path.write_text("\n".join(["epsilon,alpha,seed,err_weighted,err_plain,h2_norm,runtime_ms", *body]) + "\n")


def test_sweep_exit_code_2_raises_failed_ratio(tmp_path):
    csv = tmp_path / "sweep.csv"
    _sweep_table(csv, 40)
    op = Op("sweep", [], check_sweep(csv, 40, 1e-5 ** 0.5))
    assert failed_ratio([(op, 0, "", "")]) == 0.0
    assert failed_ratio([(op, 0, "", ""), (op, 2, "", "")]) == 0.5
    _sweep_table(csv, 39)
    assert failed_ratio([(op, 0, "", "")]) == 1.0


def _gap_outputs(path: Path, m: int, nu_hat: float, moment: float, rows: int) -> str:
    lines = ["direction,delta,dn_norm,weighted_residual,ratio"]
    lines += [f"{i},0.1,0.01,0.05,5.0" for i in range(rows)]
    lines.append(f"summary,nu_hat,{nu_hat!r},moment_constant,np.float64({moment!r})")
    path.write_text("\n".join(lines) + "\n")
    return f"m={m} nu_hat={nu_hat:.6g} moment constant={moment:.6g}\n"


def test_shifted_nu_hat_raises_failed_ratio(tmp_path):
    expected = load_reference()["gap"]["expected"]["0"]
    csv = tmp_path / "gap.csv"
    op = Op("gap", [], check_gap(csv, expected, 8))
    good = _gap_outputs(csv, expected["m"], expected["nu_hat"], expected["moment_constant"], 8)
    assert failed_ratio([(op, 0, good, "")]) == 0.0
    shifted = _gap_outputs(csv, expected["m"], expected["nu_hat"] * (1 + 1e-4), expected["moment_constant"], 8)
    assert failed_ratio([(op, 0, shifted, "")]) == 1.0
    moment = _gap_outputs(csv, expected["m"], expected["nu_hat"], 2 * expected["moment_constant"], 8)
    assert failed_ratio([(op, 0, moment, "")]) == 1.0
    negative = _gap_outputs(csv, expected["m"], -1.0, expected["moment_constant"], 8)
    assert failed_ratio([(op, 0, negative, "")]) == 1.0


def test_meta_and_invert_checks(tmp_path):
    meta = tmp_path / "N.meta.json"
    op = Op("direct", [], check_meta(meta))
    meta.write_text(json.dumps({"invariants_passed": True}))
    assert failed_ratio([(op, 0, "", "")]) == 0.0
    meta.write_text(json.dumps({"invariants_passed": False}))
    assert failed_ratio([(op, 0, "", "")]) == 1.0



def _invert_outputs(tmp_path: Path, rates, defined=None) -> tuple[Path, Path]:
    """An observation ``N = x (12 - x)`` on L = 12, n = 64 and a recovered-rate table."""
    x = np.linspace(0.0, 12.0, 65)
    data = tmp_path / "N.csv"
    data.write_text("x,value\n" + "".join(f"{float(a)!r},{float(a * (12.0 - a))!r}\n" for a in x))
    rates = np.broadcast_to(rates, x.shape)
    defined = np.broadcast_to(x > 0.0 if defined is None else defined, x.shape)
    rate = tmp_path / "B.csv"
    rows = [f"np.float64({float(a)!r}),{repr(float(b)) if ok else ''},{int(ok)}" for a, b, ok in zip(x, rates, defined)]
    rate.write_text("x,B_recovered,defined_flag\n" + "\n".join(rows) + "\n")
    return rate, data


def test_invert_check_is_two_sided_and_rejects_empty_rates(tmp_path):
    def ratio(rates, defined=None, limits=(0.005, 0.02)):
        rate, data = _invert_outputs(tmp_path, rates, defined)
        return failed_ratio([(Op("invert", [], check_invert(rate, data, unit_truth, list(limits))), 0, "", "")])

    assert ratio(1.01) == 0.0
    assert ratio(1.05) == 1.0  # too large an error
    assert ratio(1.001) == 1.0  # too small: not the output the limits were taken from
    assert ratio(0.0) == 1.0  # an all-zero rate scores 1
    assert ratio(1.01, defined=False) == 1.0  # nothing defined
    x = np.linspace(0.0, 12.0, 65)
    assert ratio(1.01, defined=(x > 0.0) & (np.abs(x - 6.0) > 0.1)) == 1.0  # a hole in the bulk
    # An observation whose node count differs from the output's is a failure, not a crash.
    rate, _ = _invert_outputs(tmp_path, 1.01)
    short = tmp_path / "short.csv"
    short.write_text("x,value\n0.0,0.0\n1.0,1.0\n")
    assert failed_ratio([(Op("invert", [], check_invert(rate, short, unit_truth, [0.0, 1.0])), 0, "", "")]) == 1.0


def test_outputs_of_an_earlier_pass_do_not_pass_a_silent_command(tmp_path):
    class SilentCli:
        @staticmethod
        def main(argv):
            return 0  # claims success, writes nothing

    meta = tmp_path / "N.meta.json"
    meta.write_text(json.dumps({"invariants_passed": True}))  # left from an earlier pass
    op = Op("direct", [], check_meta(meta), (meta,))
    _, results = run.run_ops([op], SilentCli)
    assert not meta.exists()
    assert failed_ratio(results) == 1.0


def test_failing_command_is_counted_not_raised(tmp_path):
    bad = Op("direct", ["direct", "--bspec", "nosuch:1", "--output", str(tmp_path / "N.csv")],
             check_meta(tmp_path / "N.meta.json"))
    _, results = run.run_ops([bad], CLI)
    assert results[0][3]  # the ValueError was recorded
    assert failed_ratio(results) == 1.0


@pytest.fixture()
def sweep(tmp_path):
    workload = Sweep(0, load_reference())
    workload.setup(tmp_path)
    return workload


def test_span_self_times_sum_to_pass_wall_time(sweep):
    untraced, _ = run.run_ops(sweep.ops(1), CLI)
    tracer = spans.Tracer()
    tracer.phase = "pass"
    tracer.install()
    try:
        wall, results = run.run_ops(sweep.ops(2), CLI)
    finally:
        tracer.uninstall()
    assert not any(r[3] for r in results)
    recorded = tracer.spans
    covered = sum(spans.self_times(recorded).values())
    overhead = max(wall - untraced, 0.0)
    # Spans cover the CLI calls; the pass wall adds only the loop around them.
    assert 0.0 <= wall - covered <= overhead + 0.01 * wall
    totals = spans.layer_totals(recorded)
    assert totals["cli.main"]["calls"] == 1
    assert totals["direct.solve_direct"]["calls"] == 1
    assert totals["inverse.recover_rate"]["calls"] == 40
    assert totals["inverse.error_metrics"]["calls"] == 80
    assert totals["toy.toy_solve"]["calls"] == 0
    assert tracer.absent == []


def test_tracer_wraps_every_lookup_and_reports_absent_names(monkeypatch):
    import celldiv.direct
    import celldiv.entropy
    import celldiv.harness
    import celldiv.toy

    original = celldiv.direct.solve_direct
    monkeypatch.delattr(celldiv.toy, "toy_study")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert celldiv.direct.solve_direct.__wrapped__ is original
        assert celldiv.entropy.solve_direct is celldiv.direct.solve_direct
        assert celldiv.harness.solve_pair is celldiv.cli.solve_pair is celldiv.direct.solve_pair
        assert celldiv.cli.solve_pair.__wrapped__ is not None
        assert tracer.absent == ["celldiv.toy.toy_study"]
    finally:
        tracer.uninstall()
    assert celldiv.direct.solve_direct is original
    assert celldiv.entropy.solve_direct is original
    assert spans.layer_totals(tracer.spans)["toy.toy_study"]["calls"] == 0


def test_gap_seed_order_follows_the_benchmark_seed(tmp_path):
    ref = load_reference()
    orders = []
    for seed in (7, 7, 8):
        gap = Gap(seed, ref)
        gap.setup(tmp_path / str(seed))
        argvs = [gap.ops(p)[0].argv for p in range(5)]
        orders.append([argv[argv.index("--seed") + 1] for argv in argvs])
    assert orders[0] == orders[1] != orders[2]
