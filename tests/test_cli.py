import json

import numpy as np
import pytest

from celldiv.cli import main
from celldiv.grid import read_csv


def test_direct_subcommand(tmp_path):
    out = tmp_path / "profile.csv"
    code = main(
        [
            "direct",
            "--bspec", "constant:1.0",
            "--grid-length", "12.0",
            "--grid-n", "512",
            "--tol", "1e-9",
            "--output", str(out),
        ]
    )
    assert code == 0
    profile = read_csv(out)
    assert profile.values[0] == 0.0
    meta = json.loads(out.with_suffix(".meta.json").read_text())
    assert abs(meta["lambda0"] - 1.0) <= 5e-3
    assert meta["invariants_passed"]
    # only the adjoint subcommand solves for phi
    assert meta["residual_phi"] is None
    assert meta["phi_growth"] is None


def test_adjoint_subcommand(tmp_path):
    out = tmp_path / "adjoint.csv"
    code = main(
        [
            "adjoint",
            "--bspec", "constant:2.0",
            "--grid-length", "6.0",
            "--grid-n", "512",
            "--output", str(out),
        ]
    )
    assert code == 0
    phi = read_csv(out)
    np.testing.assert_allclose(phi.values, 1.0, atol=1e-6)


def test_toy_subcommand(tmp_path):
    out = tmp_path / "toy.csv"
    code = main(
        [
            "toy",
            "--v", "x2",
            "--lambda", "const:1.0",
            "--E", "2.0",
            "--epsilons", "1e-4,1e-3",
            "--seeds", "2",
            "--grid-n", "1024",
            "--output", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "epsilon,seed,alpha,error,bound,pass"
    assert len(lines) == 5  # two levels, two seeds


def test_invert_subcommand(tmp_path):
    profile = tmp_path / "N.csv"
    main(
        [
            "direct",
            "--bspec", "constant:1.0",
            "--grid-length", "12.0",
            "--grid-n", "1024",
            "--output", str(profile),
        ]
    )
    out = tmp_path / "rate.csv"
    code = main(
        [
            "invert",
            "--data", str(profile),
            "--lambda0", "auto",
            "--alpha", "0.01",
            "--scheme", "dfree",
            "--output", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,B_recovered,defined_flag"
    defined = [ln for ln in lines[1:] if ln.endswith(",1")]
    values = [float(ln.split(",")[1]) for ln in defined]
    assert np.median(values) == pytest.approx(1.0, abs=0.1)
    diag = json.loads(out.with_suffix(".diag.json").read_text())
    assert diag["alpha"] == 0.01
    assert diag["scheme"] == "derivative-free"


def test_sweep_subcommand_with_config(tmp_path, monkeypatch):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "\n".join(
            [
                "# demo sweep",
                "bspec = constant:1.0",
                "grid.length = 12.0",
                "grid.n = 1024",
                "epsilons = 1e-2,1e-3,1e-4",
                "alpha.rule = sqrt",
                "alpha.c = 1.0",
                "seeds = 3",
                "scheme = dfree",
                "formats = csv,svg",
                "slope.min = 0.2",
                "slope.max = 0.8",
            ]
        )
        + "\n"
    )
    monkeypatch.setenv("CELLDIV_OUT_DIR", str(tmp_path / "out"))
    code = main(["sweep", "--config", str(cfg)])
    assert code == 0
    assert (tmp_path / "out" / "sweep.csv").exists()
    assert (tmp_path / "out" / "sweep.svg").exists()


def test_sweep_flag_overrides_config(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("bspec = constant:1.0\nepsilons = 1e-3\nseeds = 1\ngrid.n = 1024\n")
    out_dir = tmp_path / "flagged"
    code = main(
        [
            "sweep",
            "--config", str(cfg),
            "--out.dir", str(out_dir),
            "--epsilons", "1e-2,1e-3",
            "--seeds", "3",
        ]
    )
    assert code == 0
    text = (out_dir / "sweep.csv").read_text()
    assert len(text.splitlines()) == 7  # header + 2 levels x 3 seeds


def test_sweep_slope_gate_failure(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "bspec = constant:1.0\ngrid.n = 1024\nepsilons = 1e-2,1e-3\nseeds = 3\n"
        "slope.min = 0.99\nslope.max = 1.0\n"
    )
    code = main(["sweep", "--config", str(cfg), "--out.dir", str(tmp_path / "o")])
    assert code == 2


def test_sweep_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("bspec = constant:1.0\nepsilons = 1e-3\nturbo = yes\n")
    with pytest.raises(SystemExit):
        main(["sweep", "--config", str(cfg)])


def test_gre_subcommand(tmp_path):
    out = tmp_path / "gre.csv"
    code = main(
        [
            "gre",
            "--bspec", "constant:1.0",
            "--grid-n", "512",
            "--directions", "2",
            "--amplitude", "0.05",
            "--seed", "1",
            "--probe", "square,linear",
            "--output", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "direction,probe,lhs,rhs,gap,scale"
    assert lines[-1].startswith("summary,")
    assert len(lines) == 2 + 2 * 2


def test_gap_subcommand(tmp_path):
    out = tmp_path / "gap.csv"
    code = main(
        [
            "gap",
            "--bspec", "constant:1.0",
            "--grid-n", "512",
            "--directions", "3",
            "--amplitude", "0.05",
            "--seed", "2",
            "--output", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "direction,delta,dn_norm,weighted_residual,ratio"
    assert lines[-1].startswith("summary,nu_hat,")
    assert len(lines) == 2 + 3


def _numeric_fields(path, labels=("summary", "nu_hat", "moment_constant")):
    """Every non-empty field of a CSV body except the summary labels."""
    fields = []
    for ln in path.read_text().splitlines()[1:]:
        fields += [f for f in ln.split(",") if f and f not in labels]
    return fields


def test_invert_and_gap_write_plain_numbers(tmp_path):
    profile = tmp_path / "N.csv"
    main(["direct", "--bspec", "constant:1.0", "--grid-n", "256", "--output", str(profile)])
    rate = tmp_path / "rate.csv"
    main(["invert", "--data", str(profile), "--alpha", "0.01", "--output", str(rate)])
    gap = tmp_path / "gap.csv"
    main(["gap", "--bspec", "constant:1.0", "--grid-n", "256", "--directions", "2",
          "--output", str(gap)])
    for path in (rate, gap):
        fields = _numeric_fields(path)
        assert fields
        for f in fields:
            float(f)  # raises on numpy reprs such as np.float64(0.5)


def test_gap_rejects_max_iters(tmp_path, capsys):
    out = tmp_path / "gap.csv"
    with pytest.raises(SystemExit) as exc:
        main(["gap", "--bspec", "constant:1.0", "--max-iters", "5", "--output", str(out)])
    assert exc.value.code == 2
    assert "--max-iters" in capsys.readouterr().err
