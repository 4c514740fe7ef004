import json
import re

import numpy as np
import pytest

import celldiv.direct
import celldiv.harness
from celldiv.cli import _CONFIG_KEYS, _parse_probe, _rate_table, main
from celldiv.direct import bump_rate, constant_b_series
from celldiv.entropy import ConvexProbe
from celldiv.grid import GridFunction, derivative, make_grid, read_csv, trapezoid, write_csv
from celldiv.inverse import product_source


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


def test_direct_max_iters_caps_root_iterations(tmp_path, monkeypatch):
    monkeypatch.setattr(celldiv.direct, "_MAX_MARCHES", 2)
    out = tmp_path / "profile.csv"
    with pytest.raises(RuntimeError, match="direct solve did not converge in 2 iterations"):
        main(["direct", "--bspec", "constant:1.0", "--grid-n", "512", "--output", str(out)])


@pytest.mark.parametrize("which", ["direct", "adjoint"])
def test_eigen_subcommands_reject_max_iters(tmp_path, capsys, which):
    # the root search's cap is fixed in celldiv.direct; no flag sets it
    out = tmp_path / "profile.csv"
    with pytest.raises(SystemExit) as exc:
        main([which, "--bspec", "constant:1.0", "--max-iters", "5", "--output", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-iters 5" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["direct", "adjoint"])
def test_eigen_subcommands_exit_2_when_an_invariant_fails(tmp_path, capsys, which):
    # a stop width of 1e3 h leaves lambda0 at the bracket end: f1, f1.upper and f2 fail
    out = tmp_path / "profile.csv"
    code = main([which, "--bspec", "constant:1.0", "--grid-n", "256", "--tol", "1e3",
                 "--output", str(out)])
    assert code == 2
    assert read_csv(out).values.size == 257
    assert json.loads(out.with_suffix(".meta.json").read_text())["invariants_passed"] is False
    assert capsys.readouterr().out.count(": FAIL ") == 3


def test_direct_tol_sets_root_iterations(tmp_path):
    iterations = {}
    for tol in ("1e-3", "1e-12"):
        out = tmp_path / f"profile{tol}.csv"
        main(["direct", "--bspec", "constant:1.0", "--grid-n", "512", "--tol", tol,
              "--output", str(out)])
        iterations[tol] = json.loads(out.with_suffix(".meta.json").read_text())["iterations"]
    assert iterations["1e-3"] < iterations["1e-12"]


def test_direct_without_sign_change_names_its_numbers(tmp_path):
    # L b_min = 12 x 0.2: mass leaks past L and the bracket holds no root
    with pytest.raises(RuntimeError, match="no sign change") as err:
        main(["direct", "--bspec", "constant:0.2", "--grid-n", "1024",
              "--output", str(tmp_path / "N.csv")])
    message = str(err.value)
    assert re.search(r"residuals \S+ and \S+ at its ends", message)
    assert "L b_min = 2.4;" in message
    assert "a longer --grid-length may help" in message


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
    # flat outside the outflow layer 1 - e^{-(lambda0 + b)(L - x)}, lambda0 = b = 2
    bulk = phi.grid.nodes <= 6.0 - 17.0 / 4.0
    np.testing.assert_allclose(phi.values[bulk], 1.0, rtol=0.0, atol=1e-6)
    assert 0.0 < phi.values[-1] <= 5.0 * phi.grid.spacing * 2.0


def test_adjoint_tight_tol_converges_in_64_sweeps_at_n65536(tmp_path):
    # The name predates the direct adjoint solve; --tol sets the root search only.
    rate = tmp_path / "bump.csv"
    write_csv(bump_rate(make_grid(12.0, 65536), 1.0, 0.4, 2.0, 1.5).rate, rate)
    out = tmp_path / "phi.csv"
    main(["adjoint", "--bspec", f"table:{rate}", "--grid-n", "65536", "--tol", "1e-12",
          "--output", str(out)])
    assert read_csv(out).values.min() > 0.0


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


@pytest.mark.parametrize("flag", [["--grid-n", "64"], ["--grid-length", "5"]])
def test_toy_table_data_rejects_grid_flags(tmp_path, flag):
    # the table carries its grid; a grid flag would be ignored
    data = tmp_path / "v.csv"
    grid = make_grid(1.0, 256)
    write_csv(GridFunction(grid, grid.nodes ** 2), data)
    with pytest.raises(SystemExit, match="do not apply to --v table"):
        main(["toy", "--v", f"table:{data}", *flag, "--output", str(tmp_path / "toy.csv")])


@pytest.mark.parametrize("weight", ["const:0.5", "const:2.0"])
def test_toy_x2_reference_divides_by_the_weight(tmp_path, weight):
    # int_0^x w u = x^2 is solved by u = 2x / w, not by 2x
    out = tmp_path / "toy.csv"
    code = main(["toy", "--grid-n", "1024", "--E", "2.0", "--lambda", weight,
                 "--epsilons", "0,1e-4,1e-3", "--output", str(out)])
    assert code == 0
    assert all(ln.endswith(",1") for ln in out.read_text().splitlines()[1:])


def test_toy_tables_match_the_x2_defaults(tmp_path):
    # --v table:<file> and --lambda table:<file> carry the x2 data and a unit
    # weight on the default grid, so they give the rows of --v x2
    grid = make_grid(1.0, 4096)
    data, weight = tmp_path / "v.csv", tmp_path / "w.csv"
    write_csv(GridFunction(grid, grid.nodes ** 2), data)
    write_csv(GridFunction(grid, np.ones(grid.intervals + 1)), weight)
    tables, x2 = tmp_path / "tables.csv", tmp_path / "x2.csv"
    assert main(["toy", "--v", f"table:{data}", "--lambda", f"table:{weight}", "--E", "2.0",
                 "--output", str(tables)]) == 0
    assert main(["toy", "--v", "x2", "--E", "2.0", "--output", str(x2)]) == 0
    got, want = (np.loadtxt(p, delimiter=",", skiprows=1) for p in (tables, x2))
    assert got.shape == want.shape == (25, 6)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    coarse = make_grid(1.0, 2048)
    write_csv(GridFunction(coarse, np.ones(coarse.intervals + 1)), weight)
    with pytest.raises(ValueError, match="weight and data live on different grids"):
        main(["toy", "--v", f"table:{data}", "--lambda", f"table:{weight}",
              "--output", str(tmp_path / "bad.csv")])


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


def test_invert_diagnostics_describe_the_marched_source(tmp_path):
    # Each scheme's .diag.json integrates the source that scheme marched:
    # the backward data quotient for dfree, the centred one for fd.
    (tmp_path / "pw.txt").write_text("0,1\n3,2\n")
    profile = tmp_path / "N.csv"
    main(["direct", "--bspec", f"piecewise:{tmp_path / 'pw.txt'}", "--grid-n", "4096",
          "--output", str(profile)])
    data = read_csv(profile)
    int_f_sq = {}
    for short, scheme in (("fd", "direct-fd"), ("dfree", "derivative-free")):
        out = tmp_path / f"rate_{short}.csv"
        code = main(["invert", "--data", str(profile), "--alpha", "0.01", "--scheme", short,
                     "--output", str(out)])
        assert code == 0
        diag = json.loads(out.with_suffix(".diag.json").read_text())
        assert diag["scheme"] == scheme
        F = product_source(data, diag["lambda0"], scheme)
        dF = derivative(F, data.grid.spacing)
        assert diag["int_f_sq"] == pytest.approx(trapezoid(F ** 2, data.grid), rel=1e-12)
        assert diag["int_df_sq"] == pytest.approx(trapezoid(dF ** 2, data.grid), rel=1e-12)
        int_f_sq[short] = diag["int_f_sq"]
    assert int_f_sq["dfree"] != pytest.approx(int_f_sq["fd"], rel=1e-4)


@pytest.mark.parametrize("lambda0", ["-1", "0", "nan", "inf"])
def test_invert_rejects_nonpositive_or_nonfinite_lambda0(tmp_path, lambda0):
    grid = make_grid(12.0, 256)
    data = write_csv(constant_b_series(1.0, grid), tmp_path / "N.csv")
    out = tmp_path / "rate.csv"
    with pytest.raises(ValueError, match="lambda0 must be a finite positive"):
        main(["invert", "--data", str(data), "--lambda0", lambda0, "--alpha", "0.01", "--output", str(out)])
    assert not out.exists()


_STUDY = ["--bspec", "constant:1.0", "--grid-n", "256", "--directions", "2"]
_SWEEP = ["sweep", "--bspec", "constant:1.0", "--grid.n", "256", "--seeds", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["direct", "--bspec", "constant:1.0", "--grid-n", "256", "--tol", "inf"],
                     "tolerance must be positive", id="direct-tol-inf"),
        *(pytest.param([*_SWEEP, "--epsilons", v], "noise levels must be nonnegative",
                       id=f"sweep-epsilons-{v}") for v in ("nan", "inf")),
        *(pytest.param([*_SWEEP, "--epsilons", "1e-3", "--alpha.c", v],
                       "alpha constant must be positive", id=f"sweep-alpha.c-{v}")
          for v in ("nan", "inf")),
        *(pytest.param(["invert", "--data", "N.csv", "--alpha", v],
                       "regularization parameter must be positive", id=f"invert-alpha-{v}")
          for v in ("nan", "inf")),
        pytest.param(["toy", "--grid-n", "256", "--epsilons", "nan"],
                     "noise levels must be nonnegative", id="toy-epsilons-nan"),
        pytest.param(["toy", "--grid-n", "256", "--E", "nan"],
                     "exceeds the declared bound nan", id="toy-E-nan"),
        pytest.param(["toy", "--grid-n", "256", "--E", "inf"],
                     "a-priori bound must be positive and finite", id="toy-E-inf"),
        *(pytest.param([which, *_STUDY, "--amplitude", v],
                       "perturbation amplitude must be nonnegative", id=f"{which}-amplitude-{v}")
          for which in ("gap", "gre") for v in ("nan", "inf")),
    ],
)
def test_nonfinite_numbers_are_rejected_by_name(tmp_path, monkeypatch, argv, message):
    # NaN passes every `x <= 0` test; each number is checked against 0 and inf by name
    monkeypatch.chdir(tmp_path)
    write_csv(constant_b_series(1.0, make_grid(12.0, 256)), tmp_path / "N.csv")
    out = ["--out.dir", "sweep"] if argv[0] == "sweep" else ["--output", "out.csv"]
    with pytest.raises(ValueError, match=message):
        main([*argv, *out])
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "sweep").exists()


def test_invert_filter_files_replace_their_envelope(tmp_path):
    data = tmp_path / "N.csv"
    main(["direct", "--bspec", "constant:1.0", "--grid-n", "1024", "--output", str(data)])
    profile = read_csv(data)
    half = write_csv(profile.with_values(0.5 * profile.values), tmp_path / "half.csv")
    base = ["invert", "--data", str(data), "--alpha", "0.01"]
    assert main([*base, "--output", str(tmp_path / "auto.csv")]) == 0
    assert main([*base, "--filter-upper", str(half), "--output", str(tmp_path / "half_up.csv")]) == 0
    assert (tmp_path / "half_up.csv").read_text() != (tmp_path / "auto.csv").read_text()
    with pytest.raises(ValueError, match="filter envelopes cross"):
        main([*base, "--filter-upper", str(half), "--filter-lower", str(data),
              "--output", str(tmp_path / "crossed.csv")])


def rate_table_loop(nodes, rate, defined):
    """Reference for the ``invert`` rows: one f-string per numpy scalar."""
    lines = ["x,B_recovered,defined_flag"]
    for x, b, ok in zip(nodes, rate, defined):
        lines.append(f"{float(x)!r},{'' if not ok else repr(float(b))},{int(ok)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [8, 65536])
def test_rate_table_matches_loop(rng, n):
    nodes = np.linspace(0.0, 12.0, n + 1)
    rate = rng.standard_normal(n + 1) * np.logspace(-300, 300, n + 1)
    rate[:3] = [-0.0, 0.0, 5e-324]
    defined = rng.random(n + 1) < 0.7
    defined[:3] = True
    defined[3:5] = False
    rate[~defined] = np.nan
    got = _rate_table(nodes, rate, defined)
    assert got == rate_table_loop(nodes, rate, defined)
    x = nodes.tolist()
    assert got.splitlines()[1:6] == [
        "0.0,-0.0,1", f"{x[1]!r},0.0,1", f"{x[2]!r},5e-324,1", f"{x[3]!r},,0", f"{x[4]!r},,0"
    ]


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


def test_sweep_exits_2_on_failed_synthesis_invariants(tmp_path, capsys):
    # B = 5 at n = 256 is too coarse for the invariant tolerance: f2 reads
    # 0.200651 against 0.2; the table is still written in full
    out_dir = tmp_path / "o"
    code = main(["sweep", "--bspec", "constant:5.0", "--grid.n", "256", "--epsilons", "1e-2,1e-3",
                 "--seeds", "2", "--out.dir", str(out_dir)])
    assert code == 2
    assert "synthesis invariants failed" in capsys.readouterr().err
    assert len((out_dir / "sweep.csv").read_text().splitlines()) == 5  # header + 2 levels x 2 seeds


def test_sweep_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("bspec = constant:1.0\nepsilons = 1e-3\nturbo = yes\n")
    with pytest.raises(SystemExit):
        main(["sweep", "--config", str(cfg)])


# One non-default value per sweep key: (flag text, parsed ExperimentConfig field).
_SWEEP_KEY_VALUES = {
    "bspec": ("constant:2.0", "constant:2.0"),
    "grid.length": ("8.5", 8.5),
    "grid.n": ("512", 512),
    "epsilons": ("1e-2,1e-3", (1e-2, 1e-3)),
    "alpha.rule": ("fixed", "fixed"),
    "alpha.c": ("0.5", 0.5),
    "seeds": ("3", 3),
    "scheme": ("fd", "direct-fd"),
    "out.dir": ("elsewhere", "elsewhere"),
    "formats": ("csv,svg", ("csv", "svg")),
    "slope.min": ("0.2", 0.2),
    "slope.max": ("0.8", 0.8),
}


class _Captured(Exception):
    pass


def _swept_config(monkeypatch, *flags):
    """The ExperimentConfig that ``sweep`` builds from ``flags``, captured before any solve."""
    def capture(config):
        raise _Captured(config)

    monkeypatch.setattr(celldiv.harness, "convergence_study", capture)
    with pytest.raises(_Captured) as caught:
        main(["sweep", "--bspec", "constant:1.0", "--epsilons", "1e-3", *flags])
    return caught.value.args[0]


@pytest.mark.parametrize("key", list(_CONFIG_KEYS))
def test_every_sweep_key_takes_effect_as_a_flag(monkeypatch, key):
    field = _CONFIG_KEYS[key][0]
    text, parsed = _SWEEP_KEY_VALUES[key]
    monkeypatch.delenv("CELLDIV_OUT_DIR", raising=False)
    assert getattr(_swept_config(monkeypatch), field) != parsed
    assert getattr(_swept_config(monkeypatch, f"--{key}", text), field) == parsed


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


_LABELS = ("summary", "nu_hat", "moment_constant", "max_relative_gap", "square", "linear",
           "positive-part")


def _numeric_fields(path, labels=_LABELS):
    """Every non-empty field of a CSV body except the summary and probe labels."""
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
    gre = tmp_path / "gre.csv"
    main(["gre", "--bspec", "constant:1.0", "--grid-n", "256", "--directions", "2",
          "--output", str(gre)])
    toy = tmp_path / "toy.csv"
    main(["toy", "--E", "2.0", "--epsilons", "1e-4,1e-3", "--seeds", "2", "--grid-n", "256",
          "--output", str(toy)])
    for path in (rate, gap, gre, toy):
        fields = _numeric_fields(path)
        assert fields
        for f in fields:
            float(f)  # raises on numpy reprs such as np.float64(0.5)
    # the plain cells carry the same numbers: gre's gap is |lhs - rhs|, toy's
    # bound is 2 sqrt(epsilon E)
    for row in gre.read_text().splitlines()[1:-1]:
        _, _, lhs, rhs, gap_cell, _ = row.split(",")
        assert float(gap_cell) == abs(float(lhs) - float(rhs))
    for row in toy.read_text().splitlines()[1:]:
        eps, _, _, _, bound, _ = row.split(",")
        assert float(bound) == 2.0 * np.sqrt(float(eps) * 2.0)


@pytest.mark.parametrize("which", ["direct", "adjoint", "invert", "gap", "gre", "toy"])
def test_output_parent_directory_is_created(tmp_path, which):
    grid_flags = ["--bspec", "constant:1.0", "--grid-n", "256"]
    args = {
        "direct": ["direct", *grid_flags],
        "adjoint": ["adjoint", *grid_flags],
        "invert": ["invert", "--data", str(tmp_path / "N.csv"), "--alpha", "0.01"],
        "gap": ["gap", *grid_flags, "--directions", "1"],
        "gre": ["gre", *grid_flags, "--directions", "1"],
        "toy": ["toy", "--epsilons", "1e-3", "--seeds", "1", "--grid-n", "256"],
    }[which]
    if which == "invert":
        main(["direct", *grid_flags, "--output", str(tmp_path / "N.csv")])
    out = tmp_path / "sub" / "x.csv"
    assert main([*args, "--output", str(out)]) == 0
    assert out.read_text()


def test_gap_rejects_max_iters(tmp_path, capsys):
    out = tmp_path / "gap.csv"
    with pytest.raises(SystemExit) as exc:
        main(["gap", "--bspec", "constant:1.0", "--max-iters", "5", "--output", str(out)])
    assert exc.value.code == 2
    assert "--max-iters" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["gre", "gap"])
def test_studies_reject_zero_directions(tmp_path, which):
    out = tmp_path / f"{which}.csv"
    with pytest.raises(ValueError, match="need at least one perturbation direction"):
        main([which, "--bspec", "constant:1.0", "--grid-n", "256", "--directions", "0",
              "--output", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("which", ["gre", "gap"])
def test_studies_reject_zero_amplitude(tmp_path, which):
    # every row of a zero perturbation is 0 / 0, not a balance that holds
    out = tmp_path / f"{which}.csv"
    with pytest.raises(ValueError, match="direction produced no profile shift"):
        main([which, "--bspec", "constant:1.0", "--grid-n", "256", "--directions", "2",
              "--amplitude", "0", "--output", str(out)])
    assert not out.exists()


def test_probe_specs_map_to_probe_kinds():
    specs = {"square": ConvexProbe("square"), "linear": ConvexProbe("linear"),
             "pospart:0.05": ConvexProbe("positive-part", 0.05)}
    assert {spec: _parse_probe(spec) for spec in specs} == specs
    for spec in ("cubic", "pospart", "square:1"):
        with pytest.raises(SystemExit, match=re.escape(f"unknown probe {spec!r} (square | linear | pospart:<xi>)")):
            _parse_probe(spec)


def test_gap_rejects_probe(tmp_path, capsys):
    # the gap study has no probe; only gre reads --probe
    out = tmp_path / "gap.csv"
    with pytest.raises(SystemExit) as exc:
        main(["gap", "--bspec", "constant:1.0", "--probe", "square", "--output", str(out)])
    assert exc.value.code == 2
    assert "--probe" in capsys.readouterr().err
