import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from collections import OrderedDict
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toricstab import catalog, invariants, localize, testconfig
from toricstab.blowup import QUANTITIES
from toricstab.cli import main
from toricstab.polytope import DelzantPolytope
from toricstab.profiles import builtin

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_invariants_catalog_cp2(capsys):
    code, out = run(capsys, "invariants", "--catalog", "cp2", "--family", "cscK")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["s_hat"] - 6.0) < 1e-10
    assert set(doc) >= {"s_hat", "futaki", "gram", "chi", "a",
                        "backend_discrepancy"}


def test_soliton_matches_oracle(capsys):
    code, out = run(capsys, "soliton", "--catalog", "bl1cp2-reflexive")
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] and doc["normalization_consistent"]
    assert abs(doc["xi"][0] - doc["oracle_xi"][0]) < 1e-8


def test_validate_reports_diagnostics(tmp_path, capsys):
    bad = {"dim": 2, "facets": [{"normal": [1, 0], "offset": "0"},
                                {"normal": [0, 1], "offset": "0"},
                                {"normal": [-1, -2], "offset": "2"}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out = run(capsys, "validate", "--polytope", str(path))
    assert code == 0
    doc = json.loads(out)
    assert not doc["valid"]
    code, _ = run(capsys, "validate", "--polytope", str(path), "--strict")
    assert code == 4


def test_testconfig_df_product_equals_futaki(capsys):
    code, out = run(capsys, "testconfig", "df", "--catalog", "bl1cp2",
                    "--beta", "1,1")
    assert code == 0
    df_val = json.loads(out)["df"]
    code, out = run(capsys, "futaki", "--catalog", "bl1cp2", "--beta", "1,1")
    fut = json.loads(out)["futaki_beta"]
    assert abs(df_val - fut) < 1e-10


def test_testconfig_file_input(tmp_path, capsys):
    tc = {"pieces": [{"gradient": ["0", "0"], "constant": "0"},
                     {"gradient": ["1", "1"], "constant": "-1/2"}]}
    path = tmp_path / "tc.json"
    path.write_text(json.dumps(tc))
    code, out = run(capsys, "testconfig", "destabilize", "--catalog", "cp2",
                    "--tc", str(path))
    assert code == 0
    doc = json.loads(out)
    assert not doc["product"]
    assert doc["chow_T"] > 0


def test_heavy_l1_norm_is_exact(tmp_path, capsys):
    # phi = max(0, x1 - x2/2 + x3/3 - 1/4) on the cube, sasaki weights with
    # the pole at distance 1/8: the exact norm is 164.76955867724558.
    tc = {"pieces": [{"gradient": ["0", "0", "0"], "constant": "0"},
                     {"gradient": ["1", "-1/2", "1/3"], "constant": "-1/4"}]}
    path = tmp_path / "tc.json"
    path.write_text(json.dumps(tc))
    code, out = run(capsys, "testconfig", "norm", "--catalog", "cube", "--family", "sasaki",
                    "--xi", "0.5,0,0", "--a", "1/8", "--tc", str(path), "--strict")
    assert code == 0
    assert '"l1_norm": 1.647695586772e+02' in out
    assert json.loads(out)["l1_norm"] == pytest.approx(164.76955867724558, rel=1e-12)


def test_large_soliton_xi_backends_agree(capsys):
    # Along the x1 axis the cubature's |coarse - fine| estimate alone is
    # blind along ker xi; the embedded-rule estimate sees it.
    code, out = run(capsys, "invariants", "--catalog", "cube", "--family", "soliton",
                    "--xi", "40,0,0", "--backend", "both", "--strict")
    assert code == 0
    exact = math.expm1(40) / 40
    assert abs(json.loads(out)["vol_w"] - exact) <= 1e-10 * exact


def test_blowup_expand_with_csv(capsys):
    code, out = run(capsys, "blowup-expand", "--catalog", "cp2", "--vertex",
                    "1", "--quantity", "volume", "--csv", "expansion")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eps,exact,predicted"
    assert len(lines) == 9


def test_product_dft_ladder_passes_strict(capsys):
    # df_T of a product configuration vanishes identically: its coefficients
    # are exact zeros, and the fit is held to the ladder's roundoff floor.
    code, out = run(capsys, "blowup-expand", "--catalog", "cp2", "--vertex", "0",
                    "--quantity", "dft", "--beta", "1,0", "--strict")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and doc["predicted"] == {"0": 0.0, "1": 0.0}
    assert doc["zero_coefficient_error"] <= doc["zero_coefficient_floor"]


def test_chop_past_admissible_depth_exits_3(capsys):
    code = main([*BLOWUP_CP2, "--quantity", "volume", "--eps-max", "2"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: chop depth 1/2 exceeds admissible bound 1/2")


def test_grid_past_the_float_range_exits_3(capsys):
    # The depths are normal floats, but eps**7 of the fit is not: refused
    # with one line, no numpy warning and no LAPACK noise.
    code = main([*BLOWUP_CP2, "--quantity", "volume",
                 "--eps-max", str(F(1, 2 ** 600))])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("error: eps grid leaves the float range: eps**7 "
                            "at depth 0 is not a positive normal float\n")


def test_blowup_expand_eps_flags(capsys):
    code, out = run(capsys, "blowup-expand", "--catalog", "cp1xcp1",
                    "--vertex", "0", "--quantity", "volume",
                    "--eps-max", "1/4", "--eps-points", "6")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["eps"]) == 6
    assert doc["eps"][0] == pytest.approx(1 / 16)


def test_blowup_expand_eps_points_alone(capsys):
    code, out = run(capsys, "blowup-expand", "--catalog", "cp1xcp1",
                    "--vertex", "0", "--quantity", "volume", "--eps-points", "5")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["eps"]) == 5
    assert doc["eps"][0] == pytest.approx(1 / 8)  # admissible 1/2, over 4


# A CSV kind the command's document lacks, and one that does not exist.
@pytest.mark.parametrize("argv", [
    ["report", "--csv", "expansion"], ["report", "--csv", "chow"],
    ["report", "--csv", "gram"], ["invariants", "--csv", "chow"],
    ["validate", "--csv", "gram"], ["testconfig", "df", "--beta", "1,0",
                                    "--csv", "chow"],
], ids=["report-expansion", "report-chow", "report-gram", "invariants-chow",
        "validate-gram", "tc-df-chow"])
def test_csv_kind_missing_from_document_exits_2(capsys, argv):
    code = main([*argv, "--catalog", "cp2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: cannot emit --csv {argv[-1]}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["report", "--catalog", "cp2", "--csv", "chow"],
    ["testconfig", "df", "--catalog", "cp2", "--beta", "1,0", "--csv", "chow"],
], ids=["report", "tc-df"])
def test_csv_kind_is_checked_before_any_work(monkeypatch, capsys, argv):
    from toricstab import cli

    def boom(*args, **kwargs):
        raise AssertionError("computed before the --csv check")

    monkeypatch.setattr(cli.invariants, "invariant_report", boom)
    monkeypatch.setattr(cli.testconfig, "df", boom)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: cannot emit --csv chow: ")


def test_unknown_csv_kind_is_a_parse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "--catalog", "cp2", "--csv", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_report_determinism(capsys):
    args = ("report", "--catalog", "cp2", "--family", "soliton", "--xi",
            "0.2,0.1", "--sample", "2", "--seed", "3")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["verdict"].startswith("relatively weighted K-semistable")
    assert "sign_convention" in doc


def test_parse_errors_exit_2(capsys):
    code, _ = run(capsys, "invariants", "--catalog", "no-such-polytope")
    assert code == 2
    code, _ = run(capsys, "invariants", "--polytope", "/nonexistent.json")
    assert code == 2


def test_precondition_errors_exit_3(capsys):
    # soliton on a non-reflexive polytope is a precondition violation
    code, _ = run(capsys, "soliton", "--catalog", "cp2")
    assert code == 3


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "futaki", "--catalog", "cp2", "--beta", "1,0",
                    "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert abs(doc["futaki_beta"]) < 1e-10
    assert set(doc) >= {"s_hat", "futaki", "gram", "chi", "a",
                        "backend_discrepancy"}


def test_verdict_flags_violations():
    from toricstab.report import verdict_line
    ok = verdict_line([{"df_T": 0.5}, {"df_T": 1e-12}], [1.0, 1.0])
    assert ok.startswith("relatively weighted K-semistable")
    bad = verdict_line([{"df_T": 0.5}, {"df_T": -1e-3}], [1.0, 1.0])
    assert bad.startswith("violation found")
    # A violation is measured against its configuration's scale.
    assert verdict_line([{"df_T": -1e-3}], [1e7]).startswith("relatively")


def test_selftest_exit_codes(monkeypatch, capsys):
    from toricstab import acceptance, cli

    def fake_pass(rule):
        return [acceptance.AcceptanceResult("stub", True, "ok")]

    def fake_fail(rule):
        return [acceptance.AcceptanceResult("stub", False, "broken")]

    monkeypatch.setattr(cli.acceptance, "run_all", fake_pass)
    assert main(["selftest"]) == 0
    assert "PASS" in capsys.readouterr().out
    monkeypatch.setattr(cli.acceptance, "run_all", fake_fail)
    assert main(["selftest"]) == 4
    assert "FAIL" in capsys.readouterr().out


def test_report_with_expansions(tmp_path, capsys):
    tc = {"pieces": [{"gradient": ["0", "0"], "constant": "0"},
                     {"gradient": ["1", "1"], "constant": "-1/2"}]}
    path = tmp_path / "tc.json"
    path.write_text(json.dumps(tc))
    code, out = run(capsys, "report", "--catalog", "cp2", "--tc", str(path),
                    "--expand-vertex", "1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["expansions"]) == 3
    assert all(e["passed"] for e in doc["expansions"])
    assert doc["test_configurations"][0]["df"] > 0


def test_invariants_gram_csv(capsys):
    code, out = run(capsys, "invariants", "--catalog", "cp1xcp1",
                    "--csv", "gram")
    assert code == 0
    rows = [r.split(",") for r in out.strip().splitlines()]
    assert len(rows) == 2 and len(rows[0]) == 2
    assert float(rows[0][0]) == pytest.approx(1 / 12)


def _off_by(monkeypatch, name, rel):
    """Localisation's ``name`` reads ``rel`` relative off its value (a
    derivative: of the volume kind alone, which moves F), in a fresh value
    store."""
    fn = getattr(localize, name)
    monkeypatch.setattr(localize, name, lambda *a: fn(*a) * (1 + rel * (a[0] != "c1")))
    monkeypatch.setattr(invariants, "_scalar_cache", OrderedDict())


SASAKI_FUTAKI = ["futaki", "--catalog", "cp2", "--family", "sasaki", "--a", "1",
                 "--beta", "1,0", "--backend", "both"]


def test_backend_disagreement_exits_4(capsys, monkeypatch):
    # Sasaki weights at a = 1, xi = 0: the backends agree, since the limit
    # at xi = 0 is an identity (the localisation Futaki used to miss by
    # 1.6e-6); a beta-moment 1e-6 off disagrees.
    assert run(capsys, *SASAKI_FUTAKI, "--strict")[0] == 0
    _off_by(monkeypatch, "directional_derivative", 1e-6)
    code = main(SASAKI_FUTAKI)
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("delta", ["3e-9", "1e-154", "1e-160"])
def test_near_degenerate_futaki_takes_the_limit(capsys, delta):
    # The vertex sums at xi cancel (at 1e-154 their sum of absolute values
    # overflows, at 1e-160 their terms do), so the localisation takes the
    # limit: cubature reads -0.3324932844.
    argv = ["futaki", "--catalog", "cube", "--family", "soliton", "--xi",
            f"0.7,{delta},{delta}", "--beta", "1,0,0"]
    code, out = run(capsys, *argv, "--backend", "localization", "--strict")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["futaki_beta"] + 0.3324932844) <= 1e-7
    assert doc["backend_discrepancy"] <= 1e-8
    # The limit of the derivative terms matches cubature to 1e-8 of F itself
    # (3.6e-10 at 3e-9), not only of the Futaki scale width_beta Per_v, 8.8,
    # that both backends are held to (central differences missed by 1.8e-8).
    code, out = run(capsys, *argv, "--backend", "both", "--strict")
    assert code == 0
    futaki = json.loads(out)["futaki_beta"]
    assert abs(futaki - doc["futaki_beta"]) <= 1e-8 * abs(futaki)


@pytest.mark.parametrize("name", ["cube", "bl3cp2", "bl2cp2"])
def test_near_zero_soliton_futaki_backends_agree(capsys, name):
    # Near xi = 0 the derivative sums cancel and take the series about 0: a
    # limit of the derivative terms sampled at xi + t eta read up to 7.8e-8
    # off, and these commands exited 4 (bl3cp2 at 1e-2 also when a beta
    # pairing to 1.5 was judged at half its scale).
    n = catalog.load(name).dim
    eta = np.array([0.31, 0.83, 0.57][:n])
    for k in (2, 4, 6, 9, 12):
        for beta in (np.eye(n)[0], np.eye(n)[-1], np.array([0.5, 1.0, -0.7][:n])):
            assert run(capsys, "futaki", "--catalog", name, "--family", "soliton",
                       "--xi=" + ",".join(map(repr, (10.0 ** -k * eta).tolist())),
                       "--beta=" + ",".join(map(repr, beta.tolist())),
                       "--backend", "both", "--strict")[0] == 0, (k, beta)


@pytest.mark.parametrize("argv, name", [
    # The exact Futaki value is -3.75e-11, which localisation used to read
    # 21% off at xi = 0; a value 1e-6 off, which a check against 1 + |F|
    # would pass, still disagrees.
    (["futaki", "--catalog", "bl1cp2", "--family", "sasaki", "--a", "1000",
      "--beta", "0,1"], "directional_derivative"),
    # The exact Vol_w is 1e-18, which localisation used to read 0.44% off.
    (["invariants", "--catalog", "cube", "--family", "sasaki", "--a", "1000"],
     "eval_class"),
], ids=["futaki-bl1cp2", "invariants-cube"])
def test_small_weights_disagree_by_their_own_scale(capsys, monkeypatch, argv, name):
    code, out = run(capsys, *argv, "--backend", "both", "--strict")
    assert code == 0 and json.loads(out)["backend_discrepancy"] <= 1e-12
    _off_by(monkeypatch, name, 1e-6)
    assert main(argv + ["--backend", "both", "--strict"]) == 4
    assert capsys.readouterr().err.startswith("error: ")


def test_localization_strict_fails_on_its_discrepancy(capsys, monkeypatch):
    argv = ["invariants", "--catalog", "cube", "--family", "sasaki", "--a", "1000",
            "--backend", "localization"]
    code, out = run(capsys, *argv, "--strict")
    assert code == 0 and json.loads(out)["backend_discrepancy"] <= 1e-12
    _off_by(monkeypatch, "eval_class", 1e-6)
    code, out = run(capsys, *argv)
    assert code == 0 and json.loads(out)["backend_discrepancy"] > 1e-7
    assert run(capsys, *argv, "--strict")[0] == 4


def test_large_beta_localization_answers(capsys):
    # |beta| = 1e200 squares past the float range: the derivative takes no norm.
    argv = ["futaki", "--catalog", "cp2", "--beta", "1e200,0"]
    code, out = run(capsys, *argv, "--backend", "localization")
    assert code == 0 and math.isfinite(json.loads(out)["futaki_beta"])
    code, out = run(capsys, *argv, "--backend", "both", "--strict")
    assert code == 0 and json.loads(out)["futaki_beta"] == -3.059354838625e+185


def test_large_beta_of_a_vanishing_moment_answers(capsys):
    # At xi = 0 the beta-moments of the centred cp1xcp1-reflexive vanish;
    # their vertex sums, linear in beta, are judged at a unit scale of beta.
    code, out = run(capsys, "futaki", "--catalog", "cp1xcp1-reflexive", "--beta", "1e10,1e10",
                    "--backend", "both", "--strict")
    assert code == 0 and abs(json.loads(out)["futaki_beta"]) <= 1e-3


def test_huge_product_configuration_is_a_product(capsys):
    code, out = run(capsys, "testconfig", "destabilize", "--catalog", "cp2",
                    "--beta", "1e300,1e300")
    assert code == 0 and json.loads(out)["product"] is True


def test_unsettled_localisation_limit_exits_4(capsys):
    # ckem weights at xi = 0 take the identity of the limit there; at an
    # axis xi they take an extrapolated limit, which does not settle.
    argv = ["invariants", "--catalog", "cp2", "--family", "ckem", "--a", "1/2",
            "--backend", "both"]
    assert run(capsys, *argv, "--strict")[0] == 0
    code = main([*argv, "--xi=-0.3,0"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: Richardson extrapolation did not settle")
    assert "Traceback" not in err


def test_blowup_expand_vertex_out_of_range_exits_3(capsys):
    for vertex in ("99", "-1"):
        code = main(["blowup-expand", "--catalog", "cp2", "--quantity",
                     "volume", "--vertex", vertex])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and "0..2" in err
        assert "Traceback" not in err


def test_report_expand_vertex_out_of_range_exits_3(capsys):
    code = main(["report", "--catalog", "cp2", "--expand-vertex", "7"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: ") and "0..2" in captured.err


@pytest.mark.parametrize("argv", [
    ["invariants", "--catalog", "cp2", "--family", "soliton", "--xi", "1e308,0"],
    ["invariants", "--catalog", "cp2", "--family", "soliton", "--xi", "800,0"],
    # <xi, x> itself leaves the float range at the far vertex.
    ["invariants", "--catalog", "cube", "--family", "cscK", "--xi", "1e308,1e308,1e308"],
    # The test-configuration commands reach mean_w before any other integral.
    *[["testconfig", command, "--catalog", "cp2", "--beta", "1,0",
       "--family", "soliton", "--xi", "720,0"]
      for command in ("chow", "norm", "destabilize")],
], ids=["soliton-1e308", "soliton-800", "csck-interval-overflow",
        "testconfig-chow", "testconfig-norm", "testconfig-destabilize"])
def test_weights_not_finite_on_polytope_exit_3(capsys, argv):
    # The positivity check fails the weights without a numpy overflow
    # warning, which this suite turns into an error.
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: weight positivity fails")
    assert captured.err.count("\n") == 1


def test_weight_with_a_near_double_root_exits_3(tmp_path, capsys):
    # g''' = (t - r)^4 - 1e-20 at r = 21/401 is negative for |t - r| < 1e-5,
    # inside [0, 1], the range of <xi, x> on cp2 at xi = (1, 0); f = t^2 / 2.
    r = F(21, 401)
    quartic = [r ** 4 - F(1, 10 ** 20), -4 * r ** 3, 6 * r ** 2, -4 * r, 1]
    g = [0, 0, 0] + [c / ((j + 1) * (j + 2) * (j + 3)) for j, c in enumerate(quartic)]
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"xi": [1.0, 0.0], "profiles": {
        "f": {"variant": "polynomial", "coeffs": ["0", "0", "1/2"]},
        "g": {"variant": "polynomial", "coeffs": [str(c) for c in g]}}}))
    code = main(["invariants", "--catalog", "cp2", "--weights", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: weight positivity fails (w: ")
    assert captured.err.count("\n") == 1


# Polytope files that bound no solid: every command but validate refuses them.
@pytest.mark.parametrize("facets, diagnostic", [
    ([((1, 0), 0), ((0, 1), 0), ((0, -1), 1)], "unbounded"),       # strip
    ([((1, 0), 0), ((0, 1), 0)], "unbounded"),                     # quadrant
    ([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 1)],
     "not full-dimensional"),                                      # segment
    ([((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), 1)], "empty"),
], ids=["strip", "quadrant", "segment", "empty"])
def test_polytope_file_without_interior_exits_3(tmp_path, capsys, facets,
                                                diagnostic):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"dim": 2, "facets": [
        {"normal": list(n), "offset": str(c)} for n, c in facets]}))
    for argv in (["invariants"], ["futaki", "--beta", "1,0"],
                 ["testconfig", "df", "--beta", "1,0"]):
        code = main([*argv, "--polytope", str(path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: polytope is ") and diagnostic in err
    code, out = run(capsys, "validate", "--polytope", str(path))
    assert code == 0
    assert any(diagnostic in d for d in json.loads(out)["diagnostics"])


# Catalog JSON stays byte-identical across refactors; the goldens were
# written by the command in each row.
@pytest.mark.parametrize("golden, argv", [
    ("report_cp2_sample5_seed1_v1.json",
     ["report", "--catalog", "cp2", "--sample", "5", "--seed", "1",
      "--expand-vertex", "1"]),
    ("invariants_cube.json", ["invariants", "--catalog", "cube"]),
    # Power-law weights, in closed form.
    ("invariants_bl1cp2_sasaki.json",
     ["invariants", "--catalog", "bl1cp2", "--family", "sasaki", "--xi", "1,0.3",
      "--a", "1/2"]),
    # Power-law weights near the pole along an axis, whose vol_w is
    # 1365245952/15625 and whose Gram entries off the diagonal vanish.
    ("invariants_cube_ckem_axis.json",
     ["invariants", "--catalog", "cube", "--family", "ckem", "--xi", "0.5,0,0",
      "--a", "1/8"]),
])
def test_catalog_output_matches_golden(capsys, golden, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.encode() == (DATA / golden).read_bytes()


# Malformed files, option values and output paths: exit 2 with one "error:"
# line and nothing on stdout.
BLOWUP_CP2 = ["blowup-expand", "--catalog", "cp2", "--vertex", "0"]


@pytest.mark.parametrize("argv, message", [
    (["report", "--catalog", "cp2", "--tc", "{missing}"],
     "cannot read test configuration: [Errno 2]"),
    (["report", "--catalog", "cp2", "--tc", "{no_constant}"],
     "cannot read test configuration: 'constant'"),
    (["report", "--catalog", "cp2", "--tc", "{zero_denominator}"],
     "cannot read test configuration: Fraction(1, 0)"),
    (["report", "--catalog", "cp2", "--tc", "{not_a_list}"],
     "cannot read test configuration: "),
    (["testconfig", "df", "--catalog", "cp2", "--tc", "{missing}"],
     "cannot read test configuration: [Errno 2]"),
    (["testconfig", "df", "--catalog", "cp2", "--tc", "{no_constant}"],
     "cannot read test configuration: 'constant'"),
    (["testconfig", "df", "--catalog", "cp2", "--beta", "1,x"], "bad --beta: "),
    (["futaki", "--catalog", "cp2", "--beta", "1,x"], "bad --beta: "),
    (["futaki", "--catalog", "cp2", "--beta", "1"],
     "bad --beta: 1 components, need 2"),
    ([*BLOWUP_CP2, "--quantity", "futaki", "--beta", "1,x"], "bad --beta: "),
    (["invariants", "--catalog", "cp2", "--xi", "1,0,0"],
     "bad --xi: 3 components, need 2"),
    (["invariants", "--catalog", "cp2", "--family", "sasaki", "--a", "1/0"],
     "bad --a: Fraction(1, 0)"),
    (["invariants", "--catalog", "cp2", "--family", "sasaki", "--a", "x"],
     "bad --a: "),
    ([*BLOWUP_CP2, "--quantity", "volume", "--eps-max", "x"], "bad --eps-max: "),
    ([*BLOWUP_CP2, "--quantity", "volume", "--eps-max", "1/0"],
     "bad --eps-max: "),
    ([*BLOWUP_CP2, "--quantity", "volume", "--eps-max", "1e400"],
     "bad --eps-max: 1e400 is past the float range"),
    # Too few depths to fit, and a smallest depth below the normal floats,
    # refused before the grid is built.
    ([*BLOWUP_CP2, "--quantity", "volume", "--eps-points", "3"],
     "bad --eps-points: 3 (need at least 4 depths, the smallest a normal float)"),
    ([*BLOWUP_CP2, "--quantity", "volume", "--eps-points", "-1"],
     "bad --eps-points: -1 (need at least 4 depths"),
    ([*BLOWUP_CP2, "--quantity", "volume", "--eps-points", "1100"],
     "bad --eps-points: 1100 (need at least 4 depths"),
    ([*BLOWUP_CP2, "--quantity", "volume", "--eps-points", "100000000"],
     "bad --eps-points: 100000000 (need at least 4 depths"),
    (["report", "--catalog", "cp2", "--sample", "-1"], "bad --sample: -1"),
    (["invariants", "--catalog", "cp2", "--quad-degree", "-3"],
     "bad --quad-degree: -3 (need 0..31)"),
    (["invariants", "--catalog", "cp2", "--quad-degree", "32"],
     "bad --quad-degree: 32 (need 0..31)"),
    (["soliton", "--catalog", "cp2-reflexive", "--max-depth", "-1"],
     "bad --max-depth: "),
    (["futaki", "--catalog", "cp2", "--beta", "1,0", "--tol-abs", "-0.5"],
     "bad --tol-abs: "),
    (["invariants", "--catalog", "cp2", "--tol-abs", "inf"], "bad --tol-abs: "),
    (["invariants", "--catalog", "cp2", "--tol-rel", "nan"], "bad --tol-rel: "),
    (["selftest", "--tol-rel=-inf"], "bad --tol-rel: "),
    (["invariants", "--catalog", "cp2", "--out", "{missing}/x.json"],
     "cannot write "),
    # Non-finite or out-of-float-range numbers.
    (["invariants", "--catalog", "cp2", "--family", "soliton", "--xi", "inf,0"],
     "bad --xi: "),
    (["invariants", "--catalog", "cp2", "--family", "soliton", "--xi", "nan,0"],
     "bad --xi: "),
    (["invariants", "--catalog", "cp2", "--family", "sasaki", "--a", "1e400"],
     "sasaki weights need |a| within the float range"),
    (["invariants", "--catalog", "cp2", "--weights", "{xi_overflow}"],
     "cannot read weight config: "),
    (["invariants", "--catalog", "cp2", "--weights", "{a_overflow}"],
     "cannot read weight config: "),
    (["invariants", "--polytope", "{offset_overflow}"],
     "cannot read polytope file: "),
    (["testconfig", "df", "--catalog", "cp2", "--beta", "inf,0"], "bad --beta: "),
    (["futaki", "--catalog", "cp2", "--beta", "nan,0"], "bad --beta: "),
    (["testconfig", "df", "--catalog", "cp2", "--tc", "{twist_overflow}"],
     "cannot read test configuration: "),
    # Subnormal components: a pairing with -5e-324 rounds to 0 where the
    # Euler product does not, so localisation read Vol_w = 0 or divided by it.
    (["invariants", "--catalog", "cp1", "--family", "extremal", "--xi=-5e-324",
      "--backend", "localization"], "bad --xi: -5e-324 has a non-finite or subnormal"),
    (["futaki", "--catalog", "cp1", "--family", "extremal", "--xi=-5e-324",
      "--beta=2", "--backend", "both"], "bad --xi: "),
    (["futaki", "--catalog", "cp2", "--beta=1,1e-310"], "bad --beta: "),
    (["invariants", "--catalog", "cp2", "--weights", "{xi_subnormal}"],
     "cannot read weight config: "),
    *((["blowup-expand", "--catalog", "cp2", "--tc", f"{{{name}}}", "--quantity",
        "dft", "--vertex", "0"],
      f"cannot read test configuration: twist has shape ({k},), expected (2,)")
      for name, k in (("twist_short", 1), ("twist_long", 3))),
    # Profile files are checked where they are read.
    *((["invariants", "--catalog", "cp2", "--weights", f"{{{name}}}"],
      f"cannot read weight config: {message}") for name, message in (
        ("coeff_overflow", "1e400 is outside the float range"),
        ("pole_overflow", "1e400 is outside the float range"),
        ("radius_nan", "nan is not a positive finite radius"),
        ("degree_huge", "100000000 is not a degree in 0..24"),
        ("degree_negative", "-1 is not a degree in 0..24"),
        ("coeffs_string", "coefficients need a list of 1 to 25 numbers"),
        ("degree_fraction", "invalid literal for int()"),
        ("coeffs_too_many", "coefficients need a list of 1 to 25 numbers"),
        ("coeffs_too_long", "coefficients exceed 128 bits"),
        ("exponential_nan", "nan is not a finite number"),
        ("variant_unknown", "unknown profile variant 'spline'"))),
], ids=["report-tc-missing", "report-tc-no-constant",
        "report-tc-zero-denominator", "report-tc-not-a-list", "tc-df-missing",
        "tc-df-no-constant", "tc-df-beta-not-a-number", "futaki-beta-not-a-number",
        "futaki-beta-too-short", "blowup-beta-not-a-number", "xi-too-long",
        "a-zero-denominator", "a-not-a-number",
        "eps-max-not-a-number", "eps-max-zero-denominator", "eps-max-overflow",
        "eps-points-3", "eps-points-negative", "eps-points-1100",
        "eps-points-1e8", "sample-negative",
        "quad-degree-negative", "quad-degree-32", "max-depth-negative",
        "tol-abs-negative", "tol-abs-infinite", "tol-rel-nan", "tol-rel-minus-infinity",
        "out-unwritable", "xi-infinite", "xi-nan", "a-overflow",
        "weights-xi-overflow", "weights-a-overflow", "polytope-offset-overflow",
        "tc-df-beta-infinite", "futaki-beta-nan", "tc-twist-overflow",
        "xi-subnormal", "xi-subnormal-both", "beta-subnormal", "weights-xi-subnormal",
        "blowup-tc-twist-short", "blowup-tc-twist-long",
        "polynomial-coeff-overflow", "powerlaw-b-overflow", "powerseries-radius-nan",
        "monomial-k-1e8", "monomial-k-negative", "polynomial-coeffs-string",
        "monomial-k-2.9", "polynomial-degree-25", "polynomial-coeffs-1e-300",
        "exponential-a-nan", "profile-variant-unknown"])
def test_bad_input_exits_2(tmp_path, capsys, argv, message):
    files = {"missing": None,
             "no_constant": {"pieces": [{"gradient": ["0", "0"]}]},
             "zero_denominator": {"pieces": [{"gradient": ["0", "0"],
                                              "constant": "1/0"}]},
             "not_a_list": {"pieces": 5},
             # Written as given: JSON reads 1e999 as infinity.
             "xi_overflow": '{"family": "soliton", "xi": [1e999, 0]}',
             "xi_subnormal": '{"family": "soliton", "xi": [0, -5e-324]}',
             "a_overflow": '{"family": "sasaki", "params": {"a": "1e400"}}',
             "offset_overflow": '{"dim": 2, "facets": ['
                                '{"normal": [1, 0], "offset": "0"}, '
                                '{"normal": [0, 1], "offset": "0"}, '
                                '{"normal": [-1, -1], "offset": "1e400"}]}',
             "twist_overflow": '{"pieces": [{"gradient": ["0", "0"], '
                               '"constant": "0"}], "twist": [1e999, 0]}',
             # A twist of the wrong length used to be broadcast, or to fail
             # in numpy with exit 3.
             **{name: {"pieces": [{"gradient": ["0", "0"], "constant": "0"},
                                  {"gradient": ["1", "0"], "constant": "-1/4"}],
                       "twist": twist}
                for name, twist in (("twist_short", [0.5]),
                                    ("twist_long", [0.5, 0.1, 0.2]))},
             # Weight files whose profile g is refused (f = t^2 / 2).
             **{name: {"xi": [1, 0], "profiles": {
                 "f": {"variant": "monomial", "k": 2}, "g": dict(variant=kind, **g)}}
                for name, kind, g in (
                 ("coeff_overflow", "polynomial", {"coeffs": ["1", "0", "1e400"]}),
                 ("pole_overflow", "powerlaw", {"a": "1", "b": "1e400", "p": "-2"}),
                 ("radius_nan", "powerseries", {"coeffs": ["1"] * 4, "radius": "nan"}),
                 ("degree_huge", "monomial", {"k": 100000000}),
                 ("degree_negative", "monomial", {"k": -1}),
                 ("coeffs_string", "polynomial", {"coeffs": "123"}),
                 ("degree_fraction", "monomial", {"k": 2.9}),
                 ("coeffs_too_many", "polynomial", {"coeffs": ["1"] * 26}),
                 ("coeffs_too_long", "polynomial", {"coeffs": ["1", "1e-300", "1"]}),
                 ("exponential_nan", "exponential", {"a": "nan"}),
                 ("variant_unknown", "spline", {}))}}
    for name, doc in files.items():
        if doc is not None:
            (tmp_path / f"{name}.json").write_text(
                doc if isinstance(doc, str) else json.dumps(doc))
    argv = [a.format(**{name: tmp_path / f"{name}.json" for name in files})
            for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


def test_no_command_imports_scipy():
    # numpy is the only runtime dependency: no module imports scipy, and the
    # commands run with every import of it refused.
    src = Path(__file__).resolve().parent.parent / "src"
    for path in sorted((src / "toricstab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), path.name
    script = (
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        "import toricstab.cli\n"
        "codes = []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['invariants', '--catalog', 'cp2'],\n"
        "                 ['soliton', '--catalog', 'bl1cp2-reflexive'],\n"
        "                 ['testconfig', 'destabilize', '--catalog', 'cp2',\n"
        "                  '--beta', '1,0'],\n"
        "                 ['blowup-expand', '--catalog', 'cp2', '--vertex', '0',\n"
        "                  '--quantity', 'volume'],\n"
        "                 ['report', '--catalog', 'cp2', '--sample', '1']):\n"
        "        codes.append(toricstab.cli.main(argv))\n"
        "print(*codes, sys.modules['scipy'])\n")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "0", "0", "0", "None"]


def test_overflowing_weight_exits_3_without_a_warning():
    # e^709 is finite, but cubature sums of it overflow to NaN.  The cached
    # positivity verdict refuses it before any integral is taken.
    src = Path(__file__).parent.parent / "src"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
    for argv, why in [
            (["invariants", "--catalog", "cp2", "--family", "soliton", "--xi", "709,0"],
             "overflow"),
            (["testconfig", "norm", "--catalog", "cp2", "--beta", "1,0",
              "--family", "soliton", "--xi", "720,0"], "not finite")]:
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "toricstab.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: weight positivity fails") and why in line


CP2_CSCK = ["--catalog", "cp2"]
CUBE_SASAKI = ["--catalog", "cube", "--family", "sasaki", "--a", "1/100", "--xi", "0.1,0.2,0.3"]


def _tc_file(tmp_path, pieces, twist):
    """A --tc option naming a file of max(<g, x> + c over ``pieces``),
    twisted by ``twist``."""
    path = tmp_path / "tc.json"
    path.write_text(json.dumps({
        "pieces": [{"gradient": list(g), "constant": c} for g, c in pieces],
        "twist": twist}))
    return ["--tc", str(path)]


# Non-products, max(x1, x2), twisted past the float range: a product's
# orthogonal part is exactly zero and is not integrated, so these integrate
# the orthogonal part of a configuration with two cells.
CP2_WIDE = (CP2_CSCK, [(("1", "0"), "0"), (("0", "1"), "0")], [1e308, 1e308])
CUBE_WIDE = (CUBE_SASAKI, [(("1", "0", "0"), "0"), (("0", "1", "0"), "0")],
             [1.7e308, -1.7e308, 1])


@pytest.mark.parametrize("sub, where", [
    ("df", CP2_CSCK + ["--beta", "1e308,1e308"]),
    ("dft", CP2_WIDE),
    ("norm", CP2_CSCK + ["--beta", "1e308,-1e308"]),
    ("chow", CP2_CSCK + ["--beta", "1e308,1e308"]),
    ("destabilize", CP2_WIDE),
    # Closed-form Sasaki integrals overflow to values that are not finite
    # without a numpy warning, and a NaN cut of a cell failed with
    # "min() arg is an empty sequence".
    ("df", CUBE_SASAKI + ["--beta", "1.7e308,-1.7e308,1"]),
    ("norm", CUBE_SASAKI + ["--beta", "1.7e308,-1.7e308,1"]),
    ("destabilize", CUBE_WIDE),
], ids=["df", "dft", "norm", "chow", "destabilize", "sasaki-df", "sasaki-norm",
        "sasaki-destabilize"])
def test_testconfig_past_the_float_range_exits_3(tmp_path, capsys, sub, where):
    # In-process, where a RuntimeWarning is an error: these printed NaN or 0
    # with exit 0, or died in an overflow traceback.
    if isinstance(where, tuple):
        options, pieces, twist = where
        where = options + _tc_file(tmp_path, pieces, twist)
    code = main(["testconfig", sub, *where])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith(
        f"error: testconfig {sub}: a value leaves the float range (")


@pytest.mark.parametrize("sub, where", [
    ("dft", CP2_CSCK + ["--beta", "1e308,1e308"]),
    ("dft", CUBE_SASAKI + ["--beta", "1.7e308,-1.7e308,1"]),
    # A product reads no mean, whose integral overflows here.
    ("destabilize", CP2_CSCK + ["--beta", "1e308,1e308"]),
    ("destabilize", CUBE_SASAKI + ["--beta", "1.7e308,-1.7e308,1"]),
], ids=["dft", "sasaki-dft", "destabilize", "sasaki-destabilize"])
def test_product_past_the_float_range_is_an_exact_zero(capsys, sub, where):
    # The product of a beta past the float range: its torus-orthogonal
    # part is the zero configuration, whatever its own integrals do.
    code, out = run(capsys, "testconfig", sub, *where)
    assert code == 0
    assert json.loads(out) == ({"df_T": 0.0} if sub == "dft" else
                               {"product": True, "l1_norm_orthogonal": 0.0})


def test_product_chow_T_past_the_float_range_is_an_exact_zero():
    # chow is printed beside chow_T, and it overflows: chow_T in-process.
    P = catalog.load("cube")
    tc = testconfig.associated_product(
        P, builtin("sasaki", 3, xi=[0.1, 0.2, 0.3], a=F(1, 100)), [1.7e308, -1.7e308, 1])
    with np.errstate(over="ignore", invalid="ignore"):
        assert [t for *_, t in testconfig.chow_T_table(tc)] == [0.0] * len(P.vertices)


def test_non_product_with_a_zero_orthogonal_norm_exits_3(tmp_path, capsys):
    # max(0, x1 + x2 - 1 + 1e-20) on cp2: a second cell too thin for its
    # orthogonal norm to be told from 0.0, which the ratio divides by.
    tc = _tc_file(tmp_path, [(("0", "0"), "0"), (("1", "1"), str(F("1e-20") - 1))], [0, 0])
    code = main(["testconfig", "destabilize", *CP2_CSCK, *tc])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("error: testconfig destabilize: a value leaves the float "
                            "range (the orthogonal L1 norm is 0)\n")


@pytest.mark.parametrize("argv", [
    ["futaki", "--catalog", "cp2", "--beta", "1e308,1e308"],
    ["blowup-expand", "--catalog", "cp2", "--vertex", "0", "--quantity", "futaki",
     "--beta", "1e308,1e308"],
    # The vertex sum of the derivative at xi = 0 overflows.
    ["futaki", "--catalog", "cp2", "--family", "soliton", "--xi", "0,0",
     "--beta", "1.7e308,1.7e308", "--backend", "localization"],
    ["futaki", "--catalog", "cp2", "--beta", "1.7e308,1.7e308", "--backend", "both"],
    # The whole-cell part reads 0 with an infinite error: the norm read 0.
    ["testconfig", "norm", "--catalog", "cp2", "--family", "sasaki", "--a", "1",
     "--xi", "0.1,0.1", "--beta=1e308,-1e308"],
], ids=["futaki", "blowup-futaki", "soliton-localization", "futaki-both", "sasaki-norm"])
def test_any_command_past_the_float_range_exits_3(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    [line] = captured.err.splitlines()
    name = " ".join(argv[:2]) if argv[0] == "testconfig" else argv[0]
    assert line.startswith(f"error: {name}: a value leaves the float range (")


def test_sasaki_norm_within_the_float_range_is_printed(capsys):
    code, out = run(capsys, "testconfig", "norm", "--catalog", "cp2", "--family", "sasaki",
                    "--a", "1", "--xi", "0.1,0.1", "--beta=1e300,-1e300")
    assert code == 0 and json.loads(out)["l1_norm"] == 1.166814652915e+299


def test_negative_report_seed_exits_2_before_any_work(monkeypatch, capsys):
    from toricstab import cli

    def boom(*args, **kwargs):
        raise AssertionError("loaded before the --seed check")

    monkeypatch.setattr(cli, "_load_polytope", boom)
    code = main(["report", "--catalog", "cp2", "--sample", "1", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: bad --seed: -1 (need a value >= 0)\n"


#: Vector components at the extremes of the float range, and ordinary ones.
COMPONENTS = (0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e300, -1e300,
              1.7e308, -1.7e308, 0.5, -2.0)
FAMILIES = ("cscK", "extremal", "soliton", "sasaki", "ckem")
CUBE4 = DelzantPolytope(4, [(tuple(s * (i == k) for i in range(4)), 1)
                            for k in range(4) for s in (1, -1)], name="cube4")
SWEPT = [(["--catalog", name], catalog.load(name).dim) for name in catalog.names()]
SWEPT.append((["--polytope", "{cube4}"], 4))
BETA_COMMANDS = [["futaki"],
                 *(["testconfig", sub] for sub in ("df", "dft", "norm", "chow", "destabilize")),
                 *(["blowup-expand", "--vertex", "0", "--quantity", q] for q in QUANTITIES)]


@st.composite
def extreme_commands(draw):
    """A command line at the extremes of its --xi, --beta and --a."""
    where, dim = draw(st.sampled_from(SWEPT))
    vector = st.lists(st.sampled_from(COMPONENTS), min_size=dim, max_size=dim).map(
        lambda v: ",".join(map(repr, v)))
    # soliton and selftest read none of these flags.
    command = draw(st.sampled_from(BETA_COMMANDS + [
        ["validate"], ["invariants"], ["extremal-field"], ["report", "--sample", "1"]]))
    argv = [*command, *where, "--family", draw(st.sampled_from(FAMILIES)),
            "--backend", draw(st.sampled_from(("quadrature", "localization", "both")))]
    if xi := draw(st.none() | vector):
        argv.append(f"--xi={xi}")
    if a := draw(st.none() | st.sampled_from(("1/2", "3", "1000", "1/1000", "1e300"))):
        argv.append(f"--a={a}")
    if command in BETA_COMMANDS:
        argv.append(f"--beta={draw(vector)}")
    return argv


def _floats(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [x for v in doc for x in _floats(v)]
    return [doc] if isinstance(doc, float) else []


@pytest.fixture(scope="module")
def cube4_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "cube4.json"
    path.write_text(json.dumps(CUBE4.to_json()))
    return str(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=extreme_commands())
def test_extreme_inputs_exit_with_a_documented_code(cube4_file, argv):
    # Every command exits 0, 2, 3 or 4 without a traceback, and what it
    # prints on exit 0 is finite.
    argv = [cube4_file if x == "{cube4}" else x for x in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    if code == 0:
        assert all(map(math.isfinite, _floats(json.loads(out.getvalue()))))
