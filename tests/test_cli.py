"""Command-line interface: verdicts, exit codes and the JSON schema."""

import json

import numpy as np
import pytest

from conftest import CHARTS, chart_path, run_fresh_python, start_fresh_python
from projgeo import cli
from projgeo.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_flat_chart(capsys):
    code, out, err = run(capsys, "analyze", str(chart_path("sphere3.chart")),
                         "--point", "0.1,0.2,-0.1")
    assert code == 0
    assert "projectively flat at point (W=0)" in out
    assert err == ""


def test_analyze_reports_but_does_not_fail_on_curvature(capsys):
    code, out, _ = run(capsys, "analyze", str(chart_path("witness3.chart")),
                       "--point", "0,0,0")
    assert code == 0
    assert "not projectively flat" in out


def test_analyze_with_torsion_skips_invariants(capsys):
    code, out, _ = run(capsys, "analyze", str(chart_path("torsion3.chart")),
                       "--point", "0,0,0")
    assert code == 0
    assert "torsion present" in out
    assert "weyl: None" in out


def test_planar_chart_uses_the_cotton_criterion(capsys):
    code, out, _ = run(capsys, "analyze", str(chart_path("sphere2.chart")),
                       "--point", "0.2,0.1")
    assert code == 0
    assert "n=2 criterion" in out


def test_json_output_is_deterministic_and_matches_text(capsys):
    args = ("analyze", str(chart_path("sphere2.chart")), "--point", "0.3,-0.2",
            "--json")
    code, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == 1
    assert payload["verdict"].startswith("projectively flat")
    # the text rendering carries the same numbers
    _, text, _ = run(capsys, "analyze", str(chart_path("sphere2.chart")),
                     "--point", "0.3,-0.2")
    assert f"{payload['norms']['curvature']:.12g}" in text


def test_out_flag_writes_the_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", str(chart_path("sphere2.chart")),
                       "--point", "0,0", "--json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["command"] == "analyze"


def test_invariance_subcommand(capsys):
    code, out, _ = run(capsys, "invariance", str(chart_path("sphere3.chart")),
                       "--alpha", str(chart_path("alpha3.alpha")))
    assert code == 0
    assert "invariant" in out


def test_equivalent_verdicts_and_exit_codes(capsys):
    flat = str(chart_path("flat3.chart"))
    code, out, _ = run(capsys, "equivalent", flat, flat)
    assert code == 0
    assert "projectively equivalent" in out
    code, out, _ = run(capsys, "equivalent", flat, str(chart_path("witness3.chart")))
    assert code == 1
    assert "not equivalent" in out


def test_equivalent_dimension_mismatch_is_a_usage_error(capsys):
    code, _, err = run(capsys, "equivalent", str(chart_path("flat3.chart")),
                       str(chart_path("sphere2.chart")))
    assert code == 2
    assert "dimension" in err


def test_twistor_flags_the_witness(capsys):
    code, out, _ = run(capsys, "twistor", str(chart_path("witness4.chart")),
                       "--samples", "2", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "obstruction detected"
    assert all(r["residual"] > 1e-2 for r in payload["reports"])


def test_twistor_passes_the_flat_round_chart(capsys):
    code, out, _ = run(capsys, "twistor", str(chart_path("sphere4.chart")),
                       "--samples", "1")
    assert code == 0
    assert "no obstruction" in out


def test_twistor_rejects_odd_dimension(capsys):
    code, _, err = run(capsys, "twistor", str(chart_path("sphere3.chart")))
    assert code == 2
    assert "even" in err


def test_reps_table(capsys):
    code, out, _ = run(capsys, "reps", "--dim", "4", "--space", "torsion",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    dims = {c["label"]: c["dim"] for c in payload["components"]}
    assert dims == {"w1+w2": 20, "w3": 4}
    assert payload["dim_total"] == 24
    spectra = {c["label"]: c["spectrum"] for c in payload["components"]}
    assert spectra["w1+w2"]["3"] == 2


def test_reps_odd_dimension_is_an_input_error(capsys):
    code, _, err = run(capsys, "reps", "--dim", "5", "--space", "torsion")
    assert code == 2
    assert err != ""


def test_console_script_exits_with_the_code_of_main():
    """`projgeo` is cli.entry; in a new interpreter it exits with main's code."""
    ok = start_fresh_python("from projgeo.cli import entry; entry()",
                            "reps", "--dim", "4", "--space", "torsion")
    assert (ok.returncode, ok.stderr) == (0, "")
    assert "w1+w2" in ok.stdout
    refused = start_fresh_python("from projgeo.cli import entry; entry()",
                                 "reps", "--dim", "5", "--space", "torsion")
    assert (refused.returncode, refused.stdout) == (2, "")
    assert "error:" in refused.stderr


def test_develop_flat_chart(capsys):
    code, out, _ = run(capsys, "develop", str(chart_path("flat3.chart")),
                       "--base", "0,0,0", "--targets",
                       str(chart_path("targets3.txt")), "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["images"]) == 3
    first = payload["images"][0]["homogeneous"]
    # affine chart: homogeneous image of x is [1 : x] up to scaling
    h = np.asarray(first)
    assert h[0] != 0
    target = np.asarray(payload["images"][0]["target"])
    assert np.allclose(h[1:] / h[0], target, atol=1e-8)


def test_develop_refuses_curved_chart(capsys):
    code, out, _ = run(capsys, "develop", str(chart_path("witness3.chart")),
                       "--base", "0,0,0", "--targets",
                       str(chart_path("targets3.txt")))
    assert code == 1
    assert "refused" in out
    assert "flatness_defect" in out


def test_bad_point_syntax(capsys):
    code, _, err = run(capsys, "analyze", str(chart_path("flat3.chart")),
                       "--point", "0,zero,0")
    assert code == 2
    assert "--point" in err


def test_wrong_point_length(capsys):
    code, _, err = run(capsys, "analyze", str(chart_path("flat3.chart")),
                       "--point", "0,0")
    assert code == 2


def test_missing_chart_file(capsys):
    code, _, err = run(capsys, "analyze", "no-such-file.chart",
                       "--point", "0,0")
    assert code == 2
    assert err != ""


def test_nonpositive_tolerance_rejected(capsys):
    code, _, err = run(capsys, "analyze", str(chart_path("flat3.chart")),
                       "--point", "0,0,0", "--tol", "-1")
    assert code == 2
    assert "tol" in err


def test_domain_refusal_names_the_chart_point(tmp_path, capsys):
    chart = tmp_path / "log.chart"
    chart.write_text("dim = 3\n[christoffel]\nG 1 1 1 = ln(x1)\n")
    code, _, err = run(capsys, "invariance", str(chart),
                       "--alpha", str(chart_path("alpha3.alpha")))
    assert code == 2
    assert "ln of non-positive value" in err
    assert "at x = (" in err


@pytest.mark.parametrize("text,fragment", [
    ("a x = 1\n", "line 1: bad index"),
    ("dim = x\na 1 = x1\n", "line 1: dim must be an integer"),
    ("dim = 3\na 1 = x1 +\n", "line 2:"),
    ("dim = 3\n\na 2 = sinh(x1)\n", "line 3:"),
    ("dim = 3\na 4 = x1\n", "line 2: alpha index out of range"),
    ("dim = 3\na 1 = x1\na 1 = x2\n", "line 3: duplicate"),
    ("dim = 2\na 1 = x1\n", "line 1: alpha file has dim = 2"),
    ("dim = 3\ndim = 3\n", "line 2: duplicate dim"),
    ("a 1 x1\n", "line 1: expected"),
])
def test_bad_alpha_files_are_input_errors(tmp_path, capsys, text, fragment):
    alpha = tmp_path / "bad.alpha"
    alpha.write_text(text)
    code, _, err = run(capsys, "invariance", str(chart_path("flat3.chart")),
                       "--alpha", str(alpha))
    assert code == 2
    assert fragment in err
    assert "Traceback" not in err


def test_negative_leading_coordinates(capsys):
    code, out, _ = run(capsys, "analyze", str(chart_path("sphere2.chart")),
                       "--point", "-0.1,0.2", "--json")
    assert code == 0
    assert json.loads(out)["point"] == [-0.1, 0.2]
    code, out, _ = run(capsys, "develop", str(chart_path("flat3.chart")),
                       "--base", "-0.1,0,0", "--targets",
                       str(chart_path("targets3.txt")), "--json")
    assert code == 0
    assert json.loads(out)["base"] == [-0.1, 0.0, 0.0]


def test_one_parser_serves_every_call_as_a_fresh_one_would(capsys, monkeypatch):
    """main parses with one parser per process: a call sees no value, default
    or error state left by an earlier one."""
    sphere3, alpha3 = str(chart_path("sphere3.chart")), str(chart_path("alpha3.alpha"))
    calls = [["analyze", sphere3, "--samples", "3"], ["analyze", sphere3, "--samples", "3"],
             ["--help"],
             ["invariance", sphere3, "--alpha", alpha3, "--samples", "5", "--json"],
             ["invariance", sphere3, "--alpha", alpha3, "--json"],
             ["analyze", sphere3, "--point=-0.1,0.2,0.3", "--json"]]
    shared = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 2, 0, 0, 0, 0]
    assert shared[0] == shared[1] and "required: --point" in shared[0][2]
    assert shared[2][1].startswith("usage: projgeo") and shared[2][2] == ""
    assert [json.loads(shared[i][1])["samples"] for i in (3, 4)] == [5, 10]
    assert json.loads(shared[5][1])["point"] == [-0.1, 0.2, 0.3]


NESTED = "(" * 1000 + "x1" + ")" * 1000
# each alpha line nests the line before it as a group, so a 1 is three parses deep.
# It parses, as groups are shared, and lowers, as lowering keeps its own stack:
# only a single line nested too deeply for the parser is refused.
CHAIN = ["(" + "-" * 600 + "x1)"]
CHAIN += ["(" + "-" * 600 + CHAIN[-1] + ")"]
CHAIN += ["(" + "-" * 600 + CHAIN[-1] + ")"]
DEEP_ALPHA = "".join(f"a {3 - i} = {text}\n" for i, text in enumerate(CHAIN)).encode()
# a one-dimensional chart has no 2-plane for the decomposition or the loops
DIM_ONE = b"dim = 1\n[christoffel]\nG 1 1 1 = x1\n"
# Gamma is finite near x1 = 0.39, its square is not
OVERFLOW_CURVATURE = b"dim = 3\n[christoffel]\nG 1 1 1 = exp(1000*x1)\nG 2 1 1 = x2*x3\n"
# the curvature is finite (about 1e308), its Ricci trace and so W are not
OVERFLOW_WEYL = b"dim = 3\n[christoffel]\nG 1 1 2 = 1e154\nG 1 2 1 = 1e154\n"
OVERFLOW_PATH_FRAME = (b"dim = 4\n[christoffel]\nG 1 1 1 = 3\n"
                       b"G 2 1 3 = sqrt(0.5) + 2\nG 2 3 1 = sqrt(0.5) + 2\n"
                       b"G 2 1 4 = (x1 + 0) - (x1 - 3)\nG 2 4 1 = (x1 + 0) - (x1 - 3)\n"
                       b"G 3 2 4 = (x2 * 7) / cos(x4)\nG 3 4 2 = (x2 * 7) / cos(x4)\n"
                       b"G 4 3 3 = (x2 - 1e154) - -2\n")
OVERFLOW_RICCI = (b"dim = 3\n[christoffel]\n"
                  b"G 1 1 2 = (exp(x2))^1.5\nG 1 2 1 = (exp(x2))^1.5\n"
                  b"G 2 1 3 = x2 + 1e154\nG 2 3 1 = x2 + 1e154\n"
                  b"G 3 1 2 = 1e154\nG 3 2 1 = 1e154\nG 3 2 3 = x1\n")

# One row per malformed input: argv ({tmp} is the test's directory), the files
# to write there, and a fragment the error message must carry. Rows that come
# from a file name the line.
MALFORMED = {
    "tol-nan": (["analyze", str(chart_path("sphere3.chart")), "--point", "0,0,0",
                 "--tol", "nan"], {}, "argument --tol: expected finite numbers"),
    "empty-key": (["analyze", "{tmp}/bad.chart", "--point", "0,0"],
                  {"bad.chart": b"dim = 2\n[christoffel]\n = x1\n"},
                  "line 3: expected 'key = expression'"),
    "ragged-targets": (["develop", str(chart_path("flat3.chart")), "--base", "0,0,0",
                        "--targets", "{tmp}/t.txt"], {"t.txt": b"0.1,0.2,0.3\n0.1,0.2\n"},
                       "line 2: expected 3 comma-separated numbers"),
    "narrow-targets": (["develop", str(chart_path("flat3.chart")), "--base", "0,0,0",
                        "--targets", "{tmp}/t.txt"], {"t.txt": b"# one row\n0.1,0.2\n"},
                       "line 2: expected 3 comma-separated numbers"),
    "not-utf8": (["analyze", "{tmp}/bad.chart", "--point", "0,0"],
                 {"bad.chart": b"dim = 2\n[metric]\ng 1 1 = 1 \xff\n"},
                 "line 3: not UTF-8"),
    "point-nan": (["analyze", str(chart_path("sphere2.chart")), "--point", "nan,0.1"],
                  {}, "argument --point: expected finite numbers"),
    "targets-nan": (["develop", str(chart_path("flat3.chart")), "--base", "0,0,0",
                     "--targets", "{tmp}/t.txt"], {"t.txt": b"0.1,nan,0.3\n"},
                    "line 1: expected finite numbers"),
    "targets-inf": (["develop", str(chart_path("flat3.chart")), "--base", "0,0,0",
                     "--targets", "{tmp}/t.txt"], {"t.txt": b"0,0,0\n\ninf,0,0\n"},
                    "line 3: expected finite numbers"),
    "samples-zero": (["equivalent", str(chart_path("flat3.chart")),
                      str(chart_path("flat3.chart")), "--samples", "0"],
                     {}, "argument --samples: expected an integer > 0"),
    "samples-negative": (["invariance", str(chart_path("flat3.chart")), "--alpha",
                          str(chart_path("alpha3.alpha")), "--samples", "-1"],
                         {}, "argument --samples: expected an integer > 0"),
    "samples-huge": (["invariance", str(chart_path("sphere3.chart")), "--alpha",
                      str(chart_path("alpha3.alpha")), "--samples", "1000000000000"],
                     {}, "argument --samples: expected an integer <= 10000"),
    "samples-above-cap": (["equivalent", str(chart_path("flat3.chart")),
                           str(chart_path("flat3.chart")), "--samples", "10001"],
                          {}, "argument --samples: expected an integer <= 10000"),
    "dim-one-analyze": (["analyze", "{tmp}/c.chart", "--point", "0.1"],
                        {"c.chart": DIM_ONE}, "line 1: dim must be in 2..8"),
    "dim-one-invariance": (["invariance", "{tmp}/c.chart", "--alpha", "{tmp}/a.alpha"],
                           {"c.chart": DIM_ONE, "a.alpha": b"dim = 1\na 1 = x1\n"},
                           "line 1: dim must be in 2..8"),
    "dim-one-develop": (["develop", "{tmp}/c.chart", "--base", "0", "--targets", "{tmp}/t.txt"],
                        {"c.chart": DIM_ONE, "t.txt": b"0.1\n"}, "line 1: dim must be in 2..8"),
    "reps-dim-zero": (["reps", "--dim", "0", "--space", "torsion"], {},
                      "argument --dim: invalid choice"),
    "seed-negative": (["equivalent", str(chart_path("flat3.chart")),
                       str(chart_path("flat3.chart")), "--seed", "-1"],
                      {}, "argument --seed"),
    "literal-overflow": (["equivalent", "{tmp}/a.chart", "{tmp}/a.chart"],
                         {"a.chart": b"dim = 2\n[christoffel]\nG 1 1 1 = 1e999\n"},
                         "line 3: number 1e999 out of range"),
    "deep-nesting": (["analyze", "{tmp}/a.chart", "--point", "0.1,0.2"],
                     {"a.chart": f"dim = 2\n[christoffel]\nG 1 1 1 = {NESTED}\n".encode()},
                     "line 3: expression nested too deeply"),
    "out-dir-missing": (["analyze", str(chart_path("sphere2.chart")), "--point", "0,0",
                         "--out", "{tmp}/no-such-dir/report.json"], {}, "No such file"),
    "gamma-overflow": (["twistor", "{tmp}/a.chart", "--samples", "3"],
                       {"a.chart": b"dim = 4\n[christoffel]\nG 1 1 1 = 1e160\n"},
                       "Nijenhuis tensor is not finite at x = ("),
    "transport-overflow-develop": (["develop", "{tmp}/a.chart", "--base", "0,0",
                                    "--targets", "{tmp}/t.txt"],
                                   {"a.chart": b"dim = 2\n[christoffel]\nG 1 1 1 = 1e150\n",
                                    "t.txt": b"0.1,0.1\n"},
                                   "transport frame is not finite at x = (0, 0)"),
    "gamma-overflow-analyze": (["analyze", "{tmp}/a.chart", "--point", "0.3,0.1"],
                               {"a.chart": b"dim = 2\n[christoffel]\nG 1 1 1 = exp(3000*x1)\n"},
                               "value or partial is not finite at x = (0.3, 0.1)"),
    "curvature-overflow-invariance": (["invariance", "{tmp}/a.chart",
                                       "--alpha", "{tmp}/zero.alpha"],
                                      {"a.chart": OVERFLOW_CURVATURE, "zero.alpha": b"dim = 3\n"},
                                      "curvature is not finite at x = ("),
    "alpha-overflow-invariance": (["invariance", str(chart_path("sphere2.chart")),
                                   "--alpha", "{tmp}/a.alpha"],
                                  {"a.alpha": b"a 1 = 1e308*x1\na 2 = 1e308\n"},
                                  "curvature is not finite at x = ("),
    "curvature-overflow-analyze": (["analyze", "{tmp}/a.chart", "--point", "0.39,0.1,0.1"],
                                   {"a.chart": OVERFLOW_CURVATURE},
                                   "curvature is not finite at x = (0.39, 0.1, 0.1)"),
    "cotton-overflow-analyze": (["analyze", "{tmp}/a.chart", "--point", "0.352,0.1"],
                                {"a.chart": b"dim = 2\n[christoffel]\nG 1 1 1 = exp(1000*x1)\n"
                                            b"G 1 2 2 = exp(1000*x1)\nG 2 1 2 = x1*x2\n"
                                            b"G 2 2 1 = x1*x2\n"},
                                "Cotton tensor is not finite at x = (0.352, 0.1)"),
    "weyl-overflow-analyze": (["analyze", "{tmp}/a.chart", "--point", "0.1,0.2,0.3"],
                              {"a.chart": OVERFLOW_WEYL}, "at x = ("),
    "weyl-overflow-invariance": (["invariance", "{tmp}/a.chart", "--alpha", "{tmp}/zero.alpha"],
                                 {"a.chart": OVERFLOW_WEYL, "zero.alpha": b"dim = 3\n"},
                                 "at x = ("),
    "weyl-overflow-develop": (["develop", "{tmp}/a.chart", "--base", "0.1,0.2,0.3",
                               "--targets", "{tmp}/t.txt"],
                              {"a.chart": OVERFLOW_WEYL, "t.txt": b"0.2,0.2,0.2\n"}, "at x = ("),
    # the torsion x1 vanishes at the base; the first loop node off x1 = 0 is named
    "torsion-develop": (["develop", "{tmp}/a.chart", "--base", "0,0,0",
                         "--targets", "{tmp}/t.txt"],
                        {"a.chart": b"dim = 3\n[christoffel]\nG 1 2 3 = x1\n",
                         "t.txt": b"0.1,0.1,0.1\n"},
                        "Cartan transport expects a torsion-free connection at x = (0.1, 0, -0.2)"),
    # constant torsion passes the first Bianchi identity, so only a torsion check sees it
    "constant-torsion-develop": (["develop", "{tmp}/a.chart", "--base", "0,0,0",
                                  "--targets", "{tmp}/t.txt"],
                                 {"a.chart": b"dim = 3\n[christoffel]\nG 1 2 3 = 1e-6\n",
                                  "t.txt": b"0.1,0.1,0.1\n"},
                                 "Cartan transport expects a torsion-free connection "
                                 "at x = (0, 0, 0)"),
    "constant-torsion-invariance": (["invariance", "{tmp}/a.chart", "--alpha", "{tmp}/zero.alpha"],
                                    {"a.chart": b"dim = 3\n[christoffel]\nG 1 2 3 = 1e-6\n",
                                     "zero.alpha": b"dim = 3\n"},
                                    "projective invariance test expects a torsion-free connection "
                                    "at x = (0.109569349857, -0.184170628989, -0.367221180851)"),
    "torsion3-develop": (["develop", str(chart_path("torsion3.chart")), "--base", "0,0,0",
                          "--targets", str(chart_path("targets3.txt"))], {},
                         "Cartan transport expects a torsion-free connection at x = (0, 0, 0)"),
    "analyze-samples": (["analyze", str(chart_path("sphere3.chart")), "--point", "0.1,0.2,0.3",
                         "--samples", "999"], {}, "unrecognized arguments: --samples 999"),
    "analyze-seed": (["analyze", str(chart_path("sphere3.chart")), "--point", "0.1,0.2,0.3",
                      "--seed", "7"], {}, "unrecognized arguments: --seed 7"),
    "develop-samples": (["develop", str(chart_path("flat3.chart")), "--base", "0,0,0",
                         "--targets", str(chart_path("targets3.txt")), "--samples", "5"],
                        {}, "unrecognized arguments: --samples 5"),
    "twistor-tol": (["twistor", str(chart_path("sphere4.chart")), "--samples", "1",
                     "--tol", "1e-3"], {}, "unrecognized arguments: --tol 1e-3"),
    # flags are not abbreviated: `--h` is neither a step nor `--help`
    "h-unrecognized": (["twistor", str(chart_path("sphere4.chart")), "--h", "0",
                        "--samples", "1"], {}, "unrecognized arguments: --h 0"),
    "power-overflow-analyze": (["analyze", "{tmp}/a.chart", "--point", "1.5,0.1"],
                               {"a.chart": b"dim = 2\n[christoffel]\nG 1 1 1 = x1^1000000000\n"},
                               "not finite at x = (1.5, 0.1)"),
    "metric-zero": (["analyze", "{tmp}/a.chart", "--point", "0.1,0.2"],
                    {"a.chart": b"dim = 2\n[metric]\n"},
                    "metric condition estimate inf exceeds 1e12 at x = (0.1, 0.2)"),
    "metric-singular": (["analyze", "{tmp}/a.chart", "--point", "0,0.2"],
                        {"a.chart": b"dim = 2\n[metric]\ng 1 1 = x1\ng 2 2 = 1\n"},
                        "metric condition estimate inf exceeds 1e12 at x = (0, 0.2)"),
    # 1e-12 times the larger eigenvalue underflows to 0, the smaller one is 0
    "metric-subnormal": (["analyze", "{tmp}/a.chart", "--point", "0.1,0.2"],
                         {"a.chart": b"dim = 2\n[metric]\ng 1 1 = 5e-324\n"},
                         "metric condition estimate inf exceeds 1e12 at x = (0.1, 0.2)"),
    "metric-overflow-levi-civita": (
        ["analyze", "{tmp}/a.chart", "--point", "0.3,0"],
        {"a.chart": b"dim = 2\n[metric]\ng 1 1 = 1e300 * x2 - 1e154\ng 2 2 = 1e154\n"},
        "curvature is not finite at x = (0.3, 0)"),
    "metric-overflow-first-kind": (
        ["analyze", "{tmp}/a.chart", "--point", "0.3,0"],
        {"a.chart": b"dim = 2\n[metric]\ng 1 1 = 1e308 * x1 + 1e300\ng 2 2 = 1e300\n"},
        "curvature is not finite at x = (0.3, 0)"),
    "metric-overflow-equivalent": (
        ["equivalent", "{tmp}/a.chart", "{tmp}/a.chart"],
        {"a.chart": b"dim = 2\n[metric]\ng 1 1 = 1e308 * x1 + 1e300\ng 2 2 = 1e300\n"},
        "Gamma difference is not finite at x = (0.109569349857, -0.184170628989)"),
    "torsion-twistor": (
        ["twistor", "{tmp}/a.chart", "--samples", "1"],
        {"a.chart": b"dim = 2\n[christoffel]\nG 1 1 2 = x1\n"},
        "integrability test expects a torsion-free connection "
        "at x = (0.109569349857, -0.184170628989)"),
    # only the third sample leaves the domain; the first two would pass
    "domain-twistor-third-sample": (
        ["twistor", "{tmp}/a.chart", "--samples", "3"],
        {"a.chart": b"dim = 4\n[christoffel]\nG 1 1 1 = ln(x1 + 0.03)\n"},
        "ln of non-positive value -0.017698276227372828 "
        "at x = (-0.0476982762274, 0.363672394953, -8.33490498824e-05, -0.0598171001207)"),
    # torsion only where x2 > 0, which the first two sample points are not
    "torsion-invariance-cotton": (
        ["invariance", "{tmp}/a.chart", "--alpha", "{tmp}/a.alpha"],
        {"a.chart": b"dim = 2\n[christoffel]\nG 1 1 2 = x2 + sqrt(x2^2)\n",
         "a.alpha": b"a 1 = 0.1\na 2 = 0\n"},
        "projective invariance test expects a torsion-free connection "
        "at x = (0.25061619136, 0.330204461822)"),
    # every segment frame is finite, but two loop holonomies, their products, are not
    "path-frame-overflow-develop": (
        ["develop", "{tmp}/a.chart", "--base", "0.118,0.184,0.1,-0.165",
         "--targets", "{tmp}/t.txt"],
        {"a.chart": OVERFLOW_PATH_FRAME, "t.txt": b"0.118,0.184,0.1,-0.165\n"},
        "path frame is not finite at x = (0.118, 0.184, 0.1, -0.165)"),
    # the curvature is finite, but its Ricci trace is not, and torsion skips weyl
    "ricci-overflow-analyze": (
        ["analyze", "{tmp}/a.chart", "--point", "-0.22,0.126,-0.068"],
        {"a.chart": OVERFLOW_RICCI},
        "torsion, Ricci trace, trace 2-form or an identity residual is not finite "
        "at x = (-0.22, 0.126, -0.068)"),
    # numbers and indices are ASCII: no other script's digits, signs on indices or
    # digit-grouping underscores, though Python's int() and float() take them
    "index-arabic-digit": (["analyze", "{tmp}/a.chart", "--point", "0,0,0"],
                           {"a.chart": "dim = 3\n[christoffel]\nG \u0663 1 1 = x1\n".encode()},
                           "line 3: bad index in"),
    "index-sign": (["analyze", "{tmp}/a.chart", "--point", "0,0,0"],
                   {"a.chart": b"dim = 3\n[christoffel]\nG 3 1 +1 = x1\n"},
                   "line 3: bad index in"),
    "index-underscore": (["analyze", "{tmp}/a.chart", "--point", "0,0"],
                         {"a.chart": b"dim = 2\n[metric]\ng 0_1 1_0 = 1\n"},
                         "line 3: bad index in"),
    "dim-arabic-digit": (["analyze", "{tmp}/a.chart", "--point", "0,0,0"],
                         {"a.chart": "dim = \u0663\n[christoffel]\n".encode()},
                         "line 1: dim must be an integer"),
    "dim-sign": (["analyze", "{tmp}/a.chart", "--point", "0,0,0"],
                 {"a.chart": b"dim = +3\n[christoffel]\n"}, "line 1: dim must be an integer"),
    "point-arabic-digit": (["analyze", str(chart_path("sphere2.chart")),
                            "--point=\u0660.1,0.2"], {},
                           "argument --point: expected comma-separated numbers"),
    "samples-arabic-digit": (["twistor", str(chart_path("sphere4.chart")),
                              "--samples", "\u0663"], {},
                             "argument --samples: expected comma-separated integers"),
    "targets-underscore": (["develop", str(chart_path("flat3.chart")), "--base", "0,0,0",
                            "--targets", "{tmp}/t.txt"], {"t.txt": b"0.1,0.2,0.3\n1_0,0,0\n"},
                           "line 2: expected comma-separated numbers"),
    "expression-arabic-digit": (["analyze", "{tmp}/a.chart", "--point", "0,0"],
                                {"a.chart": "dim = 2\n[christoffel]\nG 1 1 1 = \u0663*x1\n"
                                            .encode()},
                                "line 3: unexpected character '\u0663' (at offset 1)"),
    "comment-line-separator": (["analyze", "{tmp}/a.chart", "--point", "0,0"],
                               {"a.chart": "dim = 2\n# a\u2028b\n[metric]\nbad\n".encode()},
                               "line 4: expected 'key = expression'"),
    "comment-form-feed": (["invariance", str(chart_path("sphere2.chart")),
                           "--alpha", "{tmp}/a.alpha"], {"a.alpha": "# a\fb\x85c\n\nbad\n".encode()},
                          "line 3: expected 'key = expression'"),
    "key-no-break-space": (["analyze", "{tmp}/a.chart", "--point", "0,0"],
                           {"a.chart": "dim = 2\n[metric]\ng 1\u00a01 = 1\n".encode()},
                           "line 3: metric entries look like"),
    "section-no-break-space": (["analyze", "{tmp}/a.chart", "--point", "0,0"],
                               {"a.chart": "dim = 2\n[\u00a0metric\u00a0]\n".encode()},
                               "line 2: unknown section"),
    "dim-ideographic-space": (["analyze", "{tmp}/a.chart", "--point", "0,0"],
                              {"a.chart": "\u3000dim = 2\n[metric]\n".encode()},
                              "line 1: entry before any section"),
}


# Torsion-free charts whose first Bianchi residual, a few ulps of rounding, is
# above a --tol of 1e-16: the identity check keeps its own floor, so they
# reach a verdict.
TIGHT_TOL = {
    "analyze-witness3": ["analyze", str(chart_path("witness3.chart")),
                         "--point", "0.1,0.2,0.3", "--tol", "1e-16"],
    "invariance-sphere3": ["invariance", str(chart_path("sphere3.chart")),
                           "--alpha", str(chart_path("alpha3.alpha")), "--tol", "1e-16"],
}


@pytest.mark.parametrize("name", sorted(TIGHT_TOL))
def test_a_tight_tolerance_still_reaches_a_verdict(capsys, name):
    code, out, err = run(capsys, *TIGHT_TOL[name])
    assert code in (0, 1) and err == ""
    assert out.splitlines()[-1].startswith("verdict: ")


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a refusal prints only its error line
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_exits_2_with_a_message(tmp_path, capsys, name):
    argv, files, fragment = MALFORMED[name]
    for file_name, data in files.items():
        (tmp_path / file_name).write_bytes(data)
    code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert fragment in err
    assert "Traceback" not in err


# Entries that used to end in a RecursionError (a long left-deep sum or
# product) or in hours of repeated products (a large integer power).
LONG_ENTRIES = {
    "sum": " + ".join(["x1"] * 5000),
    "product": " * ".join(["x1"] * 5000),
    "power": "x1^1000000000",
    "power-1e20": "x2 * x1^1e20",
}


@pytest.mark.parametrize("name", sorted(LONG_ENTRIES))
def test_long_entries_and_large_powers_are_analyzed(tmp_path, capsys, name):
    chart = tmp_path / "a.chart"
    chart.write_text(f"dim = 2\n[christoffel]\nG 1 1 1 = {LONG_ENTRIES[name]}\n")
    code, out, err = run(capsys, "analyze", str(chart), "--point", "0.1,0.2", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["norms"]["torsion"] == 0.0


def test_deeply_shared_groups_are_lowered(tmp_path, capsys):
    """DEEP_ALPHA's a 1 is a tree three lines deep, deeper than one line may
    nest; it lowers like any other, and the flat chart stays invariant."""
    alpha = tmp_path / "a.alpha"
    alpha.write_bytes(DEEP_ALPHA)
    code, out, err = run(capsys, "invariance", str(chart_path("flat3.chart")),
                         "--alpha", str(alpha), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "invariant"


# Runs every subcommand but twistor, then twistor, in one process, printing
# whether scipy was loaded after each stage.
COLD_START = """
import json, os, sys
import projgeo.cli as cli

charts, out = sys.argv[1], os.path.join(sys.argv[2], "report.txt")
def chart(name):
    return os.path.join(charts, name)
stages = {"import": [], "jet commands": [
    ["analyze", chart("sphere3.chart"), "--point", "0.1,0.2,0.3"],
    ["invariance", chart("sphere3.chart"), "--alpha", chart("alpha3.alpha"), "--samples", "2"],
    ["equivalent", chart("sphere3.chart"), chart("sphere3.chart"), "--samples", "2"],
    ["develop", chart("flat3.chart"), "--base", "0,0,0", "--targets", chart("targets3.txt")],
    ["reps", "--dim", "4", "--space", "torsion"],
], "twistor": [["twistor", chart("sphere4.chart"), "--samples", "1"]]}
seen = {}
for stage, runs in stages.items():
    codes = [cli.main(argv + ["--out", out]) for argv in runs]
    seen[stage] = {"codes": codes, "scipy": "scipy" in sys.modules}
print(json.dumps(seen))
"""


def test_no_subcommand_loads_scipy(tmp_path):
    """scipy costs every start that loads it; twistor makes one real structure
    build per sample, at m = 0, where no matrix exponential is taken, so scipy
    stays unloaded there too."""
    seen = run_fresh_python(COLD_START, CHARTS, tmp_path)
    assert seen == {"import": {"codes": [], "scipy": False},
                    "jet commands": {"codes": [0, 0, 0, 0, 0], "scipy": False},
                    "twistor": {"codes": [0], "scipy": False}}


BARE_IMPORT = """
import json, sys
import projgeo
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith("projgeo.") or m.split(".")[0] == "numpy")))
"""


def test_importing_the_package_root_loads_nothing_else():
    """Names are imported from their modules; the root holds only __version__."""
    assert run_fresh_python(BARE_IMPORT) == []
