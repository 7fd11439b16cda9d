"""CLI surface: subcommands, exit codes, formats, config resolution."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dismed import optimizer
from dismed.cli import main
from dismed.model import split_driver

from fixture_defs import fixture_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_fixture(capsys, fixtures_dir):
    code, out, _ = run(capsys, "decide", str(fixtures_dir / "all_satisfied_buyer.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["buyer_disintermediates"] == "Satisfied"
    assert payload["scenario"] == "all_satisfied_buyer"
    assert payload["reports"]["buyer"]["verdicts"][4]["id"] == "B5"


def test_validate_ok(capsys, fixtures_dir):
    code, out, _ = run(capsys, "validate", str(fixtures_dir / "all_three_satisfied.json"))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_validate_bad_commission(capsys, fixtures_dir):
    code, out, err = run(capsys, "validate", str(fixtures_dir / "bad_c.json"))
    assert code == 2
    assert "CommissionOutOfRange" in err
    assert json.loads(out)["ok"] is False


def test_decide_bad_scenario_exits_2(capsys, fixtures_dir):
    code, _, err = run(capsys, "decide", str(fixtures_dir / "bad_c.json"))
    assert code == 2
    assert "CommissionOutOfRange" in err


@pytest.mark.parametrize("argv", [["decide", "all_three_satisfied.json"],
                                  ["validate", "bad_c.json"]], ids=["decide", "validate"])
@pytest.mark.parametrize("target", ["missing directory", "directory"])
def test_unwritable_out_exits_2(capsys, fixtures_dir, tmp_path, argv, target):
    out = tmp_path / "missing" / "x.json" if target == "missing directory" else tmp_path
    code, stdout, err = run(capsys, argv[0], str(fixtures_dir / argv[1]), "--out", str(out))
    assert code == 2 and stdout == ""
    assert f"cannot write output file {out}" in err and "internal error" not in err


def test_unknown_field_exits_2(capsys, tmp_path):
    data = fixture_dict("x")
    data["zeta"] = 3
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "decide", str(path))
    assert code == 2 and "zeta" in err


def test_conditions_csv(capsys, fixtures_dir, tmp_path):
    out_path = tmp_path / "report.csv"
    code, _, _ = run(capsys, "conditions", str(fixtures_dir / "all_three_satisfied.json"),
                     "--set", "seller", "--format", "csv", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("id,status,lhs_lower")
    assert len(lines) == 1 + 18
    assert lines[1].startswith("S1,Satisfied")


def test_optimize_and_exit_codes(capsys, fixtures_dir, tmp_path):
    code, out, _ = run(capsys, "optimize", str(fixtures_dir / "broker_opt.json"),
                       "--bounds", str(fixtures_dir / "bounds_bi.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert abs(payload["decision"]["B_i"] - 2.0) < 1e-3

    code, out, err = run(capsys, "optimize", str(fixtures_dir / "broker_opt.json"),
                         "--bounds", str(fixtures_dir / "bounds_infeasible.json"))
    assert code == 3
    assert json.loads(out)["feasible"] is False
    assert "infeasible" in err


@pytest.mark.parametrize("command", ["optimize", "pareto"])
def test_box_where_every_start_scores_minus_inf_is_infeasible(capsys, fixtures_dir, tmp_path,
                                                              command):
    # commission covers the box, but RC_br(B_i) = -4.25 + 5 B_i - B_i^2
    # overflows to -inf at B_i = -1e308, so no start scores above -inf
    bounds = tmp_path / "bounds.json"
    bounds.write_text(json.dumps({"B_b": [0, 0], "B_s": [0, 0], "B_i": [-1e308, -1e308],
                                  "B_n": [0, 0]}))
    start = time.perf_counter()
    code, out, err = run(capsys, command, str(fixtures_dir / "broker_opt.json"),
                         "--bounds", str(bounds))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "infeasible" in err and "commission" not in err and "internal error" not in err
    if command == "pareto":
        assert json.loads(out) == []
    else:
        assert json.loads(out) == {"feasible": False, "objective": None, "iterations": 9,
                                   "mode": "combined", "decision": None}


def test_pareto_csv_and_infeasible(capsys, fixtures_dir, tmp_path):
    out_path = tmp_path / "front.csv"
    code, _, _ = run(capsys, "pareto", str(fixtures_dir / "broker_opt.json"),
                     "--bounds", str(fixtures_dir / "bounds_bi.json"),
                     "--points", "5", "--format", "csv", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "cost,capital,B_b,B_s,B_i,B_n,state"
    assert len(lines) > 1

    code, _, _ = run(capsys, "pareto", str(fixtures_dir / "broker_opt.json"),
                     "--bounds", str(fixtures_dir / "bounds_infeasible.json"),
                     "--format", "csv", "--out", str(out_path))
    assert code == 3
    assert out_path.read_text() == "cost,capital,B_b,B_s,B_i,B_n,state\n"


def test_sweep_deterministic_bytes(capsys, fixtures_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out_path in (a, b):
        code, _, _ = run(capsys, "sweep", str(fixtures_dir / "all_satisfied_buyer.json"),
                         "--dist", str(fixtures_dir / "point_dist.json"),
                         "-n", "5", "--seed", "7", "--out", str(out_path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["per_set"]["buyer"]["satisfied_rate"] == 1.0


def test_sweep_csv_rows(capsys, fixtures_dir, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", str(fixtures_dir / "all_satisfied_buyer.json"),
                     "--dist", str(fixtures_dir / "rho_dist.json"),
                     "-n", "8", "--seed", "1", "--format", "csv",
                     "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "id,frequency,indeterminate_rate"
    assert len(lines) == 1 + 44


def test_sensitivity_cli(capsys, fixtures_dir):
    code, out, _ = run(capsys, "sensitivity", str(fixtures_dir / "all_three_satisfied.json"),
                       "--condition", "B5", "--param", "psi_b")
    assert code == 0
    payload = json.loads(out)
    assert payload["condition"] == "B5"
    assert payload["margin"] == pytest.approx(0.1)


def test_sensitivity_csv_bytes(capsys, fixtures_dir):
    code, out, _ = run(capsys, "sensitivity", str(fixtures_dir / "all_three_satisfied.json"),
                       "--condition", "B5", "--param", "psi_b", "--format", "csv")
    assert code == 0
    assert out == ("condition,parameter,status,margin,elasticity,delta_to_flip,rel_step\n"
                   "B5,psi_b,Satisfied,0.09999999999999964,50.00000000000018,"
                   "-0.0999999999999992,0.05\n")


@pytest.mark.parametrize("command, args, names", [
    # B8 is Indeterminate at base without links: IndeterminateAtBase
    ("sensitivity", ["--condition", "B8", "--param", "psi_bi"], "B8"),
    # every draw of c lies outside (0, 1): RejectionLimit
    ("sweep", ["--dist", {"marginals": {"c": {"kind": "uniform", "lo": 1.5, "hi": 2.0}}},
               "-n", "2", "--seed", "8"], "rejections"),
    # no capital link: MissingCapitalResponse
    ("optimize", ["--bounds", {f: [0.0, 1.0] for f in ("B_b", "B_s", "B_i", "B_n")}],
     "SC_br"),
], ids=["sensitivity", "sweep", "optimize"])
def test_user_caused_errors_exit_2(capsys, tmp_path, command, args, names):
    data = fixture_dict("bare")
    data["responses"] = []
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(data))
    argv = []
    for k, arg in enumerate(args):
        if isinstance(arg, dict):  # an input file
            arg_path = tmp_path / f"arg{k}.json"
            arg_path.write_text(json.dumps(arg))
            arg = str(arg_path)
        argv.append(arg)
    code, out, err = run(capsys, command, str(path), *argv)
    assert code == 2 and out == ""
    assert names in err and "internal error" not in err


def test_config_file_and_env(capsys, fixtures_dir, tmp_path, monkeypatch):
    code, out, _ = run(capsys, "decide", str(fixtures_dir / "all_three_satisfied.json"),
                       "--config", str(fixtures_dir / "config_quorum.json"))
    assert code == 0
    assert json.loads(out)["reports"]["buyer"]["config"]["aggregation"] == "quorum"

    monkeypatch.setenv("DISMED_CONFIG", str(fixtures_dir / "config_quorum.json"))
    code, out, _ = run(capsys, "decide", str(fixtures_dir / "all_three_satisfied.json"))
    assert json.loads(out)["reports"]["buyer"]["config"]["aggregation"] == "quorum"

    other = tmp_path / "conj.json"
    other.write_text(json.dumps({"aggregation": "conjunction"}))
    code, out, _ = run(capsys, "decide", str(fixtures_dir / "all_three_satisfied.json"),
                       "--config", str(other))
    assert json.loads(out)["reports"]["buyer"]["config"]["aggregation"] == "conjunction"


def test_bad_config_exits_2(capsys, fixtures_dir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"aggregation": "sometimes"}))
    code, _, err = run(capsys, "decide", str(fixtures_dir / "all_three_satisfied.json"),
                       "--config", str(bad))
    assert code == 2 and "aggregation" in err


@pytest.mark.parametrize("text", ['{"fd_step_scale": NaN}', '{"rel_tol": NaN}',
                                  '{"rel_tol": "0.1"}',
                                  pytest.param('{"zero_tol": 1%s}' % ("0" * 400),
                                               id="int too large for a float")])
def test_non_finite_or_mistyped_config_exits_2(capsys, fixtures_dir, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(capsys, "decide", str(fixtures_dir / "all_three_satisfied.json"),
                         "--config", str(bad))
    assert code == 2 and out == ""
    assert "must be a finite number" in err


def test_string_coefficient_exits_2(capsys, tmp_path):
    data = fixture_dict("x")
    data["responses"][0]["coeffs"] = [str(c) for c in data["responses"][0]["coeffs"]]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "decide", str(path))
    assert code == 2 and "coeffs[0] must be a number" in err


def test_decide_csv_format(capsys, fixtures_dir):
    code, out, _ = run(capsys, "decide", str(fixtures_dir / "all_three_satisfied.json"),
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "set,id,status"
    assert "buyer,aggregate,Satisfied" in lines
    assert len(lines) == 1 + 3 + 44


def test_validate_csv_format(capsys, fixtures_dir):
    code, out, _ = run(capsys, "validate", str(fixtures_dir / "bad_c.json"),
                       "--format", "csv")
    assert code == 2
    lines = out.strip().splitlines()
    assert lines[0] == "code,message"
    assert lines[1].startswith("CommissionOutOfRange")


def _long_integer_json(fixtures_dir) -> bytes:
    text = (fixtures_dir / "all_three_satisfied.json").read_text(encoding="utf-8")
    return text.replace('"psi_b": 5.0', '"psi_b": ' + "7" * 5000).encode("utf-8")


@pytest.mark.parametrize("role", ["scenario", "config"])
def test_file_that_is_not_utf8_exits_2(capsys, fixtures_dir, tmp_path, role):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"P": \xff}')
    scenario = bad if role == "scenario" else fixtures_dir / "all_three_satisfied.json"
    argv = ["decide", str(scenario)] + (["--config", str(bad)] if role == "config" else [])
    code, _, err = run(capsys, *argv)
    assert code == 2 and "not UTF-8" in err


@pytest.mark.parametrize("role", ["scenario", "bounds"])
def test_integer_too_long_to_convert_exits_2(capsys, fixtures_dir, tmp_path, role):
    bad = tmp_path / "long.json"
    if role == "scenario":
        bad.write_bytes(_long_integer_json(fixtures_dir))
        argv = ["decide", str(bad)]
    else:
        bad.write_text('{"B_b": [0, ' + "7" * 5000 + "]}")
        argv = ["optimize", str(fixtures_dir / "broker_opt.json"), "--bounds", str(bad)]
    code, _, err = run(capsys, *argv)
    assert code == 2 and "malformed JSON" in err


@pytest.mark.parametrize("command", ["optimize", "pareto"])
@pytest.mark.parametrize("pair", ['["0.5", 3]', "[0, true]", "[null, 3]",
                                  "[0, " + "7" * 400 + "]"],
                         ids=["string", "bool", "null", "long integer"])
def test_non_numeric_bound_exits_2(capsys, fixtures_dir, tmp_path, command, pair):
    bounds = tmp_path / "bounds.json"
    bounds.write_text('{"B_b": [0, 0], "B_s": [0, 0], "B_i": ' + pair + ', "B_n": [0, 0]}')
    code, out, err = run(capsys, command, str(fixtures_dir / "broker_opt.json"),
                         "--bounds", str(bounds))
    assert code == 2 and out == "" and "bounds.B_i[" in err


@pytest.mark.parametrize("command", ["optimize", "pareto"])
def test_bounds_whose_width_overflows_exit_2(capsys, fixtures_dir, tmp_path, command):
    bounds = tmp_path / "bounds.json"
    bounds.write_text('{"B_b": [0, 0], "B_s": [0, 0], "B_i": [-1e308, 1e308], "B_n": [0, 0]}')
    code, out, err = run(capsys, command, str(fixtures_dir / "broker_opt.json"),
                         "--bounds", str(bounds))
    assert code == 2 and out == "" and "bounds for B_i need a finite hi - lo" in err


@pytest.mark.parametrize("command", ["optimize", "pareto"])
def test_free_widths_far_apart_exit_2_at_once(capsys, fixtures_dir, tmp_path, command):
    # a trade move shifts B_i by B_b's or B_n's step: searched, this box runs
    # every start to MAX_ITER (700,062 iterations for optimize)
    bounds = tmp_path / "bounds.json"
    bounds.write_text('{"B_b": [0, 1e-12], "B_s": [0, 0], "B_i": [0, 3], "B_n": [0, 1e-251]}')
    start = time.perf_counter()
    code, out, err = run(capsys, command, str(fixtures_dir / "broker_opt.json"),
                         "--bounds", str(bounds))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "free bounds widths may differ by a factor of at most 1000" in err


_ZERO_DECISION = """{
    "B_b": 0.0,
    "B_s": 0.0,
    "B_i": 0.0,
    "B_n": 0.0,
    "state": "E_m"
  }"""


@pytest.mark.parametrize("argv, payload", [
    # every start counts MAX_ITER iterations, as the search did before it stopped early
    (["optimize"], '{\n  "feasible": true,\n  "objective": -2.75,\n  "iterations": 900000,\n'
                   '  "mode": "combined",\n  "decision": ' + _ZERO_DECISION + "\n}\n"),
    (["pareto", "--points", "3"],
     '[\n  {\n    "cost": 0.0,\n    "capital": -2.75,\n    "decision": '
     + _ZERO_DECISION.replace("\n", "\n  ") + "\n  }\n]\n"),
], ids=["optimize", "pareto"])
def test_subnormal_width_stops_once_the_steps_are_zero(capsys, fixtures_dir, tmp_path, argv,
                                                       payload):
    # B_i's width 5e-324: its first step rounds to 0 and TOL_FRAC * width is 0 too
    bounds = tmp_path / "bounds.json"
    bounds.write_text('{"B_b": [0, 0], "B_s": [0, 0], "B_i": [0, 5e-324], "B_n": [0, 0]}')
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], str(fixtures_dir / "broker_opt.json"),
                         "--bounds", str(bounds), *argv[1:])
    assert time.perf_counter() - start < 1.0
    assert code == 0, err
    assert out == payload


@pytest.mark.parametrize("marginal", [
    '{"kind": "uniform", "lo": "0.1", "hi": true}',
    '{"kind": "normal", "mean": 1.0, "sd": Infinity}',
])
def test_sweep_with_non_numeric_or_infinite_marginal_exits_2(capsys, fixtures_dir, tmp_path,
                                                             marginal):
    dist_path = tmp_path / "dist.json"
    dist_path.write_text('{"marginals": {"SC_b": ' + marginal + "}}")
    code, out, err = run(capsys, "sweep", str(fixtures_dir / "all_three_satisfied.json"),
                         "--dist", str(dist_path), "-n", "5", "--seed", "1")
    assert code == 2 and out == "" and "marginal" in err


def test_sweep_with_overflowing_uniform_range_exits_2(capsys, fixtures_dir, tmp_path):
    dist_path = tmp_path / "dist.json"
    dist_path.write_text('{"marginals": {"P": {"kind": "uniform", "lo": -1e308, "hi": 1e308}}}')
    code, out, err = run(capsys, "sweep", str(fixtures_dir / "all_three_satisfied.json"),
                         "--dist", str(dist_path), "-n", "5", "--seed", "1")
    assert code == 2 and out == "" and "uniform marginal needs a finite hi - lo" in err


@pytest.mark.parametrize("command", ["validate", "decide"])
def test_a_driver_spelled_with_spaces_exits_2(capsys, fixtures_dir, tmp_path, command):
    # the spaces once validated, and decide missed the links: B10, B11, B18 and
    # B19 were Indeterminate, with "missing response (I_i, U_ip+U_iw)"
    data = json.loads((fixtures_dir / "all_three_satisfied.json").read_text())
    spaced = [r for r in data["responses"] if r["driver"] == "U_ip+U_iw"]
    assert len(spaced) == 4
    for r in spaced:
        r["driver"] = "U_ip + U_iw"
    path = tmp_path / "spaced.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and "internal error" not in err
    assert err.count("ResponseDriverSpelling") == 4
    if command == "validate":
        assert "driver must be written 'U_ip+U_iw'" in out


@pytest.mark.parametrize("command", ["validate", "decide"])
@pytest.mark.parametrize("field", ["label", "driven"])
def test_lone_surrogate_escape_exits_2(capsys, tmp_path, command, field):
    data = fixture_dict("x")
    if field == "label":
        data["label"] = "x\udc80"
    else:
        data["responses"][0]["driven"] = "\ud800"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data), encoding="utf-8")  # ASCII, with \udc80 escapes
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert "lone surrogate" in err and "internal error" not in err


# Valid inputs with results that are undefined in floating point (an
# overflowing h ** 3, a time path shorter than the horizon): the command
# exits 0, and the verdict is Indeterminate with a note that says why.

def _large_price_scenario(fixtures_dir, tmp_path) -> Path:
    """The fixture with P = 1e106 and every link that reads P dropped: B12's
    d3 P_b/dP3 step h = 1e103 has no finite cube."""
    data = json.loads((fixtures_dir / "all_three_satisfied.json").read_text())
    data["P"] = 1e106
    data["responses"] = [r for r in data["responses"]
                         if "P" not in (r["driven"], *split_driver(r["driver"]))]
    path = tmp_path / "large_price.json"
    path.write_text(json.dumps(data))
    return path


def test_overflowing_difference_step_is_indeterminate(capsys, fixtures_dir, tmp_path):
    code, out, err = run(capsys, "decide", str(_large_price_scenario(fixtures_dir, tmp_path)))
    assert code == 0, err
    b12 = json.loads(out)["reports"]["buyer"]["verdicts"][11]
    assert b12["id"] == "B12" and b12["status"] == "Indeterminate"
    assert b12["parts"][0]["lhs"] == [None, None]
    assert [n for n in b12["notes"] if n.startswith("difference step along P overflows")]


def test_underflowing_difference_step_is_indeterminate(capsys, fixtures_dir, tmp_path):
    # fd_step_scale 1e-110: B11's 2 h ** 3 underflows to 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fd_step_scale": 1e-110}))
    code, out, err = run(capsys, "decide", str(fixtures_dir / "all_three_satisfied.json"),
                         "--config", str(config))
    assert code == 0, err
    b11 = json.loads(out)["reports"]["buyer"]["verdicts"][10]
    assert b11["id"] == "B11" and b11["status"] == "Indeterminate"
    assert [p["lhs"] for p in b11["parts"]] == [[None, None], [None, None]]
    assert b11["notes"] == ["difference step along U_ip+U_iw underflows (h = 5e-110)",
                            "difference step along U_a underflows (h = 4e-110)"]


def test_sweep_with_overflowing_difference_steps_exits_0(capsys, fixtures_dir, tmp_path):
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"marginals": {"P": {"kind": "uniform", "lo": 1e105,
                                                    "hi": 1e107}}}))
    code, out, err = run(capsys, "sweep", str(_large_price_scenario(fixtures_dir, tmp_path)),
                         "--dist", str(dist), "-n", "16", "--seed", "3")
    assert code == 0, err
    assert json.loads(out)["per_condition"]["B12"]["indeterminate_rate"] == 1.0


def test_time_path_shorter_than_the_horizon_is_indeterminate(capsys, fixtures_dir, tmp_path):
    data = json.loads((fixtures_dir / "all_three_satisfied.json").read_text())
    data["time_paths"] = [{"symbol": "P", "kind": "samples", "times": [0.0, 0.5, 1.0],
                           "values": [10.0, 10.5, 11.0]}]
    path, config = tmp_path / "short_path.json", tmp_path / "config.json"
    path.write_text(json.dumps(data))
    config.write_text(json.dumps({"horizon_T": 2.0}))
    code, out, err = run(capsys, "decide", str(path), "--config", str(config))
    assert code == 0, err
    s13 = json.loads(out)["reports"]["seller"]["verdicts"][12]
    assert s13["id"] == "S13" and s13["status"] == "Indeterminate"
    assert "time path for P covers [0.0, 1.0], needs [0, 2.0]" in s13["notes"]


def test_readme_demos_run(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for demo in ("demo_decide.py", "demo_sweep.py", "demo_frontier.py"):
        done = subprocess.run([sys.executable, str(root / "scripts" / demo)], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, (demo, done.stderr)


def test_pareto_takes_max_pareto_points_levels(capsys, fixtures_dir, monkeypatch):
    searched = []

    def no_search(f, ok, lows, highs, cfg, stream):
        searched.append(stream)
        return None, float("-inf"), 0

    monkeypatch.setattr(optimizer, "_best_of_restarts", no_search)
    code, out, err = run(capsys, *[a.format(f=fixtures_dir) for a in _PARETO],
                         "--points", str(optimizer.MAX_PARETO_POINTS))
    assert code == 3 and "empty frontier" in err
    assert len(searched) == optimizer.MAX_PARETO_POINTS


def test_commands_that_do_not_sweep_never_import_the_batch_path():
    probe = ("import sys, dismed.cli; "
             "sys.exit('dismed.batch' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", probe]).returncode == 0


_SENSITIVITY = ["sensitivity", "{f}/all_three_satisfied.json", "--param", "psi_b"]
_PARETO = ["pareto", "{f}/broker_opt.json", "--bounds", "{f}/bounds_bi.json"]
_SWEEP = ["sweep", "{f}/all_three_satisfied.json", "--dist", "{f}/rho_dist.json"]


@pytest.mark.parametrize("argv", [
    [*_SENSITIVITY, "--condition", "Z9"],
    [*_SENSITIVITY, "--condition", "B99"],
    [*_SENSITIVITY, "--condition", "Bx"],
    [*_SENSITIVITY, "--condition", "B5", "--rel-step", "0.7"],
    [*_PARETO, "--points", "1"],
    [*_PARETO, "--points", str(optimizer.MAX_PARETO_POINTS + 1)],
    [*_SWEEP, "--seed", "1", "-n", "0"],
    [*_SWEEP, "-n", "5", "--seed", "-1"],
    [*_SWEEP, "-n", "5", "--seed", "1", "--workers", "0"],
], ids=lambda argv: " ".join(argv[-2:]))
def test_bad_argument_values_are_usage_errors(capsys, fixtures_dir, argv):
    flag, value = argv[-2:]
    with pytest.raises(SystemExit) as exc:
        main([a.format(f=fixtures_dir) for a in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {flag}: {value!r} is not" in captured.err


_PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv:
    from dismed.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
else:
    import dismed
print(json.dumps([m for m in json.loads(sys.argv[2]) if m in sys.modules]))
"""


@pytest.mark.parametrize("argv", [
    [],  # a bare ``import dismed``
    ["validate", "{f}/all_three_satisfied.json"],
    ["decide", "{f}/all_three_satisfied.json"],
    ["conditions", "{f}/all_three_satisfied.json", "--set", "seller"],
    [*_SENSITIVITY, "--condition", "B5"],
    [*_SENSITIVITY, "--condition", "B5", "--format", "csv"],
], ids=["import-dismed", "validate", "decide", "conditions", "sensitivity", "sensitivity-csv"])
def test_scalar_commands_never_import_the_engines_they_do_not_run(fixtures_dir, argv):
    argv = [a.format(f=fixtures_dir) for a in argv]
    watched = ["numpy", "concurrent.futures", "dismed.optimizer", "dismed.batch",
               "dismed.simulate", "dismed.streams", "dataclasses", "inspect"]
    done = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv), json.dumps(watched)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    # sensitivity runs in simulate, on its scalar path
    assert json.loads(done.stdout) == (["dismed.simulate"] if argv[:1] == ["sensitivity"] else [])


_OPTIMIZE = ["optimize", "{f}/broker_opt.json", "--bounds", "{f}/bounds_bi.json"]


@pytest.mark.parametrize("argv", [_OPTIMIZE, _PARETO], ids=["optimize", "pareto"])
def test_optimize_and_pareto_never_import_numpy(fixtures_dir, argv):
    argv = [a.format(f=fixtures_dir) for a in argv]
    watched = ["numpy", "dismed.streams", "dismed.batch", "dismed.simulate",
               "concurrent.futures", "dataclasses", "inspect"]
    done = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv), json.dumps(watched)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_importing_the_optimizer_leaves_numpy_out():
    probe = "import sys, dismed.optimizer; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe]).returncode == 0
