"""Command-line interface: every subcommand, exit codes, and determinism."""

import hashlib
import json
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from jetalg import cli, multipoly
from jetalg.cli import main
from jetalg.suites import SUITE_IDS

P1_ATLAS_FILE = str(Path(__file__).resolve().parent.parent / "src" / "jetalg" / "charts" / "p1.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_err(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


# -- validate


def test_validate_builtins(capsys):
    code, out = run(capsys, "validate", "--chart", "affine2", "--chart",
                    "elliptic", "--atlas", "p1")
    assert code == 0
    assert "affine2: ok" in out
    assert "atlas p1: ok" in out


def test_validate_bad_chart_exits_1(capsys, tmp_path):
    fn = tmp_path / "bad.json"
    fn.write_text(json.dumps({
        "name": "bad", "params": ["x"],
        "gens": [{"name": "y", "degree": 2, "rhs": "x^3"}],
        "denominator": "1",
    }))
    code, out = run(capsys, "validate", "--chart", str(fn))
    assert code == 1


def test_validate_bad_atlas_exits_1(capsys, tmp_path):
    fn = tmp_path / "bad_atlas.json"
    fn.write_text(json.dumps({
        "name": "bad",
        "charts": [
            {"name": "c", "params": ["x"], "gens": [], "denominator": "x"},
            {"name": "line", "params": ["t"], "gens": [], "denominator": "1"},
        ],
        "transitions": [{
            "from": "c", "to": "c", "overlap": "c",
            "G": ["x"], "H": ["x"],
            "x_of_y": {"chart": "line", "exprs": ["t^2"]},
            "y_of_x": {"chart": "line", "exprs": ["t"]},
        }],
    }))
    code, out = run(capsys, "validate", "--atlas", str(fn))
    assert code == 1


BAD_CHART = {"name": "bad", "params": ["x"],
             "gens": [{"name": "y", "degree": 2, "rhs": "x^3"}],
             "denominator": "1"}


def test_validate_reports_every_target_when_one_fails(capsys, tmp_path):
    # every refusal, at load time or in the checks, is a FAILED line under
    # the label given (the name, once the file is loaded), next to the
    # lines that pass
    def written(name, data):
        fn = tmp_path / name
        fn.write_text(data if isinstance(data, str) else json.dumps(data))
        return str(fn)

    bad = written("bad.json", BAD_CHART)
    bad_atlas = written("bad_atlas.json", {"name": "a", "charts": [BAD_CHART]})
    schema = written("schema.json", _chart_file(extra=1))
    deep = written("deep.json", "[" * 200000)
    wide = json.loads(json.dumps(JACOBIAN))  # a Jacobian of 6021 digits
    wide["transitions"][0]["G"] = ["2^20000*x^2 + x"]
    wide = written("wide.json", wide)
    reason = "generator y must divide the denominator"
    for targets, failed in [
        (["--chart", bad, "--atlas", bad_atlas],
         [f"chart {bad}: FAILED ({reason})", f"atlas {bad_atlas}: FAILED ({reason})"]),
        (["--chart", schema, "--chart", "nosuch", "--atlas", deep],
         [f"chart {schema}: FAILED (extra: unknown field)",
          "chart nosuch: FAILED (nosuch: not a built-in chart name or a readable file)",
          f"atlas {deep}: FAILED ({deep}: JSON nested too deeply)"]),
        (["--atlas", wide],
         ["atlas bad: FAILED (cannot print an integer of more than 4300 digits)"]),
    ]:
        argv = ["validate", "--chart", "affine2", *targets]
        lines = ["chart affine2: ok", *failed]
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out.splitlines(), err) == (1, lines, "")
        code, data = run_json(capsys, *argv)
        assert code == 1 and data == {"results": lines, "ok": False}


@pytest.mark.parametrize("where,path", [
    (("G",), "transitions[0].G[0]"),
    (("H",), "transitions[0].H[0]"),
    (("x_of_y", "exprs"), "transitions[0].x_of_y.exprs[0]"),
])
@pytest.mark.parametrize("value", [3, None])
def test_non_string_atlas_expression_exits_2(capsys, tmp_path, where, path, value):
    from jetalg.fixtures import STANDARD_ATLASES

    data = json.loads(json.dumps(STANDARD_ATLASES["p1_pair"]))
    entry = data["transitions"][0]
    for key in where:
        entry = entry[key]
    entry[0] = value
    fn = tmp_path / "atlas.json"
    fn.write_text(json.dumps(data))
    code, err = run_err(capsys, *_read_atlas(str(fn)))
    assert code == 2
    assert err == f"error: {path}: expected str, got {type(value).__name__}\n"


def test_unknown_chart_exits_2(capsys):
    code, _ = run(capsys, "jet", "--chart", "nonsense", "--expr", "x",
                  "--order", "2")
    assert code == 2


# -- pointwise commands


def test_jet_command(capsys):
    code, data = run_json(capsys, "jet", "--chart", "loc_x", "--expr", "1/x",
                          "--order", "2")
    assert code == 0
    assert data["kind"] == "jet"
    assert data["order"] == 2
    assert len(data["coeffs"]) == 3
    # a value that starts with '-' takes the --opt=value form
    assert run(capsys, "jet", "--chart", "loc_x", "--expr=-x", "--order", "1") == (
        0, "(-x) + (-1)*t\n")


@pytest.mark.parametrize("params,argv,out", [
    (["t1", "t2"], ("jet", "--expr", "t2", "--order", "1"), "(t2) + (1)*tt2"),
    (["t"], ("jet", "--expr", "t^2", "--order", "1"), "(t^2) + (2*t)*tt"),
    (["X"], ("phi", "--field", "1 # X^2", "--order", "2"),
     "((X^2)*d/dX ; (2*X)*XX*d/dXX + (1)*XX^2*d/dXX)"),
    (["X"], ("av-map", "--word", "v X", "--order", "1"),
     "(1) (x) XX*d/dXX + (X)*D[1] (x) 1"),
])
def test_printed_variables_differ_from_the_chart_names(capsys, tmp_path, params,
                                                        argv, out):
    # jets print t, currents X; a chart that has such a name gets tt or XX
    fn = tmp_path / "c.json"
    fn.write_text(json.dumps({"name": "c", "params": params, "gens": [],
                              "denominator": "1"}))
    assert run(capsys, argv[0], "--chart", str(fn), *argv[1:]) == (0, out + "\n")


def test_jet_bad_expression_exits_2(capsys):
    code, _ = run(capsys, "jet", "--chart", "loc_x", "--expr", "1/(x + 1)",
                  "--order", "2")
    assert code == 2
    code, _ = run(capsys, "jet", "--chart", "loc_x", "--expr", "x +",
                  "--order", "2")
    assert code == 2


def test_jet_above_the_degree_bound_exits_2(capsys):
    # total degree is bounded by 32767 (multipoly's packed monomials)
    code, err = run_err(capsys, "jet", "--chart", "loc_x", "--expr",
                        "x^40000", "--order", "1")
    assert code == 2
    assert err.startswith("error: ") and "32767" in err
    code, out = run(capsys, "jet", "--chart", "loc_x", "--expr", "x^32767",
                    "--order", "0")
    assert code == 0 and out == "(x^32767)\n"


def test_delta_command(capsys):
    code, out = run(capsys, "delta", "--chart", "loc_x", "--expr", "x",
                    "--order", "2")
    assert code == 0
    assert "-" in out and "t" in out
    code, data = run_json(capsys, "delta", "--chart", "loc_x", "--power", "2",
                          "--order", "3")
    assert code == 0
    assert data["kind"] == "jet"


def test_bracket_command(capsys):
    code, data = run_json(capsys, "bracket", "--chart", "loc_x",
                          "--left", "1 # x", "--right", "1 # 1",
                          "--order", "2")
    assert code == 0
    assert data["kind"] == "jetfield"


def test_phi_psi_commands(capsys):
    code, data = run_json(capsys, "phi", "--chart", "loc_x",
                          "--field", "1 # x^2", "--order", "2")
    assert code == 0
    assert data["kind"] == "semidirect"
    code, data = run_json(capsys, "psi", "--chart", "loc_x", "--vf", "x",
                          "--term", "1:0:x^2", "--order", "2")
    assert code == 0
    assert data["kind"] == "jetfield"


def test_localize_command(capsys):
    code, out = run(capsys, "localize", "--chart", "loc_x", "--vf", "1",
                    "--order", "2", "--den-power", "1")
    assert code == 0
    assert "defect" in out.lower()


def test_localize_inverts_g_once(capsys, monkeypatch):
    from jetalg.charts import RingElem

    calls = []
    real = RingElem._invert
    monkeypatch.setattr(RingElem, "_invert",
                        lambda self: calls.append(self) or real(self))
    code, _ = run(capsys, "localize", "--chart", "elliptic", "--vf", "x",
                  "--order", "3")
    assert code == 0 and len(calls) == 1


def test_dop_mul_command(capsys):
    code, data = run_json(capsys, "dop-mul", "--chart", "loc_x",
                          "--left", "1 @ 1", "--right", "x @ 0",
                          "--apply", "x^2")
    assert code == 0
    assert data["kind"] == "elem"


def test_dop_mul_skips_empty_pieces(capsys):
    assert run(capsys, "dop-mul", "--chart", "loc_x", "--left", "1 @ 1; ;",
               "--right", "x @ 0") == (0, "(1) + (x)*D[1]\n")


def test_av_map_command(capsys):
    code, data = run_json(capsys, "av-map", "--chart", "loc_x",
                          "--word", "f x | v x^2", "--order", "2")
    assert code == 0
    assert data["kind"] == "tensor"


# -- atlas commands


def test_transition_command(capsys):
    code, out = run(capsys, "transition", "--atlas", "p1_pair",
                    "--pair", "std:inf", "--monomial", "1", "--index", "0",
                    "--order", "3", "--route", "both")
    assert code == 0
    assert "agree" in out.lower()


def test_transition_missing_pair_exits_2(capsys):
    code, _ = run(capsys, "transition", "--atlas", "p1_pair",
                  "--pair", "std:shift", "--monomial", "1", "--index", "0",
                  "--order", "2")
    assert code == 2


def test_transition_index_out_of_range_exits_2(capsys):
    code, err = run_err(capsys, "transition", "--atlas", P1_ATLAS_FILE,
                        "--pair", "std:inf", "--monomial", "1",
                        "--index", "5", "--order", "2")
    assert code == 2
    assert err.startswith("error: --index 5 out of range")


def test_cocycle_index_out_of_range_exits_2(capsys):
    code, err = run_err(capsys, "cocycle", "--atlas", P1_ATLAS_FILE,
                        "--triple", "std,inf,shift", "--index", "3",
                        "--order", "2")
    assert code == 2
    assert err.startswith("error: --index 3 out of range")


def test_cocycle_command(capsys):
    code, out = run(capsys, "cocycle", "--atlas", "p1",
                    "--triple", "std,inf,shift", "--order", "3")
    assert code == 0
    assert "ok" in out.lower() or "holds" in out.lower()


def test_cocycle_command_on_one_monomial(capsys):
    code, out = run(capsys, "cocycle", "--atlas", "p1", "--triple",
                    "std,inf,shift", "--monomial", "1", "--order", "2")
    assert (code, out) == (0, "m=[1] p=0: ok\ncocycle identity: holds\n")


# -- verification driver


def test_verify_single_suite(capsys):
    code, data = run_json(capsys, "verify", "--suite", "taylor",
                          "--chart", "loc_x", "--orders", "1,2",
                          "--samples", "2", "--seed", "5")
    assert code == 0
    assert data["summary"]["failed"] == 0
    assert data["params"]["suite"] == "taylor"


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nonsense"])
    assert err.value.code == 2
    capsys.readouterr()


def test_verify_nonpositive_samples_exits_2(capsys):
    code, err = run_err(capsys, "verify", "--suite", "taylor", "--chart",
                        "loc_x", "--samples", "-1")
    assert code == 2
    assert err.startswith("error: --samples must be >= 1")


@pytest.mark.parametrize("flag,value,msg", [
    ("--samples", "101", "--samples must be >= 1 and <= 100, got 101"),
    ("--samples", "100000000", "--samples must be >= 1 and <= 100, got 100000000"),
    ("--orders", "1,17", "--orders must be distinct and at most 16, got '1,17'"),
    ("--orders", "2,1,2", "--orders must be distinct and at most 16, got '2,1,2'"),
])
def test_verify_limits_exit_2_before_any_work(capsys, monkeypatch, flag, value, msg):
    def refuse(*_args, **_kw):
        raise AssertionError("verification started")

    monkeypatch.setattr(cli, "run_verification", refuse)
    monkeypatch.setattr(cli, "_resolve_chart", refuse)
    code, err = run_err(capsys, "verify", "--suite", "pbw", flag, value)
    assert code == 2
    assert err == f"error: {msg}\n"


def test_verify_deterministic(capsys, tmp_path):
    f1 = tmp_path / "r1.json"
    f2 = tmp_path / "r2.json"
    for fn in (f1, f2):
        code = main(["verify", "--suite", "smash-bracket", "--chart",
                     "elliptic", "--orders", "1,2", "--samples", "2",
                     "--seed", "9", "--format", "json", "--out", str(fn)])
        capsys.readouterr()
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_out_writes_file(capsys, tmp_path):
    fn = tmp_path / "jet.json"
    code = main(["jet", "--chart", "loc_x", "--expr", "x^2", "--order", "2",
                 "--format", "json", "--out", str(fn)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(fn.read_text())["kind"] == "jet"


# The regression oracle: the seed-42 report of every suite, byte for byte.
SEED_42_REPORT_SHA256 = (
    "6c28334c798364fabbe27537d03476626e9ba22f50a0ebf475c45361e2fc136e"
)


def test_seed_42_report_matches_the_regression_oracle(capsys, tmp_path):
    fn = tmp_path / "report.json"
    code = main(["verify", "--suite", "all", "--seed", "42", "--format",
                 "json", "--out", str(fn)])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(fn.read_bytes()).hexdigest() == SEED_42_REPORT_SHA256


# -- input bounds: rejected before any work, exit 2, no traceback

@pytest.mark.parametrize("argv", [
    ["validate", "--atlas", "p1", "--order", "-1"],
    ["jet", "--chart", "loc_x", "--expr", "x", "--order", "-1"],
    ["delta", "--chart", "loc_x", "--expr", "x", "--order", "-3"],
    ["bracket", "--chart", "loc_x", "--left", "1 # x", "--right", "1 # 1",
     "--order", "-2"],
    ["phi", "--chart", "loc_x", "--field", "1 # x^2", "--order", "-1"],
    ["psi", "--chart", "loc_x", "--vf", "x", "--order", "-1"],
    ["localize", "--chart", "loc_x", "--vf", "1", "--order", "2", "--den-power", "-1"],
    ["localize", "--chart", "loc_x", "--vf", "1", "--order", "-2"],
    ["av-map", "--chart", "loc_x", "--word", "v x", "--order", "-1"],
    ["transition", "--atlas", "p1", "--pair", "std:inf", "--monomial", "1",
     "--order", "-1"],
    ["cocycle", "--atlas", "p1", "--triple", "std,inf,shift", "--order", "-1"],
    ["jet", "--chart", "loc_x", "--expr", "x", "--order", "two"],
])
def test_negative_order_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    flag = "--den-power" if "--den-power" in argv else "--order"
    assert f"error: argument {flag}: must be an integer >= 0" in captured.err.splitlines()[-1]


@pytest.mark.parametrize("argv", [
    ["validate", "--atlas", "p1", "--order", "17"],
    ["jet", "--chart", "elliptic", "--expr", "y", "--order", "17"],
    ["delta", "--chart", "loc_x", "--expr", "x", "--order", "300"],
    ["bracket", "--chart", "loc_x", "--left", "1 # x", "--right", "1 # 1",
     "--order", "17"],
    ["phi", "--chart", "loc_x", "--field", "1 # x^2", "--order", "17"],
    ["psi", "--chart", "loc_x", "--vf", "x", "--order", "17"],
    ["localize", "--chart", "loc_x", "--vf", "x", "--order", "2", "--den-power", "17"],
    ["localize", "--chart", "loc_x", "--vf", "x", "--order", "2", "--den-power", "8000"],
    ["localize", "--chart", "loc_x", "--vf", "1", "--order", "17"],
    ["av-map", "--chart", "loc_x", "--word", "v x", "--order", "17"],
    ["transition", "--atlas", "p1", "--pair", "std:inf", "--monomial", "1",
     "--order", "17"],
    ["cocycle", "--atlas", "p1", "--triple", "std,inf,shift", "--order", "17"],
])
def test_order_above_the_maximum_exits_2(capsys, argv):
    # every --order and --den-power is at most MAX_ORDER, the bound of
    # verify's --orders
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    flag = "--den-power" if "--den-power" in argv else "--order"
    assert captured.err.splitlines()[-1].endswith(
        f"error: argument {flag}: must be an integer >= 0 and <= {cli.MAX_ORDER}, "
        f"got {argv[-1]!r}")


@pytest.mark.parametrize("argv,mono", [
    (["dop-mul", "--chart", "loc_x", "--left", "1 @ 17", "--right", "1"], "17"),
    (["dop-mul", "--chart", "loc_x", "--left", "1 @ 5000", "--right", "1",
      "--apply", "1/x"], "5000"),
    (["dop-mul", "--chart", "affine2", "--left", "1", "--right", "x1 @ 9,8"], "9,8"),
    (["delta", "--chart", "loc_x", "--power", "17", "--order", "16"], "17"),
    (["delta", "--chart", "loc_x", "--power", "1000000", "--order", "16"],
     "1000000"),
])
def test_monomial_above_the_maximum_order_exits_2_quickly(capsys, argv, mono):
    # operator and delta-power monomials share the bound of every --order
    start = time.process_time()
    code, err = run_err(capsys, *argv)
    assert time.process_time() - start < 1.0
    assert code == 2
    assert err == (f"error: monomial {mono!r} has total degree above "
                   f"{cli.MAX_ORDER}\n")


def test_monomial_of_the_maximum_order_is_valid(capsys):
    code, out = run(capsys, "dop-mul", "--chart", "elliptic", "--left",
                    f"1 @ {cli.MAX_ORDER}", "--right", "y")
    assert code == 0 and out.startswith("(")
    code, out = run(capsys, "delta", "--chart", "affine2", "--power", "8,8",
                    "--order", str(cli.MAX_ORDER))
    assert code == 0 and out == "(1)*t1^8*t2^8\n"


def test_maximum_order_is_valid(capsys):
    code, out = run(capsys, "localize", "--chart", "elliptic", "--vf", "y",
                    "--order", str(cli.MAX_ORDER), "--den-power", str(cli.MAX_ORDER))
    assert code == 0 and out.endswith("defect matches closed form: True\n")


def test_localize_beyond_the_order_needs_order_plus_one(capsys):
    # for m > k the partial sum is already exact at order k: the defect is
    # zero and the order it needs is k + 1, not m + 1
    code, out = run(capsys, "localize", "--chart", "loc_x", "--vf", "1",
                    "--order", "2", "--den-power", "5")
    assert code == 0
    assert out.splitlines()[1:] == [
        "closed-form defect: 0",
        "defect order: 3 (needs >= 3)",
        "defect matches closed form: True",
    ]


def test_order_zero_is_valid(capsys):
    code, out = run(capsys, "bracket", "--chart", "loc_x", "--left", "1 # x",
                    "--right", "1 # 1", "--order", "0")
    assert code == 0 and out == "[(-1)]*d/dx\n"


@pytest.mark.parametrize("atlas", ["p1", "p1_pair"])
def test_validate_at_order_zero(capsys, atlas):
    # at order 0 the inverse check H_q(G(y+Y)) = H_q + Y_q truncates to H_q = H_q
    code, out = run(capsys, "validate", "--atlas", atlas, "--order", "0")
    assert code == 0 and f"atlas {atlas}: ok" in out


@pytest.mark.parametrize("expr", [
    "(" * 3000 + "x" + ")" * 3000,
    "-" * 3000 + "x",
    "+".join(["x"] * 3000),
])
def test_deep_nesting_exits_2_quickly(capsys, expr):
    start = time.process_time()
    code, err = run_err(capsys, "jet", "--chart", "loc_x", "--expr=" + expr,
                        "--order", "1")
    assert time.process_time() - start < 1.0
    assert code == 2
    assert err.startswith("error: expression nested too deeply")


def test_large_first_power_is_not_a_nesting_error(capsys):
    # g^1500 is built by a loop, so no RecursionError reaches the parser
    code, out = run(capsys, "jet", "--chart", "loc_x", "--expr", "inv(x)^1500 + x",
                    "--order", "1")
    assert code == 0
    assert out == "((x^1501 + 1)/(x)^1500) + ((x^1501 - 1500)/(x)^1501)*t\n"


def test_power_beyond_the_degree_bound_exits_2_quickly(capsys):
    start = time.process_time()
    code, err = run_err(capsys, "jet", "--chart", "loc_x", "--expr", "(x+1)^100000",
                        "--order", "1")
    assert time.process_time() - start < 1.0
    assert code == 2
    assert err == "error: total degree 100000 exceeds the bound 32767\n"


# Built-in chart files named by path: each call loads a fresh chart, so no
# power cache filled by an earlier test changes the work a call does.
CHART_FILES = {name: str(Path(P1_ATLAS_FILE).parent / f"{name}.json")
               for name in ("loc_x", "elliptic")}
BUDGET = f"work budget of {multipoly.WORK_BUDGET} units exceeded"
DIGITS = "cannot print an integer of more than 4300 digits"


def run_fresh(capsys, chart, expr):
    """jet --order 1 of expr on a fresh chart: (exit code, stdout, stderr,
    seconds), the seconds of CPU time this process spent, which the load of
    other processes on the machine does not inflate."""
    start = time.process_time()
    code = main(["jet", "--chart", CHART_FILES[chart], "--expr=" + expr, "--order", "1"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, time.process_time() - start


@pytest.mark.parametrize("expr,msg", [
    pytest.param("2^100000", DIGITS, id="2^100000-100000"),
    pytest.param("2^1000000000", BUDGET, id="2^1000000000-1000000000"),
    pytest.param("2^4096*2^4096*2^4096*2^4096", DIGITS, id="2^16384"),
    pytest.param("(1/7)^1000000000", BUDGET, id="(1/7)^1000000000"),
])
def test_constant_power_beyond_the_bit_bound_exits_2_quickly(capsys, expr, msg):
    # a constant too long to print is refused at output, one too long to
    # build by the work meter, which charges a product of denominators too
    code, out, err, seconds = run_fresh(capsys, "loc_x", expr)
    assert seconds < 1.0
    assert (code, out, err) == (2, "", f"error: {msg}\n")


@pytest.mark.parametrize("chart,expr,msg", [
    pytest.param("elliptic", "y^100000", BUDGET, id="elliptic-y^100000"),
    pytest.param("loc_x", "(1048576*x+1)^800", BUDGET, id="loc_x-(1048576*x+1)^800"),
    pytest.param("elliptic", "y^20000", BUDGET, id="elliptic-y^20000"),
    pytest.param("elliptic", "inv(y)^20000 + 1", BUDGET, id="elliptic-inv(y)^20000 + 1"),
    pytest.param("elliptic", "inv(y)^100000 + 1",
                 "a factor of the denominator would pass the exponent bound 32767",
                 id="elliptic-inv(y)^100000 + 1"),
    pytest.param("elliptic", "y^3000", BUDGET, id="elliptic-y^3000"),
    pytest.param("elliptic", "y^1000", BUDGET, id="elliptic-y^1000"),
    pytest.param("loc_x", "(x+1)^2000", BUDGET, id="loc_x-(x+1)^2000"),
    pytest.param("elliptic", "inv(y)^1000 + 1", BUDGET, id="elliptic-inv(y)^1000 + 1"),
    pytest.param("elliptic", "1/(x^1600+1)", BUDGET, id="elliptic-1/(x^1600+1)"),
    pytest.param("loc_x", "x^40000", "total degree 40000 exceeds the bound 32767",
                 id="loc_x-x^40000"),
])
def test_unbounded_power_exits_2_quickly(capsys, chart, expr, msg):
    # the work meter refuses powers, inversions and the lift of 1 to g^20000
    # within one budget; a power over g^e beyond the exponent bound, and one
    # without generators beyond the degree bound, are refused before any
    # product
    code, out, err, seconds = run_fresh(capsys, chart, expr)
    assert seconds < 1.0
    assert (code, out, err) == (2, "", f"error: {msg}\n")


@pytest.mark.parametrize("chart,expr,size,sha256", [
    pytest.param("loc_x", "(x+1)^1000", 452706,
                 "4f5380a2151fcf9f00c7ec157fa2f88c9d5715c4a8f7c8e463bd5acd4cc1c886",
                 id="loc_x-(x+1)^1000"),
    pytest.param("loc_x", "(1048576*x+1)^380", 941226,
                 "53edb5b451adca7494c0d4dd7a553959aef5a77bd207fcf4e1e88e251bba2189",
                 id="loc_x-(1048576*x+1)^380"),
    pytest.param("loc_x", "inv(x)^1500 + x", 55,
                 "2581b2dfdbe3ff303108c7857a7aa21d2e199a5663bdbcaaaab16e4e87b74b8d",
                 id="loc_x-inv(x)^1500 + x"),
    pytest.param("loc_x", "x^32767", 30,
                 "9fba5516193b8125f0bc22e517cdda381c4b1f819aa1efa08f667dd0efa99bff",
                 id="loc_x-x^32767"),
])
def test_powers_within_the_budget_print_as_before(capsys, chart, expr, size, sha256):
    # the jets printed before the work meter, recorded by size and sha256
    code, out, err, seconds = run_fresh(capsys, chart, expr)
    assert (code, err) == (0, "")
    assert (len(out), hashlib.sha256(out.encode()).hexdigest()) == (size, sha256)
    assert seconds < 1.5


def _expressions(names, top=5000):
    """Expression text over the chart's names: literals, + - * /, powers
    with exponents up to top, inv, signs and parentheses."""
    atoms = st.one_of(st.integers(0, 10 ** 12).map(str), st.sampled_from(names))
    return st.recursive(atoms, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(" ".join),
        st.tuples(inner, st.integers(0, top)).map(lambda t: f"({t[0]})^{t[1]}"),
        inner.map(lambda e: f"inv({e})"),
        inner.map(lambda e: f"-({e})")), max_leaves=6)


@settings(deadline=None, max_examples=20,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), chart=st.sampled_from(["loc_x", "elliptic"]))
def test_any_expression_exits_0_or_2_within_its_budget(capsys, data, chart):
    expr = data.draw(_expressions(["x", "y"] if chart == "elliptic" else ["x"]))
    code, out, err, seconds = run_fresh(capsys, chart, expr)
    assert seconds < 1.5
    assert "Traceback" not in err
    if code == 0:
        assert out and not err
    else:
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1


# -- refusals: one row per message, each exits 2 with one stderr line

def _chart_file(**fields):
    """A one-generator chart file with fields replaced (None drops one)."""
    data = {"name": "c", "params": ["x"],
            "gens": [{"name": "y", "degree": 2, "rhs": "x"}], "denominator": "y"}
    data.update(fields)
    return {k: v for k, v in data.items() if v is not None}


def _gen_file(**fields):
    return _chart_file(gens=[{"name": "y", "degree": 2, "rhs": "x", **fields}])


def _p1_pair_file(edit):
    """p1_pair's atlas file with edit applied to its data."""
    from jetalg.fixtures import STANDARD_ATLASES

    data = json.loads(json.dumps(STANDARD_ATLASES["p1_pair"]))
    edit(data)
    return data


def _rename(obj, old, new):
    obj[new] = obj.pop(old)


def _line(name, param="x"):
    return {"name": name, "params": [param], "gens": [], "denominator": "1"}


def _atlas_file(charts, *pairs):
    """An atlas file over the given charts with identity transitions, one
    per (from, to, overlap) in pairs."""
    return {"name": "bad", "charts": charts, "transitions": [
        {"from": a, "to": b, "overlap": o, "G": [x], "H": [x]}
        for a, b, o, x in pairs]}


# a->b and b->c on o1, a->c on o2
TWO_OVERLAPS = _atlas_file([_line(c) for c in ("a", "b", "c", "o1", "o2")],
                           ("a", "b", "o1", "x"), ("b", "c", "o1", "x"),
                           ("a", "c", "o2", "x"))


def _read_chart(data):
    """argv of a command that reads the chart file data (and refuses it)."""
    return ("jet", "--chart", data, "--expr", "x", "--order", "0")


def _read_atlas(data):
    """argv of a command that reads the atlas file data (and refuses it)."""
    return ("transition", "--atlas", data, "--pair", "std:inf", "--monomial", "1",
            "--order", "1")


# Each row's id is its own (for the first 36, the name pytest gave the row
# from its position and message), so adding a row or re-wording a message
# renames no other row.
@pytest.mark.parametrize("argv,msg", [
    pytest.param(("transition", "--atlas", "nosuch", "--pair", "std:inf", "--monomial",
                  "1", "--order", "2"),
                 "nosuch: not a built-in atlas name or a readable file",
                 id="argv0-nosuch: not a built-in atlas name or a readable file"),
    pytest.param(("localize", "--chart", "affine2", "--vf", "1", "--order", "1"),
                 "expected 2 component(s) separated by ';', got 1",
                 id="argv1-expected 2 component(s) separated by ';', got 1"),
    pytest.param(("bracket", "--chart", "loc_x", "--left", "x", "--right", "1 # 1",
                  "--order", "1"),
                 "expected 'coefficient # v1;...;vN'",
                 id="argv2-expected 'coefficient # v1;...;vN'"),
    pytest.param(("delta", "--chart", "loc_x", "--power", "a", "--order", "1"),
                 "bad monomial 'a': expected comma-separated integers",
                 id="argv3-bad monomial 'a': expected comma-separated integers"),
    pytest.param(("delta", "--chart", "affine2", "--power", "1", "--order", "1"),
                 "monomial needs 2 non-negative exponent(s), got '1'",
                 id="argv4-monomial needs 2 non-negative exponent(s), got '1'"),
    pytest.param(("av-map", "--chart", "loc_x", "--word", "g x", "--order", "1"),
                 "each factor must start with 'f' or 'v', got 'g x'",
                 id="argv5-each factor must start with 'f' or 'v', got 'g x'"),
    pytest.param(("av-map", "--chart", "loc_x", "--word", " | ", "--order", "1"),
                 "empty word", id="argv6-empty word"),
    pytest.param(("validate",), "nothing to validate: pass --chart and/or --atlas",
                 id="argv7-nothing to validate: pass --chart and/or --atlas"),
    pytest.param(("delta", "--chart", "loc_x", "--expr", "x", "--power", "1", "--order", "1"),
                 "pass exactly one of --expr or --power",
                 id="argv8-pass exactly one of --expr or --power"),
    pytest.param(("delta", "--chart", "loc_x", "--order", "1"),
                 "pass exactly one of --expr or --power",
                 id="argv9-pass exactly one of --expr or --power"),
    pytest.param(("psi", "--chart", "loc_x", "--term", "1:0", "--order", "1"),
                 "expected 'm1,..,mN:index:expression', got '1:0'",
                 id="argv10-expected 'm1,..,mN:index:expression', got '1:0'"),
    pytest.param(("psi", "--chart", "loc_x", "--term", "2:0:x", "--order", "1"),
                 "term '2:0:x' out of range for order 1",
                 id="argv11-term '2:0:x' out of range for order 1"),
    pytest.param(("transition", "--atlas", "p1", "--pair", "std-inf", "--monomial", "1",
                  "--order", "2"),
                 "--pair must look like FROM:TO", id="argv12---pair must look like FROM:TO"),
    pytest.param(("transition", "--atlas", "p1", "--pair", "std:inf", "--monomial", "0",
                  "--order", "2"),
                 "the monomial must have positive total degree",
                 id="argv13-the monomial must have positive total degree"),
    pytest.param(("cocycle", "--atlas", "p1", "--triple", "std,inf", "--order", "2"),
                 "--triple must name three charts, comma separated",
                 id="argv14---triple must name three charts, comma separated"),
    pytest.param(("verify", "--suite", "taylor", "--orders", "0"),
                 "--orders must be positive integers, comma separated",
                 id="argv15---orders must be positive integers, comma separated"),
    pytest.param(("verify", "--orders", "1,x"),
                 "--orders must be positive integers, comma separated",
                 id="argv16---orders must be positive integers, comma separated"),
    pytest.param(("verify", "--orders", ""),
                 "--orders must be positive integers, comma separated",
                 id="argv17---orders must be positive integers, comma separated"),
    pytest.param(("verify", "--orders", "1,,2"),
                 "--orders must be positive integers, comma separated",
                 id="argv18---orders must be positive integers, comma separated"),
    pytest.param(("psi", "--chart", "loc_x", "--term", "1:a:x", "--order", "1"),
                 "expected 'm1,..,mN:index:expression', got '1:a:x'",
                 id="argv19-expected 'm1,..,mN:index:expression', got '1:a:x'"),
    # chart and atlas files (a dict is written to a file and named by path):
    # keys the schema does not name, in every kind of object
    pytest.param(_read_chart(_chart_file(gens=None, generators=[])),
                 "generators: unknown field", id="argv20-generators: unknown field"),
    pytest.param(("jet", "--chart", _chart_file(gens=None, generators=[]), "--expr", "x",
                  "--order", "1"), "generators: unknown field",
                 id="argv21-generators: unknown field"),
    pytest.param(_read_chart(_gen_file(deg=3)), "gens[0].deg: unknown field",
                 id="argv22-gens[0].deg: unknown field"),
    pytest.param(_read_atlas(_p1_pair_file(lambda d: _rename(d, "transitions", "transition"))),
                 "transition: unknown field", id="argv23-transition: unknown field"),
    pytest.param(_read_atlas(_p1_pair_file(lambda d: d["charts"][0].update(gen=[]))),
                 "charts[0].gen: unknown field", id="argv24-charts[0].gen: unknown field"),
    pytest.param(_read_atlas(_p1_pair_file(lambda d: [
                     _rename(d["transitions"][0], k, k + "_") for k in ("x_of_y", "y_of_x")])),
                 "transitions[0].x_of_y_: unknown field",
                 id="argv25-transitions[0].x_of_y_: unknown field"),
    pytest.param(_read_atlas(_p1_pair_file(
                     lambda d: d["transitions"][0]["x_of_y"].update(expr="1/t"))),
                 "transitions[0].x_of_y.expr: unknown field",
                 id="argv26-transitions[0].x_of_y.expr: unknown field"),
    # names no expression can name, and true as a degree
    pytest.param(_read_chart(_chart_file(params=[""])),
                 "params[0]: '' is not a name ([A-Za-z_][A-Za-z_0-9]*)",
                 id="argv27-params[0]: '' is not a name ([A-Za-z_][A-Za-z_0-9]*)"),
    pytest.param(_read_chart(_chart_file(params=["1x"])),
                 "params[0]: '1x' is not a name ([A-Za-z_][A-Za-z_0-9]*)",
                 id="argv28-params[0]: '1x' is not a name ([A-Za-z_][A-Za-z_0-9]*)"),
    pytest.param(_read_chart(_chart_file(params=["x y"])),
                 "params[0]: 'x y' is not a name ([A-Za-z_][A-Za-z_0-9]*)",
                 id="argv29-params[0]: 'x y' is not a name ([A-Za-z_][A-Za-z_0-9]*)"),
    pytest.param(_read_chart(_chart_file(params=["x+1"])),
                 "params[0]: 'x+1' is not a name ([A-Za-z_][A-Za-z_0-9]*)",
                 id="argv30-params[0]: 'x+1' is not a name ([A-Za-z_][A-Za-z_0-9]*)"),
    pytest.param(_read_chart(_chart_file(params=["x^2"])),
                 "params[0]: 'x^2' is not a name ([A-Za-z_][A-Za-z_0-9]*)",
                 id="argv31-params[0]: 'x^2' is not a name ([A-Za-z_][A-Za-z_0-9]*)"),
    pytest.param(_read_chart(_chart_file(params=["\u00e9"])),
                 "params[0]: '\u00e9' is not a name ([A-Za-z_][A-Za-z_0-9]*)",
                 id="argv32-params[0]: '\u00e9' is not a name ([A-Za-z_][A-Za-z_0-9]*)"),
    pytest.param(_read_chart(_gen_file(name="y 2")),
                 "gens[0].name: 'y 2' is not a name ([A-Za-z_][A-Za-z_0-9]*)",
                 id="argv33-gens[0].name: 'y 2' is not a name ([A-Za-z_][A-Za-z_0-9]*)"),
    pytest.param(_read_chart(_gen_file(degree=True)),
                 "gens[0].degree: expected int, got bool",
                 id="argv34-gens[0].degree: expected int, got bool"),
    # transitions that the atlas holds, but not over one overlap
    pytest.param(("cocycle", "--atlas", TWO_OVERLAPS, "--triple", "a,b,c", "--order", "1"),
                 "cocycle check needs all three transitions over one overlap chart",
                 id="argv35-cocycle check needs all three transitions over one overlap chart"),
    # integers too long for CPython's int-to-string limit: a literal, and a
    # value in a message
    pytest.param(("jet", "--chart", "loc_x", "--expr", "7" * 5000, "--order", "0"),
                 "integer literal of more than 4300 digits (position 0)",
                 id="literal of 5000 digits"),
    pytest.param(_read_chart(_chart_file(denominator="7" * 5000 + "*y")),
                 "integer literal of more than 4300 digits (position 0)",
                 id="literal of 5000 digits in a chart file"),
    pytest.param(("jet", "--chart", "loc_x", "--expr", "1/(2^20000*x + 1)", "--order", "0"),
                 "cannot print an integer of more than 4300 digits",
                 id="integer of 6021 digits in a message"),
    # monomials and indices are decimal digits only: no sign, no underscore
    pytest.param(("delta", "--chart", "loc_x", "--power", "1_0", "--order", "1"),
                 "bad monomial '1_0': expected comma-separated integers", id="power 1_0"),
    pytest.param(("delta", "--chart", "loc_x", "--power", " +2", "--order", "1"),
                 "bad monomial ' +2': expected comma-separated integers", id="power +2"),
    pytest.param(("dop-mul", "--chart", "loc_x", "--left", "1 @ 1_0", "--right", "1"),
                 "bad monomial '1_0': expected comma-separated integers",
                 id="operator monomial 1_0"),
    pytest.param(("transition", "--atlas", "p1", "--pair", "std:inf", "--monomial", "+1",
                  "--order", "1"),
                 "bad monomial '+1': expected comma-separated integers",
                 id="transition monomial +1"),
    pytest.param(("psi", "--chart", "loc_x", "--term", "1:0_0:x", "--order", "1"),
                 "expected 'm1,..,mN:index:expression', got '1:0_0:x'", id="term index 0_0"),
])
def test_each_refusal_exits_2_with_its_message(capsys, tmp_path, argv, msg):
    def written(i, data):
        fn = tmp_path / f"file{i}.json"
        fn.write_text(json.dumps(data))
        return str(fn)

    argv = [written(i, a) if isinstance(a, dict) else a for i, a in enumerate(argv)]
    assert run_err(capsys, *argv) == (2, f"error: {msg}\n")


@pytest.mark.parametrize("argv", [
    ("jet", "--chart", "{}", "--expr", "x", "--order", "1"),
    _read_atlas("{}"),
])
def test_deeply_nested_file_exits_2(capsys, tmp_path, argv):
    # the JSON decoder recurses once per level: a file deeper than the
    # recursion limit is a schema error, not a traceback
    fn = tmp_path / "deep.json"
    fn.write_text("[" * 200000)
    code, err = run_err(capsys, *(a.format(fn) for a in argv))
    assert (code, err) == (2, f"error: {fn}: JSON nested too deeply\n")


# G = x + x^2 over an overlap that inverts only x: the Jacobian 1 + 2x has
# no inverse there
JACOBIAN = {
    "name": "bad",
    "charts": [{"name": "c", "params": ["x"], "gens": [], "denominator": "x"}],
    "transitions": [{"from": "c", "to": "c", "overlap": "c",
                     "G": ["x + x^2"], "H": ["x"]}],
}


def test_jacobian_without_inverse_in_an_atlas_file_exits_2(capsys, tmp_path):
    # the pair is refused when a command first uses it: an input error
    fn = tmp_path / "atlas.json"
    fn.write_text(json.dumps(JACOBIAN))
    code, err = run_err(capsys, "transition", "--atlas", str(fn), "--pair",
                        "c:c", "--monomial", "1", "--order", "2")
    assert (code, err) == (2, "error: cannot invert 2*x + 1\n")


# charts a (two parameters) and b (one) with transitions over the line o
DIMENSIONS = _atlas_file(
    [{"name": "a", "params": ["x1", "x2"], "gens": [], "denominator": "1"},
     _line("b", "w"), _line("o")],
    ("a", "b", "o", "x"), ("b", "a", "o", "x"))


@pytest.mark.parametrize("argv", [
    ("transition", "--pair", "a:b", "--monomial", "1", "--order", "2"),
    ("cocycle", "--triple", "a,b,a", "--order", "1"),
    ("verify", "--suite", "transition", "--orders", "1", "--samples", "1"),
])
def test_an_atlas_whose_dimensions_differ_is_refused_wherever_it_is_read(
        capsys, tmp_path, argv):
    fn = tmp_path / "bad.json"
    fn.write_text(json.dumps(DIMENSIONS))
    code, err = run_err(capsys, *argv, "--atlas", str(fn))
    assert (code, err) == (
        2, "error: transition a->b: chart dimensions do not match the overlap\n")
    code, out = run(capsys, "validate", "--atlas", str(fn))
    assert (code, out) == (1, f"atlas {fn}: FAILED (transition a->b: chart "
                              "dimensions do not match the overlap)\n")


# -- every subcommand: exit 0, 1 only as a verdict, 2 for every refusal

# written files any command may be handed, as "{}/name" (the directory is
# filled in when the test runs)
FILES = {
    "chart.json": _chart_file(),
    "schema.json": _chart_file(extra=1),
    "names.json": _chart_file(params=["1x"]),
    "gen.json": _chart_file(name="nodiv", denominator="x"),
    "p1_pair.json": _p1_pair_file(lambda d: None),
    "renamed.json": _p1_pair_file(lambda d: _rename(d, "transitions", "transition")),
    "h.json": _p1_pair_file(lambda d: d["transitions"][0].update(H=["x"])),
    "dimensions.json": DIMENSIONS,
    "two_overlaps.json": TWO_OVERLAPS,
    "jac.json": JACOBIAN,
}
VERDICTS = {"validate", "localize", "transition", "cocycle", "verify"}
ALWAYS = {"--suite", "--orders", "--samples"}  # verify runs one cheap suite


def _pool(good, bad):
    """One of the good values, or now and then one of the bad ones."""
    return st.sampled_from(good * 3 + bad)


def _values():
    """The strategy of each option's value, by option."""
    exprs = _expressions(["x", "y", "x1"], top=50)
    monomials = _pool(["1", "2", "1,1", "0,2"], ["0", "17", "a", "-1"])
    indices = _pool(["0", "1"], ["2", "-1"])
    orders = _pool(["0", "1", "2", "3"], ["17", "x"])
    vf = st.lists(exprs, min_size=1, max_size=2).map(";".join)
    jet_field = st.tuples(exprs, vf).map(" # ".join)
    operator = st.tuples(exprs, monomials).map(" @ ".join)
    return {
        "--chart": _pool(["affine2", "loc_x", "elliptic", "{}/chart.json"],
                         ["p1", "nosuch", *("{}/" + name for name in FILES)]),
        "--atlas": _pool(["p1", "p1_pair", "{}/p1_pair.json"],
                         ["loc_x", "nosuch", *("{}/" + name for name in FILES)]),
        "--order": orders, "--den-power": orders,
        "--monomial": monomials, "--power": monomials, "--index": indices,
        "--pair": _pool(["std:inf", "inf:std"], ["a:b", "c:c", "std:nope", "std-inf"]),
        "--triple": _pool(["std,inf,shift"], ["a,b,c", "a,b,a", "c,c,c", "std,inf"]),
        "--route": st.sampled_from(["coeff", "both"]),
        "--suite": st.sampled_from(SUITE_IDS),
        "--orders": st.just("1"), "--samples": st.just("1"), "--seed": st.just("0"),
        "--expr": exprs, "--apply": exprs, "--vf": vf, "--field": jet_field,
        "--left": jet_field | operator, "--right": jet_field | operator,
        "--term": st.tuples(monomials, indices, exprs).map(":".join),
        "--word": st.lists(exprs.map("f ".__add__) | vf.map("v ".__add__),
                           max_size=3).map(" | ".join),
    }


VALUES = _values()


@st.composite
def _argv(draw):
    """A subcommand of cli.COMMANDS with each option drawn as --opt=value:
    required ones nearly always given, optional ones half the time."""
    name, _, options = draw(st.sampled_from(cli.COMMANDS))
    argv = [name]
    for flags, kw in options:
        flag = flags[0]
        if flag in ALWAYS or (draw(st.integers(0, 19)) < 19 if kw.get("required")
                              else draw(st.booleans())):
            argv.append(f"{flag}=" + draw(VALUES[flag]))
    if draw(st.booleans()):
        argv.append("--format=json")
    return argv


@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
@example(argv=["jet", "--chart={}/gen.json", "--expr=x", "--order=1"])
@example(argv=["transition", "--atlas={}/jac.json", "--pair=c:c", "--monomial=1",
               "--order=2"])
def test_every_subcommand_exits_by_the_rule(capsys, tmp_path, argv):
    for name, data in FILES.items():
        (tmp_path / name).write_text(json.dumps(data))
    argv = [a.replace("{}", str(tmp_path)) for a in argv]
    start = time.process_time()
    try:
        code = main(argv)
    except SystemExit as e:  # argparse refuses the command line
        code = e.code
    seconds = time.process_time() - start
    out, err = capsys.readouterr()
    assert seconds < 1.5
    if code == 0:
        assert out and not err
    elif code == 1:
        assert argv[0] in VERDICTS and "--route=coeff" not in argv and out and not err
    else:
        assert code == 2 and not out
        assert (err.startswith("error: ") and err.count("\n") == 1
                or err.startswith("usage: ") and f"jetalg {argv[0]}: error: " in err)


def test_transition_suite_records_a_refused_pair_and_skips_its_checks(capsys, tmp_path):
    # p1_pair with the std->inf H replaced by x: the formulas no longer
    # reproduce G there, so that pair's validate record fails and its basis
    # checks are skipped; inf->std still runs, and its inverse checks, which
    # go back through the altered pair, fail
    from jetalg.fixtures import STANDARD_ATLASES

    data = json.loads(json.dumps(STANDARD_ATLASES["p1_pair"]))
    (pair,) = [t for t in data["transitions"] if (t["from"], t["to"]) == ("std", "inf")]
    pair["H"] = ["x"]
    fn = tmp_path / "atlas.json"
    fn.write_text(json.dumps(data))
    code, report = run_json(capsys, "verify", "--suite", "transition",
                            "--atlas", str(fn), "--orders", "1,2")
    assert code == 1
    failed = {r["check"]: r for r in report["records"] if r["status"] == "fail"}
    assert sorted(failed) == ["transition/inf->std/m[1]/p0/inverse",
                              "transition/inf->std/m[2]/p0/inverse",
                              "transition/std->inf/validate"]
    assert (failed["transition/std->inf/validate"]["witness"]["error"]
            == "x_of_y[0] does not reproduce G_0 on the overlap")
    assert not [r for r in report["records"]
                if r["check"].startswith("transition/std->inf/m")]


def test_verify_json_is_the_report_json(capsys):
    from jetalg.fixtures import standard_atlas, standard_chart
    from jetalg.suites import run_verification

    code, out = run(capsys, "verify", "--suite", "taylor", "--chart", "loc_x",
                    "--orders", "1", "--samples", "1", "--format", "json")
    report = run_verification("taylor", [standard_chart("loc_x")],
                              standard_atlas("p1"), [1], 1, 0,
                              chart_labels=["loc_x"], atlas_label="p1")
    assert code == 0 and out == report.to_json()


def test_reports_do_not_share_records():
    from jetalg.report import Report

    a, b = (Report(version="0", seed=0, targets={}, params={}) for _ in range(2))
    a.records.append({"check": "c", "statement": "s", "status": "pass"})
    assert b.records == [] and b.counts() == (0, 0) and a.counts() == (1, 0)
