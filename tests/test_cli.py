"""CLI contract: JSON in/out, exit codes, determinism, and suites."""

import io
import json
import subprocess
import sys

import pytest

from jointtorsion import cli, fredholm, linalg
from jointtorsion.cli import SchemaError, run_request
from jointtorsion.errors import DomainError
from jointtorsion.randgen import child_rng, random_invertible
from jointtorsion.suites import run_suite


def invoke(request=None, flags=()):
    proc = subprocess.run(
        [sys.executable, "-m", "jointtorsion", *flags],
        input=json.dumps(request) if request is not None else "",
        capture_output=True, text=True)
    return proc


ZERO_QUAD = {"cmd": "joint_torsion_quad",
             "payload": {"dim": 1, "a": ["0"], "b": ["0"],
                         "c": ["0"], "d": ["0"]}}


def test_quad_zero_request():
    proc = invoke(ZERO_QUAD)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["value"] == "1"
    assert out["report"]["sign_exponents"]["lambda"] == 4


def test_toeplitz_exact_request():
    req = {"cmd": "toeplitz_exact",
           "payload": {"f": {"leading": "1", "roots": ["1/2"]},
                       "g": {"leading": "1", "roots": ["1/3"]}}}
    proc = invoke(req)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["value"] == "-1"
    assert out["report"]["tame_symbol"] == "-1"


def test_torsion_request_with_bases():
    req = {"cmd": "torsion",
           "payload": {"spaces": [1, 2, 1],
                       "differentials": [["1", "1"], ["1", "-1"]],
                       "bases": None}}
    proc = invoke(req)
    out = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert out["value"] == "-1"


def test_two_term_torsion_request_makes_one_forward_elimination(monkeypatch):
    # The exactness check's rank of d gives its pivots and determinant, the
    # top factor is an empty minor and the bottom one is d itself.  The
    # full block determinants took three eliminations here.
    m = random_invertible(child_rng(5, 12), 12, mag=3)
    req = {"cmd": "torsion",
           "payload": {"spaces": [12, 12],
                       "differentials": [[e.to_text() for e in m.entries]]}}
    calls = []
    kernel = linalg._fraction_free

    def counted(rows, slots, cols, top):
        calls.append(top < len(rows))
        return kernel(rows, slots, cols, top)

    monkeypatch.setattr(linalg, "_fraction_free", counted)
    assert run_request(req)["value"] == m.determinant().to_text()
    assert calls == [False]


def test_pair_request():
    req = {"cmd": "joint_torsion_pair",
           "payload": {"dim": 2, "a": ["0", "0", "0", "2"],
                       "b": ["3", "0", "0", "0"]}}
    proc = invoke(req)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "1"


def test_toeplitz_numeric_request():
    req = {"cmd": "toeplitz_numeric",
           "payload": {"f": {"coeffs": {"1": [1.0, 0.0]}},
                       "g": {"coeffs": {"-1": [1.0, 0.0]}}, "n": 32}}
    proc = invoke(req)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["value"].startswith("0.3678794")


def test_malformed_json_exits_3():
    proc = invoke(flags=())
    assert proc.returncode == 3
    proc2 = subprocess.run([sys.executable, "-m", "jointtorsion"],
                           input="{not json", capture_output=True, text=True)
    assert proc2.returncode == 3
    assert "parse error" in json.loads(proc2.stdout)["error"]


def test_schema_violation_exits_3_with_path():
    req = {"cmd": "joint_torsion_quad",
           "payload": {"dim": 1, "a": ["0"], "b": ["0"], "c": ["0"]}}
    proc = invoke(req)
    assert proc.returncode == 3
    assert "$.payload.d" in json.loads(proc.stdout)["error"]


def test_pair_request_runs_joint_torsion_once(monkeypatch):
    from jointtorsion import cli, koszul
    from jointtorsion.linalg import ExactMatrix

    calls = []
    quad = koszul.joint_torsion_quad

    def counted(q):
        calls.append(q)
        return quad(q)

    monkeypatch.setattr(koszul, "joint_torsion_quad", counted)
    # b = a**2 + a commutes with a
    payload = {"dim": 2, "a": ["1", "i", "0", "2"], "b": ["2", "4*i", "0", "6"]}
    out = run_request({"cmd": "joint_torsion_pair", "payload": payload})
    assert len(calls) == 1
    a = ExactMatrix(2, 2, [cli._scalar(v, "") for v in payload["a"]])
    b = ExactMatrix(2, 2, [cli._scalar(v, "") for v in payload["b"]])
    assert out["value"] == koszul.joint_torsion_pair(a, b).value.to_text()


def test_pair_request_rejects_non_commuting():
    # the quadruple (A, B, B, A) checks AB = BA
    req = {"cmd": "joint_torsion_pair",
           "payload": {"dim": 2, "a": ["0", "1", "0", "0"],
                       "b": ["0", "0", "1", "0"]}}
    with pytest.raises(DomainError, match="^operators do not commute$"):
        run_request(req)


def test_domain_error_exits_2():
    req = {"cmd": "toeplitz_exact",
           "payload": {"f": {"leading": "1", "roots": ["i"]},
                       "g": {"leading": "1", "roots": []}}}
    proc = invoke(req)
    assert proc.returncode == 2
    assert "not Fredholm" in json.loads(proc.stdout)["error"]


def test_unknown_command_exits_3():
    proc = invoke({"cmd": "nope", "payload": {}})
    assert proc.returncode == 3


def test_unknown_suite_exits_2():
    proc = invoke({"cmd": "verify", "payload": {"suite": "nope", "count": 1}})
    assert proc.returncode == 2


def test_byte_identical_responses():
    req = {"cmd": "verify", "payload": {"suite": "finite-triviality",
                                        "count": 3}, "seed": 11}
    first = invoke(req)
    second = invoke(req)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_timing_only_when_requested():
    out_plain = json.loads(invoke(ZERO_QUAD).stdout)
    assert "timing_ms" not in out_plain
    timed = dict(ZERO_QUAD)
    timed["timing"] = True
    out_timed = json.loads(invoke(timed).stdout)
    assert "timing_ms" in out_timed


def test_suite_flags_match_json_form():
    via_flags = invoke(flags=["--suite", "steinberg", "--seed", "5",
                              "--count", "4"])
    via_json = invoke({"cmd": "verify",
                       "payload": {"suite": "steinberg", "count": 4},
                       "seed": 5})
    assert via_flags.stdout == via_json.stdout


def test_run_suite_summary_shape():
    summary = run_suite("tame-oracle", seed=7, count=5)
    assert summary["passes"] == 5
    assert summary["failures"] == []
    assert all(v["fail"] == 0 for v in summary["properties"].values())


def test_suite_failures_carry_reproducers():
    # sanity check of the aggregation path via a property that never fails;
    # the reproducer format itself is exercised through run_request
    out = run_request({"cmd": "verify",
                       "payload": {"suite": "direct-sum", "count": 2},
                       "seed": 3})
    assert out["count"] == 2 and out["passes"] == 2


def test_run_request_schema_error_paths():
    with pytest.raises(SchemaError, match=r"\$\.payload\.spaces"):
        run_request({"cmd": "torsion", "payload": {"spaces": "x",
                                                   "differentials": []}})


def test_injected_failure_reports_reproducer(monkeypatch):
    from jointtorsion import suites as suites_mod

    def always_failing(seed, index):
        return [{"property": "synthetic check", "pass": False,
                 "reproducer": {"cmd": "verify",
                                "payload": {"suite": "synthetic", "count": index + 1},
                                "seed": seed}}]

    monkeypatch.setitem(suites_mod.SUITES, "synthetic", always_failing)
    summary = suites_mod.run_suite("synthetic", seed=9, count=3)
    assert summary["passes"] == 0
    assert len(summary["failures"]) == 3
    for i, failure in enumerate(summary["failures"]):
        assert failure["index"] == i
        assert failure["reproducer"]["payload"]["count"] == i + 1


def test_suite_instances_run_in_index_order(monkeypatch):
    from jointtorsion import suites as suites_mod

    seen = []

    def recording(seed, index):
        seen.append(index)
        return [{"property": "recorded", "pass": True, "reproducer": None}]

    monkeypatch.setitem(suites_mod.SUITES, "recording", recording)
    summary = suites_mod.run_suite("recording", seed=1, count=12)
    assert seen == list(range(12))
    assert summary["passes"] == 12


def test_seed_flag_fills_missing_seed():
    req = {"cmd": "verify", "payload": {"suite": "steinberg", "count": 2}}
    with_flag = invoke(req, flags=["--seed", "5"])
    explicit = dict(req)
    explicit["seed"] = 5
    assert with_flag.stdout == invoke(explicit).stdout


def test_torsion_request_with_real_bases():
    # swapping the bottom space's basis vectors negates the two-term torsion
    req = {"cmd": "torsion",
           "payload": {"spaces": [2, 2],
                       "differentials": [["2", "0", "0", "3"]],
                       "bases": [["1", "0", "0", "1"],
                                 ["0", "1", "1", "0"]]}}
    proc = invoke(req)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "-6"


@pytest.mark.parametrize("bad", [True, float("nan"), float("inf"), float("-inf")])
def test_trig_coefficient_must_be_a_finite_number(bad):
    # json.dumps writes these as true, NaN, Infinity and -Infinity
    req = {"cmd": "toeplitz_numeric",
           "payload": {"f": {"coeffs": {"1": [1.0, 0.0]}},
                       "g": {"coeffs": {"-1": [0.5, bad]}}, "n": 32}}
    proc = invoke(req)
    assert proc.returncode == 3
    assert json.loads(proc.stdout) == {
        "error": "$.payload.g.coeffs.-1[1]: expected a finite number"}


def test_truncation_size_over_the_cap_exits_2(monkeypatch, capsys):
    def refuse(coeffs, size):
        raise AssertionError(f"built a {size}x{size} array past the cap")

    monkeypatch.setattr(fredholm, "toeplitz_matrix", refuse)
    req = {"cmd": "toeplitz_numeric",
           "payload": {"f": {"coeffs": {"1": [1.0, 0.0]}},
                       "g": {"coeffs": {"-1": [1.0, 0.0]}}, "n": 10 ** 9}}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(req)))
    assert cli.main([]) == 2
    total = 10 ** 9 + 2 * 16  # e^z has 1/k! above 1e-14 up to k = 16
    assert json.loads(capsys.readouterr().out) == {
        "error": f"truncation size n + buffer = {total} exceeds the cap of "
                 f"{fredholm._MAX_DIM}"}


@pytest.mark.parametrize("cmd", ["joint_torsion_quad", "joint_torsion_pair"])
def test_operator_dim_over_the_cap_exits_2(cmd):
    # rejected before any matrix is read, so the missing ones are no
    # schema error
    dim = cli._MAX_OPERATOR_DIM + 1
    proc = invoke({"cmd": cmd, "payload": {"dim": dim}})
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {
        "error": f"dim {dim} exceeds the cap of {cli._MAX_OPERATOR_DIM}"}


def test_trig_poly_over_the_span_cap_exits_2(monkeypatch, capsys):
    def refuse(poly):
        raise AssertionError("summed an exponential series")

    monkeypatch.setattr(fredholm, "exp_symbol_coeffs", refuse)
    req = {"cmd": "toeplitz_numeric",
           "payload": {"f": {"coeffs": {str(k): [1.0, 0.0]
                                        for k in range(1, 41)}},
                       "g": {"coeffs": {"-1": [1.0, 0.0]}}, "n": 16}}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(req)))
    assert cli.main([]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": f"f has degree span 40, above the cap of "
                 f"{fredholm._MAX_SPAN}"}


def test_symbol_over_the_root_cap_exits_2(monkeypatch, capsys):
    # the roots are outside the grammar, so parsing any of them would exit 3
    count = cli._MAX_ROOTS + 1
    req = {"cmd": "toeplitz_exact",
           "payload": {"f": {"leading": "1", "roots": ["1_0"] * count},
                       "g": {"leading": "1", "roots": []}}}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(req)))
    assert cli.main([]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": f"f has {count} roots, above the cap of {cli._MAX_ROOTS}"}


def test_exact_request_does_not_load_numpy():
    code = ("import sys, jointtorsion.cli as cli; "
            f"cli.run_request({ZERO_QUAD!r}); "
            "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("text", ["\u0661", "1_0", "1 0"])
def test_scalar_text_outside_ascii_grammar_exits_3(text):
    req = {"cmd": "joint_torsion_quad",
           "payload": {"dim": 1, "a": ["0"], "b": ["0"], "c": [text],
                       "d": ["0"]}}
    proc = invoke(req)
    assert proc.returncode == 3
    assert json.loads(proc.stdout) == {
        "error": f"$.payload.c[0]: bad scalar text {text!r}"}


@pytest.mark.parametrize("request_, path", [
    ({"cmd": "torsion",
      "payload": {"spaces": [-1, -1], "differentials": [["1"]]}},
     "$.payload.spaces[0]"),
    ({"cmd": "joint_torsion_quad",
      "payload": {"dim": -1, "a": [], "b": [], "c": [], "d": []}},
     "$.payload.dim"),
    ({"cmd": "joint_torsion_pair", "payload": {"dim": -2, "a": [], "b": []}},
     "$.payload.dim"),
])
def test_negative_dimension_exits_3(request_, path):
    proc = invoke(request_)
    assert proc.returncode == 3
    assert json.loads(proc.stdout) == {
        "error": f"{path}: expected a nonnegative integer"}


def test_null_seed_exits_3():
    req = {"cmd": "verify", "payload": {"suite": "steinberg", "count": 1},
           "seed": None}
    proc = invoke(req)
    assert proc.returncode == 3
    assert json.loads(proc.stdout) == {"error": "$.seed: expected an integer"}


def test_internal_error_exits_4_with_json_body(monkeypatch, capsys):
    def broken(payload):
        raise RuntimeError("internal: synthetic failure")

    monkeypatch.setattr(cli, "_handle_quad", broken)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(ZERO_QUAD)))
    assert cli.main([]) == 4
    out = capsys.readouterr().out
    assert json.loads(out) == {
        "error": "RuntimeError: internal: synthetic failure"}
