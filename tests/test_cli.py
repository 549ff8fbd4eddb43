"""CLI contract: JSON in/out, exit codes, determinism, and suites."""

import functools
import importlib.util
import io
import json
import subprocess
import sys

import pytest

from jointtorsion import cli, fredholm, linalg
from jointtorsion.cli import SchemaError, run_request
from jointtorsion.errors import DomainError
from jointtorsion.randgen import child_rng, random_invertible
from jointtorsion.suites import SUITES, run_suite


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
    from jointtorsion.scalars import QiScalar

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
    a = ExactMatrix(2, 2, [cli._scalar(QiScalar.parse, v, "")
                           for v in payload["a"]])
    b = ExactMatrix(2, 2, [cli._scalar(QiScalar.parse, v, "")
                           for v in payload["b"]])
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

    def always_failing(rng, index):
        return [("synthetic check", False, None)]

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

    def recording(rng, index):
        seen.append(index)
        return [("recorded", True, None)]

    monkeypatch.setitem(suites_mod.SUITES, "recording", recording)
    summary = suites_mod.run_suite("recording", seed=1, count=12)
    assert seen == list(range(12))
    assert summary["passes"] == 12


def test_run_suite_streams_reproducers_and_tally(monkeypatch):
    from jointtorsion import suites as suites_mod

    own = {"cmd": "joint_torsion_quad", "payload": {"dim": 0}}
    draws = []

    def rows(rng, index):
        draws.append(rng.random())
        return [("passes", True, None), ("fails bare", index != 1, None),
                ("fails with a request", index != 2, own)]

    monkeypatch.setitem(suites_mod.SUITES, "rows", rows)
    summary = suites_mod.run_suite("rows", seed=17, count=4)
    # instance i draws from child_rng(seed, i)
    assert draws == [child_rng(17, i).random() for i in range(4)]
    # a failing row without a request gets the verify reproducer, one with
    # a request keeps it
    assert summary["failures"] == [
        {"index": 1, "property": "fails bare",
         "reproducer": {"cmd": "verify",
                        "payload": {"suite": "rows", "count": 2},
                        "seed": 17}},
        {"index": 2, "property": "fails with a request", "reproducer": own}]
    assert summary["passes"] == 2
    assert summary["properties"] == {
        "passes": {"pass": 4, "fail": 0},
        "fails bare": {"pass": 3, "fail": 1},
        "fails with a request": {"pass": 3, "fail": 1}}


@pytest.mark.parametrize("name", list(SUITES))
def test_every_suite_returns_a_list_of_rows(name):
    # a list, not a generator: a caller that wraps a runner (the benchmark's
    # tracer times each instance this way) must see all of its work
    rows = SUITES[name](child_rng(5, 0), 0)
    assert isinstance(rows, list) and rows
    for row in rows:
        prop, holds, request = row
        assert isinstance(prop, str) and holds in (True, False)
        assert request is None or request["cmd"] != "verify"


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


def test_torsion_spaces_over_the_cap_exit_2():
    # rejected before any matrix is read, so the missing differentials are
    # no schema error
    total = cli._MAX_SPACES_TOTAL + 1
    proc = invoke({"cmd": "torsion", "payload": {"spaces": [total, 0]}})
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {
        "error": f"spaces total {total} exceeds the cap of "
                 f"{cli._MAX_SPACES_TOTAL}"}


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


@pytest.mark.parametrize("field, path", [
    ("leading", "$.payload.g.leading"),
    ("roots", "$.payload.g.roots[1]"),
])
def test_symbol_text_over_the_cap_exits_2(monkeypatch, capsys, field, path):
    # the text is outside the grammar, so parsing it would exit 3
    cap = cli._MAX_SYMBOL_TEXT
    text = "1" * cap + "_"
    g = {"leading": "1", "roots": ["1/2"]}
    g[field] = text if field == "leading" else ["1/2", text]
    req = {"cmd": "toeplitz_exact",
           "payload": {"f": {"leading": "1", "roots": ["1/3"]}, "g": g}}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(req)))
    assert cli.main([]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": f"{path} has {cap + 1} characters, above the cap of {cap}"}


def test_symbol_text_at_the_cap_is_read():
    text = "1/" + "1" * (cli._MAX_SYMBOL_TEXT - 2)
    assert len(text) == cli._MAX_SYMBOL_TEXT
    req = {"cmd": "toeplitz_exact",
           "payload": {"f": {"leading": text, "roots": [text]},
                       "g": {"leading": "1", "roots": ["1/3"]}}}
    assert run_request(req)["report"]["winding_f"] == 1


# A fresh interpreter imports jointtorsion.cli, runs one request and prints
# the modules each step added to sys.modules (json, which the probe itself
# imports, only after the import of the CLI is measured).
_MODULE_PROBE = """
import sys
before = set(sys.modules)
import jointtorsion.cli as cli
imported = set(sys.modules) - before
import json
cli.run_request(json.loads(sys.argv[1]))
print(json.dumps([sorted(imported), sorted(set(sys.modules) - before)]))
"""


def modules(*names) -> set:
    return {"jointtorsion." + name for name in names}


# complexes takes SHA-256 from the interpreter's own _sha2 (3.12+) or _sha256
# (3.10, 3.11) and imports hashlib, which loads OpenSSL's _hashlib, only on an
# interpreter with neither; numpy 1.x imports numpy.random, and with it
# hashlib, on import, so only the exact commands skip these two
HASHLIB = {"hashlib", "_hashlib"}
BUILTIN_SHA256 = any(importlib.util.find_spec(name) is not None
                     for name in ("_sha2", "_sha256"))

EXACT = modules("scalars", "linalg", "complexes", "koszul", "toeplitz",
                "suites", "randgen")
QUAD_LOADS = modules("koszul", "complexes", "linalg", "scalars")
QUAD_SKIPS = modules("fredholm", "toeplitz", "suites", "randgen") | HASHLIB | {
    "numpy"}

# command: (request, modules it loads, modules it does not load); no command
# loads dataclasses or fractions
COMMAND_MODULES = {
    "joint_torsion_quad": (ZERO_QUAD, QUAD_LOADS, QUAD_SKIPS),
    "joint_torsion_pair": (
        {"cmd": "joint_torsion_pair",
         "payload": {"dim": 1, "a": ["1"], "b": ["2"]}},
        QUAD_LOADS, QUAD_SKIPS),
    "torsion": (
        {"cmd": "torsion",
         "payload": {"spaces": [1, 1], "differentials": [["2"]]}},
        modules("complexes"),
        modules("koszul", "fredholm") | HASHLIB | {"numpy"}),
    "toeplitz_exact": (
        {"cmd": "toeplitz_exact",
         "payload": {"f": {"leading": "1", "roots": ["1/2"]},
                     "g": {"leading": "1", "roots": ["1/3"]}}},
        modules("toeplitz"),
        modules("koszul", "fredholm", "suites") | HASHLIB | {"numpy"}),
    "toeplitz_numeric": (
        {"cmd": "toeplitz_numeric",
         "payload": {"f": {"coeffs": {"1": [0.5, 0.0]}},
                     "g": {"coeffs": {"-1": [0.5, 0.0]}}, "n": 16}},
        modules("fredholm") | {"numpy"}, EXACT),
    "verify": (
        {"cmd": "verify", "payload": {"suite": "tame-oracle", "count": 1}},
        modules("suites"), modules("fredholm") | HASHLIB | {"numpy"}),
}


@functools.lru_cache(maxsize=None)
def module_probe(cmd) -> tuple:
    """(modules importing jointtorsion.cli added, modules it and the
    command's request added) in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE,
         json.dumps(COMMAND_MODULES[cmd][0])],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return tuple(set(step) for step in json.loads(proc.stdout))


def test_module_probe_covers_every_command():
    assert set(COMMAND_MODULES) == set(cli._COMMANDS)


def test_importing_the_cli_loads_neither_argparse_nor_json():
    # main and _emit import them, so a request run in process needs neither
    imported, _ = module_probe("torsion")
    assert not imported & {"argparse", "json"}


@pytest.mark.parametrize("cmd", list(COMMAND_MODULES))
def test_fresh_interpreter_loads_only_what_its_command_runs(cmd):
    _, loads, skips = COMMAND_MODULES[cmd]
    imported, loaded = module_probe(cmd)
    assert {m for m in imported if m.startswith("jointtorsion")} == {
        "jointtorsion"} | modules("cli", "errors")
    assert not imported & ({"dataclasses", "fractions", "numpy"} | HASHLIB)
    assert loads <= loaded
    assert not loaded & ((skips - HASHLIB) | {"dataclasses", "fractions"})


@pytest.mark.skipif(not BUILTIN_SHA256, reason=(
    "the interpreter has neither _sha2 nor _sha256, so complexes hashes "
    "through hashlib"))
@pytest.mark.parametrize("cmd", [cmd for cmd, (_, _, skips)
                                 in COMMAND_MODULES.items()
                                 if HASHLIB <= skips])
def test_fresh_interpreter_exact_command_loads_no_hashlib(cmd):
    _, loaded = module_probe(cmd)
    assert not loaded & HASHLIB


@pytest.mark.parametrize("key", ["+1", "01", " 1", "\u0661", "1_0", "-0"])
def test_trig_degree_key_outside_the_grammar_exits_3(key):
    # each of these keys read as degree 1, 10 or 0 before, so "+1" beside
    # "1" overwrote degree 1 without an error
    req = {"cmd": "toeplitz_numeric",
           "payload": {"f": {"coeffs": {"1": [0.1, 0.0], key: [0.2, 0.0]}},
                       "g": {"coeffs": {"-1": [0.5, 0.0]}}, "n": 32}}
    proc = invoke(req)
    assert proc.returncode == 3
    assert json.loads(proc.stdout) == {
        "error": f"$.payload.f.coeffs: bad degree {key!r}"}


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
    ({"cmd": "toeplitz_numeric",
      "payload": {"f": {"coeffs": {}}, "g": {"coeffs": {}}, "n": 16,
                  "buffer": -5}},
     "$.payload.buffer"),
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
    def broken(payload, seed):
        raise RuntimeError("internal: synthetic failure")

    keys, _ = cli._COMMANDS["joint_torsion_quad"]
    monkeypatch.setitem(cli._COMMANDS, "joint_torsion_quad", (keys, broken))
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(ZERO_QUAD)))
    assert cli.main([]) == 4
    out = capsys.readouterr().out
    assert json.loads(out) == {
        "error": "RuntimeError: internal: synthetic failure"}


def main_with_stdin(text, monkeypatch, capsys, argv=()):
    """(exit code, parsed JSON body) of ``cli.main`` reading ``text``."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_decode_error_message_is_kept(monkeypatch, capsys):
    assert main_with_stdin("{not json", monkeypatch, capsys) == (3, {
        "error": "parse error at line 1 column 2: Expecting property name "
                 "enclosed in double quotes"})


def test_integer_literal_over_the_digit_limit_exits_3(monkeypatch, capsys):
    digits = sys.get_int_max_str_digits() + 1
    text = '{"cmd": "verify", "seed": ' + "1" * digits + "}"
    code, out = main_with_stdin(text, monkeypatch, capsys)
    assert code == 3
    assert out["error"].startswith("parse error: ")
    assert f"{digits} digits" in out["error"]


@pytest.mark.parametrize("text", ["[" * 200000, '{"cmd": ' + "[" * 200000],
                         ids=["top-level", "in-a-member"])
def test_nesting_over_the_recursion_limit_exits_3(text, monkeypatch, capsys):
    code, out = main_with_stdin(text, monkeypatch, capsys)
    assert code == 3
    assert out["error"].startswith("parse error: maximum recursion depth")


@pytest.mark.parametrize("text, key", [
    ('{"cmd": "torsion", "cmd": "verify", '
     '"payload": {"suite": "steinberg", "count": 1}}', "cmd"),
    ('{"cmd": "torsion", "payload": {"spaces": [1, 1], "spaces": [0, 0], '
     '"differentials": [["1"]]}}', "spaces"),
    ('{"cmd": "toeplitz_exact", "payload": {"f": {"leading": "1", '
     '"leading": "2", "roots": []}, "g": {"leading": "1", "roots": []}}}',
     "leading"),
], ids=["cmd", "payload.spaces", "symbol.leading"])
def test_duplicate_key_exits_3(text, key, monkeypatch, capsys):
    # json.loads alone would keep the last value and run that request
    assert main_with_stdin(text, monkeypatch, capsys) == (
        3, {"error": f"parse error: duplicate key {key!r}"})


@pytest.mark.parametrize("timing", [1, "true", []])
def test_timing_that_is_not_a_boolean_exits_3(timing, monkeypatch, capsys):
    text = json.dumps(dict(ZERO_QUAD, timing=timing))
    assert main_with_stdin(text, monkeypatch, capsys) == (
        3, {"error": "$.timing: expected a boolean"})


def test_null_timing_reads_as_absent(monkeypatch, capsys):
    text = json.dumps(dict(ZERO_QUAD, timing=None))
    code, out = main_with_stdin(text, monkeypatch, capsys)
    assert code == 0
    assert out == run_request(ZERO_QUAD)


def test_result_part_over_the_digit_limit_exits_2(monkeypatch, capsys):
    # each entry parses, but the determinant has about twice its digits
    limit = sys.get_int_max_str_digits()
    big = "1" * (limit // 2 + 1000)
    req = {"cmd": "torsion",
           "payload": {"spaces": [2, 2],
                       "differentials": [[big, "0", "0", big]]}}
    code, out = main_with_stdin(json.dumps(req), monkeypatch, capsys)
    assert (code, out) == (
        2, {"error": f"a result part has more than {limit} digits"})


@pytest.mark.parametrize("argv, request_", [
    ([], {"cmd": "verify", "payload": {"suite": "steinberg", "count": 401}}),
    (["--suite", "steinberg", "--count", "401"], None),
])
def test_suite_count_over_the_cap_exits_2(argv, request_, monkeypatch, capsys):
    def refuse(name, seed, count):
        raise AssertionError("ran a suite instance")

    monkeypatch.setattr("jointtorsion.suites.run_suite", refuse)
    text = json.dumps(request_) if request_ is not None else ""
    assert main_with_stdin(text, monkeypatch, capsys, argv) == (
        2, {"error": "count 401 exceeds the cap of 400"})


# -- the key grammar -------------------------------------------------------------

TRIG = {"coeffs": {"1": [0.5, 0.0]}}

# One request per command, each holding every key its objects may have.
EVERY_KEY = {
    "torsion": {"cmd": "torsion",
                "payload": {"spaces": [1, 1], "differentials": [["2"]],
                            "bases": [["1"], ["1"]]}},
    "joint_torsion_pair": {"cmd": "joint_torsion_pair",
                           "payload": {"dim": 1, "a": ["0"], "b": ["0"]}},
    "joint_torsion_quad": ZERO_QUAD,
    "toeplitz_exact": {"cmd": "toeplitz_exact",
                       "payload": {"f": {"leading": "1", "roots": ["1/2"]},
                                   "g": {"leading": "1", "roots": ["1/3"]}}},
    "toeplitz_numeric": {"cmd": "toeplitz_numeric",
                         "payload": {"f": TRIG, "g": TRIG, "n": 16,
                                     "buffer": 40}},
    "verify": {"cmd": "verify", "payload": {"suite": "steinberg", "count": 1},
               "seed": 3, "timing": False},
}


def _with_key(request, path, key):
    """A copy of ``request`` with ``key`` added to the object at ``path``."""
    request = json.loads(json.dumps(request))
    obj = request
    for step in path:
        obj = obj[step]
    obj[key] = 64
    return request


def test_every_command_is_covered_by_the_key_grammar():
    assert set(EVERY_KEY) == set(cli._COMMANDS)
    for cmd, request in EVERY_KEY.items():
        assert set(request["payload"]) == set(cli._COMMANDS[cmd][0])


KEY_PATHS = [*((cmd, ()) for cmd in EVERY_KEY),
             *((cmd, ("payload",)) for cmd in EVERY_KEY),
             *((cmd, ("payload", key)) for cmd in ("toeplitz_exact",
                                                   "toeplitz_numeric")
               for key in ("f", "g"))]


@pytest.mark.parametrize("cmd, path", KEY_PATHS, ids=[
    "-".join((cmd, "$") + path) for cmd, path in KEY_PATHS])
def test_unknown_key_exits_3(cmd, path, monkeypatch, capsys):
    request = EVERY_KEY[cmd]
    assert main_with_stdin(json.dumps(request), monkeypatch, capsys)[0] == 0
    where = "".join(f".{step}" for step in path)
    assert main_with_stdin(json.dumps(_with_key(request, path, "bufer")),
                           monkeypatch, capsys) == (
        3, {"error": f"${where}.bufer: unknown key"})


def test_count_flag_fills_only_a_verify_count(monkeypatch, capsys):
    verify = {"cmd": "verify", "payload": {"suite": "steinberg"}, "seed": 4}
    explicit = json.loads(json.dumps(verify))
    explicit["payload"]["count"] = 2
    for request, plain in ((ZERO_QUAD, ZERO_QUAD), (verify, explicit)):
        flagged = main_with_stdin(json.dumps(request), monkeypatch, capsys,
                                  ["--count", "2"])
        assert flagged[0] == 0
        assert flagged == main_with_stdin(json.dumps(plain), monkeypatch,
                                          capsys)


@pytest.mark.parametrize("cmd", [["verify"], {"verify": 1}])
def test_command_that_is_not_a_string_exits_3(cmd):
    # the command table is a dict, and a list or an object is no key of it
    with pytest.raises(SchemaError, match=r"^\$\.cmd: unknown command"):
        run_request({"cmd": cmd})


# -- the request writers round-trip through the readers -------------------------

def _quadruples(family):
    """The dim 0 quadruple, which ``randgen`` does not draw, then three of
    ``family`` at each dim 1 to 4."""
    from jointtorsion.koszul import KoszulQuadruple
    from jointtorsion.linalg import ExactMatrix

    zero = ExactMatrix.zero(0, 0)
    yield KoszulQuadruple(zero, zero, zero, zero)
    for dim in range(1, 5):
        for i in range(3):
            yield family(child_rng(dim, i), dim)


@pytest.mark.parametrize("family", ["random_quadruple",
                                    "random_singular_d_quadruple"])
def test_quad_request_replays_its_quadruple(family):
    from jointtorsion import randgen
    from jointtorsion.koszul import joint_torsion_quad

    for q in _quadruples(getattr(randgen, family)):
        out = run_request(cli.quad_request(q))
        report = joint_torsion_quad(q)
        assert out["value"] == report.value.to_text() == "1"
        assert out["report"]["homology_dims"] == report.homology_dims
        for key in ("tau_AD", "tau_BC", "sigma_AD", "sigma_BC"):
            assert out["report"][key] == getattr(report, key).to_text()
        assert out["report"]["sign_exponents"] == {
            "lambda": report.lambda_exp, "pairing": report.pairing_exp,
            "kappa_A": report.kappa_A, "kappa_B": report.kappa_B,
            "kappa_C": report.kappa_C, "kappa_D": report.kappa_D,
            "mu": report.mu_values}


def test_toeplitz_exact_request_replays_its_symbols():
    from jointtorsion.suites import _disjoint_symbols
    from jointtorsion.toeplitz import (restriction_sequences,
                                       toeplitz_joint_torsion)

    for i in range(20):
        f, g = _disjoint_symbols(child_rng(26, i))
        value = toeplitz_joint_torsion(*restriction_sequences(f, g))
        out = run_request(cli.toeplitz_exact_request(f, g))
        assert out["value"] == value.to_text()


@pytest.mark.parametrize("suite", list(SUITES))
def test_verify_request_is_what_the_suite_flag_runs(suite, monkeypatch,
                                                    capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert cli.main(["--suite", suite, "--seed", "3", "--count", "2"]) == 0
    response = run_request(cli.verify_request(suite, 2, 3))
    assert (response["suite"], response["seed"], response["count"]) == (
        suite, 3, 2)
    assert capsys.readouterr().out == json.dumps(
        response, sort_keys=True, separators=(",", ":")) + "\n"
