"""Output checks, run outside the timed region with the benchmark's own
exact arithmetic (``qexact``); nothing here imports the package.

``check_round`` takes the round's requests and one response text per request
(``None`` for an operation that failed) and returns a list of problems; an
empty list means every response is correct.
"""

from __future__ import annotations

import cmath
import json
import re

import qexact as qx

NUMERIC_TOLERANCE = 1e-4
NUMERIC_CHECKED_FROM = 128
# Errors sit at roundoff level (about 1e-15), so "does not increase with n"
# allows the same slack the package's numeric suite allows.
NUMERIC_MONOTONE_SLACK = 1e-10

_FLOAT = r"(?:[0-9.]+(?:e[+-]?\d+)?|nan|inf)"
_COMPLEX = re.compile(rf"^(-?{_FLOAT})([+-])({_FLOAT})\*i$")


def _matrix(items, n):
    return qx.from_flat([qx.parse(t) for t in items], n, n)


def homology_dims(a, b, c, d) -> dict:
    """The eleven homology dimensions of a quadruple, from ranks alone."""
    n = len(a)
    r = {"A": qx.rank(a), "B": qx.rank(b), "C": qx.rank(c), "D": qx.rank(d)}
    r_bd = qx.rank(qx.vstack(b, d))
    r_ac = qx.rank(qx.hstack(a, c))
    dims = {}
    for key in "ABCD":
        dims[f"ker_{key}"] = n - r[key]
        dims[f"coker_{key}"] = n - r[key]
    dims["ker_B_cap_ker_D"] = n - r_bd
    dims["H1"] = 2 * n - r_ac - r_bd
    dims["H0"] = n - r_ac
    return dims


def sign_exponents(dims: dict, n: int) -> dict:
    """lambda, pairing, kappa and mu as the koszul module defines them."""
    k = {key: dims[f"ker_{key}"] for key in "ABCD"}
    return {
        "lambda": (dims["ker_B_cap_ker_D"] * (k["D"] + k["B"])
                   + dims["H0"] * (dims["coker_A"] + dims["coker_C"])),
        "pairing": k["B"] * (k["C"] + 1) + k["D"] * (k["A"] + 1),
        **{f"kappa_{key}": k[key] * (n - k[key]) for key in "ABCD"},
        "mu": {key: k[key] * dims[f"coker_{key}"] for key in "ABCD"},
    }


def _check_quad(payload, resp, quad_of):
    n = payload["dim"]
    a, b, c, d = quad_of({key: _matrix(payload[key], n)
                          for key in payload if key != "dim"})
    problems = []
    value = qx.parse(resp["value"])
    if value != qx.ONE:
        problems.append(f"value {resp['value']} is not 1")
    report = resp["report"]
    dims = homology_dims(a, b, c, d)
    if report["homology_dims"] != dims:
        problems.append(f"homology_dims {report['homology_dims']} != {dims}")
    expected = sign_exponents(dims, n)
    if report["sign_exponents"] != expected:
        problems.append(f"sign_exponents {report['sign_exponents']} != {expected}")
    exps = report["sign_exponents"]
    recomputed = qx.mul(qx.mul(qx.parse(report["tau_AD"]),
                               qx.inv(qx.parse(report["tau_BC"]))),
                        qx.mul(qx.parse(report["sigma_AD"]),
                               qx.parse(report["sigma_BC"])))
    if (exps["lambda"] + exps["pairing"]) % 2:
        recomputed = qx.neg(recomputed)
    if recomputed != value:
        problems.append("signed product of the report's factors != value")
    return problems


def _check_torsion(payload, resp):
    n = payload["spaces"][0]
    det = qx.determinant(_matrix(payload["differentials"][0], n))
    problems = []
    if qx.parse(resp["value"]) != det:
        problems.append(f"torsion {resp['value']} != determinant {qx.text(det)}")
    if resp["report"]["spaces"] != payload["spaces"]:
        problems.append("report spaces differ from the request")
    return problems


def _check_verify(request, resp):
    payload = request["payload"]
    expected = {"suite": payload["suite"], "seed": request["seed"],
                "count": payload["count"], "passes": payload["count"],
                "failures": []}
    return [f"verify summary {key}={resp.get(key)!r}, expected {want!r}"
            for key, want in expected.items() if resp.get(key) != want]


def _symbol(obj):
    return qx.parse(obj["leading"]), [qx.parse(r) for r in obj["roots"]]


def _check_toeplitz_exact(payload, resp):
    f_lead, f_roots = _symbol(payload["f"])
    g_lead, g_roots = _symbol(payload["g"])
    oracle = qx.tame_symbol(f_lead, f_roots, g_lead, g_roots)
    problems = []
    for key, text in (("value", resp["value"]),
                      ("tame_symbol", resp["report"]["tame_symbol"])):
        if qx.parse(text) != oracle:
            problems.append(f"{key} {text} != tame symbol {qx.text(oracle)}")
    return problems


def parse_complex(text: str) -> complex:
    match = _COMPLEX.match(text)
    if match is None:
        raise ValueError(f"bad complex text {text!r}")
    sign = 1 if match.group(2) == "+" else -1
    return complex(float(match.group(1)), sign * float(match.group(3)))


def closed_form(payload) -> complex:
    """exp(sum_k k f_{-k} g_k), computed from the request's coefficients."""
    f = {int(k): complex(*v) for k, v in payload["f"]["coeffs"].items()}
    g = {int(k): complex(*v) for k, v in payload["g"]["coeffs"].items()}
    return cmath.exp(sum(k * f.get(-k, 0j) * gk for k, gk in g.items()))


def _numeric_error(payload, resp):
    return abs(parse_complex(resp["value"]) - closed_form(payload))


def _check_numeric(payload, resp):
    err = _numeric_error(payload, resp)
    if payload["n"] >= NUMERIC_CHECKED_FROM and not err <= NUMERIC_TOLERANCE:
        return [f"numeric error {err:.3g} at n={payload['n']} exceeds "
                f"{NUMERIC_TOLERANCE}"]
    return []


def check_response(entry, response_text) -> list:
    """Problems with one response (an empty list when it is correct)."""
    request = json.loads(entry["text"])
    resp = json.loads(response_text)
    payload = request["payload"]
    cmd = request["cmd"]
    if "error" in resp:
        return [f"{cmd}: error response {resp['error']!r}"]
    if cmd == "joint_torsion_quad":
        problems = _check_quad(payload, resp, lambda m: (m["a"], m["b"], m["c"], m["d"]))
    elif cmd == "joint_torsion_pair":
        problems = _check_quad(payload, resp, lambda m: (m["a"], m["b"], m["b"], m["a"]))
    elif cmd == "torsion":
        problems = _check_torsion(payload, resp)
    elif cmd == "verify":
        problems = _check_verify(request, resp)
    elif cmd == "toeplitz_exact":
        problems = _check_toeplitz_exact(payload, resp)
    elif cmd == "toeplitz_numeric":
        problems = _check_numeric(payload, resp)
    else:
        problems = [f"unexpected command {cmd!r}"]
    return [f"{entry['kind']}: {p}" for p in problems]


def _check_numeric_monotone(entries, responses) -> list:
    """Within each numeric pair, the error must not grow with n."""
    groups: dict = {}
    for entry, text in zip(entries, responses):
        if text is None or "group" not in entry["check"]:
            continue
        payload = json.loads(entry["text"])["payload"]
        err = _numeric_error(payload, json.loads(text))
        groups.setdefault(entry["check"]["group"], []).append((payload["n"], err))
    problems = []
    for group, errs in sorted(groups.items()):
        errs.sort()
        for (n0, e0), (n1, e1) in zip(errs, errs[1:]):
            if e1 > e0 + NUMERIC_MONOTONE_SLACK:
                problems.append(f"numeric pair {group}: error grows from "
                                f"{e0:.3g} (n={n0}) to {e1:.3g} (n={n1})")
    return problems


def check_round(entries, responses) -> list:
    problems = []
    for entry, text in zip(entries, responses):
        if text is not None:
            problems.extend(check_response(entry, text))
    problems.extend(_check_numeric_monotone(entries, responses))
    return problems
