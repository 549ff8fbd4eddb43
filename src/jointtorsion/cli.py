"""Batch JSON front end.

One request in (stdin or flags), one JSON response out (stdout).  The
command lives inside the request, so suites are plain data:

    echo '{"cmd": "joint_torsion_quad", "payload": {...}}' | jointtorsion
    jointtorsion --suite finite-triviality --seed 7 --count 200

Exit codes: 0 success, 2 domain error (a module precondition failed, a
quad or pair ``dim`` above ``_MAX_OPERATOR_DIM``, or a toeplitz_exact
symbol with more than ``_MAX_ROOTS`` roots), 3 parse error (malformed
JSON or a payload that does not match the command's schema, including
scalar text outside the ASCII grammar, a negative dimension, a seed that
is not an integer and a trig coefficient that is a boolean or not a finite
number; messages carry the JSON path), 4 internal error (any other
exception; the body is {"error": "..."}, never a traceback).  Output bytes
are identical for identical (request, seed); wall-clock timing is only
included when the request sets "timing": true.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .complexes import BasedExactSequence, ChainComplexSpec, torsion_scalar
from .errors import DomainError
from .fredholm import TrigPoly, closed_form_di, numeric_det_invariant
from .koszul import KoszulQuadruple, joint_torsion_pair, joint_torsion_quad
from .linalg import ExactMatrix
from .scalars import QiScalar
from .suites import run_suite
from .toeplitz import (AnalyticSymbol, restriction_data, tame_symbol,
                       toeplitz_joint_torsion)

_COMMANDS = ("torsion", "joint_torsion_pair", "joint_torsion_quad",
             "toeplitz_exact", "toeplitz_numeric", "verify")

# A dim-20 quadruple with invertible D takes 7-9 s on a 2-vCPU machine, and
# the cost grows about 5x per four dimensions.
_MAX_OPERATOR_DIM = 20

# toeplitz_exact with f and g each given k roots inside the disk, on
# distinct 3-digit prime denominators, takes 4.6 s at k = 12 on a 2-vCPU
# machine, and the cost grows about 1.9x per root.
_MAX_ROOTS = 12


class SchemaError(ValueError):
    """Request does not match the command schema; message carries the path."""


# -- payload readers ---------------------------------------------------------

def _need(payload: dict, key: str, path: str):
    if key not in payload:
        raise SchemaError(f"{path}.{key}: missing")
    return payload[key]


def _as_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{path}: expected an integer")
    return value


def _as_dim(value, path: str) -> int:
    value = _as_int(value, path)
    if value < 0:
        raise SchemaError(f"{path}: expected a nonnegative integer")
    return value


def _as_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected an object")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected an array")
    return value


def _scalar(value, path: str) -> QiScalar:
    if not isinstance(value, str):
        raise SchemaError(f"{path}: expected scalar text")
    try:
        return QiScalar.parse(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _matrix(value, rows: int, cols: int, path: str) -> ExactMatrix:
    items = _as_list(value, path)
    if len(items) != rows * cols:
        raise SchemaError(f"{path}: expected {rows * cols} entries "
                          f"({rows}x{cols} row-major), got {len(items)}")
    return ExactMatrix(rows, cols,
                       [_scalar(v, f"{path}[{i}]") for i, v in enumerate(items)])


def _operator_dim(payload: dict) -> int:
    """The ``dim`` of a quad or pair request, capped before any matrix is
    read."""
    dim = _as_dim(_need(payload, "dim", "$.payload"), "$.payload.dim")
    if dim > _MAX_OPERATOR_DIM:
        raise DomainError(f"dim {dim} exceeds the cap of {_MAX_OPERATOR_DIM}")
    return dim


def _square(payload: dict, key: str, dim: int, path: str) -> ExactMatrix:
    return _matrix(_need(payload, key, path), dim, dim, f"{path}.{key}")


def _symbol(payload: dict, key: str):
    """The symbol ``key`` of a toeplitz_exact request, its root count capped
    before any root is read."""
    path = f"$.payload.{key}"
    obj = _as_dict(_need(payload, key, "$.payload"), path)
    leading = _scalar(_need(obj, "leading", path), f"{path}.leading")
    items = _as_list(_need(obj, "roots", path), f"{path}.roots")
    if len(items) > _MAX_ROOTS:
        raise DomainError(f"{key} has {len(items)} roots, above the cap of "
                          f"{_MAX_ROOTS}")
    roots = [_scalar(v, f"{path}.roots[{i}]") for i, v in enumerate(items)]
    return AnalyticSymbol(leading, roots)


def _finite(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a finite number")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise SchemaError(f"{path}: expected a finite number")
    return x


def _trig_poly(value, path: str) -> TrigPoly:
    obj = _as_dict(value, path)
    coeffs = _as_dict(_need(obj, "coeffs", path), f"{path}.coeffs")
    out = {}
    for key, pair in coeffs.items():
        try:
            degree = int(key)
        except ValueError as exc:
            raise SchemaError(f"{path}.coeffs: bad degree {key!r}") from exc
        arr = _as_list(pair, f"{path}.coeffs.{key}")
        if len(arr) != 2:
            raise SchemaError(f"{path}.coeffs.{key}: expected [re, im]")
        out[degree] = complex(*(_finite(x, f"{path}.coeffs.{key}[{i}]")
                                for i, x in enumerate(arr)))
    return TrigPoly(out)


def _float_text(x: float) -> str:
    return f"{x:.15g}"


def _complex_text(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{_float_text(z.real)}{sign}{_float_text(abs(z.imag))}*i"


# -- command handlers ---------------------------------------------------------

def _handle_torsion(payload: dict) -> dict:
    spaces = [_as_dim(v, f"$.payload.spaces[{i}]") for i, v in
              enumerate(_as_list(_need(payload, "spaces", "$.payload"),
                                 "$.payload.spaces"))]
    diffs_raw = _as_list(_need(payload, "differentials", "$.payload"),
                         "$.payload.differentials")
    if len(diffs_raw) != max(len(spaces) - 1, 0):
        raise SchemaError("$.payload.differentials: need one per adjacent pair")
    diffs = [_matrix(raw, spaces[i + 1], spaces[i],
                     f"$.payload.differentials[{i}]")
             for i, raw in enumerate(diffs_raw)]
    bases = None
    if payload.get("bases") is not None:
        bases_raw = _as_list(payload["bases"], "$.payload.bases")
        if len(bases_raw) != len(spaces):
            raise SchemaError("$.payload.bases: need one basis per space")
        bases = [_matrix(raw, spaces[i], spaces[i], f"$.payload.bases[{i}]")
                 for i, raw in enumerate(bases_raw)]
    seq = BasedExactSequence(ChainComplexSpec(spaces, diffs), bases)
    return {"value": torsion_scalar(seq).to_text(),
            "report": {"spaces": spaces,
                       "basis_fingerprint": seq.fingerprint()}}


def _handle_pair(payload: dict) -> dict:
    dim = _operator_dim(payload)
    a = _square(payload, "a", dim, "$.payload")
    b = _square(payload, "b", dim, "$.payload")
    report = joint_torsion_pair(a, b)
    return {"value": report.value.to_text(), "report": _quad_report(report)}


def _handle_quad(payload: dict) -> dict:
    dim = _operator_dim(payload)
    q = KoszulQuadruple(*(_square(payload, key, dim, "$.payload")
                          for key in ("a", "b", "c", "d")))
    report = joint_torsion_quad(q)
    return {"value": report.value.to_text(), "report": _quad_report(report)}


def _quad_report(report) -> dict:
    return {
        "sign_exponents": {
            "lambda": report.lambda_exp, "pairing": report.pairing_exp,
            "kappa_A": report.kappa_A, "kappa_B": report.kappa_B,
            "kappa_C": report.kappa_C, "kappa_D": report.kappa_D,
            "mu": report.mu_values},
        "homology_dims": report.homology_dims,
        "tau_AD": report.tau_AD.to_text(),
        "tau_BC": report.tau_BC.to_text(),
        "sigma_AD": report.sigma_AD.to_text(),
        "sigma_BC": report.sigma_BC.to_text(),
    }


def _handle_toeplitz_exact(payload: dict) -> dict:
    f, g = _symbol(payload, "f"), _symbol(payload, "g")
    value = toeplitz_joint_torsion(restriction_data(f, g))
    return {"value": value.to_text(),
            "report": {"tame_symbol": tame_symbol(f, g).to_text(),
                       "winding_f": f.winding, "winding_g": g.winding}}


def _handle_toeplitz_numeric(payload: dict) -> dict:
    f = _trig_poly(_need(payload, "f", "$.payload"), "$.payload.f")
    g = _trig_poly(_need(payload, "g", "$.payload"), "$.payload.g")
    size = _as_int(_need(payload, "n", "$.payload"), "$.payload.n")
    buffer = payload.get("buffer")
    if buffer is not None:
        buffer = _as_int(buffer, "$.payload.buffer")
    value = numeric_det_invariant(f, g, size, buffer)
    closed = closed_form_di(f, g)
    return {"value": _complex_text(value),
            "report": {"closed_form": _complex_text(closed),
                       "abs_error": _float_text(abs(value - closed)),
                       "n": size}}


def _handle_verify(payload: dict, seed: int) -> dict:
    name = _need(payload, "suite", "$.payload")
    if not isinstance(name, str):
        raise SchemaError("$.payload.suite: expected a string")
    count = _as_int(_need(payload, "count", "$.payload"), "$.payload.count")
    return run_suite(name, seed, count)


def run_request(request: dict) -> dict:
    """Dispatch a validated request object; raises SchemaError/DomainError."""
    request = _as_dict(request, "$")
    cmd = _need(request, "cmd", "$")
    if cmd not in _COMMANDS:
        raise SchemaError(f"$.cmd: unknown command {cmd!r}")
    payload = _as_dict(request.get("payload", {}), "$.payload")
    seed = _as_int(request.get("seed", 0), "$.seed")
    if cmd == "torsion":
        return _handle_torsion(payload)
    if cmd == "joint_torsion_pair":
        return _handle_pair(payload)
    if cmd == "joint_torsion_quad":
        return _handle_quad(payload)
    if cmd == "toeplitz_exact":
        return _handle_toeplitz_exact(payload)
    if cmd == "toeplitz_numeric":
        return _handle_toeplitz_numeric(payload)
    return _handle_verify(payload, seed)


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="jointtorsion", add_help=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--count", type=int, default=None)
    parser.add_argument("--suite", type=str, default=None)
    args = parser.parse_args(argv)

    if args.suite is not None:
        request = {"cmd": "verify",
                   "payload": {"suite": args.suite,
                               "count": args.count if args.count is not None else 100},
                   "seed": args.seed if args.seed is not None else 0}
    else:
        text = sys.stdin.read()
        try:
            request = json.loads(text)
        except json.JSONDecodeError as exc:
            _emit({"error": f"parse error at line {exc.lineno} column "
                            f"{exc.colno}: {exc.msg}"})
            return 3
        if args.seed is not None and isinstance(request, dict):
            request.setdefault("seed", args.seed)
        if args.count is not None and isinstance(request, dict):
            request.setdefault("payload", {})
            if isinstance(request["payload"], dict):
                request["payload"].setdefault("count", args.count)

    started = time.monotonic()
    try:
        response = run_request(request)
    except SchemaError as exc:
        _emit({"error": str(exc)})
        return 3
    except (DomainError, ZeroDivisionError) as exc:
        _emit({"error": str(exc)})
        return 2
    except Exception as exc:
        _emit({"error": f"{type(exc).__name__}: {exc}"})
        return 4
    if isinstance(request, dict) and request.get("timing") is True:
        response["timing_ms"] = int((time.monotonic() - started) * 1000)
    _emit(response)
    return 0


if __name__ == "__main__":
    sys.exit(main())
