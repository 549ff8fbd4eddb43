"""Batch JSON front end.

One request in (stdin or flags), one JSON response out (stdout).  The
command lives inside the request, so suites are plain data:

    echo '{"cmd": "joint_torsion_quad", "payload": {...}}' | jointtorsion
    jointtorsion --suite finite-triviality --seed 7 --count 200

Importing this module loads no other module of the package but ``errors``:
each handler imports the modules its command runs, so a fresh process
loads only those (a quad request never loads ``fredholm``, ``toeplitz``,
``suites`` or numpy, and a numeric request no exact module).

Exit codes: 0 success, 2 domain error (a module precondition failed, a
quad or pair ``dim`` above ``_MAX_OPERATOR_DIM``, torsion ``spaces`` that
sum to more than ``_MAX_SPACES_TOTAL``, a toeplitz_exact
symbol with more than ``_MAX_ROOTS`` roots or a leading coefficient or root
longer than ``_MAX_SYMBOL_TEXT`` characters, a verify ``count`` above
``_MAX_SUITE_COUNT``, or a result part with more digits than
``sys.get_int_max_str_digits()``), 3 parse error (malformed JSON, including
an integer literal over that digit limit and nesting deeper than the
recursion limit, or a payload that does not match the command's schema,
including a key the request, its payload, a symbol or a trig polynomial
does not have, scalar text outside the ASCII grammar or with a part over
the digit limit, a negative dimension or buffer, a seed that
is not an integer, a trig degree key outside ``0|-?[1-9][0-9]*`` and a trig
coefficient that is a boolean or not a finite number; messages carry the
JSON path), 4 internal error (any other exception; the body is
{"error": "..."}, never a traceback).  Output bytes are identical for
identical (request, seed); wall-clock timing is only included when the
request sets "timing": true.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time

from .errors import DomainError

# typing.TYPE_CHECKING without importing typing, which no exact command
# loads otherwise: type checkers read any name TYPE_CHECKING as true.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .fredholm import TrigPoly
    from .linalg import ExactMatrix
    from .scalars import QiScalar
    from .toeplitz import AnalyticSymbol

# Each command with the keys its payload may hold; any other key is a schema
# error, so that a misspelt key cannot silently fall back to a default.
_COMMANDS = {
    "torsion": ("spaces", "differentials", "bases"),
    "joint_torsion_pair": ("dim", "a", "b"),
    "joint_torsion_quad": ("dim", "a", "b", "c", "d"),
    "toeplitz_exact": ("f", "g"),
    "toeplitz_numeric": ("f", "g", "n", "buffer"),
    "verify": ("suite", "count"),
}
_REQUEST_KEYS = ("cmd", "payload", "seed", "timing")

# A dim-20 quadruple with invertible D takes 3-4 s on a 2-vCPU machine, and
# the cost grows about 5x per four dimensions.
_MAX_OPERATOR_DIM = 20

# A dense two-term torsion request at [64, 64] with entries p/q + r/s i,
# |p|, |r|, q, s <= 4, takes about 0.35 s on a 2-vCPU machine, and about
# 1.1 s and 23 MB peak with a random basis of that size for both spaces;
# [96, 96] took 3 s.  Without the cap, spaces [n, 0, n] with no entries
# filled an n x n product of zeros before failing.
_MAX_SPACES_TOTAL = 128

# toeplitz_exact with f and g each given 12 roots inside the disk, each
# root 1/p + 1/q i on its own two 3-digit primes (12 characters), takes
# 5-7.5 s on a 2-vCPU machine; at 14 characters it took 8.5-11.5 s.  The
# cost grows about 1.9x per root.
_MAX_ROOTS = 12
_MAX_SYMBOL_TEXT = 12

# numeric-convergence, the costliest suite per instance, took 4.1 s at
# count 200 on a 2-vCPU machine, so about 8 s at the cap; the acceptance
# criteria run at most 250 instances.
_MAX_SUITE_COUNT = 400

# A trig coefficient's degree key: 0 or a signed integer in ASCII digits
# without a leading +, zero or blank, so that no two keys read as one degree.
_DEGREE_TEXT = re.compile(r"0|-?[1-9][0-9]*")


class SchemaError(ValueError):
    """Request does not match the command schema; message carries the path."""


# -- payload readers ---------------------------------------------------------

def _need(payload: dict, key: str, path: str):
    if key not in payload:
        raise SchemaError(f"{path}.{key}: missing")
    return payload[key]


def _only(obj: dict, keys: tuple, path: str) -> dict:
    for key in obj:
        if key not in keys:
            raise SchemaError(f"{path}.{key}: unknown key")
    return obj


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


def _scalar(parse, value, path: str) -> QiScalar:
    """``parse(value)`` for scalar text; ``parse`` is ``QiScalar.parse``,
    which each reader fetches once, not once per entry."""
    if not isinstance(value, str):
        raise SchemaError(f"{path}: expected scalar text")
    try:
        return parse(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _matrix(value, rows: int, cols: int, path: str) -> ExactMatrix:
    from .linalg import ExactMatrix
    from .scalars import QiScalar

    items = _as_list(value, path)
    if len(items) != rows * cols:
        raise SchemaError(f"{path}: expected {rows * cols} entries "
                          f"({rows}x{cols} row-major), got {len(items)}")
    return ExactMatrix(rows, cols, [_scalar(QiScalar.parse, v, f"{path}[{i}]")
                                    for i, v in enumerate(items)])


def _operator_dim(payload: dict) -> int:
    """The ``dim`` of a quad or pair request, capped before any matrix is
    read."""
    dim = _as_dim(_need(payload, "dim", "$.payload"), "$.payload.dim")
    if dim > _MAX_OPERATOR_DIM:
        raise DomainError(f"dim {dim} exceeds the cap of {_MAX_OPERATOR_DIM}")
    return dim


def _square(payload: dict, key: str, dim: int, path: str) -> ExactMatrix:
    return _matrix(_need(payload, key, path), dim, dim, f"{path}.{key}")


def _symbol_scalar(parse, value, path: str) -> QiScalar:
    if isinstance(value, str) and len(value) > _MAX_SYMBOL_TEXT:
        raise DomainError(f"{path} has {len(value)} characters, above the "
                          f"cap of {_MAX_SYMBOL_TEXT}")
    return _scalar(parse, value, path)


def _symbol(payload: dict, key: str) -> AnalyticSymbol:
    """The symbol ``key`` of a toeplitz_exact request, its root count capped
    before any root is read and each scalar's text length before it is
    parsed."""
    from .scalars import QiScalar
    from .toeplitz import AnalyticSymbol

    path = f"$.payload.{key}"
    obj = _only(_as_dict(_need(payload, key, "$.payload"), path),
                ("leading", "roots"), path)
    leading = _symbol_scalar(QiScalar.parse, _need(obj, "leading", path),
                             f"{path}.leading")
    items = _as_list(_need(obj, "roots", path), f"{path}.roots")
    if len(items) > _MAX_ROOTS:
        raise DomainError(f"{key} has {len(items)} roots, above the cap of "
                          f"{_MAX_ROOTS}")
    roots = [_symbol_scalar(QiScalar.parse, v, f"{path}.roots[{i}]")
             for i, v in enumerate(items)]
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
    from .fredholm import TrigPoly

    obj = _only(_as_dict(value, path), ("coeffs",), path)
    coeffs = _as_dict(_need(obj, "coeffs", path), f"{path}.coeffs")
    out = {}
    for key, pair in coeffs.items():
        try:
            degree = int(key) if _DEGREE_TEXT.fullmatch(key) else None
        except ValueError:  # more digits than int() reads
            degree = None
        if degree is None:
            raise SchemaError(f"{path}.coeffs: bad degree {key!r}")
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
    from .complexes import BasedExactSequence, ChainComplexSpec, torsion_scalar

    spaces = [_as_dim(v, f"$.payload.spaces[{i}]") for i, v in
              enumerate(_as_list(_need(payload, "spaces", "$.payload"),
                                 "$.payload.spaces"))]
    if sum(spaces) > _MAX_SPACES_TOTAL:
        raise DomainError(f"spaces total {sum(spaces)} exceeds the cap of "
                          f"{_MAX_SPACES_TOTAL}")
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
    from .koszul import joint_torsion_pair

    dim = _operator_dim(payload)
    a = _square(payload, "a", dim, "$.payload")
    b = _square(payload, "b", dim, "$.payload")
    report = joint_torsion_pair(a, b)
    return {"value": report.value.to_text(), "report": _quad_report(report)}


def _handle_quad(payload: dict) -> dict:
    from .koszul import KoszulQuadruple, joint_torsion_quad

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
    from .toeplitz import restriction_data, tame_symbol, toeplitz_joint_torsion

    f, g = _symbol(payload, "f"), _symbol(payload, "g")
    value = toeplitz_joint_torsion(restriction_data(f, g))
    return {"value": value.to_text(),
            "report": {"tame_symbol": tame_symbol(f, g).to_text(),
                       "winding_f": f.winding, "winding_g": g.winding}}


def _handle_toeplitz_numeric(payload: dict) -> dict:
    from .fredholm import closed_form_di, numeric_det_invariant

    f = _trig_poly(_need(payload, "f", "$.payload"), "$.payload.f")
    g = _trig_poly(_need(payload, "g", "$.payload"), "$.payload.g")
    size = _as_int(_need(payload, "n", "$.payload"), "$.payload.n")
    buffer = payload.get("buffer")
    if buffer is not None:
        buffer = _as_dim(buffer, "$.payload.buffer")
    value = numeric_det_invariant(f, g, size, buffer)
    closed = closed_form_di(f, g)
    return {"value": _complex_text(value),
            "report": {"closed_form": _complex_text(closed),
                       "abs_error": _float_text(abs(value - closed)),
                       "n": size}}


def _handle_verify(payload: dict, seed: int) -> dict:
    from .suites import run_suite

    name = _need(payload, "suite", "$.payload")
    if not isinstance(name, str):
        raise SchemaError("$.payload.suite: expected a string")
    count = _as_int(_need(payload, "count", "$.payload"), "$.payload.count")
    if count > _MAX_SUITE_COUNT:
        raise DomainError(f"count {count} exceeds the cap of "
                          f"{_MAX_SUITE_COUNT}")
    return run_suite(name, seed, count)


def run_request(request: dict) -> dict:
    """Dispatch a validated request object; raises SchemaError/DomainError."""
    request = _only(_as_dict(request, "$"), _REQUEST_KEYS, "$")
    cmd = _need(request, "cmd", "$")
    if not isinstance(cmd, str) or cmd not in _COMMANDS:
        raise SchemaError(f"$.cmd: unknown command {cmd!r}")
    payload = _only(_as_dict(request.get("payload", {}), "$.payload"),
                    _COMMANDS[cmd], "$.payload")
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
        except (ValueError, RecursionError) as exc:
            # an integer literal longer than int() reads, or nesting deeper
            # than the recursion limit
            _emit({"error": f"parse error: {exc}"})
            return 3
        if args.seed is not None and isinstance(request, dict):
            request.setdefault("seed", args.seed)
        if (args.count is not None and isinstance(request, dict)
                and request.get("cmd") == "verify"):
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
