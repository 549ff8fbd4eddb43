"""Batch JSON front end.

One request in (stdin or flags), one JSON response out (stdout).  The
command lives inside the request, so suites are plain data:

    echo '{"cmd": "joint_torsion_quad", "payload": {...}}' | jointtorsion
    jointtorsion --suite finite-triviality --seed 7 --count 200

Importing this module loads no other module of the package but ``errors``,
and neither ``argparse`` nor ``json``, which ``main`` and ``_emit`` import:
each handler imports the modules its command runs, so a fresh process loads
only those (a quad request never loads ``fredholm``, ``toeplitz``,
``suites`` or numpy, and a numeric request no exact module).  No other
module knows the request grammar: ``suites`` takes its reproducers from the
request writers below.

Exit codes: 0 success, 2 domain error (a module precondition failed, a
quad or pair ``dim`` above ``_MAX_OPERATOR_DIM``, torsion ``spaces`` that
sum to more than ``_MAX_SPACES_TOTAL``, a toeplitz_exact
symbol with more than ``_MAX_ROOTS`` roots or a leading coefficient or root
longer than ``_MAX_SYMBOL_TEXT`` characters, a verify ``count`` above
``_MAX_SUITE_COUNT``, or a result part with more digits than
``sys.get_int_max_str_digits()``), 3 parse error (malformed JSON, including
a key repeated in one object, an integer literal over that digit limit and
nesting deeper than the recursion limit, or a payload that does not match
the command's schema, including a key the request, its payload, a symbol or
a trig polynomial does not have, scalar text outside the ASCII grammar or
with a part over the digit limit, a negative dimension or buffer, a seed
that is not an integer, a timing that is not a boolean, a trig degree key
outside ``0|-?[1-9][0-9]*`` and a trig coefficient that is a boolean or not
a finite number; messages carry the JSON path), 4 internal error (any other
exception; the body is {"error": "..."}, never a traceback).  Output bytes
are identical for identical (request, seed); wall-clock timing is only
included when the request sets "timing": true.
"""

from __future__ import annotations

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
    from .koszul import KoszulQuadruple
    from .linalg import ExactMatrix
    from .scalars import QiScalar
    from .toeplitz import AnalyticSymbol

_REQUEST_KEYS = ("cmd", "payload", "seed", "timing")

# A dim-20 quadruple with invertible D takes 3-4 s on a 2-vCPU machine, and
# the cost grows about 5x per four dimensions.
_MAX_OPERATOR_DIM = 20

# A dense two-term torsion request at [64, 64] with entries p/q + r/s i,
# |p|, |r|, q, s <= 4, takes about 0.25 s on a 2-vCPU machine, and about
# 0.75 s and 17 MB peak RSS with a random basis of that size for both
# spaces; [96, 96] took 3 s.  Without the cap, spaces [n, 0, n] with no entries
# filled an n x n product of zeros before failing.
_MAX_SPACES_TOTAL = 128

# toeplitz_exact with f and g each given n roots inside the disk, each
# root 1/p + 1/q i on its own two 3-digit primes (12 characters), leading
# coefficients 2 and 3, takes 0.001, 0.12 and 3.7 s at n = 4, 8 and 12 on a
# 2-vCPU machine: about 2.4x per root from 8 on.  At 12 roots of 14
# characters (4-digit primes) it took 6.1 s.
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

def _need(obj: dict, key: str, path: str, read=None, *args):
    """``obj[key]``, or ``read(obj[key], path.key, *args)``: each reader
    takes the value it reads and that value's path."""
    if key not in obj:
        raise SchemaError(f"{path}.{key}: missing")
    return obj[key] if read is None else read(obj[key], f"{path}.{key}", *args)


def _optional(obj: dict, key: str, path: str, read, *args):
    """``_need``, but None where ``key`` is missing or null."""
    return None if obj.get(key) is None else _need(obj, key, path, read, *args)


def _only(value, path: str, keys: tuple) -> dict:
    """An object that holds no key but ``keys``."""
    for key in _as_dict(value, path):
        if key not in keys:
            raise SchemaError(f"{path}.{key}: unknown key")
    return value


def _as_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{path}: expected an integer")
    return value


def _as_dim(value, path: str) -> int:
    value = _as_int(value, path)
    if value < 0:
        raise SchemaError(f"{path}: expected a nonnegative integer")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{path}: expected a boolean")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{path}: expected a string")
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


def _matrix(value, path: str, rows: int, cols: int) -> ExactMatrix:
    from .linalg import ExactMatrix
    from .scalars import QiScalar

    items = _as_list(value, path)
    if len(items) != rows * cols:
        raise SchemaError(f"{path}: expected {rows * cols} entries "
                          f"({rows}x{cols} row-major), got {len(items)}")
    return ExactMatrix(rows, cols, [_scalar(QiScalar.parse, v, f"{path}[{i}]")
                                    for i, v in enumerate(items)])


def _matrices(value, path: str, shapes: list, need: str) -> list:
    """One matrix per (rows, cols) in ``shapes``; ``need`` says how many."""
    items = _as_list(value, path)
    if len(items) != len(shapes):
        raise SchemaError(f"{path}: need {need}")
    return [_matrix(v, f"{path}[{i}]", rows, cols)
            for i, (v, (rows, cols)) in enumerate(zip(items, shapes))]


def _dims(value, path: str) -> list:
    return [_as_dim(v, f"{path}[{i}]")
            for i, v in enumerate(_as_list(value, path))]


def _operators(payload: dict, keys: str) -> list:
    """The matrices ``keys`` of a quad or pair request, ``dim`` capped first."""
    dim = _need(payload, "dim", "$.payload", _as_dim)
    if dim > _MAX_OPERATOR_DIM:
        raise DomainError(f"dim {dim} exceeds the cap of {_MAX_OPERATOR_DIM}")
    return [_need(payload, key, "$.payload", _matrix, dim, dim)
            for key in keys]


def _symbol_scalar(value, path: str) -> QiScalar:
    from .scalars import QiScalar

    if isinstance(value, str) and len(value) > _MAX_SYMBOL_TEXT:
        raise DomainError(f"{path} has {len(value)} characters, above the "
                          f"cap of {_MAX_SYMBOL_TEXT}")
    return _scalar(QiScalar.parse, value, path)


def _roots(value, path: str, symbol: str) -> list:
    """The roots of ``symbol``, their count capped before any is read."""
    items = _as_list(value, path)
    if len(items) > _MAX_ROOTS:
        raise DomainError(f"{symbol} has {len(items)} roots, above the cap of "
                          f"{_MAX_ROOTS}")
    return [_symbol_scalar(v, f"{path}[{i}]") for i, v in enumerate(items)]


def _symbol(value, path: str, name: str) -> AnalyticSymbol:
    """The symbol ``name`` of a toeplitz_exact request, each scalar's text
    length capped before it is parsed."""
    from .toeplitz import AnalyticSymbol

    obj = _only(value, path, ("leading", "roots"))
    leading = _need(obj, "leading", path, _symbol_scalar)
    return AnalyticSymbol(leading, _need(obj, "roots", path, _roots, name))


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

    obj = _only(value, path, ("coeffs",))
    return TrigPoly(_need(obj, "coeffs", path, _coeffs))


def _coeffs(value, path: str) -> dict:
    """A trig polynomial's coefficients, keyed by degree."""
    out = {}
    for key, pair in _as_dict(value, path).items():
        try:
            degree = int(key) if _DEGREE_TEXT.fullmatch(key) else None
        except ValueError:  # more digits than int() reads
            degree = None
        if degree is None:
            raise SchemaError(f"{path}: bad degree {key!r}")
        arr = _as_list(pair, f"{path}.{key}")
        if len(arr) != 2:
            raise SchemaError(f"{path}.{key}: expected [re, im]")
        out[degree] = complex(*(_finite(x, f"{path}.{key}[{i}]")
                                for i, x in enumerate(arr)))
    return out


def _complex_text(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.15g}{sign}{abs(z.imag):.15g}*i"


# -- request writers: each builds a request that the readers above accept -----

def quad_request(q: KoszulQuadruple) -> dict:
    """The joint_torsion_quad request for the quadruple ``q``."""
    payload = {"dim": q.dim}
    for key in "abcd":
        payload[key] = [e.to_text() for e in getattr(q, key).entries]
    return {"cmd": "joint_torsion_quad", "payload": payload}


def toeplitz_exact_request(f: AnalyticSymbol, g: AnalyticSymbol) -> dict:
    """The toeplitz_exact request for the symbols ``f`` and ``g``."""
    return {"cmd": "toeplitz_exact",
            "payload": {key: {"leading": s.leading.to_text(),
                              "roots": [r.to_text() for r in s.roots]}
                        for key, s in (("f", f), ("g", g))}}


def verify_request(suite: str, count: int, seed: int) -> dict:
    """The verify request for instances 0 .. count - 1 of ``suite``."""
    return {"cmd": "verify", "payload": {"suite": suite, "count": count},
            "seed": seed}


# -- command handlers: each takes (payload, seed) -----------------------------

def _handle_torsion(payload: dict, seed: int) -> dict:
    from .complexes import BasedExactSequence, torsion_scalar

    spaces = _need(payload, "spaces", "$.payload", _dims)
    if sum(spaces) > _MAX_SPACES_TOTAL:
        raise DomainError(f"spaces total {sum(spaces)} exceeds the cap of "
                          f"{_MAX_SPACES_TOTAL}")
    diffs = _need(payload, "differentials", "$.payload", _matrices,
                  list(zip(spaces[1:], spaces)), "one per adjacent pair")
    bases = _optional(payload, "bases", "$.payload", _matrices,
                   [(n, n) for n in spaces], "one basis per space")
    seq = BasedExactSequence(spaces, diffs, bases)
    return {"value": torsion_scalar(seq).to_text(),
            "report": {"spaces": spaces,
                       "basis_fingerprint": seq.fingerprint()}}


def _handle_pair(payload: dict, seed: int) -> dict:
    from .koszul import joint_torsion_pair

    return _koszul_response(joint_torsion_pair(*_operators(payload, "ab")))


def _handle_quad(payload: dict, seed: int) -> dict:
    from .koszul import KoszulQuadruple, joint_torsion_quad

    q = KoszulQuadruple(*_operators(payload, "abcd"))
    return _koszul_response(joint_torsion_quad(q))


def _koszul_response(report) -> dict:
    """The response to a pair or quad request, from its
    ``JointTorsionReport``."""
    return {"value": report.value.to_text(),
            "report": {
                "sign_exponents": {
                    "lambda": report.lambda_exp, "pairing": report.pairing_exp,
                    "kappa_A": report.kappa_A, "kappa_B": report.kappa_B,
                    "kappa_C": report.kappa_C, "kappa_D": report.kappa_D,
                    "mu": report.mu_values},
                "homology_dims": report.homology_dims,
                "tau_AD": report.tau_AD.to_text(),
                "tau_BC": report.tau_BC.to_text(),
                "sigma_AD": report.sigma_AD.to_text(),
                "sigma_BC": report.sigma_BC.to_text()}}


def _handle_toeplitz_exact(payload: dict, seed: int) -> dict:
    from .toeplitz import (restriction_sequences, tame_symbol,
                           toeplitz_joint_torsion)

    f, g = (_need(payload, key, "$.payload", _symbol, key) for key in "fg")
    value = toeplitz_joint_torsion(*restriction_sequences(f, g))
    return {"value": value.to_text(),
            "report": {"tame_symbol": tame_symbol(f, g).to_text(),
                       "winding_f": f.winding, "winding_g": g.winding}}


def _handle_toeplitz_numeric(payload: dict, seed: int) -> dict:
    from .fredholm import closed_form_di, numeric_det_invariant

    f, g = (_need(payload, key, "$.payload", _trig_poly) for key in "fg")
    size = _need(payload, "n", "$.payload", _as_int)
    buffer = _optional(payload, "buffer", "$.payload", _as_dim)
    value = numeric_det_invariant(f, g, size, buffer)
    closed = closed_form_di(f, g)
    return {"value": _complex_text(value),
            "report": {"closed_form": _complex_text(closed),
                       "abs_error": f"{abs(value - closed):.15g}",
                       "n": size}}


def _handle_verify(payload: dict, seed: int) -> dict:
    from .suites import run_suite

    name = _need(payload, "suite", "$.payload", _as_str)
    count = _need(payload, "count", "$.payload", _as_int)
    if count > _MAX_SUITE_COUNT:
        raise DomainError(f"count {count} exceeds the cap of "
                          f"{_MAX_SUITE_COUNT}")
    return run_suite(name, seed, count)


# Each command's payload keys and handler; any other key is a schema error,
# so that a misspelt key cannot silently fall back to a default.
_COMMANDS = {
    "torsion": (("spaces", "differentials", "bases"), _handle_torsion),
    "joint_torsion_pair": (("dim", "a", "b"), _handle_pair),
    "joint_torsion_quad": (("dim", "a", "b", "c", "d"), _handle_quad),
    "toeplitz_exact": (("f", "g"), _handle_toeplitz_exact),
    "toeplitz_numeric": (("f", "g", "n", "buffer"), _handle_toeplitz_numeric),
    "verify": (("suite", "count"), _handle_verify),
}


def run_request(request: dict) -> dict:
    """Dispatch a validated request object; raises SchemaError/DomainError."""
    request = _only(request, "$", _REQUEST_KEYS)
    cmd = _need(request, "cmd", "$")
    if not isinstance(cmd, str) or cmd not in _COMMANDS:
        raise SchemaError(f"$.cmd: unknown command {cmd!r}")
    keys, handle = _COMMANDS[cmd]
    payload = _only(request.get("payload", {}), "$.payload", keys)
    seed = _as_int(request.get("seed", 0), "$.seed")
    _optional(request, "timing", "$", _as_bool)  # main adds the timing
    return handle(payload, seed)


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its key-value pairs; a repeated key is an error,
    where ``json.loads`` alone would keep the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _emit(obj: dict) -> None:
    import json

    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(prog="jointtorsion", add_help=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--count", type=int, default=None)
    parser.add_argument("--suite", type=str, default=None)
    args = parser.parse_args(argv)

    if args.suite is not None:
        request = verify_request(
            args.suite, args.count if args.count is not None else 100,
            args.seed if args.seed is not None else 0)
    else:
        text = sys.stdin.read()
        try:
            request = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            _emit({"error": f"parse error at line {exc.lineno} column "
                            f"{exc.colno}: {exc.msg}"})
            return 3
        except (ValueError, RecursionError) as exc:
            # a duplicate key, an integer literal longer than int() reads,
            # or nesting deeper than the recursion limit
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
    if request.get("timing"):
        response["timing_ms"] = int((time.monotonic() - started) * 1000)
    _emit(response)
    return 0


if __name__ == "__main__":
    sys.exit(main())
