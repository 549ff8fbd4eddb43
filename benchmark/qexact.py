"""Exact Gaussian-rational arithmetic on ``fractions``, independent of the package.

The benchmark checks every response against this module, so no output check
ever calls the code under test.  A scalar is a pair ``(re, im)`` of
``Fraction``; a matrix is a list of rows of scalars.  Only what the checks
and the input generators need is here: parsing and printing the package's
scalar text, rank, determinant, inverse, kernel basis and the tame symbol.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def neg(x):
    return (-x[0], -x[1])


def mul(x, y):
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c)


def inv(x):
    a, b = x
    m = a * a + b * b
    if not m:
        raise ZeroDivisionError("inverse of zero")
    return (a / m, -b / m)


def is_zero(x) -> bool:
    return not x[0] and not x[1]


def modulus_sq(x) -> Fraction:
    return x[0] * x[0] + x[1] * x[1]


def scalar(re_part=0, im_part=0):
    return (Fraction(re_part), Fraction(im_part))


# -- text ---------------------------------------------------------------------

def parse(text: str):
    """Read the package's scalar text (``p/q+r/s*i``, parts omitted when 0)."""
    s = text.replace(" ", "")
    if not s.endswith("i"):
        return (Fraction(s), Fraction(0))
    body = s[:-1].removesuffix("*")
    cut = max(body.rfind("+", 1), body.rfind("-", 1))
    real, imag = (body[:cut], body[cut:]) if cut > 0 else ("", body)
    imag = {"": "1", "+": "1", "-": "-1"}.get(imag, imag)
    return (Fraction(real) if real else Fraction(0), Fraction(imag))


def _rat_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def text(x) -> str:
    """Canonical text, the form the package prints."""
    real, imag = x
    if not imag:
        return _rat_text(real)
    body = _rat_text(abs(imag)) + "*i"
    if not real:
        return ("-" if imag < 0 else "") + body
    return _rat_text(real) + ("-" if imag < 0 else "+") + body


# -- matrices -----------------------------------------------------------------

def from_flat(items, rows: int, cols: int):
    return [list(items[i * cols:(i + 1) * cols]) for i in range(rows)]


def flat_text(m) -> list:
    return [text(v) for row in m for v in row]


def identity(n: int):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def matmul(a, b):
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        new = []
        for j in range(cols):
            acc = ZERO
            for t in range(inner):
                if not is_zero(row[t]):
                    acc = add(acc, mul(row[t], b[t][j]))
            new.append(acc)
        out.append(new)
    return out


def vstack(a, b):
    return [list(r) for r in a] + [list(r) for r in b]


def hstack(a, b):
    return [list(ra) + list(rb) for ra, rb in zip(a, b)]


def scale(m, c):
    return [[mul(c, v) for v in row] for row in m]


def madd(a, b):
    return [[add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _eliminate(m):
    """Reduced row echelon form of a copy of m; returns (rows, pivot columns)."""
    work = [list(r) for r in m]
    rows = len(work)
    cols = len(work[0]) if work else 0
    pivots = []
    prow = 0
    for col in range(cols):
        src = next((r for r in range(prow, rows) if not is_zero(work[r][col])), None)
        if src is None:
            continue
        work[prow], work[src] = work[src], work[prow]
        p = inv(work[prow][col])
        work[prow] = [mul(p, v) for v in work[prow]]
        for r in range(rows):
            f = work[r][col]
            if r != prow and not is_zero(f):
                work[r] = [sub(v, mul(f, w)) for v, w in zip(work[r], work[prow])]
        pivots.append(col)
        prow += 1
        if prow == rows:
            break
    return work, pivots


def rank(m) -> int:
    return len(_eliminate(m)[1])


def determinant(m):
    """Exact determinant by Gaussian elimination."""
    work = [list(r) for r in m]
    n = len(work)
    det = ONE
    for col in range(n):
        src = next((r for r in range(col, n) if not is_zero(work[r][col])), None)
        if src is None:
            return ZERO
        if src != col:
            work[col], work[src] = work[src], work[col]
            det = neg(det)
        piv = work[col][col]
        det = mul(det, piv)
        p = inv(piv)
        for r in range(col + 1, n):
            f = work[r][col]
            if not is_zero(f):
                f = mul(f, p)
                work[r] = [sub(v, mul(f, w)) for v, w in zip(work[r], work[col])]
    return det


def inverse(m):
    n = len(m)
    reduced, pivots = _eliminate(hstack(m, identity(n)))
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in reduced]


def kernel_basis(m) -> list:
    """Kernel vectors of m (a list of column vectors), from the free columns."""
    reduced, pivots = _eliminate(m)
    cols = len(m[0])
    basis = []
    for free in (j for j in range(cols) if j not in pivots):
        vec = [ZERO] * cols
        vec[free] = ONE
        for prow, pcol in enumerate(pivots):
            vec[pcol] = neg(reduced[prow][free])
        basis.append(vec)
    return basis


def clear_denominators(vec) -> list:
    """The vector scaled by the lcm of its denominators (same span)."""
    den = 1
    for x in vec:
        den = lcm(den, x[0].denominator, x[1].denominator)
    return [(x[0] * den, x[1] * den) for x in vec]


# -- symbols ------------------------------------------------------------------

def evaluate_symbol(leading, roots, z):
    value = leading
    for r in roots:
        value = mul(value, sub(z, r))
    return value


def tame_symbol(f_leading, f_roots, g_leading, g_roots):
    """prod f(b) over inside roots b of g, over prod g(a) over inside roots a of f."""
    numerator = ONE
    for b in g_roots:
        if modulus_sq(b) < 1:
            numerator = mul(numerator, evaluate_symbol(f_leading, f_roots, b))
    denominator = ONE
    for a in f_roots:
        if modulus_sq(a) < 1:
            denominator = mul(denominator, evaluate_symbol(g_leading, g_roots, a))
    return mul(numerator, inv(denominator))
