"""Floating-point layer: truncated Fredholm determinants of multiplicative
commutators of exponential Toeplitz operators.

For Laurent polynomial exponents f and g the target value has the closed
form exp(sum_k k f_{-k} g_k), the residue evaluation of (1/2 pi i) int f dg.
The numeric route builds T_{e^f} and T_{e^g} as truncated Toeplitz matrices,
inverts them through the analytic/co-analytic splitting

    e^f = e^{f_-} * e^{f_0 + f_+},   T_{e^f}^{-1} = T_{e^{-f_0-f_+}} T_{e^{-f_-}}

(triangular factors invert exactly at the symbol level), multiplies out the
commutator at an enlarged size N + B, and returns the determinant of the
leading N x N block.  Only that block is multiplied out: the first factor
keeps its first N rows and the last its first N columns, so the chain is
(N x M)(M x M)(M x M)(M x N) with M = N + B, and each entry has the bits
it has in the full M x M product.  The buffer B absorbs the truncation
edge.  Its default is B = 2 S, where S, the significant span, is the
largest degree at which any of the eight exponential factors has a
coefficient above 1e-14: each Toeplitz factor then reaches at most S rows
past the block.  The enlarged size N + B may not exceed ``_MAX_DIM``; a
larger request is rejected once S is known and before any array is built.
At the cap one request takes about 1.7 s and 176 MB peak on a 2-vCPU
machine.

The eight factors come from four series, one per +- pair: the series of
e^p also sums e^-p, whose terms are those of e^p with the sign of every
odd term flipped.  The series run before S is known, and their cost grows
with the square of both the degree span of f and g (the support each term
adds) and their coefficient 1-norm (the number of terms).  So a request
whose f or g has degree span above ``_MAX_SPAN`` or coefficient 1-norm
above ``_MAX_NORM`` is rejected before any series is summed.  At span 16
and 1-norm 40 the four series take about 2 s on the same machine.

The products T_{e^f} T_{e^{-f}} cancel the size of their factors, so large
factors leave nothing of double precision.  A request is rejected once the
series are summed when, for f or for g, the product of the largest
coefficient magnitudes of its four factors exceeds ``_MAX_GROWTH``, and
also when the determinant is not finite.

Each thread keeps four flat complex buffers of at least M^2 entries
between requests (numpy releases the GIL inside a product, so threads may
not share them).  Each block and product goes into a buffer whose last
contents are dead.  ``toeplitz_matrix`` gives a read-only strided view of
a Toeplitz block, which ``_block`` copies in.  In the order they are
formed: T_{e^{f_-}} (its first N rows) into 1, T_{e^{f_0+f_+}} into 2,
op_a = T_{e^{f_-}} T_{e^{f_0+f_+}} (N x M) into 3; T_{e^{g_-}} into 1,
T_{e^{g_0+g_+}} into 2, op_b (M x M) into 4; op_a op_b into 1;
T_{e^{-f_0-f_+}} into 2, T_{e^{-f_-}} into 3, op_a^{-1} into 4;
(op_a op_b) op_a^{-1} into 2; T_{e^{-g_0-g_+}} into 1, T_{e^{-g_-}} into 3,
op_b^{-1} (M x N) into 4; the N x N block into 1.  At most four arrays are
live, while op_b, op_a^{-1} and op_b^{-1} are formed.  The four grow
together when a request needs more room and never shrink, so a repeated
request writes its blocks and products into memory it has already
touched, and no M x M array is allocated while it runs.  A thread retains
4 M^2 entries for the largest M it has served, 151 MB at the cap.

The determinant comes from a blocked LU with partial pivoting (panels of
32 columns, each column updated left-looking by one matrix-vector product,
then one matrix product for the trailing block), done in place on the
block in buffer 1.  Each trailing product is written into buffer 3, dead
by then, and subtracted, so the LU allocates no matrix either.  Every
pivot must reach the stability floor, else the truncation is reported
unstable.

numpy is imported by the functions that use it, so importing this module
(and the CLI) does not load it.
"""

from __future__ import annotations

import cmath
import threading
from typing import TYPE_CHECKING

from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

_PIVOT_FLOOR = 1e-12
_TERM_FLOOR = 1e-300
_MAX_TERMS = 400
_PANEL = 32
_MAX_DIM = 1536
_MAX_SPAN = 16
_MAX_NORM = 40.0
_MAX_GROWTH = 1e8

_per_thread = threading.local()


class TrigPoly:
    """A trigonometric (Laurent) polynomial with complex coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        clean = {}
        for k, v in coeffs.items():
            v = complex(v)
            if v != 0:
                clean[int(k)] = v
        self.coeffs = clean

    def __getitem__(self, k: int) -> complex:
        return self.coeffs.get(k, 0j)

    def span(self) -> int:
        return max(map(abs, self.coeffs), default=0)

    def split(self) -> tuple:
        """The pieces with k < 0 and k >= 0, each in input order, except
        that the second lists the constant term first: the exponential
        series sums its terms in this order, which fixes the last bits."""
        lower = {k: v for k, v in self.coeffs.items() if k < 0}
        upper = {0: self[0]}
        upper.update((k, v) for k, v in self.coeffs.items() if k > 0)
        return TrigPoly(lower), TrigPoly(upper)

    def __neg__(self) -> "TrigPoly":
        return TrigPoly({k: -v for k, v in self.coeffs.items()})

    def __repr__(self):
        items = ", ".join(f"{k}: {v}" for k, v in sorted(self.coeffs.items()))
        return f"TrigPoly({{{items}}})"


def exp_symbol_coeffs(f: TrigPoly) -> tuple:
    """Fourier coefficients of e^f and of e^-f at full support, as a pair.

    Term-accumulated products: the running term f^j / j! is convolved at
    full support, with no truncation.  The series stops once a term falls
    below 1e-25 (from the second term on), or after ``_MAX_TERMS`` terms.
    The second stop is never reached under the 1-norm cap ``_MAX_NORM``:
    convolution is submultiplicative in the 1-norm, so every coefficient of
    term j is at most ||f||_1^j / j! <= 40^j / j!, which is below 1e-25
    (10^-25.36) from j = 155 on, well inside ``_MAX_TERMS`` = 400; rounding
    moves a term by a relative amount of order j * 1e-16, far less than that
    margin.  ``numeric_det_invariant`` applies the cap to f and g, and the
    pieces of ``split`` have at most their 1-norm.
    Term j of e^-f is (-1)^j times term j of e^f in every nonzero part,
    since negating the inputs of a product, a sum or the division by j
    negates its rounded result, so one series gives both sums.  Zero parts
    may differ in sign, but both sums start at +0 in every part and
    +0 + -0 = +0, so neither keeps a -0 that a series of -f would not.
    """
    result = {0: 1.0 + 0j}
    inverse = {0: 1.0 + 0j}
    term = {0: 1.0 + 0j}
    for j in range(1, _MAX_TERMS):
        nxt: dict = {}
        for k1, v1 in term.items():
            for k2, v2 in f.coeffs.items():
                key = k1 + k2
                nxt[key] = nxt.get(key, 0j) + v1 * v2
        term = {k: v / j for k, v in nxt.items() if v != 0}
        size = max((abs(v) for v in term.values()), default=0.0)
        if size < _TERM_FLOOR:
            break
        odd = j % 2
        for k, v in term.items():
            result[k] = result.get(k, 0j) + v
            inverse[k] = inverse.get(k, 0j) + (-v if odd else v)
        if size < 1e-25 and j >= 2:
            break
    return ({k: v for k, v in result.items() if v != 0},
            {k: v for k, v in inverse.items() if v != 0})


def closed_form_di(f: TrigPoly, g: TrigPoly) -> complex:
    """exp(sum_k k f_{-k} g_k): the residue form of the pairing integral."""
    total = 0j
    for k, gk in g.coeffs.items():
        fk = f[-k]
        if fk != 0:
            total += k * fk * gk
    try:
        return cmath.exp(total)
    except OverflowError as exc:
        raise DomainError("closed form overflows double precision") from exc


def toeplitz_matrix(coeffs: dict, size: int) -> np.ndarray:
    """Toeplitz block M[j, k] = coeffs[j - k] of the given size, as a
    read-only view.

    The coefficients go once into a vector v of 2 size - 1 entries with
    v[size - 1 - d] = coeffs[d], so M[j, k] = v[size - 1 - j + k]: the block
    is one strided view of v, starting at v[size - 1] with row stride -1 and
    column stride +1 entries.  For j, k < size the index lies in
    [0, 2 size - 2], so the view never leaves v.  Each entry of v appears
    along a whole diagonal, so the view does not accept writes; ``_block``
    copies it into a C-contiguous block.
    """
    import numpy as np

    diagonals = np.zeros(2 * size - 1, dtype=complex)
    for k, v in coeffs.items():
        if abs(k) < size:
            diagonals[size - 1 - k] = v
    step = diagonals.itemsize
    return np.lib.stride_tricks.as_strided(
        diagonals[size - 1:], (size, size), (-step, step), writeable=False)


def _block(out: np.ndarray, coeffs: dict, size: int) -> np.ndarray:
    """``toeplitz_matrix(coeffs, size)`` copied into the leading size^2
    entries of the flat buffer ``out``, as a C-contiguous matrix."""
    block = out[:size * size].reshape(size, size)
    block[...] = toeplitz_matrix(coeffs, size)
    return block


def _product(out: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x y, written into the leading entries of the flat buffer ``out`` as a
    C-contiguous matrix."""
    import numpy as np

    rows, cols = x.shape[0], y.shape[1]
    return np.matmul(x, y, out=out[:rows * cols].reshape(rows, cols))


def _lu_determinant(a: np.ndarray, scratch: np.ndarray) -> complex:
    """Determinant by blocked LU with partial pivoting (first maximum of
    |a| in the column); pivots below the floor, or NaN, are rejected.

    Within a panel each column is brought up to date left-looking, pivoted,
    and its pivot row's U part computed across the whole width; the trailing
    block then takes the panel's update in one product, written into the
    flat buffer ``scratch`` (room for the first trailing block, apart from
    ``a``) and then subtracted.  The factors overwrite ``a``.  At a panel's
    first column both left-looking products have an empty inner dimension:
    they are exact zeros, and subtracting them changes no bit, so that
    column needs no guard.
    """
    import numpy as np

    n = a.shape[0]
    det = 1.0 + 0j
    for p0 in range(0, n, _PANEL):
        p1 = min(p0 + _PANEL, n)
        for k in range(p0, p1):
            col = a[k:, k]
            col -= a[k:, p0:k] @ a[p0:k, k]
            p = int(np.abs(col).argmax())
            pivot = col[p]
            if not abs(pivot) >= _PIVOT_FLOOR:
                raise DomainError("truncation unstable, increase N or shrink symbol")
            if p:
                a[[k, k + p]] = a[[k + p, k]]
                det = -det
            det *= pivot
            col[1:] /= pivot
            a[k, k + 1:] -= a[k, p0:k] @ a[p0:k, k + 1:]
        a[p1:, p1:] -= _product(scratch, a[p1:, p0:p1], a[p0:p1, p1:])
    return det


def _buffers(square: int) -> tuple:
    """This thread's four flat complex buffers, each of at least ``square``
    entries.

    A request that needs more room grows all four (they never shrink); the
    old set is dropped first, so that it is never live beside the new one.
    """
    import numpy as np

    bufs = getattr(_per_thread, "bufs", None)
    if bufs is not None and bufs[0].size >= square:
        return bufs
    _per_thread.bufs = bufs = None
    _per_thread.bufs = tuple(np.empty(square, dtype=complex) for _ in range(4))
    return _per_thread.bufs


def numeric_det_invariant(f: TrigPoly, g: TrigPoly, size: int,
                          buffer: int | None = None) -> complex:
    """Determinant of the leading size x size block of the truncated
    commutator T_{e^f} T_{e^g} T_{e^f}^{-1} T_{e^g}^{-1}.

    Converges to ``closed_form_di(f, g)`` as the size grows.  The buffer
    defaults to twice the significant span of the exponential factors, and
    size + buffer may not exceed ``_MAX_DIM``.  f and g may not exceed the
    ``_MAX_SPAN`` and ``_MAX_NORM`` caps.
    """
    if size < 16:
        raise DomainError("size below the supported minimum of 16")
    for name, poly in (("f", f), ("g", g)):
        span = poly.span()
        if span > _MAX_SPAN:
            raise DomainError(f"{name} has degree span {span}, above the cap "
                              f"of {_MAX_SPAN}")
        norm = sum(map(abs, poly.coeffs.values()))
        if norm > _MAX_NORM:
            raise DomainError(f"{name} has coefficient 1-norm {norm:g}, above "
                              f"the cap of {_MAX_NORM:g}")

    (f_lo, f_lo_inv), (f_up, f_up_inv) = map(exp_symbol_coeffs, f.split())
    (g_lo, g_lo_inv), (g_up, g_up_inv) = map(exp_symbol_coeffs, g.split())

    significant = 0
    for name, sets in (("f", (f_lo, f_up, f_lo_inv, f_up_inv)),
                       ("g", (g_lo, g_up, g_lo_inv, g_up_inv))):
        growth = 1.0
        for coeffs in sets:
            magnitudes = {k: abs(v) for k, v in coeffs.items()}
            growth *= max(magnitudes.values(), default=0.0)
            significant = max([significant, *(abs(k) for k, m in
                                              magnitudes.items() if m > 1e-14)])
        if growth > _MAX_GROWTH:
            raise DomainError(f"the exponential factors of {name} grow to "
                              f"{growth:.3g}, above the cap of "
                              f"{_MAX_GROWTH:g}")
    if buffer is None:
        buffer = 2 * significant
    if buffer < 2 * significant:
        raise DomainError("buffer too small for the exponential coefficient span")
    # toeplitz_matrix drops the degrees at or past the matrix size.
    total = size + buffer
    if total > _MAX_DIM:
        raise DomainError(f"truncation size n + buffer = {total} exceeds "
                          f"the cap of {_MAX_DIM}")

    # Only the leading size x size block of the product is read.  A product
    # restricted to its leading rows or columns keeps their bits, whatever
    # memory it writes to (the tests check this; a tile elsewhere need not),
    # so the restricted chain gives that block the bits of the full product.
    # Each block and product goes into a buffer whose last contents are
    # dead: four are live while op_b, op_a^-1 and op_b^-1 are formed, and
    # the LU writes its trailing updates into b3, dead once op_b^-1 is.
    b1, b2, b3, b4 = _buffers(total * total)
    op_a = _product(b3, _block(b1, f_lo, total)[:size],
                    _block(b2, f_up, total))
    op_b = _product(b4, _block(b1, g_lo, total), _block(b2, g_up, total))
    x = _product(b1, op_a, op_b)
    op_a_inv = _product(b4, _block(b2, f_up_inv, total),
                        _block(b3, f_lo_inv, total))
    y = _product(b2, x, op_a_inv)
    op_b_inv = _product(b4, _block(b1, g_up_inv, total),
                        _block(b3, g_lo_inv, total)[:, :size])
    block = _product(b1, y, op_b_inv)

    det = _lu_determinant(block, b3)
    if not cmath.isfinite(det):
        raise DomainError("determinant is not finite")
    return det
