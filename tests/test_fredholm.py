"""Floating-point layer: exponential symbol coefficients, the residue
closed form, and convergence of truncated commutator determinants."""

import math
import random
import re
import sys
import threading

import numpy as np
import pytest

from jointtorsion import (DomainError, TrigPoly, closed_form_di,
                          exp_symbol_coeffs, numeric_det_invariant)
from jointtorsion import fredholm
from jointtorsion.fredholm import _PIVOT_FLOOR, _lu_determinant
from jointtorsion.suites import _NUMERIC_CORPUS

# The three fixed pairs of the numeric-convergence suite.
NUMERIC_CORPUS = tuple((TrigPoly(dict(f)), TrigPoly(dict(g)))
                       for f, g in _NUMERIC_CORPUS)


def reference_lu_determinant(block):
    """The unblocked LU the blocked one replaced: one rank-1 update per
    column, pivot at the first maximum of |a| in the column."""
    a = block.copy()
    n = a.shape[0]
    det = 1.0 + 0j
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        pivot = a[p, k]
        if abs(pivot) < _PIVOT_FLOOR:
            raise DomainError("truncation unstable, increase N or shrink symbol")
        if p != k:
            a[[k, p]] = a[[p, k]]
            det = -det
        det *= pivot
        if k + 1 < n:
            factors = a[k + 1:, k] / pivot
            a[k + 1:, k + 1:] -= np.outer(factors, a[k, k + 1:])
    return det


def significant_span(f, g):
    """Largest degree with a coefficient above 1e-14 in any of the eight
    exponential factors e^{+-f_-}, e^{+-(f_0 + f_+)} and the same for g."""
    span = 0
    for poly in (f, g):
        for part in poly.split():
            for coeffs in exp_symbol_coeffs(part):
                span = max([span] + [abs(k) for k, v in coeffs.items()
                                     if abs(v) > 1e-14])
    return span


def random_trig_poly(rng, span, scale):
    return TrigPoly({k: complex(rng.uniform(-scale, scale),
                                rng.uniform(-scale, scale))
                     for k in range(-span, span + 1) if rng.random() < 0.7})


def _in_new_thread(fn):
    """fn() run in a thread of its own, which starts with no product
    buffers and no series; its exception, if any, is raised here."""
    out = {}

    def run():
        try:
            out["value"] = fn()
        except BaseException as exc:  # re-raised in the calling thread
            out["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    if "error" in out:
        raise out["error"]
    return out["value"]


def _record_series(monkeypatch):
    """A list that gets the calling thread's ident for every series
    summed."""
    series = []
    original = fredholm.exp_symbol_coeffs

    def recording(poly):
        series.append(threading.get_ident())
        return original(poly)

    monkeypatch.setattr(fredholm, "exp_symbol_coeffs", recording)
    return series


def test_exp_of_zero_is_delta():
    coeffs, inverse = exp_symbol_coeffs(TrigPoly({}))
    assert coeffs == {0: 1.0 + 0j}
    assert inverse == {0: 1.0 + 0j}


def test_exp_of_cz_gives_power_series():
    c = 0.7 - 0.2j
    for coeffs, base in zip(exp_symbol_coeffs(TrigPoly({1: c})), (c, -c)):
        for k in range(10):
            expected = base ** k / math.factorial(k)
            assert (abs(coeffs.get(k, 0j) - expected)
                    < 1e-15 * max(1.0, abs(expected)))
        assert all(k >= 0 for k in coeffs)


def test_exp_symmetric_symbol_center_coefficient():
    # independent series oracle: the center coefficient of e^(z + 1/z)
    # is sum over k of 1/(k!)^2
    oracle = sum(1.0 / math.factorial(k) ** 2 for k in range(40))
    coeffs = exp_symbol_coeffs(TrigPoly({1: 1.0, -1: 1.0}))[0]
    assert abs(coeffs[0] - oracle) < 1e-12
    assert abs(coeffs[0] - 2.2795853) < 1e-6
    for k in range(1, 10):
        assert abs(coeffs[k] - coeffs[-k]) < 1e-14


def test_closed_form_analytic_pair_is_one():
    f = TrigPoly({1: 0.4, 2: -0.1})
    g = TrigPoly({0: 0.3, 1: 0.2})
    assert abs(closed_form_di(f, g) - 1.0) < 1e-15


def test_closed_form_basic_pairs():
    f = TrigPoly({1: 1.0})
    g = TrigPoly({-1: 1.0})
    assert abs(closed_form_di(f, g) - math.exp(-1)) < 1e-12
    f2 = TrigPoly({1: 1.0, -1: 1.0})
    g2 = TrigPoly({1: 1.0, -1: -1.0})
    assert abs(closed_form_di(f2, g2) - math.exp(2)) < 1e-12


def test_closed_form_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match="overflows"):
        closed_form_di(TrigPoly({1: 30.0}), TrigPoly({-1: -30.0}))


def test_numeric_matches_closed_form_exponent_pair():
    f = TrigPoly({1: 1.0})
    g = TrigPoly({-1: 1.0})
    value = numeric_det_invariant(f, g, 128)
    assert abs(value - math.exp(-1)) < 1e-6


def test_numeric_analytic_pair_is_one():
    f = TrigPoly({1: 0.5, 2: 0.25})
    g = TrigPoly({1: -0.3})
    value = numeric_det_invariant(f, g, 64)
    assert abs(value - 1.0) < 1e-9


def test_numeric_hyperbolic_pair():
    f = TrigPoly({1: 1.0, -1: 1.0})
    g = TrigPoly({1: 1.0, -1: -1.0})
    value = numeric_det_invariant(f, g, 128)
    assert abs(value - math.exp(2)) < 1e-4


def test_numeric_error_nonincreasing():
    f = TrigPoly({1: 1.0, -1: 1.0})
    g = TrigPoly({1: 1.0, -1: -1.0})
    target = closed_form_di(f, g)
    errors = [abs(numeric_det_invariant(f, g, n) - target)
              for n in (32, 64, 128)]
    for small, large in zip(errors[1:], errors):
        assert small <= large + 1e-10


def test_numeric_rejects_tiny_size():
    with pytest.raises(DomainError, match="minimum"):
        numeric_det_invariant(TrigPoly({1: 1.0}), TrigPoly({-1: 1.0}), 8)


def test_numeric_rejects_undersized_buffer():
    with pytest.raises(DomainError, match="buffer"):
        numeric_det_invariant(TrigPoly({1: 1.0}), TrigPoly({-1: 1.0}), 32,
                              buffer=2)


# -- the blocked LU against the unblocked reference ----------------------------

@pytest.mark.parametrize("n", [1, 16, 31, 32, 33, 64, 100, 256, 300])
def test_blocked_lu_matches_reference(n):
    rng = np.random.default_rng(1000 + n)
    block = (rng.standard_normal((n, n))
             + 1j * rng.standard_normal((n, n))) / math.sqrt(n)
    expected = reference_lu_determinant(block)
    value = _lu_determinant(block, np.empty(n * n, dtype=complex))
    assert abs(value - expected) <= 1e-12 * abs(expected)


def _unit_triangular(rng, n, entries):
    lower = np.eye(n, dtype=complex)
    for i in range(n):
        for j in range(i):
            lower[i, j] = rng.choice(entries)
    return lower


def _upper(rng, n):
    upper = np.zeros((n, n), dtype=complex)
    for i in range(n):
        upper[i, i] = rng.choice([1, -1, 1j, -1j]) * 2 ** rng.randrange(2)
        for j in range(i + 1, n):
            upper[i, j] = complex(rng.randrange(-2, 3), rng.randrange(-2, 3))
    return upper


@pytest.mark.parametrize("n", [2, 5, 33, 70])
def test_blocked_lu_exact_with_tied_pivots(n):
    # Below its diagonal L holds 0 or units, so each nonzero entry of a
    # pivot column ties with the diagonal and the first maximum keeps the
    # diagonal: the elimination recovers L and U exactly, without swaps.
    rng = random.Random(n)
    lower = _unit_triangular(rng, n, [0, 1, -1, 1j, -1j])
    upper = _upper(rng, n)
    exact = complex(np.prod(np.diag(upper)))
    block = lower @ upper
    assert reference_lu_determinant(block) == exact
    assert _lu_determinant(block, np.empty(n * n, dtype=complex)) == exact


@pytest.mark.parametrize("n", [2, 5, 33, 70])
def test_blocked_lu_exact_with_row_swaps(n):
    # L has entries of modulus 1/2, so pivoting undoes the row permutation
    # P exactly and the determinant is sign(P) times the diagonal of U.
    rng = random.Random(100 + n)
    lower = _unit_triangular(rng, n, [0, 0.5, -0.5, 0.5j, -0.5j])
    upper = _upper(rng, n)
    perm = list(range(n))
    rng.shuffle(perm)
    inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
    exact = (-1) ** inversions * complex(np.prod(np.diag(upper)))
    block = (lower @ upper)[perm]
    assert reference_lu_determinant(block) == exact
    assert _lu_determinant(block, np.empty(n * n, dtype=complex)) == exact


def test_blocked_lu_rejects_rank_deficient_block():
    rng = np.random.default_rng(7)
    block = rng.standard_normal((40, 40)) + 0j
    block[:, 35] = block[:, 3] - 2 * block[:, 17]
    with pytest.raises(DomainError, match="truncation unstable"):
        _lu_determinant(block, np.empty(40 * 40, dtype=complex))


@pytest.mark.parametrize("where", [(0, 0), (5, 20), (39, 39), (20, 5)])
def test_blocked_lu_rejects_nan(where):
    block = np.eye(40, dtype=complex) * 2
    block[where] = complex("nan")
    with pytest.raises(DomainError, match="truncation unstable"):
        _lu_determinant(block, np.empty(40 * 40, dtype=complex))


# -- the numeric path against the full-size reference -------------------------

def reference_exp_series(f):
    """The series of one exponential alone, as first written."""
    result = {0: 1.0 + 0j}
    term = {0: 1.0 + 0j}
    for j in range(1, fredholm._MAX_TERMS):
        nxt = {}
        for k1, v1 in term.items():
            for k2, v2 in f.coeffs.items():
                key = k1 + k2
                nxt[key] = nxt.get(key, 0j) + v1 * v2
        term = {k: v / j for k, v in nxt.items() if v != 0}
        size = max((abs(v) for v in term.values()), default=0.0)
        if size < fredholm._TERM_FLOOR:
            break
        for k, v in term.items():
            result[k] = result.get(k, 0j) + v
        if size < 1e-25 and j >= 2:
            break
    return {k: v for k, v in result.items() if v != 0}


def reference_toeplitz(coeffs, size):
    """The block written one diagonal at a time."""
    m = np.zeros((size, size), dtype=complex)
    for k, v in coeffs.items():
        if abs(k) >= size:
            continue
        idx = np.arange(size - abs(k))
        if k >= 0:
            m[idx + k, idx] = v
        else:
            m[idx, idx - k] = v
    return m


def reference_blocked_lu(block):
    """The blocked LU on a copy, with every panel product and a fancy-index
    row swap.  ``fredholm._lu_determinant`` takes the same steps in place;
    this copy spells them without its column view."""
    a = block.copy()
    n = a.shape[0]
    det = 1.0 + 0j
    for p0 in range(0, n, fredholm._PANEL):
        p1 = min(p0 + fredholm._PANEL, n)
        for k in range(p0, p1):
            a[k:, k] -= a[k:, p0:k] @ a[p0:k, k]
            p = k + int(np.argmax(np.abs(a[k:, k])))
            pivot = a[p, k]
            if not abs(pivot) >= _PIVOT_FLOOR:
                raise DomainError("truncation unstable")
            if p != k:
                a[[k, p]] = a[[p, k]]
                det = -det
            det *= pivot
            a[k + 1:, k] /= pivot
            a[k, k + 1:] -= a[k, p0:k] @ a[p0:k, k + 1:]
        a[p1:, p1:] -= a[p1:, p0:p1] @ a[p0:p1, p1:]
    return det


def reference_factors(f, g):
    """e^{f_-}, e^{f_0 + f_+}, their inverses, and the same for g: eight
    series."""
    factors = []
    for poly in (f, g):
        lower, upper = poly.split()
        factors += [reference_exp_series(part)
                    for part in (lower, upper, -lower, -upper)]
    return factors


def reference_numeric_det(factors, size, buffer=None):
    """Eight blocks, seven products at full size, and the LU of the leading
    block (the caps are left out)."""
    significant = max(abs(k) for coeffs in factors
                      for k, v in coeffs.items() if abs(v) > 1e-14)
    total = size + (2 * significant if buffer is None else buffer)
    f_lo, f_up, f_lo_inv, f_up_inv, g_lo, g_up, g_lo_inv, g_up_inv = (
        reference_toeplitz(coeffs, total) for coeffs in factors)
    product = (f_lo @ f_up) @ (g_lo @ g_up) @ (f_up_inv @ f_lo_inv) @ (
        g_up_inv @ g_lo_inv)
    return reference_blocked_lu(product[:size, :size])


def bits(z):
    return z.real.hex(), z.imag.hex()


def test_toeplitz_block_matches_the_per_diagonal_reference():
    # the view shares one entry along each diagonal, so it takes no writes;
    # the block copied from it into a flat buffer is what the products read
    rng = random.Random(151)
    out = np.empty(40 * 40, dtype=complex)
    for size in (1, 2, 3, 7, 16, 33):
        for _ in range(10):
            coeffs = {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for k in range(-40, 41) if rng.random() < 0.3}
            assert not fredholm.toeplitz_matrix(coeffs, size).flags.writeable
            block = fredholm._block(out, coeffs, size)
            assert block.base is out
            assert block.flags.c_contiguous
            assert block.tobytes() == reference_toeplitz(coeffs, size).tobytes()


def test_exp_pair_matches_two_reference_series():
    rng = random.Random(15)
    polys = [TrigPoly({1: 1.0}), TrigPoly({-2: 0.5j, 3: -0.25})]
    for i in range(40):
        polys.append(random_trig_poly(rng, 1 + i % 4, 1.5))
    for poly in polys:
        for part in poly.split() + (poly,):
            for got, want in zip(exp_symbol_coeffs(part),
                                 (reference_exp_series(part),
                                  reference_exp_series(-part))):
                assert list(got) == list(want)
                assert [bits(v) for v in got.values()] == [
                    bits(v) for v in want.values()]


def test_numeric_path_matches_the_full_size_reference():
    # Restricting the products to the rows and columns the determinant
    # reads, one series per +- pair and the LU in place change no bit.
    # At n = 256 the LU has eight panels, and its scratch takes seven
    # trailing updates in turn; that size runs on the corpus and on the
    # first random pair of span 2.
    rng = random.Random(1515)
    pairs = list(NUMERIC_CORPUS)
    for i in range(21):
        span = 1 + i % 3
        pairs.append((random_trig_poly(rng, span, 1.5),
                      random_trig_poly(rng, span, 1.5)))
    for index, (f, g) in enumerate(pairs):
        factors = reference_factors(f, g)
        span = significant_span(f, g)
        eight_panels = (256,) if index in (0, 1, 2, 4) else ()
        for n in (16, 32, 64, 128) + eight_panels:
            for buffer in (None, 2 * span + 3):
                value = numeric_det_invariant(f, g, n, buffer)
                assert bits(value) == bits(
                    reference_numeric_det(factors, n, buffer))


# -- claim 2: only the images modulo trace class matter ----------------------

def other_order_dets(f, g, size, total):
    """det of the leading size x size block of A' B A^-1 B^-1 at full size
    total, with A' = T(e^{f_0+f_+}) T(e^{f_-}), the Wiener-Hopf factors of
    T_{e^f} in the other order, and B = T_{e^g}: first with A^-1 the
    inverse of A', then with A^-1 the inverse of T_{e^f}."""
    f_lo, f_up, f_lo_inv, f_up_inv, g_lo, g_up, g_lo_inv, g_up_inv = (
        reference_toeplitz(coeffs, total)
        for coeffs in reference_factors(f, g))
    head, tail = (f_up @ f_lo) @ (g_lo @ g_up), g_up_inv @ g_lo_inv
    return tuple(np.linalg.det((head @ a_inv @ tail)[:size, :size])
                 for a_inv in (f_lo_inv @ f_up_inv, f_up_inv @ f_lo_inv))


def test_determinant_invariant_sees_only_images_modulo_trace_class():
    # The paper's second claim on the model: A' differs from T_{e^f} by a
    # Hankel product, which is trace class, and has the exact inverse
    # T(e^{-f_-}) T(e^{-f_0-f_+}), so det(A' B A'^-1 B^-1) is the
    # determinant invariant.  Each f has nonzero f_- and f_+, else A' is
    # T_{e^f} and nothing is checked (corpus pairs 0 and 2 have no f_-).
    # At N = 96 and M = 200 the matched inverse came within a relative
    # 7.6e-13 of the closed form on these nine pairs, and T_{e^f}'s inverse
    # missed by a relative 0.46 to 17 (by 4.67 against e^2 on corpus
    # pair 1).
    rng = random.Random(1516)
    pairs = [NUMERIC_CORPUS[1]]
    while len(pairs) < 9:
        span = 1 + len(pairs) % 3
        f = random_trig_poly(rng, span, 1.0)
        g = random_trig_poly(rng, span, 1.0)
        if min(f.coeffs, default=0) < 0 < max(f.coeffs, default=0):
            pairs.append((f, g))
    for f, g in pairs:
        target = closed_form_di(f, g)
        matched, mismatched = other_order_dets(f, g, 96, 200)
        assert abs(matched - target) <= 1e-10 * abs(target)
        assert abs(mismatched - target) >= 1e-2 * abs(target)


def perturbed(f, eps, h):
    """f + eps h, in f's dict order and then h's new degrees."""
    degrees = list(f.coeffs) + [k for k in h.coeffs if k not in f.coeffs]
    return TrigPoly({k: f[k] + eps * h[k] for k in degrees})


def test_determinant_invariant_is_norm_continuous():
    # The paper's second claim, its other half, on the model: at fixed N
    # and buffer, D(f, g) = numeric_det_invariant(f, g, N, buffer) moves
    # with f as the closed form does.  Along h, the closed form's
    # derivative is closed_form_di(f, g) L with L = sum_k k h_{-k} g_k, and
    # the difference quotient (D(f + eps h, g) - D(f, g)) / eps misses it
    # by the second-order term, a relative eps |L| / 2 (measured 0.4998 to
    # 0.5001 times eps |L| at eps = 1e-3 and 1e-4), so the bound is eps |L|
    # and the miss shrinks about tenfold from 1e-3 to 1e-4.  The pairing
    # with its indices swapped, sum_k k h_k g_{-k}, must miss by a relative
    # 0.5 (it missed by 0.9999 to 2.08 on these seven pairs).
    rng = random.Random(1517)
    pairs = [NUMERIC_CORPUS[1]]
    for i in range(6):
        span = 1 + i % 2
        pairs.append((random_trig_poly(rng, span, 1.0),
                      random_trig_poly(rng, span, 1.0)))
    for f, g in pairs:
        h = TrigPoly({k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for k in range(-2, 3)})
        buffer = 2 * significant_span(f, g) + 8
        pairing = sum(k * h[-k] * gk for k, gk in g.coeffs.items())
        swapped = sum(k * h[k] * g[-k] for k in g.coeffs)
        derivative = closed_form_di(f, g) * pairing
        base = numeric_det_invariant(f, g, 64, buffer)
        misses = []
        for eps in (1e-3, 1e-4):
            quotient = (numeric_det_invariant(perturbed(f, eps, h), g, 64,
                                              buffer) - base) / eps
            misses.append(abs(quotient - derivative) / abs(derivative))
            assert misses[-1] <= eps * abs(pairing)
            assert (abs(quotient - closed_form_di(f, g) * swapped)
                    >= 0.5 * abs(derivative))
        assert misses[1] <= 0.2 * misses[0]


# -- the product buffers ---------------------------------------------------------

def _poison_column(monkeypatch, column):
    """Make the next request's last Toeplitz block NaN in one column, so
    that its LU runs up to that column and then finds no pivot."""
    original = fredholm.toeplitz_matrix
    built = []

    def poisoned(coeffs, size):
        block = original(coeffs, size).copy()
        built.append(size)
        if len(built) == 8:  # T_{e^{-g_-}}, the last factor
            block[:, column] = complex("nan")
            monkeypatch.setattr(fredholm, "toeplitz_matrix", original)
        return block

    monkeypatch.setattr(fredholm, "toeplitz_matrix", poisoned)


def test_buffers_carry_nothing_from_one_request_to_the_next(monkeypatch):
    # The sizes grow, shrink and grow again, and a request that fails in
    # the middle of its LU leaves a half-factored block behind; every
    # result still has the bits of the full-size reference.
    f, g = NUMERIC_CORPUS[1]
    buffer = 2 * significant_span(f, g) + 3
    factors = reference_factors(f, g)
    sizes = (256, 32, 128, None, 128, 300, 32)  # None: the failing request
    expected = [bits(reference_numeric_det(factors, n, buffer))
                for n in sizes if n is not None]

    def requests():
        got, held = [], []
        for n in sizes:
            if n is None:
                _poison_column(monkeypatch, 64)
                with pytest.raises(DomainError, match="truncation unstable"):
                    numeric_det_invariant(f, g, 128, buffer)
                continue
            got.append(bits(numeric_det_invariant(f, g, n, buffer)))
            held.append(fredholm._per_thread.bufs[1].size)
        return got, held

    got, held = _in_new_thread(requests)
    assert got == expected
    # grown for 256 and for 300 only, never shrunk
    assert held == [(256 + buffer) ** 2] * 4 + [(300 + buffer) ** 2] * 2


def test_threads_keep_their_own_buffers(monkeypatch):
    # numpy releases the GIL inside its products, so threads that shared
    # one set of buffers would write into each other's products.  More
    # threads than cores, each at its own size, switching often.  Each
    # thread also takes two corpus pairs in turn, two requests on each, so
    # it reads its last pair's series once per turn and replaces them at
    # the next: with the last pair kept per thread it sums 4 series per
    # turn, and another thread's pair in between would make it sum more.
    jobs = [((1, 2), 256), ((2, 0), 200), ((0, 1), 150)]
    turns = 8
    serial = {(p, n): bits(numeric_det_invariant(*NUMERIC_CORPUS[p], n))
              for pairs, n in jobs for p in pairs}
    series = _record_series(monkeypatch)
    start = threading.Barrier(len(jobs))
    results = [[] for _ in jobs]
    idents = [None] * len(jobs)
    errors = []

    def run(i):
        pairs, n = jobs[i]
        idents[i] = threading.get_ident()
        start.wait()
        try:
            for r in range(2 * turns):
                p = pairs[r // 2 % 2]
                results[i].append(
                    bits(numeric_det_invariant(*NUMERIC_CORPUS[p], n)))
        except DomainError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert results == [[serial[pairs[r // 2 % 2], n] for r in range(2 * turns)]
                       for pairs, n in jobs]
    assert [series.count(ident) for ident in idents] == [4 * turns] * 3


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults with getrusage")
def test_repeated_request_makes_no_page_faults():
    # The eight Toeplitz blocks and the seven products all go into the
    # thread's four buffers, so a repeated request writes only into memory
    # the first one left.  Blocks allocated per request would fault again
    # whenever the C allocator trims its heap.
    import resource

    f, g = NUMERIC_CORPUS[1]
    numeric_det_invariant(f, g, 256)
    # the whole process, since BLAS threads write the products
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    numeric_det_invariant(f, g, 256)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def test_repeated_request_allocates_no_matrix():
    # A repeated request writes its blocks, its products and the LU's
    # trailing updates into the thread's four buffers.  The largest
    # trailing update at n = 256 alone would take (256 - 32)^2 complex
    # entries, 784 KiB.
    import tracemalloc

    f, g = NUMERIC_CORPUS[1]
    numeric_det_invariant(f, g, 256)
    tracemalloc.start()
    try:
        numeric_det_invariant(f, g, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024
    assert len(fredholm._per_thread.bufs) == 4


# -- the last pair's series ------------------------------------------------------

def test_a_ladder_sums_its_series_once(monkeypatch):
    # The series depend on the pair alone, so a request on the thread's
    # last pair at another size sums none and keeps the bits it has on a
    # fresh thread.
    series = _record_series(monkeypatch)
    for f, g in NUMERIC_CORPUS:
        for first, second, buffer in ((32, 64, None), (128, 16, 50)):
            def ladder():
                numeric_det_invariant(f, g, first, buffer)
                summed = len(series)
                value = numeric_det_invariant(f, g, second, buffer)
                return summed, len(series) - summed, bits(value)

            fresh = _in_new_thread(
                lambda: bits(numeric_det_invariant(f, g, second, buffer)))
            series.clear()
            assert _in_new_thread(ladder) == (4, 0, fresh)


A, B, C = 0.3 - 0.2j, -0.25 + 0.1j, 0.4j


@pytest.mark.parametrize("pair, other", [
    ((TrigPoly({1: complex(0.3, 0.0)}), TrigPoly({-1: C})),
     (TrigPoly({1: complex(0.3, -0.0)}), TrigPoly({-1: C}))),
    ((TrigPoly({1: A, 2: B}), TrigPoly({-1: C})),
     (TrigPoly({2: B, 1: A}), TrigPoly({-1: C}))),
    ((TrigPoly({1: A, 2: B}), TrigPoly({-1: C})),
     (TrigPoly({1: A, 3: B}), TrigPoly({-1: C}))),
    ((TrigPoly({1: A}), TrigPoly({-1: C})),
     (TrigPoly({1: A}), TrigPoly({-1: B}))),
    ((TrigPoly({1: A}), TrigPoly({-1: C})),
     (TrigPoly({-1: C}), TrigPoly({1: A}))),
    ((TrigPoly({1: A, 2: B}), TrigPoly({-1: C})),
     (TrigPoly({1: A}), TrigPoly({2: B, -1: C}))),
], ids=["sign-of-zero", "dict-order", "degree", "another-g",
        "f-and-g-swapped", "coefficient-moved-to-g"])
def test_another_pair_sums_its_series_again(monkeypatch, pair, other):
    # Equal values may differ in bits, and the dict order fixes the order
    # in which a series sums its terms, so a pair that differs only so is
    # another pair.  The thread keeps one pair: going back to the first
    # sums its series again.
    series = _record_series(monkeypatch)
    ladder = (pair, other, pair)

    def requests():
        got = []
        for f, g in ladder:
            summed = len(series)
            value = numeric_det_invariant(f, g, 32)
            got.append((len(series) - summed, bits(value)))
        return got

    got = _in_new_thread(requests)
    assert got == [(4, _in_new_thread(
        lambda: bits(numeric_det_invariant(f, g, 32)))) for f, g in ladder]


# -- the buffer ---------------------------------------------------------------

def _record_sizes(monkeypatch):
    sizes = []
    original = fredholm.toeplitz_matrix

    def recording(coeffs, size):
        sizes.append(size)
        return original(coeffs, size)

    monkeypatch.setattr(fredholm, "toeplitz_matrix", recording)
    return sizes


@pytest.mark.parametrize("pair", NUMERIC_CORPUS)
def test_default_buffer_is_twice_the_significant_span(monkeypatch, pair):
    f, g = pair
    sizes = _record_sizes(monkeypatch)
    series = _record_series(monkeypatch)
    _in_new_thread(lambda: numeric_det_invariant(f, g, 32))
    assert len(sizes) == 8
    assert set(sizes) == {32 + 2 * significant_span(f, g)}
    # one series per +- pair: e^{f_-}, e^{f_0 + f_+} and the same for g
    assert len(series) == 4


def test_explicit_buffer_is_honoured(monkeypatch):
    f, g = NUMERIC_CORPUS[1]
    span = significant_span(f, g)
    sizes = _record_sizes(monkeypatch)

    def requests():
        numeric_det_invariant(f, g, 32, buffer=2 * span + 5)
        assert set(sizes) == {32 + 2 * span + 5}
        numeric_det_invariant(f, g, 32, buffer=2 * span)
        with pytest.raises(DomainError, match="buffer"):
            numeric_det_invariant(f, g, 32, buffer=2 * span - 1)

    _in_new_thread(requests)


# -- the size cap ---------------------------------------------------------------

def _refuse_arrays(monkeypatch):
    def refuse(coeffs, size):
        raise AssertionError(f"built a {size}x{size} array past the cap")

    monkeypatch.setattr(fredholm, "toeplitz_matrix", refuse)


@pytest.mark.parametrize("over", [1, 2, 10 ** 12])
def test_size_cap_rejects_before_any_array(monkeypatch, over):
    f, g = NUMERIC_CORPUS[0]
    span = significant_span(f, g)
    cap = fredholm._MAX_DIM
    _refuse_arrays(monkeypatch)
    message = f"n \\+ buffer = {cap + over} exceeds the cap of {cap}$"

    def requests():
        with pytest.raises(DomainError, match=message):
            numeric_det_invariant(f, g, cap + over - 2 * span)
        with pytest.raises(DomainError, match=message):
            numeric_det_invariant(f, g, 16, buffer=cap + over - 16)

    _in_new_thread(requests)


def _refuse_series(monkeypatch):
    def refuse(poly):
        raise AssertionError("summed an exponential series")

    monkeypatch.setattr(fredholm, "exp_symbol_coeffs", refuse)


SPAN_CAP, NORM_CAP = fredholm._MAX_SPAN, fredholm._MAX_NORM


@pytest.mark.parametrize("poly, message", [
    (TrigPoly({SPAN_CAP + 1: 0.1}),
     f"degree span {SPAN_CAP + 1}, above the cap of {SPAN_CAP}"),
    (TrigPoly({-SPAN_CAP - 1: 0.1, 1: 0.5}),
     f"degree span {SPAN_CAP + 1}, above the cap of {SPAN_CAP}"),
    (TrigPoly({1: NORM_CAP - 10, -1: 10.5j}),
     f"coefficient 1-norm {NORM_CAP + 0.5:g}, above the cap of {NORM_CAP:g}"),
    (TrigPoly({0: NORM_CAP + 1}),
     f"coefficient 1-norm {NORM_CAP + 1:g}, above the cap of {NORM_CAP:g}"),
])
def test_span_and_norm_caps_reject_before_any_series(monkeypatch, poly,
                                                     message):
    _refuse_series(monkeypatch)
    small = TrigPoly({-1: 1.0})

    def requests():
        for name, f, g in (("f", poly, small), ("g", small, poly)):
            with pytest.raises(DomainError,
                               match=f"^{name} has {re.escape(message)}$"):
                numeric_det_invariant(f, g, 32)

    _in_new_thread(requests)


def test_span_and_norm_caps_admit_a_symbol_at_the_caps(monkeypatch):
    _refuse_series(monkeypatch)
    at_caps = TrigPoly({-SPAN_CAP: NORM_CAP / 2, SPAN_CAP: NORM_CAP / 2})
    with pytest.raises(AssertionError, match="summed an exponential series"):
        _in_new_thread(lambda: numeric_det_invariant(at_caps, at_caps, 32))


@pytest.mark.parametrize("poly", [
    TrigPoly({1: NORM_CAP}),
    TrigPoly({-2: 12.0, 1: -8j, 3: 6 + 8j, 4: 10.0}),
])
def test_series_at_the_norm_cap_stop_before_the_term_cap(monkeypatch, poly):
    # Term j is at most 40^j / j!, below 1e-25 from j = 155 on, so the
    # series stops there and a term cap of 200 changes nothing.
    assert sum(map(abs, poly.coeffs.values())) == NORM_CAP
    full = exp_symbol_coeffs(poly)
    monkeypatch.setattr(fredholm, "_MAX_TERMS", 200)
    for got, want in zip(exp_symbol_coeffs(poly), full):
        assert list(got) == list(want)
        assert [bits(v) for v in got.values()] == [
            bits(v) for v in want.values()]
    # both series run past term 130 (the first to term 155, where the
    # bound is tight), so a cap of 130 cuts them short
    monkeypatch.setattr(fredholm, "_MAX_TERMS", 130)
    assert exp_symbol_coeffs(poly) != full


@pytest.mark.parametrize("f, g, n, growth", [
    # closed form 1; returned -3.5e240 before the cap
    (TrigPoly({k: 40 / 33 for k in range(-SPAN_CAP, SPAN_CAP + 1)}),
     TrigPoly({k: -40 / 33 for k in range(-SPAN_CAP, SPAN_CAP + 1)}),
     16, "6.24e+13"),
    # closed form 1.14e26; returned -4.25e42
    (TrigPoly({1: 10, -1: 10}), TrigPoly({1: 3, -1: -3}), 32, "5.77e+13"),
    # returned nan+nanj with an overflow warning
    (TrigPoly({1: 20, -1: 20}), TrigPoly({1: -20, -1: -20}), 32, "3.45e+30"),
])
def test_growth_cap_rejects_cancelling_factors(monkeypatch, f, g, n, growth):
    # The growth check runs on every request, so the identical request,
    # which reads the first one's series, is rejected in the same words.
    _refuse_arrays(monkeypatch)
    series = _record_series(monkeypatch)
    message = (f"the exponential factors of f grow to {growth}, above the "
               f"cap of {fredholm._MAX_GROWTH:g}")

    def twice():
        for _ in range(2):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                numeric_det_invariant(f, g, n)

    _in_new_thread(twice)
    assert len(series) == 4


def test_default_buffer_as_accurate_as_the_old_default():
    rng = random.Random(2024)
    pairs = list(NUMERIC_CORPUS)
    for i in range(30):
        span = 1 + i % 3
        pairs.append((random_trig_poly(rng, span, 1.5),
                      random_trig_poly(rng, span, 1.5)))
    for f, g in pairs:
        old_buffer = 4 * max(1, f.span(), g.span()) * 47
        for n in (32, 128):
            value = numeric_det_invariant(f, g, n)
            old = numeric_det_invariant(f, g, n, buffer=old_buffer)
            assert abs(value - old) <= 1e-11 * abs(old)
