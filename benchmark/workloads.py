"""Seeded inputs of the two workloads, built without the package.

Every workload is one *round*: a fixed list of requests that a run repeats
whole.  The round depends only on the workload seed.  Each request carries a
``kind`` (a label for per-kind trace breakdowns) and a ``check`` record with
what the output checks need.

Sizes are stratified: each round holds the same number of requests of every
(family, size) class, and only the entries are random, so rounds of different
seeds cost nearly the same.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import qexact as qx

WORKLOADS = ("exact-requests", "numeric-det")

EXACT_SUITES = ("finite-triviality", "torsion-determinant", "direct-sum",
                "basis-independence", "factorization", "tame-oracle",
                "steinberg", "pseudoinverse")

# The three fixed pairs of the package's numeric-convergence suite.
NUMERIC_CORPUS = (
    ({1: 1.0}, {-1: 1.0}),
    ({1: 1.0, -1: 1.0}, {1: 1.0, -1: -1.0}),
    ({1: 0.5, 2: 0.25}, {1: -0.3}),
)
NUMERIC_SIZES = (32, 64, 128, 256)


def rng_for(seed: int, tag: str) -> random.Random:
    """Independent stream per (seed, tag); string seeding is stable across runs."""
    return random.Random(f"jointtorsion-bench:{seed}:{tag}")


# -- random exact inputs --------------------------------------------------------

def random_qi(rng, mag=4, imag_prob=0.5):
    real = Fraction(rng.randint(-mag, mag), rng.randint(1, mag))
    imag = Fraction(0)
    if rng.random() < imag_prob:
        imag = Fraction(rng.randint(-mag, mag), rng.randint(1, mag))
    return (real, imag)


def random_matrix(rng, n, mag=4, imag_prob=0.5):
    return [[random_qi(rng, mag, imag_prob) for _ in range(n)] for _ in range(n)]


def random_invertible(rng, n, mag=4):
    while True:
        m = random_matrix(rng, n, mag)
        if not qx.is_zero(qx.determinant(m)):
            return m


def random_singularized(rng, n, mag=4):
    """A random matrix with some columns zeroed, offering nontrivial kernels."""
    m = random_matrix(rng, n, mag)
    kill = [j for j in range(n) if rng.random() < 0.45]
    if not kill and rng.random() < 0.5:
        kill = [rng.randrange(n)]
    for row in m:
        for j in kill:
            row[j] = qx.ZERO
    return m


def _require_ab_cd(a, b, c, d):
    if qx.matmul(a, b) != qx.matmul(c, d):
        raise RuntimeError("generator bug: AB != CD")


def quad_invertible_d(rng, n):
    """A, B singularized, D invertible, C = A B D^-1 (the package's acid-test
    family)."""
    a = random_singularized(rng, n)
    b = random_singularized(rng, n)
    d = random_invertible(rng, n)
    c = qx.matmul(qx.matmul(a, b), qx.inverse(d))
    _require_ab_cd(a, b, c, d)
    return a, b, c, d


def quad_singular_d(rng, n):
    """A, C singularized and every column of (B; D) drawn from ker [A | -C].

    The kernel vectors are scaled to Gaussian-integer entries, and each column
    of (B; D) is a combination of them with coefficients in {-1, 0, 1}, so D
    is singular in most instances and H0, ker B n ker D are often nonzero.
    """
    a = random_singularized(rng, n)
    c = random_singularized(rng, n)
    kernel = [qx.clear_denominators(v)
              for v in qx.kernel_basis(qx.hstack(a, [[qx.neg(x) for x in row]
                                                       for row in c]))]
    cols = []
    for _ in range(n):
        col = [qx.ZERO] * (2 * n)
        for vec in kernel:
            coef = rng.choice((-1, 0, 0, 1))
            if coef:
                col = [qx.add(x, qx.scalar(coef * y[0], coef * y[1]))
                       for x, y in zip(col, vec)]
        cols.append(col)
    b = [[cols[j][i] for j in range(n)] for i in range(n)]
    d = [[cols[j][n + i] for j in range(n)] for i in range(n)]
    _require_ab_cd(a, b, c, d)
    return a, b, c, d


def commuting_pair(rng, n, mag=3):
    """Two polynomials in one random matrix (commute exactly)."""
    m = random_matrix(rng, n, mag, imag_prob=0.3)
    ident = qx.identity(n)
    m2 = qx.matmul(m, m)

    def poly():
        const = qx.ZERO if rng.random() < 0.4 else random_qi(rng, mag, 0.3)
        out = qx.madd(qx.scale(ident, const),
                      qx.scale(m, random_qi(rng, mag, 0.3)))
        if rng.random() < 0.5:
            out = qx.madd(out, qx.scale(m2, random_qi(rng, 2, 0.3)))
        return out

    return poly(), poly()


def random_symbol(rng, max_roots=3):
    """Leading coefficient and roots off the unit circle."""
    count = rng.randint(0, max_roots)
    roots = []
    while len(roots) < count:
        z = random_qi(rng, 3, imag_prob=0.4)
        if qx.modulus_sq(z) != 1:
            roots.append(z)
    while True:
        leading = random_qi(rng, 3, imag_prob=0.25)
        if not qx.is_zero(leading):
            return leading, roots


def disjoint_symbols(rng):
    while True:
        f = random_symbol(rng)
        g = random_symbol(rng)
        inside_f = {r for r in f[1] if qx.modulus_sq(r) < 1}
        if not any(r in inside_f for r in g[1] if qx.modulus_sq(r) < 1):
            return f, g


def random_trig_poly(rng, span):
    """Coefficients on 0 < |k| <= span, with +-span always present."""
    coeffs = {}
    for k in range(-span, span + 1):
        if k and (abs(k) == span or rng.random() < 0.6):
            coeffs[k] = (round(rng.uniform(-0.5, 0.5), 3),
                         round(rng.uniform(-0.5, 0.5), 3))
    for k in (-span, span):
        if coeffs[k] == (0.0, 0.0):
            coeffs[k] = (0.25, 0.0)
    return coeffs


# -- requests -------------------------------------------------------------------

def _entry(kind, request, **check):
    return {"kind": kind, "text": json.dumps(request, sort_keys=True),
            "check": check}


def quad_request(kind, a, b, c, d):
    n = len(a)
    return _entry(kind, {"cmd": "joint_torsion_quad",
                         "payload": {"dim": n, "a": qx.flat_text(a),
                                     "b": qx.flat_text(b), "c": qx.flat_text(c),
                                     "d": qx.flat_text(d)}})


def pair_request(a, b):
    return _entry("pair", {"cmd": "joint_torsion_pair",
                           "payload": {"dim": len(a), "a": qx.flat_text(a),
                                       "b": qx.flat_text(b)}})


def torsion_request(m):
    n = len(m)
    return _entry("torsion", {"cmd": "torsion",
                              "payload": {"spaces": [n, n],
                                          "differentials": [qx.flat_text(m)]}})


def symbol_payload(sym):
    leading, roots = sym
    return {"leading": qx.text(leading), "roots": [qx.text(r) for r in roots]}


def toeplitz_exact_request(f, g):
    return _entry("toeplitz_exact",
                  {"cmd": "toeplitz_exact",
                   "payload": {"f": symbol_payload(f), "g": symbol_payload(g)}})


def trig_payload(coeffs):
    return {"coeffs": {str(k): [float(v[0]), float(v[1])]
                       for k, v in sorted(coeffs.items())}}


def numeric_request(group, f, g, n):
    return _entry("toeplitz_numeric",
                  {"cmd": "toeplitz_numeric",
                   "payload": {"f": trig_payload(f), "g": trig_payload(g),
                               "n": n}},
                  group=group)


def verify_request(suite, suite_seed, count):
    return _entry(f"verify:{suite}",
                  {"cmd": "verify", "payload": {"suite": suite, "count": count},
                   "seed": suite_seed})


# -- rounds ---------------------------------------------------------------------

QUAD_DIMS = (2, 3, 4, 5)
PAIR_DIMS = (2, 3, 4, 5)
EXACT_REPEATS = 3
# Torsion requests per size.  Size 12 holds the middle of the round's cost
# distribution: without such a cluster the median falls where classes of very
# different cost meet, and moves with the seed.
TORSION_COUNTS = {4: 1, 6: 1, 8: 1, 10: 1, 12: 24, 14: 1, 16: 1}

# Instances per verify request.  A heavy suite instance (random dimension up
# to 6) costs 1-250 ms and varies far more from seed to seed than a cheap
# suite's, so the heavy suites run one instance per request and the cheap
# ones enough instances that a request costs about as much as a heavy one.
SUITE_COUNTS = {"finite-triviality": 1, "direct-sum": 1, "basis-independence": 1,
                "pseudoinverse": 1, "factorization": 4, "torsion-determinant": 16,
                "tame-oracle": 64, "steinberg": 64}
# Requests per suite in one cycle of the eight suites.
SUITE_REQUESTS = {"factorization": 8, "torsion-determinant": 8,
                  "tame-oracle": 4, "steinberg": 4}
SUITE_CYCLES = 2
TOEPLITZ_EXACT_REQUESTS = 8


def exact_round(seed):
    out = []
    for rep in range(EXACT_REPEATS):
        for n in QUAD_DIMS:
            rng = rng_for(seed, f"quad-invD:{n}:{rep}")
            out.append(quad_request("quad-invD", *quad_invertible_d(rng, n)))
            rng = rng_for(seed, f"quad-singD:{n}:{rep}")
            out.append(quad_request("quad-singD", *quad_singular_d(rng, n)))
        for n in PAIR_DIMS:
            out.append(pair_request(*commuting_pair(rng_for(seed, f"pair:{n}:{rep}"), n)))
    for n, count in TORSION_COUNTS.items():
        for rep in range(count):
            rng = rng_for(seed, f"torsion:{n}:{rep}")
            out.append(torsion_request(random_invertible(rng, n, mag=3)))
    rng = rng_for(seed, "suite-seeds")
    out += [verify_request(suite, rng.randrange(10 ** 6), SUITE_COUNTS[suite])
            for _ in range(SUITE_CYCLES)
            for suite in EXACT_SUITES
            for _ in range(SUITE_REQUESTS.get(suite, 1))]
    rng = rng_for(seed, "symbols")
    out += [toeplitz_exact_request(*disjoint_symbols(rng))
            for _ in range(TOEPLITZ_EXACT_REQUESTS)]
    return out


NUMERIC_RANDOM_SPANS = (1, 1, 1, 1, 2) * 4 + (1, 1)


def numeric_pairs(seed):
    pairs = [({k: (v, 0.0) for k, v in f.items()},
              {k: (v, 0.0) for k, v in g.items()}) for f, g in NUMERIC_CORPUS]
    for i, span in enumerate(NUMERIC_RANDOM_SPANS):
        rng = rng_for(seed, f"trig:{i}")
        pairs.append((random_trig_poly(rng, span), random_trig_poly(rng, span)))
    return pairs


def numeric_round(seed):
    return [numeric_request(i, f, g, n)
            for i, (f, g) in enumerate(numeric_pairs(seed))
            for n in NUMERIC_SIZES]


ROUNDS = {"exact-requests": exact_round, "numeric-det": numeric_round}


def make_round(workload: str, seed: int) -> list:
    return ROUNDS[workload](seed)
