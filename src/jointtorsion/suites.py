"""Seeded verification suites behind the CLI's ``verify`` command.

Each ``SUITES`` entry is a function ``(rng, index) -> rows`` that draws one
instance from ``rng`` and returns a list (not a generator) of
``(property, holds, request)`` rows, ``request`` being a ``cli`` writer's
request that replays the instance on its own, or None.  ``run_suite`` alone
gives instance i the stream ``child_rng(seed, i)`` (sha256 of seed and i),
runs the instances in index order, gives a failing row without a request
the reproducer ``verify`` with the same seed and count i + 1, and tallies
the summary.  To add a suite, add such a function to ``SUITES``.
"""

from __future__ import annotations

from functools import partial

from .cli import quad_request, toeplitz_exact_request, verify_request
from .complexes import BasedExactSequence, torsion_scalar
from .errors import DomainError
from .koszul import (FACTORIZATION_SELECTORS, KoszulQuadruple,
                     build_eps_sequences, factorization_identities,
                     graded_determinant, joint_torsion_pair,
                     joint_torsion_quad, pseudoinv_formula)
from .linalg import ExactMatrix
from .randgen import (child_rng, random_commuting_pair, random_exact_sequence,
                      random_invertible, random_quadruple,
                      random_singular_d_quadruple, random_symbol)
from .scalars import QiScalar, qi_modulus_cmp_one
from .toeplitz import (AnalyticSymbol, restriction_sequences, tame_symbol,
                       toeplitz_joint_torsion)


def _suite_finite_triviality(rng, index, family=random_quadruple):
    q = family(rng, rng.randint(1, 6))
    return [("joint torsion equals 1",
             joint_torsion_quad(q).value == QiScalar(1), quad_request(q))]


def _suite_torsion_determinant(rng, index):
    n = rng.randint(1, 8)
    m = random_invertible(rng, n, mag=3)
    seq = BasedExactSequence([n, n], [m])
    return [("two-term torsion equals determinant",
             torsion_scalar(seq) == m.determinant(), None)]


def _suite_direct_sum(rng, index):
    n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
    q1 = random_quadruple(rng, n1)
    q2 = random_quadruple(rng, n2)
    top, bottom = ExactMatrix.zero(n1, n2), ExactMatrix.zero(n2, n1)

    def dsum(x, y):
        return x.hstack(top).vstack(bottom.hstack(y))

    q = KoszulQuadruple(dsum(q1.a, q2.a), dsum(q1.b, q2.b),
                        dsum(q1.c, q2.c), dsum(q1.d, q2.d))
    lhs = joint_torsion_quad(q).value
    rhs = joint_torsion_quad(q1).value * joint_torsion_quad(q2).value
    return [("direct sum multiplies joint torsion", lhs == rhs,
             quad_request(q))]


def _suite_basis_independence(rng, index):
    q = random_quadruple(rng, rng.randint(1, 4))
    base = joint_torsion_quad(q)
    rebasing = {label: random_invertible(rng, dim, mag=2)
                for label, dim in base.homology_dims.items() if dim}
    rebased = joint_torsion_quad(q, rebasing=rebasing)
    return [("joint torsion is basis independent",
             rebased.value == base.value, None)]


def _suite_factorization(rng, index):
    which = FACTORIZATION_SELECTORS[index % len(FACTORIZATION_SELECTORS)]
    n = rng.randint(1, 3)
    q = random_quadruple(rng, n)
    u = random_invertible(rng, n, mag=2)
    lhs, rhs = factorization_identities(q, u, which)
    return [(f"identity {which}", lhs == rhs, None)]


def _disjoint_symbols(rng):
    while True:
        f = random_symbol(rng, max_roots=3)
        g = random_symbol(rng, max_roots=3)
        if not set(f.inside_roots) & set(g.inside_roots):
            return f, g


def _suite_tame_oracle(rng, index):
    f, g = _disjoint_symbols(rng)
    request = toeplitz_exact_request(f, g)
    eps = restriction_sequences(f, g)
    machinery = toeplitz_joint_torsion(*eps)
    oracle = tame_symbol(f, g)
    folded = pseudoinv_formula(*eps, 0, 0)
    return [("matrix model equals tame symbol", machinery == oracle, request),
            ("folded determinant agrees", folded == machinery, request)]


def _suite_steinberg(rng, index):
    while True:
        f1 = random_symbol(rng, max_roots=2)
        f2 = random_symbol(rng, max_roots=2)
        g = random_symbol(rng, max_roots=2)
        if not ((set(f1.inside_roots) | set(f2.inside_roots))
                & set(g.inside_roots)):
            break
    rows = [("multiplicativity in the first argument",
             tame_symbol(f1 * f2, g) == tame_symbol(f1, g) * tame_symbol(f2, g),
             None)]
    f, g = _disjoint_symbols(rng)
    rows.append(("skew symmetry",
                 tame_symbol(f, g) * tame_symbol(g, f) == QiScalar(1), None))
    while True:
        p, q = rng.randint(-6, 6), rng.randint(1, 6)
        r, s = rng.randint(-6, 6), rng.randint(1, 6)
        c = QiScalar(p, 0, q) + QiScalar(0, r, s)  # p/q + (r/s) i
        if not c.is_zero() and qi_modulus_cmp_one(c) != "equal":
            break
    affine = AnalyticSymbol(c, [QiScalar(0)])
    complement = AnalyticSymbol(-c, [c.inverse()])
    rows.append(("pairing with one minus the symbol is trivial",
                 tame_symbol(affine, complement) == QiScalar(1), None))
    return rows


def _suite_pseudoinverse(rng, index):
    a, b = random_commuting_pair(rng, rng.randint(1, 4))
    q = KoszulQuadruple(a, b, b, a)
    eps_a, eps_b = build_eps_sequences(q)
    mu_a = (a.cols - a.rank()) ** 2
    mu_b = (b.cols - b.rank()) ** 2
    rows = [("folded formula equals pipeline on commuting pairs",
             pseudoinv_formula(eps_a, eps_b, mu_a, mu_b)
             == joint_torsion_pair(a, b).value, None)]
    seq = random_exact_sequence(rng, max_len=5, max_rank=3)
    rows.append(("folded determinant equals torsion",
                 graded_determinant(seq) == torsion_scalar(seq), None))
    return rows


_NUMERIC_CORPUS = (
    ({1: 1.0}, {-1: 1.0}),
    ({1: 1.0, -1: 1.0}, {1: 1.0, -1: -1.0}),
    ({1: 0.5, 2: 0.25}, {1: -0.3}),
)


def _suite_numeric_convergence(rng, index):
    # imported here, so that an exact suite does not load fredholm
    from .fredholm import TrigPoly, closed_form_di, numeric_det_invariant

    if index < len(_NUMERIC_CORPUS):
        f_coeffs, g_coeffs = _NUMERIC_CORPUS[index]
        f, g = TrigPoly(dict(f_coeffs)), TrigPoly(dict(g_coeffs))
    else:
        def small_poly():
            coeffs = {}
            for k in (-2, -1, 1, 2):
                if rng.random() < 0.6:
                    coeffs[k] = complex(round(rng.uniform(-0.5, 0.5), 3),
                                        round(rng.uniform(-0.5, 0.5), 3))
            return TrigPoly(coeffs)

        f, g = small_poly(), small_poly()
    target = closed_form_di(f, g)
    errors = [abs(numeric_det_invariant(f, g, n) - target)
              for n in (32, 64, 128)]
    return [("error within 1e-4 at size 128", errors[-1] <= 1e-4, None),
            ("error nonincreasing in the size",
             all(b <= a + 1e-10 for a, b in zip(errors, errors[1:])), None)]


SUITES = {
    "finite-triviality": _suite_finite_triviality,
    "finite-triviality-singular": partial(
        _suite_finite_triviality, family=random_singular_d_quadruple),
    "torsion-determinant": _suite_torsion_determinant,
    "direct-sum": _suite_direct_sum,
    "basis-independence": _suite_basis_independence,
    "factorization": _suite_factorization,
    "tame-oracle": _suite_tame_oracle,
    "steinberg": _suite_steinberg,
    "pseudoinverse": _suite_pseudoinverse,
    "numeric-convergence": _suite_numeric_convergence,
}


def run_suite(name: str, seed: int, count: int) -> dict:
    """Run a named suite; deterministic given (seed, count)."""
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}")
    if count < 1:
        raise DomainError("count must be positive")
    runner = SUITES[name]
    properties: dict = {}
    failures = []
    passes = 0
    for i in range(count):
        failed_before = len(failures)
        for prop, holds, request in runner(child_rng(seed, i), i):
            stats = properties.setdefault(prop, {"pass": 0, "fail": 0})
            stats["pass" if holds else "fail"] += 1
            if not holds:
                failures.append({"index": i, "property": prop, "reproducer":
                                 request or verify_request(name, i + 1, seed)})
        passes += len(failures) == failed_before
    return {"suite": name, "seed": seed, "count": count, "passes": passes,
            "failures": failures, "properties": properties}
