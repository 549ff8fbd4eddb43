"""Seeded verification suites behind the CLI's ``verify`` command.

Every suite is deterministic in (seed, count): instance i draws its own
random stream from sha256(seed, i), instances run one after another in index
order, and the summary is aggregated in that order.  Each failure carries a
reproducer request (rerunning the suite with the same seed up to that index
hits the identical instance).
"""

from __future__ import annotations

from .complexes import BasedExactSequence, ChainComplexSpec, torsion_scalar
from .errors import DomainError
from .fredholm import TrigPoly, closed_form_di, numeric_det_invariant
from .koszul import (FACTORIZATION_SELECTORS, KoszulQuadruple,
                     build_eps_sequences, factorization_identities,
                     graded_determinant, joint_torsion_pair,
                     joint_torsion_quad, pseudoinv_formula)
from .linalg import ExactMatrix
from .randgen import (child_rng, random_commuting_pair, random_exact_sequence,
                      random_invertible, random_quadruple,
                      random_singular_d_quadruple, random_symbol)
from .scalars import QiScalar
from .toeplitz import (AnalyticSymbol, restriction_data, restriction_sequences,
                       tame_symbol, toeplitz_joint_torsion)


def _matrix_payload(m: ExactMatrix) -> list:
    return [e.to_text() for e in m.entries]


def _quad_request(q: KoszulQuadruple) -> dict:
    return {"cmd": "joint_torsion_quad",
            "payload": {"dim": q.dim,
                        "a": _matrix_payload(q.a), "b": _matrix_payload(q.b),
                        "c": _matrix_payload(q.c), "d": _matrix_payload(q.d)}}


def _verify_request(suite: str, seed: int, index: int) -> dict:
    return {"cmd": "verify",
            "payload": {"suite": suite, "count": index + 1}, "seed": seed}


def _check(results, prop: str, ok: bool, reproducer: dict):
    results.append({"property": prop, "pass": bool(ok),
                    "reproducer": None if ok else reproducer})


def _suite_finite_triviality(seed, index, family=random_quadruple):
    rng = child_rng(seed, index)
    q = family(rng, rng.randint(1, 6))
    results = []
    value = joint_torsion_quad(q).value
    _check(results, "joint torsion equals 1", value == QiScalar(1),
           _quad_request(q))
    return results


def _suite_finite_triviality_singular(seed, index):
    return _suite_finite_triviality(seed, index, random_singular_d_quadruple)


def _suite_torsion_determinant(seed, index):
    rng = child_rng(seed, index)
    n = rng.randint(1, 8)
    m = random_invertible(rng, n, mag=3)
    seq = BasedExactSequence(ChainComplexSpec([n, n], [m]))
    results = []
    _check(results, "two-term torsion equals determinant",
           torsion_scalar(seq) == m.determinant(),
           _verify_request("torsion-determinant", seed, index))
    return results


def _suite_direct_sum(seed, index):
    rng = child_rng(seed, index)
    n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
    q1 = random_quadruple(rng, n1)
    q2 = random_quadruple(rng, n2)
    top = ExactMatrix.zero(n1, n2)
    bottom = ExactMatrix.zero(n2, n1)

    def dsum(x, y):
        return x.hstack(top).vstack(bottom.hstack(y))

    q = KoszulQuadruple(dsum(q1.a, q2.a), dsum(q1.b, q2.b),
                        dsum(q1.c, q2.c), dsum(q1.d, q2.d))
    lhs = joint_torsion_quad(q).value
    rhs = joint_torsion_quad(q1).value * joint_torsion_quad(q2).value
    results = []
    _check(results, "direct sum multiplies joint torsion", lhs == rhs,
           _quad_request(q))
    return results


def _suite_basis_independence(seed, index):
    rng = child_rng(seed, index)
    q = random_quadruple(rng, rng.randint(1, 4))
    base = joint_torsion_quad(q)
    rebasing = {label: random_invertible(rng, dim, mag=2)
                for label, dim in base.homology_dims.items() if dim}
    rebased = joint_torsion_quad(q, rebasing=rebasing)
    results = []
    _check(results, "joint torsion is basis independent",
           rebased.value == base.value,
           _verify_request("basis-independence", seed, index))
    return results


def _suite_factorization(seed, index):
    rng = child_rng(seed, index)
    which = FACTORIZATION_SELECTORS[index % len(FACTORIZATION_SELECTORS)]
    n = rng.randint(1, 3)
    q = random_quadruple(rng, n)
    u = random_invertible(rng, n, mag=2)
    lhs, rhs = factorization_identities(q, u, which)
    results = []
    _check(results, f"identity {which}", lhs == rhs,
           _verify_request("factorization", seed, index))
    return results


def _disjoint_symbols(rng):
    while True:
        f = random_symbol(rng, max_roots=3)
        g = random_symbol(rng, max_roots=3)
        if not set(f.inside_roots) & set(g.inside_roots):
            return f, g


def _symbol_payload(s) -> dict:
    return {"leading": s.leading.to_text(),
            "roots": [r.to_text() for r in s.roots]}


def _suite_tame_oracle(seed, index):
    rng = child_rng(seed, index)
    f, g = _disjoint_symbols(rng)
    request = {"cmd": "toeplitz_exact",
               "payload": {"f": _symbol_payload(f), "g": _symbol_payload(g)}}
    results = []
    data = restriction_data(f, g)
    machinery = toeplitz_joint_torsion(data)
    oracle = tame_symbol(f, g)
    _check(results, "matrix model equals tame symbol", machinery == oracle,
           request)
    eps_f, eps_g = restriction_sequences(data)
    folded = pseudoinv_formula(eps_f, eps_g, 0, 0)
    _check(results, "folded determinant agrees", folded == machinery, request)
    return results


def _suite_steinberg(seed, index):
    rng = child_rng(seed, index)
    results = []
    reproducer = _verify_request("steinberg", seed, index)
    while True:
        f1 = random_symbol(rng, max_roots=2)
        f2 = random_symbol(rng, max_roots=2)
        g = random_symbol(rng, max_roots=2)
        if not ((set(f1.inside_roots) | set(f2.inside_roots))
                & set(g.inside_roots)):
            break
    _check(results, "multiplicativity in the first argument",
           tame_symbol(f1 * f2, g) == tame_symbol(f1, g) * tame_symbol(f2, g),
           reproducer)
    f, g = _disjoint_symbols(rng)
    _check(results, "skew symmetry",
           tame_symbol(f, g) * tame_symbol(g, f) == QiScalar(1), reproducer)
    while True:
        c = QiScalar((rng.randint(-6, 6), rng.randint(1, 6)),
                     (rng.randint(-6, 6), rng.randint(1, 6)))
        if not c.is_zero() and c.modulus_sq() != 1:
            break
    affine = AnalyticSymbol(c, [QiScalar(0)])
    complement = AnalyticSymbol(-c, [c.inverse()])
    _check(results, "pairing with one minus the symbol is trivial",
           tame_symbol(affine, complement) == QiScalar(1), reproducer)
    return results


def _suite_pseudoinverse(seed, index):
    rng = child_rng(seed, index)
    results = []
    reproducer = _verify_request("pseudoinverse", seed, index)
    a, b = random_commuting_pair(rng, rng.randint(1, 4))
    q = KoszulQuadruple(a, b, b, a)
    eps_a, eps_b = build_eps_sequences(q)
    mu_a = (a.cols - a.rank()) ** 2
    mu_b = (b.cols - b.rank()) ** 2
    _check(results, "folded formula equals pipeline on commuting pairs",
           pseudoinv_formula(eps_a, eps_b, mu_a, mu_b)
           == joint_torsion_pair(a, b).value, reproducer)
    seq = random_exact_sequence(rng, max_len=5, max_rank=3)
    _check(results, "folded determinant equals torsion",
           graded_determinant(seq) == torsion_scalar(seq), reproducer)
    return results


_NUMERIC_CORPUS = (
    ({1: 1.0}, {-1: 1.0}),
    ({1: 1.0, -1: 1.0}, {1: 1.0, -1: -1.0}),
    ({1: 0.5, 2: 0.25}, {1: -0.3}),
)


def _suite_numeric_convergence(seed, index):
    if index < len(_NUMERIC_CORPUS):
        f_coeffs, g_coeffs = _NUMERIC_CORPUS[index]
        f, g = TrigPoly(dict(f_coeffs)), TrigPoly(dict(g_coeffs))
    else:
        rng = child_rng(seed, index)

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
    reproducer = _verify_request("numeric-convergence", seed, index)
    results = []
    _check(results, "error within 1e-4 at size 128", errors[-1] <= 1e-4,
           reproducer)
    _check(results, "error nonincreasing in the size",
           all(b <= a + 1e-10 for a, b in zip(errors, errors[1:])),
           reproducer)
    return results


SUITES = {
    "finite-triviality": _suite_finite_triviality,
    "finite-triviality-singular": _suite_finite_triviality_singular,
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
        results = runner(seed, i)
        instance_ok = True
        for r in results:
            stats = properties.setdefault(r["property"], {"pass": 0, "fail": 0})
            if r["pass"]:
                stats["pass"] += 1
            else:
                stats["fail"] += 1
                instance_ok = False
                failures.append({"index": i, "property": r["property"],
                                 "reproducer": r["reproducer"]})
        if instance_ok:
            passes += 1
    return {"suite": name, "seed": seed, "count": count, "passes": passes,
            "failures": failures, "properties": properties}
