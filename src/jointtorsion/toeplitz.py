"""Exact Toeplitz layer: analytic symbols in factored form, finite cokernel
models, and joint torsion / tame symbols computed without floating point.

An analytic symbol is a polynomial given by its leading coefficient and its
exact Gaussian-rational roots, none of which may lie on the unit circle.
The Toeplitz operator of such a symbol is injective, and its cokernel is
modelled by the quotient ring C[z]/(f_in) where f_in is the monic product
over the roots inside the disk; multiplication by another symbol acts on
that quotient through the companion recurrence.  The determinant of that
action is the product of the symbol's values at the inside roots, which is
what makes the closed-form tame symbol an independent oracle for the
matrix-model joint torsion.

``RestrictionData`` holds the two cokernel actions of a pair, built once by
``restriction_data``; ``toeplitz_joint_torsion`` and
``restriction_sequences`` both read it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import BasedExactSequence, ChainComplexSpec
from .errors import DomainError
from .linalg import ExactMatrix
from .scalars import ONE, QiScalar, qi_modulus_cmp_one


class AnalyticSymbol:
    """A polynomial circle symbol with exact roots off the unit circle."""

    __slots__ = ("leading", "roots", "inside_roots", "outside_roots")

    def __init__(self, leading: QiScalar, roots):
        if leading.is_zero():
            raise DomainError("leading coefficient must be nonzero")
        roots = list(roots)
        if len(roots) > 1:
            roots.sort(key=_root_key)
        inside, outside = [], []
        for r in roots:
            where = qi_modulus_cmp_one(r)
            if where == "equal":
                raise DomainError("not Fredholm")
            (inside if where == "less" else outside).append(r)
        self.leading = leading
        self.roots = tuple(roots)
        self.inside_roots = tuple(inside)
        self.outside_roots = tuple(outside)

    @property
    def winding(self) -> int:
        return len(self.inside_roots)

    def evaluate(self, z: QiScalar) -> QiScalar:
        value = self.leading
        for r in self.roots:
            value = value * (z - r)
        return value

    def __mul__(self, other: "AnalyticSymbol") -> "AnalyticSymbol":
        return AnalyticSymbol(self.leading * other.leading,
                              self.roots + other.roots)

    def __repr__(self):
        roots = ", ".join(r.to_text() for r in self.roots)
        return f"AnalyticSymbol(leading={self.leading.to_text()}, roots=[{roots}])"


def _root_key(r: QiScalar):
    return (r.re, r.im)


def _monic_inside_coeffs(f: AnalyticSymbol) -> list:
    """Coefficients c_0..c_{d-1} of the monic inside factor (degree d)."""
    coeffs = [ONE]
    for root in f.inside_roots:
        next_coeffs = [QiScalar(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            next_coeffs[k + 1] = next_coeffs[k + 1] + c
            next_coeffs[k] = next_coeffs[k] - root * c
        coeffs = next_coeffs
    return coeffs[:-1]


def companion_matrix(f: AnalyticSymbol) -> ExactMatrix:
    """Multiplication by z on C[z]/(f_in) in the monomial basis."""
    d = f.winding
    low = _monic_inside_coeffs(f)
    ent = [QiScalar(0)] * (d * d)
    for j in range(d - 1):
        ent[(j + 1) * d + j] = ONE
    for i in range(d):
        ent[i * d + (d - 1)] = -low[i]
    return ExactMatrix(d, d, ent)


def coker_action(f: AnalyticSymbol, g: AnalyticSymbol) -> ExactMatrix:
    """Matrix of multiplication by the full polynomial g (leading
    coefficient and outside roots included) on C[z]/(f_in), the finite model
    of coker T_f, in the monomial basis 1, z, ..., z^(d-1).

    Its determinant is the product of g over the inside roots of f, and
    actions of different multipliers commute.
    """
    d = f.winding
    if d == 0:
        return ExactMatrix.zero(0, 0)
    z_action = companion_matrix(f)
    result = ExactMatrix.scalar_diag(d, g.leading)
    for root in g.roots:
        result = result * (z_action - ExactMatrix.scalar_diag(d, root))
    return result


def _check_acyclic(f: AnalyticSymbol, g: AnalyticSymbol) -> None:
    f_inside = list(f.inside_roots)
    for r in g.inside_roots:
        if r in f_inside:
            raise DomainError("Koszul complex not acyclic")


@dataclass
class RestrictionData:
    """The cokernel blocks of a commuting pair (A, B) = (T_f, T_g): B on
    coker A and A on coker B.  Both operators are injective, so these are
    the only blocks that are not empty."""
    b_on_coker_a: ExactMatrix
    a_on_coker_b: ExactMatrix


def restriction_data(f: AnalyticSymbol, g: AnalyticSymbol) -> RestrictionData:
    """The cokernel blocks of the pair (T_f, T_g), on the finite models."""
    _check_acyclic(f, g)
    return RestrictionData(b_on_coker_a=coker_action(f, g),
                           a_on_coker_b=coker_action(g, f))


def toeplitz_joint_torsion(data: RestrictionData) -> QiScalar:
    """Joint torsion of the commuting Toeplitz pair (T_f, T_g), from its
    ``restriction_data``.

    Both operators are injective, so only the cokernel blocks contribute:

        det(g on C[z]/(f_in))^(-1) * det(f on C[z]/(g_in)).
    """
    det_g = data.b_on_coker_a.determinant()
    det_f = data.a_on_coker_b.determinant()
    if det_g.is_zero() or det_f.is_zero():
        raise RuntimeError("internal: cokernel action singular despite "
                           "disjoint inside roots")
    return det_g.inverse() * det_f


def tame_symbol(f: AnalyticSymbol, g: AnalyticSymbol) -> QiScalar:
    """Closed-form oracle: prod f(b) over inside roots b of g, divided by
    prod g(a) over inside roots a of f, all evaluated exactly."""
    _check_acyclic(f, g)
    numerator = ONE
    for b in g.inside_roots:
        numerator = numerator * f.evaluate(b)
    denominator = ONE
    for a in f.inside_roots:
        denominator = denominator * g.evaluate(a)
    return numerator * denominator.inverse()


def restriction_sequences(data: RestrictionData):
    """The two eight-term sequences of the pair whose ``restriction_data``
    is data, degenerate except for the cokernel isomorphisms; inputs for the
    folded-determinant formula."""
    zero = ExactMatrix.zero

    def sequence(action: ExactMatrix) -> BasedExactSequence:
        m = action.rows
        dims = [0, 0, 0, 0, m, m, 0]
        diffs = [zero(0, 0), zero(0, 0), zero(0, 0), zero(m, 0),
                 action, zero(0, m)]
        return BasedExactSequence(ChainComplexSpec(dims, diffs))

    return sequence(data.a_on_coker_b), sequence(data.b_on_coker_a)
