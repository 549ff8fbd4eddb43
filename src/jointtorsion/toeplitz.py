"""Exact Toeplitz layer: analytic symbols in factored form, finite cokernel
models, and joint torsion / tame symbols computed without floating point.

An analytic symbol is a polynomial given by its leading coefficient and its
exact Gaussian-rational roots, none of which may lie on the unit circle.
The Toeplitz operator of such a symbol is injective, and its cokernel is
modelled by the quotient ring C[z]/(f_in) where f_in is the monic product
over the roots inside the disk; multiplication by another symbol acts on
that quotient through the companion matrix of f_in, which ``coker_action``
builds.  The determinant of that action is the product of the symbol's
values at the inside roots, which is what makes the closed-form tame symbol
an independent oracle for the matrix-model joint torsion.

``restriction_sequences`` builds a pair's two cokernel actions once, as
two-term based exact sequences; the joint torsion is the ratio of their
torsions, as ``pseudoinv_formula`` is that of their folded determinants.
"""

from __future__ import annotations

from math import lcm, prod

from .complexes import BasedExactSequence, torsion_scalar
from .errors import DomainError
from .linalg import ExactMatrix
from .scalars import ONE, ZERO, QiScalar, qi_modulus_cmp_one


class AnalyticSymbol:
    """A polynomial circle symbol with exact roots off the unit circle."""

    __slots__ = ("leading", "roots", "inside_roots")

    def __init__(self, leading: QiScalar, roots):
        if leading.is_zero():
            raise DomainError("leading coefficient must be nonzero")
        roots = list(roots)
        if len(roots) > 1:
            # by real, then imaginary part: the parts over one common
            # denominator compare as integers
            common = lcm(*(r.d for r in roots))
            roots.sort(key=lambda r: (r.a * (common // r.d),
                                      r.b * (common // r.d)))
        inside = []
        for r in roots:
            where = qi_modulus_cmp_one(r)
            if where == "equal":
                raise DomainError("not Fredholm")
            if where == "less":
                inside.append(r)
        self.leading = leading
        self.roots = tuple(roots)
        self.inside_roots = tuple(inside)

    @property
    def winding(self) -> int:
        return len(self.inside_roots)

    def evaluate(self, z: QiScalar) -> QiScalar:
        return prod((z - r for r in self.roots), start=self.leading)

    def __mul__(self, other: "AnalyticSymbol") -> "AnalyticSymbol":
        return AnalyticSymbol(self.leading * other.leading,
                              self.roots + other.roots)

    def __repr__(self):
        roots = ", ".join(r.to_text() for r in self.roots)
        return f"AnalyticSymbol(leading={self.leading.to_text()}, roots=[{roots}])"


def coker_action(f: AnalyticSymbol, g: AnalyticSymbol) -> ExactMatrix:
    """Matrix of multiplication by the full polynomial g (leading
    coefficient and outside roots included) on C[z]/(f_in), the finite model
    of coker T_f, in the monomial basis 1, z, ..., z^(d-1).

    Its determinant is the product of g over the inside roots of f, and
    actions of different multipliers commute.
    """
    d = f.winding
    coeffs = [ONE]  # of f_in, constant term first
    for root in f.inside_roots:
        coeffs = [low - root * c
                  for low, c in zip([ZERO] + coeffs, coeffs + [ZERO])]
    # multiplication by z: ones on the subdiagonal, -c_i in the last column
    ent = [ZERO] * (d * d)
    for j in range(d - 1):
        ent[(j + 1) * d + j] = ONE
    for i in range(d):
        ent[i * d + d - 1] = -coeffs[i]
    z = ExactMatrix(d, d, ent)
    result = ExactMatrix.identity(d).scale(g.leading)
    for root in g.roots:
        result = result * z - result.scale(root)
    return result


def _check_acyclic(f: AnalyticSymbol, g: AnalyticSymbol) -> None:
    if set(f.inside_roots) & set(g.inside_roots):
        raise DomainError("Koszul complex not acyclic")


def restriction_sequences(f: AnalyticSymbol, g: AnalyticSymbol):
    """The two-term based exact sequences (eps_f, eps_g) of the commuting
    pair (T_f, T_g): C[z]/(g_in) --f--> C[z]/(g_in) and C[z]/(f_in) --g-->
    C[z]/(f_in).  Both operators are injective, so these cokernel blocks are
    all that is not empty in the pair's two eight-term sequences."""
    _check_acyclic(f, g)
    actions = coker_action(g, f), coker_action(f, g)
    try:
        return tuple(BasedExactSequence([a.rows, a.rows], [a])
                     for a in actions)
    except DomainError as exc:
        raise RuntimeError("internal: cokernel action singular despite "
                           "disjoint inside roots") from exc


def toeplitz_joint_torsion(eps_f: BasedExactSequence,
                           eps_g: BasedExactSequence) -> QiScalar:
    """Joint torsion of the commuting Toeplitz pair (T_f, T_g) from its
    ``restriction_sequences``, as the ratio of their torsions
    det(f on C[z]/(g_in)) * det(g on C[z]/(f_in))^(-1)."""
    return torsion_scalar(eps_f) * torsion_scalar(eps_g).inverse()


def tame_symbol(f: AnalyticSymbol, g: AnalyticSymbol) -> QiScalar:
    """Closed-form oracle: prod f(b) over inside roots b of g, divided by
    prod g(a) over inside roots a of f, all evaluated exactly."""
    _check_acyclic(f, g)
    numerator = prod((f.evaluate(b) for b in g.inside_roots), start=ONE)
    denominator = prod((g.evaluate(a) for a in f.inside_roots), start=ONE)
    return numerator * denominator.inverse()
