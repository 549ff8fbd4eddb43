"""Koszul complexes, long exact sequences, perturbation scalars, and joint
torsion for (almost) commuting operators on a finite dimensional space.

For a quadruple (A, B, C, D) with AB = CD the three-term complex

    H --(-B, D)--> H^2 --(A, C)--> H

has homology H_2 = ker B n ker D, H_0 = H/(AH + CH), and
H_1 = {(y, z) | Ay + Cz = 0} / {(-Bx, Dx)}.  Two eight-term exact sequences
tie these to the kernels and cokernels of the four operators:

    eps_AD: 0 -> H_2 --i--> ker B --D--> ker C --(0,v)--> H_1
                 --(y,z)->y--> coker B --A--> coker C --pi--> H_0 -> 0

    eps_BC: 0 -> H_2 --(-i)--> ker D --B--> ker A --(v,0)--> H_1
                 --(y,z)->z--> coker D --C--> coker A --pi--> H_0 -> 0

The minus sign on the first map of eps_BC is part of the convention and is
required for the final scalar to be +1, not -1, on finite quadruples.

The joint torsion is

    value = (-1)^(lambda + pairing) * tau(eps_AD) * tau(eps_BC)^(-1)
            * sigma(A, D) * sigma(B, C)

where sigma(X, Y) = (-1)^(kappa(X)+kappa(Y)) tau(X') / tau(Y') is the
perturbation scalar built from the four-term sequences
0 -> ker X -> H --X--> H -> coker X -> 0, kappa(X) = nullity * rank, and
lambda = dim(ker B n ker D)(dim ker D + dim ker B)
       + dim H_0 (dim coker A + dim coker C).

The extra exponent

    pairing = dim ker B (dim ker C + 1) + dim ker D (dim ker A + 1)

is the contraction-order sign: the four factors live in a tensor product of
kernel/cokernel determinant lines, and flattening that product to a plain
product of scalars moves odd-dimensional factors past each other.  With the
torsion normalization fixed in ``complexes`` (which is pinned by its own
two- and three-term values), this is the unique quadratic correction under
which the value is exactly 1 on every finite dimensional quadruple; it
vanishes on commuting pairs (A, B, B, A) and on quadruples with invertible
B and D, which is why smaller test families never see it.

All homology spaces are given one shared set of deterministic bases, so the
basis dependence of the four factors cancels and the value is well defined;
on a finite dimensional space it is exactly 1.
"""

from __future__ import annotations

from .complexes import BasedExactSequence, ChainComplexSpec, torsion_scalar
from .errors import DomainError
from .linalg import ExactMatrix, Subquotient, build_subquotient, induced_map
from .scalars import ZERO, QiScalar


class KoszulQuadruple:
    """Operators A, B, C, D on a common space with AB = CD exactly.

    ``complex`` is the three-term complex H -> H^2 -> H with d2 = (-B; D)
    and d1 = (A, C).  Its composition d1 d2 is CD - AB, so building it is
    the check that AB = CD.
    """

    def __init__(self, a, b, c, d):
        h = a.rows
        for m in (a, b, c, d):
            if m.rows != h or m.cols != h:
                raise DomainError("operators must be square on a common space")
        try:
            self.complex = ChainComplexSpec([h, 2 * h, h],
                                            [(-b).vstack(d), a.hstack(c)])
        except DomainError as exc:
            raise DomainError("AB != CD") from exc
        self.a, self.b, self.c, self.d = a, b, c, d
        self.dim = h


def _kernel_cokernel(op: ExactMatrix) -> tuple:
    """(ker op, coker op) as subquotients of a square operator: ker op is
    ker op / im (0 -> H) and coker op is ker (H -> 0) / im op."""
    h = op.rows
    return (build_subquotient(op, ExactMatrix.zero(h, 0)),
            build_subquotient(ExactMatrix.zero(0, h), op))


class QuadHomology:
    """The eleven homology spaces of a quadruple, with shared bases, in the
    order ker_A, coker_A, ..., ker_D, coker_D, ker_B_cap_ker_D, H1, H0.

    ``rebasing`` optionally recombines the representative basis of any space
    by an invertible matrix (keyed by label); the joint torsion value must
    not depend on it.
    """

    def __init__(self, q: KoszulQuadruple, rebasing=None):
        sq = {}
        for name, op in zip("ABCD", (q.a, q.b, q.c, q.d)):
            sq[f"ker_{name}"], sq[f"coker_{name}"] = _kernel_cokernel(op)
        sq["ker_B_cap_ker_D"] = q.complex.homology(2)
        sq["H1"] = q.complex.homology(1)
        sq["H0"] = q.complex.homology(0)
        if rebasing:
            for label, g in rebasing.items():
                if label not in sq:
                    raise DomainError(f"unknown homology space {label!r}")
                sq[label] = sq[label].with_rep_transform(g)
        self.spaces = sq

    def dims(self) -> dict:
        return {label: space.dim for label, space in self.spaces.items()}


def _as_based_sequence(dims_top_down, diffs_top_down) -> BasedExactSequence:
    try:
        return BasedExactSequence(dims_top_down, diffs_top_down)
    except DomainError as exc:
        raise RuntimeError(f"internal: constructed sequence invalid ({exc})") from exc


def build_eps_sequences(q: KoszulQuadruple, homology: QuadHomology | None = None):
    """The two eight-term exact sequences of the quadruple, based.  Each is
    given by its seven spaces, top down, and the six operators on the
    ambient spaces that induce its maps."""
    if homology is None:
        homology = QuadHomology(q)
    sq = homology.spaces
    ident = ExactMatrix.identity(q.dim)
    zero = ExactMatrix.zero(q.dim, q.dim)
    tables = (
        (("ker_B_cap_ker_D", "ker_B", "ker_C", "H1", "coker_B", "coker_C", "H0"),
         (ident, q.d, zero.vstack(ident), ident.hstack(zero), q.a, ident)),
        (("ker_B_cap_ker_D", "ker_D", "ker_A", "H1", "coker_D", "coker_A", "H0"),
         (-ident, q.b, ident.vstack(zero), zero.hstack(ident), q.c, ident)),
    )
    return tuple(
        _as_based_sequence([sq[label].dim for label in labels],
                           [induced_map(op, sq[src], sq[dst]) for op, src, dst
                            in zip(ops, labels, labels[1:])])
        for labels, ops in tables)


def _four_term_sequence(op: ExactMatrix, ker_sq: Subquotient,
                        coker_sq: Subquotient) -> BasedExactSequence:
    h = op.rows
    return _as_based_sequence(
        [ker_sq.dim, h, h, coker_sq.dim],
        [ker_sq.rep_basis, op, coker_sq.project_map])


def kappa(op: ExactMatrix) -> int:
    """nullity * rank of a square operator."""
    r = op.rank()
    return (op.cols - r) * r


def perturbation_sigma(a: ExactMatrix, d: ExactMatrix, bases=None) -> QiScalar:
    """The finite dimensional perturbation scalar of two operators.

    Both operators act on the same space; the scalar is
    (-1)^(kappa(a)+kappa(d)) tau(seq_a) / tau(seq_d) where seq_x is the
    four-term sequence 0 -> ker x -> H -> H -> coker x -> 0 based by the
    supplied (or deterministic) kernel/cokernel bases and the standard
    ambient basis.  For a = d the factors cancel and the result is 1.
    """
    if a.rows != a.cols or d.rows != d.cols or a.rows != d.rows:
        raise DomainError("shape mismatch")
    if bases is None:
        bases = _kernel_cokernel(a) + _kernel_cokernel(d)
    ker_a, coker_a, ker_d, coker_d = bases
    tau_a = torsion_scalar(_four_term_sequence(a, ker_a, coker_a))
    tau_d = torsion_scalar(_four_term_sequence(d, ker_d, coker_d))
    sign = -1 if (kappa(a) + kappa(d)) % 2 else 1
    return tau_a * tau_d.inverse() * sign


class JointTorsionReport:
    """Everything the joint torsion computation produced, for reproducibility.

    value = (-1)^(lambda_exp + pairing_exp) * tau_AD * tau_BC^(-1)
            * sigma_AD * sigma_BC.
    """

    __slots__ = ("tau_AD", "tau_BC", "sigma_AD", "sigma_BC", "lambda_exp",
                 "pairing_exp", "kappa_A", "kappa_B", "kappa_C", "kappa_D",
                 "mu_values", "homology_dims", "value")

    def __init__(self, *, tau_AD: QiScalar, tau_BC: QiScalar,
                 sigma_AD: QiScalar, sigma_BC: QiScalar, lambda_exp: int,
                 pairing_exp: int, kappa_A: int, kappa_B: int, kappa_C: int,
                 kappa_D: int, mu_values: dict, homology_dims: dict,
                 value: QiScalar):
        self.tau_AD, self.tau_BC = tau_AD, tau_BC
        self.sigma_AD, self.sigma_BC = sigma_AD, sigma_BC
        self.lambda_exp, self.pairing_exp = lambda_exp, pairing_exp
        self.kappa_A, self.kappa_B = kappa_A, kappa_B
        self.kappa_C, self.kappa_D = kappa_C, kappa_D
        self.mu_values, self.homology_dims = mu_values, homology_dims
        self.value = value


def joint_torsion_quad(q: KoszulQuadruple, rebasing=None) -> JointTorsionReport:
    """Joint torsion of a quadruple with AB = CD; the value is always 1 here.

    The full report is returned so the cancellation can be audited: each
    torsion and perturbation scalar individually depends on the homology
    bases, only the combined value does not.
    """
    homology = QuadHomology(q, rebasing)
    sq = homology.spaces
    eps_ad, eps_bc = build_eps_sequences(q, homology)
    tau_ad = torsion_scalar(eps_ad)
    tau_bc = torsion_scalar(eps_bc)
    sigma_ad = perturbation_sigma(
        q.a, q.d, (sq["ker_A"], sq["coker_A"], sq["ker_D"], sq["coker_D"]))
    sigma_bc = perturbation_sigma(
        q.b, q.c, (sq["ker_B"], sq["coker_B"], sq["ker_C"], sq["coker_C"]))
    dims = homology.dims()
    lambda_exp = (dims["ker_B_cap_ker_D"] * (dims["ker_D"] + dims["ker_B"])
                  + dims["H0"] * (dims["coker_A"] + dims["coker_C"]))
    pairing_exp = (dims["ker_B"] * (dims["ker_C"] + 1)
                   + dims["ker_D"] * (dims["ker_A"] + 1))
    value = tau_ad * tau_bc.inverse() * sigma_ad * sigma_bc
    if (lambda_exp + pairing_exp) % 2:
        value = -value
    return JointTorsionReport(
        tau_AD=tau_ad, tau_BC=tau_bc, sigma_AD=sigma_ad, sigma_BC=sigma_bc,
        lambda_exp=lambda_exp, pairing_exp=pairing_exp,
        kappa_A=kappa(q.a), kappa_B=kappa(q.b),
        kappa_C=kappa(q.c), kappa_D=kappa(q.d),
        mu_values={key: dims[f"ker_{key}"] * dims[f"coker_{key}"]
                   for key in ("A", "B", "C", "D")},
        homology_dims=dims, value=value)


def joint_torsion_pair(a: ExactMatrix, b: ExactMatrix) -> JointTorsionReport:
    """Joint torsion of a commuting pair, via the quadruple (A, B, B, A),
    whose construction is the check that AB = BA."""
    try:
        q = KoszulQuadruple(a, b, b, a)
    except DomainError as exc:
        raise DomainError("operators do not commute") from exc
    return joint_torsion_quad(q)


def graded_determinant(seq: BasedExactSequence) -> QiScalar:
    """det(D_+ + D_-^dagger) for the even/odd folding of an exact sequence.

    Spaces at even distance from the top form the source, the others the
    target, each ordered by decreasing degree.  D_+ collects differentials
    leaving the source, D_- those leaving the target, and the dagger is the
    algebraic pseudoinverse.  With these conventions the determinant equals
    the torsion scalar of the sequence (any algebraic pseudoinverse gives
    the same value).
    """
    n = seq.length
    offset, size = {}, [0, 0]
    for k in range(n, -1, -1):
        offset[k] = size[(n - k) % 2]
        size[(n - k) % 2] += seq.dim(k)
    m = size[0]  # = size[1]: an exact sequence's alternating dims sum to 0
    grids = ([ZERO] * (m * m), [ZERO] * (m * m))  # D_+, D_-
    for k in range(n, 0, -1):
        d = seq.differential(k)
        if seq.basis(k) is not None:
            d = seq.basis(k - 1).inverse() * d * seq.basis(k)
        grid, r0, c0 = grids[(n - k) % 2], offset[k - 1], offset[k]
        for i in range(d.rows):
            start = (r0 + i) * m + c0
            grid[start:start + d.cols] = d.row(i)
    d_plus, d_minus = (ExactMatrix(m, m, grid) for grid in grids)
    det = (d_plus + d_minus.pseudoinverse()).determinant()
    if det.is_zero():
        raise RuntimeError("internal: folded map is singular on an exact sequence")
    return det


def _rank_parity_correction(seq: BasedExactSequence) -> int:
    """Sign exponent aligning the folded determinant with the signed formula.

    For a sequence with top differential ranks a_n, a_{n-1} and bottom rank
    a_1 the exponent is a_{n-1} (a_n + a_1 + 1); it vanishes on two-term
    sequences and on sequences whose second-from-top space is zero.
    """
    n = seq.length
    return seq.rank(n - 1) * (seq.rank(n) + seq.rank(1) + 1)


def pseudoinv_formula(eps_a: BasedExactSequence, eps_b: BasedExactSequence,
                      mu_a: int, mu_b: int) -> QiScalar:
    """The determinant-invariant of a pair from folded exact sequences:

        (-1)^(mu_a + mu_b) det(D_B+ + D_B-^dagger)^(-1) (D_A+ + D_A-^dagger)

    where mu_x = dim ker X * dim coker X and the folding signs follow the
    conventions of ``graded_determinant``.  Equals the joint torsion of the
    pair that produced the sequences.
    """
    det_a = graded_determinant(eps_a)
    det_b = graded_determinant(eps_b)
    exponent = (mu_a + mu_b + _rank_parity_correction(eps_a)
                + _rank_parity_correction(eps_b))
    value = det_a * det_b.inverse()
    return -value if exponent % 2 else value


FACTORIZATION_SELECTORS = ("sigma-conjugate", "sigma-right-shift",
                           "sigma-det-class", "quad-conjugate", "quad-slide")


def factorization_identities(q: KoszulQuadruple, u: ExactMatrix, which: str):
    """Evaluate both sides of one of the factorization identities.

    Selectors (U invertible throughout; all scalars are evaluated against
    the same deterministic bases, so the equalities are exact):

    * sigma-conjugate:   sigma(A, U^-1 D U) versus
                         sigma(A, D) * t(U^-1 | ker D) / t(U^-1 | coker D)
    * sigma-right-shift: sigma(A U, D U) versus
                         sigma(A, D) * t(U^-1 | ker D) / t(U^-1 | ker A)
    * sigma-det-class:   sigma(A, D U) versus
                         sigma(A, D) * t(U^-1 | ker D) * det U
    * quad-conjugate:    value of (A, B U, C U, U^-1 D U) versus (A, B, C, D)
    * quad-slide:        value of (A, B, C U, U^-1 D)     versus (A, B, C, D)

    Here t(U | V) is the determinant of the isomorphism induced by U from
    the deterministic basis of V to the deterministic basis of its image
    space.  Returns (lhs, rhs).
    """
    if not u.is_square() or u.rows != q.dim:
        raise DomainError("U has the wrong shape")
    if u.determinant().is_zero():
        raise DomainError("U not invertible")
    a, b, c, d = q.a, q.b, q.c, q.d
    u_inv = u.inverse()

    if which in ("quad-conjugate", "quad-slide"):
        moved = ((a, b * u, c * u, u_inv * d * u) if which == "quad-conjugate"
                 else (a, b, c * u, u_inv * d))
        return (joint_torsion_quad(KoszulQuadruple(*moved)).value,
                joint_torsion_quad(q).value)
    if which not in FACTORIZATION_SELECTORS:
        raise DomainError(f"unknown identity selector {which!r}")

    def t(space, image):
        """t(U^-1 | space), onto the image space."""
        return induced_map(u_inv, space, image).determinant()

    a2 = a * u if which == "sigma-right-shift" else a
    d2 = u_inv * d * u if which == "sigma-conjugate" else d * u
    spaces_a, spaces_d = _kernel_cokernel(a), _kernel_cokernel(d)
    spaces_a2 = spaces_a if a2 is a else _kernel_cokernel(a2)
    spaces_d2 = _kernel_cokernel(d2)
    lhs = perturbation_sigma(a2, d2, spaces_a2 + spaces_d2)
    shared = (perturbation_sigma(a, d, spaces_a + spaces_d)
              * t(spaces_d[0], spaces_d2[0]))
    if which == "sigma-conjugate":
        return lhs, shared * t(spaces_d[1], spaces_d2[1]).inverse()
    if which == "sigma-right-shift":
        return lhs, shared * t(spaces_a[0], spaces_a2[0]).inverse()
    return lhs, shared * u.determinant()
