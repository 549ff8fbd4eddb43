"""Exact joint torsion and determinant invariants at finite scale.

The package has two arithmetic worlds that never mix silently:

* an exact world over the Gaussian rationals (scalars, linalg, complexes,
  koszul, toeplitz) where every equality test is literal equality, and
* a floating-point world (fredholm) for truncated Fredholm determinants,
  where tolerances are acceptance-level contracts.
"""

from .complexes import BasedExactSequence, ChainComplexSpec, torsion_scalar
from .errors import DomainError
from .fredholm import (TrigPoly, closed_form_di, exp_symbol_coeffs,
                       numeric_det_invariant)
from .koszul import (FACTORIZATION_SELECTORS, JointTorsionReport,
                     KoszulQuadruple, build_eps_sequences,
                     factorization_identities, graded_determinant,
                     joint_torsion_pair, joint_torsion_quad,
                     perturbation_sigma, pseudoinv_formula)
from .linalg import ExactMatrix, Subquotient, build_subquotient, induced_map
from .scalars import QiScalar, qi_modulus_cmp_one
from .toeplitz import (AnalyticSymbol, coker_action, restriction_data,
                       restriction_sequences, tame_symbol,
                       toeplitz_joint_torsion)

__all__ = [
    "AnalyticSymbol", "BasedExactSequence", "ChainComplexSpec", "DomainError",
    "ExactMatrix", "FACTORIZATION_SELECTORS", "JointTorsionReport",
    "KoszulQuadruple", "Subquotient", "TrigPoly", "build_eps_sequences",
    "build_subquotient", "closed_form_di", "coker_action",
    "exp_symbol_coeffs", "factorization_identities", "graded_determinant",
    "induced_map", "joint_torsion_pair", "joint_torsion_quad",
    "numeric_det_invariant", "perturbation_sigma", "pseudoinv_formula",
    "qi_modulus_cmp_one", "QiScalar", "restriction_data",
    "restriction_sequences", "tame_symbol", "toeplitz_joint_torsion",
    "torsion_scalar",
]
