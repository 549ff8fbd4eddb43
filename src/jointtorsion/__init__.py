"""Exact joint torsion and determinant invariants at finite scale.

The package has two arithmetic worlds that never mix silently:

* an exact world over the Gaussian rationals (scalars, linalg, complexes,
  koszul, toeplitz) where every equality test is literal equality, and
* a floating-point world (fredholm) for truncated Fredholm determinants,
  where tolerances are acceptance-level contracts.

``import jointtorsion`` loads no submodule: each public name is imported
from its submodule when it is first read (PEP 562), so a process loads only
the layers it uses.
"""

from importlib import import_module

# Each public name with the submodule that defines it, in ``__all__`` order.
_SUBMODULE = {
    "AnalyticSymbol": "toeplitz",
    "BasedExactSequence": "complexes",
    "ChainComplexSpec": "complexes",
    "DomainError": "errors",
    "ExactMatrix": "linalg",
    "FACTORIZATION_SELECTORS": "koszul",
    "JointTorsionReport": "koszul",
    "KoszulQuadruple": "koszul",
    "Subquotient": "linalg",
    "TrigPoly": "fredholm",
    "build_eps_sequences": "koszul",
    "build_subquotient": "linalg",
    "closed_form_di": "fredholm",
    "coker_action": "toeplitz",
    "exp_symbol_coeffs": "fredholm",
    "factorization_identities": "koszul",
    "graded_determinant": "koszul",
    "induced_map": "linalg",
    "joint_torsion_pair": "koszul",
    "joint_torsion_quad": "koszul",
    "numeric_det_invariant": "fredholm",
    "perturbation_sigma": "koszul",
    "pseudoinv_formula": "koszul",
    "qi_modulus_cmp_one": "scalars",
    "QiScalar": "scalars",
    "restriction_sequences": "toeplitz",
    "tame_symbol": "toeplitz",
    "toeplitz_joint_torsion": "toeplitz",
    "torsion_scalar": "complexes",
}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    # Any other name raises AttributeError, so that ``from jointtorsion
    # import cli`` falls back to importing the submodule.
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value
