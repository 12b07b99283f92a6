"""Exact Calabi-Yau checks for braided Hopf algebras of finite Cartan type
over finite abelian group algebras and their smash products."""

from .cartan import CartanMatrix, Root, beta_sequence, longest_word, positive_roots_closure
from .cyclotomic import CycloNumber, one, root_of_unity, zero
from .datum import (
    CartanDatum,
    CyReport,
    LinkingParameter,
    check_cy,
    check_cy_braided,
    check_cy_smash,
    chi_beta,
    hdet_quantum_affine,
    inner_witness_search,
    integral_character,
    quantum_affine_balance,
    quantum_affine_report,
)
from .groups import AbelianGroup, Character, GroupElement
from .lie import GroupActionData, LieAlgebraData, adjoint_trace, check_cy_lie_smash
from .smash import (
    DiagonalAutomorphism,
    PresentedAlgebra,
    SmashElement,
    TensorElement,
    check_local_confluence,
    nakayama_automorphism,
    quantum_affine_presentation,
    verify_double_antipode,
    verify_hopf_axioms,
    winding_endomorphism,
)

__version__ = "0.1.0"
