"""Exact Calabi-Yau checks for braided Hopf algebras of finite Cartan type
over finite abelian group algebras and their smash products.

`import cyhopf` loads no submodule: each exported name is read from its module
on every access (PEP 562), so a name loads only its own module and its imports.
"""

import importlib

_EXPORTS = {
    "cartan": ("CartanMatrix", "Root", "beta_sequence", "longest_word", "positive_roots_closure"),
    "cyclotomic": ("CycloNumber", "one", "root_of_unity", "zero"),
    "datum": ("CartanDatum", "CyReport", "LinkingParameter", "check_cy", "check_cy_braided",
              "check_cy_smash", "chi_beta", "inner_witness_search", "integral_character",
              "quantum_affine_report"),
    "groups": ("AbelianGroup", "Character", "GroupElement"),
    "lie": ("GroupActionData", "LieAlgebraData", "adjoint_trace", "check_cy_lie_smash"),
    "smash": ("DiagonalAutomorphism", "PresentedAlgebra", "SmashElement", "TensorElement",
              "check_local_confluence", "nakayama_automorphism", "quantum_affine_presentation",
              "verify_double_antipode", "verify_hopf_axioms", "winding_endomorphism"),
}

__version__ = "0.1.0"


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *(name for names in _EXPORTS.values() for name in names)})
