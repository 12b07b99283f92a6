"""A CLI call loads only the layers its verb runs, and `import cyhopf` loads
none: each verb kind runs in a fresh interpreter, which then lists the
modules it holds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyhopf

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(REPO / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
CHILD = """
import contextlib, io, sys
from cyhopf.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""
FRONT = {"cyhopf", "cyhopf.cli", "cyhopf.errors", "cyhopf.io"}
DATUM_LAYERS = {"cyhopf.cartan", "cyhopf.cyclotomic", "cyhopf.datum", "cyhopf.groups"}

# (verb, bundled file, exit code, cyhopf modules loaded after cli.main)
SCOPES = [
    ("roots", "cartan_a2.json", 0, FRONT | {"cyhopf.cartan"}),
    ("check-cy", "datum_a2_z2z2.json", 0, FRONT | DATUM_LAYERS),
    ("verify-hopf", "presentation_a2_z2z2.json", 0,
     FRONT | {"cyhopf.cyclotomic", "cyhopf.groups", "cyhopf.rewriting", "cyhopf.smash"}),
    ("lie-check", "lie_sl2_sign.json", 0, FRONT | DATUM_LAYERS | {"cyhopf.lie"}),
    # the wrong kind of file: refused for a missing top-level key before any layer loads
    ("check-cy", "presentation_a2_z2z2.json", 1, FRONT),
    ("roots", "presentation_a2_z2z2.json", 1, FRONT),
    ("lie-check", "datum_a2_z2z2.json", 1, FRONT),
    ("verify-hopf", "datum_a2_z2z2.json", 1, FRONT),
    # a valid datum of the wrong Cartan type: refused after the datum is built
    ("hdet", "datum_a2_z2z2.json", 1, FRONT | DATUM_LAYERS),
]

# Every name `from cyhopf import ...` provides, with the module that defines it.
EXPORTS = {
    "cartan": ["CartanMatrix", "Root", "beta_sequence", "longest_word", "positive_roots_closure"],
    "cyclotomic": ["CycloNumber", "one", "root_of_unity", "zero"],
    "datum": ["CartanDatum", "CyReport", "LinkingParameter", "check_cy", "check_cy_braided",
              "check_cy_smash", "chi_beta", "inner_witness_search", "integral_character",
              "quantum_affine_report"],
    "groups": ["AbelianGroup", "Character", "GroupElement"],
    "lie": ["GroupActionData", "LieAlgebraData", "adjoint_trace", "check_cy_lie_smash"],
    "rewriting": ["check_local_confluence"],
    "smash": ["DiagonalAutomorphism", "PresentedAlgebra", "SmashElement", "TensorElement",
              "nakayama_automorphism", "quantum_affine_presentation", "verify_double_antipode",
              "verify_hopf_axioms", "winding_endomorphism"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def child(*args: str) -> list[str]:
    result = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                            cwd=REPO, env=ENV, check=True)
    return result.stdout.split()


@pytest.mark.parametrize("verb, name, code, modules", SCOPES,
                         ids=[f"{verb}-{name.split('_')[0]}" for verb, name, _, _ in SCOPES])
def test_a_verb_loads_only_its_layers(verb, name, code, modules):
    out = child("-c", CHILD, verb, str(DATA / name))
    assert int(out[0]) == code
    assert {m for m in out[1:] if m.startswith("cyhopf")} == modules


# One accepted call per verb.  Under -S no site hook preloads a module, so the
# child holds only what the interpreter and the call itself imported.
ACCEPTED = [("roots", "cartan_a2.json"), ("check-cy", "datum_a2_z2z2.json"),
            ("hdet", "datum_a1a1_z3z3.json"), ("lie-check", "lie_sl2_sign.json"),
            ("verify-hopf", "presentation_a2_z2z2.json"),
            ("verify-s2", "presentation_a1a1_z3z3.json"),
            ("confluence", "presentation_nonconfluent.json"),
            ("nakayama", "presentation_a2_z2z2.json")]


# cli reads its command line itself, without argparse and the gettext and
# locale modules argparse imports
NO_ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("verb, name", ACCEPTED, ids=[verb for verb, _ in ACCEPTED])
def test_an_accepted_call_imports_no_dataclasses_or_typing(verb, name):
    """No layer imports dataclasses (and with it inspect, ast and dis), or
    typing for an annotation, and cli imports no argparse."""
    out = child("-S", "-c", CHILD, verb, str(DATA / name))
    assert int(out[0]) == 0
    assert not ({"dataclasses", "inspect", "typing"} | NO_ARGPARSE) & set(out[1:])


@pytest.mark.parametrize("verb, name", [(verb, name) for verb, name, code, modules in SCOPES
                                        if modules == FRONT],
                         ids=lambda x: x.split("_")[0])
def test_a_wrong_kind_refusal_loads_no_fractions(verb, name):
    out = child("-S", "-c", CHILD, verb, str(DATA / name))
    assert int(out[0]) == 1
    assert not ({"fractions", "decimal"} | NO_ARGPARSE) & set(out[1:])


def test_import_cyhopf_loads_no_submodule():
    out = child("-c", "import sys, cyhopf; print(*[m for m in sys.modules if m.startswith('cyhopf')])")
    assert out == ["cyhopf"]


def test_the_rewriting_layer_loads_no_group_layer():
    """rewriting is Gamma-free: importing it loads cyclotomic and errors
    only, no group, smash or datum code."""
    out = child("-c", "import sys, cyhopf.rewriting; "
                      "print(*[m for m in sys.modules if m.startswith('cyhopf')])")
    assert set(out) == {"cyhopf", "cyhopf.rewriting", "cyhopf.cyclotomic", "cyhopf.errors"}


def test_every_export_resolves_to_its_module():
    assert len(NAMES) == 36
    for module, name in NAMES:
        namespace = {}
        exec(f"from cyhopf import {name} as value", namespace)
        assert namespace["value"] is getattr(sys.modules[f"cyhopf.{module}"], name), name


def test_dir_lists_every_export_and_unknown_names_fail():
    assert {name for _, name in NAMES} <= set(dir(cyhopf))
    with pytest.raises(AttributeError):
        cyhopf.no_such_name
    with pytest.raises(ImportError):
        exec("from cyhopf import no_such_name", {})
