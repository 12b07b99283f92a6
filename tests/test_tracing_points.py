"""Guard for the benchmark tracer: every attribute it wraps must exist where
perfbench/tracing.py looks for it, so that moving one fails here instead of
breaking a traced benchmark run."""

import importlib
import importlib.util
import random
from pathlib import Path

import cyhopf.cli  # noqa: F401  (a CLI call imports its layers lazily; current() loads each)
from cyhopf.datum import check_cy, quantum_affine_report
from cyhopf.sampling import random_a1t_datum
from cyhopf.smash import quantum_affine_presentation

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(modname: str, owner: str | None, attr: str):
    """The object the tracer replaces: owner.__dict__[attr], or a module attribute."""
    mod = importlib.import_module(f"cyhopf.{modname}")
    if owner is None:
        return getattr(mod, attr)
    return getattr(mod, owner).__dict__[attr]


def test_tracer_resolves_every_point_and_uninstalls():
    tracing = load_tracing()
    points = [(name, modname, owner, attr) for name, modname, owner, attr, _kind in tracing.POINTS]
    originals = {}
    for point in points:
        name, modname, owner, attr = point
        try:
            originals[point] = current(modname, owner, attr)
        except (AttributeError, KeyError):
            where = f"cyhopf.{modname}" + (f".{owner}" if owner else "")
            raise AssertionError(f"{name}: {where} has no own attribute {attr!r}") from None
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for point in points:
            assert current(*point[1:]) is not originals[point], f"{point[0]} not wrapped"
    finally:
        tracer.uninstall()
    for point in points:
        assert current(*point[1:]) is originals[point], f"{point[0]} not restored"


def test_tracer_sees_the_one_witness_search_of_a_datum():
    """The witness is solved on first use and kept on the datum, through the
    module global that the tracer wraps: both tie-breaks and the
    quantum-affine report count one solve."""
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        datum = random_a1t_datum(random.Random(5))
        check_cy(datum, "min")
        check_cy(datum, "max")
        quantum_affine_report(datum)
    finally:
        tracer.uninstall()
    assert tracer.counts["datum.validate"] == 1
    assert tracer.counts["datum.witness_search"] == 1


def test_tracer_sees_the_confluence_check_of_a_presentation():
    """The confluence check lives in rewriting and is called through that
    module's global, which the tracer replaces as it does smash's re-export:
    building one presentation counts one build and one confluence check."""
    tracer = load_tracing().Tracer()
    datum = random_a1t_datum(random.Random(5))
    tracer.install()
    try:
        quantum_affine_presentation(datum.group, datum.g, datum.chi)
    finally:
        tracer.uninstall()
    assert tracer.counts["smash.build"] == 1
    assert tracer.counts["smash.confluence"] == 1
