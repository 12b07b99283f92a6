"""Mutation test of the front door: edited copies of the bundled data files,
run through every verb that accepts their kind, must exit 0, or exit 1 with
exactly one "error:" line on stderr (never 2, never a traceback)."""

import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cyhopf.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"
VERBS = {
    "cartan": ("roots",),
    "datum": ("check-cy", "hdet", "roots"),
    "lie": ("lie-check",),
    "presentation": ("nakayama", "verify-hopf", "verify-s2", "confluence"),
}
FILES = {path.name: json.loads(path.read_text()) for path in sorted(DATA.glob("*.json"))}

WRONG_TYPES = [None, "x", "", 2.5, True, [], {}, [1, "a"], {"exp": "zz"}]
BAD_NUMBERS = [-1, 0, 7, 10**9, 10**30, 1.5, "1/0", {"order": 1, "coeffs": [["1", "0"]]},
               {"order": 0, "coeffs": []}, {"order": 3, "coeffs": [["1", "1"]]}]
LONG_WORDS = ["x1^100000000", "*".join(["x1"] * 2000), "x2^3000*x1", "x1^-1", "x9", "y1"]
HUGE_BOUNDS = [1000, 10**6, 10**30, "1000000"]


def kind_of(name: str) -> str:
    return name.split("_")[0]


def paths(node, prefix=()):
    """Every path to a value inside a JSON object, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def mutate(obj, data) -> None:
    op = data.draw(st.sampled_from(["drop", "retype", "number", "word", "bound"]))
    targets = list(paths(obj))
    if op == "bound" or not targets:
        obj["degree_bound"] = data.draw(st.sampled_from(HUGE_BOUNDS))
        return
    path = data.draw(st.sampled_from(targets))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if op == "drop":
        del parent[path[-1]]
    else:
        pool = {"retype": WRONG_TYPES, "number": BAD_NUMBERS, "word": LONG_WORDS}[op]
        parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(pool)))


def run_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=300, derandomize=True)
@given(st.data())
def test_mutated_bundled_files_exit_zero_or_one_error_line(data):
    name = data.draw(st.sampled_from(sorted(FILES)))
    obj = copy.deepcopy(FILES[name])
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(obj, data)
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(obj, fh)
        mode = data.draw(st.sampled_from([["--json"], []]))
        for verb in VERBS[kind_of(name)]:
            code, err = run_cli([verb, path, *mode])
            assert code in (0, 1), (verb, obj, err)
            if code == 1:
                assert len(err.splitlines()) == 1 and err.startswith("error:"), (verb, obj, err)
            else:
                assert err == "", (verb, obj, err)
    finally:
        os.unlink(path)
