#!/usr/bin/env python3
"""Run every CLI verb on every bundled data file, as text, as JSON and with
the max tie-break, through cli.main in one process, and print one JSON object
that maps each call ("verb file flags") to [exit code, sha256 of stdout,
stderr].  tests/cli_sweep.json is this output; a change that alters any
report, error line or exit code of these calls shows as a diff against it.

Usage: python scripts/cli_sweep.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from cyhopf.cli import VERBS, main as cli_main  # noqa: E402

FLAGS = ((), ("--json",), ("--tie-break", "max"))


def calls() -> list[tuple[str, str, tuple[str, ...]]]:
    files = sorted(path.name for path in (REPO / "data").glob("*.json"))
    return [(verb, name, flags) for verb in VERBS for name in files for flags in FLAGS]


def call_key(verb: str, name: str, flags: tuple[str, ...]) -> str:
    return " ".join((verb, f"data/{name}", *flags))


def run_call(verb: str, name: str, flags: tuple[str, ...]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([verb, str(REPO / "data" / name), *flags])
    return [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), err.getvalue()]


def main() -> int:
    print(json.dumps({call_key(*call): run_call(*call) for call in calls()}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
