"""Run `cyhopf.cli.main` under the tracer and write the trace summary.

Usage: python3 perfbench/cli_child.py SUMMARY.json VERB INPUT [flags...]

Standard output, standard error and the exit code are those of the CLI; an
uncaught exception still prints its traceback.  The summary (counts, self
times, spans) is written whatever the outcome.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cyhopf.cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cyhopf.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main())
