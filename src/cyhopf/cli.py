"""Command-line front door.

Verbs: check-cy, hdet, nakayama, roots, verify-hopf, verify-s2, confluence,
lie-check.  Exit codes: 0 computed (a negative verdict is still data), 1
invalid input (a malformed command line too) or a standard output closed
before the report was written, 2 internal invariant violation or any other
unexpected exception, each reported as one stderr line.  JSON mode emits one
report object; text mode renders the same data.  A verb parses its file before
it imports the layers it runs, and imports only those: a file of another kind is
refused with only cli, io and errors loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InputError, InternalError
from .io import (
    SCHEMA,
    cy_report_to_json,
    load_json_file,
    parse_cartan_only,
    parse_datum,
    parse_lie,
    parse_presentation,
    render_cy_report_text,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed command line is invalid input
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cyhopf",
        description="Exact Calabi-Yau checks for braided Hopf algebras of finite "
        "Cartan type over finite abelian groups and their smash products.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    common = _Parser(add_help=False)
    common.add_argument("input", help="path to a cy-hopf/1 JSON input file")
    common.add_argument("--json", action="store_true", help="emit a single JSON report")
    common.add_argument("--degree-bound", type=int, default=None, metavar="N",
                        help="override the verification degree bound")
    common.add_argument("--seed", type=int, default=None, metavar="S",
                        help="seed recorded in the report (reserved for sampling front ends)")
    common.add_argument("--tie-break", choices=("min", "max"), default="min",
                        help="simple-index tie-break for the longest-word descent")
    for verb, help_text in (
        ("check-cy", "full CY report for a Cartan datum"),
        ("hdet", "check-cy's report, which for A1 x ... x A1 carries the homological "
                 "determinant and the balance criterion; refuses other types"),
        ("nakayama", "winding-twisted squared antipode of a presentation"),
        ("roots", "positive roots and longest-word data of a Cartan matrix"),
        ("verify-hopf", "Hopf axioms, decided on generators and rules (in every degree) "
                        "when the rewriting system is confluent, else by a sweep over "
                        "monomials x^w#e; other group tails follow by Gamma-equivariance"),
        ("verify-s2", "graded squared-antipode identity, decided by Gamma-equivariance "
                      "of S in every degree (no sweep)"),
        ("confluence", "diamond-lemma overlap report for a presentation"),
        ("lie-check", "CY report for an enveloping-algebra smash product"),
    ):
        sub.add_parser(verb, parents=[common], help=help_text)
    return parser


def _envelope(args, bound: int | None, report: dict) -> dict:
    return {
        "schema": SCHEMA,
        "command": args.verb,
        "degree_bound": bound,
        "tie_break": args.tie_break,
        "seed": args.seed,
        "report": report,
    }


def _emit(args, bound: int | None, report_json: dict, text: str) -> int:
    if args.json:
        print(json.dumps(_envelope(args, bound, report_json), indent=2))
    else:
        header = f"[cyhopf {args.verb}]"
        if bound is not None:
            header += f" degree_bound={bound}"
        header += f" tie_break={args.tie_break}"
        print(header)
        print(text)
    return 0


def _check_report_text(report) -> str:
    lines = []
    for entry in report.entries:
        line = f"{entry.check}: {entry.status}"
        if entry.counterexample:
            line += f" (counterexample {entry.counterexample})"
        lines.append(line)
    lines.extend(f"note: {n}" for n in report.notes)
    return "\n".join(lines)


def run(args) -> int:
    if args.verb in ("check-cy", "hdet"):
        datum = parse_datum(load_json_file(args.input))
        from .datum import check_cy, quantum_affine_report
        build = check_cy if args.verb == "check-cy" else quantum_affine_report
        report = build(datum, args.tie_break)
        return _emit(args, None, cy_report_to_json(report), render_cy_report_text(report))

    if args.verb == "roots":
        cartan = parse_cartan_only(load_json_file(args.input))
        from .cartan import beta_sequence, longest_word, positive_roots_closure
        word = longest_word(cartan, tie_break=args.tie_break)
        betas = beta_sequence(cartan, word)
        closure = positive_roots_closure(cartan)
        report = {
            "kind": "roots-report",
            "rank": cartan.rank,
            "positive_root_count": len(betas),
            "closure_count": len(closure),
            "word": [i + 1 for i in word],
            "betas": [list(b.coeffs) for b in betas],
        }
        text = "\n".join(
            [
                f"rank: {cartan.rank}",
                f"positive roots: {len(betas)} (closure agrees: "
                f"{str(set(betas) == closure).lower()})",
                "word: (" + ", ".join(str(i + 1) for i in word) + ")",
                "betas: " + ", ".join(str(b) for b in betas),
            ]
        )
        return _emit(args, None, report, text)

    if args.verb == "lie-check":
        algebra, action = parse_lie(load_json_file(args.input))
        from .lie import check_cy_lie_smash
        report = check_cy_lie_smash(algebra, action)
        return _emit(args, None, cy_report_to_json(report), render_cy_report_text(report))

    # remaining verbs consume a presentation file
    algebra, xi = parse_presentation(load_json_file(args.input), degree_bound=args.degree_bound)
    from .smash import nakayama_automorphism, verify_double_antipode, verify_hopf_axioms
    bound = algebra.degree_bound

    if args.verb == "verify-hopf":
        report = verify_hopf_axioms(algebra)
        return _emit(args, bound, report.to_json(), _check_report_text(report))

    if args.verb == "verify-s2":
        report = verify_double_antipode(algebra)
        return _emit(args, bound, report.to_json(), _check_report_text(report))

    if args.verb == "confluence":
        report = algebra.confluence
        text_lines = [
            f"locally confluent: {str(report.ok).lower()}",
            f"overlaps checked: {report.checked} "
            f"(skipped over bound: {report.skipped_over_bound})",
        ]
        for d in report.divergent:
            text_lines.append(
                f"divergent at {d.to_json()['word']}: {d.first}  vs  {d.second}"
            )
        return _emit(args, bound, report.to_json(), "\n".join(text_lines))

    if args.verb == "nakayama":
        if xi is None:
            xi = algebra.group.trivial_character()
        auto, report = nakayama_automorphism(algebra, xi)
        payload = {
            "kind": "nakayama-report",
            "xi": xi.to_json(),
            "generator_scalars": [c.to_json() for c in auto.scalars],
            "checks": report.to_json(),
        }
        text = "\n".join(
            [
                f"xi: {xi}",
                "psi(x_i) scalars: (" + ", ".join(str(c) for c in auto.scalars) + ")",
                _check_report_text(report),
            ]
        )
        return _emit(args, bound, payload, text)

    raise InternalError(f"unhandled verb {args.verb}")  # unreachable


def main(argv=None) -> int:
    try:
        code = run(build_parser().parse_args(argv))
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # As the Python docs' note on SIGPIPE advises: point stdout at devnull,
        # so the interpreter's final flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before the report was written",
              file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other failure is a bug in the checker, not bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
