"""Command-line front door.

Grammar: cyhopf VERB INPUT [--json] [--tie-break {min,max}] [-h|--help].  The
verb comes first.  The options may stand before or after INPUT, as
`--tie-break max` or `--tie-break=max`, under any unique prefix of their name
(`--t max`); a repeated option keeps its last value, and `--` ends the options.
`-h`/`--help` prints the usage and the verb table to stdout and raises
SystemExit(0).  The line is read left to right, as argparse read it: a bad verb
or option value is refused where it stands, while a missing argument, an
unknown option or an extra positional is refused at the end.  Any other
option, `--degree-bound` and `--seed` included, is unknown.

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

VERBS = {
    "check-cy": "full CY report for a Cartan datum",
    "hdet": "check-cy's report, which for A1 x ... x A1 carries the homological "
            "determinant and the balance criterion; refuses other types",
    "nakayama": "winding-twisted squared antipode of a presentation",
    "roots": "positive roots and longest-word data of a Cartan matrix",
    "verify-hopf": "Hopf axioms, decided on generators and rules (in every degree) when the "
                   "rewriting system is confluent, else undecided; other group tails follow "
                   "by Gamma-equivariance",
    "verify-s2": "graded squared-antipode identity, which holds by construction on every "
                 "presentation the engine accepts: reports it without a check of the input",
    "confluence": "diamond-lemma overlap report for a presentation",
    "lie-check": "CY report for an enveloping-algebra smash product",
}
TIE_BREAKS = ("min", "max")
# long option -> (metavar, help line); an option without a metavar is a flag
OPTIONS = {
    "--json": (None, "emit a single JSON report"),
    "--tie-break": ("{min,max}", "simple-index tie-break for the longest-word descent"),
    "--help": (None, "show this help and exit (also -h)"),
}
USAGE = "usage: cyhopf VERB INPUT [--json] [--tie-break {min,max}] [-h]"


def _help() -> str:
    lines = [USAGE, "", "Exact Calabi-Yau checks for braided Hopf algebras of finite Cartan type "
             "over finite abelian groups and their smash products.", "", "verbs:"]
    lines += [f"  {verb:<13}{text}" for verb, text in VERBS.items()]
    lines += ["", "arguments:", f"  {'INPUT':<24}path to a cy-hopf/1 JSON input file"]
    lines += [f"  {name + (' ' + metavar if metavar else ''):<24}{text}"
              for name, (metavar, text) in OPTIONS.items()]
    return "\n".join(lines)


def _is_option(token: str) -> bool:
    """As in argparse: "-" alone and a negative number such as -5 or -.5 are
    positionals, any other token that begins with "-" is an option."""
    if token[:1] != "-" or token == "-":
        return False
    head, dot, tail = token[1:].partition(".")
    number = tail.isdecimal() and (not head or head.isdecimal()) if dot else head.isdecimal()
    return not number


def _choice(prog: str, argument: str, value: str, choices) -> str:
    if value not in choices:
        raise InputError(f"{prog}: argument {argument}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, choices))})")
    return value


def parse_args(argv: list[str]) -> dict:
    """The command line as a dict of verb, input, json and tie_break; raises
    InputError for a malformed one (see the module docstring)."""
    args = {"json": False, "tie_break": "min"}
    verb, input_path, input_at, extras = None, None, None, []  # extras in command-line order
    prog, known = "cyhopf", ("--help",)  # before the verb only help is known
    tokens = enumerate(argv)
    for i, token in tokens:
        if token == "--" and verb:
            # the rest are positionals; this "--" is one too unless it stands next to INPUT
            rest = [rest for _, rest in tokens]
            if input_path is None:
                input_path = rest.pop(0) if rest else None
            elif i != input_at + 1:
                extras.append(token)
            extras += rest
            break
        if token == "--" or not _is_option(token):
            if verb is None:
                verb, prog, known = _choice(prog, "verb", token, VERBS), f"cyhopf {token}", OPTIONS
            elif input_path is None:
                input_path, input_at = token, i
            else:
                extras.append(token)
            continue
        if token[1] != "-":  # -h only; "-hh" repeats it, "-hx" and "-h=x" give it a value
            if token[1] != "h":
                extras.append(token)
                continue
            name, has_value, value = "--help", token.rstrip("h") != "-", token[2:].lstrip("h")
            value = value.removeprefix("=")
        else:
            prefix, has_value, value = token.partition("=")
            matches = [name for name in known if name.startswith(prefix)]
            if not matches:
                extras.append(token)
                continue
            if len(matches) > 1:  # only "--=..." matches more than one
                raise InputError(f"{prog}: ambiguous option: {token}")
            name = matches[0]
        if OPTIONS[name][0] is None:
            if has_value:
                raise InputError(f"{prog}: argument {name}: ignored explicit argument {value!r}")
            if name == "--help":
                print(_help())
                raise SystemExit(0)
            args["json"] = True
            continue
        if not has_value:
            _, value = next(tokens, (None, None))
            if value is None:
                raise InputError(f"{prog}: argument {name}: expected one argument")
        args["tie_break"] = _choice(prog, name, value, TIE_BREAKS)
    if verb is None:
        raise InputError("cyhopf: the following arguments are required: verb")
    if input_path is None:
        raise InputError(f"{prog}: the following arguments are required: input")
    if extras:
        raise InputError("cyhopf: unrecognized arguments: " + " ".join(extras))
    return dict(args, verb=verb, input=input_path)


def _envelope(args: dict, report: dict) -> dict:
    """The cy-hopf/1 envelope; "degree_bound" and "seed" are always null, kept so
    that the envelope keeps its keys."""
    return {
        "schema": SCHEMA,
        "command": args["verb"],
        "degree_bound": None,
        "tie_break": args["tie_break"],
        "seed": None,
        "report": report,
    }


def _emit(args: dict, report_json: dict, text: str) -> int:
    if args["json"]:
        print(json.dumps(_envelope(args, report_json), indent=2))
    else:
        print(f"[cyhopf {args['verb']}] tie_break={args['tie_break']}")
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


def run(args: dict) -> int:
    if args["verb"] in ("check-cy", "hdet"):
        datum = parse_datum(load_json_file(args["input"]))
        from .datum import check_cy, quantum_affine_report
        build = check_cy if args["verb"] == "check-cy" else quantum_affine_report
        report = build(datum, args["tie_break"])
        return _emit(args, cy_report_to_json(report), render_cy_report_text(report))

    if args["verb"] == "roots":
        cartan = parse_cartan_only(load_json_file(args["input"]))
        from .cartan import beta_sequence, longest_word, positive_roots_closure
        word = longest_word(cartan, tie_break=args["tie_break"])
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
        return _emit(args, report, text)

    if args["verb"] == "lie-check":
        algebra, action = parse_lie(load_json_file(args["input"]))
        from .lie import check_cy_lie_smash
        report = check_cy_lie_smash(algebra, action)
        return _emit(args, cy_report_to_json(report), render_cy_report_text(report))

    # remaining verbs consume a presentation file
    algebra, xi = parse_presentation(load_json_file(args["input"]))
    from .smash import nakayama_automorphism, verify_double_antipode, verify_hopf_axioms

    if args["verb"] == "verify-hopf":
        report = verify_hopf_axioms(algebra)
        return _emit(args, report.to_json(), _check_report_text(report))

    if args["verb"] == "verify-s2":
        report = verify_double_antipode(algebra)
        return _emit(args, report.to_json(), _check_report_text(report))

    if args["verb"] == "confluence":
        report = algebra.confluence
        text_lines = [
            f"locally confluent: {str(report.ok).lower()}",
            f"overlaps checked: {report.checked}",
        ]
        for d in report.divergent:
            text_lines.append(
                f"divergent at {d.to_json()['word']}: {d.first}  vs  {d.second}"
            )
        return _emit(args, report.to_json(), "\n".join(text_lines))

    if args["verb"] == "nakayama":
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
        return _emit(args, payload, text)

    raise InternalError(f"unhandled verb {args['verb']}")  # unreachable


def main(argv=None) -> int:
    """Run one command line, sys.argv[1:] when argv is None; return the exit code."""
    try:
        code = run(parse_args(sys.argv[1:] if argv is None else argv))
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
