"""Command-line front end.

Subcommands: verify (run every check group), certificate (emit the
generation certificate file), check-cert (independently re-validate a
file), complex (export the chain-level data), normalize (print the
normal form of a word).

Exit codes: 0 all checks passed, 1 a mathematical check was falsified or
a certificate rejected, 2 usage or parse error, or output that could not
be written (an --out file, or stdout: `error: cannot write stdout: ...`).

A well-formed argv is parsed by hand (`_parse_plain`); help, usage errors
and every other spelling go to the argparse parser, imported only then.
Both read one table of subcommands and options.
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple

from .errors import ParameterError, ParseError, VerificationError
from .freewords import PresentationParams, parse_word, random_word, verify_free_identities
from .foxcomplex import d1_image, fundamental_identity_holds
from .groupring import check_cyclic_identities
from .normalform import element_to_text, project
from .relmodule import check_module_identities, check_reduction
from .certificate import (
    NOT_INVERSE,
    NOT_REDUCED,
    build_certificate,
    build_chain_export,
    certificate_to_json,
    chain_export_to_json,
    check_certificate,
    check_certificate_json,
    document_text,
    euler_characteristic,
    require_accepted,
)

DEFAULT_R = (2, 3, 5)
DEFAULT_SEED = 0
FOX_SAMPLE = 200

PASS, FAIL, SKIP = "pass", "fail", "skip"


CheckGroup = namedtuple("CheckGroup", "name status details", defaults=((),))


def _group(name: str, ok: bool, failures: tuple[str, ...] = ()) -> CheckGroup:
    return CheckGroup(name, PASS if ok else FAIL, failures)


def run_verification(
    params: PresentationParams, seed: int = DEFAULT_SEED, sample: int = FOX_SAMPLE
) -> list[CheckGroup]:
    """Run the full check battery; pure (no I/O)."""
    import random  # only here, so that the other commands never load it

    n = params.n
    groups: list[CheckGroup] = []

    # The certificate check builds the one d2 that the relator-class groups
    # and the chain condition read, so it runs first; its group keeps its place.
    report = check_certificate(build_certificate(params))

    ok = all(verify_free_identities(i, params) for i in range(1, n + 1))
    groups.append(_group("free-relator conjugation identities", ok))

    # Each check returns its verdicts by name; the reduction group names the
    # failing ones.
    for name, check, named in (
        ("cyclic norm/ramp ring identities",
         lambda i: check_cyclic_identities(i, params), False),
        ("relation-module action identities",
         lambda i: check_module_identities(i, report.d2, params), False),
        ("square reduction identity (with four expansion terms)",
         lambda i: check_reduction(i, report.d2, params), True),
    ):
        bad = []
        for i in range(1, n + 1):
            failing = [key for key, ok in check(i).items() if not ok]
            if failing:
                bad.append(f"factor {i}: {', '.join(failing)}" if named else f"factor {i}")
        groups.append(_group(name, not bad, tuple(bad)))

    ok = all(d1_image(row, params).is_zero for row in report.d2)
    groups.append(_group("chain condition d1 after d2 = 0", ok))

    rng = random.Random(seed)
    ok = all(fundamental_identity_holds(random_word(rng, n), params) for _ in range(sample))
    groups.append(_group(f"fundamental derivative identity ({sample} sampled words)", ok))

    name = "generation certificate build and recheck"
    groups.append(_group(name, report.accepted, report.failures))

    if n < 2:
        for name in ("kernel membership of 3-cell attachments",
                     "basis-change invertibility", "splitting onto the 3-cell summand"):
            groups.append(CheckGroup(name, SKIP, ("needs n >= 2",)))
    else:
        # The last three groups read the one certificate check, which never
        # forms Q.  Once "basis reduction" passes, P Q = I follows by algebra
        # (the ops are invertible); "basis inverse" rechecks it in a second
        # association order.  Row i of P is alpha_i, so Q applied to alpha_i
        # is row i of P Q, the i-th unit vector: the splitting.
        passed = {item.name: item.passed for item in report.items}
        kernel = all(passed[f"alpha_{i} kernel"] for i in range(1, n))
        groups.append(_group("kernel membership of 3-cell attachments", kernel))
        if passed["basis reduction"] and passed["basis inverse"]:
            groups.append(_group("basis-change invertibility", True))
            groups.append(_group("splitting onto the 3-cell summand", kernel))
        else:
            fault = NOT_INVERSE if passed["basis reduction"] else NOT_REDUCED
            groups.append(_group("basis-change invertibility", False, (fault,)))
            groups.append(CheckGroup("splitting onto the 3-cell summand", SKIP, ("no basis change",)))

    ok = euler_characteristic(n) == 2 - n
    groups.append(_group("Euler characteristic equals 2 - n", ok))
    return groups


def _print_verification(params, seed, groups, fmt: str) -> bool:
    passed = all(g.status != FAIL for g in groups)
    if fmt == "json":
        obj = {
            "r": list(params.r),
            "seed": seed,
            "groups": [
                {"name": g.name, "status": g.status, "details": list(g.details)}
                for g in groups
            ],
            "passed": passed,
        }
        print(json.dumps(obj, indent=2))
        return passed
    print(f"checking r = ({', '.join(str(v) for v in params.r)})")
    width = len(str(len(groups)))
    for pos, g in enumerate(groups, start=1):
        tag = {PASS: "PASS", FAIL: "FAIL", SKIP: "SKIP"}[g.status]
        print(f"  [{pos:>{width}}/{len(groups)}] {tag}  {g.name}")
        for detail in g.details:
            print(f"        - {detail}")
    counts = {
        "passed": sum(g.status == PASS for g in groups),
        "failed": sum(g.status == FAIL for g in groups),
        "skipped": sum(g.status == SKIP for g in groups),
    }
    verdict = "PASS" if passed else "FAIL"
    print(
        f"result: {verdict} ({len(groups)} groups: {counts['passed']} passed, "
        f"{counts['failed']} failed, {counts['skipped']} skipped)"
    )
    return passed


def cmd_verify(params: PresentationParams, seed: int, fmt: str) -> int:
    groups = run_verification(params, seed)
    passed = _print_verification(params, seed, groups, fmt)
    return 0 if passed else 1


def _write_output(tree: dict, out: str | None) -> int:
    """Exit code of writing tree as JSON text to out (stdout for None or '-')."""
    text = document_text(tree)
    if out is None or out == "-":
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_certificate(params: PresentationParams, out: str | None) -> int:
    cert = build_certificate(params)
    require_accepted(check_certificate(cert))
    tree = certificate_to_json(cert)
    del cert  # only the tree and its one text are alive while writing
    return _write_output(tree, out)


def _json_int(literal: str) -> int:
    """int(literal), refusing one past CPython's digit limit without int()'s
    advice to raise the limit, which a command-line user cannot act on."""
    limit = sys.get_int_max_str_digits()
    if limit and len(literal.lstrip("-")) > limit:
        raise ValueError(f"integer literal exceeds {limit} digits")
    return int(literal)


def cmd_check_cert(path: str) -> int:
    try:
        with open(path, "rb") as handle:
            obj = json.loads(handle.read().decode("utf-8"), parse_int=_json_int)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # also _json_int's refusal
        print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"error: {path} is not valid JSON: nested too deeply", file=sys.stderr)
        return 2
    report = check_certificate_json(obj)
    for item in report.items:
        tag = "PASS" if item.passed else "FAIL"
        print(f"  {tag}  {item.name}")
        if item.detail:
            print(f"        - {item.detail}")
    if report.accepted:
        print(f"certificate accepted ({len(report.items)} checks)")
        return 0
    print(f"certificate rejected: {', '.join(report.failures)}")
    return 1


def cmd_complex(params: PresentationParams, out: str | None) -> int:
    return _write_output(chain_export_to_json(build_chain_export(params)), out)


def cmd_normalize(word_text: str, params: PresentationParams) -> int:
    word = parse_word(word_text, params.n)
    print(element_to_text(project(word, params)))
    return 0


def _parse_r(text: str) -> PresentationParams:
    try:
        values = tuple(int(chunk) for chunk in text.split(","))
    except ValueError:
        raise ParameterError(f"--r expects a comma-separated integer list, got {text!r}")
    return PresentationParams(values)


# argparse keywords per option; per subcommand its help line, its one
# positional (or None) and its options in --help order.  Both parsers read these.
_OPTIONS = {
    "--r": {"default": ",".join(str(v) for v in DEFAULT_R),
            "help": "comma-separated torsion orders, pairwise coprime, each >= 2"},
    "--out": {"default": None, "help": "output path ('-' for stdout)"},
    "--format": {"choices": ("text", "json"), "default": "text"},
    "--seed": {"type": int, "default": DEFAULT_SEED},
}
_COMMANDS = {
    "verify": ("run every check group", None, ("--r", "--format", "--seed")),
    "certificate": ("emit the generation certificate", None, ("--r", "--out")),
    "check-cert": ("re-validate a certificate file", "path", ()),
    "complex": ("export chain-level data", None, ("--r", "--out")),
    "normalize": ("print the normal form of a word", "word", ("--r",)),
}


def _build_parser():
    import argparse  # only here: building the parser costs about 3 ms a command

    class Parser(argparse.ArgumentParser):
        def print_help(self, file=None):  # argparse's own drops an OSError
            (file or sys.stdout).write(self.format_help())
            (file or sys.stdout).flush()  # before argparse exits: main reports it

    parser = Parser(
        prog="relcert",
        description=(
            "Exact group-ring workbench for free products of C_r x Z: "
            "verifies the relation-module identities and emits/checks "
            "generation certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, positional, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        if positional:
            command.add_argument(positional)
        for option in options:
            command.add_argument(option, **_OPTIONS[option])
    return parser


def _parse_plain(argv: list[str]) -> dict | None:
    """What argparse would parse from a well-formed argv, else None: a
    subcommand, then its positional and each of its options at most once as
    `--name value`, none starting with '-', and each value of its choices and
    type.  Help, errors and other spellings are argparse's to parse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, positional, options = _COMMANDS[argv[0]]
    args = {"command": argv[0]}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if positional is None or positional in args:
                return None
            args[positional] = token
            continue
        value = next(tokens, "-")  # a missing value fails as "-" does
        if token not in options or token[2:] in args or value.startswith("-"):
            return None
        spec = _OPTIONS[token]
        if value not in spec.get("choices", (value,)):
            return None
        try:
            args[token[2:]] = spec.get("type", str)(value)
        except ValueError:
            return None
    if positional and positional not in args:
        return None
    for option in options:
        args.setdefault(option[2:], _OPTIONS[option]["default"])
    return args


def _run(args: dict) -> int:
    if args["command"] == "check-cert":
        return cmd_check_cert(args["path"])
    params = _parse_r(args["r"])
    if args["command"] == "verify":
        return cmd_verify(params, args["seed"], args["format"])
    if args["command"] == "certificate":
        return cmd_certificate(params, args["out"])
    if args["command"] == "complex":
        return cmd_complex(params, args["out"])
    return cmd_normalize(args["word"], params)


def _drop_stdout() -> None:
    """Point a stdout that failed at the null device, so that the flush at
    exit finds nothing left to fail on (as the signal module's SIGPIPE note
    advises).  A stdout with no file descriptor is left as it is."""
    import os

    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):
        pass
    finally:
        os.close(null)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_plain(argv) or vars(_build_parser().parse_args(argv))
        code = _run(args)
        sys.stdout.flush()  # a buffered stdout fails here, not at exit
        return code
    except (ParameterError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"internal verification fault: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the commands report their own files, so this is stdout
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        _drop_stdout()
        return 2


if __name__ == "__main__":
    sys.exit(main())
