"""Command-line front end.

Subcommands: verify (run every check group), certificate (emit the
generation certificate file), check-cert (independently re-validate a
file), complex (export the chain-level data), normalize (print the
normal form of a word).

Exit codes: 0 all checks passed, 1 a mathematical check was falsified or
a certificate rejected, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple

from .errors import ParameterError, ParseError, VerificationError
from .freewords import PresentationParams, parse_word, random_word, verify_free_identities
from .foxcomplex import apply, d1_matrix, d2_matrix, fundamental_identity_holds
from .groupring import check_cyclic_identities
from .normalform import element_to_text, project
from .relmodule import check_module_identities, check_reduction
from .certificate import (
    NOT_INVERSE,
    NOT_REDUCED,
    build_certificate,
    build_chain_export,
    certificate_bytes,
    chain_export_to_json,
    check_certificate,
    check_certificate_json,
    check_relations,
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

    ok = all(verify_free_identities(i, params) for i in range(1, n + 1))
    groups.append(_group("free-relator conjugation identities", ok))

    # Each check returns its verdicts by name; the reduction group names the
    # failing ones.
    for name, check, named in (
        ("cyclic norm/ramp ring identities", check_cyclic_identities, False),
        ("relation-module action identities", check_module_identities, False),
        ("square reduction identity (with four expansion terms)", check_reduction, True),
    ):
        bad = []
        for i in range(1, n + 1):
            failing = [key for key, ok in check(i, params).items() if not ok]
            if failing:
                bad.append(f"factor {i}: {', '.join(failing)}" if named else f"factor {i}")
        groups.append(_group(name, not bad, tuple(bad)))

    # The certificate check builds d2 for its kernel items; the chain
    # condition reads that matrix, so the check runs first.
    name = "generation certificate build and recheck"
    try:
        report = check_certificate(build_certificate(params))
        certificate_group = _group(name, report.accepted, report.failures)
    except VerificationError as exc:
        report, certificate_group = None, _group(name, False, (str(exc),))
    d2 = report.d2 if report is not None and report.d2 is not None else d2_matrix(params)

    d1 = d1_matrix(params)
    ok = all(apply(d1, row, params).is_zero for row in d2.rows)
    groups.append(_group("chain condition d1 after d2 = 0", ok))

    rng = random.Random(seed)
    ok = all(
        fundamental_identity_holds(random_word(rng, n), d1, params) for _ in range(sample)
    )
    groups.append(_group(f"fundamental derivative identity ({sample} sampled words)", ok))

    groups.append(certificate_group)

    if n < 2 or report is None:
        reason = ("needs n >= 2",) if n < 2 else ("no certificate",)
        groups.append(CheckGroup("kernel membership of 3-cell attachments", SKIP, reason))
        groups.append(CheckGroup("basis-change invertibility", SKIP, reason))
        groups.append(CheckGroup("splitting onto the 3-cell summand", SKIP, reason))
    else:
        # The last three groups read the one certificate check.  Once
        # "basis reduction" passes, P Q = I follows by algebra (the ops are
        # invertible); "basis inverse" rechecks it in a second association
        # order.  Row i of the basis matrix P is alpha_i, so Q applied to
        # alpha_i is row i of P Q, the i-th unit vector: the splitting.
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


def _print_verification(params, seed, groups, fmt: str, stream) -> bool:
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
        print(json.dumps(obj, indent=2), file=stream)
        return passed
    print(f"checking r = ({', '.join(str(v) for v in params.r)})", file=stream)
    width = len(str(len(groups)))
    for pos, g in enumerate(groups, start=1):
        tag = {PASS: "PASS", FAIL: "FAIL", SKIP: "SKIP"}[g.status]
        print(f"  [{pos:>{width}}/{len(groups)}] {tag}  {g.name}", file=stream)
        for detail in g.details:
            print(f"        - {detail}", file=stream)
    counts = {
        "passed": sum(g.status == PASS for g in groups),
        "failed": sum(g.status == FAIL for g in groups),
        "skipped": sum(g.status == SKIP for g in groups),
    }
    verdict = "PASS" if passed else "FAIL"
    print(
        f"result: {verdict} ({len(groups)} groups: {counts['passed']} passed, "
        f"{counts['failed']} failed, {counts['skipped']} skipped)",
        file=stream,
    )
    return passed


def cmd_verify(params: PresentationParams, seed: int, fmt: str) -> int:
    groups = run_verification(params, seed)
    passed = _print_verification(params, seed, groups, fmt, sys.stdout)
    return 0 if passed else 1


def _write_output(data: bytes, out: str | None) -> int:
    """Exit code of writing data to out (stdout for None or '-')."""
    if out is None or out == "-":
        sys.stdout.write(data.decode("utf-8"))
        return 0
    try:
        with open(out, "wb") as handle:
            handle.write(data)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_certificate(params: PresentationParams, out: str | None) -> int:
    # All but the basis trace, so this command does not pay for its replay.
    cert = build_certificate(params)
    require_accepted(check_relations(cert))
    return _write_output(certificate_bytes(cert), out)


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
    export = build_chain_export(params)
    text = json.dumps(chain_export_to_json(export), indent=2, sort_keys=True) + "\n"
    return _write_output(text.encode("utf-8"), out)


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relcert",
        description=(
            "Exact group-ring workbench for free products of C_r x Z: "
            "verifies the relation-module identities and emits/checks "
            "generation certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_out=False, with_format=False, with_seed=False):
        p.add_argument(
            "--r",
            default=",".join(str(v) for v in DEFAULT_R),
            help="comma-separated torsion orders, pairwise coprime, each >= 2",
        )
        if with_out:
            p.add_argument("--out", default=None, help="output path ('-' for stdout)")
        if with_format:
            p.add_argument("--format", choices=("text", "json"), default="text")
        if with_seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    add_common(sub.add_parser("verify", help="run every check group"),
               with_format=True, with_seed=True)
    add_common(sub.add_parser("certificate", help="emit the generation certificate"),
               with_out=True)
    check = sub.add_parser("check-cert", help="re-validate a certificate file")
    check.add_argument("path")
    add_common(sub.add_parser("complex", help="export chain-level data"), with_out=True)
    norm = sub.add_parser("normalize", help="print the normal form of a word")
    norm.add_argument("word")
    add_common(norm)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check-cert":
            return cmd_check_cert(args.path)
        params = _parse_r(args.r)
        if args.command == "verify":
            return cmd_verify(params, args.seed, args.format)
        if args.command == "certificate":
            return cmd_certificate(params, args.out)
        if args.command == "complex":
            return cmd_complex(params, args.out)
        if args.command == "normalize":
            return cmd_normalize(args.word, params)
        parser.error(f"unknown command {args.command!r}")
    except (ParameterError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"internal verification fault: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
