"""The checker on its own: run end to end on the plain kernel as its twin,
run with every builder-only function refusing, and held to the item list
README's "What `check-cert` proves" documents."""

import copy
import functools
import pathlib
import random
import re

import pytest

from relcert import certificate, groupring, relmodule
from relcert.certificate import build_certificate, certificate_to_json, check_certificate_json
from relcert.errors import ParameterError, ParseError
from relcert.freewords import PresentationParams
from relcert.groupring import RingElement
from rebind import rebind
from test_certificate import STRUCTURAL_MUTANTS
from test_groupring import reference_mul, reference_parse_ring


def plain_kernel(monkeypatch):
    """Every ring product through reference_mul and every ring text through
    reference_parse_ring, wherever a relcert module binds ring_mul or
    parse_ring.  Left on the fast side: ring_sum, equality (both read
    groups through groups_at), starred_fox_row (d2's rows are built on
    cells) and d1_image (verify's chain condition; check-cert never
    calls it)."""
    rebind(monkeypatch, groupring.ring_mul,
           lambda x, y, params: RingElement(reference_mul(x.terms, y.terms, params)))
    rebind(monkeypatch, groupring.parse_ring,
           lambda text, params, words=None: reference_parse_ring(text, params))


@functools.cache
def corpus(orders):
    """JSON trees, never to be edited: the certificate for orders built on
    the plain kernel, so that a kernel fault cannot shape both it and the
    fast verdict; seeded single-term mutants of lambda, mu, alpha and the
    basis_ops coefficients; and, for n >= 2, the structural mutants."""
    params = PresentationParams(orders)
    with pytest.MonkeyPatch.context() as patched:
        plain_kernel(patched)
        genuine = certificate_to_json(build_certificate(params))
    rng = random.Random(0)

    def bumped(text):
        f, g = rng.randint(1, params.n), rng.randint(1, params.n)
        term = f"{rng.randint(1, 3)}*a{f}^{rng.randint(1, 9)} b{g}^{rng.randint(-2, 2)}"
        return term if text == "0" else f"{text} {rng.choice('+-')} {term}"

    trees = [genuine]
    for field in ("lambda", "mu", "alpha", "basis_ops"):
        for _ in range(4 if genuine[field] else 0):
            obj = copy.deepcopy(genuine)
            if field == "basis_ops":
                op = rng.choice(obj[field])
                op["coeff"] = bumped(op["coeff"])
            else:
                row = rng.choice(obj[field])
                j = rng.randrange(len(row))
                row[j] = bumped(row[j])
            trees.append(obj)
    for edit, _ in STRUCTURAL_MUTANTS.values() if params.n >= 2 else ():
        obj = copy.deepcopy(genuine)
        edit(obj)
        trees.append(obj)
    return trees


def outcome(obj):
    """check_certificate_json's items, or the error it raises."""
    try:
        return check_certificate_json(obj).items
    except (ParseError, ParameterError) as exc:
        return f"{type(exc).__name__}: {exc}"


def accepted(result):
    return not isinstance(result, str) and all(item.passed for item in result)


@pytest.mark.parametrize("orders", [(2, 3, 5), (5, 7, 9, 11, 13)])
def test_checker_twin_on_the_plain_kernel(orders, monkeypatch):
    # The same items, verdicts and details on both kernels, so a fast path
    # entered wrongly (groups taken under the wrong orders, a range check
    # skipped) shows even where its products alone look right.
    trees = corpus(orders)
    fast = [outcome(obj) for obj in trees]
    assert [accepted(result) for result in fast] == [True] + [False] * (len(trees) - 1)
    plain_kernel(monkeypatch)
    assert [outcome(obj) for obj in trees] == fast


BUILDER_ONLY = (
    certificate.build_certificate,
    certificate.build_chain_export,
    certificate.crt_coefficients,
    certificate._alpha_coords,
    certificate._basis_ops,
    relmodule.reduction_multiplier,
    certificate.certificate_to_json,
    certificate.certificate_bytes,
    certificate.document_text,
    certificate.chain_export_to_json,
    groupring.ring_to_text,
)


@pytest.mark.parametrize("orders", [(7,), (2, 3, 5), (5, 7, 9, 11, 13)])
def test_check_cert_runs_no_builder_code(orders, monkeypatch):
    trees = corpus(orders)  # serialized before the builders refuse
    expected = [outcome(obj) for obj in trees]

    def refuse(*args):
        raise AssertionError("builder code on the check-cert path")

    for function in BUILDER_ONLY:
        rebind(monkeypatch, function, refuse)
    assert [outcome(obj) for obj in trees] == expected


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
# The scope column of README's item table: the indices i an item runs over.
SCOPES = {
    "": lambda n: [None],
    "i = 1..n": lambda n: range(1, n + 1),
    "i = 1..n-1": lambda n: range(1, n),
    "n >= 2": lambda n: [None] * (n >= 2),
}


def documented_items(n):
    """README's check-cert items at n factors, in table order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## What `check-cert` proves\n", 1)[1].split("\n## ", 1)[0]
    names = []
    for name, scope in re.findall(r"^\| `([^`]+)` \| ([^|]*)\|", section, re.M):
        names += [name if i is None else name.replace("_i", f"_{i}")
                  for i in SCOPES[scope.strip()](n)]
    return names


@pytest.mark.parametrize("orders", [(7,), (2, 3), (2, 3, 5)])
def test_readme_lists_the_check_cert_items(orders):
    obj = certificate_to_json(build_certificate(PresentationParams(orders)))
    names = [item.name for item in check_certificate_json(obj).items]
    assert documented_items(len(orders)) == names
