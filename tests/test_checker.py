"""The checker on its own: run end to end on the plain kernel as its twin,
run with every builder-only function refusing, kept out of the builder's
module by its imports, and held to the item list README's "What
`check-cert` proves" documents."""

import ast
import copy
import functools
import importlib.util
import inspect
import pathlib
import random
import re
import subprocess
import sys

import pytest

from relcert import certificate, groupring, relmodule
from relcert.certificate import build_certificate, certificate_to_json
from relcert.checker import check_certificate_json
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


# Every function relcert.certificate defines (a builder or writer added
# there later joins by itself), and the two functions of other modules that
# the builder and writers call and the checker must not.
BUILDER_ONLY = tuple(
    value for value in vars(certificate).values()
    if inspect.isfunction(value) and value.__module__ == "relcert.certificate"
) + (relmodule.reduction_multiplier, groupring.ring_to_text)


def test_builder_only_holds_the_builders_and_writers():
    names = {function.__name__ for function in BUILDER_ONLY}
    assert names >= {
        "build_certificate", "build_chain_export", "crt_coefficients", "_alpha_coords",
        "_basis_ops", "reduction_multiplier", "certificate_to_json", "certificate_bytes",
        "document_text", "chain_export_to_json", "ring_to_text",
    }


@pytest.mark.parametrize("orders", [(7,), (2, 3, 5), (5, 7, 9, 11, 13)])
def test_check_cert_runs_no_builder_code(orders, monkeypatch):
    trees = corpus(orders)  # serialized before the builders refuse
    expected = [outcome(obj) for obj in trees]

    def refuse(*args):
        raise AssertionError("builder code on the check-cert path")

    for function in BUILDER_ONLY:
        rebind(monkeypatch, function, refuse)
    assert [outcome(obj) for obj in trees] == expected


SRC = pathlib.Path(certificate.__file__).resolve().parent


def imported_names(module):
    """(module, name) for every import statement in a relcert module's
    source, function bodies included; name is None for `import module`."""
    stem = "__init__" if module == "relcert" else module.rpartition(".")[2]
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name("." * node.level + (node.module or ""), "relcert")
            for alias in node.names:
                # `from . import x` names a submodule.
                if base == "relcert" and (SRC / f"{alias.name}.py").exists():
                    yield f"relcert.{alias.name}", None
                else:
                    yield base, alias.name


def test_checker_import_closure_holds_no_builder_code():
    # What `import relcert.checker` can run: the package, the checker and
    # every relcert module they import, statically.
    seen, todo, imports = set(), ["relcert", "relcert.checker"], []
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            for target, name in imported_names(module):
                imports.append((module, target, name))
                if target.split(".")[0] == "relcert":
                    todo.append(target)
    assert {"relcert.checker", "relcert.relmodule"} <= seen
    assert [(m, t) for m, t, _ in imports if t == "relcert.certificate"] == []
    builder_imports = [
        (m, f"{t}.{name}") for m, t, name in imports
        if name and t.split(".")[0] == "relcert"
        and any(getattr(importlib.import_module(t), name) is f for f in BUILDER_ONLY)
    ]
    assert builder_imports == []


def test_import_checker_loads_no_builder_module():
    # -S keeps out what site-packages .pth files would load first.
    code = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import relcert.checker; "
        "print('relcert.certificate' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout == "False\n"


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
