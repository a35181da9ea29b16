"""Readers of a ring element's form for the tests: its groups and, where
built, its terms, read without building them (see groupring's module
docstring)."""

from relcert.groupring import RingElement, from_terms
from relcert.normalform import GroupElement


def built_terms(e):
    """A copy of e's terms, or None while a grouped e has not built them:
    the slot is read without __getattr__, which would build them."""
    try:
        return dict(RingElement.terms.__get__(e))
    except AttributeError:
        return None


def entry_state(elements):
    """Copies of each element's groups' cells and, where built, its terms."""
    return [
        (
            {rest: dict(cells) for rest, cells in e.groups[2].items()} if e.groups else None,
            built_terms(e),
        )
        for e in elements
    ]


def one_factor(x):
    """Whether x is grouped with the suffix () alone: an element of its
    factor's subring, held on cells."""
    return x.groups is not None and list(x.groups[2]) == [()]


def assert_canonical(x, params):
    """x holds one canonical form, read without building its terms: grouped
    at factor f under params' orders, each suffix an element that does not
    start in f, with no empty group and no zero cell; or dict form with no
    zero coefficient.  So zero is only ever the dict zero."""
    if x.groups:
        f, orders, groups = x.groups
        assert orders == params.r and groups
        for rest, cells in groups.items():
            assert type(rest) is GroupElement and (not rest or rest[0][0] != f)
            assert cells and all(cells.values())
    else:
        terms = built_terms(x)
        assert terms is not None and all(terms.values())


def rho_of_form(rho, x):
    """rho(x) read off the form x is held in, each cell its syllable put in
    front of its suffix, so that it does not rest on building terms."""
    if not x.groups:
        return rho.ring(x)
    f, orders, groups = x.groups
    stride = 2 * orders[f - 1]
    out = rho.zero
    for rest, cells in groups.items():
        for cell, c in cells.items():
            image = rho.mul(rho.syllable(f, cell % stride, cell // stride), rho.key(rest))
            out = rho.add(out, tuple(c * v % rho.p for v in image))
    return out


def plain_sum(xt, yt, sign=1):
    return from_terms([*xt.items(), *((g, sign * c) for g, c in yt.items())]).terms
