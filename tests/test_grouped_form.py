"""Grouped products, sums and equality (groupring's grouped form) against
the plain convolution and rho (representation.py), with the canonical-form
invariant checked on every result."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from relcert.freewords import PresentationParams, random_word
from relcert.foxcomplex import starred_fox_row
from relcert.groupring import (
    RingElement,
    free_term,
    norm_element,
    one,
    parse_ring,
    ring_mul,
    ring_sum,
    torsion_term,
    zero,
)
from relcert.normalform import free_power, gmul, torsion_power

from forms import assert_canonical, entry_state, one_factor, plain_sum, rho_of_form
from representation import rho_for
from test_groupring import (
    assert_syllable_keys,
    factor_elements,
    random_ring,
    reference_mul,
    split_operands,
)


def local_part(y, factor):
    """The terms of y that are the identity or one syllable of factor:
    the group of y with suffix () when y is split at its first syllable."""
    terms = y.terms.items()
    return RingElement({g: c for g, c in terms if not g or len(g) == 1 and g[0][0] == factor})


@settings(max_examples=80, deadline=None)
@given(split_operands(), st.data())
def test_grouped_products_sums_and_equality(operands, data):
    params, x, y = operands
    f = next(g for g in x.terms if g)[0][0] if any(x.terms) else 1
    r = params.r[f - 1]
    x2 = data.draw(factor_elements(params, f, r, max_terms=8, spread=2))
    rho = rho_for(params)
    p, q = ring_mul(x, y, params), ring_mul(x2, y, params)
    for z, left in ((p, x), (q, x2)):
        assert_canonical(z, params)
        assert rho_of_form(rho, z) == rho.mul(rho.ring(left), rho.ring(y))
        assert z.terms == reference_mul(left.terms, y.terms, params)
        assert_syllable_keys(z.terms)
    pt, qt = p.terms, q.terms
    snapshot = entry_state([p, q])
    for name, z, expected in (
        ("sum", p + q, plain_sum(pt, qt)),
        ("difference", p - q, plain_sum(pt, qt, -1)),
        ("reverse", q - p, plain_sum(qt, pt, -1)),
        ("self", p - p, {}),
    ):
        assert_canonical(z, params)
        assert rho_of_form(rho, z) == rho.ring(RingElement(expected)), name
        assert z.terms == expected and z.is_zero == (not expected), name
    assert entry_state([p, q]) == snapshot  # sums leave their operands alone
    # Cancellation: a grouped product less itself is the dict zero, and
    # what is left of the suffix () alone is on cells.
    zero = p - ring_mul(x, y, params)
    assert_canonical(zero, params)
    assert zero.is_zero and zero.groups is None
    rest = ring_mul(x, RingElement(plain_sum(y.terms, local_part(y, f).terms, -1)), params)
    kept = p - rest
    assert_canonical(kept, params)
    if p.groups:
        assert one_factor(kept) or kept.is_zero and kept.groups is None
    assert kept == ring_mul(x, local_part(y, f), params)
    assert kept.terms == reference_mul(x.terms, local_part(y, f).terms, params)
    # Equality as the groups stand, against dict copies, in both orders.
    for a, b in ((p, q), (p, p + q - q), (p, rest), (kept, rest), (p, zero)):
        expected = a.terms == b.terms
        for u, v in ((a, b), (RingElement(dict(a.terms)), b), (a, RingElement(dict(b.terms)))):
            assert (u == v) == expected == (v == u)
    # In place, x is spent and y is left alone, also where y has suffixes
    # that x lacks.
    snapshot = entry_state([q])
    for acc, expected in (
        (ring_mul(x, y, params), plain_sum(pt, qt)),
        (ring_mul(x, local_part(y, f), params), plain_sum(kept.terms, qt)),
    ):
        total = ring_sum(acc, q, in_place=True)
        assert_canonical(total, params)
        assert total.terms == expected and entry_state([q]) == snapshot


def test_grouped_sums_with_other_forms():
    # A grouped Fox column meets an element on cells of its own factor
    # (merged at the suffix ()), an element that leaves only its suffix ()
    # (on cells), one on cells of another factor and a dict-form element
    # (on terms), and a grouped element under other orders (on terms).
    rng = random.Random(67)
    params = PresentationParams((3, 5, 7))
    other = PresentationParams((3, 5, 11))
    rho = rho_for(params)
    forms = set()
    for _ in range(300):
        w = random_word(rng, params.n)
        col = next((c for c in starred_fox_row(w, params) if c.groups and not one_factor(c)), None)
        if col is None:
            continue
        f = col.groups[0]
        g = rng.choice([h for h in (1, 2, 3) if h != f])
        mates = (
            3 * torsion_term(f, 1, params) - free_term(f, -2, params),
            local_part(col, f) - col,
            ring_mul(norm_element(f, params), col, params),
            torsion_term(g, 2, params) + free_term(g, 1, params),
            random_ring(rng, params),
            next((c for c in starred_fox_row(w, other) if c.groups and not one_factor(c)), col),
            RingElement({}),
        )
        for mate in mates:
            for sign in (1, -1):
                for a, b in ((col, mate), (mate, col)):
                    z = ring_sum(a, b, sign)
                    assert_canonical(z, params)
                    expected = plain_sum(a.terms, b.terms, sign)
                    assert z.terms == expected
                    assert rho_of_form(rho, z) == rho.ring(RingElement(expected))
                    forms.add("cell" if one_factor(z) else "grouped" if z.groups else "dict")
        assert col == RingElement(dict(col.terms)) and col != col + one()
    assert forms == {"grouped", "cell", "dict"}


def test_group_that_vanishes_is_dropped():
    # At r = (5, 3): y = a2 b2 + N_1 a2, split at its first syllable, has
    # the groups {a2 b2: 1} and {a2: N_1}; (1 - a1) y keeps only the first,
    # as a grouped element, and (1 - a1) N_1 a2 is the dict zero.
    p = PresentationParams((5, 3))
    s = gmul(torsion_power(2, 1, p), free_power(2, 1, p), p)
    t = torsion_power(2, 1, p)
    norm_t = ring_mul(norm_element(1, p), RingElement({t: 1}), p)
    shear = one() - torsion_term(1, 1, p)
    product = ring_mul(shear, RingElement({s: 1}) + norm_t, p)
    assert_canonical(product, p)
    assert list(product.groups[2]) == [s]
    vanished = ring_mul(shear, norm_t, p)
    assert_canonical(vanished, p)
    assert vanished.is_zero and vanished.groups is None
    # What is left at the suffix () is on cells, and nothing left is the dict zero.
    both = ring_mul(shear, RingElement({s: 1}) + torsion_term(1, 2, p), p)
    kept = both - product
    assert one_factor(kept) and kept == ring_mul(shear, torsion_term(1, 2, p), p)
    assert_canonical(product - product, p)
    assert (product - product).is_zero and (product - product).groups is None


def test_every_zero_is_the_dict_zero():
    # Multiples by 0 and sums that cancel, of elements on cells, of grouped
    # elements and of dict-form ones, are the dict zero: no empty cells and
    # no empty groups.
    p = PresentationParams((5, 3))
    elements = (
        torsion_term(1, 1, p),
        norm_element(2, p) - free_term(2, -4, p),
        parse_ring("a1 a2 + 2*b1 a2^2 - e", p),
        ring_mul(one() - torsion_term(1, 1, p), parse_ring("a2 b1 - 3*b2", p), p),
        parse_ring("3*e", p),
        RingElement({gmul(torsion_power(1, 2, p), free_power(2, 1, p), p): 4}),
    )
    for x in elements:
        assert_canonical(x, p)
        copy = RingElement(dict(x.terms))
        for z in (
            0 * x,
            x - x,
            x + -1 * x,
            -x + x,
            x - copy,
            copy - x,
            ring_sum(1 * x, x, -1, in_place=True),
            ring_mul(x, zero(), p),
            ring_mul(0 * x, x, p),
        ):
            assert_canonical(z, p)
            assert z.is_zero and z.groups is None and z == zero()
