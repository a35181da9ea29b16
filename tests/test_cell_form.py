"""An element of one factor's subring on cells: grouped with the suffix ()
alone (see groupring's module docstring), held to the same element
rebuilt as a plain dict, and both to rho (representation.py)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcert.errors import ParameterError
from relcert.foxcomplex import RingMatrix, RingVector, apply, d2_matrix
from relcert.freewords import PresentationParams
from relcert.groupring import (
    RingElement,
    free_term,
    from_groups,
    groups_at,
    norm_element,
    one,
    parse_ring,
    ramp_element,
    ring_mul,
    ring_to_text,
    torsion_term,
    zero,
)
from relcert.relmodule import lifted_generator

from forms import assert_canonical, built_terms, entry_state, one_factor, plain_sum
from rebind import rebind
from representation import rho_for
from test_groupring import (
    assert_syllable_keys,
    coefficients,
    factor_elements,
    factor_params,
    random_ring,
    reference_mul,
    reference_parse_ring,
)

P235 = PresentationParams((2, 3, 5))


def cell_form(x, factor, params):
    """x, an element of factor's subring, read by groups_at into grouped
    form with the suffix () alone, or the dict zero."""
    z = from_groups(factor, params.r, groups_at(x, factor, params.r))
    assert one_factor(z) != z.is_zero
    return z


@settings(max_examples=100, deadline=None)
@given(st.data(), st.one_of(st.integers(2, 64), st.integers(65, 1009)), st.booleans())
def test_cell_form_matches_dict_form(data, r, second):
    params, factor = factor_params(r, second)
    xd = data.draw(factor_elements(params, factor, r))
    pick = data.draw(st.sampled_from(["other", "same", "negated", "scalar"]))
    if pick == "other":
        yd = data.draw(factor_elements(params, factor, r))
    elif pick == "scalar":
        yd = data.draw(coefficients.filter(bool)) * one()
    else:
        yd = xd if pick == "same" else -1 * xd
    k = data.draw(coefficients)
    xc, yc = cell_form(xd, factor, params), cell_form(yd, factor, params)
    xt, yt = xd.terms, yd.terms
    expected = {
        "product": reference_mul(xt, yt, params),
        "sum": plain_sum(xt, yt),
        "difference": plain_sum(xt, yt, -1),
        "negation": {g: -c for g, c in xt.items()},
        "scaling": {g: k * c for g, c in xt.items()} if k else {},
    }
    got = {
        "product": ring_mul(xc, yc, params),
        "sum": xc + yc,
        "difference": xc - yc,
        "negation": -xc,
        "scaling": k * xc,
    }
    for name, z in got.items():
        # Each result is on cells, or the dict zero.
        assert_canonical(z, params)
        assert one_factor(z) != z.is_zero, name
        text = ring_to_text(z)  # read off the cells: no terms are built yet
        assert z.is_zero == (not expected[name]), name
        assert z.terms == expected[name], name
        assert_syllable_keys(z.terms)
        assert text == ring_to_text(RingElement(expected[name])), name
    # A dict-form operand reads as cells of the other operand's factor.
    for a, b in ((xc, yd), (xd, yc)):
        for name, z in (("sum", a + b), ("difference", a - b)):
            assert_canonical(z, params)
            assert one_factor(z) or z.is_zero or not (a.groups or b.groups), name
            assert z.terms == expected[name], name
    for a, b in ((xc, yc), (xc, yd), (xd, yc), (xd, yd)):
        assert (a == b) == (xt == yt) == (b == a)
    assert xc == xd and xd == xc
    rho = rho_for(params)
    rx, ry = rho.ring(xd), rho.ring(yd)
    assert rho.ring(got["product"]) == rho.mul(rx, ry)
    assert rho.ring(got["sum"]) == rho.add(rx, ry)
    assert rho.add(rho.ring(got["difference"]), ry) == rx
    assert rho.add(rho.ring(got["negation"]), rx) == rho.zero
    assert rho.ring(got["scaling"]) == tuple(k * v % rho.p for v in rx)


def test_parse_ring_reads_one_factor_text_into_cells_alone():
    # A one-factor text is held on cells with no terms until they are read;
    # they then hold the value the reference reader gives.  A text with a
    # key of two factors is grouped with other suffixes, and one of the
    # identity alone, or zero, stays in dict form.
    params = PresentationParams((7, 5))
    for text, factor in (
        ("a1^3 b1^-2 - 4*e + 2*b1^7", 1),
        ("5*a2 - a2^4 b2 + 3*b2^-1 a2^2", 2),
        ("  a1 + a1^6 - b1^-1", 1),
        ("a1^7 b1", 1),
    ):
        x = parse_ring(text, params)
        assert one_factor(x) and x.groups[:2] == (factor, params.r)
        assert built_terms(x) is None
        text_before = ring_to_text(x)  # read off the cells
        expected = reference_parse_ring(text, params).terms
        assert x.terms == expected and built_terms(x) == expected
        assert text_before == ring_to_text(RingElement(dict(expected)))
    x = parse_ring("a1 b2 + e", params)
    assert x.groups[:2] == (1, params.r) and not one_factor(x)
    assert x.terms == reference_parse_ring("a1 b2 + e", params).terms
    for text in ("3*e", "a1 - a1"):
        x = parse_ring(text, params)
        assert x.groups is None and built_terms(x) == reference_parse_ring(text, params).terms


def test_builders_give_cell_form():
    params = PresentationParams((7, 5))
    for x in (
        torsion_term(2, 3, params),
        5 * free_term(1, -2, params),
        norm_element(1, params),
        ramp_element(2, params),
        one() - torsion_term(1, 1, params),
        ring_mul(norm_element(1, params), ramp_element(1, params), params),
    ):
        assert one_factor(x) and x.groups[1] == params.r
        assert_syllable_keys(x.terms)
    assert (0 * torsion_term(1, 1, params)).is_zero


def test_cell_form_keeps_range_checks():
    # N_1 built at r = 7 is on cells under the orders (7,).  At r = 5 its
    # cells are not used: its keys a1^5 and a1^6 are range-checked and
    # rejected in either operand order.
    foreign = norm_element(1, PresentationParams((7,)))
    assert one_factor(foreign) and foreign.groups[:2] == (1, (7,))
    p5 = PresentationParams((5,))
    for other in (norm_element(1, p5), torsion_term(1, 1, p5), free_term(1, 1, p5)):
        for a, b in ((foreign, other), (other, foreign)):
            with pytest.raises(ParameterError, match="different parameters"):
                ring_mul(a, b, p5)
    # a1 built at r = 7 is in range at r = 5, and is read there at order 5:
    # a1 a1^4 = e, where cells read at order 7 would give a1^5.
    stray = torsion_term(1, 1, PresentationParams((7,)))
    assert ring_mul(stray, torsion_term(1, 4, p5), p5) == one()
    assert ring_mul(torsion_term(1, 4, p5), stray, p5) == one()
    # Parsed under (5, 7), "a1 a2^6 + b1" is grouped at factor 1 with the
    # suffix a2^6, out of range at (5, 3).  Used there, in either operand
    # order, it raises as the dict form of that text does.
    built, other = PresentationParams((5, 7)), PresentationParams((5, 3))
    text = "a1 a2^6 + b1"
    parsed = parse_ring(text, built)
    assert parsed.groups[:2] == (1, built.r) and not one_factor(parsed)
    plain = reference_parse_ring(text, built)
    assert plain.groups is None
    for mate in (torsion_term(1, 2, other), torsion_term(2, 1, other), free_term(2, 1, other)):
        for pair in ((parsed, mate), (mate, parsed)):
            messages = []
            for a, b in (pair, tuple(plain if e is parsed else e for e in pair)):
                with pytest.raises(ParameterError, match="different parameters") as info:
                    ring_mul(a, b, other)
                messages.append(str(info.value))
            assert messages[0] == messages[1]
    # A one-factor element built under (7,) is read on its terms under
    # (7, 5), and gives the value of its dict form there.
    p75 = PresentationParams((7, 5))
    seven = ramp_element(1, PresentationParams((7,)))
    mates = (norm_element(1, p75), torsion_term(2, 3, p75) + free_term(1, 2, p75), -one())
    for mate in mates:
        for a, b in ((seven, mate), (mate, seven)):
            assert ring_mul(a, b, p75).terms == reference_mul(a.terms, b.terms, p75)
            assert (a - b).terms == plain_sum(a.terms, b.terms, -1)
            assert (a == b) == (a.terms == b.terms)


def test_apply_leaves_its_operands_unchanged(monkeypatch):
    # Rows mix d2 rows, lifted generators (on cells beside the dict-form 1)
    # and random rows of one-factor and mixed elements.
    params = P235
    rng = random.Random(11)

    def element():
        factor = rng.randint(1, params.n)
        sub = 3 * torsion_term(factor, rng.randrange(5), params) - free_term(factor, 1, params)
        return rng.choice([
            lambda: ring_mul(norm_element(factor, params), sub, params),
            lambda: sub,
            lambda: random_ring(rng, params),
            lambda: rng.randint(-3, 3) * one(),
            zero,
        ])()

    d2 = d2_matrix(params)
    rows = [*d2, *(lifted_generator(k, params) for k in range(1, params.n + 2))]
    rows += [RingVector(tuple(element() for _ in range(2 * params.n))) for _ in range(3)]
    matrix = RingMatrix(tuple(rows))
    operands = [e for row in rows for e in row]

    def columns(m, v):
        """sum_k row_k v_k by the plain convolution."""
        out = []
        for c in range(m.ncols):
            acc = {}
            for row, vk in zip(m, v):
                for g, x in reference_mul(row[c].terms, vk.terms, params).items():
                    acc[g] = acc.get(g, 0) + x
            out.append({g: x for g, x in acc.items() if x})
        return out

    def random_coefficients():
        return RingVector(tuple(element() for _ in range(len(matrix))))

    def aligned_coefficients():
        """Coefficients whose first 2n lie in the factor of d2's row, so
        that columns sum several products on cells of one factor."""
        aligned = []
        for k in range(2 * params.n):
            f = k % params.n + 1
            shift = torsion_term(f, k, params) - free_term(f, 1, params)
            aligned.append(ring_mul(norm_element(f, params), shift, params))
        return RingVector((*aligned, *(element() for _ in range(len(matrix) - 2 * params.n))))

    for trial in range(10):
        v = (aligned_coefficients if trial % 2 else random_coefficients)()
        # First with the grouped terms unbuilt, then with every dict built.
        for built in (False, True):
            if built:
                for e in (*operands, *v):
                    e.terms
            before = entry_state(operands + list(v))
            assert built or any(one_factor(e) and built_terms(e) is None for e in v)
            result = apply(matrix, v, params)
            # apply may build terms (a row entry on cells times a mixed
            # coefficient); it changes no cells and no terms already built.
            after = entry_state(operands + list(v))
            for (groups, terms), (groups_after, terms_after) in zip(before, after):
                assert groups_after == groups
                assert terms is None or terms_after == terms
            assert [e.terms for e in result] == columns(matrix, v)

    # perfbench's tracer reads the terms of every product; apply's sums must
    # not leave those stale beside the cells they go on to change.
    def traced(x, y, p):
        out = ring_mul(x, y, p)
        out.terms
        return out

    rebind(monkeypatch, ring_mul, traced)
    v = aligned_coefficients()
    assert [e.terms for e in apply(matrix, v, params)] == columns(matrix, v)
