"""The two forms of a ring element.  An element of one factor's subring in
cell form (see groupring's module docstring) is held to the same element
rebuilt as a plain dict, and both to rho (representation.py)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcert import foxcomplex
from relcert.errors import ParameterError
from relcert.foxcomplex import RingMatrix, RingVector, apply, d2_matrix
from relcert.freewords import PresentationParams
from relcert.groupring import (
    RingElement,
    free_term,
    from_terms,
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
    """x, an element of factor's subring, read into cell form through that
    factor's cell-form zero."""
    z = 0 * torsion_term(factor, 0, params) + x
    assert z.local is not None
    return z


def plain_sum(xt, yt, sign=1):
    return from_terms([*xt.items(), *((g, sign * c) for g, c in yt.items())]).terms


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
        # A product with a zero operand is the dict-form zero.
        assert z.local is not None or name == "product" and (xd.is_zero or yd.is_zero), name
        text = ring_to_text(z)  # read off the cells: no terms are built yet
        assert z.is_zero == (not expected[name]), name
        assert z.terms == expected[name], name
        assert_syllable_keys(z.terms)
        assert text == ring_to_text(RingElement(expected[name])), name
    # A dict-form operand reads as cells of the other operand's factor.
    for a, b in ((xc, yd), (xd, yc)):
        assert (a + b).local is not None and (a + b).terms == expected["sum"]
        assert (a - b).local is not None and (a - b).terms == expected["difference"]
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
    # A one-factor text is held in cell form with no terms until they are
    # read; they then hold the value the reference reader gives.  A text
    # with a key of two factors, or the identity alone, stays in dict form.
    params = PresentationParams((7, 5))
    for text, factor in (
        ("a1^3 b1^-2 - 4*e + 2*b1^7", 1),
        ("5*a2 - a2^4 b2 + 3*b2^-1 a2^2", 2),
        ("  a1 + a1^6 - b1^-1", 1),
        ("a1^7 b1", 1),
    ):
        x = parse_ring(text, params)
        assert x.local is not None and x.local[:2] == (factor, params.r[factor - 1])
        assert x.groups is None and built_terms(x) is None
        text_before = ring_to_text(x)  # read off the cells
        expected = reference_parse_ring(text, params).terms
        assert x.terms == expected and built_terms(x) == expected
        assert text_before == ring_to_text(RingElement(dict(expected)))
    for text in ("a1 b2 + e", "3*e", "a1 - a1"):
        x = parse_ring(text, params)
        assert x.local is None and built_terms(x) == reference_parse_ring(text, params).terms


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
        assert x.local is not None
        assert_syllable_keys(x.terms)
    assert (0 * torsion_term(1, 1, params)).is_zero


def test_cell_form_keeps_range_checks():
    # N_1 built at r = 7 is in cell form at order 7.  At r = 5 its cells are
    # not used: its keys a1^5 and a1^6 are range-checked and rejected in
    # either operand order.
    foreign = norm_element(1, PresentationParams((7,)))
    assert foreign.local[:2] == (1, 7)
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


def built_terms(e):
    """A copy of e's terms, or None while a cell-form e has not built them:
    the slot is read without __getattr__, which would build them."""
    try:
        return dict(RingElement.terms.__get__(e))
    except AttributeError:
        return None


def entry_state(elements):
    """Copies of each element's cells, its groups' cells and, where built,
    its terms."""
    return [
        (
            dict(e.local[2]) if e.local else None,
            {rest: dict(cells) for rest, cells in e.groups[2].items()} if e.groups else None,
            built_terms(e),
        )
        for e in elements
    ]


def test_apply_leaves_its_operands_unchanged(monkeypatch):
    # Rows mix dict-form d2 rows, lifted generators (cell form beside the
    # dict-form 1) and random rows of one-factor and mixed elements.
    params = P235
    rng = random.Random(11)

    def element():
        factor = rng.randint(1, params.n)
        local = 3 * torsion_term(factor, rng.randrange(5), params) - free_term(factor, 1, params)
        return rng.choice([
            lambda: ring_mul(norm_element(factor, params), local, params),
            lambda: local,
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
        that columns sum several cell-form products of one factor."""
        aligned = []
        for k in range(2 * params.n):
            f = k % params.n + 1
            shift = torsion_term(f, k, params) - free_term(f, 1, params)
            aligned.append(ring_mul(norm_element(f, params), shift, params))
        return RingVector((*aligned, *(element() for _ in range(len(matrix) - 2 * params.n))))

    for trial in range(10):
        v = (aligned_coefficients if trial % 2 else random_coefficients)()
        # First with the cell-form terms unbuilt, then with every dict built.
        for built in (False, True):
            if built:
                for e in (*operands, *v):
                    e.terms
            before = entry_state(operands + list(v))
            assert built or any(e.local and built_terms(e) is None for e in v)
            result = apply(matrix, v, params)
            # apply may build terms (a cell-form row entry times a mixed
            # coefficient); it changes no cells and no terms already built.
            after = entry_state(operands + list(v))
            for (cells, groups, terms), (cells_after, groups_after, terms_after) in zip(before, after):
                assert cells_after == cells and groups_after == groups
                assert terms is None or terms_after == terms
            assert [e.terms for e in result] == columns(matrix, v)

    # perfbench's tracer reads the terms of every product; apply's sums must
    # not leave those stale beside the cells they go on to change.
    def traced(x, y, p):
        out = ring_mul(x, y, p)
        out.terms
        return out

    monkeypatch.setattr(foxcomplex, "ring_mul", traced)
    v = aligned_coefficients()
    assert [e.terms for e in apply(matrix, v, params)] == columns(matrix, v)
