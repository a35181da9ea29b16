import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcert.errors import ParameterError
from relcert.freewords import (
    EMPTY_WORD,
    FreeWord,
    PresentationParams,
    agen,
    bgen,
    commutator_relator,
    conjugate_power_product,
    generators,
    power_relator,
    random_word,
)
from relcert.foxcomplex import (
    RingMatrix,
    RingVector,
    _d1_cells,
    _fox_walk,
    apply,
    c1_labels,
    c2_labels,
    compose,
    d1_image,
    d1_matrix,
    d2_matrix,
    fox_derivative,
    fundamental_identity_holds,
    starred_fox_row,
)
from relcert.groupring import (
    RingElement,
    free_term,
    from_groups,
    groups_at,
    norm_element,
    one,
    ring_mul,
    ring_to_text,
    torsion_term,
    zero,
)
from relcert.normalform import GroupElement, project
from forms import assert_canonical, one_factor
from rebind import spy
from representation import rho_for
from test_groupring import assert_syllable_keys, group_term, random_ring, reference_mul, star

P23 = PresentationParams((2, 3))
P235 = PresentationParams((2, 3, 5))
PRIMES8 = PresentationParams((2, 3, 5, 7, 11, 13, 17, 19))
P509 = PresentationParams((509,))


def test_fox_axioms():
    a, b = agen(1), bgen(1)
    assert fox_derivative(FreeWord(((a, 1),)), a, P235) == one()
    assert fox_derivative(FreeWord(((a, -1),)), a, P235) == -torsion_term(1, -1, P235)
    assert fox_derivative(FreeWord(((b, 1),)), a, P235).is_zero
    assert fox_derivative(EMPTY_WORD, a, P235).is_zero


def test_fox_of_relators():
    # d[a1,b1]/da1 = 1 - b1 once a1 b1 a1^-1 collapses to b1 in the quotient
    assert fox_derivative(commutator_relator(1), agen(1), P235) == one() - free_term(
        1, 1, P235
    )
    assert fox_derivative(commutator_relator(1), bgen(1), P235) == torsion_term(
        1, 1, P235
    ) - one()
    # d(a1^r)/da1 telescopes to the norm element
    assert fox_derivative(power_relator(1, P235), agen(1), P235) == norm_element(1, P235)
    assert fox_derivative(power_relator(1, P235), bgen(1), P235).is_zero


def test_fox_product_rule_random():
    rng = random.Random(41)
    for _ in range(300):
        u = random_word(rng, 3, max_len=8)
        v = random_word(rng, 3, max_len=8)
        x = rng.choice([agen, bgen])(rng.randint(1, 3))
        left = fox_derivative(u * v, x, P235)
        right = fox_derivative(u, x, P235) + ring_mul(
            group_term(project(u, P235)), fox_derivative(v, x, P235), P235
        )
        assert left == right


@st.composite
def fox_words(draw):
    """(params, word): a reduced random word with exponents up to +-2 r_i,
    or the empty word, or a relator word of one factor."""
    params = draw(st.sampled_from([P235, PresentationParams((3, 4, 5)), PRIMES8, P509]))
    i = draw(st.integers(1, params.n))
    fixed = [
        EMPTY_WORD,
        commutator_relator(i),
        power_relator(i, params),
        power_relator(i, params).inverse(),
        conjugate_power_product(i, params),
    ]
    letter = st.integers(1, params.n).flatmap(
        lambda j: st.tuples(
            st.sampled_from([agen(j), bgen(j)]),
            st.integers(-2 * params.r[j - 1], 2 * params.r[j - 1]),
        )
    )
    raw = st.lists(letter, max_size=12).map(FreeWord.from_letters)
    return params, draw(st.one_of(st.sampled_from(fixed), raw))


@settings(max_examples=200, deadline=None)
@given(fox_words())
def test_starred_fox_row_matches_fox_derivative(case):
    params, w = case
    row = assert_grouped_columns(w, params)
    assert len(row) == 2 * params.n
    for col, x in enumerate(generators(params.n)):
        assert row[col] == star(fox_derivative(w, x, params), params)
        assert_syllable_keys(row[col].terms)


def plain_starred_row(w, params):
    """The starred row by the same prefix walk into {GroupElement:
    coefficient} dicts, one key built per term: the reference the grouped
    columns of starred_fox_row are held to."""
    cols = [{} for _ in range(2 * params.n)]
    inv = ()
    for g, e in w:
        i, r, torsion = g.index, params.r[g.index - 1], g.kind == "a"
        k0, m0, rest = (*inv[0][1:], inv[1:]) if inv and inv[0][0] == i else (0, 0, inv)
        col = cols[2 * i - 2 + (not torsion)]
        exponents, c = (range(e), 1) if e > 0 else (range(-1, e - 1, -1), -1)
        for j in exponents:
            k, m = ((k0 - j) % r, m0) if torsion else (k0, m0 - j)
            key = GroupElement(((i, k, m),) + rest if k or m else rest)
            col[key] = col.get(key, 0) + c
        k, m = ((k0 - e) % r, m0) if torsion else (k0, m0 - e)
        inv = ((i, k, m),) + rest if k or m else rest
    return [{g: v for g, v in col.items() if v} for col in cols]


def cancelling_words(params):
    """Trusted unreduced words whose columns cancel to zero, beside the
    power relators, whose a-column N_i meets a_i^-1 - 1 in a zero product."""
    for g in generators(params.n):
        yield FreeWord(((g, 2), (g, -2)))
        yield FreeWord(((agen(params.n), 1), (g, 1), (g, -1), (agen(params.n), -1)))
    for i in range(1, params.n + 1):
        yield power_relator(i, params)


def assert_grouped_columns(w, params):
    """Each column of w's starred row against the plain row, and each
    product with its d1 entry against reference_mul and rho."""
    row = starred_fox_row(w, params)
    plain = plain_starred_row(w, params)
    rho = rho_for(params)
    images = rho.starred_fox_row(w)
    for col, entry, expected, image in zip(row, d1_matrix(params), plain, images):
        assert one_factor(entry[0])
        assert col.is_zero == (not expected)
        assert col.terms == expected
        assert_syllable_keys(col.terms)
        assert rho.ring(col) == image
        product = ring_mul(entry[0], col, params)
        assert_canonical(product, params)
        assert product.terms == reference_mul(entry[0].terms, expected, params)
        assert_syllable_keys(product.terms)
        assert rho.ring(product) == rho.mul(rho.ring(entry[0]), image)
    return row


def test_grouped_columns_random_and_cancelling():
    rng = random.Random(47)
    forms = set()
    for params in (P23, P235, PRIMES8, P509):
        words = [random_word(rng, params.n) for _ in range(60)]
        for w in [*words, *cancelling_words(params)]:
            for col in assert_grouped_columns(w, params):
                forms.add("cell" if one_factor(col) else "grouped" if col.groups else "dict")
                if col.groups:
                    factor, orders, groups = col.groups
                    assert orders == params.r and groups
                    for rest, cells in groups.items():
                        assert type(rest) is GroupElement and cells
                        assert not rest or rest[0][0] != factor
    assert forms == {"grouped", "cell", "dict"}


def test_grouped_column_under_other_orders_is_checked():
    # Built at r = (5, 7), a1's column of a2^3 a1 has the key a2^4 (the
    # starred prefix a2^-3): factor 1 keeps its order 5, and a2^4 is out
    # of range at r = (5, 3).  The grouped column is not taken as it
    # stands there, so it raises as its dict copy does.
    built, other = PresentationParams((5, 7)), PresentationParams((5, 3))
    col = starred_fox_row(FreeWord(((agen(2), 3), (agen(1), 1))), built)[0]
    assert col.groups is not None and col.groups[1] == built.r
    left = d1_matrix(other)[0][0]
    messages = []
    for y in (col, RingElement(dict(col.terms))):
        with pytest.raises(ParameterError, match="different parameters") as info:
            ring_mul(left, y, other)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    # In range at other orders, the grouped column gives the dict path's value.
    col = starred_fox_row(FreeWord(((bgen(2), 2), (agen(2), 1), (agen(1), -2))), built)[0]
    assert col.groups is not None
    assert ring_mul(left, col, PresentationParams((5, 11))).terms == reference_mul(
        left.terms, col.terms, PresentationParams((5, 11))
    )


def test_d2_entries_born_in_cell_form():
    for family in ((2, 3), (2, 3, 5), (3, 4, 5), (5, 7, 9, 11, 13)):
        params = PresentationParams(family)
        plain = [plain_starred_row(w, params) for w in (
            *(commutator_relator(i) for i in range(1, params.n + 1)),
            *(power_relator(i, params) for i in range(1, params.n + 1)),
        )]
        for row, expected in zip(d2_matrix(params), plain):
            for entry, terms in zip(row, expected):
                assert one_factor(entry) == bool(terms)
                assert entry.groups is None or entry.groups[1] == params.r
                assert entry.terms == terms


def assert_d1_image(row, params):
    """d1_image(row) against the matrix product apply(d1_matrix, row), the
    reference it is held to, and the identity sum_x (x^-1 - 1) row_x under rho."""
    got = d1_image(row, params)
    expected = apply(d1_matrix(params), row, params)[0]
    assert got.terms == expected.terms and got == expected
    assert_syllable_keys(got.terms)
    rho = rho_for(params)
    image = rho.zero
    for g, col in zip(generators(params.n), row):
        entry = rho.add(rho.letter(g.kind, g.index, -1), tuple(-v % rho.p for v in rho.identity))
        image = rho.add(image, rho.mul(entry, rho.ring(col)))
    assert rho.ring(got) == image
    return got


def test_d1_image_matches_apply():
    rng = random.Random(53)
    for params in (P23, P235, PRIMES8, P509):
        n = params.n
        rows = [starred_fox_row(random_word(rng, n), params) for _ in range(40)]
        rows += [starred_fox_row(w, params) for w in cancelling_words(params)]
        rows += d2_matrix(params)
        rows.append(RingVector((zero(),) * (2 * n)))
        # Dict copies of Fox rows, rows of dict-form elements with keys of
        # several factors, and columns on cells of another factor.
        rows += [RingVector(RingElement(dict(e.terms)) for e in row) for row in rows[:10]]
        rows += [RingVector(random_ring(rng, params) for _ in range(2 * n)) for _ in range(10)]
        for _ in range(10):
            factors = [rng.randint(1, n) for _ in range(2 * n)]
            rows.append(RingVector(
                rng.randint(-3, 3) * torsion_term(f, rng.randrange(7), params)
                + free_term(f, rng.randint(-2, 2), params) for f in factors
            ))
        zeros = sum(assert_d1_image(row, params).is_zero for row in rows)
        assert zeros >= 2 * n  # the d2 rows, the cancelling words and the zero row


def test_d1_image_takes_fox_rows_on_cells(monkeypatch):
    # Rows whose columns lie in their own factor under params make no ring
    # product: d1 is applied to their cells.
    calls = spy(monkeypatch, ring_mul)
    rng = random.Random(71)
    for params in (P235, PRIMES8):
        for w in [random_word(rng, params.n) for _ in range(20)] + list(cancelling_words(params)):
            assert fundamental_identity_holds(w, params)
        assert all(d1_image(row, params).is_zero for row in d2_matrix(params))
    assert calls == []


def test_sampled_words_build_no_ring_element(monkeypatch):
    # The sample runs the walk core's columns through the d1 core: no column
    # is wrapped by from_groups or read back by groups_at.  The same words'
    # starred rows, through d1_image, give the same terms.
    rng = random.Random(83)
    cases = [(params, [random_word(rng, params.n) for _ in range(30)] + list(cancelling_words(params)))
             for params in (P23, P235, PRIMES8, P509)]
    wrapped, read = spy(monkeypatch, from_groups), spy(monkeypatch, groups_at)
    for params, words in cases:
        assert all(fundamental_identity_holds(w, params) for w in words)
    assert wrapped == [] and read == []
    for params, words in cases:
        for w in words:
            image = d1_image(starred_fox_row(w, params), params)
            assert _d1_cells(_fox_walk(w, params), params.r) == image.terms
    assert len(wrapped) == len(read) == sum(2 * p.n * len(words) for p, words in cases)


def test_d1_image_raises_as_apply_does():
    # Built at r = (5, 7), a1's column of a2^3 a1 holds the key a2^4, out of
    # range at r = (5, 3): d1_image multiplies such a column by its d1
    # entry, and raises the error apply raises.  A row of the wrong width
    # is refused with apply's message.
    built, other = PresentationParams((5, 7)), PresentationParams((5, 3))
    rows = [
        starred_fox_row(FreeWord(((agen(2), 3), (agen(1), 1))), built),
        RingVector((norm_element(1, PresentationParams((7,))), zero(), zero(), zero())),
        RingVector((zero(),) * 3),
        RingVector((zero(),) * 6),
    ]
    for row in rows:
        messages = []
        for image in (lambda: apply(d1_matrix(other), row, other), lambda: d1_image(row, other)):
            with pytest.raises(ParameterError) as info:
                image()
            messages.append(str(info.value))
        assert messages[0] == messages[1]
    # In range at other orders, such a row gives apply's value.
    row = starred_fox_row(FreeWord(((bgen(2), 2), (agen(2), 1), (agen(1), -2))), built)
    assert row[0].groups is not None
    assert_d1_image(row, PresentationParams((5, 11)))


@pytest.mark.parametrize("index", [0, 4])
def test_fox_row_rejects_generator_index(index):
    # FreeWord(...) is trusted and skips from_letters' index check.
    for kind in (agen, bgen):
        w = FreeWord(((agen(1), 2), (kind(index), 1)))
        with pytest.raises(ParameterError, match="out of range"):
            starred_fox_row(w, P235)
        with pytest.raises(ParameterError, match="out of range"):
            fundamental_identity_holds(w, P235)


def test_d2_entries():
    d2 = d2_matrix(P23)
    assert len(d2) == 4 and d2.ncols == 4
    # commutator row 1
    assert d2[0][0] == one() - free_term(1, -1, P23)
    assert d2[0][1] == torsion_term(1, -1, P23) - one()
    assert d2[0][2].is_zero and d2[0][3].is_zero
    # power row 1 has only the norm element, in the a1 column
    assert d2[2][0] == norm_element(1, P23)
    assert d2[2][1].is_zero and d2[2][2].is_zero and d2[2][3].is_zero
    # factor-2 rows have no factor-1 support
    assert d2[1][0].is_zero and d2[1][1].is_zero


def test_d1_entries():
    d1 = d1_matrix(P23)
    assert len(d1) == 4 and d1.ncols == 1
    assert d1[0][0] == torsion_term(1, -1, P23) - one()
    assert d1[1][0] == free_term(1, -1, P23) - one()
    assert d1[3][0] == free_term(2, -1, P23) - one()
    # Each entry x^-1 - 1 is born on cells, with the value and text of
    # the dict-form group_term(x^-1) - 1.
    for p in (PRIMES8, P509):
        d1 = d1_matrix(p)
        assert len(d1) == 2 * p.n
        for g, row in zip(generators(p.n), d1):
            entry = row[0]
            expected = group_term(project(FreeWord(((g, -1),)), p)) - one()
            assert one_factor(entry) and expected.groups is None
            assert entry == expected
            assert ring_to_text(entry) == ring_to_text(expected)


def test_chain_condition():
    for p in (P23, P235, PresentationParams((7,))):
        d1, d2 = d1_matrix(p), d2_matrix(p)
        for row in d2:
            assert apply(d1, row, p).is_zero


def test_fundamental_identity_random():
    rng = random.Random(43)
    for _ in range(300):
        w = random_word(rng, 3)
        assert fundamental_identity_holds(w, P235)


def test_fundamental_identity_on_relators():
    # for relators the right-hand side is zero
    d1 = d1_matrix(P235)
    for i in range(1, 4):
        row = starred_fox_row(commutator_relator(i), P235)
        assert apply(d1, row, P235).is_zero
        row = starred_fox_row(power_relator(i, P235), P235)
        assert apply(d1, row, P235).is_zero


def test_apply():
    d2 = d2_matrix(P23)
    unit = RingVector.unit(4, 0)
    assert apply(d2, unit, P23) == d2[0]
    assert apply(d2, RingVector((zero(),) * 4), P23).is_zero
    with pytest.raises(ParameterError):
        apply(d2, RingVector((zero(),) * 3), P23)


def test_apply_is_right_linear():
    from relcert.groupring import from_terms

    rng = random.Random(47)
    d2 = d2_matrix(P23)

    def rand_ring():
        pairs = []
        for _ in range(rng.randint(0, 3)):
            g = project(random_word(rng, 2, max_len=4), P23)
            pairs.append((g, rng.randint(-3, 3)))
        return from_terms(pairs)

    for _ in range(40):
        u = RingVector(tuple(rand_ring() for _ in range(4)))
        v = RingVector(tuple(rand_ring() for _ in range(4)))
        lam = rand_ring()
        assert apply(d2, u + v, P23) == apply(d2, u, P23) + apply(d2, v, P23)
        assert apply(d2, u.act(lam, P23), P23) == apply(d2, u, P23).act(lam, P23)


def test_act_skips_zero_entries(monkeypatch):
    calls = spy(monkeypatch, ring_mul)
    coeff = norm_element(2, P23) - free_term(1, 1, P23)
    for row in d2_matrix(P23):
        calls.clear()
        got = row.act(coeff, P23)
        assert len(calls) == sum(not e.is_zero for e in row)
        assert not any(call.args[0].is_zero for call in calls)
        assert got == tuple(ring_mul(e, coeff, P23) for e in row)
        assert all(g is e for g, e in zip(got, row) if e.is_zero)

def test_compose_consistency_random():
    # apply(compose(A, B), v) = apply(B, apply(A, v))
    rng = random.Random(53)
    from relcert.groupring import from_terms

    def rand_ring():
        pairs = []
        for _ in range(rng.randint(0, 3)):
            g = project(random_word(rng, 2, max_len=4), P23)
            pairs.append((g, rng.randint(-3, 3)))
        return from_terms(pairs)

    def rand_matrix(rows, cols):
        return RingMatrix(
            tuple(
                RingVector(tuple(rand_ring() for _ in range(cols)))
                for _ in range(rows)
            )
        )

    for _ in range(40):
        a = rand_matrix(3, 3)
        b = rand_matrix(3, 3)
        v = RingVector(tuple(rand_ring() for _ in range(3)))
        assert apply(compose(a, b, P23), v, P23) == apply(b, apply(a, v, P23), P23)
        # identity is neutral on both sides
        ident = RingMatrix.identity(3)
        assert compose(a, ident, P23) == a
        assert compose(ident, a, P23) == a


def test_labels():
    assert c1_labels(2) == ["a1", "b1", "a2", "b2"]
    assert c2_labels(2) == ["D1", "D2", "E1", "E2"]
