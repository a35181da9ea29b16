import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcert.errors import ParameterError, ParseError
from relcert.freewords import PresentationParams, parse_word, random_word, scan_int
from relcert.groupring import (
    RingElement,
    _cell_mul,
    _convolve,
    _factor_cells,
    _kronecker_mul,
    _pack,
    _packs,
    _slot_width,
    _unpack,
    check_cyclic_identities,
    free_term,
    from_groups,
    from_terms,
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
from relcert.foxcomplex import starred_fox_row
from relcert.normalform import (
    IDENTITY,
    GroupElement,
    check_reduced,
    element_to_text,
    free_power,
    ginv,
    gmul,
    project,
    torsion_power,
)
from forms import one_factor
from representation import rho_for
from test_normalform import canonical_key
from test_parse_fuzz import GENUINE, PARAMS, grammar_text

P3 = PresentationParams((3, 5))
P235 = PresentationParams((2, 3, 5))


def group_term(g):
    """The ring element g with coefficient 1."""
    return RingElement({g: 1})


def augmentation(x):
    """Coefficient sum; a ring homomorphism onto the integers."""
    return sum(x.terms.values())


def random_ring(rng, params, max_support=8, coeff_bound=5):
    pairs = []
    for _ in range(rng.randint(0, max_support)):
        g = project(random_word(rng, params.n, max_len=6), params)
        c = rng.randint(-coeff_bound, coeff_bound)
        pairs.append((g, c))
    return from_terms(pairs)


def test_unit_and_zero_laws():
    rng = random.Random(2)
    for _ in range(50):
        x = random_ring(rng, P235)
        assert ring_mul(one(), x, P235) == x
        assert ring_mul(x, one(), P235) == x
        assert ring_mul(zero(), x, P235).is_zero
        assert (x + zero()) == x
        assert (x - x).is_zero


def test_norm_annihilation():
    # (1 - a1)(1 + a1 + a1^2) = 0 at r1 = 3
    x = one() - torsion_term(1, 1, P3)
    assert ring_mul(x, norm_element(1, P3), P3).is_zero


def test_single_term_product():
    a1 = torsion_term(1, 1, P3)
    b2 = free_term(2, 1, P3)
    prod = ring_mul(a1, b2, P3)
    assert prod == group_term(gmul(torsion_power(1, 1, P3), free_power(2, 1, P3), P3))
    assert len(prod.terms) == 1


def test_ring_axioms_random():
    rng = random.Random(23)
    for _ in range(120):
        x = random_ring(rng, P235)
        y = random_ring(rng, P235)
        z = random_ring(rng, P235)
        assert ring_mul(ring_mul(x, y, P235), z, P235) == ring_mul(x, ring_mul(y, z, P235), P235)
        assert ring_mul(x, y + z, P235) == ring_mul(x, y, P235) + ring_mul(x, z, P235)
        assert ring_mul(x + y, z, P235) == ring_mul(x, z, P235) + ring_mul(y, z, P235)


def test_star_examples():
    ab = group_term(gmul(torsion_power(1, 1, P3), free_power(2, 1, P3), P3))
    expected = group_term(
        gmul(free_power(2, -1, P3), torsion_power(1, -1, P3), P3)
    )
    assert star(ab, P3) == expected
    assert star(norm_element(1, P3), P3) == norm_element(1, P3)
    assert star(one() - torsion_term(1, 1, P3), P3) == one() - torsion_term(1, -1, P3)


def test_star_anti_automorphism_random():
    rng = random.Random(29)
    for _ in range(100):
        x = random_ring(rng, P235)
        y = random_ring(rng, P235)
        assert star(star(x, P235), P235) == x
        assert star(ring_mul(x, y, P235), P235) == ring_mul(
            star(y, P235), star(x, P235), P235
        )


def test_augmentation():
    assert augmentation(norm_element(1, P3)) == 3
    assert augmentation(one() - torsion_term(1, 1, P3)) == 0
    assert augmentation(ramp_element(2, P3)) == 5 * 4 // 2
    rng = random.Random(31)
    for _ in range(100):
        x = random_ring(rng, P235)
        y = random_ring(rng, P235)
        assert augmentation(ring_mul(x, y, P235)) == augmentation(x) * augmentation(y)


def assert_syllable_keys(terms):
    """Every key is a GroupElement whose items are plain (factor, k, m)
    tuples: dict equality cannot tell a key from a plain tuple, nor a
    syllable from a tuple subclass, which hash and compare alike."""
    for g in terms:
        assert type(g) is GroupElement, g
        assert all(type(s) is tuple for s in g), g


def test_norm_and_ramp_match_definition():
    # The definition through torsion_power is the oracle of the direct
    # builds, at factor 1 of one factor and factor 2 of two.
    for r in (*range(2, 61), 509):
        for params, i in ((PresentationParams((r,)), 1), (PresentationParams((r + 1, r)), 2)):
            norm, ramp = norm_element(i, params), ramp_element(i, params)
            assert norm == from_terms((torsion_power(i, j, params), 1) for j in range(r))
            assert ramp == from_terms((torsion_power(i, j, params), j) for j in range(1, r))
            assert_syllable_keys(norm.terms)
            assert_syllable_keys(ramp.terms)
            for bad in (0, params.n + 1):
                for build in (norm_element, ramp_element):
                    with pytest.raises(ParameterError, match="out of range"):
                        build(bad, params)


def test_norm_and_ramp_values():
    assert norm_element(1, P3) == from_terms(
        [(IDENTITY, 1), (torsion_power(1, 1, P3), 1), (torsion_power(1, 2, P3), 1)]
    )
    assert ramp_element(1, P3) == from_terms(
        [(torsion_power(1, 1, P3), 1), (torsion_power(1, 2, P3), 2)]
    )
    p2 = PresentationParams((2, 3))
    assert ramp_element(1, p2) == torsion_term(1, 1, p2)


def test_cyclic_identities():
    # hand expansion at r = 3: (1 - a)(a + 2a^2) = norm - 3
    x = one() - torsion_term(1, 1, P3)
    assert ring_mul(x, ramp_element(1, P3), P3) == norm_element(1, P3) - 3 * one()
    # (1 + a)^2 = 2 + 2a at r = 2
    p2 = PresentationParams((2, 3))
    s = norm_element(1, p2)
    assert ring_mul(s, s, p2) == 2 * s
    for p in (p2, P3, P235):
        for i in range(1, p.n + 1):
            report = check_cyclic_identities(i, p)
            assert list(report) == ["annihilation", "square_scaling", "ramp_difference"]
            assert all(report.values())


def test_scalar_multiplication():
    x = norm_element(1, P3)
    assert 0 * x == zero()
    assert (-1) * x == -x
    assert 2 * x + x == 3 * x


def test_ring_text_forms():
    assert ring_to_text(zero()) == "0"
    assert ring_to_text(one()) == "e"
    assert ring_to_text(-one()) == "-e"
    assert ring_to_text(norm_element(1, P3)) == "e + a1 + a1^2"
    assert ring_to_text(norm_element(1, P3) - 3 * one()) == "-2*e + a1 + a1^2"
    assert ring_to_text(ramp_element(1, P3)) == "a1 + 2*a1^2"
    mixed = -free_term(1, -1, P3) + 2 * one()
    assert ring_to_text(mixed) == "2*e - b1^-1"


def test_ring_text_round_trip():
    rng = random.Random(37)
    for _ in range(200):
        x = random_ring(rng, P235)
        assert parse_ring(ring_to_text(x), P235) == x


def test_parse_ring_inputs():
    assert parse_ring("0", P3).is_zero
    assert parse_ring("e + a1 + a1^2", P3) == norm_element(1, P3)
    assert parse_ring("2*a1 b1^-1", P3) == 2 * group_term(
        gmul(torsion_power(1, 1, P3), free_power(1, -1, P3), P3)
    )
    # unnormalized spellings normalize on the way in
    assert parse_ring("a1^4", P3) == torsion_term(1, 1, P3)
    assert parse_ring("a1 - a1", P3).is_zero
    assert parse_ring("-a1 + 2*e - e", P3) == one() - torsion_term(1, 1, P3)


def test_parse_ring_errors():
    with pytest.raises(ParseError):
        parse_ring("", P3)
    with pytest.raises(ParseError):
        parse_ring("0 + a1", P3)
    with pytest.raises(ParseError) as err:
        parse_ring("2a1", P3)
    assert err.value.column == 2
    with pytest.raises(ParseError):
        parse_ring("a1 +", P3)
    with pytest.raises(ParseError) as err:
        parse_ring("e + c1", P3)
    assert err.value.column == 5
    with pytest.raises(ParseError):
        parse_ring("a9", P3)


def star(x, params):
    """The involution g -> g^-1, extended linearly.  Anti-automorphism:
    star(xy) = star(y) star(x); it converts left-module data to right."""
    return RingElement({ginv(g, params): c for g, c in x.terms.items()})


# ---------------------------------------------------------------------------
# Both paths of ring_mul against the plain convolution.


def reference_mul(xt, yt, params):
    """The plain convolution, one gmul per pair of terms: the reference the
    split path of ring_mul is held to.  ring_mul's own plain path is this
    loop, so rho (representation.py) is its reference."""
    for g in xt:  # gmul checks only its right operand
        check_reduced(g, params)
    out = {}
    for g, cg in xt.items():
        for h, ch in yt.items():
            key = gmul(g, h, params)
            v = out.get(key, 0) + cg * ch
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


# ---------------------------------------------------------------------------
# parse_ring against the character-by-character scanner it replaced.


def reference_parse_ring(text, params):
    """Ring text read one character at a time, each term's word through
    parse_word and project: the reference parse_ring is held to."""
    s = text
    size = len(s)
    pos = 0
    while pos < size and s[pos].isspace():
        pos += 1
    if pos == size:
        raise ParseError("empty ring-element text", pos + 1)
    if s[pos] == "0":
        tail = pos + 1
        while tail < size and s[tail].isspace():
            tail += 1
        if tail != size:
            raise ParseError("unexpected text after '0'", tail + 1)
        return RingElement({})
    terms = []
    sign = 1
    if s[pos] == "-":
        sign = -1
        pos += 1
    while True:
        while pos < size and s[pos].isspace():
            pos += 1
        if pos == size:
            raise ParseError("expected a term", pos + 1)
        coeff = 1
        if s[pos].isdigit():
            coeff, pos = scan_int(s, pos)
            if pos < size and s[pos] == "*":
                pos += 1
            else:
                raise ParseError("expected '*' between coefficient and group word", pos + 1)
        wstart = pos
        while pos < size:
            ch = s[pos]
            if ch == "+" or (ch == "-" and s[pos - 1] != "^"):
                break
            pos += 1
        try:
            w = parse_word(s[wstart:pos], params.n)
        except ParseError as exc:
            col = wstart + exc.column if exc.column is not None else None
            raise ParseError(exc.raw_message, col) from None
        terms.append((project(w, params), sign * coeff))
        if pos == size:
            return from_terms(terms)
        sign = 1 if s[pos] == "+" else -1
        pos += 1


def parse_outcome(read, text, params, *words):
    """The element read, or the error's type and text (message and column)."""
    try:
        return read(text, params, *words)
    except (ParseError, ParameterError) as exc:
        return type(exc), str(exc)


# The quirks of the term grammar, with the outcome each must keep.
QUIRKS = [
    ("0*a1", "unexpected text after '0' (column 2)"),  # a leading 0 stands alone
    ("00*a1", "unexpected text after '0' (column 2)"),
    ("10*a1", 10 * torsion_term(1, 1, P3)),
    ("a1 + 0*a1", torsion_term(1, 1, P3)),  # only the leading one
    ("2 *a1", "expected '*' between coefficient and group word (column 2)"),
    ("2* *a1", 2 * torsion_term(1, 1, P3)),  # '*' right after the digits
    ("²*a1", "integer literal is not decimal or too long (column 1)"),  # isdigit, not int()
    ("a²", "integer literal is not decimal or too long (column 2)"),
    ("٣*a1", 3 * torsion_term(1, 1, P3)),  # int() reads it as 3
    ("a١^٣", torsion_term(1, 3, P3)),
    ("b0", "generator index must be >= 1 (column 2)"),
    ("a1 + b3", "generator index 3 exceeds n=2 (column 7)"),
    ("a1^-2", torsion_term(1, -2, P3)),  # a '-' right after '^' is no term end
    ("a1^ -2", "expected exponent digits after '^' (column 4)"),
    ("a1\x1c+\x1cb1", torsion_term(1, 1, P3) + free_term(1, 1, P3)),  # isspace
    ("e*\t", one()),
    ("a1 +", "expected a term (column 5)"),  # the text ends where a term should start
    ("a1 + + a2", "empty word text; write 'e' for the identity (column 6)"),
    ("a1 + 2 *a2", "expected '*' between coefficient and group word (column 7)"),
    pytest.param(
        "9" * 4301 + "*a1",
        "integer literal is not decimal or too long (column 1)",
        id="4301-digit coefficient",
    ),
    ("a1 + ٣*b1", torsion_term(1, 1, P3) + 3 * free_term(1, 1, P3)),
]


@pytest.mark.parametrize("text, outcome", QUIRKS)
def test_parse_ring_quirks(text, outcome):
    expected = outcome if isinstance(outcome, RingElement) else (ParseError, outcome)
    assert parse_outcome(reference_parse_ring, text, P3) == expected
    assert parse_outcome(parse_ring, text, P3) == expected


# Faults past the first term, after runs of spaces and tabs: each message
# and column as the reference gives it.
LATER_TERM_FAULTS = [
    ("a1 +  \t a9", "generator index 9 exceeds n=2 (column 10)"),
    ("e + a1 +\t\ta9", "generator index 9 exceeds n=2 (column 12)"),
    ("e - 2*b1 + \t  3*a2 +  c1", "expected generator 'a' or 'b', found 'c' (column 23)"),
    ("a1 +\t\t2 b1", "expected '*' between coefficient and group word (column 8)"),
    ("a1 - b1 + \t 12a2", "expected '*' between coefficient and group word (column 15)"),
    ("e + a1 - \t\t", "expected a term (column 12)"),
    ("e + a1 +  \t + a2", "empty word text; write 'e' for the identity (column 13)"),
    ("a1 + b1^ \t + e", "expected exponent digits after '^' (column 9)"),
    ("e + a1 + 4*\t", "empty word text; write 'e' for the identity (column 13)"),
    ("a9 + a9", "generator index 9 exceeds n=2 (column 2)"),  # the first of two
    # Words read before compose, but an 'e' stands alone.
    ("e + a1 + e a1", "'e' denotes the identity and must stand alone (column 12)"),
    ("a1 + e + a1 e", "expected generator 'a' or 'b', found 'e' (column 13)"),
    (
        "a1 +\tb1^-1 + 2*a1 b1^-1 - a1^-1 + a1 a1^-1",
        torsion_term(1, 1, P3) + free_term(1, -1, P3) - torsion_term(1, 2, P3) + one()
        + 2 * ring_mul(torsion_term(1, 1, P3), free_term(1, -1, P3), P3),
    ),
    ("e +\t\t٣*a9 + e", "generator index 9 exceeds n=2 (column 9)"),  # scan_int's coefficient
    ("a1 + 0*a1\t+\t0", "expected '*' between coefficient and group word (column 14)"),
    (" \t0*a1", "unexpected text after '0' (column 4)"),  # a leading 0 stands alone
    ("\t 0 \t+ a1", "unexpected text after '0' (column 6)"),
    ("a2 +\t0*a1 - \t0*b2", torsion_term(2, 1, P3)),  # only the leading one
]


@pytest.mark.parametrize("text, outcome", LATER_TERM_FAULTS)
def test_parse_ring_later_term_faults(text, outcome):
    expected = outcome if isinstance(outcome, RingElement) else (ParseError, outcome)
    assert parse_outcome(reference_parse_ring, text, P3) == expected
    assert parse_outcome(parse_ring, text, P3) == expected
    assert parse_outcome(parse_ring, text, P3, {"a1": torsion_power(1, 1, P3)}) == expected


@settings(max_examples=400, deadline=1000)
@given(grammar_text, st.sampled_from(PARAMS))
def test_parse_ring_matches_reference(text, params):
    expected = parse_outcome(reference_parse_ring, text, params)
    words = {}
    assert parse_outcome(parse_ring, text, params, words) == expected
    assert parse_outcome(parse_ring, text, params, words) == expected  # memo warm
    for word, g in words.items():
        assert project(parse_word(word, params.n), params) == g


def certificate_texts(obj):
    """The ring-element strings of a certificate's JSON tree."""
    texts = [text for name in ("lambda", "mu", "alpha") for row in obj[name] for text in row]
    return texts + [op["coeff"] for op in obj["basis_ops"]]


GENUINE_TEXTS = [
    (text, PresentationParams(tuple(obj["r"])))
    for obj in GENUINE
    for text in certificate_texts(obj)
]
EDIT_CHARS = st.one_of(st.sampled_from(" \t\x1c*^-+0123456789abe²٣!"), st.characters())


@st.composite
def edited_texts(draw):
    """A genuine certificate string with one character inserted, deleted
    or replaced, its params, and the string itself."""
    text, params = draw(st.sampled_from(GENUINE_TEXTS))
    i = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["insert", "delete", "replace"]))
    ch = "" if edit == "delete" else draw(EDIT_CHARS)
    return text[:i] + ch + text[i + (edit != "insert"):], params, text


@settings(max_examples=400, deadline=1000)
@given(edited_texts())
def test_edited_certificate_text_matches_reference(edited):
    text, params, genuine = edited
    words = {}
    assert parse_ring(genuine, params, words) == reference_parse_ring(genuine, params)
    # The edited text meets a memo that holds the genuine string's words.
    expected = parse_outcome(reference_parse_ring, text, params)
    assert parse_outcome(parse_ring, text, params, words) == expected


BIG = 2**200
coefficients = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))


def factor_params(r: int, second: bool) -> tuple[PresentationParams, int]:
    """Params with a factor of order r (at least 2), as factor 1 or 2."""
    r = max(r, 2)
    return (PresentationParams((r + 1, r)), 2) if second else (PresentationParams((r,)), 1)


@st.composite
def factor_elements(draw, params, factor, r, max_terms=30, spread=3):
    """An element of factor `factor`'s subring with torsion exponents below
    r: free exponents within `spread` of a possibly huge base, coefficients
    up to 2^200."""
    base = draw(st.one_of(st.just(0), st.integers(-(2**40), 2**40)))
    terms = draw(
        st.lists(
            st.tuples(st.integers(0, r - 1), st.integers(-spread, spread), coefficients),
            min_size=1,
            max_size=max_terms,
        )
    )
    return from_terms(
        (gmul(torsion_power(factor, k, params), free_power(factor, base + m, params), params), c)
        for k, m, c in terms
    )


def sparse(x, y, params):
    return RingElement(reference_mul(x.terms, y.terms, params))


@st.composite
def syllable_elements(draw, params, max_terms=20):
    """An element whose keys are normal forms of up to five syllables drawn
    over all factors, the identity among them, with coefficients up to
    2^200.  Few distinct syllables, so boundary merges and vanishing merges
    both occur."""
    syllable = st.tuples(
        st.integers(1, params.n), st.integers(0, 6), st.integers(-1, 1)
    )
    words = st.lists(syllable, max_size=5)
    terms = draw(st.lists(st.tuples(words, coefficients), min_size=1, max_size=max_terms))

    def key(word):
        g = IDENTITY
        for f, k, m in word:
            g = gmul(g, torsion_power(f, k, params), params)
            g = gmul(g, free_power(f, m, params), params)
        return g

    return from_terms((key(word), c) for word, c in terms)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([P235, PresentationParams((3, 5, 7))]))
def test_ring_mul_matches_reference(data, params):
    x = data.draw(syllable_elements(params))
    y = data.draw(syllable_elements(params))
    # The second product of each example adds a term a1 b2 that no sum of
    # drawn terms can cancel to both sides, so the plain convolution runs.
    mixed = 2**210 * group_term(
        gmul(torsion_power(1, 1, params), free_power(2, 1, params), params)
    )
    general = (x + mixed, y - mixed)
    assert all(_factor_cells(z, params) is None for z in general)
    rho = rho_for(params)
    for a, b in ((x, y), general):
        product = ring_mul(a, b, params).terms
        assert product == reference_mul(a.terms, b.terms, params)
        assert rho.ring(RingElement(product)) == rho.mul(rho.ring(a), rho.ring(b))
        assert all(isinstance(g, GroupElement) for g in product)


def test_boundary_merges_cascade_to_identity():
    # At r = (3, 5): a1 a2 x a2^4 a1^2 = e, the two boundary merges vanish
    # one after the other.
    a1, a2 = (1, 1, 0), (2, 1, 0)
    left = GroupElement((a1, a2))
    right = GroupElement(((2, 4, 0), (1, 2, 0)))
    assert _convolve({left: 3}, {right: -2}, P3) == {IDENTITY: -6}
    x = 3 * group_term(left) + one()
    y = -2 * group_term(right) + torsion_term(2, 1, P3)
    expected = reference_mul(x.terms, y.terms, P3)
    assert expected[IDENTITY] == -6
    product = ring_mul(x, y, P3).terms
    assert product == expected
    assert all(isinstance(g, GroupElement) for g in product)


def test_cancelled_key_is_dropped():
    # (e - a1)(a1 a2 + a2): the two products a1 a2 cancel, a concatenation
    # against a merge, and no zero coefficient is left behind.
    a1 = torsion_power(1, 1, P3)
    a2 = torsion_power(2, 1, P3)
    x = one() - group_term(a1)
    y = group_term(gmul(a1, a2, P3)) + group_term(a2)
    a1sq_a2 = gmul(torsion_power(1, 2, P3), a2, P3)
    assert _convolve(x.terms, y.terms, P3) == {a2: 1, a1sq_a2: -1}


def cells(x, r):
    """The cells m * 2r + k of x, an element of one factor's subring laid out
    for order r (see groups_at)."""
    return {
        (g.syllables[0][2] * 2 * r + g.syllables[0][1] if g.syllables else 0): c
        for g, c in x.terms.items()
    }


def from_cells(cells, factor, r):
    """The element of factor `factor`'s subring with the given cells, cells
    with coefficient 0 dropped."""
    terms = {}
    for s, c in cells.items():
        m, k = divmod(s, 2 * r)
        if c:
            terms[GroupElement(((factor, k, m),)) if s else IDENTITY] = c
    return RingElement(terms)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 1009), st.booleans())
def test_packed_matches_sparse(data, r, second):
    # r = 1 is not a valid order, but Z[C_1 x Z] = Z[b^-1, b] is the k = 0
    # part of every factor's subring, so both cell kernels at r = 1 are held
    # to the reference at r = 2 on elements without torsion.
    params, factor = factor_params(r, second)
    x = data.draw(factor_elements(params, factor, r))
    y = data.draw(factor_elements(params, factor, r))
    expected = sparse(x, y, params)
    assert ring_mul(x, y, params) == expected
    if not x.is_zero and not y.is_zero:
        for kernel in (_kronecker_mul, _cell_mul):
            assert from_cells(kernel(cells(x, r), cells(y, r), r), factor, r) == expected


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 1009), st.booleans())
def test_packed_exact_cancellation(data, r, second):
    # (1 - a^j) x N = 0: every slot of the packed product folds to zero.
    params, factor = factor_params(r, second)
    x = data.draw(factor_elements(params, factor, r))
    j = data.draw(st.integers(1, r - 1))
    shear = ring_mul(one() - torsion_term(factor, j, params), x, params)
    norm = norm_element(factor, params)
    assert sparse(shear, norm, params).is_zero
    assert ring_mul(shear, norm, params).is_zero
    if not shear.is_zero:
        assert _kronecker_mul(cells(shear, r), cells(norm, r), r) == {}


# Slot widths in bytes as _slot_width gives them: the machine widths 1, 2,
# 4 and 8, two that _kronecker_mul rounds up to 4 and 8, and two wider than
# a machine integer, which take the byte-wise path.
SLOT_WIDTHS = (1, 2, 3, 4, 5, 8, 9, 16)


@pytest.mark.parametrize("width", SLOT_WIDTHS)
def test_pack_round_trips_at_slot_extremes(width):
    top = 2 ** (8 * width - 1)
    rng = random.Random(width)
    values = [top - 1, -(top - 1), -top, 0, 1, -1, 0]
    values += [rng.randrange(-top, top) for _ in range(40)] + [-top, 0]
    origin = 7
    cells = {origin + s: v for s, v in enumerate(values) if v}
    packed = _pack(cells, origin, len(values), width)
    assert packed == sum(v << (8 * width * s) for s, v in enumerate(values))
    assert list(_unpack(packed, len(values), width)) == values


@settings(max_examples=120, deadline=None)
@given(st.data(), st.integers(2, 1009), st.booleans(), st.sampled_from(SLOT_WIDTHS))
def test_kronecker_slots_at_width_extremes(data, r, second, width):
    # Two products whose slots need `width` bytes.  In the first, a single
    # term c times a sum of +-1 terms, the product's slots reach
    # +-(2^(8 width - 1) - 1), the extreme of the width.  In the second,
    # (c g - c g b)(h + h b) = c g h (1 - b^2), the middle slot cancels.
    params, factor = factor_params(r, second)
    extreme = 2 ** (8 * width - 1) - 1

    def element(terms):
        return from_terms(
            (gmul(torsion_power(factor, k, params), free_power(factor, m, params), params), c)
            for k, m, c in terms
        )

    spots = data.draw(
        st.lists(st.tuples(st.integers(0, r - 1), st.integers(-3, 3)),
                 min_size=2, max_size=12, unique=True)
    )
    signs = [1, -1] + data.draw(st.lists(st.sampled_from([1, -1]), min_size=10, max_size=10))
    k, m = data.draw(st.integers(0, r - 1)), data.draw(st.integers(-3, 3))
    c = data.draw(st.sampled_from([extreme, -extreme]))
    single = element([(k, m, c)])
    signed = element([(k2, m2, sign) for (k2, m2), sign in zip(spots, signs)])
    half = extreme // 2
    (k2, m2) = spots[0]
    shear = element([(k, m, half), (k, m + 1, -half)])
    pair = element([(k2, m2, 1), (k2, m2 + 1, 1)])
    for x, y, coefficients in (
        (single, signed, {extreme, -extreme}),
        (signed, single, {extreme, -extreme}),
        (shear, pair, {half, -half}),
        (pair, shear, {half, -half}),
    ):
        xc, yc = cells(x, r), cells(y, r)
        assert _slot_width(xc, yc) == width
        expected = sparse(x, y, params)
        assert set(expected.terms.values()) == coefficients
        for kernel in (_kronecker_mul, _cell_mul):
            assert from_cells(kernel(xc, yc, r), factor, r) == expected
    # The cancelled slot: g h b has coefficient c - c.
    assert len(sparse(shear, pair, params).terms) == 2


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 40), st.booleans())
def test_mixed_and_identity_operands_take_sparse(data, r, second):
    # Neither a mixed nor an identity-only operand is taken as the
    # one-factor side of ring_mul, so neither is ever packed whole.
    params, factor = factor_params(r, second)
    x = data.draw(
        factor_elements(params, factor, r).filter(lambda e: any(g.syllables for g in e.terms))
    )
    other = 3 - factor  # the second factor, or factor 2 of a one-factor params
    if params.n == 1:
        params = PresentationParams((r, r + 1))
    cross = 2 * free_term(other, data.draw(st.integers(-3, 3)) or 1, params)
    mixed = x + cross  # keys in two factors
    two_syllables = x + group_term(
        gmul(torsion_power(factor, 1, params), free_power(other, 1, params), params)
    )
    scalar = data.draw(coefficients.filter(bool)) * one()
    for z in (mixed, two_syllables, scalar):
        assert _factor_cells(z, params) is None
        for a, b in ((z, x), (x, z)):
            assert ring_mul(a, b, params) == sparse(a, b, params)


def test_out_of_range_torsion_exponent_still_raises():
    # N_1 at r = 7 has a1^5 and a1^6, out of range for r = 5.  The shape
    # alone would make it the one-factor side; the range check sends it to
    # the other side, where check_reduced rejects it.
    p5 = PresentationParams((5,))
    foreign = norm_element(1, PresentationParams((7,)))
    norm = norm_element(1, p5)
    assert _factor_cells(foreign, p5) is None
    # gmul checks only its right operand; ring_mul checks both.
    p3 = PresentationParams((3,))
    stray = one() + torsion_term(1, 5, PresentationParams((7,)))
    for params, x, y in ((p5, norm, foreign), (p3, stray, norm_element(1, p3))):
        for a, b in ((x, y), (y, x)):
            with pytest.raises(ParameterError, match="different parameters"):
                ring_mul(a, b, params)


def test_factor_out_of_range_raises():
    # A syllable of factor 3 (built at n = 3) or factor 0 (no element has
    # one) cannot belong to an element at r = (2, 3); neither may index r.
    p23 = PresentationParams((2, 3))
    a0 = GroupElement(((0, 1, 0),))
    a0a1 = GroupElement(((0, 1, 0), (1, 1, 0)))
    a3 = torsion_power(3, 1, P235)
    local = torsion_term(1, 1, p23) + torsion_term(2, 1, p23)
    foreign = (
        torsion_term(3, 1, P235) + one(),  # one-factor at n = 3
        torsion_term(1, 1, P235) + torsion_term(3, 2, P235),  # mixed
        group_term(a0a1),
        group_term(a0) + free_term(1, 1, p23),
    )
    for z in foreign:
        for a, b in ((z, local), (local, z), (z, z)):
            with pytest.raises(ParameterError, match="different parameters"):
                ring_mul(a, b, p23)
    for g in (a0, a0a1, a3):
        with pytest.raises(ParameterError, match="different parameters"):
            ginv(g, p23)
        with pytest.raises(ParameterError, match="different parameters"):
            gmul(IDENTITY, g, p23)


def test_dispatch_declines_sparse_rows():
    # 300 one-term rows b^m with spread-out a-exponents at r = 1009: packing
    # would pad 599 product rows of 2018 slots for 90,000 pairs.
    p = PresentationParams((1009,))

    def rows(step):
        return from_terms(
            (gmul(torsion_power(1, step * j, p), free_power(1, j, p), p), 1 + j)
            for j in range(300)
        )

    assert not _packs(cells(rows(337), 1009), cells(rows(211), 1009), 1009)
    norm, ramp = norm_element(1, p), ramp_element(1, p)
    assert _packs(cells(norm, 1009), cells(ramp, 1009), 1009)


def test_far_apart_free_exponents():
    # b1^(10^400) and b1^-(10^400) in one operand: the packed layout would
    # need 2 * 10^400 rows, a size whose cost estimate overflows a float.
    p = PresentationParams((5, 7))
    far = 10**400
    x = from_terms(
        (gmul(torsion_power(1, j % 5, p), free_power(1, m, p), p), j + 1)
        for j, m in enumerate((0, 1, 2, -2, 3, far, -far, 5, -1, 4))
    )
    w = ring_mul(norm_element(1, p), ramp_element(1, p) + free_term(1, -3, p), p)
    assert not _packs(cells(x, 5), cells(w, 5), 5)
    y = w + ring_mul(w, torsion_term(2, 1, p), p)
    xy, yx = ring_mul(x, y, p).terms, ring_mul(y, x, p).terms
    assert xy == reference_mul(x.terms, y.terms, p)
    assert yx == reference_mul(y.terms, x.terms, p)


# ---------------------------------------------------------------------------
# The split path of ring_mul: a one-factor operand against any other.


@st.composite
def split_operands(draw):
    """(params, x, y): x in factor f's subring at an order up to 1009, with
    the identity among its keys or not; y a sum of groups v_s s and s' v_s'
    over words s not starting, s' not ending, in f (the identity among
    them), each v in f's subring.  One group may be the norm element, which
    a multiple of (1 - a_f^j) in x annihilates, and each group may hold the
    inverse of a key of x, so that its product has an identity cell."""
    r = draw(st.integers(2, 1009))
    second = draw(st.booleans())
    params = PresentationParams((r + 1, r) if second else (r, r + 1))
    f = 2 if second else 1
    x = draw(factor_elements(params, f, r, max_terms=12, spread=2))
    if draw(st.booleans()):
        x = x + draw(coefficients.filter(bool)) * one()
    annihilate = draw(st.booleans())
    if annihilate:
        j = draw(st.integers(1, r - 1))
        x = sparse(one() - torsion_term(f, j, params), x, params)
    words = st.lists(
        st.tuples(st.integers(1, 2), st.integers(0, 2), st.integers(-1, 1)), max_size=4
    )

    def word(drop_head):
        g = IDENTITY
        for i, k, m in draw(words):
            g = gmul(g, gmul(torsion_power(i, k, params), free_power(i, m, params), params), params)
        syllables = g.syllables
        edge = 0 if drop_head else -1
        if syllables and syllables[edge][0] == f:
            syllables = syllables[1:] if drop_head else syllables[:-1]
        return GroupElement(syllables)

    y = {}
    for group in range(draw(st.integers(1, 5))):
        if annihilate and group == 0:
            v = norm_element(f, params)
        else:
            v = draw(factor_elements(params, f, r, max_terms=8, spread=2))
        if x.terms and draw(st.booleans()):
            g = draw(st.sampled_from(sorted(x.terms, key=canonical_key)))
            v = v + draw(coefficients.filter(bool)) * group_term(ginv(g, params))
        head = draw(st.booleans())
        s = {word(head): 1}
        part = reference_mul(v.terms, s, params) if head else reference_mul(s, v.terms, params)
        for key, c in part.items():
            y[key] = y.get(key, 0) + c
    return params, x, RingElement({g: c for g, c in y.items() if c})


@settings(max_examples=120, deadline=None)
@given(split_operands())
def test_split_mul_matches_reference(operands):
    params, x, y = operands
    xy, yx = ring_mul(x, y, params).terms, ring_mul(y, x, params).terms
    assert xy == reference_mul(x.terms, y.terms, params)
    assert yx == reference_mul(y.terms, x.terms, params)
    assert all(isinstance(g, GroupElement) for g in (*xy, *yx))


def test_split_group_products_vanish_or_leave_the_suffix():
    # At r = (5, 3), with suffixes s = a2 b2 and t = a2^2 and u = a1^3 b1^-1:
    # y = u s + N_1 + (u + N_1) t has the groups {u}, {N_1} and {u, N_1}.
    # x = 3 a1^2 b1 has x u = 3, so x y holds 3 s, a group product that is
    # the identity next to its suffix; and (1 - a1) N_1 = 0, so the N_1
    # parts of y add nothing to (1 - a1) y.  Both orientations.
    p = PresentationParams((5, 3))
    x = 3 * group_term(gmul(torsion_power(1, 2, p), free_power(1, 1, p), p))
    shear = one() - torsion_term(1, 1, p)
    u = group_term(gmul(torsion_power(1, 3, p), free_power(1, -1, p), p))
    norm = norm_element(1, p)
    s = gmul(torsion_power(2, 1, p), free_power(2, 1, p), p)
    t = torsion_power(2, 2, p)
    for left in (True, False):
        def ref(a, b):  # a * b from the left, b * a from the right
            return sparse(a, b, p) if left else sparse(b, a, p)

        def mul(a, b):
            return ring_mul(a, b, p) if left else ring_mul(b, a, p)

        y = ref(u, group_term(s)) + norm + ref(u + norm, group_term(t))
        assert mul(x, y) == ref(x, y)
        assert mul(x, y).terms[s] == 3
        assert mul(shear, y) == ref(shear, y) == ref(shear, ref(u, group_term(s) + group_term(t)))


# ---------------------------------------------------------------------------
# Ring axioms as properties, over supports that mix one-factor and
# multi-factor elements so both paths of ring_mul run.

P357 = PresentationParams((3, 5, 7))


@st.composite
def ring_triples(draw, params=P357):
    """Three elements, each in one factor's subring (the same factor for all
    three, so that their products take the packed path) or spread over
    several factors."""
    factor = draw(st.integers(1, params.n))

    def element():
        if draw(st.integers(0, 3)):
            r = params.order(factor)
            return draw(factor_elements(params, factor, r, max_terms=20, spread=1))
        seed = draw(st.integers(0, 2**32))
        return random_ring(random.Random(seed), params, coeff_bound=10**6)

    return element(), element(), element()


@settings(max_examples=100, deadline=None)
@given(ring_triples())
def test_associativity_property(xyz):
    x, y, z = xyz
    p = P357
    assert ring_mul(ring_mul(x, y, p), z, p) == ring_mul(x, ring_mul(y, z, p), p)


@settings(max_examples=100, deadline=None)
@given(ring_triples())
def test_distributivity_property(xyz):
    x, y, z = xyz
    p = P357
    assert ring_mul(x, y + z, p) == ring_mul(x, y, p) + ring_mul(x, z, p)
    assert ring_mul(x + y, z, p) == ring_mul(x, z, p) + ring_mul(y, z, p)


@settings(max_examples=100, deadline=None)
@given(ring_triples())
def test_star_anti_automorphism_property(xyz):
    x, y, _ = xyz
    p = P357
    assert star(ring_mul(x, y, p), p) == ring_mul(star(y, p), star(x, p), p)


# ---------------------------------------------------------------------------
# ring_to_text's per-document memo against the plain rendering.


def reference_ring_to_text(x):
    """The terms of x in canonical_key order, each word through
    element_to_text: the rendering ring_to_text is held to."""
    chunks = []
    for g, c in sorted(x.terms.items(), key=lambda t: canonical_key(t[0])):
        body = element_to_text(g)
        term = body if abs(c) == 1 else f"{abs(c)}*{body}"
        if not chunks:
            chunks.append(term if c > 0 else "-" + term)
        else:
            chunks.append((" + " if c > 0 else " - ") + term)
    return "".join(chunks) or "0"


# Factor indices 1 and 2 at several orders: one cell, such as 12, spells
# b1^2 at r_1 = 3 and a1^2 b1 at r_1 = 5.
MEMO_PARAMS = [
    PresentationParams((3, 5)),
    PresentationParams((5, 3)),
    PresentationParams((5,)),
    PresentationParams((3, 4, 7)),
]


@st.composite
def memo_elements(draw):
    """An element in dict form, grouped with suffixes other than (), or
    grouped with the suffix () alone (on cells), or zero, with negative and
    multi-digit coefficients where it has any."""
    params = draw(st.sampled_from(MEMO_PARAMS))
    factor = draw(st.integers(1, params.n))
    form = draw(st.sampled_from(["dict", "cell", "grouped", "zero"]))
    if form == "zero":
        return draw(st.sampled_from([zero(), 0 * torsion_term(factor, 1, params)]))
    if form == "grouped":
        rng = random.Random(draw(st.integers(0, 2**32)))
        row = starred_fox_row(random_word(rng, params.n, max_len=8), params)
        grouped = [col for col in row if col.groups and not one_factor(col)]
        return draw(st.sampled_from(grouped)) if grouped else row[0]
    if form == "dict":
        return draw(syllable_elements(params, max_terms=8))
    x = draw(factor_elements(params, factor, params.order(factor), max_terms=12))
    x = from_groups(factor, params.r, groups_at(x, factor, params.r))
    assert one_factor(x) or x.is_zero
    return x


@settings(max_examples=150, deadline=None)
@given(st.lists(memo_elements(), min_size=1, max_size=10))
def test_ring_to_text_memo_matches_plain(elements):
    memo = {}
    for _ in range(2):  # the second round reads every word from the memo
        for x in elements:
            text = ring_to_text(x, memo)
            assert text == ring_to_text(x) == reference_ring_to_text(x)


def test_ring_to_text_memo_keeps_orders_apart():
    memo = {}
    for r, spelled in ((3, "-7*b1^2"), (5, "-7*a1^2 b1"), (3, "-7*b1^2")):
        x = from_groups(1, (r,), {IDENTITY: {12: -7}})
        assert ring_to_text(x, memo) == spelled == reference_ring_to_text(x)
    assert ring_to_text(from_groups(1, (5,), {IDENTITY: {0: 10, -10: -1}}), memo) == "10*e - b1^-1"
