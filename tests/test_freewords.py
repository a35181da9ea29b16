import random

import pytest

from relcert.errors import ParameterError, ParseError
from relcert.freewords import (
    EMPTY_WORD,
    FreeWord,
    PresentationParams,
    agen,
    bgen,
    commutator_relator,
    conjugate_power_product,
    generators,
    parse_word,
    power_conjugate_commutator,
    power_relator,
    power_relator_commutator,
    random_word,
    single,
    telescoped_power_product,
    torsion_relator_commutator,
    verify_free_identities,
    word_to_text,
)

A1, B1, A2, B2 = agen(1), bgen(1), agen(2), bgen(2)


def test_params_validation():
    p = PresentationParams((2, 3, 5))
    assert p.n == 3
    assert p.order(2) == 3
    with pytest.raises(ParameterError, match=r"r\[0\]=2 and r\[1\]=4 not coprime"):
        PresentationParams((2, 4, 5))
    with pytest.raises(ParameterError):
        PresentationParams((1, 3))
    with pytest.raises(ParameterError):
        PresentationParams(())
    with pytest.raises(ParameterError):
        p.order(4)


@pytest.mark.parametrize(
    "r, message",
    [
        ((-(10**5000),), r"r\[0\]=-<16610-bit integer> must be an integer >= 2"),
        ((10**5000, 10), r"r\[0\]=<16610-bit integer> and r\[1\]=10 not coprime"),
    ],
    ids=["range", "coprime"],
)
def test_params_huge_order_message(r, message):
    # Past 4300 digits int() refuses to print, so the message names bits.
    with pytest.raises(ParameterError, match=message) as info:
        PresentationParams(r)
    assert len(str(info.value)) < 100


def test_reduce_cancellation():
    assert FreeWord.from_letters([(A1, 1), (A1, -1)]) == EMPTY_WORD
    assert FreeWord.from_letters([(A1, 1), (B1, 1), (B1, -1), (A1, 1)]) == FreeWord(
        ((A1, 2),)
    )


def test_reduce_rejects_invalid_letters():
    from relcert.freewords import Generator

    with pytest.raises(ParameterError):
        FreeWord.from_letters([(Generator("c", 1), 1)])
    with pytest.raises(ParameterError):
        FreeWord.from_letters([(Generator("a", 0), 1)])
    with pytest.raises(ParameterError):
        FreeWord.from_letters([(A1, "2")])


def test_reduce_conjugated_commutator():
    # a1^-1 [a1,b1] a1 reduces to b1 a1^-1 b1^-1 a1
    w = commutator_relator(1).conjugate_by(single(A1))
    assert w.letters == ((B1, 1), (A1, -1), (B1, -1), (A1, 1))


def test_multiply_and_invert():
    a = single(A1)
    assert (a * a.inverse()).is_identity
    ab = FreeWord(((A1, 1), (B2, 1)))
    assert ab.inverse().letters == ((B2, -1), (A1, -1))


def test_pow():
    a = single(A1)
    assert (a**5).letters == ((A1, 5),)
    assert (a**0).is_identity
    assert (a**-3).letters == ((A1, -3),)
    w = FreeWord(((A1, 1), (B1, 1)))
    assert w**2 == w * w
    assert w**-2 == (w * w).inverse()


def test_relators():
    assert commutator_relator(1).letters == ((A1, 1), (B1, 1), (A1, -1), (B1, -1))
    p = PresentationParams((2, 3))
    assert power_relator(1, p).letters == ((A1, 2),)
    assert power_relator(2, p).letters == ((A2, 3),)
    with pytest.raises(ParameterError):
        power_relator(3, p)
    with pytest.raises(ParameterError):
        commutator_relator(0)


def test_group_axioms_random():
    rng = random.Random(7)
    for _ in range(1000):
        u = random_word(rng, 3)
        v = random_word(rng, 3)
        assert (u * u.inverse()).is_identity
        assert (u * v).inverse() == v.inverse() * u.inverse()
        # reduction is idempotent
        assert FreeWord.from_letters(u.letters) == u


def test_conjugate_matches_definition():
    rng = random.Random(11)
    for _ in range(100):
        w = random_word(rng, 2)
        g = random_word(rng, 2)
        assert w.conjugate_by(g) == g.inverse() * w * g


def test_free_identity_words_at_r2():
    # all four chain words reduce to b1 a1^-2 b1^-1 a1^2
    p = PresentationParams((2, 3))
    expected = FreeWord(((B1, 1), (A1, -2), (B1, -1), (A1, 2)))
    assert conjugate_power_product(1, p) == expected
    assert telescoped_power_product(1, p) == expected
    assert power_conjugate_commutator(1, p) == expected
    assert power_relator_commutator(1, p) == expected
    assert torsion_relator_commutator(1, p).is_identity


def _conjugate_power_product_by_products(i, params):
    # The definition, one conjugate product at a time with a_i^j by repeated
    # squaring: the oracle of the one-pass conjugate_power_product.
    rel = commutator_relator(i)
    a = single(agen(i))
    out = EMPTY_WORD
    for j in range(1, params.order(i) + 1):
        out = out * rel.conjugate_by(a**j)
    return out


def test_conjugate_power_product_matches_successive_products():
    for r in range(2, 61):
        p = PresentationParams((r,))
        assert conjugate_power_product(1, p) == _conjugate_power_product_by_products(1, p)
    p = PresentationParams((61, 67))
    for i in (1, 2):
        assert conjugate_power_product(i, p) == _conjugate_power_product_by_products(i, p)
        r = p.order(i)
        assert conjugate_power_product(i, p).letters == (
            (bgen(i), 1), (agen(i), -r), (bgen(i), -1), (agen(i), r)
        )


def test_verify_free_identities():
    assert verify_free_identities(1, PresentationParams((5,)))
    for r in [(2, 3), (2, 3, 5), (3, 4, 5)]:
        p = PresentationParams(r)
        for i in range(1, p.n + 1):
            assert verify_free_identities(i, p)


def test_word_text_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        w = random_word(rng, 3)
        assert parse_word(word_to_text(w), 3) == w


def test_parse_word_forms():
    assert parse_word("e") == EMPTY_WORD
    assert parse_word("a1*b1*a1^-1*b1^-1") == commutator_relator(1)
    assert parse_word("a1 b1 a1^-1 b1^-1") == commutator_relator(1)
    assert parse_word("a1^2") == FreeWord(((A1, 2),))
    assert parse_word("a1^0") == EMPTY_WORD
    assert parse_word("a2 a2") == FreeWord(((A2, 2),))


def test_parse_word_errors():
    with pytest.raises(ParseError) as err:
        parse_word("a1 c2")
    assert err.value.column == 4
    with pytest.raises(ParseError) as err:
        parse_word("a1^")
    assert err.value.column == 4
    with pytest.raises(ParseError) as err:
        parse_word("a b1")
    assert err.value.column == 2
    with pytest.raises(ParseError):
        parse_word("")
    with pytest.raises(ParseError):
        parse_word("e a1")
    with pytest.raises(ParseError) as err:
        parse_word("a3", n=2)
    assert err.value.column == 2
    with pytest.raises(ParseError):
        parse_word("a0")


def test_generator_column_order():
    assert [str(g) for g in generators(2)] == ["a1", "b1", "a2", "b2"]
