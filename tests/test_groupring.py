import random

import pytest

from relcert.errors import ParseError
from relcert.freewords import PresentationParams, random_word
from relcert.groupring import (
    check_cyclic_identities,
    free_term,
    from_terms,
    group_term,
    norm_element,
    one,
    parse_ring,
    ramp_element,
    ring_mul,
    ring_to_text,
    star,
    torsion_term,
    zero,
)
from relcert.normalform import IDENTITY, free_power, gmul, project, torsion_power

P3 = PresentationParams((3, 5))
P235 = PresentationParams((2, 3, 5))


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
    assert prod.support == 1


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
            assert check_cyclic_identities(i, p).ok


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
    mixed = free_term(1, -1, P3, -1) + 2 * one()
    assert ring_to_text(mixed) == "2*e - b1^-1"


def test_ring_text_round_trip():
    rng = random.Random(37)
    for _ in range(200):
        x = random_ring(rng, P235)
        assert parse_ring(ring_to_text(x), P235) == x


def test_parse_ring_inputs():
    assert parse_ring("0", P3).is_zero
    assert parse_ring("e + a1 + a1^2", P3) == norm_element(1, P3)
    assert parse_ring("2*a1 b1^-1", P3) == group_term(
        gmul(torsion_power(1, 1, P3), free_power(1, -1, P3), P3), 2
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
