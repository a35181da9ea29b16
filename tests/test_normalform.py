import random

import pytest

from relcert.errors import ParameterError
from relcert.freewords import (
    FreeWord,
    PresentationParams,
    agen,
    bgen,
    commutator_relator,
    parse_word,
    power_relator,
    random_word,
)
from relcert.normalform import (
    IDENTITY,
    GroupElement,
    element_to_text,
    free_power,
    ginv,
    gmul,
    project,
    torsion_power,
)
from test_freewords import conjugate_by

P23 = PresentationParams((2, 3))
P235 = PresentationParams((2, 3, 5))
P3 = PresentationParams((3, 5))


def canonical_key(x):
    """Sort key for the canonical total order of ring text: syllable count
    first, then lexicographic on (factor, k, m) tuples with integer order
    on m."""
    return (len(x), x)


def test_project_kills_relators():
    for p in (P23, P235):
        for i in range(1, p.n + 1):
            assert not project(commutator_relator(i), p)
            assert not project(power_relator(i, p), p)


def test_project_example():
    # r1 = 3: a1^4 b1^-2 a2 has syllables (1, k=1, m=-2), (2, k=1, m=0)
    w = FreeWord(((agen(1), 4), (bgen(1), -2), (agen(2), 1)))
    assert project(w, P3).syllables == ((1, 1, -2), (2, 1, 0))


def test_project_out_of_range():
    with pytest.raises(ParameterError, match="exceeds n=3"):
        project(FreeWord(((agen(4), 1),)), P235)
    # factor 0 is no factor: without the check it reads r[-1]
    with pytest.raises(ParameterError):
        project(FreeWord(((agen(0), 1),)), P235)


def test_project_homomorphism_random():
    rng = random.Random(5)
    for _ in range(1000):
        u = random_word(rng, 3)
        v = random_word(rng, 3)
        assert project(u * v, P235) == gmul(project(u, P235), project(v, P235), P235)


def test_relator_conjugates_project_to_identity():
    rng = random.Random(9)
    for _ in range(200):
        g = random_word(rng, 3)
        i = rng.randint(1, 3)
        assert not project(conjugate_by(commutator_relator(i), g), P235)
        assert not project(conjugate_by(power_relator(i, P235), g), P235)


def test_factor_generators_commute():
    ab = FreeWord(((agen(1), 1), (bgen(1), 1)))
    ba = FreeWord(((bgen(1), 1), (agen(1), 1)))
    assert project(ab, P235) == project(ba, P235)


def test_gmul_examples():
    # 2 + 2 = 1 mod 3
    x = GroupElement(((1, 2, 0),))
    assert gmul(x, x, P3) == GroupElement(((1, 1, 0),))
    # distinct factors concatenate
    y = GroupElement(((2, 0, 1),))
    a = GroupElement(((1, 1, 0),))
    assert gmul(a, y, P3).syllables == ((1, 1, 0), (2, 0, 1))


def test_gmul_cascading_cancellation():
    # (a1 b2) * (b2^-1 a1^2) fully collapses under r1 = 3
    x = GroupElement(((1, 1, 0), (2, 0, 1)))
    y = GroupElement(((2, 0, -1), (1, 2, 0)))
    assert not gmul(x, y, P3)


def test_ginv_and_group_axioms_random():
    rng = random.Random(13)
    for _ in range(500):
        x = project(random_word(rng, 3), P235)
        y = project(random_word(rng, 3), P235)
        z = project(random_word(rng, 3), P235)
        assert not gmul(x, ginv(x, P235), P235)
        assert gmul(gmul(x, y, P235), z, P235) == gmul(x, gmul(y, z, P235), P235)
        assert ginv(gmul(x, y, P235), P235) == gmul(ginv(y, P235), ginv(x, P235), P235)


def test_built_syllables_are_syllables():
    # Every builder makes its syllables as plain (factor, k, m) tuples, one
    # shape for every key, not a tuple subclass that equality cannot tell apart.
    rng = random.Random(17)
    built = [torsion_power(1, 2, P3), free_power(2, -4, P3)]
    for _ in range(100):
        x = project(random_word(rng, 3), P235)
        built += [x, ginv(x, P235), gmul(x, x, P235)]
    for g in built:
        assert type(g) is GroupElement
        assert all(type(s) is tuple for s in g), g


def test_mismatched_params_guard():
    big = PresentationParams((5, 7))
    x = torsion_power(1, 4, big)
    with pytest.raises(ParameterError):
        gmul(x, x, P23)
    with pytest.raises(ParameterError):
        ginv(x, P23)


def test_canonical_order():
    def canonical_order(x, y):
        kx, ky = canonical_key(x), canonical_key(y)
        return (kx > ky) - (kx < ky)

    a = torsion_power(1, 1, P3)
    a2 = torsion_power(1, 2, P3)
    b2 = free_power(2, 1, P3)
    longer = gmul(free_power(1, 1, P3), b2, P3)
    assert canonical_order(IDENTITY, a) == -1
    assert canonical_order(a, a2) == -1
    assert canonical_order(b2, longer) == -1
    assert canonical_order(a, a) == 0
    assert canonical_order(a2, a) == 1
    # negative free exponents sort below positive ones
    assert canonical_order(free_power(1, -1, P3), free_power(1, 1, P3)) == -1


def test_torsion_and_free_power():
    assert not torsion_power(1, 3, P3)
    assert torsion_power(1, -1, P3) == torsion_power(1, 2, P3)
    assert not free_power(1, 0, P3)
    with pytest.raises(ParameterError):
        torsion_power(5, 1, P3)


def test_element_text():
    assert element_to_text(IDENTITY) == "e"
    assert element_to_text(torsion_power(1, 1, P3)) == "a1"
    assert element_to_text(GroupElement(((1, 2, -1),))) == "a1^2 b1^-1"
    x = GroupElement(((2, 0, 1), (1, 1, 0)))
    assert element_to_text(x) == "b2 a1"


def test_element_text_round_trip():
    rng = random.Random(17)
    for _ in range(300):
        x = project(random_word(rng, 3), P235)
        assert project(parse_word(element_to_text(x), 3), P235) == x
