import random

import pytest

from relcert.errors import ParameterError
from relcert.freewords import (
    PresentationParams,
    commutator_relator,
    power_relator,
    random_word,
)
from relcert.foxcomplex import d2_matrix, starred_fox_row
from relcert.groupring import (
    free_term,
    norm_element,
    one,
    ring_mul,
    torsion_term,
    zero,
)
from relcert.normalform import project
from relcert.relmodule import (
    check_module_identities,
    check_reduction,
    lifted_generator,
    module_generator,
    reduction_multiplier,
)
from test_groupring import group_term, star
from test_freewords import conjugate_by

P23 = PresentationParams((2, 3))
P235 = PresentationParams((2, 3, 5))
FAMILIES = [P23, P235, PresentationParams((3, 4, 5))]
D23, D235 = d2_matrix(P23), d2_matrix(P235)


def test_commutator_image_coords():
    d1 = D235[0]
    assert d1[0] == one() - free_term(1, -1, P235)
    assert d1[1] == torsion_term(1, -1, P235) - one()
    assert all(d1[j].is_zero for j in range(2, 6))
    # factor-2 class has no factor-1 support
    assert D235[1][0].is_zero


def test_power_image_coords():
    e1 = D235[P235.n]
    assert e1[0] == norm_element(1, P235)
    assert all(e1[j].is_zero for j in range(1, 6))


def test_act_unit_and_composition():
    rng = random.Random(61)
    from relcert.groupring import from_terms

    def rand_ring():
        pairs = []
        for _ in range(rng.randint(0, 4)):
            pairs.append((project(random_word(rng, 3, max_len=5), P235), rng.randint(-3, 3)))
        return from_terms(pairs)

    m = D235[0]
    assert m.act(one(), P235) == m
    for _ in range(60):
        lam = rand_ring()
        mu = rand_ring()
        assert m.act(lam, P235).act(mu, P235) == m.act(ring_mul(lam, mu, P235), P235)


def test_module_identities():
    # E_i (1 - a_i) = 0 and D_i N_i = E_i (1 - b_i^-1)
    e1 = D235[P235.n]
    assert e1.act(one() - torsion_term(1, 1, P235), P235).is_zero
    d1 = D235[0]
    assert d1.act(norm_element(1, P235), P235) == e1.act(
        one() - free_term(1, -1, P235), P235
    )
    # the b1 coordinate of D_1 N_1: (a1^-1 - 1) N_1 = 0
    assert d1.act(norm_element(1, P235), P235)[1].is_zero
    for p in FAMILIES:
        for i in range(1, p.n + 1):
            report = check_module_identities(i, d2_matrix(p), p)
            assert list(report) == ["power_annihilated", "norm_transfer"]
            assert all(report.values())


def test_module_generators():
    x1 = module_generator(1, D235, P235)
    shear = one() - torsion_term(1, 1, P235)
    expected_a1 = norm_element(1, P235) + ring_mul(
        one() - free_term(1, -1, P235), shear, P235
    )
    assert x1[0] == expected_a1
    assert x1[1] == ring_mul(torsion_term(1, -1, P235) - one(), shear, P235)
    # factor-2 generator has no factor-1 support
    assert module_generator(2, D235, P235)[1].is_zero
    top = module_generator(P235.n + 1, D235, P235)
    for i in range(1, P235.n + 1):
        assert top[2 * (i - 1)] == one() - free_term(i, -1, P235)
        assert top[2 * (i - 1) + 1] == torsion_term(i, -1, P235) - one()
    with pytest.raises(ParameterError):
        module_generator(P235.n + 2, D235, P235)


def test_reduction_multiplier_small():
    # r = 2: w = (1 - b^-1)(1 + a) + (a - 1) a = 2 - b^-1 - b^-1 a
    w = reduction_multiplier(1, P23)
    binv = free_term(1, -1, P23)
    expected = 2 * one() - binv - ring_mul(binv, torsion_term(1, 1, P23), P23)
    assert w == expected
    assert star(star(w, P23), P23) == w
    for p in FAMILIES:
        for i in range(1, p.n + 1):
            # augmentation (coefficient sum) zero
            assert sum(reduction_multiplier(i, p).terms.values()) == 0


def test_reduction_identity_r2():
    # X_1 w_1 = D_1 * 4 at r_1 = 2
    x = module_generator(1, D23, P23)
    w = reduction_multiplier(1, P23)
    d = D23[0]
    assert x.act(w, P23) == d.act(4 * one(), P23)


def test_reduction_reports():
    for p in FAMILIES + [PresentationParams((5,))]:
        for i in range(1, p.n + 1):
            report = check_reduction(i, d2_matrix(p), p)
            assert report["total"]
            assert report["power_norm_term"]
            assert report["power_ramp_term"]
            assert report["commutator_norm_term"]
            assert report["commutator_ramp_term"]
            assert list(report) == [
                "total", "power_norm_term", "power_ramp_term",
                "commutator_norm_term", "commutator_ramp_term",
            ]


def test_conjugation_consistency():
    # the defining property of the embedding: the starred row of g^-1 w g
    # equals the row of w acted on by the image of g
    rng = random.Random(67)
    for _ in range(200):
        i = rng.randint(1, 3)
        g = random_word(rng, 3)
        coeff = group_term(project(g, P235))
        conj = conjugate_by(commutator_relator(i), g)
        assert starred_fox_row(conj, P235) == D235[i - 1].act(coeff, P235)
        conj = conjugate_by(power_relator(i, P235), g)
        assert starred_fox_row(conj, P235) == D235[P235.n + i - 1].act(coeff, P235)


def test_images_are_the_boundary_rows():
    # the generators read through d2 from their C2 coordinates are the
    # paper's X_k = E_k + D_k (1 - a_k) and X_{n+1} = D_1 + ... + D_n,
    # written out here by hand from the rows of d2
    for p in FAMILIES:
        d2 = d2_matrix(p)
        n = p.n
        for k in range(1, n + 1):
            shear = one() - torsion_term(k, 1, p)
            expected = d2[n + k - 1] + d2[k - 1].act(shear, p)
            assert module_generator(k, d2, p) == expected
        total = d2[0]
        for i in range(2, n + 1):
            total = total + d2[i - 1]
        assert module_generator(n + 1, d2, p) == total


def test_row_reads_check_the_factor_index():
    # without the check, i = 0 would read E_n through d2[-1]
    for i in (0, P235.n + 1):
        with pytest.raises(ParameterError):
            check_module_identities(i, D235, P235)
        with pytest.raises(ParameterError):
            check_reduction(i, D235, P235)
    with pytest.raises(ParameterError):
        module_generator(0, D235, P235)


def test_zero_detection():
    d = D23[0]
    assert not d.is_zero
    assert (d - d).is_zero
    assert len(d - d) == 4


def test_lifted_generators():
    x1 = lifted_generator(1, P23)
    assert x1[0] == one() - torsion_term(1, 1, P23)
    assert x1[1].is_zero
    assert x1[2] == one()
    assert x1[3].is_zero
    top = lifted_generator(3, P23)
    assert top[0] == one() and top[1] == one()
    assert top[2].is_zero and top[3].is_zero
    with pytest.raises(ParameterError):
        lifted_generator(4, P23)
