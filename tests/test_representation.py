"""The ring kernel, the readers and the checker held to rho: G -> GL_2(F_p)
(see representation.py), which reads keys, words and ring text without
normalform or groupring.  Every representation has a fixed seed, so the
tests are deterministic."""

import itertools
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from relcert.certificate import build_certificate, certificate_bytes, check_certificate_json
from relcert.freewords import (
    FreeWord,
    PresentationParams,
    agen,
    bgen,
    commutator_relator,
    power_relator,
    random_word,
    single,
    word_to_text,
)
from relcert.groupring import (
    _cell_mul,
    _factor_cells,
    _kronecker_mul,
    norm_element,
    one,
    parse_ring,
    ramp_element,
    ring_mul,
    ring_to_text,
)
from relcert.normalform import project

from representation import field_prime, rho_for
from test_certificate import FAMILIES, _swap_lambda_columns, mutate_one_coefficient
from test_groupring import (
    BIG,
    GENUINE_TEXTS,
    cells,
    factor_elements,
    factor_params,
    from_cells,
    random_ring,
    split_operands,
    syllable_elements,
)

P7 = PresentationParams((7,))
WORD_PARAMS = [PresentationParams(r) for r in ((2, 3), (2, 3, 5), (3, 4, 5), (7,), (1009, 1010))]


def assert_multiplies(rho, x, y, product):
    assert rho.ring(product) == rho.mul(rho.ring(x), rho.ring(y))


def test_rho_is_a_representation():
    for params in WORD_PARAMS:
        rho = rho_for(params)
        assert all((rho.p - 1) % r == 0 for r in params.r)
        assert rho.p == field_prime(params.r) > 2**61
        for i in range(1, params.n + 1):
            # The relators map to 1, the generators do not.
            assert rho.word(commutator_relator(i)) == rho.identity
            assert rho.word(power_relator(i, params)) == rho.identity
            assert rho.word(single(agen(i))) != rho.identity
            assert rho.word(single(bgen(i))) != rho.identity
        a1, b1 = rho.word(single(agen(1))), rho.word(single(bgen(1)))
        if params.n > 1:
            # Generators of different factors do not commute.
            a2 = rho.word(single(agen(2)))
            assert rho.mul(a1, a2) != rho.mul(a2, a1)
            assert rho.mul(b1, a2) != rho.mul(a2, b1)


def cancelling_words(rng, params):
    """u c rel c^-1 v and its value u v: the relator rel (a commutator, a
    power a_i^r_i or a split power a_i^j a_i^(r_i - j)) meets its conjugate
    c only in G, so the cancellation cascades through c's syllables, across
    factors, in project but not in the free reduction."""
    n = params.n
    u, v, c = (random_word(rng, n, max_len=8) for _ in range(3))
    i = rng.randint(1, n)
    r = params.order(i)
    j = rng.randrange(1, r)
    rel = rng.choice([
        commutator_relator(i),
        power_relator(i, params),
        FreeWord(((agen(i), j),)) * FreeWord(((bgen(i), 2),))
        * FreeWord(((agen(i), r - j),)) * FreeWord(((bgen(i), -2),)),
    ])
    return u * c * rel * c.inverse() * v, u * v


def test_rho_project_matches_letters():
    rng = random.Random(41)
    for params in WORD_PARAMS:
        rho = rho_for(params)
        for _ in range(60):
            w = random_word(rng, params.n, max_len=12)
            assert rho.key(project(w, params)) == rho.word(w)
            w, value = cancelling_words(rng, params)
            assert rho.key(project(w, params)) == rho.word(w) == rho.word(value)


MIXED_PARAMS = st.sampled_from([PresentationParams((2, 3, 5)), PresentationParams((3, 5, 7))])


@settings(max_examples=60, deadline=None)
@given(st.data(), MIXED_PARAMS)
def test_rho_general_products(data, params):
    # Both operands spread over several factors: the plain convolution.
    x = data.draw(syllable_elements(params).filter(lambda e: _factor_cells(e, params) is None))
    y = data.draw(syllable_elements(params).filter(lambda e: _factor_cells(e, params) is None))
    rho = rho_for(params)
    assert_multiplies(rho, x, y, ring_mul(x, y, params))
    assert_multiplies(rho, y, x, ring_mul(y, x, params))


@settings(max_examples=100, deadline=None)
@given(st.data(), st.one_of(st.integers(2, 64), st.integers(65, 1009)), st.booleans())
def test_rho_one_factor_products(data, r, second):
    # Both operands in one factor's subring, through ring_mul and, at orders
    # up to 64, through each cell kernel whichever _packs would pick (a
    # packed row costs r slots, so large orders are left to ring_mul).
    params, factor = factor_params(r, second)
    x = data.draw(factor_elements(params, factor, r))
    y = data.draw(factor_elements(params, factor, r))
    rho = rho_for(params)
    assert_multiplies(rho, x, y, ring_mul(x, y, params))
    if r <= 64 and not x.is_zero and not y.is_zero:
        for kernel in (_kronecker_mul, _cell_mul):
            assert_multiplies(rho, x, y, from_cells(kernel(cells(x, r), cells(y, r), r), factor, r))


@settings(max_examples=50, deadline=None)
@given(split_operands())
def test_rho_split_products(operands):
    params, x, y = operands
    rho = rho_for(params)
    assert_multiplies(rho, x, y, ring_mul(x, y, params))
    assert_multiplies(rho, y, x, ring_mul(y, x, params))


def test_rho_packed_norm_products():
    # N * T at r = 509 and 1009, a product _packs sends to the Kronecker
    # kernel, against rho's own norm and ramp images.
    for r in (509, 1009):
        params = PresentationParams((r,))
        rho = rho_for(params)
        norm, ramp = norm_element(1, params), ramp_element(1, params)
        a = rho.word(single(agen(1)))
        powers = list(itertools.accumulate([a] * (r - 1), rho.mul, initial=rho.identity))
        rho_norm = rho.identity
        rho_ramp = rho.zero
        for j, power in enumerate(powers[1:], start=1):
            rho_norm = rho.add(rho_norm, power)
            rho_ramp = rho.add(rho_ramp, tuple(j * s % rho.p for s in power))
        assert rho.ring(norm) == rho_norm and rho.ring(ramp) == rho_ramp
        assert rho.ring(ring_mul(norm, ramp, params)) == rho.mul(rho_norm, rho_ramp)


def ring_texts(rng, params, count):
    """Ring text with unreduced words: letters of one generator side by
    side, exponents past r_i and below zero, '*' and runs of spaces as
    separators, coefficients up to 2^200."""
    texts = []
    for _ in range(count):
        chunks = []
        for t in range(rng.randint(1, 5)):
            w = random_word(rng, params.n, max_len=6)
            letters = [
                (g, e * rng.choice((1, 1, params.order(g.index) + 1, -7))) for g, e in w
            ]
            if letters and rng.random() < 0.5:
                letters.insert(rng.randrange(len(letters)), letters[rng.randrange(len(letters))])
            body = rng.choice((" ", "*", "  ")).join(
                str(g) if e == 1 else f"{g}^{e}" for g, e in letters
            ) or "e"
            c = rng.choice((1, 2, 17, rng.randrange(1, BIG)))
            sign = rng.choice(("+", "-"))
            lead = f" {sign} " if t else sign.strip("+")
            chunks.append(lead + (body if c == 1 else f"{c}*{body}"))
        texts.append("".join(chunks))
    return texts


def test_rho_parse_ring_matches_text():
    rng = random.Random(43)
    cases = list(GENUINE_TEXTS)
    for params in WORD_PARAMS[:4]:
        cases += [(text, params) for text in ring_texts(rng, params, 75)]
        cases += [(ring_to_text(random_ring(rng, params)), params) for _ in range(25)]
        cases += [(word_to_text(random_word(rng, params.n)), params) for _ in range(25)]
    for text, params in cases:
        rho = rho_for(params)
        assert rho.ring(parse_ring(text, params)) == rho.text(text), text


def norm_seeing_rhos(params):
    """Representations of seeds 0, 1, ... until, for each factor i, one of
    them sends N_i to a nonzero matrix; a single one may send every power
    class E_i to 0."""
    rhos = []
    for seed in itertools.count():
        rhos.append(rho_for(params, seed))
        if all(any(rho.sees_norm(i) for rho in rhos) for i in range(1, params.n + 1)):
            return rhos


def rho_verdicts(obj, params):
    """Each relation item passes when it passes under every rho."""
    verdicts = [rho.relation_verdicts(obj, params) for rho in norm_seeing_rhos(params)]
    return {name: all(v[name] for v in verdicts) for name in verdicts[0]}


# The relation item that a one-coefficient mutant of each matrix breaks,
# and which of its two indices names it: entry [k][i] of lambda or mu
# reconstructs class i + 1, row i of alpha is kernel i + 1.  Mutants of t,
# s and the trace break no relation item.
BROKEN_ITEM = {
    "lambda": ("D_{} reconstruction", 1),
    "mu": ("E_{} reconstruction", 1),
    "alpha": ("alpha_{} kernel", 0),
}


def certificate_cases(params, count, seed):
    """(JSON tree, names of the relation items it breaks): the genuine
    certificate, '+ e' added to lambda[0][0], two lambda columns swapped
    (n >= 2) and `count` one-coefficient mutants."""
    genuine = json.loads(certificate_bytes(build_certificate(params)))
    cases = [(genuine, set())]
    obj = json.loads(json.dumps(genuine))
    obj["lambda"][0][0] = ring_to_text(parse_ring(obj["lambda"][0][0], params) + one())
    cases.append((obj, {"D_1 reconstruction"}))
    if params.n >= 2:  # one factor has a single lambda column
        obj = json.loads(json.dumps(genuine))
        _swap_lambda_columns(obj)
        cases.append((obj, {"D_1 reconstruction", "D_2 reconstruction"}))
    rng = random.Random(seed)
    for _ in range(count):
        obj = json.loads(json.dumps(genuine))
        site, _, index = mutate_one_coefficient(obj, rng, params).partition("[")
        if site in BROKEN_ITEM:
            name, axis = BROKEN_ITEM[site]
            indices = index.rstrip("]").split("][")
            cases.append((obj, {name.format(int(indices[axis]) + 1)}))
        else:
            cases.append((obj, set()))
    return cases


def test_rho_certificate_verdicts_match_checker():
    for seed, params in enumerate([*FAMILIES, P7]):
        cases = certificate_cases(params, 20, seed)
        assert check_certificate_json(cases[0][0]).accepted
        for obj, broken in cases:
            expected = rho_verdicts(obj, params)
            assert {name for name, passed in expected.items() if not passed} == broken
            report = check_certificate_json(obj)
            checked = {item.name: item.passed for item in report.items if item.name in expected}
            assert checked == expected
