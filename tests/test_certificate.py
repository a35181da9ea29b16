import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcert import checker, cli, foxcomplex, groupring
from relcert.errors import ParameterError, ParseError
from relcert.freewords import PresentationParams
from relcert.foxcomplex import RingMatrix, RingVector, apply, compose, d2_matrix
from relcert.groupring import one, parse_ring, ring_to_text, zero
from relcert.relmodule import module_generator, reduction_multiplier
from relcert.certificate import (
    ChainExport,
    basis_change,
    build_certificate,
    build_chain_export,
    certificate_bytes,
    chain_export_to_json,
    crt_coefficients,
    euler_characteristic,
    splitting_report,
)
from relcert.checker import (
    AddRightMultiple,
    basis_matrix,
    certificate_from_json,
    check_certificate,
    check_certificate_json,
    column_replay,
    permutation_of_identity,
    replay,
)
from forms import entry_state
from rebind import rebind, spy
from representation import rho_for
from test_groupring import random_ring, reference_parse_ring, syllable_elements

P23 = PresentationParams((2, 3))
P235 = PresentationParams((2, 3, 5))
P7 = PresentationParams((7,))
PRIMES8 = (2, 3, 5, 7, 11, 13, 17, 19)
FAMILIES = [P23, P235, PresentationParams((3, 4, 5))]


def inverted(op):
    """The elementary operation undoing op: subtract the same right multiple."""
    return AddRightMultiple(op.src, op.dst, -op.coeff)


def test_crt_frozen_values():
    crt = crt_coefficients(P23)
    assert crt.t == (9, 28)
    assert crt.s == ((-2, -1), (-7, -3))


def test_crt_single_factor():
    crt = crt_coefficients(PresentationParams((2,)))
    assert crt.t == (1,)
    assert crt.s == ((0,),)


def test_crt_invariants():
    for p in FAMILIES + [PresentationParams((5, 7, 9, 11, 13))]:
        crt = crt_coefficients(p)
        moduli = [ri * ri for ri in p.r]
        big = math.prod(moduli)
        for i in range(p.n):
            assert 0 <= crt.t[i] < big
            for j in range(p.n):
                delta = 1 if i == j else 0
                assert crt.t[i] % moduli[j] == delta
                assert crt.t[i] + moduli[j] * crt.s[i][j] == delta
        assert sum(crt.t) % big == 1 % big


def test_build_reconstructs_both_families():
    for p in FAMILIES:
        cert = build_certificate(p)
        d2 = d2_matrix(p)
        gens = [module_generator(k, d2, p) for k in range(1, p.n + 2)]
        for i in range(1, p.n + 1):
            d = gens[0].act(cert.lam[0][i - 1], p)
            e = gens[0].act(cert.mu[0][i - 1], p)
            for k in range(1, p.n + 1):
                d = d + gens[k].act(cert.lam[k][i - 1], p)
                e = e + gens[k].act(cert.mu[k][i - 1], p)
            assert d == d2[i - 1]
            assert e == d2[p.n + i - 1]


def test_lambda_and_mu_formulas():
    from relcert.groupring import ring_mul, torsion_term

    for p in FAMILIES:
        cert = build_certificate(p)
        crt = cert.crt
        for i in range(1, p.n + 1):
            for j in range(1, p.n + 1):
                w = reduction_multiplier(j, p)
                assert cert.lam[j - 1][i - 1] == crt.s[i - 1][j - 1] * w
            assert cert.lam[p.n][i - 1] == crt.t[i - 1] * one()
            shear = one() - torsion_term(i, 1, p)
            for k in range(1, p.n + 2):
                expected = -ring_mul(cert.lam[k - 1][i - 1], shear, p)
                if k == i:
                    expected = one() + expected
                assert cert.mu[k - 1][i - 1] == expected


def test_single_factor_degenerates():
    # with one factor t = 1 and s = 0, so the commutator class IS the last generator
    p = PresentationParams((2,))
    cert = build_certificate(p)
    assert cert.lam[0][0].is_zero
    assert cert.lam[1][0] == one()
    d2 = d2_matrix(p)
    assert module_generator(2, d2, p) == d2[0]
    assert cert.alpha == ()
    assert cert.basis_ops == ()


def test_check_report_carries_d2_for_one_factor():
    assert check_certificate(build_certificate(P7)).d2 == d2_matrix(P7)


def test_check_builds_2n_starred_rows(monkeypatch):
    cert = build_certificate(P235)
    calls = spy(monkeypatch, foxcomplex.starred_fox_row)
    assert check_certificate(cert).accepted
    # d2 makes 2n rows; the n + 1 generators and the D/E items read them.
    assert len(calls) == 2 * P235.n


def test_kernel_elements():
    for p in FAMILIES:
        cert = build_certificate(p)
        d2 = d2_matrix(p)
        assert len(cert.alpha) == p.n - 1
        for i, a in enumerate(cert.alpha, start=1):
            assert apply(d2, a, p).is_zero
            # the E_j coordinate is minus the stored lambda coefficient
            for j in range(1, p.n + 1):
                assert a[p.n + j - 1] == -cert.lam[j - 1][i - 1]


def test_alpha_is_commutator_row_minus_generator_combination():
    # adding back the lifted-generator combination recovers the D row
    from relcert.relmodule import lifted_generator

    for p in FAMILIES:
        cert = build_certificate(p)
        for i in range(1, p.n):
            total = cert.alpha[i - 1]
            for k in range(1, p.n + 2):
                total = total + lifted_generator(k, p).act(cert.lam[k - 1][i - 1], p)
            assert total == RingVector.unit(2 * p.n, i - 1)


def reference_inverse(ops, positions, params):
    """Q = Pi^-1 E the long way: replay the trace on the identity, then move
    row r of the result to row positions[r]."""
    trace = replay(ops, RingMatrix.identity(len(positions)), params)
    rows = [None] * len(positions)
    for row_index, position in enumerate(positions):
        rows[position] = trace[row_index]
    return RingMatrix(tuple(rows))


def test_basis_change():
    for p in FAMILIES:
        cert = build_certificate(p)
        P, Q, ops = basis_change(cert)
        size = 2 * p.n
        ident = RingMatrix.identity(size)
        assert compose(P, Q, p) == ident
        assert compose(Q, P, p) == ident
        reduced = replay(ops, basis_matrix(cert), p)
        positions = permutation_of_identity(reduced)
        assert positions is not None and sorted(positions) == list(range(size))
        # the checker keeps the matrix and permutation it checked, not Q
        assert check_certificate(cert).basis == (P, positions)
        # Q is the column replay of the identity, in basis_change and in complex
        assert Q == reference_inverse(ops, positions, p) == column_replay(ops, ident, positions, p)
        assert build_chain_export(p).q == Q
    single = build_certificate(PresentationParams((2,)))
    assert check_certificate(single).basis is None
    with pytest.raises(ParameterError):
        basis_change(single)


def test_replay_and_inverted_ops():
    p = P23
    cert = build_certificate(p)
    m = basis_matrix(cert)
    forward = replay(cert.basis_ops, m, p)
    undo = tuple(inverted(op) for op in reversed(cert.basis_ops))
    assert replay(undo, forward, p) == m


def _rows(*rows):
    return RingMatrix(RingVector(row) for row in rows)


E, O = one(), zero()


@pytest.mark.parametrize(
    "m",
    [
        _rows((E, O), (O, O)),
        _rows((E, E), (O, E)),
        _rows((2 * E, O), (O, E)),
        _rows((parse_ring("a1", P23), O), (O, E)),
        _rows((E, O), (E, O)),
        _rows((E, O, O), (O, E, O)),
        _rows((E, O), (O, E), (E, O)),
    ],
    ids=["zero-row", "two-entries", "2e", "a1", "repeated-row", "2x3", "3x2"],
)
def test_permutation_of_identity_rejects(m):
    assert permutation_of_identity(m) is None


def test_permutation_of_identity_positions():
    assert permutation_of_identity(_rows((O, O, E), (E, O, O), (O, E, O))) == [2, 0, 1]
    assert permutation_of_identity(RingMatrix(())) == []


def _permuted_columns(m, positions):
    """M Pi^-1: column k of the result is column positions[k] of M."""
    return RingMatrix(tuple(RingVector(tuple(row[j] for j in positions)) for row in m))


@st.composite
def column_replay_cases(draw, params=P235):
    """A square matrix over Z[G], a permutation of its columns and a trace
    of ops with src != dst, all over G = C2 x Z * C3 x Z * C5 x Z."""
    size = draw(st.integers(2, 4))
    element = st.one_of(st.just(zero()), syllable_elements(params, max_terms=4))
    m = RingMatrix(tuple(
        RingVector(tuple(draw(element) for _ in range(size))) for _ in range(size)
    ))
    positions = draw(st.permutations(range(size)))
    rows = st.integers(0, size - 1)
    pairs = st.tuples(rows, rows).filter(lambda pair: pair[0] != pair[1])
    ops = draw(st.lists(
        st.builds(lambda pair, c: AddRightMultiple(pair[0], pair[1], c), pairs, element),
        max_size=8,
    ))
    return m, positions, tuple(ops)


def reference_replay(ops, matrix, params):
    """replay the plain way: row dst += (row src) * coeff, a vector at a time."""
    rows = list(matrix)
    for op in ops:
        rows[op.dst] = rows[op.dst] + rows[op.src].act(op.coeff, params)
    return RingMatrix(rows)


@settings(max_examples=100, deadline=None)
@given(column_replay_cases())
def test_replay_matches_reference(case):
    m, _, ops = case
    assert replay(ops, m, P235) == reference_replay(ops, m, P235)


@settings(max_examples=100, deadline=None)
@given(column_replay_cases())
def test_column_replay_matches_compose(case):
    m, positions, ops = case
    trace = replay(ops, RingMatrix.identity(len(m)), P235)
    expected = compose(_permuted_columns(m, positions), trace, P235)
    assert column_replay(ops, m, positions, P235) == expected


def _with_cancelling_pairs(ops, rng, params, pairs=6):
    """The trace with (op, inverted(op)) inserted at random positions: the
    same product of elementary matrices, reached by a longer path."""
    ops = list(ops)
    size = 2 * params.n
    for _ in range(pairs):
        src, dst = rng.sample(range(size), 2)
        op = AddRightMultiple(src, dst, random_ring(rng, params, max_support=4))
        at = rng.randint(0, len(ops))
        ops[at:at] = [op, inverted(op)]
    return tuple(ops)


@pytest.mark.parametrize(
    "orders",
    [(2, 3), (2, 3, 5), (3, 4, 5), (5, 7, 9, 11, 13), (2, 3, 5, 7, 11, 13, 17, 19)],
    ids=lambda orders: ",".join(map(str, orders)),
)
def test_column_replay_matches_compose_on_tampered_traces(orders):
    params = PresentationParams(orders)
    cert = build_certificate(params)
    tampered = _with_cancelling_pairs(cert.basis_ops, random.Random(sum(orders)), params)
    p, positions = check_certificate(cert).basis
    q = reference_inverse(cert.basis_ops, positions, params)
    expected = compose(p, q, params)
    ident = RingMatrix.identity(2 * params.n)
    assert expected == ident
    report = check_certificate(cert._replace(basis_ops=tampered))
    assert report.accepted and report.basis == (p, positions)
    for ops in (cert.basis_ops, tampered):
        positions = permutation_of_identity(replay(ops, p, params))
        assert column_replay(ops, p, positions, params) == expected
        # the column replay of the identity is Q, the same for both traces
        inverse = column_replay(ops, ident, positions, params)
        assert inverse == reference_inverse(ops, positions, params) == q


def test_check_certificate_replays_the_trace_once(monkeypatch):
    calls = spy(monkeypatch, replay)
    for p in FAMILIES + [PresentationParams((5, 7, 9, 11, 13))]:
        cert = build_certificate(p)
        calls.clear()
        assert check_certificate(cert).accepted
        assert len(calls) == 1 and calls[0].args[1] == basis_matrix(cert)


def test_splitting_report():
    for p in FAMILIES:
        cert = build_certificate(p)
        report = splitting_report(cert)
        assert report.boundary_composite_zero
        assert report.inclusion_normalized
        assert report.three_cells == p.n - 1
        assert report.lifted_generators == p.n + 1
        assert report.total_rank == 2 * p.n
        assert report.ok
    with pytest.raises(ParameterError):
        splitting_report(build_certificate(PresentationParams((2,))))


def test_euler_characteristic():
    assert euler_characteristic(3) == -1
    assert euler_characteristic(2) == 0
    assert euler_characteristic(1) == 1
    assert euler_characteristic(10) == -8
    with pytest.raises(ParameterError):
        euler_characteristic(0)


def test_check_accepts_built_certificates():
    for p in FAMILIES:
        report = check_certificate(build_certificate(p))
        assert report.accepted
        assert report.failures == ()


def test_serialization_round_trip():
    for p in FAMILIES:
        cert = build_certificate(p)
        obj = json.loads(certificate_bytes(cert))
        assert certificate_from_json(obj) == cert
        assert check_certificate_json(obj).accepted


def site_texts(obj, cert):
    """(text, element) for every ring-text site of a tree and of the
    certificate read from it."""
    for name, rows in (("lambda", cert.lam), ("mu", cert.mu), ("alpha", cert.alpha)):
        for texts, row in zip(obj[name], rows):
            yield from zip(texts, row)
    for op, parsed in zip(obj["basis_ops"], cert.basis_ops):
        yield op["coeff"], parsed.coeff


def test_repeated_texts_share_one_element():
    # Stage (a) of the trace uses the lambda entries as its coefficients, so
    # those op texts repeat lambda texts; each text is read into one element.
    for p in FAMILIES:
        obj = json.loads(certificate_bytes(build_certificate(p)))
        by_text = {}
        for text, x in site_texts(obj, certificate_from_json(obj)):
            assert by_text.setdefault(text, x) is x
        lam_texts = {t for row in obj["lambda"] for t in row}
        assert sum(op["coeff"] in lam_texts for op in obj["basis_ops"]) >= p.n - 1
    # A re-spelled text is a text of its own, read into an equal element.
    assert obj["basis_ops"][0]["coeff"] in lam_texts
    obj["basis_ops"][0]["coeff"] = " " + obj["basis_ops"][0]["coeff"]
    cert = certificate_from_json(obj)
    assert all(cert.basis_ops[0].coeff is not x for row in cert.lam for x in row)
    assert check_certificate(cert).accepted


@pytest.mark.parametrize("orders", [(2, 3, 5, 7), PRIMES8])
def test_mu_text_parses_grouped_where_products_meet_it(orders):
    # mu[k][i] for i != k is -lambda_ki (1 - a_i), lambda_ki in factor k's
    # subring (0-based k), so its text is read grouped at factor k + 1 under
    # the certificate's orders: there X_{k+1}'s entries meet it.  Every
    # parsed element holds the value of its text.
    params = PresentationParams(orders)
    n = params.n
    obj = json.loads(certificate_bytes(build_certificate(params)))
    cert = certificate_from_json(obj)
    for k in range(n):
        for i in range(n):
            if i != k:
                x = cert.mu[k][i]
                assert x.groups[:2] == (k + 1, params.r) and len(x.groups[2]) > 1
    rho = rho_for(params)
    for text, x in site_texts(obj, cert):
        expected = reference_parse_ring(text, params)
        assert x == expected and x.terms == expected.terms
        assert rho.ring(x) == rho.text(text)


@pytest.mark.parametrize("orders", [(2, 3, 5, 7), (5, 7, 9, 11, 13), (31, 37, 41), PRIMES8])
def test_parse_groups_at_the_factor_that_leads_the_most_keys(orders):
    # parse_ring groups a text at the factor that leads its last key.  On
    # every text of a certificate that is also the factor that leads the
    # most keys, so the products meet the groups where they stand.
    params = PresentationParams(orders)
    obj = json.loads(certificate_bytes(build_certificate(params)))
    for text, x in site_texts(obj, certificate_from_json(obj)):
        leads = Counter(g[0][0] for g in x.terms if g)
        if leads:
            assert x.groups[:2] == (leads.most_common(1)[0][0], params.r), text
        else:
            assert x.groups is None


def test_check_cert_reads_each_word_once(monkeypatch):
    # parse_ring reads a word text parse_word's way only when the memo does
    # not hold it and it is not two words read before.  The eight-prime
    # certificate has 155 such words.
    obj = json.loads(certificate_bytes(build_certificate(PresentationParams(PRIMES8))))
    calls = spy(monkeypatch, groupring.parse_word)
    assert check_certificate_json(obj).accepted
    texts = [call.args[0] for call in calls]
    assert len(set(texts)) == len(texts) <= 155


def test_check_cert_does_not_recheck_parsed_keys(monkeypatch):
    # Parsed text is grouped under the orders it was read with, so the
    # products that meet it take its groups as they stand, or split them
    # at another factor without a range check: those orders reduced its
    # keys.  Reading the two-factor mu text as a dict made _split_mul
    # range-check its keys again: 4,508 calls for the eight primes.
    obj = json.loads(certificate_bytes(build_certificate(PresentationParams(PRIMES8))))
    calls = spy(monkeypatch, groupring.check_reduced)
    assert check_certificate_json(obj).accepted
    assert sum(call.caller == "_split_mul" for call in calls) == 0


def test_kernel_products_scan_widths_once(monkeypatch):
    # _packs hands the layout it measured to _kronecker_mul, which takes
    # the slot width from it: _slot_width runs at most once per _packs
    # call, and never from the packed kernel.
    spied = {name: spy(monkeypatch, getattr(groupring, name))
             for name in ("_slot_width", "_packs", "_kronecker_mul")}
    for r in (PRIMES8, (509,)):
        obj = json.loads(certificate_bytes(build_certificate(PresentationParams(r))))
        for log in spied.values():
            log.clear()
        assert check_certificate_json(obj).accepted
        calls = {name: Counter(call.caller for call in log) for name, log in spied.items()}
        assert set(calls["_slot_width"]) <= {"_packs"}
        assert calls["_slot_width"]["_packs"] <= calls["_packs"]["_split_mul"]
        if r == PRIMES8:  # 369 of its 967 weighed products are packed
            assert calls["_kronecker_mul"]["_split_mul"]


def parsed_elements(cert):
    """Every element a parsed certificate holds, each object once."""
    found = [*(x for rows in (cert.lam, cert.mu, cert.alpha) for row in rows for x in row),
             *(op.coeff for op in cert.basis_ops)]
    return list({id(x): x for x in found}.values())


@pytest.mark.parametrize("mutant", [None, "drop-last-op", "swap-lambda-columns", "bump-cofactor"])
def test_check_leaves_parsed_elements_unchanged(mutant):
    # One element serves every site that holds its text, so the checker
    # must change none: each keeps its cells and terms, and equals the
    # element read afresh from the same tree.  A one-factor text is read
    # into cells alone, so terms are read first: the check sees both forms.
    for p in (P235, PresentationParams((3, 4, 5))):
        obj = json.loads(certificate_bytes(build_certificate(p)))
        if mutant:
            STRUCTURAL_MUTANTS[mutant][0](obj)
        cert = certificate_from_json(obj)
        elements = parsed_elements(cert)
        for x in elements:
            x.terms
        before = entry_state(elements)
        assert check_certificate(cert).accepted == (mutant is None)
        assert entry_state(elements) == before
        fresh = parsed_elements(certificate_from_json(obj))
        assert [x.terms for x in elements] == [x.terms for x in fresh]


def test_serialization_deterministic():
    for p in FAMILIES + [PresentationParams((3, 4, 5, 7, 11))]:
        assert certificate_bytes(build_certificate(p)) == certificate_bytes(
            build_certificate(p)
        )


def test_certificate_schema_errors():
    obj = json.loads(certificate_bytes(build_certificate(P23)))
    bad = dict(obj)
    bad["version"] = 99
    with pytest.raises(ParseError):
        certificate_from_json(bad)
    bad = json.loads(certificate_bytes(build_certificate(P23)))
    bad["lambda"][0][0] = "not a ring element"
    with pytest.raises(ParseError):
        certificate_from_json(bad)
    bad = json.loads(certificate_bytes(build_certificate(P23)))
    bad["t"] = [9]
    with pytest.raises(ParseError):
        certificate_from_json(bad)
    with pytest.raises(ParseError):
        certificate_from_json({"r": "nope"})


def test_boolean_integers_rejected():
    # JSON true/false load as bool, which Python counts as int
    genuine = certificate_bytes(build_certificate(P23))
    for path, value in [
        (("r",), [True, 3]),
        (("t", 0), True),
        (("s", 1, 0), False),
        (("basis_ops", 0, "src"), True),
        (("basis_ops", 0, "dst"), True),
        (("version",), True),
    ]:
        obj = json.loads(genuine)
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ParseError):
            check_certificate_json(obj)


def test_single_factor_rejects_basis_ops():
    obj = json.loads(certificate_bytes(build_certificate(PresentationParams((7,)))))
    assert check_certificate_json(obj).accepted
    obj["basis_ops"] = [{"op": "add_right_multiple", "src": 0, "dst": 1, "coeff": "b1^7"}]
    with pytest.raises(ParseError, match="must be empty when n = 1"):
        check_certificate_json(obj)


def test_non_coprime_r_rejected_at_params_stage():
    obj = json.loads(certificate_bytes(build_certificate(P23)))
    obj["r"] = [2, 4]
    report = check_certificate_json(obj)
    assert not report.accepted
    assert report.items[0].name == "params"
    assert not report.items[0].passed


def test_check_json_builds_params_once(monkeypatch):
    obj = json.loads(certificate_bytes(build_certificate(P235)))
    built = spy(monkeypatch, PresentationParams)
    assert check_certificate_json(obj).accepted
    assert [call.args for call in built] == [((2, 3, 5),)]


def test_ring_text_parameter_error_is_not_a_params_verdict(monkeypatch):
    obj = json.loads(certificate_bytes(build_certificate(P23)))

    def failing(*args):
        raise ParameterError("raised while reading ring text")

    rebind(monkeypatch, checker.parse_ring, failing)
    with pytest.raises(ParameterError, match="while reading ring text"):
        check_certificate_json(obj)


def test_perturbed_lambda_names_reconstruction():
    obj = json.loads(certificate_bytes(build_certificate(P235)))
    text = obj["lambda"][0][0]
    perturbed = ring_to_text(parse_ring(text, P235) + one())
    obj["lambda"][0][0] = perturbed
    report = check_certificate_json(obj)
    assert not report.accepted
    assert "D_1 reconstruction" in report.failures


def _full_sum_items(obj):
    """The D and E reconstruction items as full sums judge them: each family
    column summed over the n + 1 generators and compared with its d2 row."""
    cert = certificate_from_json(obj)
    params = cert.params
    n = params.n
    d2 = d2_matrix(params)
    gens = [module_generator(k, d2, params) for k in range(1, n + 2)]
    items = {}
    for family, coeffs, offset, detail in (
        ("D", cert.lam, 0, "sum_k X_k lambda_ki equals the commutator class"),
        ("E", cert.mu, n, "sum_k X_k mu_ki equals the power class"),
    ):
        for i in range(1, n + 1):
            got = checker._reconstruct(gens, [row[i - 1] for row in coeffs], params)
            name = f"{family}_{i} reconstruction"
            items[name] = checker.CheckItem(name, got == d2[offset + i - 1], detail)
    return items


def _residual_mutants(obj, params):
    """Copies of obj whose E residual mu_ki - [k = i] + lambda_ki (1 - a_i)
    is nonzero: a term added to one lambda or mu entry (each entry once, the
    terms taken in turn), or two entries of a mu column swapped."""
    n = params.n
    terms = ["e", "a1", f"-b{n}"] + (["2*a1 b2"] if n >= 2 else [])
    for f, field in enumerate(("lambda", "mu")):
        for k in range(n + 1):
            for i in range(n):
                term = terms[(f + k + i) % len(terms)]
                mutant = json.loads(json.dumps(obj))
                text = mutant[field][k][i]
                bumped = parse_ring(text, params) + parse_ring(term, params)
                mutant[field][k][i] = ring_to_text(bumped)
                yield f"{field}[{k}][{i}] + {term}", mutant
    for i in range(n):
        mutant = json.loads(json.dumps(obj))
        column = mutant["mu"]
        column[i][i], column[n][i] = column[n][i], column[i][i]
        yield f"swap mu[{i}][{i}], mu[{n}][{i}]", mutant


@pytest.mark.parametrize("orders", [(2, 3, 5), (5, 7, 9, 11, 13), (7,)])
def test_e_items_match_full_sums_on_residual_mutants(orders):
    """The checker reads each E_i off its D_i sum plus the residual's sum;
    on mutants with a nonzero residual its item list is the one the full
    E sums give, every other item as the checker made it."""
    params = PresentationParams(orders)
    base = json.loads(certificate_bytes(build_certificate(params)))
    rejected = 0
    for label, obj in _residual_mutants(base, params):
        report = check_certificate_json(obj)
        oracle = _full_sum_items(obj)
        expected = tuple(oracle.get(item.name, item) for item in report.items)
        assert report.items == expected, label
        assert sum(name in oracle for name in report.failures) >= 1, label
        rejected += not report.accepted
    assert rejected  # the corpus is not vacuous


def test_mutation_sensitivity_sample():
    rng = random.Random(71)
    base = json.loads(certificate_bytes(build_certificate(P23)))
    for _ in range(25):
        obj = json.loads(json.dumps(base))
        failures = mutate_one_coefficient(obj, rng, P23)
        report = check_certificate_json(obj)
        assert not report.accepted, f"mutation survived: {failures}"
        assert report.failures


def _swap_dependent_ops(obj):
    # Two adjacent ops where one writes the row the other reads: swapping
    # them changes the product of their elementary matrices.
    ops = obj["basis_ops"]
    k = next(k for k, (a, b) in enumerate(zip(ops, ops[1:]))
             if a["dst"] == b["src"] or a["src"] == b["dst"])
    ops[k], ops[k + 1] = ops[k + 1], ops[k]


def _swap_lambda_columns(obj):
    for row in obj["lambda"]:
        row[0], row[1] = row[1], row[0]


def _two_factor_alpha_entry(obj):
    # a1 b2 lies in no one factor's subring, so products with this entry on
    # the right have no one-factor operand on the left.
    obj["alpha"][0][0] += " + a1 b2"


def _t_at_modulus(obj):
    # The first integer past t's canonical range [0, prod r_j^2).
    obj["t"][0] = math.prod(r * r for r in obj["r"])


def _bump_cofactor(obj):
    obj["s"][0][1] += 1


STRUCTURAL_MUTANTS = {
    "drop-first-op": (lambda obj: obj["basis_ops"].pop(0), "basis reduction, basis inverse"),
    "drop-last-op": (lambda obj: obj["basis_ops"].pop(), "basis reduction, basis inverse"),
    "swap-ops": (_swap_dependent_ops, "basis reduction, basis inverse"),
    "swap-lambda-columns": (_swap_lambda_columns, "D_1 reconstruction, D_2 reconstruction"),
    "drop-alpha-row": (lambda obj: obj["alpha"].pop(), None),
    "truncate-alpha-row": (lambda obj: obj["alpha"][0].pop(), None),
    "two-factor-alpha-entry": (
        _two_factor_alpha_entry, "alpha_1 kernel, basis reduction, basis inverse"
    ),
    "t-at-modulus": (_t_at_modulus, "t range, t congruences, s cofactors, t sum"),
    "bump-cofactor": (_bump_cofactor, "s cofactors"),
}


@pytest.mark.parametrize("orders", [(2, 3), (3, 4, 5)], ids=["2,3", "3,4,5"])
@pytest.mark.parametrize("mutant", sorted(STRUCTURAL_MUTANTS))
def test_check_cert_structural_mutants(mutant, orders, tmp_path, capsys):
    """Each structural mutant is rejected naming the identities it breaks
    (exit 1) or is a parse error (exit 2); never accepted, never a traceback."""
    edit, failures = STRUCTURAL_MUTANTS[mutant]
    obj = json.loads(certificate_bytes(build_certificate(PresentationParams(orders))))
    edit(obj)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    code = cli.main(["check-cert", str(path)])
    out, err = capsys.readouterr()
    if failures is None:
        assert code == 2
        assert "error: field 'alpha' must be a" in err
    else:
        assert code == 1
        assert out.splitlines()[-1] == f"certificate rejected: {failures}"


def mutate_one_coefficient(obj, rng, params):
    """Perturb one coefficient somewhere in the certificate by +1.  Only
    fields with entries are drawn: an n = 1 certificate has no alpha rows
    and no basis ops."""
    sites = [site for site in ("t", "s", "lambda", "mu", "alpha", "basis_ops") if obj[site]]
    site = rng.choice(sites)
    if site == "t":
        i = rng.randrange(len(obj["t"]))
        obj["t"][i] += 1
        return f"t[{i}]"
    if site == "s":
        i = rng.randrange(len(obj["s"]))
        j = rng.randrange(len(obj["s"][i]))
        obj["s"][i][j] += 1
        return f"s[{i}][{j}]"
    if site == "basis_ops":
        k = rng.randrange(len(obj["basis_ops"]))
        entry = obj["basis_ops"][k]
        entry["coeff"] = _bump_ring_text(entry["coeff"], rng, params)
        return f"basis_ops[{k}]"
    matrix = obj[site]
    i = rng.randrange(len(matrix))
    j = rng.randrange(len(matrix[i]))
    matrix[i][j] = _bump_ring_text(matrix[i][j], rng, params)
    return f"{site}[{i}][{j}]"


def _bump_ring_text(text, rng, params):
    elem = parse_ring(text, params)
    if elem.is_zero:
        return ring_to_text(one())
    target = rng.choice(sorted(elem.terms, key=lambda g: str(g)))
    from test_groupring import group_term

    return ring_to_text(elem + group_term(target))


def test_ops_validation():
    with pytest.raises(ParameterError):
        AddRightMultiple(0, 0, one())
    cert = build_certificate(P23)
    bad = (AddRightMultiple(0, 9, one()),)
    with pytest.raises(ParameterError):
        replay(bad, basis_matrix(cert), P23)


def chain_export_from_json(obj: dict) -> ChainExport:
    """Inverse of chain_export_to_json on its own output (labels are
    regenerated, not read)."""
    params = PresentationParams(tuple(obj["r"]))

    def vector(raw) -> RingVector:
        return RingVector(tuple(parse_ring(text, params) for text in raw))

    def matrix(raw) -> RingMatrix | None:
        return None if raw is None else RingMatrix(tuple(vector(row) for row in raw))

    return ChainExport(
        params, matrix([[text] for text in obj["d1"]]), matrix(obj["d2"]),
        tuple(vector(row) for row in obj["d3"]), matrix(obj["P"]), matrix(obj["Q"]),
    )


def test_chain_export_round_trip():
    for p in FAMILIES + [PresentationParams((2,))]:
        export = build_chain_export(p)
        obj = chain_export_to_json(export)
        assert obj["euler_characteristic"] == 2 - p.n
        back = chain_export_from_json(json.loads(json.dumps(obj)))
        assert back.d1 == export.d1
        assert back.d2 == export.d2
        assert back.d3 == export.d3
        assert back.p == export.p
        assert back.q == export.q
