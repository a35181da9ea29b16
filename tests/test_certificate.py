import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcert import certificate, cli
from relcert.errors import ParameterError, ParseError
from relcert.freewords import PresentationParams
from relcert.foxcomplex import RingMatrix, RingVector, apply, compose, d2_matrix
from relcert.groupring import one, parse_ring, ring_to_text, zero
from relcert.relmodule import commutator_image, module_generator, power_image, reduction_multiplier
from relcert.certificate import (
    AddRightMultiple,
    ChainExport,
    basis_change,
    basis_matrix,
    build_certificate,
    build_chain_export,
    certificate_bytes,
    certificate_from_json,
    chain_export_to_json,
    check_certificate,
    check_certificate_json,
    column_replay,
    crt_coefficients,
    euler_characteristic,
    permutation_of_identity,
    replay,
    splitting_report,
)
from test_groupring import random_ring, syllable_elements

P23 = PresentationParams((2, 3))
P235 = PresentationParams((2, 3, 5))
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
        gens = [module_generator(k, p) for k in range(1, p.n + 2)]
        for i in range(1, p.n + 1):
            d = gens[0].act(cert.lam[0][i - 1], p)
            e = gens[0].act(cert.mu[0][i - 1], p)
            for k in range(1, p.n + 1):
                d = d + gens[k].act(cert.lam[k][i - 1], p)
                e = e + gens[k].act(cert.mu[k][i - 1], p)
            assert d == commutator_image(i, p)
            assert e == power_image(i, p)


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
    assert module_generator(2, p) == commutator_image(1, p)
    assert cert.alpha == ()
    assert cert.basis_ops == ()


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
        # the checker keeps the pair it checked
        assert check_certificate(cert).basis == (P, Q)
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


def _permuted_columns(m, positions):
    """M Pi^-1: column k of the result is column positions[k] of M."""
    return RingMatrix(tuple(RingVector(tuple(row[j] for j in positions)) for row in m.rows))


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


@settings(max_examples=100, deadline=None)
@given(column_replay_cases())
def test_column_replay_matches_compose(case):
    m, positions, ops = case
    trace = replay(ops, RingMatrix.identity(m.nrows), P235)
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
    p, q = check_certificate(cert).basis
    expected = compose(p, q, params)
    assert expected == RingMatrix.identity(2 * params.n)
    report = check_certificate(cert._replace(basis_ops=tampered))
    assert report.accepted and report.basis == (p, q)
    for ops in (cert.basis_ops, tampered):
        positions = permutation_of_identity(replay(ops, p, params))
        assert column_replay(ops, p, positions, params) == expected


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
    built = []

    def counting(r):
        built.append(r)
        return PresentationParams(r)

    monkeypatch.setattr(certificate, "PresentationParams", counting)
    assert check_certificate_json(obj).accepted
    assert built == [(2, 3, 5)]


def test_ring_text_parameter_error_is_not_a_params_verdict(monkeypatch):
    obj = json.loads(certificate_bytes(build_certificate(P23)))

    def failing(*args):
        raise ParameterError("raised while reading ring text")

    monkeypatch.setattr(certificate, "parse_ring", failing)
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


STRUCTURAL_MUTANTS = {
    "drop-first-op": (lambda obj: obj["basis_ops"].pop(0), "basis reduction, basis inverse"),
    "drop-last-op": (lambda obj: obj["basis_ops"].pop(), "basis reduction, basis inverse"),
    "swap-ops": (_swap_dependent_ops, "basis reduction, basis inverse"),
    "swap-lambda-columns": (_swap_lambda_columns, "D_1 reconstruction, D_2 reconstruction"),
    "drop-alpha-row": (lambda obj: obj["alpha"].pop(), None),
    "truncate-alpha-row": (lambda obj: obj["alpha"][0].pop(), None),
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
    """Perturb one coefficient somewhere in the certificate by +1."""
    sites = ["t", "s", "lambda", "mu", "alpha", "basis_ops"]
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
    from relcert.groupring import group_term

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
