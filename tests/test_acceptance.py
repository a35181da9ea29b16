"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
All arithmetic is exact, so every comparison below is at zero tolerance.
"""

import json
import random
import time

from relcert.cli import run_verification
from relcert.freewords import (
    PresentationParams,
    commutator_relator,
    random_word,
    verify_free_identities,
)
from relcert.foxcomplex import (
    RingMatrix,
    apply,
    compose,
    d1_matrix,
    d2_matrix,
    fundamental_identity_holds,
    starred_fox_row,
)
from relcert.groupring import check_cyclic_identities
from relcert.normalform import project
from relcert.relmodule import check_module_identities, check_reduction, module_generator
from relcert.certificate import (
    basis_change,
    build_certificate,
    certificate_bytes,
    crt_coefficients,
    euler_characteristic,
)
from relcert.checker import (
    basis_matrix,
    certificate_from_json,
    check_certificate_json,
    permutation_of_identity,
    replay,
)
from test_certificate import mutate_one_coefficient
from test_freewords import conjugate_by
from test_groupring import group_term

FAMILIES = [(2, 3), (2, 3, 5), (3, 4, 5), (5, 7, 9, 11, 13)]
RUNTIME_BUDGET_SECONDS = 10.0


def _report(name, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_identity_suite():
    def body():
        for family in FAMILIES:
            params = PresentationParams(family)
            started = time.perf_counter()
            groups = run_verification(params, seed=0)
            elapsed = time.perf_counter() - started
            assert all(g.status == "pass" for g in groups), family
            assert elapsed < RUNTIME_BUDGET_SECONDS, f"{family}: {elapsed:.1f}s"
            d2 = d2_matrix(params)
            for i in range(1, params.n + 1):
                assert verify_free_identities(i, params)
                assert all(check_cyclic_identities(i, params).values())
                assert all(check_module_identities(i, d2, params).values())
                reduction = check_reduction(i, d2, params)
                assert reduction["total"]
                assert reduction["power_norm_term"]
                assert reduction["power_ramp_term"]
                assert reduction["commutator_norm_term"]
                assert reduction["commutator_ramp_term"]

    _report("1 identity suite", body)


def test_criterion_2_chain_conditions():
    def body():
        for family in FAMILIES:
            params = PresentationParams(family)
            d1, d2 = d1_matrix(params), d2_matrix(params)
            assert len(d2) == 2 * params.n
            for row in d2:
                assert apply(d1, row, params).is_zero
        params = PresentationParams((2, 3, 5))
        rng = random.Random(0)
        for _ in range(1000):
            word = random_word(rng, params.n, max_len=20)
            assert fundamental_identity_holds(word, params)

    _report("2 chain conditions", body)


def test_criterion_3_generation_certificate():
    def body():
        for family in FAMILIES:
            params = PresentationParams(family)
            # reconstruct from the emitted file, not the in-memory object
            emitted = json.loads(certificate_bytes(build_certificate(params)))
            cert = certificate_from_json(emitted)
            moduli = [ri * ri for ri in params.r]
            for i in range(params.n):
                for j in range(params.n):
                    assert cert.crt.t[i] % moduli[j] == (1 if i == j else 0)
            d2 = d2_matrix(params)
            gens = [module_generator(k, d2, params) for k in range(1, params.n + 2)]
            for i in range(1, params.n + 1):
                rebuilt_d = gens[0].act(cert.lam[0][i - 1], params)
                rebuilt_e = gens[0].act(cert.mu[0][i - 1], params)
                for k in range(1, params.n + 1):
                    rebuilt_d = rebuilt_d + gens[k].act(cert.lam[k][i - 1], params)
                    rebuilt_e = rebuilt_e + gens[k].act(cert.mu[k][i - 1], params)
                assert rebuilt_d == d2[i - 1]
                assert rebuilt_e == d2[params.n + i - 1]
        concrete = crt_coefficients(PresentationParams((2, 3)))
        assert concrete.t == (9, 28)
        assert concrete.s == ((-2, -1), (-7, -3))

    _report("3 generation certificate", body)


def test_criterion_4_chain_level_suite():
    def body():
        for family in FAMILIES:
            params = PresentationParams(family)
            cert = build_certificate(params)
            d2 = d2_matrix(params)
            for i in range(1, params.n):
                assert apply(d2, cert.alpha[i - 1], params).is_zero
            p, q, ops = basis_change(cert)
            ident = RingMatrix.identity(2 * params.n)
            assert compose(p, q, params) == ident
            assert compose(q, p, params) == ident
            reduced = replay(ops, basis_matrix(cert), params)
            positions = permutation_of_identity(reduced)
            assert positions is not None
            assert sorted(positions) == list(range(2 * params.n))
            assert euler_characteristic(params.n) == 2 - params.n
        assert euler_characteristic(3) == -1

    _report("4 chain-level suite", body)


def test_criterion_5_certificate_integrity():
    def body():
        for family in FAMILIES:
            params = PresentationParams(family)
            assert certificate_bytes(build_certificate(params)) == certificate_bytes(
                build_certificate(params)
            )
        params = PresentationParams((2, 3, 5))
        base = json.loads(certificate_bytes(build_certificate(params)))
        rng = random.Random(0)
        for trial in range(100):
            mutated = json.loads(json.dumps(base))
            site = mutate_one_coefficient(mutated, rng, params)
            report = check_certificate_json(mutated)
            assert not report.accepted, f"trial {trial}: mutation at {site} survived"
            assert report.failures, f"trial {trial}: rejection lacks a named identity"

    _report("5 certificate integrity", body)


def test_criterion_6_conjugation_consistency():
    def body():
        params = PresentationParams((2, 3, 5))
        d2 = d2_matrix(params)
        rng = random.Random(0)
        for _ in range(200):
            i = rng.randint(1, params.n)
            g = random_word(rng, params.n, max_len=20)
            conjugated = conjugate_by(commutator_relator(i), g)
            row = starred_fox_row(conjugated, params)
            image = group_term(project(g, params))
            assert row == d2[i - 1].act(image, params)

    _report("6 conjugation consistency", body)
