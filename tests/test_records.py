"""The immutable records: field names, order and defaults, value equality,
immutability, validation and the derived properties.  The vectors,
matrices and words are their own tuples and are held to the same checks."""

import json

import pytest

from relcert.certificate import (
    build_certificate,
    build_chain_export,
    certificate_bytes,
    crt_coefficients,
    splitting_report,
)
from relcert.checker import (
    CERTIFICATE_VERSION,
    AddRightMultiple,
    CheckItem,
    CheckReport,
    certificate_from_json,
    check_certificate,
)
from relcert.cli import CheckGroup, run_verification
from relcert.errors import ParameterError
from relcert.foxcomplex import RingMatrix, RingVector, d2_matrix
from relcert.freewords import FreeWord, Generator, PresentationParams, agen, commutator_relator
from relcert.groupring import one, zero
from relcert.normalform import IDENTITY

PARAMS = PresentationParams((2, 3))


RECORDS = (
    "AddRightMultiple", "ChainExport", "CheckGroup", "CheckItem", "CheckReport",
    "Certificate", "CrtData", "Generator", "PresentationParams",
    "SplittingReport", "FreeWord", "RingMatrix", "RingVector",
)

# The slot each tuple type kept its items in before it became a tuple.
FORMER_SLOTS = {"FreeWord": "letters", "RingMatrix": "rows", "RingVector": "entries"}


@pytest.fixture(scope="module")
def records():
    cert = build_certificate(PARAMS)
    report = check_certificate(cert)
    return {
        "PresentationParams": PARAMS,
        "Generator": agen(1),
        "CrtData": cert.crt,
        "AddRightMultiple": cert.basis_ops[0],
        "Certificate": cert,
        "SplittingReport": splitting_report(cert),
        "CheckItem": report.items[0],
        "CheckReport": report,
        "ChainExport": build_chain_export(PARAMS),
        "CheckGroup": run_verification(PARAMS, sample=5)[0],
        "FreeWord": commutator_relator(1),
        "RingMatrix": report.d2,
        "RingVector": report.d2[0],
    }


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name, records):
    record = records[name]
    assert type(record).__name__ == name
    field = FORMER_SLOTS[name] if name in FORMER_SLOTS else record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_field_names_and_order():
    assert PresentationParams._fields == ("r",)
    assert Generator._fields == ("kind", "index")
    assert AddRightMultiple._fields == ("src", "dst", "coeff")
    assert build_certificate(PARAMS)._fields == (
        "params", "crt", "lam", "mu", "alpha", "basis_ops", "version"
    )
    assert CheckItem._fields == ("name", "passed", "detail")
    assert CheckReport._fields == ("items", "basis", "d2")
    assert build_chain_export(PARAMS)._fields == ("params", "d1", "d2", "d3", "p", "q")
    assert CheckGroup._fields == ("name", "status", "details")


def test_defaults():
    cert = build_certificate(PARAMS)
    assert cert.version == CERTIFICATE_VERSION
    assert type(cert)(*cert[:-1]) == cert
    assert CheckItem("t range", True).detail == ""
    report = CheckReport(())
    assert report.accepted
    assert report.basis is None and report.d2 is None
    assert report.failures == ()
    assert CheckGroup("g", "pass").details == ()


def test_params_value_equality_and_hash():
    assert PresentationParams([2, 3]) == PresentationParams((2, 3))
    assert PresentationParams(r=iter([2, 3])).r == (2, 3)
    assert hash(PresentationParams([2, 3])) == hash(PresentationParams((2, 3)))
    assert len({PresentationParams([2, 3]), PresentationParams((2, 3))}) == 1
    assert PresentationParams((2, 3)) != PresentationParams((3, 2))
    assert repr(PARAMS) == "PresentationParams(r=(2, 3))"
    assert PARAMS.n == 2 and PARAMS.order(2) == 3


def test_records_equal_plain_tuples_of_their_fields():
    # Unlike a dataclass, a namedtuple record equals the tuple of its fields.
    assert CheckItem("t range", True) == ("t range", True, "")
    assert PARAMS == ((2, 3),)
    # A word, vector or matrix equals the plain tuple of its items.
    word = commutator_relator(1)
    assert word == tuple(word) and hash(word) == hash(tuple(word))
    assert len({word, tuple(word)}) == 1
    assert FreeWord() == IDENTITY and hash(FreeWord()) == hash(IDENTITY)
    assert not FreeWord() and word
    d2 = d2_matrix(PARAMS)
    assert d2 == tuple(d2) and d2[0] == tuple(d2[0])
    # Vectors and matrices do not hash, not even empty ones.
    for value in (d2, d2[0], RingVector(()), RingMatrix(())):
        with pytest.raises(TypeError):
            hash(value)


def test_vectors_and_matrices_check_their_shape():
    u = RingVector((one(), zero()))
    assert u + u == (2 * one(), zero())
    assert len(u + u) == len(u - u) == 2
    assert (u - u).is_zero
    for short in (RingVector((one(),)), RingVector((one(), one(), one()))):
        with pytest.raises(ParameterError, match="width mismatch"):
            u + short
        with pytest.raises(ParameterError, match="width mismatch"):
            u - short
    with pytest.raises(ParameterError, match="ragged matrix"):
        RingMatrix((u, RingVector((one(),))))
    m = RingMatrix((u, u))
    assert len(m) == m.ncols == 2 and RingMatrix(()).ncols == 0
    assert RingMatrix.identity(2) == ((one(), zero()), (zero(), one()))


@pytest.mark.parametrize("src, dst", [(0, 0), (3, 3), (-1, 2), (2, -1)])
def test_add_right_multiple_rejects_bad_rows(src, dst):
    with pytest.raises(ParameterError):
        AddRightMultiple(src, dst, one())


def test_replace_validates():
    with pytest.raises(ParameterError, match="not coprime"):
        PARAMS._replace(r=(2, 4))
    op = build_certificate(PARAMS).basis_ops[0]
    with pytest.raises(ParameterError, match="distinct rows"):
        op._replace(dst=op.src)
    assert op._replace(coeff=one()).coeff == one()
    assert PARAMS._replace(r=[3, 4]) == PresentationParams((3, 4))


def test_add_right_multiple_keywords():
    op = AddRightMultiple(src=1, dst=0, coeff=one())
    assert op == AddRightMultiple(1, 0, one())
    assert repr(op).startswith("AddRightMultiple(src=1, dst=0, coeff=")


def test_properties_and_json_round_trip():
    cert = build_certificate(PARAMS)
    assert certificate_from_json(json.loads(certificate_bytes(cert))) == cert
    assert cert.crt == crt_coefficients(PARAMS)
    assert splitting_report(cert).ok
    assert build_chain_export(PARAMS).euler == 0
    failing = CheckReport((CheckItem("a", True), CheckItem("b", False, "why")))
    assert not failing.accepted
    assert failing.failures == ("b",)
    assert str(agen(3)) == "a3"
