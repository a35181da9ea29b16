"""The immutable records: field names, order and defaults, value equality,
immutability, validation and the derived properties."""

import json

import pytest

from relcert.certificate import (
    CERTIFICATE_VERSION,
    AddRightMultiple,
    CheckItem,
    CheckReport,
    build_certificate,
    build_chain_export,
    certificate_bytes,
    certificate_from_json,
    check_certificate,
    crt_coefficients,
    splitting_report,
)
from relcert.cli import CheckGroup, run_verification
from relcert.errors import ParameterError
from relcert.freewords import Generator, PresentationParams, agen
from relcert.groupring import one
from relcert.normalform import Syllable

PARAMS = PresentationParams((2, 3))


RECORDS = (
    "AddRightMultiple", "ChainExport", "CheckGroup", "CheckItem", "CheckReport",
    "Certificate", "CrtData", "Generator", "PresentationParams", "Syllable",
    "SplittingReport",
)


@pytest.fixture(scope="module")
def records():
    cert = build_certificate(PARAMS)
    report = check_certificate(cert)
    return {
        "PresentationParams": PARAMS,
        "Generator": agen(1),
        "Syllable": Syllable(1, 1, 0),
        "CrtData": cert.crt,
        "AddRightMultiple": cert.basis_ops[0],
        "Certificate": cert,
        "SplittingReport": splitting_report(cert),
        "CheckItem": report.items[0],
        "CheckReport": report,
        "ChainExport": build_chain_export(PARAMS),
        "CheckGroup": run_verification(PARAMS, sample=5)[0],
    }


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name, records):
    record = records[name]
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_field_names_and_order():
    assert PresentationParams._fields == ("r",)
    assert Generator._fields == ("kind", "index")
    assert Syllable._fields == ("factor", "k", "m")
    assert AddRightMultiple._fields == ("src", "dst", "coeff")
    assert build_certificate(PARAMS)._fields == (
        "params", "crt", "lam", "mu", "alpha", "basis_ops", "version"
    )
    assert CheckItem._fields == ("name", "passed", "detail")
    assert CheckReport._fields == ("accepted", "items", "basis", "d2")
    assert build_chain_export(PARAMS)._fields == ("params", "d1", "d2", "d3", "p", "q")
    assert CheckGroup._fields == ("name", "status", "details")


def test_defaults():
    cert = build_certificate(PARAMS)
    assert cert.version == CERTIFICATE_VERSION
    assert type(cert)(*cert[:-1]) == cert
    assert CheckItem("t range", True).detail == ""
    report = CheckReport(True, ())
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
    failing = CheckReport(False, (CheckItem("a", True), CheckItem("b", False, "why")))
    assert failing.failures == ("b",)
    assert str(agen(3)) == "a3"
