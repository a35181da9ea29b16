"""Golden outputs: the exact bytes of `certificate` and `complex` and the
verdicts of `verify`, pinned by SHA-256 for the four acceptance families.

The digests match `perfbench/reference.json`.  A refactor that changes any
of these outputs, even by one byte, fails here first.
"""

import hashlib
import json

import pytest

from relcert.cli import main

GOLDEN = {
    # orders: (certificate bytes, complex bytes, verify --format json verdict)
    "2,3": (
        "febe12dbd611b3897cefdfd4570b3306d25332fe36ae96cfa93fd6d86ffff0a4",
        "741d063391d853dca32d969fcb56ea2ae8eee354d74524e2605e154f44251c49",
        "74800449870c5b32c441a01a9fcbaf5e2f5959e4e7ad73604da5adf99835e71e",
    ),
    "2,3,5": (
        "affb946f6f7bcdbbc5117a5c07db0ecf98cb405c8ca2b0c895c54597b0b03c9f",
        "26b52ff87ff7af49d5dc8cb66c51c2d3a051fd47e471b197b7d48a5457a87f6a",
        "3e03a5e627560dfd9c3de4dbbe907ebf322f8ffc4767fa7c4a3422128d4c8ba2",
    ),
    "3,4,5": (
        "5285a36923297c5bfbef95263566c6b54583496f9330cd48ca6313ae7555e869",
        "2c14e3bf88936932b9df129356165b7f9b1f900f12c4cd47ef5b92fb135cde90",
        "9866c86df0f771e2087c82e93b5746b1bd750417b9a2c6cf90ff334f348780a7",
    ),
    "5,7,9,11,13": (
        "5d6b807efd94c46be995acad9a75f079f9dd353cd958a6e1b9f66d184134efc5",
        "4d17594c271451fb85873bd79f57cd60b5f59eda5400cd69ed7083ff79d5c525",
        "35a42772c6ba1a49d07fade0cf2a27a122d4156920fca5db8d818feff0e49af3",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stdout(capsys, argv, code=0) -> str:
    assert main(argv) == code
    return capsys.readouterr().out


@pytest.mark.parametrize("orders", sorted(GOLDEN))
def test_golden_digests(orders, capsys):
    cert_digest, complex_digest, verdict_digest = GOLDEN[orders]
    assert _sha256(_stdout(capsys, ["certificate", "--r", orders])) == cert_digest
    assert _sha256(_stdout(capsys, ["complex", "--r", orders])) == complex_digest
    # The verdicts do not depend on the seed, so the seed field is dropped.
    report = json.loads(_stdout(capsys, ["verify", "--r", orders, "--format", "json"]))
    report.pop("seed")
    assert _sha256(json.dumps(report, sort_keys=True)) == verdict_digest


VERIFY_TEXT_235 = """\
checking r = (2, 3, 5)
  [ 1/11] PASS  free-relator conjugation identities
  [ 2/11] PASS  cyclic norm/ramp ring identities
  [ 3/11] PASS  relation-module action identities
  [ 4/11] PASS  square reduction identity (with four expansion terms)
  [ 5/11] PASS  chain condition d1 after d2 = 0
  [ 6/11] PASS  fundamental derivative identity (200 sampled words)
  [ 7/11] PASS  generation certificate build and recheck
  [ 8/11] PASS  kernel membership of 3-cell attachments
  [ 9/11] PASS  basis-change invertibility
  [10/11] PASS  splitting onto the 3-cell summand
  [11/11] PASS  Euler characteristic equals 2 - n
result: PASS (11 groups: 11 passed, 0 failed, 0 skipped)
"""

VERIFY_TEXT_7 = """\
checking r = (7)
  [ 1/11] PASS  free-relator conjugation identities
  [ 2/11] PASS  cyclic norm/ramp ring identities
  [ 3/11] PASS  relation-module action identities
  [ 4/11] PASS  square reduction identity (with four expansion terms)
  [ 5/11] PASS  chain condition d1 after d2 = 0
  [ 6/11] PASS  fundamental derivative identity (200 sampled words)
  [ 7/11] PASS  generation certificate build and recheck
  [ 8/11] SKIP  kernel membership of 3-cell attachments
        - needs n >= 2
  [ 9/11] SKIP  basis-change invertibility
        - needs n >= 2
  [10/11] SKIP  splitting onto the 3-cell summand
        - needs n >= 2
  [11/11] PASS  Euler characteristic equals 2 - n
result: PASS (11 groups: 8 passed, 0 failed, 3 skipped)
"""


def test_golden_verify_text(capsys):
    assert _stdout(capsys, ["verify", "--r", "2,3,5"]) == VERIFY_TEXT_235
    assert _stdout(capsys, ["verify", "--r", "7"]) == VERIFY_TEXT_7
