import json
import pathlib
import subprocess
import sys

import pytest

from relcert import certificate, cli, foxcomplex, groupring, relmodule
from relcert.cli import main, run_verification
from relcert.freewords import PresentationParams
from relcert.groupring import one


def test_verify_default_family(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "checking r = (2, 3, 5)" in out
    assert out.count("PASS") >= 11
    assert "FAIL" not in out


def test_verify_reports_eleven_groups():
    groups = run_verification(PresentationParams((2, 3, 5)), seed=0, sample=50)
    assert len(groups) == 11
    assert all(g.status == "pass" for g in groups)


def test_verify_json_format(capsys):
    assert main(["verify", "--r", "2,3", "--format", "json", "--seed", "5"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["r"] == [2, 3]
    assert obj["passed"] is True
    assert len(obj["groups"]) == 11
    assert {g["status"] for g in obj["groups"]} == {"pass"}


def test_verify_rejects_non_coprime(capsys):
    assert main(["verify", "--r", "2,4,5"]) == 2
    err = capsys.readouterr().err
    assert "r[0]=2 and r[1]=4 not coprime" in err


def test_verify_rejects_small_order(capsys):
    assert main(["verify", "--r", "1,3"]) == 2
    assert main(["verify", "--r", "2,x"]) == 2


def test_verify_single_factor_skips(capsys):
    assert main(["verify", "--r", "7"]) == 0
    out = capsys.readouterr().out
    assert out.count("SKIP") == 3
    assert "result: PASS" in out


IDENTITY_GROUPS = (
    "  [ 2/11] {}  cyclic norm/ramp ring identities",
    "  [ 3/11] {}  relation-module action identities",
    "  [ 4/11] {}  square reduction identity (with four expansion terms)",
)


@pytest.mark.parametrize(
    "module, name, factor, expected",
    [
        (groupring, "ramp_element", 2, [("FAIL", ["factor 2"]), ("PASS", []), ("PASS", [])]),
        (relmodule, "reduction_multiplier", 2,
         [("PASS", []), ("PASS", []), ("FAIL", ["factor 2: total"])]),
        (relmodule, "ramp_element", 3,
         [("PASS", []), ("PASS", []), ("FAIL", ["factor 3: total, commutator_ramp_term"])]),
        (relmodule, "norm_element", 3, [
            ("PASS", []),
            ("FAIL", ["factor 3"]),
            ("FAIL", ["factor 3: total, power_norm_term, power_ramp_term, "
                      "commutator_norm_term, commutator_ramp_term"]),
        ]),
    ],
)
def test_verify_names_failing_identities(module, name, factor, expected, monkeypatch, capsys):
    # Adding 1 to one factor's element falsifies the identities that read it
    # through this module's binding, and those only.
    original = getattr(module, name)

    def bumped(i, params):
        value = original(i, params)
        return value + one() if i == factor else value

    monkeypatch.setattr(module, name, bumped)
    assert main(["verify", "--r", "2,3,5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    start = lines.index(IDENTITY_GROUPS[0].format(expected[0][0]))
    pinned = []
    for header, (status, details) in zip(IDENTITY_GROUPS, expected):
        pinned.append(header.format(status))
        pinned += [f"        - {d}" for d in details]
    assert lines[start:start + len(pinned)] == pinned


def test_certificate_round_trip(tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert main(["certificate", "--r", "2,3,5", "--out", str(path)]) == 0
    assert main(["check-cert", str(path)]) == 0
    out = capsys.readouterr().out
    assert "certificate accepted" in out


def test_certificate_deterministic(tmp_path):
    one_path = tmp_path / "one.json"
    two_path = tmp_path / "two.json"
    assert main(["certificate", "--r", "3,4,5,7,11", "--out", str(one_path)]) == 0
    assert main(["certificate", "--r", "3,4,5,7,11", "--out", str(two_path)]) == 0
    assert one_path.read_bytes() == two_path.read_bytes()


def test_certificate_stdout(capsys):
    assert main(["certificate", "--r", "2,3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["r"] == [2, 3]
    assert obj["t"] == [9, 28]
    assert obj["s"] == [[-2, -1], [-7, -3]]


def test_check_cert_rejects_corruption(tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert main(["certificate", "--r", "2,3", "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    obj["t"][0] += 4  # keeps residue mod 4, breaks residue mod 9
    path.write_text(json.dumps(obj))
    assert main(["check-cert", str(path)]) == 1
    out = capsys.readouterr().out
    assert "certificate rejected" in out
    assert "t congruences" in out


def test_check_cert_prints_details(tmp_path, capsys):
    # Each item is followed by its detail line, as in verify's text report;
    # the last line still names the failed identities.
    path = tmp_path / "cert.json"
    assert main(["certificate", "--r", "2,3", "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    obj["t"][0] += 4
    path.write_text(json.dumps(obj))
    assert main(["check-cert", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("  FAIL  t congruences")
    assert lines[at + 1] == "        - t_i = delta_ij mod r_j^2"
    items = [line for line in lines if line.startswith(("  PASS  ", "  FAIL  "))]
    details = [line for line in lines if line.startswith("        - ")]
    assert len(details) == len(items)
    assert lines[-1] == "certificate rejected: t congruences, s cofactors, t sum"


def test_check_cert_far_apart_free_exponents(tmp_path, capsys):
    # b1^(10^400) and b1^-(10^400) in one lambda entry: the file is rejected
    # by name, without the product's cost estimate overflowing a float.
    path = tmp_path / "cert.json"
    assert main(["certificate", "--r", "5,7", "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    far = 10**400
    obj["lambda"][0][0] = " + ".join(
        ["e", "a1", "b1", "a1 b1^2", f"b1^{far}", f"b1^-{far}", "a1^2 b1^3", "a1^3 b1^-2", "a1^4", "b1^5"]
    )
    path.write_text(json.dumps(obj))
    assert main(["check-cert", str(path)]) == 1
    captured = capsys.readouterr()
    assert "D_1 reconstruction" in captured.out.splitlines()[-1]
    assert captured.err == ""


def test_check_cert_io_and_parse_errors(tmp_path, capsys):
    assert main(["check-cert", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check-cert", str(bad)]) == 2
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"r": [2, 3], "version": 1}))
    assert main(["check-cert", str(malformed)]) == 2


def test_check_cert_deep_nesting_exit_2(tmp_path, capsys):
    # Past the parser's recursion limit: a parse error, not a traceback.
    path = tmp_path / "deep.json"
    path.write_text("[" * 10_000 + "]" * 10_000)
    assert main(["check-cert", str(path)]) == 2
    assert "is not valid JSON: nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["certificate", "complex"])
def test_unwritable_out_exit_2(command, tmp_path, capsys):
    path = tmp_path / "missing-dir" / "out.json"
    assert main([command, "--r", "2,3", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert captured.out == ""


def test_complex_export(tmp_path):
    path = tmp_path / "complex.json"
    assert main(["complex", "--r", "2,3", "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    assert obj["euler_characteristic"] == 0
    assert obj["c1_labels"] == ["a1", "b1", "a2", "b2"]
    assert obj["c2_labels"] == ["D1", "D2", "E1", "E2"]
    assert len(obj["d2"]) == 4 and all(len(row) == 4 for row in obj["d2"])
    # power rows carry just the norm element
    assert obj["d2"][2] == ["e + a1", "0", "0", "0"]
    assert obj["d2"][3] == ["0", "0", "e + a2 + a2^2", "0"]
    assert len(obj["d3"]) == 1
    assert len(obj["P"]) == 4 and len(obj["Q"]) == 4


def test_complex_single_factor(capsys):
    assert main(["complex", "--r", "7"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["euler_characteristic"] == 1
    assert obj["d3"] == []
    assert obj["P"] is None and obj["Q"] is None


def test_normalize(capsys):
    assert main(["normalize", "a1^3", "--r", "3,4,5"]) == 0
    assert capsys.readouterr().out.strip() == "e"
    assert main(["normalize", "a1 b1 a1^-1", "--r", "2,3,5"]) == 0
    assert capsys.readouterr().out.strip() == "b1"
    assert main(["normalize", "a1^5 b2^-1", "--r", "3,4,5"]) == 0
    assert capsys.readouterr().out.strip() == "a1^2 b2^-1"


def test_normalize_parse_error(capsys):
    assert main(["normalize", "a1 q2", "--r", "2,3"]) == 2
    err = capsys.readouterr().err
    assert "column 4" in err
    assert main(["normalize", "a9", "--r", "2,3"]) == 2


def _chain_groups(monkeypatch, corrupt):
    """Statuses and details of verify's last certificate-based groups when
    the built certificate is corrupted before the check."""
    build = cli.build_certificate
    monkeypatch.setattr(cli, "build_certificate", lambda params: corrupt(build(params)))
    groups = run_verification(PresentationParams((2, 3, 5)), seed=0, sample=5)
    return [(g.status, g.details) for g in groups[6:10]]


def test_verify_chain_groups_on_bad_trace(monkeypatch):
    def corrupt(cert):
        op = cert.basis_ops[0]
        bad = type(op)(op.src, op.dst, op.coeff + one())
        return type(cert)(cert.params, cert.crt, cert.lam, cert.mu, cert.alpha,
                          (bad,) + cert.basis_ops[1:])

    assert _chain_groups(monkeypatch, corrupt) == [
        ("fail", ("basis reduction", "basis inverse")),
        ("pass", ()),
        ("fail", ("operation trace does not reduce to a basis permutation",)),
        ("skip", ("no basis change",)),
    ]


def test_verify_chain_groups_on_bad_alpha(monkeypatch):
    def corrupt(cert):
        first = cert.alpha[0]
        bad = type(first)((first[0] + one(),) + first.entries[1:])
        return type(cert)(cert.params, cert.crt, cert.lam, cert.mu,
                          (bad,) + cert.alpha[1:], cert.basis_ops)

    assert _chain_groups(monkeypatch, corrupt) == [
        ("fail", ("alpha_1 kernel", "basis reduction", "basis inverse")),
        ("fail", ()),
        ("fail", ("operation trace does not reduce to a basis permutation",)),
        ("skip", ("no basis change",)),
    ]


@pytest.mark.parametrize(
    "orders, edit",
    [
        ("2,3", lambda obj: obj["basis_ops"][0].update(src=True)),
        ("2,3", lambda obj: obj.update(r=[True, 3])),
        ("7", lambda obj: obj.update(
            basis_ops=[{"op": "add_right_multiple", "src": 0, "dst": 1, "coeff": "b1^7"}])),
    ],
)
def test_check_cert_malformed_fields_exit_2(orders, edit, tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert main(["certificate", "--r", orders, "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    assert main(["check-cert", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_reconstructs_each_family_once(monkeypatch):
    calls = []
    reconstruct = certificate._reconstruct

    def counting(*args):
        calls.append(1)
        return reconstruct(*args)

    monkeypatch.setattr(certificate, "_reconstruct", counting)
    params = PresentationParams((2, 3, 5))
    assert all(g.status == "pass" for g in run_verification(params, sample=5))
    assert len(calls) == 2 * params.n  # D_i and E_i, each once


def test_verify_builds_d1_once(monkeypatch):
    calls = []
    d1_matrix = foxcomplex.d1_matrix

    def counting(*args):
        calls.append(1)
        return d1_matrix(*args)

    # cli binds the name on import; a foxcomplex caller would look it up there.
    monkeypatch.setattr(cli, "d1_matrix", counting, raising=False)
    monkeypatch.setattr(foxcomplex, "d1_matrix", counting)
    assert all(g.status == "pass" for g in run_verification(PresentationParams((2, 3, 5))))
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["certificate", "complex"])
def test_built_certificate_fault_exits_1(command, monkeypatch, tmp_path, capsys):
    alpha_coords = certificate._alpha_coords

    def corrupt(i, lam, params):
        alpha = alpha_coords(i, lam, params)
        return type(alpha)((alpha[0] + one(),) + alpha.entries[1:]) if i == 1 else alpha

    monkeypatch.setattr(certificate, "_alpha_coords", corrupt)
    path = tmp_path / "out.json"
    assert main([command, "--r", "2,3,5", "--out", str(path)]) == 1
    captured = capsys.readouterr()
    assert "internal verification fault" in captured.err
    assert "alpha_1 kernel" in captured.err
    assert captured.out == ""
    assert not path.exists()


def _check_cert_edited(tmp_path, capsys, edit):
    """Exit code and stderr of check-cert on a (2,3) certificate whose JSON
    text went through edit."""
    assert main(["certificate", "--r", "2,3"]) == 0
    path = tmp_path / "cert.json"
    path.write_text(edit(capsys.readouterr().out))
    code = main(["check-cert", str(path)])
    return code, capsys.readouterr().err


LONG = "7" * 5000  # past CPython's 4300-digit integer-string limit


def test_check_cert_long_ring_coefficient_exit_2(tmp_path, capsys):
    def edit(text):
        obj = json.loads(text)
        obj["lambda"][0][0] = f"{LONG}*a1"
        return json.dumps(obj)

    code, err = _check_cert_edited(tmp_path, capsys, edit)
    assert code == 2
    assert "lambda[0][0]: integer literal is not decimal or too long (column 1)" in err


def test_check_cert_long_json_integer_exit_2(tmp_path, capsys):
    def edit(text):
        obj = json.loads(text)
        return json.dumps(obj).replace('"t": [9,', f'"t": [{LONG},')

    code, err = _check_cert_edited(tmp_path, capsys, edit)
    assert code == 2
    assert "is not valid JSON" in err
    assert "integer literal exceeds 4300 digits" in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "word, column",
    [("a1^" + "4" * 4400, 4), ("b1 a" + "1" * 4400, 5), ("a1^-" + "9" * 4400, 5)],
    ids=["exponent", "index", "negative-exponent"],
)
def test_normalize_long_integer_exit_2(word, column, capsys):
    assert main(["normalize", word, "--r", "2,3"]) == 2
    assert f"(column {column})" in capsys.readouterr().err


def test_import_loads_no_heavy_modules():
    # Every command pays for what `import relcert.cli` loads.  -S keeps out
    # what site-packages .pth files would load first.
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import relcert.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'random'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
