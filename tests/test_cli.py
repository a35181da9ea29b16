import errno
import gc
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcert import certificate, cli, foxcomplex, groupring, relmodule
from relcert.cli import main, run_verification
from relcert.freewords import PresentationParams
from relcert.groupring import one
from rebind import rebind, spy


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        ([], "the following arguments are required: command"),
    ],
    ids=["unknown", "missing"],
)
def test_unknown_or_missing_command_exits_2(argv, message, capsys):
    # The required subparser exits 2 with argparse's own message.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: relcert")
    assert f"relcert: error: {message}" in captured.err


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


@pytest.mark.parametrize("orders", ["2,3,5", "7"])
@pytest.mark.parametrize("command", ["certificate", "complex"])
def test_document_bytes_same_on_every_target(command, orders, tmp_path, capsysbinary):
    # One encoding: stdout, '--out -' and '--out <file>' receive the same bytes,
    # and for a certificate they are certificate_bytes of the built certificate.
    assert main([command, "--r", orders]) == 0
    stdout = capsysbinary.readouterr().out
    assert stdout.startswith(b"{\n") and stdout.endswith(b"\n}\n")
    assert main([command, "--r", orders, "--out", "-"]) == 0
    assert capsysbinary.readouterr().out == stdout
    path = tmp_path / "document.json"
    assert main([command, "--r", orders, "--out", str(path)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert path.read_bytes() == stdout
    if command == "certificate":
        params = PresentationParams(tuple(int(v) for v in orders.split(",")))
        assert stdout == certificate.certificate_bytes(certificate.build_certificate(params))


def test_writer_holds_no_certificate_or_export(monkeypatch, capsys):
    # The certificate or chain export is released before its tree is encoded,
    # so the writer runs with only the tree (and then its text) alive.
    built, alive = [], []
    write_output = cli._write_output

    def remember(build):
        def remembered(params):
            obj = build(params)
            built.append(id(obj))
            return obj
        return remembered

    def write(tree, out):
        alive.append(any(id(o) == built[-1] for o in gc.get_objects()))
        return write_output(tree, out)

    # cli's bindings alone: the build_certificate inside build_chain_export
    # makes a certificate the command never holds.
    monkeypatch.setattr(cli, "_write_output", write)
    for name in ("build_certificate", "build_chain_export"):
        monkeypatch.setattr(cli, name, remember(getattr(cli, name)))
    assert main(["certificate", "--r", "2,3,5"]) == 0
    assert main(["complex", "--r", "2,3,5"]) == 0
    assert len(built) == 2 and alive == [False, False]


PRIMES16 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


@pytest.mark.parametrize("target", ["stdout", "file"])
def test_write_phase_holds_one_text(target, tmp_path, monkeypatch):
    # Writing a built tree holds the encoder's chunks and the joined text, then
    # that text and its UTF-8 bytes: about twice the document.  A second
    # encoding or a bytes round trip makes three times.
    tree = certificate.certificate_to_json(
        certificate.build_certificate(PresentationParams(PRIMES16))
    )
    stdout = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    path = tmp_path / "cert.json"
    tracemalloc.start()
    try:
        assert cli._write_output(tree, None if target == "stdout" else str(path)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = len(stdout.getvalue()) if target == "stdout" else path.stat().st_size
    assert size > 3_000_000
    assert peak <= 2.5 * size


def test_normalize(capsys):
    assert main(["normalize", "a1^3", "--r", "3,4,5"]) == 0
    assert capsys.readouterr().out.strip() == "e"
    assert main(["normalize", "a1 b1 a1^-1", "--r", "2,3,5"]) == 0
    assert capsys.readouterr().out.strip() == "b1"
    assert main(["normalize", "a1^5 b2^-1", "--r", "3,4,5"]) == 0
    assert capsys.readouterr().out.strip() == "a1^2 b2^-1"


class _FullStdout(io.StringIO):
    """A stdout on a full disk: every write fails, or with buffered=True
    only the flush, as when the text fits the buffer."""

    def __init__(self, buffered=False):
        super().__init__()
        self.buffered = buffered

    def write(self, text):
        if not self.buffered:
            self.flush()
        return super().write(text)

    def flush(self):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("buffered", [False, True], ids=["write", "flush"])
@pytest.mark.parametrize(
    "command", ["verify", "certificate", "check-cert", "complex", "normalize", "--help"]
)
def test_failed_stdout_write_exits_2(command, buffered, monkeypatch, tmp_path, capsys):
    # A stdout that cannot be written is an I/O error, not a rejection;
    # argparse's own print_help would drop the OSError and exit 0.
    cert = str(tmp_path / "cert.json")
    assert main(["certificate", "--r", "2,3", "--out", cert]) == 0
    argv = {"check-cert": [cert], "normalize": ["a1", "--r", "2,3"], "--help": []}.get(
        command, ["--r", "2,3"]
    )
    monkeypatch.setattr(sys, "stdout", _FullStdout(buffered))
    assert main([command, *argv]) == 2
    assert capsys.readouterr().err == "error: cannot write stdout: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("argv", [
    ["verify", "--r", "2,3"], ["certificate", "--r", "2,3,5"], ["--help"], ["verify", "--help"],
])
def test_stdout_on_a_full_device_exits_2_quietly(argv, unbuffered):
    # Buffered, the text fails at main's flush, or help text at the parser's
    # own flush before argparse exits; the flush at exit then finds stdout
    # on the null device and prints nothing more.
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); from relcert.cli import main; sys.exit(main({argv!r}))"
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    with open("/dev/full", "w") as full:
        result = subprocess.run([sys.executable, "-c", code], stdout=full, stderr=subprocess.PIPE,
                                text=True, env=env)
    assert (result.returncode, result.stderr) == (
        2, "error: cannot write stdout: [Errno 28] No space left on device\n"
    )


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
        bad = type(first)((first[0] + one(),) + first[1:])
        return type(cert)(cert.params, cert.crt, cert.lam, cert.mu,
                          (bad,) + cert.alpha[1:], cert.basis_ops)

    assert _chain_groups(monkeypatch, corrupt) == [
        ("fail", ("alpha_1 kernel", "basis reduction", "basis inverse")),
        ("fail", ()),
        ("fail", ("operation trace does not reduce to a basis permutation",)),
        ("skip", ("no basis change",)),
    ]


def _swap_first_rows(m):
    return type(m)((m[1], m[0]) + m[2:])


def _bump_first_diagonal(m):
    first = m[0]
    return type(m)((type(first)((first[0] + one(),) + first[1:]),) + m[1:])


@pytest.mark.parametrize(
    "fault", [_swap_first_rows, _bump_first_diagonal], ids=["swap-rows", "bump-diagonal"]
)
def test_basis_inverse_fails_alone(fault, monkeypatch, tmp_path, capsys):
    """A P Q that is another permutation, or no permutation at all, fails
    basis inverse and no other item."""
    column_replay = certificate.column_replay
    monkeypatch.setattr(certificate, "column_replay", lambda *args: fault(column_replay(*args)))
    params = PresentationParams((2, 3, 5))
    cert = certificate.build_certificate(params)
    assert certificate.check_certificate(cert).failures == ("basis inverse",)
    path = tmp_path / "cert.json"
    path.write_bytes(certificate.certificate_bytes(cert))
    assert main(["check-cert", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "certificate rejected: basis inverse"
    groups = run_verification(params, seed=0, sample=5)
    assert [(g.status, g.details) for g in groups[8:10]] == [
        ("fail", ("basis matrix and its claimed inverse do not cancel",)),
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
    calls = spy(monkeypatch, certificate._reconstruct)
    params = PresentationParams((2, 3, 5))
    assert all(g.status == "pass" for g in run_verification(params, sample=5))
    # D_i once each; every E_i is read off its D_i sum, as its residual is zero.
    assert len(calls) == params.n


def test_check_reconstructs_a_nonzero_residual_once(monkeypatch):
    params = PresentationParams((2, 3, 5))
    obj = json.loads(certificate.certificate_bytes(certificate.build_certificate(params)))
    obj["mu"][0][0] += " + e"
    calls = spy(monkeypatch, certificate._reconstruct)
    report = certificate.check_certificate_json(obj)
    assert report.failures == ("E_1 reconstruction",)
    assert len(calls) == params.n + 1  # the n D sums and E_1's residual


def test_commands_make_no_plain_convolution(monkeypatch, tmp_path, capsys):
    # Every one-factor coefficient is written as the left operand of its
    # product, so ring_mul splits it and never falls back to _convolve.
    calls = spy(monkeypatch, groupring._convolve)
    cert = str(tmp_path / "cert.json")
    assert main(["verify", "--r", "2,3,5"]) == 0
    assert main(["certificate", "--r", "2,3,5", "--out", cert]) == 0
    assert main(["complex", "--r", "2,3,5", "--out", str(tmp_path / "complex.json")]) == 0
    assert main(["check-cert", cert]) == 0
    assert main(["verify", "--r", "7"]) == 0
    capsys.readouterr()
    assert calls == []


def test_verify_builds_no_d1_and_complex_builds_one(monkeypatch, tmp_path, capsys):
    calls = spy(monkeypatch, foxcomplex.d1_matrix)
    assert all(g.status == "pass" for g in run_verification(PresentationParams((2, 3, 5))))
    assert calls == []
    assert main(["complex", "--r", "2,3,5", "--out", str(tmp_path / "complex.json")]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_verify_builds_2n_starred_rows(monkeypatch):
    calls = spy(monkeypatch, foxcomplex.starred_fox_row)
    groups = run_verification(PresentationParams((2, 3, 5)))
    assert all(g.status == "pass" for g in groups)
    # The one d2 of the certificate check; every other group reads its rows,
    # and the sampled words run the walk core, which builds no row.
    assert len(calls) == 2 * 3


SAMPLE_GROUP = "fundamental derivative identity (200 sampled words)"
CHAIN_GROUP = "chain condition d1 after d2 = 0"


def _failing_groups():
    return {g.name for g in run_verification(PresentationParams((2, 3, 5))) if g.status == "fail"}


def test_walk_core_fault_fails_the_sample(monkeypatch):
    # A walk that drops one cell of a negative exponent (its first cell with
    # a negative coefficient) changes that column by one term, which
    # x^-1 - 1 does not annihilate.
    walk = foxcomplex._fox_walk

    def dropping(w, params):
        cols = walk(w, params)
        for col in cols:
            for rest, cells in col.items():
                cell = next((s for s, c in cells.items() if c < 0), None)
                if cell is not None:
                    del cells[cell]
                    if not cells:
                        del col[rest]
                    return cols
        return cols

    rebind(monkeypatch, walk, dropping)
    assert SAMPLE_GROUP in _failing_groups()


def test_d1_core_fault_fails_the_sample_and_the_chain_condition(monkeypatch):
    # A d1 core that skips the last column, b_n's; no other group applies d1.
    d1_cells = foxcomplex._d1_cells
    rebind(monkeypatch, d1_cells, lambda cols, r: d1_cells(cols[:-1] + [None], r))
    assert _failing_groups() == {SAMPLE_GROUP, CHAIN_GROUP}


@pytest.mark.parametrize("command", ["certificate", "complex"])
def test_built_certificate_fault_exits_1(command, monkeypatch, tmp_path, capsys):
    alpha_coords = certificate._alpha_coords
    basis_ops = certificate._basis_ops

    def corrupt(i, lam, lifted, params):
        alpha = alpha_coords(i, lam, lifted, params)
        return type(alpha)((alpha[0] + one(),) + alpha[1:]) if i == 1 else alpha

    def short_trace(lam, params):
        return basis_ops(lam, params)[:-1]

    for name, fault, item in (
        ("_alpha_coords", corrupt, "alpha_1 kernel"),
        ("_basis_ops", short_trace, "basis reduction"),
    ):
        with monkeypatch.context() as patched:
            rebind(patched, getattr(certificate, name), fault)
            path = tmp_path / f"{name}.json"
            assert main([command, "--r", "2,3,5", "--out", str(path)]) == 1
        captured = capsys.readouterr()
        assert "internal verification fault" in captured.err
        assert item in captured.err
        assert captured.out == ""
        assert not path.exists()


def test_builder_crt_fault_reaches_the_checker(monkeypatch, capsys):
    # The builder does not check its CRT data; the checker names the fault.
    crt_coefficients = certificate.crt_coefficients

    def off_by_one(params):
        crt = crt_coefficients(params)
        first = (crt.s[0][0] + 1,) + crt.s[0][1:]
        return type(crt)(crt.t, (first,) + crt.s[1:])

    rebind(monkeypatch, crt_coefficients, off_by_one)
    assert main(["verify", "--r", "2,3", "--format", "json"]) == 1
    groups = {g["name"]: g for g in json.loads(capsys.readouterr().out)["groups"]}
    assert "s cofactors" in groups["generation certificate build and recheck"]["details"]
    assert main(["certificate", "--r", "2,3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "internal verification fault: built certificate fails s cofactors, "
    )
    assert captured.out == ""


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
        "print(sorted({'dataclasses', 'inspect', 'typing', 'random', 'argparse'}"
        " & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def _run_main(argv):
    """A fresh `python -S` process that imports relcert.cli and runs main(argv)."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from relcert.cli import main; "
        f"code = main({argv!r}); "
        "print('argparse' in sys.modules, file=sys.stderr); sys.exit(code)"
    )
    return subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)


def test_well_formed_command_loads_no_argparse():
    result = _run_main(["certificate", "--r", "2,3"])
    assert result.returncode == 0
    assert result.stderr == "False\n"
    assert result.stdout.startswith("{")


def test_help_goes_to_argparse():
    result = _run_main(["--help"])
    assert result.returncode == 0
    assert result.stdout.startswith("usage: relcert")


# Each subcommand's required chunks and optional chunks, in canonical spelling.
CANONICAL = {
    "verify": ([], [["--r", "2,3"], ["--format", "json"], ["--seed", "7"]]),
    "certificate": ([], [["--r", "2,3"], ["--out", "c.json"]]),
    "check-cert": ([["c.json"]], []),
    "complex": ([], [["--r", "2,3"], ["--out", "c.json"]]),
    "normalize": ([["a1 b1"]], [["--r", "2,3"]]),
}


def _canonical_argvs():
    for command, (required, optional) in CANONICAL.items():
        for k in range(len(optional) + 1):
            for chosen in itertools.combinations(optional, k):
                for order in itertools.permutations(required + list(chosen)):
                    yield [command, *itertools.chain.from_iterable(order)]


def test_hand_parser_takes_every_option_order():
    argvs = list(_canonical_argvs())
    assert len(argvs) == 16 + 5 + 1 + 5 + 3
    for argv in argvs:
        assert cli._parse_plain(argv) == vars(cli._build_parser().parse_args(argv)), argv


ARGV_TOKENS = [
    *cli._COMMANDS, "--r", "--out", "--format", "--seed",
    "--r=2,3", "--form", "-h", "--", "-1", "-", "", "json", "xml", "text", "x", "2,3", "7",
]


@pytest.mark.parametrize(
    "argv",
    [
        [], ["-h"], ["verify", "-h"], ["verify", "--r=2,3"], ["verify", "--form", "json"],
        ["verify", "--r", "2,3", "--r", "2,3"], ["verify", "--format", "xml"],
        ["verify", "--seed", "x"], ["verify", "--seed", "-1"], ["verify", "--"],
        ["verify", "--r"], ["verify", "--out", "x"], ["verify", "x"], ["check-cert"],
        ["check-cert", "a", "b"], ["normalize", "--r", "2,3", "-"], ["verif"],
    ],
    ids=" ".join,
)
def test_hand_parser_declines(argv):
    assert cli._parse_plain(argv) is None


TOKEN_LISTS = st.lists(st.sampled_from(ARGV_TOKENS), max_size=7)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    TOKEN_LISTS,
    st.builds(lambda command, rest: [command, *rest], st.sampled_from(list(cli._COMMANDS)), TOKEN_LISTS),
))
def test_hand_parser_agrees_with_argparse(argv):
    # Either the hand parser declines, or argparse accepts the argv and parses
    # it to the same arguments.
    plain = cli._parse_plain(argv)
    if plain is None:
        return
    try:
        expected = vars(cli._build_parser().parse_args(argv))
    except SystemExit:
        raise AssertionError(f"argparse rejects {argv}, which the hand parser took")
    assert plain == expected


@pytest.mark.parametrize(
    "argv, canonical",
    [
        (["certificate", "--r", "5", "--r", "2,3"], ["certificate", "--r", "2,3"]),
        (["certificate", "--r=2,3"], ["certificate", "--r", "2,3"]),
        (["verify", "--r", "2,3", "--form", "json"], ["verify", "--r", "2,3", "--format", "json"]),
        (["verify", "--r", "2,3", "--seed", "-1"], ["verify", "--r", "2,3", "--seed", "1"]),
        (["certificate", "--r", "2,3", "--out", "-"], ["certificate", "--r", "2,3"]),
    ],
    ids=["repeated-last-wins", "equals", "abbreviation", "negative-seed", "dash-out"],
)
def test_fallback_spelling_matches_canonical(argv, canonical, capsys):
    assert cli._parse_plain(argv) is None
    assert cli._parse_plain(canonical) is not None
    code = main(argv)
    fallback = capsys.readouterr()
    assert (code, fallback.out, fallback.err) == (main(canonical), *capsys.readouterr())
    assert fallback.out


def test_negative_seed_reaches_argparse():
    assert vars(cli._build_parser().parse_args(["verify", "--seed", "-1"]))["seed"] == -1


def test_main_reads_sys_argv(monkeypatch, capsys):
    # The console script calls main() with no argv; it too skips argparse.
    argv = ["certificate", "--r", "2,3"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["relcert", *argv])
    monkeypatch.setattr(cli, "_build_parser", None)
    assert main() == 0
    assert capsys.readouterr().out == expected
