"""Constructive generation certificates and their chain-level consequences.

A certificate packages plain integers (the Chinese-remainder data) with
group-ring coefficient matrices expressing both relator-class families
over the n+1 distinguished generators, the kernel elements attached as
3-cells, and an elementary-operation trace exhibiting those data as part
of a free basis of C2.  This module builds and writes them; the checker,
relcert.checker, never imports it, so a construction bug cannot vouch
for itself.  build_certificate checks nothing, CRT data included.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

from .checker import (
    CERTIFICATE_VERSION, AddRightMultiple, Certificate, CheckReport, CrtData,
    _check_basis, check_certificate, column_replay,
)
# perfbench traces or imports these three here; nothing in relcert uses them.
from .checker import certificate_from_json, check_certificate_json, replay  # noqa: F401
from .errors import ParameterError, VerificationError
from .freewords import PresentationParams
from .foxcomplex import RingMatrix, RingVector, apply, c1_labels, c2_labels, d1_matrix, d2_matrix
from .groupring import RingElement, one, ring_to_text, torsion_term
from .relmodule import lifted_generator, reduction_multiplier


def crt_coefficients(params: PresentationParams) -> CrtData:
    """Solve the simultaneous congruences by modular inversion of the
    complementary products; exactness is the checker's `s cofactors` item."""
    moduli = [ri * ri for ri in params.r]
    big = math.prod(moduli)
    t: list[int] = []
    s: list[tuple[int, ...]] = []
    for i, mi in enumerate(moduli):
        rest = big // mi
        ti = rest * pow(rest, -1, mi) % big
        row = []
        for j, mj in enumerate(moduli):
            delta = 1 if i == j else 0
            row.append((delta - ti) // mj)
        t.append(ti)
        s.append(tuple(row))
    return CrtData(tuple(t), tuple(s))


def _alpha_coords(
    i: int,
    lam: tuple[tuple[RingElement, ...], ...],
    lifted: RingMatrix,
    params: PresentationParams,
) -> RingVector:
    # alpha_i = D_i - sum_k Xhat_k * lam[k][i] over D1..Dn, E1..En; lifted rows are Xhat_k.
    column = RingVector(row[i - 1] for row in lam)
    return RingVector.unit(2 * params.n, i - 1) - apply(lifted, column, params)


def _basis_ops(
    lam: tuple[tuple[RingElement, ...], ...], params: PresentationParams
) -> tuple[AddRightMultiple, ...]:
    # Rows 0..n-2 hold alpha_1..alpha_{n-1}; rows n-1..2n-1 hold the lifted
    # generators 1..n+1.  Three stages: (a) cancel each alpha row back to a
    # D row, (b) peel the last lifted generator down to the remaining D row,
    # (c) shear each lifted generator down to its E row.
    n = params.n
    ops: list[AddRightMultiple] = []
    for i in range(1, n):
        for k in range(1, n + 2):
            coeff = lam[k - 1][i - 1]
            if not coeff.is_zero:
                ops.append(AddRightMultiple(src=n + k - 2, dst=i - 1, coeff=coeff))
    minus_one = -one()
    for j in range(1, n):
        ops.append(AddRightMultiple(src=j - 1, dst=2 * n - 1, coeff=minus_one))
    for i in range(1, n + 1):
        src = i - 1 if i < n else 2 * n - 1
        coeff = torsion_term(i, 1, params) - one()
        ops.append(AddRightMultiple(src=src, dst=n + i - 2, coeff=coeff))
    return tuple(ops)


def build_certificate(params: PresentationParams) -> Certificate:
    """Construct a certificate for the given orders, unchecked (CRT data
    too): the checker alone judges it."""
    n = params.n
    crt = crt_coefficients(params)
    w = [reduction_multiplier(j, params) for j in range(1, n + 1)]

    lam_rows: list[tuple[RingElement, ...]] = []
    for j in range(1, n + 1):
        lam_rows.append(tuple(crt.s[i - 1][j - 1] * w[j - 1] for i in range(1, n + 1)))
    lam_rows.append(tuple(crt.t[i - 1] * one() for i in range(1, n + 1)))
    lam = tuple(lam_rows)

    # E_i = X_i - D_i (1 - a_i): column i of mu is e_i - (column i of lam)(1 - a_i).
    mu_columns = []
    for i in range(1, n + 1):
        shear = one() - torsion_term(i, 1, params)
        lam_column = RingVector(row[i - 1] for row in lam)
        mu_columns.append(RingVector.unit(n + 1, i - 1) - lam_column.act(shear, params))
    mu = tuple(zip(*mu_columns))

    lifted = RingMatrix(lifted_generator(k, params) for k in range(1, n + 2))
    alphas = tuple(_alpha_coords(i, lam, lifted, params) for i in range(1, n))
    ops = _basis_ops(lam, params) if n >= 2 else ()
    return Certificate(params, crt, lam, mu, alphas, ops)


NOT_REDUCED = "operation trace does not reduce to a basis permutation"
NOT_INVERSE = "basis matrix and its claimed inverse do not cancel"


def basis_change(cert: Certificate) -> tuple[RingMatrix, RingMatrix, tuple[AddRightMultiple, ...]]:
    """The basis matrix P, its explicit two-sided inverse Q, and the trace.

    Verifies that the trace reduces P to a permutation of the standard
    basis and that P Q = identity (see _check_basis); any failure is a
    hard fault.  Q is the column replay of the identity."""
    if cert.params.n < 2:
        raise ParameterError("basis change requires n >= 2")
    p, positions, inverts = _check_basis(cert)
    if not inverts:
        raise VerificationError(NOT_REDUCED if positions is None else NOT_INVERSE)
    q = column_replay(cert.basis_ops, RingMatrix.identity(len(p)), positions, cert.params)
    return p, q, cert.basis_ops


class SplittingReport(
    namedtuple(
        "SplittingReport",
        "boundary_composite_zero inclusion_normalized three_cells lifted_generators total_rank",
    )
):
    """How the 3-cell boundary sits inside C2 after the basis change:
    whether d2 after the 3-cell boundary vanishes, whether the 3-cell rows
    become the first unit vectors, and the ranks n - 1, n + 1 and 2n."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return (
            self.boundary_composite_zero
            and self.inclusion_normalized
            and self.three_cells + self.lifted_generators == self.total_rank
        )


def splitting_report(cert: Certificate) -> SplittingReport:
    """Check that the 3-cell boundary rows die under d2 and, in the new
    basis read off from (P, Q), form the coordinate inclusion onto the
    first n-1 basis vectors."""
    params = cert.params
    n = params.n
    if n < 2:
        raise ParameterError("splitting needs n >= 2 (no 3-cells otherwise)")
    _, q, _ = basis_change(cert)
    d2 = d2_matrix(params)
    composite_zero = all(apply(d2, a, params).is_zero for a in cert.alpha)
    size = 2 * n
    normalized = all(
        apply(q, cert.alpha[i], params) == RingVector.unit(size, i)
        for i in range(n - 1)
    )
    return SplittingReport(
        boundary_composite_zero=composite_zero,
        inclusion_normalized=normalized,
        three_cells=n - 1,
        lifted_generators=n + 1,
        total_rank=size,
    )


def euler_characteristic(n: int) -> int:
    """Alternating cell count of the 3-complex: one 0-cell, 2n 1-cells,
    2n 2-cells, and n-1 attached 3-cells."""
    if n < 1:
        raise ParameterError(f"n={n} must be >= 1")
    return 1 - 2 * n + 2 * n - (n - 1)


def require_accepted(report: CheckReport) -> CheckReport:
    """The report on a built certificate; a rejection is a construction bug."""
    if not report.accepted:
        raise VerificationError(f"built certificate fails {', '.join(report.failures)}")
    return report


# ---------------------------------------------------------------------------
# serialization

def _renderer():
    """ring_to_text for one document: once per element object (each must
    outlive it) and per word (ring_to_text's memo)."""
    texts, words = {}, {}
    return lambda x: texts.get(id(x)) or texts.setdefault(id(x), ring_to_text(x, words))


def _matrix_texts(rows, render) -> list[list[str]]:
    """The ring text of every entry, row by row."""
    return [[render(e) for e in row] for row in rows]


def certificate_to_json(cert: Certificate) -> dict:
    render = _renderer()
    return {
        "version": cert.version,
        "r": list(cert.params.r),
        "t": list(cert.crt.t),
        "s": [list(row) for row in cert.crt.s],
        "lambda": _matrix_texts(cert.lam, render),
        "mu": _matrix_texts(cert.mu, render),
        "alpha": _matrix_texts(cert.alpha, render),
        "basis_ops": [
            {
                "op": "add_right_multiple",
                "src": op.src,
                "dst": op.dst,
                "coeff": render(op.coeff),
            }
            for op in cert.basis_ops
        ],
    }


def document_text(tree: dict) -> str:
    """The text of an output document: the one format every writer uses."""
    return json.dumps(tree, indent=2, sort_keys=True) + "\n"


def certificate_bytes(cert: Certificate) -> bytes:
    """Deterministic file encoding, byte for byte what `relcert certificate` writes."""
    return document_text(certificate_to_json(cert)).encode("utf-8")


# ---------------------------------------------------------------------------
# chain-level export

class ChainExport(namedtuple("ChainExport", "params d1 d2 d3 p q")):
    """The boundary data of the 3-complex: d1, d2 and the n-1 rows of d3,
    with the basis change (p, q) when n >= 2 and None for both otherwise."""

    __slots__ = ()

    @property
    def euler(self) -> int:
        return euler_characteristic(self.params.n)


def build_chain_export(params: PresentationParams) -> ChainExport:
    """Build the certificate, check all of it, take P and d2 from the check,
    and make Q as the column replay of the identity."""
    cert = build_certificate(params)
    report = require_accepted(check_certificate(cert))
    p, positions = report.basis or (None, None)
    q = p and column_replay(cert.basis_ops, RingMatrix.identity(len(p)), positions, params)
    return ChainExport(params, d1_matrix(params), report.d2, cert.alpha, p, q)


def chain_export_to_json(export: ChainExport) -> dict:
    n = export.params.n
    render = _renderer()
    return {
        "version": CERTIFICATE_VERSION,
        "r": list(export.params.r),
        "euler_characteristic": export.euler,
        "c1_labels": c1_labels(n),
        "c2_labels": c2_labels(n),
        "d3_labels": [f"alpha{i}" for i in range(1, n)],
        "d1": [render(row[0]) for row in export.d1],
        "d2": _matrix_texts(export.d2, render),
        "d3": _matrix_texts(export.d3, render),
        "P": _matrix_texts(export.p, render) if export.p is not None else None,
        "Q": _matrix_texts(export.q, render) if export.q is not None else None,
    }
