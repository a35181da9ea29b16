"""Constructive generation certificates and their chain-level consequences.

A certificate packages plain integers (the Chinese-remainder data) with
group-ring coefficient matrices expressing both relator-class families
over the n+1 distinguished generators, the kernel elements attached as
3-cells, and an elementary-operation trace exhibiting those data as part
of a free basis of C2.  Everything a certificate claims is re-checkable
from its fields alone by ring arithmetic; the checker shares only that
arithmetic with the builder, so a construction bug cannot vouch for
itself.  build_certificate checks nothing, CRT data included.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

from .errors import ParameterError, ParseError, VerificationError
from .freewords import PresentationParams
from .foxcomplex import (
    RingMatrix,
    RingVector,
    apply,
    c1_labels,
    c2_labels,
    d1_matrix,
    d2_matrix,
)
from .groupring import (
    RingElement, one, parse_ring, ring_mul, ring_to_text, torsion_term
)
from .relmodule import lifted_generator, module_generator, reduction_multiplier

CERTIFICATE_VERSION = 1


class CrtData(namedtuple("CrtData", "t s")):
    """Integers t_i congruent to 1 mod r_i^2 and to 0 mod r_j^2 (j != i),
    canonical in [0, prod r_j^2), with the exact cofactors
    s_ij = (delta_ij - t_i) / r_j^2."""

    __slots__ = ()


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


class AddRightMultiple(namedtuple("AddRightMultiple", "src dst coeff")):
    """Elementary basis operation: row dst += row src * coeff.

    Inverse: subtract the same right multiple; requires src != dst."""

    __slots__ = ()

    def __new__(cls, src: int, dst: int, coeff: RingElement):
        if src == dst:
            raise ParameterError("elementary operation needs distinct rows")
        if src < 0 or dst < 0:
            raise ParameterError("row indices must be nonnegative")
        return super().__new__(cls, src, dst, coeff)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and so _replace, would skip __new__.
        return cls(*iterable)


class Certificate(
    namedtuple(
        "Certificate",
        "params crt lam mu alpha basis_ops version",
        defaults=(CERTIFICATE_VERSION,),
    )
):
    """All data needed to re-verify generation and the basis change.

    lam and mu are (n+1) x n tuples of ring elements: lam[k][i] and
    mu[k][i] are the coefficients of generator k+1 in the expansions of
    the commutator class i+1 and the power class i+1.  alpha holds the
    n-1 kernel elements over D1..Dn, E1..En, and basis_ops the
    AddRightMultiple trace."""

    __slots__ = ()


def _reconstruct(
    gens: list[RingVector],
    coeffs: list[RingElement],
    params: PresentationParams,
) -> RingVector:
    """sum_k gens_k * coeffs_k."""
    return apply(RingMatrix(gens), RingVector(coeffs), params)


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


def replay(
    ops: tuple[AddRightMultiple, ...],
    matrix: RingMatrix,
    params: PresentationParams,
) -> RingMatrix:
    """Apply an elementary-operation trace to the rows of a matrix."""
    rows = list(matrix)
    size = len(rows)
    for op in ops:
        if not (0 <= op.src < size and 0 <= op.dst < size):
            raise ParameterError(f"operation rows ({op.src}, {op.dst}) out of range 0..{size - 1}")
        rows[op.dst] = [
            d if s.is_zero else d + ring_mul(s, op.coeff, params)
            for d, s in zip(rows[op.dst], rows[op.src])
        ]
    return RingMatrix(RingVector(row) for row in rows)


def permutation_of_identity(m: RingMatrix) -> list[int] | None:
    """The map row -> unit position if m is a permutation matrix, else None:
    each row has one nonzero entry, equal to one(), and the positions are
    exactly 0..ncols-1 (so m is square; a row with no such entry reads -1)."""
    unit = one()
    positions = []
    for row in m:
        live = [j for j, entry in enumerate(row) if not entry.is_zero]
        positions.append(live[0] if len(live) == 1 and row[live[0]] == unit else -1)
    return positions if sorted(positions) == list(range(m.ncols)) else None


def basis_matrix(cert: Certificate) -> RingMatrix:
    """2n x 2n matrix whose rows are the kernel elements followed by the
    lifted generators, in C2 coordinates."""
    params = cert.params
    n = params.n
    rows = list(cert.alpha)
    rows += [lifted_generator(k, params) for k in range(1, n + 2)]
    return RingMatrix(rows)


NOT_REDUCED = "operation trace does not reduce to a basis permutation"
NOT_INVERSE = "basis matrix and its claimed inverse do not cancel"


def column_replay(
    ops: tuple[AddRightMultiple, ...],
    matrix: RingMatrix,
    positions: list[int],
    params: PresentationParams,
) -> RingMatrix:
    """compose(M Pi^-1, replay(ops, identity)) without a matrix product,
    where row r of the permutation Pi is the unit vector at positions[r]:
    P Q for M = P, and Q = Pi^-1 E itself for M = I.

    replay(ops, I) is E_m ... E_1 for the ops' elementary matrices, so the
    product is M Pi^-1 E_m ... E_1: start from M with column k replaced by
    column positions[k], then run the ops backwards as column operations,
    column src += coeff * column dst (coeff multiplying on the left)."""
    cols = [[row[j] for row in matrix] for j in positions]
    for op in reversed(ops):
        cols[op.src] = [
            s if d.is_zero else s + ring_mul(op.coeff, d, params)
            for s, d in zip(cols[op.src], cols[op.dst])
        ]
    return RingMatrix(RingVector(entries) for entries in zip(*cols))


def _check_basis(cert: Certificate) -> tuple[RingMatrix, list[int] | None, bool]:
    """The basis matrix P, the positions of the permutation Pi the trace
    reduces it to (None when it reaches none), and whether P Q = identity.

    Every op has src != dst, so its elementary matrix is invertible, and
    E P = Pi for E = E_m ... E_1 makes Q = Pi^-1 E a two-sided inverse of P.
    The check never forms Q (column_replay of the identity, where exported).
    P Q is still computed, as (P Pi^-1) E by column_replay: a recheck of the
    arithmetic in the other association order, judged by the one permutation
    test: P Q = I exactly when permutation_of_identity reads the identity."""
    params = cert.params
    p = basis_matrix(cert)
    positions = permutation_of_identity(replay(cert.basis_ops, p, params))
    if positions is None:
        return p, None, False
    product = column_replay(cert.basis_ops, p, positions, params)
    return p, positions, permutation_of_identity(product) == list(range(len(p)))


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


CheckItem = namedtuple("CheckItem", "name passed detail", defaults=("",))


class CheckReport(namedtuple("CheckReport", "items basis d2", defaults=(None, None))):
    """The CheckItems, accepted when all pass.  basis is the pair
    (P, positions) the basis items checked (_check_basis, which never forms
    Q); None when n = 1 or when the trace does not reach a permutation.  d2
    is the matrix the reconstruction and alpha kernel items read, for every n."""

    __slots__ = ()

    @property
    def accepted(self) -> bool:
        return all(item.passed for item in self.items)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(item.name for item in self.items if not item.passed)


def require_accepted(report: CheckReport) -> CheckReport:
    """The report on a built certificate; a rejection is a construction bug."""
    if not report.accepted:
        raise VerificationError(f"built certificate fails {', '.join(report.failures)}")
    return report


def check_certificate(cert: Certificate) -> CheckReport:
    """Independently re-check every identity a certificate claims.

    Re-derives nothing: the stored integers are tested by modular
    arithmetic, the stored coefficient matrices by reconstructing the
    commutator classes and reading the power classes off those sums,
    sum_k X_k mu_ki = X_i - (sum_k X_k lambda_ki)(1 - a_i) + sum_k X_k Delta_ki,
    the stored kernel elements by boundary application, and the stored
    trace by replay.  Shares only the ring kernel with build_certificate."""
    params = cert.params
    n = params.n
    items: list[CheckItem] = []

    moduli = [ri * ri for ri in params.r]
    big = math.prod(moduli)

    ok = all(0 <= ti < big for ti in cert.crt.t)
    items.append(CheckItem("t range", ok, f"0 <= t_i < {big}"))

    ok = all(
        cert.crt.t[i] % moduli[j] == (1 if i == j else 0)
        for i in range(n)
        for j in range(n)
    )
    items.append(CheckItem("t congruences", ok, "t_i = delta_ij mod r_j^2"))

    ok = all(
        cert.crt.t[i] + moduli[j] * cert.crt.s[i][j] == (1 if i == j else 0)
        for i in range(n)
        for j in range(n)
    )
    items.append(CheckItem("s cofactors", ok, "t_i + r_j^2 s_ij = delta_ij"))

    ok = sum(cert.crt.t) % big == 1
    items.append(CheckItem("t sum", ok, "sum of t_i = 1 mod prod r_j^2"))

    # Rows 1..n of d2 are the commutator classes D_i, rows n+1..2n the
    # power classes E_i.
    d2 = d2_matrix(params)
    gens = [module_generator(k, d2, params) for k in range(1, n + 2)]
    lam_cols = [RingVector(row[i] for row in cert.lam) for i in range(n)]
    got_d = [_reconstruct(gens, column, params) for column in lam_cols]
    detail = "sum_k X_k lambda_ki equals the commutator class"
    for i, got in enumerate(got_d, start=1):
        items.append(CheckItem(f"D_{i} reconstruction", got == d2[i - 1], detail))
    # The E sums as in the docstring; Delta_ki = mu_ki - [k = i] + lambda_ki (1 - a_i).
    detail = "sum_k X_k mu_ki equals the power class"
    for i, (column, got_di) in enumerate(zip(lam_cols, got_d), start=1):
        shear = one() - torsion_term(i, 1, params)
        mu_col = RingVector(row[i - 1] for row in cert.mu)
        delta = mu_col - RingVector.unit(n + 1, i - 1) + column.act(shear, params)
        got = gens[i - 1] - got_di.act(shear, params)
        if not delta.is_zero:
            got = got + _reconstruct(gens, delta, params)
        items.append(CheckItem(f"E_{i} reconstruction", got == d2[n + i - 1], detail))

    for i, a in enumerate(cert.alpha, start=1):
        items.append(
            CheckItem(
                f"alpha_{i} kernel",
                apply(d2, a, params).is_zero,
                "boundary of the 3-cell attaching element vanishes",
            )
        )

    basis = None
    if n >= 2:
        p, positions, inverts = _check_basis(cert)
        items.append(
            CheckItem(
                "basis reduction",
                positions is not None,
                "operation trace reaches a permutation of the standard basis",
            )
        )
        if positions is not None:
            basis = (p, positions)
            detail = "P Q = identity; Q P follows from basis reduction"
            items.append(CheckItem("basis inverse", inverts, detail))
        else:
            items.append(CheckItem("basis inverse", False, "no permutation to invert"))
    return CheckReport(tuple(items), basis, d2)


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


def _require(condition: bool, message: str):
    if not condition:
        raise ParseError(message)


def _is_int(value) -> bool:
    """A JSON integer.  JSON true/false load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _params_from_json(obj) -> PresentationParams:
    """The orders of field 'r': ParseError when it is not a nonempty list of
    integers, ParameterError when they are not valid orders."""
    _require(isinstance(obj, dict), "certificate must be a JSON object")
    r = obj.get("r")
    _require(
        isinstance(r, list) and r and all(_is_int(v) for v in r),
        "field 'r' must be a nonempty list of integers",
    )
    return PresentationParams(tuple(r))


def certificate_from_json(obj: dict) -> Certificate:
    """Rebuild a certificate from its JSON tree.  Structural problems and
    malformed ring text raise ParseError; the mathematical content is NOT
    checked here (that is check_certificate's job)."""
    return _certificate_fields(obj, _params_from_json(obj))


def _certificate_fields(obj: dict, params: PresentationParams) -> Certificate:
    """certificate_from_json for a tree whose 'r' already gave params."""
    n = params.n
    words, elements = {}, {}  # parse_ring's word memo; each distinct text's element

    def ring_field(text, where: str) -> RingElement:
        _require(isinstance(text, str), f"{where}: expected a ring-element string")
        x = elements.get(text)
        if x is None:
            try:
                x = elements[text] = parse_ring(text, params, words)
            except ParseError as exc:
                raise ParseError(f"{where}: {exc.raw_message}", exc.column) from None
        return x

    version = obj.get("version")
    _require(
        _is_int(version) and version == CERTIFICATE_VERSION,
        f"unsupported certificate version {version!r}",
    )

    t = obj.get("t")
    _require(
        isinstance(t, list) and len(t) == n and all(_is_int(v) for v in t),
        f"field 't' must be a list of {n} integers",
    )
    s = obj.get("s")
    _require(
        isinstance(s, list)
        and len(s) == n
        and all(
            isinstance(row, list) and len(row) == n and all(_is_int(v) for v in row)
            for row in s
        ),
        f"field 's' must be a {n}x{n} integer matrix",
    )
    crt = CrtData(tuple(t), tuple(tuple(row) for row in s))

    def coeff_matrix(name: str, nrows: int, ncols: int) -> tuple[tuple[RingElement, ...], ...]:
        raw = obj.get(name)
        _require(
            isinstance(raw, list) and len(raw) == nrows
            and all(isinstance(row, list) and len(row) == ncols for row in raw),
            f"field '{name}' must be a {nrows}x{ncols} matrix of ring-element strings",
        )
        return tuple(
            tuple(
                ring_field(raw[k][i], f"{name}[{k}][{i}]")
                for i in range(ncols)
            )
            for k in range(nrows)
        )

    lam = coeff_matrix("lambda", n + 1, n)
    mu = coeff_matrix("mu", n + 1, n)
    alpha = tuple(RingVector(row) for row in coeff_matrix("alpha", n - 1, 2 * n))

    raw_ops = obj.get("basis_ops")
    _require(isinstance(raw_ops, list), "field 'basis_ops' must be a list")
    # With one factor there is no basis change, so no op could be checked.
    _require(n >= 2 or not raw_ops, "field 'basis_ops' must be empty when n = 1")
    ops = []
    for idx, raw in enumerate(raw_ops):
        where = f"basis_ops[{idx}]"
        _require(isinstance(raw, dict), f"{where}: expected an object")
        _require(raw.get("op") == "add_right_multiple", f"{where}: unknown op kind")
        src, dst = raw.get("src"), raw.get("dst")
        _require(
            _is_int(src) and _is_int(dst) and 0 <= src < 2 * n
            and 0 <= dst < 2 * n and src != dst,
            f"{where}: 'src' and 'dst' must be distinct row indices below {2 * n}",
        )
        ops.append(
            AddRightMultiple(src, dst, ring_field(raw.get("coeff"), where))
        )
    return Certificate(params, crt, lam, mu, alpha, tuple(ops))


def check_certificate_json(obj) -> CheckReport:
    """Validate a raw JSON tree: bad presentation parameters give a
    rejection at the params stage, everything else defers to
    certificate_from_json + check_certificate."""
    try:
        params = _params_from_json(obj)
    except ParameterError as exc:
        return CheckReport((CheckItem("params", False, str(exc)),))
    # Outside the try: a ParameterError from ring text is no params verdict.
    report = check_certificate(_certificate_fields(obj, params))
    params_item = CheckItem("params", True, "orders valid and pairwise coprime")
    return report._replace(items=(params_item,) + report.items)


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
