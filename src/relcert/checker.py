"""The certificate checker: the certificate's types, the reader of its
JSON tree and check_certificate.  It never imports relcert.certificate,
the builders and writers, so check-cert's verdict rests on this module
and its import closure alone, which README's "What `check-cert` proves"
lists."""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ParameterError, ParseError
from .freewords import PresentationParams
from .foxcomplex import RingMatrix, RingVector, apply, d2_matrix
from .groupring import RingElement, one, parse_ring, ring_mul, torsion_term
from .relmodule import lifted_generator, module_generator

CERTIFICATE_VERSION = 1


class CrtData(namedtuple("CrtData", "t s")):
    """Integers t_i congruent to 1 mod r_i^2 and to 0 mod r_j^2 (j != i),
    canonical in [0, prod r_j^2), with the exact cofactors
    s_ij = (delta_ij - t_i) / r_j^2."""

    __slots__ = ()


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


def check_certificate(cert: Certificate) -> CheckReport:
    """Independently re-check every identity a certificate claims.

    Re-derives nothing: the stored integers are tested by modular
    arithmetic, the stored coefficient matrices by reconstructing the
    commutator classes and reading the power classes off those sums,
    sum_k X_k mu_ki = X_i - (sum_k X_k lambda_ki)(1 - a_i) + sum_k X_k Delta_ki,
    the stored kernel elements by boundary application, and the stored
    trace by replay.  Imports no builder code; README lists the code it shares."""
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
