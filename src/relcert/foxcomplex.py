"""Free differential calculus into the group ring, and the chain-level
boundary data built from it.

Convention used throughout: modules are RIGHT modules over the group ring.
A matrix row holds the image of one basis element written over the target
basis, and a coefficient vector acts by right multiplication,

    apply(M, v) = sum_k row_k * v_k.

Fox derivative rows are passed through the star involution entry-wise,
which turns their natural left-module behaviour into this right action:
for a word w with trivial image and any g,

    d(g^-1 w g)/dx = g^-1 * dw/dx,

because d(g^-1)/dx + g^-1 w dg/dx collapses to zero once w maps to the
identity, and star moves the left factor g^-1 to a right factor g.  Right
multiplying a starred row therefore realizes conjugation of the underlying
relator.  The edge boundary entries are starred the same way (x^-1 - 1),
so the chain condition holds verbatim.  d1_image applies them on cells
(_d1_cells), and d1_matrix holds them for export.

One prefix walk over a word, _fox_walk, fills all 2n starred columns as
cells grouped under params' orders; starred_fox_row wraps them for d2.  The
Fox-identity sample runs _d1_cells on _fox_walk's columns, with no ring
element built.  fox_derivative is the per-generator reference per column.
"""

from __future__ import annotations

from .errors import ParameterError
from .freewords import (
    KIND_TORSION,
    FreeWord,
    Generator,
    PresentationParams,
    commutator_relator,
    generators,
    power_relator,
)
from .groupring import (
    RingElement, accumulate, free_term, from_groups, from_terms, groups_at, one, ring_mul,
    ring_sum, torsion_term, zero,
)
from .normalform import (
    IDENTITY, GroupElement, ginv, gmul, project, torsion_power, free_power
)


class RingVector(tuple):
    """A fixed-width tuple of ring elements (one chain-group coordinate each).
    + and - act entry-wise; a vector is not hashable, as its entries are not."""

    __slots__ = ()
    __hash__ = None

    @staticmethod
    def unit(width: int, position: int) -> "RingVector":
        if not 0 <= position < width:
            raise ParameterError(f"unit position {position} out of range 0..{width - 1}")
        return RingVector(one() if j == position else zero() for j in range(width))

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self)

    def __add__(self, other: "RingVector") -> "RingVector":
        if len(self) != len(other):
            raise ParameterError(f"width mismatch {len(self)} != {len(other)}")
        return RingVector(a + b for a, b in zip(self, other))

    def __sub__(self, other: "RingVector") -> "RingVector":
        if len(self) != len(other):
            raise ParameterError(f"width mismatch {len(self)} != {len(other)}")
        return RingVector(a - b for a, b in zip(self, other))

    def act(self, coeff: RingElement, params: PresentationParams) -> "RingVector":
        """Entry-wise right multiplication by a ring element.  A zero entry is
        kept, not multiplied, so the result may share it with self."""
        return RingVector(e if e.is_zero else ring_mul(e, coeff, params) for e in self)

    def __repr__(self) -> str:
        return f"RingVector([{', '.join(str(e) for e in self)}])"


class RingMatrix(tuple):
    """A rectangular tuple of equal-width rows; not hashable."""

    __slots__ = ()
    __hash__ = None

    def __new__(cls, rows):
        rows = tuple(rows)
        widths = {len(row) for row in rows}
        if len(widths) > 1:
            raise ParameterError(f"ragged matrix: row widths {sorted(widths)}")
        return super().__new__(cls, rows)

    @staticmethod
    def identity(size: int) -> "RingMatrix":
        return RingMatrix(RingVector.unit(size, i) for i in range(size))

    @property
    def ncols(self) -> int:
        return len(self[0]) if self else 0


def apply(m: RingMatrix, v: RingVector, params: PresentationParams) -> RingVector:
    """Image of the element with coordinates v: sum_k row_k * v_k."""
    if len(v) != len(m):
        raise ParameterError(
            f"coefficient vector width {len(v)} != row count {len(m)}"
        )
    cols = []
    live = [(k, vk) for k, vk in enumerate(v) if not vk.is_zero]
    for c in range(m.ncols):
        col = None
        for k, vk in live:
            entry = m[k][c]
            if not entry.is_zero:
                # ring_mul's result is fresh, so the column may sum into it.
                product = ring_mul(entry, vk, params)
                col = product if col is None else ring_sum(col, product, in_place=True)
        cols.append(zero() if col is None else col)
    return RingVector(cols)


def compose(first: RingMatrix, second: RingMatrix, params: PresentationParams) -> RingMatrix:
    """Matrix of "first, then second" in the rows-are-images convention.

    Row i of the result is second applied to row i of first, so
    apply(compose(A, B), v) = apply(B, apply(A, v)) for every v."""
    if first.ncols != len(second):
        raise ParameterError(
            f"inner dimensions differ: {first.ncols} != {len(second)}"
        )
    return RingMatrix(apply(second, row, params) for row in first)


def _letter_power(gen: Generator, e: int, params: PresentationParams) -> GroupElement:
    if gen.kind == KIND_TORSION:
        return torsion_power(gen.index, e, params)
    return free_power(gen.index, e, params)


def fox_derivative(w: FreeWord, gen: Generator, params: PresentationParams) -> RingElement:
    """Fox partial derivative of a word, evaluated in the group ring.

    Axioms: dx/dx = 1, dx^-1/dx = -x^-1, d(uv)/dx = du/dx + u * dv/dx,
    with words evaluated through the quotient projection."""
    terms: list[tuple[GroupElement, int]] = []
    prefix = IDENTITY
    for g, e in w:
        if g == gen:
            # d(x^e)/dx = sum_{j=0}^{e-1} x^j   (e > 0)
            #           = -sum_{j=1}^{|e|} x^-j (e < 0)
            if e > 0:
                exponents, c = range(e), 1
            else:
                exponents, c = range(-1, e - 1, -1), -1
            for j in exponents:
                terms.append((gmul(prefix, _letter_power(g, j, params), params), c))
        prefix = gmul(prefix, _letter_power(g, e, params), params)
    return from_terms(terms)


def _fox_walk(w: FreeWord, params: PresentationParams) -> list[dict]:
    """starred_fox_row's columns as groups {suffix: cells}, column k at factor k // 2 + 1."""
    cols: list[dict[GroupElement, dict[int, int]]] = [{} for _ in range(2 * params.n)]
    inv = IDENTITY
    for g, e in w:
        i = g.index
        params.check_index(i)
        r = params.r[i - 1]
        torsion = g.kind == KIND_TORSION
        # inv is reduced and alternates factors, so g^-j meets its first
        # syllable at most and a vanishing merge cascades no further.
        if inv and inv[0][0] == i:
            _, k0, m0 = inv[0]
            rest = GroupElement(inv[1:])
        else:
            k0 = m0 = 0
            rest = inv
        col = cols[2 * i - 2 + (not torsion)]
        group = col.setdefault(rest, {})
        exponents, c = (range(e), 1) if e > 0 else (range(-1, e - 1, -1), -1)
        for j in exponents:
            # Cell m * 2r + k holds the term a_i^k b_i^m rest.
            cell = m0 * 2 * r + (k0 - j) % r if torsion else (m0 - j) * 2 * r + k0
            # c has one sign per letter: v is 0 only where the cell holds -c.
            v = group.get(cell, 0) + c
            if v:
                group[cell] = v
            else:
                del group[cell]
        if not group:
            del col[rest]
        k, m = ((k0 - e) % r, m0) if torsion else (k0, m0 - e)
        inv = GroupElement(((i, k, m),) + rest) if k or m else rest
    return cols


def starred_fox_row(w: FreeWord, params: PresentationParams) -> RingVector:
    """Width-2n vector of starred Fox derivatives over columns a1, b1, ..., an, bn.

    One walk over w (_fox_walk) fills every column by the product rule
    d(uv)/dx = du/dx + u dv/dx: the letter g^e read after the prefix u adds
    u g^j (exponents j and sign c as in fox_derivative) to column g.  Starred,
    u g^j is g^-j inv with inv = u^-1, so each term is inv with one syllable
    of g's factor merged in at the left: a cell of the group keyed by the
    rest of inv.  fox_derivative is the per-generator reference for these
    columns."""
    cols = _fox_walk(w, params)
    return RingVector(from_groups(k // 2 + 1, params.r, col) for k, col in enumerate(cols))


def d2_matrix(params: PresentationParams) -> RingMatrix:
    """Second boundary map: 2n x 2n, rows D1..Dn then E1..En (relator classes),
    columns a1, b1, ..., an, bn (edge classes).

    D_i, the class of [a_i, b_i], has a_i-coordinate 1 - b_i^-1 and
    b_i-coordinate a_i^-1 - 1; E_i, the class of a_i^{r_i}, has the norm
    element N_i as its a_i-coordinate.  All other coordinates are zero."""
    n = params.n
    rows = [starred_fox_row(commutator_relator(i), params) for i in range(1, n + 1)]
    rows += [starred_fox_row(power_relator(i, params), params) for i in range(1, n + 1)]
    return RingMatrix(rows)


def d1_matrix(params: PresentationParams) -> RingMatrix:
    """First boundary map: 2n x 1, the row of edge x holding x^-1 - 1."""
    return RingMatrix(
        RingVector((term(i, -1, params) - one(),))
        for i in range(1, params.n + 1) for term in (torsion_term, free_term)
    )


def _d1_cells(cols, r: tuple[int, ...]) -> dict[GroupElement, int]:
    """sum_x (x^-1 - 1) * col_x as terms, for one groups dict {suffix: cells}
    per column (column k at factor f = k // 2 + 1 under r), skipping a column
    that is None or empty.  a_f^-1 moves cell s to s - 1, or to s - 1 + r
    where s mod 2r = 0, and b_f^-1 to s - 2r.  Both columns of f, images less
    cells, are summed suffix by suffix; only surviving cells become keys."""
    out: dict[GroupElement, int] = {}
    for f in range(1, len(r) + 1):
        stride = 2 * r[f - 1]
        image: dict[GroupElement, dict[int, int]] = {}  # rest -> cells
        for free, groups in enumerate(cols[2 * f - 2:2 * f]):
            if not groups:
                continue
            shift, wrap = (stride, 0) if free else (1, r[f - 1])
            for rest, cells in groups.items():
                acc = image.setdefault(rest, {})
                get = acc.get
                for s, c in cells.items():
                    t = s - shift if s % stride else s - shift + wrap
                    acc[t] = get(t, 0) + c
                    acc[s] = get(s, 0) - c
        # Each surviving cell s is the term a_f^(s mod 2r) b_f^(s div 2r) rest.
        for rest, acc in image.items():
            for s, c in acc.items():
                if c:
                    g = GroupElement(((f, s % stride, s // stride),) + rest) if s else rest
                    v = out.get(g, 0) + c
                    if v:
                        out[g] = v
                    else:
                        del out[g]
    return out


def d1_image(row: RingVector, params: PresentationParams) -> RingElement:
    """sum_x (x^-1 - 1) * row_x, which is apply(d1_matrix(params), row, params)[0]:
    _d1_cells on every column that groups_at reads at its own factor, and any
    other column multiplied by its d1 entry."""
    r = params.r
    if len(row) != 2 * len(r):
        raise ParameterError(f"coefficient vector width {len(row)} != row count {2 * len(r)}")
    cols = [groups_at(col, k // 2 + 1, r) for k, col in enumerate(row)]
    out = _d1_cells(cols, r)
    for k, col in enumerate(row):
        if cols[k] is None:
            entry = (free_term if k % 2 else torsion_term)(k // 2 + 1, -1, params) - one()
            accumulate(out, ring_mul(entry, col, params).terms.items())
    return RingElement(out)


def fundamental_identity_holds(w: FreeWord, params: PresentationParams) -> bool:
    """Starred form of the fundamental Fox identity:
    sum_x (x^-1 - 1) * star(dw/dx) = star(pi(w)) - 1, the left side as
    _d1_cells on _fox_walk's columns, with no ring element built.  The right
    side comes from project and ginv, not from the end of the walk (the same
    element): the target stays independent of the walk it checks."""
    lhs = _d1_cells(_fox_walk(w, params), params.r)
    g = ginv(project(w, params), params)
    return lhs == ({g: 1, IDENTITY: -1} if g else {})


def c1_labels(n: int) -> list[str]:
    return [str(g) for g in generators(n)]


def c2_labels(n: int) -> list[str]:
    return [f"D{i}" for i in range(1, n + 1)] + [f"E{i}" for i in range(1, n + 1)]
