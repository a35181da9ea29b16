"""Exact arithmetic in the integral group ring of the free product.

Elements are finitely supported integer combinations of group normal forms,
stored sparsely as {GroupElement: coefficient} with no zero coefficients.
Coefficients are arbitrary-precision: the Chinese-remainder data downstream
reaches the product of all r_j^2, which overflows fixed width quickly.

Multiplication takes one of two exact paths and both give the same dict.
When both operands lie in one factor's commutative subring
Z[C_r x Z] = Z[x, y^-1, y]/(x^r - 1), every key being the identity or a
single syllable of that factor, ring_mul packs each operand into one
integer by Kronecker substitution, lets CPython's big-integer product do the
whole convolution and folds x^r = 1 while unpacking.  Every other product,
and any one-factor shape too sparse for packing to pay, runs the sparse
convolution, which joins each pair of keys at their boundary syllables
(_sparse_mul).  The choice depends on the operands' shape alone
(_packed_factor).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import add

from .errors import ParseError
from .freewords import PresentationParams, parse_word, scan_int
from .normalform import (
    IDENTITY,
    GroupElement,
    Syllable,
    canonical_key,
    check_reduced,
    element_to_text,
    ginv,
    gmul,
    project,
    torsion_power,
    free_power,
)


class RingElement:
    """A finitely supported integer combination of group elements."""

    __slots__ = ("terms",)
    __hash__ = None

    def __init__(self, terms: dict[GroupElement, int]):
        # Trusted to contain no zero coefficients.
        self.terms = terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def support(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, RingElement) and self.terms == other.terms

    def __add__(self, other: "RingElement") -> "RingElement":
        return RingElement(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "RingElement") -> "RingElement":
        return RingElement(
            accumulate(dict(self.terms), ((g, -c) for g, c in other.terms.items()))
        )

    def __neg__(self) -> "RingElement":
        return RingElement({g: -c for g, c in self.terms.items()})

    def __rmul__(self, c: int) -> "RingElement":
        if not isinstance(c, int):
            return NotImplemented
        if c == 0:
            return RingElement({})
        return RingElement({g: c * v for g, v in self.terms.items()})

    def __repr__(self) -> str:
        return f"RingElement({ring_to_text(self)!r})"

    def __str__(self) -> str:
        return ring_to_text(self)


def zero() -> RingElement:
    return RingElement({})


def one() -> RingElement:
    return RingElement({IDENTITY: 1})


def group_term(g: GroupElement, c: int = 1) -> RingElement:
    return RingElement({g: c}) if c else RingElement({})


def accumulate(acc: dict[GroupElement, int], pairs) -> dict[GroupElement, int]:
    """Add each (g, c) into acc in place, dropping coefficients that cancel."""
    for g, c in pairs:
        v = acc.get(g, 0) + c
        if v:
            acc[g] = v
        elif g in acc:
            del acc[g]
    return acc


def from_terms(pairs) -> RingElement:
    return RingElement(accumulate({}, pairs))


def torsion_term(i: int, j: int, params: PresentationParams, c: int = 1) -> RingElement:
    """c * a_i^j."""
    return group_term(torsion_power(i, j, params), c)


def free_term(i: int, m: int, params: PresentationParams, c: int = 1) -> RingElement:
    """c * b_i^m."""
    return group_term(free_power(i, m, params), c)


def ring_mul(x: RingElement, y: RingElement, params: PresentationParams) -> RingElement:
    """Bilinear extension of the group product."""
    xt, yt = x.terms, y.terms
    if not xt or not yt:
        return RingElement({})
    # Scalar shortcut: a multiple of the identity commutes with everything.
    if len(yt) == 1:
        g, c = next(iter(yt.items()))
        if g.is_identity:
            return c * x
    if len(xt) == 1:
        g, c = next(iter(xt.items()))
        if g.is_identity:
            return c * y
    factor = _packed_factor(xt, yt, params)
    if factor:
        return RingElement(_packed_mul(xt, yt, factor, params.r[factor - 1]))
    return RingElement(_sparse_mul(xt, yt, params))


def _sparse_mul(xt, yt, params: PresentationParams) -> dict[GroupElement, int]:
    """The pairwise convolution for every product the packed path declines.
    In g * h only the last syllable of g and the first of h can meet; only
    when their merge vanishes does gmul cascade further.  Sums are keyed by
    plain syllable tuples, hashed in C, and wrapped once at the end."""
    r = params.r
    right = []  # (syllables, first factor or 0, head syllable, suffix, coefficient)
    for h, ch in yt.items():
        check_reduced(h, params)
        hs = h.syllables
        right.append((hs, hs[0][0], hs[0], hs[1:], ch) if hs else (hs, 0, None, hs, ch))
    out: dict[tuple[Syllable, ...], int] = {}
    get = out.get
    new_syllable = tuple.__new__  # Syllable(...) without its Python-level __new__
    for g, cg in xt.items():
        check_reduced(g, params)
        gs = g.syllables
        if not gs:
            for hs, _, _, _, ch in right:
                out[hs] = get(hs, 0) + cg * ch
            continue
        f, k, m = gs[-1]
        prefix = gs[:-1]
        rf = r[f - 1]
        for hs, hf, head, suffix, ch in right:
            if hf != f:
                key = gs + hs
            else:
                k2 = (k + head[1]) % rf
                m2 = m + head[2]
                if k2 or m2:
                    key = prefix + (new_syllable(Syllable, (f, k2, m2)),) + suffix
                else:
                    key = gmul(GroupElement(prefix), GroupElement(suffix), params).syllables
            out[key] = get(key, 0) + cg * ch
    return {GroupElement(key): c for key, c in out.items() if c}


def _factor_span(terms, params: PresentationParams):
    """(factor, lowest m, highest m) when every key is the identity or one
    syllable a_f^k b_f^m of a single factor f in normal form (0 <= k < r_f,
    not both zero); None otherwise.  Factor 0 means only the identity."""
    r = params.r
    factor = rf = 0
    lo, hi = math.inf, -math.inf
    for g in terms:
        syllables = g.syllables
        if not syllables:
            m = 0
        elif len(syllables) > 1:
            return None
        else:
            f, k, m = syllables[0]
            if f != factor:
                if factor or not 1 <= f <= len(r):
                    return None
                factor, rf = f, r[f - 1]
            if not (0 <= k < rf and (k or m)):
                return None
        if m < lo:
            lo = m
        if m > hi:
            hi = m
    return factor, lo, hi


def _packed_factor(xt, yt, params: PresentationParams) -> int:
    """The dispatch rule of ring_mul, a function of the operands' shape only:
    the factor whose subring holds both operands when the packed product is
    estimated to cost less than the pairwise convolution, else 0.

    In units of one convolution pair (a gmul and a dict update), packing
    costs a step per term, folding a step per slot of the folded product
    (r_f per free exponent), and the big-integer product of n-digit
    operands about n^1.585 / _PAIR_DIGIT_STEPS (Karatsuba)."""
    sx = _factor_span(xt, params)
    if sx is None:
        return 0
    sy = _factor_span(yt, params)
    if sy is None or sx[0] != sy[0] or not sx[0]:
        return 0
    factor = sx[0]
    r = params.r[factor - 1]
    slots = ((sx[2] - sx[1]) + (sy[2] - sy[1]) + 1) * r
    digits = slots * 8 * _slot_width(xt, yt) // sys.int_info.bits_per_digit
    steps = len(xt) + len(yt) + slots + digits**1.585 / _PAIR_DIGIT_STEPS
    return factor if steps < len(xt) * len(yt) else 0


# One convolution pair takes about as long as this many digit steps of
# CPython's Karatsuba product (CPython 3.11 on an Intel Xeon: ~3.5 us per
# pair, ~10 ns per digit step).
_PAIR_DIGIT_STEPS = 400


def _packed_mul(xt, yt, factor: int, r: int) -> dict[GroupElement, int]:
    """x * y for x, y in the commutative subring Z[x, y^-1, y]/(x^r - 1) of
    one factor (a_f -> x, b_f -> y), by Kronecker substitution.

    Term c a^k b^m goes to slot (m - m_lo) * 2r + k of one integer, so one
    big-integer product is the whole convolution: a product slot holds the
    coefficient of a^k b^m for k < 2r - 1, and folding slot k + r onto k
    applies a^r = 1."""
    stride = 2 * r
    cx, x_lo, x_rows = _slot_cells(xt, stride)
    cy, y_lo, y_rows = _slot_cells(yt, stride)
    width = _slot_width(xt, yt)
    rows = x_rows + y_rows - 1
    slots = _unpack(
        _pack(cx, x_rows * stride, width) * _pack(cy, y_rows * stride, width),
        rows * stride,
        width,
    )
    out: dict[GroupElement, int] = {}
    for j in range(rows):
        m = x_lo + y_lo + j
        base = j * stride
        folded = map(add, slots[base:base + r], slots[base + r:base + stride])
        for k, c in enumerate(folded):
            if c:
                key = GroupElement((Syllable(factor, k, m),)) if k or m else IDENTITY
                out[key] = c
    return out


def _slot_cells(terms, stride: int) -> tuple[dict[int, int], int, int]:
    """({slot: coefficient}, lowest m, number of m-rows) of a one-factor
    element laid out with `stride` slots per free exponent m."""
    km = [(g.syllables[0][1:] if g.syllables else (0, 0), c) for g, c in terms.items()]
    lo = min(m for (_, m), _ in km)
    hi = max(m for (_, m), _ in km)
    return {(m - lo) * stride + k: c for (k, m), c in km}, lo, hi - lo + 1


def _slot_width(xt, yt) -> int:
    """Bytes per signed slot, enough for every slot of the product x * y.

    A product slot sums at most min(|x|, |y|) products of coefficients (each
    term of the shorter operand meets at most one term of the other), so
    its absolute value is at most max|x| * max|y| * min(|x|, |y|), and no
    slot carries into the next."""
    bound = max(map(abs, xt.values())) * max(map(abs, yt.values()))
    bound *= min(len(xt), len(yt))
    return (bound.bit_length() + 8) // 8  # bits plus a sign bit, rounded up


def _top_bits(nslots: int, width: int) -> int:
    """The integer with only the top bit of each of nslots slots set."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * nslots, "little")


def _pack(cells: dict[int, int], nslots: int, width: int) -> int:
    """The sum of c * 2^(8 * width * i) over cells {i: c}.

    The slots are first written in two's complement; flipping each slot's top
    bit turns slot value c into c + 2^(8 * width - 1), and subtracting those
    offsets leaves the signed sum."""
    parts = [bytes(width)] * nslots
    for i, c in cells.items():
        parts[i] = c.to_bytes(width, "little", signed=True)
    top = _top_bits(nslots, width)
    return (int.from_bytes(b"".join(parts), "little") ^ top) - top


def _unpack(value: int, nslots: int, width: int) -> list[int]:
    """The signed slots of value, inverse of _pack."""
    top = _top_bits(nslots, width)
    raw = ((value + top) ^ top).to_bytes(nslots * width, "little")
    return [
        int.from_bytes(raw[i:i + width], "little", signed=True)
        for i in range(0, len(raw), width)
    ]


def star(x: RingElement, params: PresentationParams) -> RingElement:
    """The involution g -> g^-1, extended linearly.  Anti-automorphism:
    star(xy) = star(y) star(x); it converts left-module data to right."""
    return RingElement({ginv(g, params): c for g, c in x.terms.items()})


def norm_element(i: int, params: PresentationParams) -> RingElement:
    """Sum of all powers of the torsion generator: 1 + a_i + ... + a_i^{r_i - 1}."""
    params.check_index(i)
    return from_terms(
        (torsion_power(i, j, params), 1) for j in range(params.r[i - 1])
    )


def ramp_element(i: int, params: PresentationParams) -> RingElement:
    """Linearly weighted sum of torsion powers: sum of j * a_i^j, j < r_i."""
    params.check_index(i)
    return from_terms(
        (torsion_power(i, j, params), j) for j in range(1, params.r[i - 1])
    )


@dataclass(frozen=True)
class CyclicIdentityReport:
    """The three ring identities tying the norm and ramp elements together."""

    annihilation: bool  # (1 - a_i) * N_i = 0
    square_scaling: bool  # N_i^2 = r_i * N_i
    ramp_difference: bool  # (1 - a_i) * T_i = N_i - r_i

    @property
    def ok(self) -> bool:
        return self.annihilation and self.square_scaling and self.ramp_difference


def check_cyclic_identities(i: int, params: PresentationParams) -> CyclicIdentityReport:
    ri = params.order(i)
    one_minus_a = one() - torsion_term(i, 1, params)
    norm = norm_element(i, params)
    ramp = ramp_element(i, params)
    return CyclicIdentityReport(
        annihilation=ring_mul(one_minus_a, norm, params).is_zero,
        square_scaling=ring_mul(norm, norm, params) == ri * norm,
        ramp_difference=ring_mul(one_minus_a, ramp, params) == norm - ri * one(),
    )


def ring_to_text(x: RingElement) -> str:
    """Signed sum of "c*<groupword>" terms in canonical key order;
    coefficient 1 omitted, identity prints "e", zero prints "0"."""
    if not x.terms:
        return "0"
    items = sorted(x.terms.items(), key=lambda t: canonical_key(t[0]))
    chunks = []
    for g, c in items:
        mag = abs(c)
        body = element_to_text(g)
        term = body if mag == 1 else f"{mag}*{body}"
        if not chunks:
            chunks.append(term if c > 0 else "-" + term)
        else:
            chunks.append((" + " if c > 0 else " - ") + term)
    return "".join(chunks)


def parse_ring(text: str, params: PresentationParams) -> RingElement:
    """Parse the ring-element text form.  Group words are normalized on the
    way in, so any valid spelling of a term is accepted; a '-' ends a term
    unless it immediately follows '^'."""
    s = text
    size = len(s)
    pos = 0
    while pos < size and s[pos].isspace():
        pos += 1
    if pos == size:
        raise ParseError("empty ring-element text", pos + 1)
    if s[pos] == "0":
        tail = pos + 1
        while tail < size and s[tail].isspace():
            tail += 1
        if tail != size:
            raise ParseError("unexpected text after '0'", tail + 1)
        return RingElement({})
    terms: list[tuple[GroupElement, int]] = []
    sign = 1
    if s[pos] == "-":
        sign = -1
        pos += 1
    while True:
        while pos < size and s[pos].isspace():
            pos += 1
        if pos == size:
            raise ParseError("expected a term", pos + 1)
        coeff = 1
        if s[pos].isdigit():
            coeff, pos = scan_int(s, pos)
            if pos < size and s[pos] == "*":
                pos += 1
            else:
                raise ParseError("expected '*' between coefficient and group word", pos + 1)
        wstart = pos
        while pos < size:
            ch = s[pos]
            if ch == "+" or (ch == "-" and s[pos - 1] != "^"):
                break
            pos += 1
        try:
            w = parse_word(s[wstart:pos], params.n)
        except ParseError as exc:
            col = wstart + exc.column if exc.column is not None else None
            raise ParseError(exc.raw_message, col) from None
        terms.append((project(w, params), sign * coeff))
        if pos == size:
            return from_terms(terms)
        sign = 1 if s[pos] == "+" else -1
        pos += 1
