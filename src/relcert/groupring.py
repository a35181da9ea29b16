"""Exact arithmetic in the integral group ring of the free product.

Elements are finitely supported integer combinations of group normal forms,
stored sparsely as {GroupElement: coefficient} with no zero coefficients.
Coefficients are arbitrary-precision: the Chinese-remainder data downstream
reaches the product of all r_j^2, which overflows fixed width quickly.
Multiplication is the naive bilinear convolution; supports in this project
stay around r_i^2 terms, so nothing cleverer is warranted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError
from .freewords import PresentationParams, parse_word
from .normalform import (
    IDENTITY,
    GroupElement,
    canonical_key,
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
    if not x.terms or not y.terms:
        return RingElement({})
    # Scalar shortcut: a multiple of the identity commutes with everything.
    if len(y.terms) == 1:
        g, c = next(iter(y.terms.items()))
        if g.is_identity:
            return c * x
    if len(x.terms) == 1:
        g, c = next(iter(x.terms.items()))
        if g.is_identity:
            return c * y
    # The accumulate loop stays inline here: this is the hot path.
    out: dict[GroupElement, int] = {}
    for g, cg in x.terms.items():
        for h, ch in y.terms.items():
            key = gmul(g, h, params)
            v = out.get(key, 0) + cg * ch
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return RingElement(out)


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
            dstart = pos
            while pos < size and s[pos].isdigit():
                pos += 1
            if pos < size and s[pos] == "*":
                coeff = int(s[dstart:pos])
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
