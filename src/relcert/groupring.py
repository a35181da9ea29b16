"""Exact arithmetic in the integral group ring of the free product.

Elements are finitely supported integer combinations of group normal forms,
stored sparsely as {GroupElement: coefficient} with no zero coefficients.
Coefficients are arbitrary-precision: the Chinese-remainder data downstream
reaches the product of all r_j^2, which overflows fixed width quickly.

Multiplication takes one of two exact paths and both give the same dict.
When one operand x lies in one factor f's commutative subring
Z[C_r x Z] = Z[a, b^-1, b]/(a^r - 1), every key being the identity or a
single syllable of f, ring_mul splits the other operand at its boundary
syllable: y = sum_s v_s s over the reduced suffixes s that do not start in
f, each v_s in f's subring (for y x, prefixes that do not end in f).  Then
x y = sum_s (x v_s) s, and keys of different groups never meet.  Each x v_s
is a product inside one factor's subring on plain integer cells: by
Kronecker substitution, one big-integer product folded by a^r = 1 while
unpacking, when the operands' shape says it pays (_packs), and by a cell
convolution otherwise.  A product of two elements of one subring is the
case of a single group with suffix ().  A product in which neither
operand lies in one factor's subring runs the plain convolution, one gmul
per pair of keys (_convolve).
"""

from __future__ import annotations

import re
import sys
from array import array
from operator import add

from .errors import ParseError
from .freewords import PresentationParams, parse_word, scan_int
from .normalform import (
    IDENTITY,
    GroupElement,
    Syllable,
    _append_syllable,
    canonical_key,
    check_reduced,
    element_to_text,
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
    """Bilinear extension of the group product: grouped by boundary syllable
    (_split_mul) when one operand lies in one factor's subring, by the plain
    convolution (_convolve) otherwise."""
    xt, yt = x.terms, y.terms
    if not xt or not yt:
        return RingElement({})
    # Scalar shortcut: a multiple of the identity commutes with everything.
    if len(yt) == 1:
        g, c = next(iter(yt.items()))
        if not g:
            return c * x
    if len(xt) == 1:
        g, c = next(iter(xt.items()))
        if not g:
            return c * y
    local = _factor_cells(xt, params)
    if local is not None:
        return RingElement(_split_mul(*local, yt, True, params))
    local = _factor_cells(yt, params)
    if local is not None:
        return RingElement(_split_mul(*local, xt, False, params))
    return RingElement(_convolve(xt, yt, params))


def _convolve(xt, yt, params: PresentationParams) -> dict[GroupElement, int]:
    """The plain convolution, one gmul per pair of keys."""
    for g in xt:  # gmul checks only its right operand
        check_reduced(g, params)
    return accumulate(
        {}, ((gmul(g, h, params), cg * ch) for g, cg in xt.items() for h, ch in yt.items())
    )


def _factor_cells(terms, params: PresentationParams):
    """(f, {m * 2 r_f + k: coefficient}) when every key is the identity or
    one syllable a_f^k b_f^m of a single factor f in normal form
    (1 <= f <= n, 0 <= k < r_f, not both zero) and some key is not the
    identity; None otherwise.

    The cell m * 2r + k of a term a^k b^m is its slot in a layout with 2r
    slots per free exponent: cells of a product add, and cell s with
    s mod 2r >= r folds onto s - r, applying a^r = 1."""
    r = params.r
    factor = rf = stride = 0
    cells: dict[int, int] = {}
    for g, c in terms.items():
        if not g:
            cells[0] = c
            continue
        if len(g) > 1:
            return None
        f, k, m = g[0]
        if f != factor:
            if factor or not 1 <= f <= len(r):
                return None
            factor, rf = f, r[f - 1]
            stride = 2 * rf
        if not (0 <= k < rf and (k or m)):
            return None
        cells[m * stride + k] = c
    return (factor, cells) if factor else None


def _split_mul(factor: int, cells, other, left: bool, params: PresentationParams):
    """x * other (left) or other * x (not left) for x = cells of factor f's
    subring (_factor_cells), the product grouped by boundary syllable.

    Each key h of `other` splits as s_h h' (left) or h' s_h (not left), s_h
    being h's first (last) syllable when it lies in f and the identity
    otherwise.  Then x * other = sum over h' of (x v_h') h', where v_h' sums
    c_h s_h over the keys with rest h' and lies in f's subring, like x.
    Since h' does not start (end) in f, each product key is h' with at most
    one syllable of f joined to it, and keys of different groups never
    meet."""
    r = params.r[factor - 1]
    stride = 2 * r
    edge = 0 if left else -1
    groups: dict[GroupElement, dict[int, int]] = {}
    for h, c in other.items():
        check_reduced(h, params)
        if h and h[edge][0] == factor:
            _, k, m = h[edge]
            cell = m * stride + k
            rest = h[1:] if left else h[:-1]
        else:
            cell, rest = 0, h
        group = groups.get(rest)
        if group is None:
            # Each group's key is an element once: h itself, or its slice wrapped.
            groups[rest if rest is h else GroupElement(rest)] = {cell: c}
        else:
            group[cell] = c
    out: dict[GroupElement, int] = {}
    new_syllable = tuple.__new__  # Syllable(...) without its Python-level __new__
    for rest, group in groups.items():
        # x v_rest, folded by a^r = 1; cancelled cells may stay, at 0.
        if _packs(cells, group, r):
            prod = _kronecker_mul(cells, group, r)
        else:
            prod = _cell_mul(cells, group, r)
        for cell, c in prod.items():
            if not c:
                continue
            if cell:
                m, k = divmod(cell, stride)
                syllable = (new_syllable(Syllable, (factor, k, m)),)
                out[GroupElement(syllable + rest if left else rest + syllable)] = c
            else:
                out[rest] = c
    return out


def _cell_mul(xc, yc, r: int) -> dict[int, int]:
    """x * y on the cells of one factor's subring Z[a, b^-1, b]/(a^r - 1)
    by pairwise convolution, folding each product cell by a^r = 1 as it
    goes; cancelled cells stay, with coefficient 0."""
    stride = 2 * r
    prod: dict[int, int] = {}
    get = prod.get
    for b, cb in yc.items():
        for a, ca in xc.items():
            s = a + b
            if s % stride >= r:
                s -= r
            prod[s] = get(s, 0) + ca * cb
    return prod


def _packs(xc, yc, r: int) -> bool:
    """Whether _kronecker_mul is estimated to cost less than _cell_mul for
    x * y, a function of the operands' shape only.

    In units of one convolution pair, packing costs a step per term,
    folding a step per slot of the folded product (r per free exponent),
    and the big-integer product of n-digit operands about
    n^1.585 / _PAIR_DIGIT_STEPS (Karatsuba)."""
    nx, ny = len(xc), len(yc)
    if nx * ny <= nx + ny + r:  # fewer pairs than a single row of slots
        return False
    stride = 2 * r
    rows = max(xc) // stride - min(xc) // stride + max(yc) // stride - min(yc) // stride + 1
    slots = rows * r
    if slots >= nx * ny:
        # Packing cannot pay, and far-apart free exponents would overflow
        # the float power below.
        return False
    digits = slots * 8 * _slot_width(xc, yc) // sys.int_info.bits_per_digit
    return nx + ny + slots + digits**1.585 / _PAIR_DIGIT_STEPS < nx * ny


# One convolution pair takes about as long as this many digit steps of
# CPython's Karatsuba product.  Calibrated against a sparse dict convolution's
# pair (CPython 3.11 on an Intel Xeon: ~3.5 us per pair, ~10 ns per digit
# step).  A cell pair costs less, but constants refitted to it made no
# difference above the noise on the benchmark workloads' products.
_PAIR_DIGIT_STEPS = 400


def _kronecker_mul(xc, yc, r: int) -> dict[int, int]:
    """x * y on cells by Kronecker substitution (a -> x, b -> y).

    Cell m * 2r + k goes to slot (m - m_lo) * 2r + k of one integer, so one
    big-integer product is the whole convolution: a product slot holds the
    coefficient of a^k b^m for k < 2r - 1, and folding slot k + r onto k
    applies a^r = 1."""
    stride = 2 * r
    x_lo, x_hi = min(xc) // stride, max(xc) // stride
    y_lo, y_hi = min(yc) // stride, max(yc) // stride
    width = _slot_width(xc, yc)
    if width <= 8:  # round up to a machine width: 1, 2, 4 or 8 bytes
        width = 1 << (width - 1).bit_length()
    rows = x_hi - x_lo + y_hi - y_lo + 1
    slots = _unpack(
        _pack(xc, x_lo * stride, (x_hi - x_lo + 1) * stride, width)
        * _pack(yc, y_lo * stride, (y_hi - y_lo + 1) * stride, width),
        rows * stride,
        width,
    )
    out: dict[int, int] = {}
    origin = (x_lo + y_lo) * stride
    for base in range(0, rows * stride, stride):
        folded = map(add, slots[base:base + r], slots[base + r:base + stride])
        for k, c in enumerate(folded):
            if c:
                out[origin + base + k] = c
    return out


def _slot_width(xc, yc) -> int:
    """Bytes per signed slot, enough for every slot of the product x * y.

    A product slot sums at most min(|x|, |y|) products of coefficients (each
    term of the shorter operand meets at most one term of the other), so
    its absolute value is at most max|x| * max|y| * min(|x|, |y|), and no
    slot carries into the next."""
    bound = max(map(abs, xc.values())) * max(map(abs, yc.values()))
    bound *= min(len(xc), len(yc))
    return (bound.bit_length() + 8) // 8  # bits plus a sign bit, rounded up


def _top_bits(nslots: int, width: int) -> int:
    """The integer with only the top bit of each of nslots slots set."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * nslots, "little")


def _pack(cells, origin: int, nslots: int, width: int) -> int:
    """The sum of c * 2^(8 * width * (s - origin)) over cells {s: c}.

    The slots are first written in two's complement, through an array of
    machine integers when width is a machine width (_TYPECODES); flipping
    each slot's top bit turns slot value c into c + 2^(8 * width - 1), and
    subtracting those offsets leaves the signed sum."""
    typecode = _TYPECODES.get(width)
    if typecode is None:  # wider than a machine integer
        parts = [bytes(width)] * nslots
        for s, c in cells.items():
            parts[s - origin] = c.to_bytes(width, "little", signed=True)
        raw = b"".join(parts)
    else:
        raw = array(typecode, bytes(nslots * width))
        for s, c in cells.items():
            raw[s - origin] = c
        if sys.byteorder == "big":
            raw.byteswap()
    top = _top_bits(nslots, width)
    return (int.from_bytes(raw, "little") ^ top) - top


def _unpack(value: int, nslots: int, width: int):
    """The signed slots of value, inverse of _pack, as a sequence of ints."""
    top = _top_bits(nslots, width)
    raw = ((value + top) ^ top).to_bytes(nslots * width, "little")
    typecode = _TYPECODES.get(width)
    if typecode is None:
        return [
            int.from_bytes(raw[i:i + width], "little", signed=True)
            for i in range(0, len(raw), width)
        ]
    slots = array(typecode, raw)
    if sys.byteorder == "big":
        slots.byteswap()
    return slots


# The signed array typecode of each machine slot width, in bytes.
_TYPECODES = {array(t).itemsize: t for t in "bhilq"}


def norm_element(i: int, params: PresentationParams) -> RingElement:
    """Sum of all powers of the torsion generator: 1 + a_i + ... + a_i^{r_i - 1}."""
    return RingElement(dict.fromkeys((IDENTITY, *_torsion_powers(i, params)), 1))


def ramp_element(i: int, params: PresentationParams) -> RingElement:
    """Linearly weighted sum of torsion powers: sum of j * a_i^j, j < r_i."""
    powers = _torsion_powers(i, params)
    return RingElement(dict(zip(powers, range(1, len(powers) + 1))))


def _torsion_powers(i: int, params: PresentationParams) -> list[GroupElement]:
    """a_i, a_i^2, ..., a_i^{r_i - 1} in normal form; i is checked once."""
    new_syllable = tuple.__new__  # Syllable(...) without its Python-level __new__
    return [
        GroupElement((new_syllable(Syllable, (i, k, 0)),))
        for k in range(1, params.order(i))
    ]


def check_cyclic_identities(i: int, params: PresentationParams) -> dict[str, bool]:
    """The three ring identities tying the norm and ramp elements together,
    each verdict under its name."""
    ri = params.order(i)
    one_minus_a = one() - torsion_term(i, 1, params)
    norm = norm_element(i, params)
    ramp = ramp_element(i, params)
    return {
        # (1 - a_i) * N_i = 0
        "annihilation": ring_mul(one_minus_a, norm, params).is_zero,
        # N_i^2 = r_i * N_i
        "square_scaling": ring_mul(norm, norm, params) == ri * norm,
        # (1 - a_i) * T_i = N_i - r_i
        "ramp_difference": ring_mul(one_minus_a, ramp, params) == norm - ri * one(),
    }


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


def parse_ring(
    text: str, params: PresentationParams, words: dict[str, GroupElement] | None = None
) -> RingElement:
    """Parse the ring-element text form.  Group words are normalized on the
    way in, so any valid spelling of a term is accepted; a '-' ends a term
    unless it immediately follows '^'.

    Each term is split by one match of _TERM.  A coefficient the pattern
    does not take (digits with no '*' right after them, digits outside
    ASCII, a run past int()'s 4300-digit limit) is read by scan_int, which
    names the fault and its column.  A word is read by _WORD and _LETTER,
    folding the letters straight into syllable normal form; a word those
    refuse is read by parse_word and project, which name its fault.
    `words` maps word text to its element and is filled as words are read;
    one dict may serve every string read with the same params, and with
    no others."""
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
    if words is None:
        words = {}
    terms: list[tuple[GroupElement, int]] = []
    sign = 1
    if s[pos] == "-":
        sign = -1
        pos += 1
    while True:
        term = _TERM.match(s, pos)
        digits, word, end = term.groups()
        stop = term.start(3)
        wstart = term.start(2)
        coeff = 1
        if digits:
            try:
                coeff = int(digits)
            except ValueError:  # a digit run past int()'s 4300-digit limit
                scan_int(s, term.start(1))  # raises at its column
        elif word[:1].isdigit():  # no '*' right after the digits, or not ASCII
            coeff, wstart = scan_int(s, wstart)
            if s[wstart:wstart + 1] != "*":
                raise ParseError("expected '*' between coefficient and group word", wstart + 1)
            wstart += 1
            word = s[wstart:stop]
        elif not (word or end):
            raise ParseError("expected a term", stop + 1)
        g = words.get(word)
        if g is None:
            try:
                g = _read_word(word, params)
            except ValueError:  # a digit run past int()'s 4300-digit limit
                g = None
            if g is None:
                try:
                    g = project(parse_word(word, params.n), params)
                except ParseError as exc:
                    raise ParseError(exc.raw_message, wstart + exc.column) from None
            words[word] = g
        terms.append((g, sign * coeff))
        if not end:
            return from_terms(terms)
        sign = 1 if end == "+" else -1
        pos = stop + 1


# One term: whitespace, a coefficient of ASCII digits with its '*' right
# after them, the word text, and the '+' or '-' that ends the term (a '-'
# right after '^' is an exponent's sign) or the end of the text.  Digits
# the coefficient group does not take start the word text, where
# parse_ring reads them with scan_int.  The word runs to the first such
# '+' or '-', so the pattern matches at every position on its first,
# greedy try and never backtracks.
_TERM = re.compile(r"\s*(?:([0-9]+)\*)?([^+\-^]*(?:\^-?[^+\-^]*)*)([+-]|\Z)")
# A word _read_word takes: separators (whitespace and '*') around 'e' or
# around letters a<i>, b<i> with an optional exponent '^-<k>' or '^<k>',
# every digit ASCII.  Each letter takes the separators after it, which no
# letter starts with.
_WORD = re.compile(r"[\s*]*(?:e[\s*]*|(?:[ab][0-9]+(?:\^-?[0-9]+)?[\s*]*)+)")
_LETTER = re.compile(r"([ab])([0-9]+)(?:\^(-?[0-9]+))?")


def _read_word(word: str, params: PresentationParams) -> GroupElement | None:
    """The normal form of word, as parse_word and project give it, or None
    when _WORD refuses word or an index lies outside 1..n.  int() raises
    ValueError on a digit run past 4300 digits."""
    if _WORD.fullmatch(word) is None:
        return None
    r = params.r
    n = len(r)
    stack: list[Syllable] = []
    for kind, index, exp in _LETTER.findall(word):
        i = int(index)
        if not 0 < i <= n:
            return None
        ri = r[i - 1]
        e = int(exp) if exp else 1
        if kind == "a":
            _append_syllable(stack, i, e % ri, 0, ri)
        else:
            _append_syllable(stack, i, 0, e, ri)
    return GroupElement(stack)
