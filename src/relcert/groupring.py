"""Exact arithmetic in the integral group ring of the free product.

Elements are finitely supported integer combinations of group normal forms
with no zero coefficients.  Coefficients are arbitrary-precision: the
Chinese-remainder data downstream reaches the product of all r_j^2, which
overflows fixed width quickly.

An element is held in one of two forms.  Dict form, `terms`, is
{GroupElement: coefficient}.  Grouped form, `groups` = (f, r, {suffix:
cells}), leads with one factor f under the n orders r: cell m * 2r_f + k
of suffix s holds the coefficient of a_f^k b_f^m s, and no suffix starts
in f.  An element of f's commutative subring Z[C_r x Z] =
Z[a, b^-1, b]/(a^r - 1) is the case of the one suffix ().  The builders,
starred Fox columns, the products of _split_mul and parse_ring, but for a
multiple of the identity, give grouped form; parse_ring groups a text at
the factor that leads its last key.  Sums and equality of a grouped
operand with one that groups_at reads at its factor and orders stay on
groups.  Groups are used as they stand only under the orders they
were built with, since those orders reduced their cells and suffixes.
Terms are built when read.

Multiplication takes one of two exact paths and both give the same value.
When the left operand x lies in one factor f's subring, ring_mul splits
the right operand at its first syllable: y = sum_s v_s s over the reduced
suffixes s that do not start in f, each v_s in f's subring.  Then
x y = sum_s (x v_s) s, and keys of different groups never meet.  Each
x v_s is a product inside one factor's subring on plain integer cells: by
Kronecker substitution, one big-integer product folded by a^r = 1 while
unpacking, when the operands' shape says it pays (_packs, which hands the
kernel the rows and slot width it measured), and otherwise by a cell
convolution with the operand of fewer cells outside.  A product of two
elements of one subring is the case of a single group with suffix ().
Any other product, one-factor operand on the right included, runs the
plain convolution, one gmul per pair of keys (_convolve).  No command
makes one: every one-factor coefficient is written as the left operand of
its product.
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
    check_reduced,
    element_to_text,
    gmul,
    project,
)


class RingElement:
    """A finitely supported integer combination of group elements in dict
    or grouped form (module docstring); __getattr__ fills unset terms."""

    __slots__ = ("terms", "groups")
    __hash__ = None

    def __init__(self, terms: dict[GroupElement, int] | None, groups=None):
        # Trusted to contain no zero coefficients, groups to match terms and
        # to hold no empty group and no zero cell.
        if terms is not None:
            self.terms = terms
        self.groups = groups

    def __getattr__(self, name):
        if name != "terms":
            raise AttributeError(name)
        factor, orders, groups = self.groups
        stride = 2 * orders[factor - 1]
        self.terms = terms = {}
        for rest, cells in groups.items():  # cell s: a^(s mod 2r) b^(s div 2r) put before rest
            for cell, c in cells.items():
                if cell:
                    m, k = divmod(cell, stride)
                    terms[GroupElement(((factor, k, m),) + rest)] = c
                else:
                    terms[rest] = c
        return terms

    @property
    def is_zero(self) -> bool:
        return not (self.groups or self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElement):
            return False
        pair = (self.groups or other.groups) and _group_pair(self, other)
        if pair:  # both canonical, so their groups are equal as they stand
            return pair[2] == pair[3]
        return self.terms == other.terms

    def __add__(self, other: "RingElement") -> "RingElement":
        return ring_sum(self, other)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return ring_sum(self, other, -1)

    def __neg__(self) -> "RingElement":
        return -1 * self

    def __rmul__(self, c: int) -> "RingElement":
        if not isinstance(c, int):
            return NotImplemented
        if not c:
            return RingElement({})
        if self.groups is None:
            return RingElement({g: c * v for g, v in self.terms.items()})
        factor, orders, groups = self.groups
        scaled = {rest: {s: c * v for s, v in cells.items()} for rest, cells in groups.items()}
        return from_groups(factor, orders, scaled)

    def __repr__(self) -> str:
        return f"RingElement({ring_to_text(self)!r})"

    def __str__(self) -> str:
        return ring_to_text(self)


def zero() -> RingElement:
    return RingElement({})


def one() -> RingElement:
    return RingElement({IDENTITY: 1})


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


def from_groups(factor: int, orders: tuple[int, ...], groups: dict) -> RingElement:
    """sum_s (groups[s], nonempty cells of factor) s, grouped under orders,
    or the dict zero when there are no groups."""
    return RingElement(None, (factor, orders, groups)) if groups else RingElement({})


def groups_at(x: RingElement, factor: int, orders: tuple[int, ...]):
    """x's groups {suffix: cells} at factor under orders: as they stand when
    x is grouped there; when every key of x is the identity or a syllable
    a^k b^m of factor in normal form at r = orders[factor - 1], its cells
    as the suffix () alone, or {} for zero; None otherwise.

    The cell m * 2r + k of a term a^k b^m is its slot in a layout with 2r
    slots per free exponent: cells of a product add, and cell s with
    s mod 2r >= r folds onto s - r, applying a^r = 1."""
    grouped = x.groups
    if grouped and grouped[0] == factor and grouped[1] == orders:
        return grouped[2]
    r = orders[factor - 1]
    stride = 2 * r
    cells: dict[int, int] = {}
    for g, c in x.terms.items():
        if len(g) > 1:
            return None
        f, k, m = g[0] if g else (factor, 0, 0)  # the identity is cell 0
        if f != factor or not (0 <= k < r and (k or m or not g)):
            return None
        cells[m * stride + k] = c
    return {IDENTITY: cells} if cells else {}


def _group_pair(x: RingElement, y: RingElement):
    """(f, orders, x's groups, y's groups) for x or y grouped at factor f
    under orders, when groups_at reads both there; None otherwise."""
    factor, orders, _ = x.groups or y.groups
    xs, ys = groups_at(x, factor, orders), groups_at(y, factor, orders)
    return None if xs is None or ys is None else (factor, orders, xs, ys)


def ring_sum(x: RingElement, y: RingElement, sign: int = 1, in_place: bool = False) -> RingElement:
    """x + sign * y (sign 1 or -1): suffix by suffix when _group_pair reads
    both as groups, on terms otherwise.  in_place spends x; otherwise the
    result may share x's cells, never y's."""
    pair = (x.groups or y.groups) and _group_pair(x, y)
    if pair:
        factor, orders, out, theirs = pair
        out = out if in_place else dict(out)
        for rest, cells in theirs.items():
            mine = out.pop(rest, {})
            items = cells.items() if sign > 0 else ((s, -c) for s, c in cells.items())
            mine = accumulate(mine if in_place else dict(mine), items)
            if mine:
                out[rest] = mine
        return from_groups(factor, orders, out)
    items = y.terms.items() if sign > 0 else ((g, -c) for g, c in y.terms.items())
    return RingElement(accumulate(x.terms if in_place else dict(x.terms), items))


def torsion_term(i: int, j: int, params: PresentationParams) -> RingElement:
    """a_i^j."""
    r = params.order(i)
    return from_groups(i, params.r, {IDENTITY: {j % r: 1}})


def free_term(i: int, m: int, params: PresentationParams) -> RingElement:
    """b_i^m."""
    r = params.order(i)
    return from_groups(i, params.r, {IDENTITY: {m * 2 * r: 1}})


def ring_mul(x: RingElement, y: RingElement, params: PresentationParams) -> RingElement:
    """Bilinear extension of the group product: grouped by y's first syllable
    (_split_mul) when x lies in one factor's subring, by the plain
    convolution (_convolve) otherwise.  The result is a fresh element."""
    if x.is_zero or y.is_zero:
        return RingElement({})
    # A multiple of the identity in dict form commutes with everything.
    if y.groups is None and len(y.terms) == 1 and IDENTITY in y.terms:
        return y.terms[IDENTITY] * x
    if x.groups is None and len(x.terms) == 1 and IDENTITY in x.terms:
        return x.terms[IDENTITY] * y
    lead = _factor_cells(x, params)
    if lead is not None:
        return _split_mul(*lead, y, params)
    return RingElement(_convolve(x.terms, y.terms, params))


def _convolve(xt, yt, params: PresentationParams) -> dict[GroupElement, int]:
    """The plain convolution, one gmul per pair of keys."""
    for g in xt:  # gmul checks only its right operand
        check_reduced(g, params)
    return accumulate(
        {}, ((gmul(g, h, params), cg * ch) for g, cg in xt.items() for h, ch in yt.items())
    )


def _factor_cells(x: RingElement, params: PresentationParams):
    """(f, cells) when groups_at reads x under params' orders as the cells
    of f's subring alone, f being the factor x is grouped at, or else that
    of its first key that is not the identity; None otherwise."""
    r = params.r
    f = x.groups[0] if x.groups else next(filter(None, x.terms), ((0,),))[0][0]
    groups = groups_at(x, f, r) if 1 <= f <= len(r) else None
    if groups and len(groups) == 1 and IDENTITY in groups:
        return f, groups[IDENTITY]
    return None


def _split_mul(factor: int, cells, other: RingElement, params: PresentationParams) -> RingElement:
    """x * other for x with the given cells of factor f's subring
    (_factor_cells), the product grouped by the first syllable of other's
    keys.

    Each key h of `other` splits as s_h h', s_h being h's first syllable
    when it lies in f and the identity otherwise.  Then x * other = sum
    over h' of (x v_h') h', where v_h' sums c_h s_h over the keys with rest
    h' and lies in f's subring, like x.  Since h' does not start in f, each
    product key is h' with at most one syllable of f put in front of it,
    and keys of different groups never meet.  Groups that groups_at reads
    off `other` under params' orders are taken as they stand; other keys
    are split (_split), range-checked first unless `other` is grouped
    under params' orders, which reduced its keys.  The product keeps its
    groups (from_groups): no key is built until read."""
    r = params.r[factor - 1]
    groups = groups_at(other, factor, params.r)
    if groups is None:
        if other.groups is None or other.groups[1] != params.r:
            for h in other.terms:
                check_reduced(h, params)
        groups = _split(other.terms, factor, r)
    out = {}
    for rest, group in groups.items():
        # x v_rest, folded by a^r = 1, with no zero cells.
        layout = _packs(cells, group, r)
        prod = _kronecker_mul(cells, group, r, layout) if layout else _cell_mul(cells, group, r)
        if prod:
            out[rest] = prod
    return from_groups(factor, params.r, out)


def _split(terms: dict[GroupElement, int], factor: int, r: int) -> dict:
    """terms, reduced keys with no zero coefficient, grouped at factor of
    order r: the key h is cell m * 2r + k of the suffix h' when h is
    a^k b^m h' with a^k b^m a syllable of factor, and cell 0 of h otherwise."""
    stride = 2 * r
    groups: dict[GroupElement, dict[int, int]] = {}
    for h, c in terms.items():
        if h and h[0][0] == factor:
            _, k, m = h[0]
            cell = m * stride + k
            rest = h[1:]
        else:
            cell, rest = 0, h
        group = groups.get(rest)
        if group is None:
            # Each group's key is an element once: h itself, or its slice wrapped.
            groups[rest if rest is h else GroupElement(rest)] = {cell: c}
        else:
            group[cell] = c
    return groups


def _cell_mul(xc, yc, r: int) -> dict[int, int]:
    """x * y on the cells of one factor's subring Z[a, b^-1, b]/(a^r - 1)
    by pairwise convolution, the operand with fewer cells outside (the
    subring is commutative), folding each product cell by a^r = 1 as it
    goes; cancelled cells are dropped at the end."""
    stride = 2 * r
    prod: dict[int, int] = {}
    get = prod.get
    if len(xc) > len(yc):
        xc, yc = yc, xc
    for a, ca in xc.items():
        for b, cb in yc.items():
            s = a + b
            if s % stride >= r:
                s -= r
            prod[s] = get(s, 0) + ca * cb
    return {s: c for s, c in prod.items() if c}


def _packs(xc, yc, r: int):
    """(x_lo, x_hi, y_lo, y_hi, width), each operand's lowest and highest row
    and the slot width, when _kronecker_mul is estimated to cost less than
    _cell_mul for x * y, a function of the operands' shape only; else None.

    In units of one convolution pair, packing costs a step per term,
    folding a step per slot of the folded product (r per free exponent),
    and the big-integer product of n-digit operands about
    n^1.585 / _PAIR_DIGIT_STEPS (Karatsuba)."""
    nx, ny = len(xc), len(yc)
    if nx * ny <= nx + ny + r:  # fewer pairs than a single row of slots
        return None
    stride = 2 * r
    x_lo, x_hi = min(xc) // stride, max(xc) // stride
    y_lo, y_hi = min(yc) // stride, max(yc) // stride
    slots = (x_hi - x_lo + y_hi - y_lo + 1) * r
    if slots >= nx * ny:
        # Packing cannot pay, and far-apart free exponents would overflow
        # the float power below.
        return None
    width = _slot_width(xc, yc)
    digits = slots * 8 * width // sys.int_info.bits_per_digit
    cost = nx + ny + slots + digits**1.585 / _PAIR_DIGIT_STEPS
    return (x_lo, x_hi, y_lo, y_hi, width) if cost < nx * ny else None


# One convolution pair takes about as long as this many digit steps of
# CPython's Karatsuba product.  Calibrated against a sparse dict convolution's
# pair (CPython 3.11 on an Intel Xeon: ~3.5 us per pair, ~10 ns per digit
# step).  A cell pair costs less, but constants refitted to it made no
# difference above the noise on the benchmark workloads' products.
_PAIR_DIGIT_STEPS = 400


def _kronecker_mul(xc, yc, r: int, layout) -> dict[int, int]:
    """x * y on cells by Kronecker substitution (a -> x, b -> y), laid out by _packs.

    Cell m * 2r + k goes to slot (m - m_lo) * 2r + k of one integer, so one
    big-integer product is the whole convolution: a product slot holds the
    coefficient of a^k b^m for k < 2r - 1, and folding slot k + r onto k
    applies a^r = 1."""
    x_lo, x_hi, y_lo, y_hi, width = layout
    if width <= 8:  # round up to a machine width: 1, 2, 4 or 8 bytes
        width = 1 << (width - 1).bit_length()
    stride = 2 * r
    nx, ny = (x_hi - x_lo + 1) * stride, (y_hi - y_lo + 1) * stride
    nslots = nx + ny - stride
    top = _top_bits(nslots, width)  # built once; an operand's mask is its top slots
    px = _pack(xc, x_lo * stride, nx, width, top >> 8 * width * (nslots - nx))
    py = _pack(yc, y_lo * stride, ny, width, top >> 8 * width * (nslots - ny))
    slots = _unpack(px * py, nslots, width, top)
    out: dict[int, int] = {}
    origin = (x_lo + y_lo) * stride
    for base in range(0, nslots, stride):
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


def _pack(cells, origin: int, nslots: int, width: int, top: int) -> int:
    """The sum of c * 2^(8 * width * (s - origin)) over cells {s: c}, top
    being _top_bits(nslots, width).

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
    return (int.from_bytes(raw, "little") ^ top) - top


def _unpack(value: int, nslots: int, width: int, top: int):
    """The signed slots of value, inverse of _pack, as a sequence of ints."""
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
    r = params.order(i)
    return from_groups(i, params.r, {IDENTITY: dict.fromkeys(range(r), 1)})


def ramp_element(i: int, params: PresentationParams) -> RingElement:
    """Linearly weighted sum of torsion powers: sum of j * a_i^j, j < r_i."""
    r = params.order(i)
    return from_groups(i, params.r, {IDENTITY: {k: k for k in range(1, r)}})


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


def ring_to_text(x: RingElement, memo: dict | None = None) -> str:
    """Signed sum of "c*<groupword>" terms in canonical key order;
    coefficient 1 omitted, identity prints "e", zero prints "0".  `memo`
    (one dict per document) keeps word texts, cells' under (factor, 2r)."""
    memo = {} if memo is None else memo
    grouped = x.groups
    if grouped and len(grouped[2]) == 1 and IDENTITY in grouped[2]:  # cells of one factor
        factor, orders, groups = grouped
        cells = groups[IDENTITY]
        stride = 2 * orders[factor - 1]
        words = memo.setdefault((factor, stride), {0: "e"})
        # Stable sorts of cells m * 2r + k: by m, by k, identity first.
        keys = sorted(sorted(sorted(cells), key=stride.__rmod__), key=bool)
    else:
        words, cells = memo, x.terms
        keys = sorted(sorted(cells), key=len)  # by syllable count, then as tuples
    if not keys:
        return "0"
    chunks = []
    for g in keys:
        c = cells[g]
        word = words.get(g)
        if word is None:  # cell g is the syllable a^(g mod 2r) b^(g div 2r)
            key = g if words is memo else ((factor, g % stride, g // stride),)
            word = words[g] = element_to_text(key)
        sign = " + " if c > 0 else " - "
        chunks.append(sign + word if c in (1, -1) else f"{sign}{abs(c)}*{word}")
    text = "".join(chunks)
    return text[3:] if text[1] == "+" else "-" + text[3:]


def parse_ring(
    text: str, params: PresentationParams, words: dict[str, GroupElement] | None = None
) -> RingElement:
    """Parse the ring-element text form.  Group words are normalized on the
    way in, so any valid spelling of a term is accepted; a '-' ends a term
    unless it immediately follows '^'.

    One _TERM scan splits the terms.  A word that is two words read before,
    split at its last space, is their product; any other new word is read
    by parse_word and project, and a coefficient _TERM does not take by
    scan_int, which name the fault and its column.  `words`, word text to
    element, may serve every text read with the same params, and no others."""
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
    acc: dict[GroupElement, int] = {}
    get = acc.get
    sign = 1
    if s[pos] == "-":
        sign = -1
        pos += 1
    for term in _TERM.finditer(s, pos):
        digits, word, end = term.groups()
        coeff = 1
        if digits:
            try:
                coeff = int(digits)
            except ValueError:  # a digit run past int()'s 4300-digit limit
                scan_int(s, term.start(1))  # raises at its column
        elif word[:1].isdigit():  # no '*' right after the digits, or not ASCII
            coeff, wstart = scan_int(s, term.start(2))
            if s[wstart:wstart + 1] != "*":
                raise ParseError("expected '*' between coefficient and group word", wstart + 1)
            word = s[wstart + 1:term.start(3)]
        elif not (word or end):
            raise ParseError("expected a term", term.start(3) + 1)
        g = words.get(word)
        if g is None:
            bare = word.rstrip()  # trailing whitespace only separates
            head, _, last = bare.rpartition(" ")
            left, right = words.get(head), words.get(last)
            if left and right:  # two words read before, neither the identity ('e' stands alone)
                g = gmul(left, right, params)
            else:
                try:
                    g = project(parse_word(word, params.n), params)
                except ParseError as exc:  # the word ends where group 2 does
                    column = term.end(2) - len(word) + exc.column
                    raise ParseError(exc.raw_message, column) from None
            words[word] = words[bare] = g
        v = get(g, 0) + sign * coeff
        if v:
            acc[g] = v
        elif g in acc:
            del acc[g]
        if not end:
            break
        sign = 1 if end == "+" else -1
    # The keys are reduced under params: group them at the factor that leads
    # the last key that is not the identity.  Canonical text lists keys by
    # syllable count, so that is where products meet them; any factor gives
    # the same value.
    for g in reversed(acc):
        if g:
            factor = g[0][0]
            return from_groups(factor, params.r, _split(acc, factor, params.r[factor - 1]))
    return RingElement(acc)  # zero, or a multiple of the identity


# One term: whitespace, a coefficient of ASCII digits with its '*' right
# after them, the word text, and the '+' or '-' that ends the term (a '-'
# right after '^' is an exponent's sign) or the end of the text.  Digits
# the coefficient group does not take start the word text, where
# parse_ring reads them with scan_int.  The word runs to the first such
# '+' or '-', so the pattern matches at every position on its first,
# greedy try and never backtracks.
_TERM = re.compile(r"\s*(?:([0-9]+)\*)?([^+\-^]*(?:\^-?[^+\-^]*)*)([+-]|\Z)")
