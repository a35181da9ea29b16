"""Reduced words in the free group on paired generators a1, b1, ..., an, bn.

Words are stored run-length as (generator, exponent) pairs with nonzero
exponents and no two adjacent pairs sharing a generator, so high powers
like a_i^r stay O(1) in size and equality is a tuple comparison.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable

from .errors import ParameterError, ParseError

KIND_TORSION = "a"
KIND_FREE = "b"
_KINDS = (KIND_TORSION, KIND_FREE)


class Generator(namedtuple("Generator", "kind index")):
    """One free generator: kind "a" (torsion) or "b" (free), 1-based index."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


def agen(i: int) -> Generator:
    return Generator(KIND_TORSION, i)


def bgen(i: int) -> Generator:
    return Generator(KIND_FREE, i)


def generators(n: int) -> list[Generator]:
    """All 2n generators in column order a1, b1, ..., an, bn."""
    out: list[Generator] = []
    for i in range(1, n + 1):
        out.append(agen(i))
        out.append(bgen(i))
    return out


class PresentationParams(namedtuple("PresentationParams", "r")):
    """Torsion orders r1, ..., rn; factor i of the free product is C_{r_i} x Z.

    The orders must all be >= 2 and pairwise coprime.
    """

    __slots__ = ()

    def __new__(cls, r: Iterable[int]):
        r = tuple(r)
        if not r:
            raise ParameterError("need at least one factor (empty r)")
        for i, ri in enumerate(r):
            if not isinstance(ri, int) or ri < 2:
                raise ParameterError(f"r[{i}]={_brief(ri)} must be an integer >= 2")
        for i in range(len(r)):
            for j in range(i + 1, len(r)):
                if math.gcd(r[i], r[j]) != 1:
                    raise ParameterError(
                        f"r[{i}]={_brief(r[i])} and r[{j}]={_brief(r[j])} not coprime"
                    )
        return super().__new__(cls, r)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and so _replace, would skip __new__.
        return cls(*iterable)

    @property
    def n(self) -> int:
        return len(self.r)

    def order(self, i: int) -> int:
        """Torsion order of factor i (1-based)."""
        self.check_index(i)
        return self.r[i - 1]

    def check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ParameterError(f"factor index {i} out of range 1..{self.n}")


def _brief(value) -> str:
    """repr(value), except that an int past 128 bits is named by its size:
    CPython will not print one of more than 4300 digits."""
    if isinstance(value, int) and value.bit_length() > 128:
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"
    return repr(value)


class FreeWord:
    """A freely reduced word; the empty word is the identity."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[tuple[Generator, int], ...] = ()):
        # Trusted to be reduced; use from_letters for raw input.
        self.letters = letters

    @staticmethod
    def from_letters(pairs: Iterable[tuple[Generator, int]]) -> "FreeWord":
        """Freely reduce a raw run-length letter list."""
        out: list[tuple[Generator, int]] = []
        for gen, exp in pairs:
            if gen.kind not in _KINDS or gen.index < 1:
                raise ParameterError(f"invalid generator {gen!r}")
            if not isinstance(exp, int):
                raise ParameterError(f"exponent {exp!r} must be an integer")
            if exp == 0:
                continue
            if out and out[-1][0] == gen:
                merged = out.pop()[1] + exp
                if merged:
                    out.append((gen, merged))
            else:
                out.append((gen, exp))
        return FreeWord(tuple(out))

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord.from_letters(self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((g, -e) for g, e in reversed(self.letters)))

    def conjugate_by(self, g: "FreeWord") -> "FreeWord":
        """g^-1 * self * g."""
        return g.inverse() * self * g

    def __pow__(self, k: int) -> "FreeWord":
        if k < 0:
            return self.inverse() ** (-k)
        result, base = EMPTY_WORD, self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeWord) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"FreeWord({word_to_text(self)!r})"

    def __str__(self) -> str:
        return word_to_text(self)


EMPTY_WORD = FreeWord()


def single(gen: Generator, exp: int = 1) -> FreeWord:
    """One-letter word gen^exp."""
    return FreeWord.from_letters(((gen, exp),))


def commutator_relator(i: int) -> FreeWord:
    """The commutator [a_i, b_i] = a_i b_i a_i^-1 b_i^-1."""
    if i < 1:
        raise ParameterError(f"factor index {i} out of range (must be >= 1)")
    a, b = agen(i), bgen(i)
    return FreeWord(((a, 1), (b, 1), (a, -1), (b, -1)))


def power_relator(i: int, params: PresentationParams) -> FreeWord:
    """The torsion relator a_i^{r_i}."""
    return FreeWord(((agen(i), params.order(i)),))


def conjugate_power_product(i: int, params: PresentationParams) -> FreeWord:
    """Product of the a_i-power conjugates of the commutator relator,
    (a_i^-1 R a_i)(a_i^-2 R a_i^2)...(a_i^-r R a_i^r), reduced in one pass
    over the raw letters of all r conjugates."""
    r = params.order(i)
    a, b = agen(i), bgen(i)
    return FreeWord.from_letters(
        letter
        for j in range(1, r + 1)
        for letter in ((a, -j), (a, 1), (b, 1), (a, -1), (b, -1), (a, j))
    )


def telescoped_power_product(i: int, params: PresentationParams) -> FreeWord:
    """The telescoped form (a_i^-1 R)^{r_i} a_i^{r_i} of the conjugate product."""
    r = params.order(i)
    a = single(agen(i))
    return (a.inverse() * commutator_relator(i)) ** r * a**r


def power_conjugate_commutator(i: int, params: PresentationParams) -> FreeWord:
    """b_i a_i^{-r_i} b_i^-1 a_i^{r_i}, written directly in reduced form."""
    r = params.order(i)
    a, b = agen(i), bgen(i)
    return FreeWord(((b, 1), (a, -r), (b, -1), (a, r)))


def power_relator_commutator(i: int, params: PresentationParams) -> FreeWord:
    """b_i S^-1 b_i^-1 S for the torsion relator S = a_i^{r_i}."""
    s = power_relator(i, params)
    b = single(bgen(i))
    return b * s.inverse() * b.inverse() * s


def torsion_relator_commutator(i: int, params: PresentationParams) -> FreeWord:
    """a_i^-1 S^-1 a_i S; freely trivial since both letters are a_i powers."""
    s = power_relator(i, params)
    a = single(agen(i))
    return a.inverse() * s.inverse() * a * s


def verify_free_identities(i: int, params: PresentationParams) -> bool:
    """Check, as reduced words in the free group, that the conjugate product
    of the commutator relator telescopes to the commutator of b_i with the
    torsion relator, and that a_i commutes with its own power relator.
    Each of the four equalities is checked separately."""
    w1 = conjugate_power_product(i, params)
    w2 = telescoped_power_product(i, params)
    w3 = power_conjugate_commutator(i, params)
    w4 = power_relator_commutator(i, params)
    return (
        w1 == w2
        and w2 == w3
        and w3 == w4
        and torsion_relator_commutator(i, params).is_identity
    )


def random_word(rng: random.Random, n: int, max_len: int = 20) -> FreeWord:
    """Reduction of a uniformly random raw letter list of length <= max_len."""
    raw = []
    for _ in range(rng.randint(0, max_len)):
        kind = rng.choice(_KINDS)
        index = rng.randint(1, n)
        exp = rng.choice((-3, -2, -1, 1, 2, 3))
        raw.append((Generator(kind, index), exp))
    return FreeWord.from_letters(raw)


def word_to_text(w: FreeWord) -> str:
    """Serialize to the word grammar; deterministic, space-separated."""
    if not w.letters:
        return "e"
    return " ".join(str(g) if e == 1 else f"{g}^{e}" for g, e in w.letters)


def scan_int(text: str, pos: int) -> tuple[int | None, int]:
    """The integer of the digit run at text[pos:] (None if there is none) and
    the position after it; ParseError at its column when int() refuses the
    run: a non-decimal digit such as '²', or over CPython's 4300-digit limit."""
    end = pos
    while end < len(text) and text[end].isdigit():
        end += 1
    if end == pos:
        return None, pos
    try:
        return int(text[pos:end]), end
    except ValueError:
        raise ParseError("integer literal is not decimal or too long", pos + 1) from None


def parse_word(text: str, n: int | None = None) -> FreeWord:
    """Parse the word grammar: "e", or terms like a1, b2^-3 separated by
    whitespace or '*'.  Raises ParseError carrying a 1-based column."""
    s = text
    size = len(s)
    pos = 0

    def skip_sep():
        nonlocal pos
        while pos < size and (s[pos].isspace() or s[pos] == "*"):
            pos += 1

    skip_sep()
    if pos == size:
        raise ParseError("empty word text; write 'e' for the identity", pos + 1)
    if s[pos] == "e":
        pos += 1
        skip_sep()
        if pos != size:
            raise ParseError("'e' denotes the identity and must stand alone", pos + 1)
        return EMPTY_WORD
    raw: list[tuple[Generator, int]] = []
    while pos < size:
        kind = s[pos]
        if kind not in _KINDS:
            raise ParseError(f"expected generator 'a' or 'b', found {kind!r}", pos + 1)
        pos += 1
        dstart = pos
        index, pos = scan_int(s, pos)
        if index is None:
            raise ParseError("expected generator index digits", pos + 1)
        if index < 1:
            raise ParseError("generator index must be >= 1", dstart + 1)
        if n is not None and index > n:
            raise ParseError(f"generator index {index} exceeds n={n}", dstart + 1)
        exp = 1
        if pos < size and s[pos] == "^":
            pos += 1
            sign = 1
            if pos < size and s[pos] == "-":
                sign = -1
                pos += 1
            magnitude, pos = scan_int(s, pos)
            if magnitude is None:
                raise ParseError("expected exponent digits after '^'", pos + 1)
            exp = sign * magnitude
        raw.append((Generator(kind, index), exp))
        skip_sep()
    return FreeWord.from_letters(raw)
