"""Unique syllable normal forms for the free product of C_{r_i} x Z factors.

An element is an alternating product of nontrivial one-factor syllables
a_i^k b_i^m with 0 <= k < r_i and m unbounded; a_i and b_i commute inside
their factor.  Adjacent syllables always come from distinct factors, which
makes the form unique: two elements are equal iff their syllable tuples are.
A GroupElement is that tuple, so it hashes and compares as a plain tuple.
"""

from __future__ import annotations

from .errors import ParameterError
from .freewords import KIND_TORSION, FreeWord, PresentationParams


# A syllable a_factor^k b_factor^m is the plain tuple (factor, k, m): k is
# the torsion exponent, reduced into [0, r_factor), and m the free exponent.
class GroupElement(tuple):
    """Normal form as its tuple of syllables; the empty tuple is the group
    identity.  Hash and equality are tuple's, so a plain syllable tuple
    equals the element it spells."""

    __slots__ = ()

    @property
    def syllables(self) -> tuple[tuple[int, int, int], ...]:
        """The element itself, for readers of keys (perfbench/tracer.py)."""
        return self

    def __repr__(self) -> str:
        return f"GroupElement({element_to_text(self)!r})"

    def __str__(self) -> str:
        return element_to_text(self)


IDENTITY = GroupElement()


def _append_syllable(stack: list[tuple[int, int, int]], factor: int, k: int, m: int, r_factor: int):
    # Incoming k must already lie in [0, r_factor); cancellations cascade
    # because each incoming syllable is compared against the exposed top.
    if stack and stack[-1][0] == factor:
        prev = stack.pop()
        k = (prev[1] + k) % r_factor
        m = prev[2] + m
    if k or m:
        stack.append((factor, k, m))


def project(w: FreeWord, params: PresentationParams) -> GroupElement:
    """Image of a free word in the quotient; kills both relator families."""
    r = params.r
    n = params.n
    stack: list[tuple[int, int, int]] = []
    for gen, exp in w:
        i = gen.index
        if not 0 < i <= n:
            bound = f"exceeds n={n}" if i > n else "is below 1"
            raise ParameterError(f"generator index {i} {bound}")
        ri = r[i - 1]
        if gen.kind == KIND_TORSION:
            _append_syllable(stack, i, exp % ri, 0, ri)
        else:
            _append_syllable(stack, i, 0, exp, ri)
    return GroupElement(stack)


def gmul(x: GroupElement, y: GroupElement, params: PresentationParams) -> GroupElement:
    """Normal-form product: boundary syllables of equal factor merge
    (k mod r, m additively) and vanishing syllables cascade away.  Trusts x:
    only y's syllables are range-checked (see check_reduced)."""
    check_reduced(y, params)
    r = params.r
    stack = list(x)
    for factor, k, m in y:
        _append_syllable(stack, factor, k, m, r[factor - 1])
    return GroupElement(stack)


def check_reduced(x: GroupElement, params: PresentationParams) -> None:
    """ParameterError unless each syllable's factor lies in [1, n] and its
    torsion exponent in [0, r_factor)."""
    r = params.r
    n = len(r)
    for factor, k, _ in x:
        if not 0 < factor <= n:
            problem = f"factor {factor} out of range for n={n}"
        elif not 0 <= k < r[factor - 1]:
            problem = f"torsion exponent {k} out of range for r[{factor - 1}]={r[factor - 1]}"
        else:
            continue
        raise ParameterError(f"{problem}; operand built with different parameters?")


def ginv(x: GroupElement, params: PresentationParams) -> GroupElement:
    check_reduced(x, params)
    r = params.r
    return GroupElement([(f, -k % r[f - 1], -m) for f, k, m in reversed(x)])


def torsion_power(i: int, j: int, params: PresentationParams) -> GroupElement:
    """a_i^j in normal form."""
    params.check_index(i)
    k = j % params.r[i - 1]
    return GroupElement(((i, k, 0),)) if k else IDENTITY


def free_power(i: int, m: int, params: PresentationParams) -> GroupElement:
    """b_i^m in normal form."""
    params.check_index(i)
    return GroupElement(((i, 0, m),)) if m else IDENTITY


def element_to_text(x: GroupElement) -> str:
    """Per syllable "a<i>^k b<i>^m", omitting zero parts and exponent 1;
    the identity prints as "e"."""
    if not x:
        return "e"
    parts = []
    for factor, k, m in x:
        if k:
            parts.append(f"a{factor}" if k == 1 else f"a{factor}^{k}")
        if m:
            parts.append(f"b{factor}" if m == 1 else f"b{factor}^{m}")
    return " ".join(parts)
