"""A random representation rho: G -> GL_2(F_p) of G = *_i (C_{r_i} x Z),
the test oracle that shares no code with normalform or groupring.

p is a prime congruent to 1 mod lcm(r) near 2^61, so F_p holds a root of
unity zeta_i of order r_i.  Factor i gets a random invertible P_i and

    a_i -> P_i diag(zeta_i^u, zeta_i^v) P_i^-1,  b_i -> P_i diag(x_i, y_i) P_i^-1

with u != v drawn from [0, r_i) and random x_i, y_i.  The two images
commute and a_i^r_i maps to 1, so rho is a homomorphism of G and extends
linearly to a ring homomorphism Z[G] -> M_2(F_p).  A key is read syllable
by syllable and a free word letter by letter, exponents as written: no
normal form is taken on the way.

rho(x) != rho(y) proves x != y.  Equal images are only evidence, and rho
cannot see an unreduced spelling of an equal element at all (a key with a
torsion exponent r_i or more has the image of its reduced form).  For
instance, when neither u nor v is 0 mod r_i, rho sends the norm element
N_i, and so every power class E_i, to 0 (see sees_norm).

Matrices are tuples (m00, m01, m10, m11) of residues mod p.
"""

from __future__ import annotations

import math
import random
import re
from functools import lru_cache

from relcert.freewords import KIND_TORSION, commutator_relator, power_relator


def _is_prime(m: int) -> bool:
    """Miller-Rabin on the first twelve prime bases: exact below 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if m < 2:
        return False
    for q in bases:
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def field_prime(orders: tuple[int, ...]) -> int:
    """The least prime p = 1 mod lcm(orders) above 2^61."""
    step = math.lcm(*orders)
    p = (2**61 // step + 1) * step + 1
    while not _is_prime(p):
        p += step
    return p


def _root_of_unity(r: int, p: int) -> int:
    """An element of order exactly r in F_p^*, r dividing p - 1."""
    primes, rest = [], r
    for q in range(2, r + 1):
        if rest % q == 0:
            primes.append(q)
            while rest % q == 0:
                rest //= q
    for h in range(2, p):
        z = pow(h, (p - 1) // r, p)
        if all(pow(z, r // q, p) != 1 for q in primes):
            return z
    raise ValueError(f"no root of unity of order {r} mod {p}")


def _mul(x, y, p):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def _add(x, y, p):
    return tuple((s + t) % p for s, t in zip(x, y))


def _scale(c, x, p):
    return tuple(c * s % p for s in x)


# One term of ring text: its sign, a coefficient with its '*', a letter
# with index and exponent, or the identity 'e'; separators match nothing.
_TOKEN = re.compile(r"([+-])|([0-9]+)\*|([ab])([0-9]+)(?:\^(-?[0-9]+))?|(e)")


class Rho:
    """The representation of seed `seed` at params."""

    def __init__(self, params, seed: int):
        rng = random.Random(seed)
        p = self.p = field_prime(params.r)
        self.identity = (1, 0, 0, 1)
        self.zero = (0, 0, 0, 0)
        self.exponents = []
        self._factors = []
        for r in params.r:
            zeta = _root_of_unity(r, p)
            while True:
                conj = tuple(rng.randrange(p) for _ in range(4))
                det = (conj[0] * conj[3] - conj[1] * conj[2]) % p
                if det:
                    break
            inv_det = pow(det, -1, p)
            inverse = _scale(inv_det, (conj[3], -conj[1], -conj[2], conj[0]), p)
            u, v = rng.sample(range(r), 2)
            x, y = rng.sample(range(2, p - 1), 2)
            self.exponents.append((u, v))
            self._factors.append((conj, inverse, pow(zeta, u, p), pow(zeta, v, p), x, y))
        self._syllables = {}
        self._texts = {}

    def sees_norm(self, i: int) -> bool:
        """Whether rho(N_i) != 0: one of a_i's eigenvalues is 1."""
        return 0 in self.exponents[i - 1]

    def syllable(self, factor: int, k: int, m: int):
        """rho(a_factor^k b_factor^m) for any integers k and m."""
        key = (factor, k, m)
        image = self._syllables.get(key)
        if image is None:
            p = self.p
            conj, inverse, za, zb, x, y = self._factors[factor - 1]
            diag = (pow(za, k, p) * pow(x, m, p) % p, 0, 0, pow(zb, k, p) * pow(y, m, p) % p)
            image = self._syllables[key] = _mul(_mul(conj, diag, p), inverse, p)
        return image

    def letter(self, kind: str, index: int, e: int):
        """rho(a_index^e) or rho(b_index^e)."""
        return self.syllable(index, e, 0) if kind == KIND_TORSION else self.syllable(index, 0, e)

    def key(self, g):
        """rho of a group element, its syllables (factor, k, m) read in turn."""
        out = self.identity
        for factor, k, m in g:
            out = _mul(out, self.syllable(factor, k, m), self.p)
        return out

    def word(self, w):
        """rho of a free word, letter by letter."""
        out = self.identity
        for gen, e in w:
            out = _mul(out, self.letter(gen.kind, gen.index, e), self.p)
        return out

    def ring(self, x):
        """rho of a ring element, term by term."""
        s0 = s1 = s2 = s3 = 0
        for g, c in x.terms.items():
            m0, m1, m2, m3 = self.key(g)
            s0 += c * m0
            s1 += c * m1
            s2 += c * m2
            s3 += c * m3
        p = self.p
        return (s0 % p, s1 % p, s2 % p, s3 % p)

    def text(self, s: str):
        """rho of well-formed ring text, read straight off its terms and
        letters; each text is read once."""
        image = self._texts.get(s)
        if image is None:
            image = self._texts[s] = self._read_text(s)
        return image

    def _read_text(self, s: str):
        p = self.p
        out = self.zero
        if s.strip() == "0":
            return out
        sign, coeff, value, started = 1, 1, self.identity, False
        for m in _TOKEN.finditer(s):
            mark, digits, kind, index, exp, _ = m.groups()
            if mark:
                if started:
                    out = _add(out, _scale(sign * coeff, value, p), p)
                sign, coeff, value, started = (1 if mark == "+" else -1), 1, self.identity, False
                continue
            started = True
            if digits:
                coeff = int(digits)
            elif kind:
                letter = self.letter(kind, int(index), int(exp) if exp else 1)
                value = _mul(value, letter, p)
        return _add(out, _scale(sign * coeff, value, p), p)

    def mul(self, x, y):
        return _mul(x, y, self.p)

    def add(self, x, y):
        return _add(x, y, self.p)

    def starred_fox_row(self, w) -> list:
        """rho of the starred Fox derivatives of w over columns a1, b1, ...,
        an, bn, by the product rule: the letter g^e after the prefix u adds
        c (u g^j)^-1 = c rho(g)^-j rho(u)^-1 to column g (fox_derivative's
        exponents j and sign c)."""
        p = self.p
        cols = [self.zero] * (2 * len(self._factors))
        inv = self.identity  # rho(u)^-1
        for gen, e in w:
            col = 2 * gen.index - 2 + (gen.kind != KIND_TORSION)
            exponents, c = (range(e), 1) if e > 0 else (range(-1, e - 1, -1), -1)
            for j in exponents:
                term = _mul(self.letter(gen.kind, gen.index, -j), inv, p)
                cols[col] = _add(cols[col], _scale(c, term, p), p)
            inv = _mul(self.letter(gen.kind, gen.index, -e), inv, p)
        return cols

    def d2(self, params) -> list[list]:
        """rho of d2: rows D1..Dn, then E1..En, from the relator words."""
        n = params.n
        rows = [self.starred_fox_row(commutator_relator(i)) for i in range(1, n + 1)]
        return rows + [self.starred_fox_row(power_relator(i, params)) for i in range(1, n + 1)]

    def relation_verdicts(self, obj: dict, params) -> dict[str, bool]:
        """The D/E reconstruction and alpha kernel items of a certificate's
        JSON tree, each ring entry read off its text, as name -> verdict
        under rho."""
        n = params.n
        p = self.p
        d2 = self.d2(params)
        width = 2 * n

        def combine(rows, coeffs):  # sum_k rows_k * coeffs_k, column by column
            out = [self.zero] * width
            for row, c in zip(rows, coeffs):
                for col in range(width):
                    out[col] = _add(out[col], _mul(row[col], c, p), p)
            return out

        # X_k = d2(Xhat_k): E_k + D_k (1 - a_k) for k <= n, D_1 + ... + D_n.
        shears = [_add(self.identity, _scale(-1, self.letter(KIND_TORSION, k, 1), p), p)
                  for k in range(1, n + 1)]
        gens = [combine((d2[k - 1], d2[n + k - 1]), (shears[k - 1], self.identity))
                for k in range(1, n + 1)]
        gens.append(combine(d2[:n], [self.identity] * n))
        verdicts = {}
        for family, name, classes in (("D", "lambda", d2[:n]), ("E", "mu", d2[n:])):
            matrix = [[self.text(s) for s in row] for row in obj[name]]
            for i, image in enumerate(classes, start=1):
                got = combine(gens, [row[i - 1] for row in matrix])
                verdicts[f"{family}_{i} reconstruction"] = got == image
        for i, alpha in enumerate(obj["alpha"], start=1):
            image = combine(d2, [self.text(s) for s in alpha])
            verdicts[f"alpha_{i} kernel"] = all(m == self.zero for m in image)
        return verdicts


@lru_cache(maxsize=None)
def rho_for(params, seed: int = 0) -> Rho:
    """The representation of seed `seed` at params, built once."""
    return Rho(params, seed)
