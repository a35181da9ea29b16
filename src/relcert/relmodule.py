"""The relation module in its embedded form.

Module elements live as width-2n coordinate vectors over the group ring:
their images inside the chain group C1 under the (injective) chain-level
inclusion.  That makes equality decidable coordinate-wise, which an
abstract quotient presentation would not give us.  Elements of C2, written
over the free basis D1..Dn, E1..En, are width-2n vectors too; which chain
group a vector belongs to is fixed by the function that returns it.

The n+1 distinguished generators are defined once, as C2 coordinates
Xhat_k (lifted_generator), with X_k = d2(Xhat_k); every relator class
D_i, E_i and generator X_k is read off the one d2 matrix a caller holds.

The conjugation action of the group corresponds, in these coordinates, to
entry-wise right multiplication (see the convention note in foxcomplex).
That fact carries the whole embedding, so the test suite checks it
directly against freshly conjugated relators rather than assuming it.
"""

from __future__ import annotations

from .errors import ParameterError
from .freewords import PresentationParams
from .foxcomplex import RingMatrix, RingVector, apply
from .groupring import (
    RingElement,
    free_term,
    norm_element,
    one,
    ramp_element,
    ring_mul,
    torsion_term,
)


def module_generator(k: int, d2: RingMatrix, params: PresentationParams) -> RingVector:
    """The k-th of the n+1 distinguished generators, X_k = d2(Xhat_k) with
    d2 = d2_matrix(params): for k <= n the power class plus the commutator
    class times (1 - a_k); for k = n+1 the sum of all commutator classes."""
    return apply(d2, lifted_generator(k, params), params)


def reduction_multiplier(i: int, params: PresentationParams) -> RingElement:
    """The ring element w_i = (1 - b_i^-1) N_i + (N_i - r_i) T_i that
    contracts the i-th distinguished generator onto r_i^2 times the
    commutator class (N = norm element, T = ramp element)."""
    params.check_index(i)
    ri = params.r[i - 1]
    norm = norm_element(i, params)
    ramp = ramp_element(i, params)
    left = ring_mul(one() - free_term(i, -1, params), norm, params)
    right = ring_mul(norm - ri * one(), ramp, params)
    return left + right


def check_module_identities(i: int, d2: RingMatrix, params: PresentationParams) -> dict[str, bool]:
    """The two defining identities of the relator classes D_i = d2[i - 1]
    and E_i = d2[n + i - 1] in the module, each verdict under its name."""
    params.check_index(i)
    d = d2[i - 1]
    e = d2[params.n + i - 1]
    ann = e.act(one() - torsion_term(i, 1, params), params)
    lhs = d.act(norm_element(i, params), params)
    rhs = e.act(one() - free_term(i, -1, params), params)
    return {
        "power_annihilated": ann.is_zero,  # E_i (1 - a_i) = 0
        "norm_transfer": lhs == rhs,  # D_i N_i = E_i (1 - b_i^-1)
    }


def check_reduction(i: int, d2: RingMatrix, params: PresentationParams) -> dict[str, bool]:
    """X_i w_i = D_i r_i^2, together with its four expansion terms, each
    verdict under its name; D_i, E_i and X_i are read off d2."""
    ri = params.order(i)  # checks i first
    d = d2[i - 1]
    e = d2[params.n + i - 1]
    x = module_generator(i, d2, params)
    w = reduction_multiplier(i, params)
    norm = norm_element(i, params)
    ramp = ramp_element(i, params)
    one_minus_a = one() - torsion_term(i, 1, params)
    one_minus_binv = one() - free_term(i, -1, params)
    norm_minus_r = norm - ri * one()
    square = ri * ri * one()
    t1_coeff = ring_mul(one_minus_binv, norm, params)
    t2_coeff = ring_mul(norm_minus_r, ramp, params)
    t3_coeff = ring_mul(one_minus_a, t1_coeff, params)
    t4_coeff = ring_mul(one_minus_a, t2_coeff, params)
    d_square = d.act(square, params)  # D_i r^2
    d_norm = d.act(ri * norm, params)  # D_i N r
    return {
        # X_i w_i = D_i r_i^2
        "total": x.act(w, params) == d_square,
        # E_i (1 - b^-1) N = D_i N r
        "power_norm_term": e.act(t1_coeff, params) == d_norm,
        # E_i (N - r) T = 0
        "power_ramp_term": e.act(t2_coeff, params).is_zero,
        # D_i (1 - a)(1 - b^-1) N = 0
        "commutator_norm_term": d.act(t3_coeff, params).is_zero,
        # D_i (1 - a)(N - r) T = D_i r^2 - D_i N r
        "commutator_ramp_term": d.act(t4_coeff, params) == d_square - d_norm,
    }


def lifted_generator(k: int, params: PresentationParams) -> RingVector:
    """Xhat_k, the k-th distinguished generator lifted to C2 coordinates over
    the free basis D1..Dn, E1..En: (1 - a_k) at D_k and 1 at E_k for k <= n,
    1 at every D_i for k = n+1.  The one definition of the generators."""
    n = params.n
    if not 1 <= k <= n + 1:
        raise ParameterError(f"generator index {k} out of range 1..{n + 1}")
    entries = [RingElement({}) for _ in range(2 * n)]
    if k <= n:
        entries[k - 1] = one() - torsion_term(k, 1, params)
        entries[n + k - 1] = one()
    else:
        for j in range(n):
            entries[j] = one()
    return RingVector(entries)
