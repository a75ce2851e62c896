"""Fracket partitions of the critical groups of a pair.

For side S in {L, M} (with T the other matrix), the critical group
K(S) = Z^n / S Z^n splits into frackets: the fracket of a class [v] is
keyed by the fractional vector f = {T S^-1 v}.  The key is well defined
because T S^-1 (v + S z) = T S^-1 v + T z shifts by an integer vector.

The zero fracket F0_S (key 0) is a subgroup and the frackets are its
cosets, so all frackets share one size and

    K(S) / F0_S  ~=  Z^n / Lambda_S,   Lambda_S = Z^n  intersect  (S T^-1) Z^n.

The largest invariant factor of K(M)/F0_M equals flcm(L M^-1), and that
of K(L)/F0_L equals flcm(M L^-1).  Writing p_S for the product of the
non-largest invariant factors of K(S)/F0_S,

    |F0| = gcd( gcd-of-entries |L| M L^-1 , gcd-of-entries |M| L M^-1 )
           / gcd(p_M, p_L)

and in particular |F0_L| = |F0_M|.  When K(M)/F0_M is cyclic this
collapses to |F0| = gcd-of-entries of |M| L M^-1 (swap the roles for a
cyclic K(L)/F0_L).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import lattices
from .linalg import flcm, frac_part, gcd_entries, mat_scale, mat_vec
from .pairs import ChipFiringPair


def _side_data(pair: ChipFiringPair, side):
    """(matrix grid, keymap, det, snf) for the requested side."""
    if side == "L":
        return pair.l, pair.ml_inv, pair.det_l, pair.l_snf
    if side == "M":
        return pair.m.m, pair.lm_inv, pair.det_m, pair.m.snf
    raise ValueError("side must be 'L' or 'M'")


def zero_fracket_lattice(pair: ChipFiringPair, side):
    """(Lambda_S, Z^n / Lambda_S) for the side, computed once per pair."""
    if side not in pair._zero_lattices:
        # Lambda_S comes from the OTHER side's keymap: its members v are the
        # integer vectors with S T^-1 w = v for integer w, i.e. key({T S^-1 v}) = 0
        keymap = pair.lm_inv if side == "L" else pair.ml_inv
        lam = lattices.lattice_intersect_with_Zn(keymap)
        pair._zero_lattices[side] = lam, lattices.quotient_group(lam)
    return pair._zero_lattices[side]


@dataclass(frozen=True)
class FracketPartition:
    side: str
    keys: tuple
    by_key: dict

    @property
    def fracket_count(self):
        return len(self.keys)

    @property
    def fracket_size(self):
        sizes = {len(self.by_key[k]) for k in self.keys}
        assert len(sizes) == 1, "frackets are cosets of F0 and share one size"
        return sizes.pop()


@dataclass(frozen=True)
class ZeroFracket:
    side: str
    members: tuple
    lattice: tuple
    quotient: lattices.AbelianGroup

    @property
    def size(self):
        return len(self.members)


def fracket_key(pair: ChipFiringPair, side, v):
    _, keymap, _, _ = _side_data(pair, side)
    return frac_part(mat_vec(keymap, v))


def fracket_partition(pair: ChipFiringPair, side, cap=lattices.DEFAULT_ENUMERATION_CAP):
    """Partition the classes of K(side) by key, keys in ascending lex order.

    by_key maps each key to the tuple of class representatives carrying
    it, each representative in the image of enumerate_class_reps.
    """
    grid, keymap, det, dec = _side_data(pair, side)
    groups = {}
    for rep in lattices.enumerate_class_reps(grid, dec, cap=cap):
        groups.setdefault(frac_part(mat_vec(keymap, rep)), []).append(rep)
    keys = tuple(sorted(groups))
    part = FracketPartition(side=side, keys=keys, by_key={k: tuple(groups[k]) for k in keys})
    assert sum(len(part.by_key[k]) for k in keys) == abs(det)
    # cross-check the coset picture against the lattice quotient
    _, quotient = zero_fracket_lattice(pair, side)
    assert part.fracket_count == quotient.order
    assert part.fracket_size * quotient.order == abs(det)
    return part


def zero_fracket(pair: ChipFiringPair, side, cap=lattices.DEFAULT_ENUMERATION_CAP):
    """F0 for the given side, with Lambda_S and K(side)/F0 ~= Z^n/Lambda_S."""
    grid, keymap, det, dec = _side_data(pair, side)
    lam, quotient = zero_fracket_lattice(pair, side)
    zero = tuple(
        rep
        for rep in lattices.enumerate_class_reps(grid, dec, cap=cap)
        if not any(frac_part(mat_vec(keymap, rep)))
    )
    assert len(zero) * quotient.order == abs(det)
    return ZeroFracket(side=side, members=zero, lattice=lam, quotient=quotient)


def verify_largest_invariant_factor(pair: ChipFiringPair, side):
    """Largest invariant factor of K(side)/F0 against the flcm of the
    side's keymap; the two always agree."""
    _, keymap, _, _ = _side_data(pair, side)
    _, quotient = zero_fracket_lattice(pair, side)
    predicted = flcm(keymap)
    largest = quotient.largest_factor
    return {
        "side": side,
        "quotient": quotient,
        "largest_invariant_factor": largest,
        "flcm": predicted,
        "ok": largest == predicted,
    }


def _nonlargest_product(group: lattices.AbelianGroup):
    factors = group.invariant_factors
    if len(factors) <= 1:
        return 1
    return math.prod(factors[:-1])


def zero_fracket_size_formula(pair: ChipFiringPair):
    """|F0| from the scaled transfer matrices.

    predicted = gcd( gcd |L| M L^-1 , gcd |M| L M^-1 ) / gcd(p_M, p_L)
    with p_S the product of the non-largest invariant factors of
    K(S)/F0_S.  Checks the prediction against both actual sizes, which
    must also agree with each other.
    """
    scaled_l = mat_scale(abs(pair.det_l), pair.ml_inv)
    scaled_m = mat_scale(abs(pair.det_m), pair.lm_inv)
    g_l = gcd_entries(scaled_l)
    g_m = gcd_entries(scaled_m)
    _, quot_l = zero_fracket_lattice(pair, "L")
    _, quot_m = zero_fracket_lattice(pair, "M")
    p_l = _nonlargest_product(quot_l)
    p_m = _nonlargest_product(quot_m)
    numerator = math.gcd(g_l, g_m)
    denominator = math.gcd(p_m, p_l)
    assert numerator % denominator == 0
    predicted = numerator // denominator
    actual_l = abs(pair.det_l) // quot_l.order
    actual_m = abs(pair.det_m) // quot_m.order
    assert actual_l == actual_m, "both sides share one zero-fracket size"
    assert predicted == actual_l
    return {
        "gcd_scaled_L": g_l,
        "gcd_scaled_M": g_m,
        "p_L": p_l,
        "p_M": p_m,
        "predicted": predicted,
        "actual": actual_l,
    }


def cyclic_shortcut(pair: ChipFiringPair, side):
    """gcd of the scaled keymap when K(side)/F0 is cyclic, else None.

    For a cyclic quotient the size formula collapses: |F0| equals the
    gcd of the entries of |side| * keymap(side).
    """
    grid, keymap, det, _ = _side_data(pair, side)
    _, quotient = zero_fracket_lattice(pair, side)
    if not quotient.is_cyclic:
        return None
    value = gcd_entries(mat_scale(abs(det), keymap))
    assert value == abs(det) // quotient.order
    return value
