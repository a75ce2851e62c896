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
from collections import namedtuple

from . import lattices
from .linalg import ensure, flcm, gcd_entries, mat_vec, over
from .pairs import ChipFiringPair


def _side_data(pair: ChipFiringPair, side):
    """(keymap numerators, keymap denominator, det, snf) for the
    requested side; the keymap T S^-1 is numerators / denominator."""
    if side == "L":
        return pair.n_ml, pair.den_l, pair.det_l, pair.l_snf
    if side == "M":
        return pair.n_lm, pair.det_m, pair.det_m, pair.m.snf
    raise ValueError("side must be 'L' or 'M'")


def zero_fracket_lattice(pair: ChipFiringPair, side):
    """(Lambda_S, Z^n / Lambda_S) for the side, computed once per pair
    from one Smith decomposition (lattices.lattice_intersection)."""
    if side not in pair._zero_lattices:
        # Lambda_S comes from the OTHER side's keymap: its members v are the
        # integer vectors with S T^-1 w = v for integer w, i.e. key({T S^-1 v}) = 0
        # num = +-S adj(T), so |det num| = |det S| |det T|^(n-1) with no
        # further elimination
        other = "M" if side == "L" else "L"
        num, den, det_t, _ = _side_data(pair, other)
        det_s = pair.det_l if side == "L" else pair.det_m
        pair._zero_lattices[side] = lattices.lattice_intersection(
            num, den, det_s * det_t ** (pair.n - 1))
    return pair._zero_lattices[side]


class FracketPartition(namedtuple("FracketPartition", "side keys by_key")):
    __slots__ = ()

    @property
    def fracket_count(self):
        return len(self.keys)

    @property
    def fracket_size(self):
        sizes = {len(self.by_key[k]) for k in self.keys}
        ensure(len(sizes) == 1, "frackets are cosets of F0 and share one size")
        return sizes.pop()


class ZeroFracket(namedtuple("ZeroFracket", "side members lattice quotient")):
    __slots__ = ()

    @property
    def size(self):
        return len(self.members)


def _residues(num, den, v):
    # numerators of {num v / den} over the positive denominator den
    return tuple(q % den for q in mat_vec(num, v))


def _classes_with_residues(num, den, dec):
    """(representative, residues of num rep over den) per class of the
    side, in class-walk order: one walk steps U r and num U r together,
    so no class takes a matrix-vector product and no list holds them."""
    walk = lattices.walk_class_reps(dec, image=num, with_rep=True)
    return ((rep, tuple(q % den for q in v)) for rep, v in walk)


def fracket_key(pair: ChipFiringPair, side, v):
    num, den, _, _ = _side_data(pair, side)
    return over(_residues(num, den, v), den)


def fracket_partition(pair: ChipFiringPair, side):
    """Partition the classes of K(side) by key, keys in ascending lex order.

    by_key maps each key to the tuple of class representatives carrying
    it, each as lattices.walk_class_reps yields it.  The
    classes are grouped by residue vectors, which over one positive
    denominator sort as the keys do; each key becomes a rational once.
    """
    num, den, det, dec = _side_data(pair, side)
    groups = {}
    for rep, residues in _classes_with_residues(num, den, dec):
        groups.setdefault(residues, []).append(rep)
    residues = sorted(groups)
    keys = tuple(over(r, den) for r in residues)
    part = FracketPartition(
        side=side, keys=keys, by_key={k: tuple(groups[r]) for k, r in zip(keys, residues)}
    )
    ensure(sum(len(v) for v in groups.values()) == abs(det), "the frackets cover K(side)")
    # cross-check the coset picture against the lattice quotient
    _, quotient = zero_fracket_lattice(pair, side)
    ensure(part.fracket_count == quotient.order, "one fracket per class of Z^n / Lambda")
    ensure(part.fracket_size * quotient.order == abs(det), "|F0| |Z^n / Lambda| = |det|")
    return part


def zero_fracket(pair: ChipFiringPair, side):
    """F0 for the given side, with Lambda_S and K(side)/F0 ~= Z^n/Lambda_S."""
    num, den, det, dec = _side_data(pair, side)
    lam, quotient = zero_fracket_lattice(pair, side)
    zero = tuple(rep for rep, residues in _classes_with_residues(num, den, dec)
                 if not any(residues))
    ensure(len(zero) * quotient.order == abs(det), "|F0| |Z^n / Lambda| = |det|")
    return ZeroFracket(side=side, members=zero, lattice=lam, quotient=quotient)


def verify_largest_invariant_factor(pair: ChipFiringPair, side):
    """Largest invariant factor of K(side)/F0 against the flcm of the
    side's keymap; the two always agree."""
    num, den, _, _ = _side_data(pair, side)
    _, quotient = zero_fracket_lattice(pair, side)
    predicted = flcm(num, den)
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
    K(S)/F0_S.  The scaled transfers are the numerators n_ml and n_lm.
    Returns the prediction next to the actual |F0|, which both sides
    share.  The two can differ.
    """
    g_l = gcd_entries(pair.n_ml)
    g_m = gcd_entries(pair.n_lm)
    _, quot_l = zero_fracket_lattice(pair, "L")
    _, quot_m = zero_fracket_lattice(pair, "M")
    p_l = _nonlargest_product(quot_l)
    p_m = _nonlargest_product(quot_m)
    numerator = math.gcd(g_l, g_m)
    denominator = math.gcd(p_m, p_l)
    ensure(numerator % denominator == 0, "gcd(p_M, p_L) divides the gcd of the scaled transfers")
    predicted = numerator // denominator
    actual_l = abs(pair.det_l) // quot_l.order
    actual_m = abs(pair.det_m) // quot_m.order
    ensure(actual_l == actual_m, "both sides share one zero-fracket size")
    return {
        "gcd_scaled_L": g_l,
        "gcd_scaled_M": g_m,
        "p_L": p_l,
        "p_M": p_m,
        "predicted": predicted,
        "actual": actual_l,
    }


def cyclic_shortcut(pair: ChipFiringPair, side):
    """{"predicted", "actual"} |F0| when K(side)/F0 is cyclic, else None.

    For a cyclic quotient the size formula collapses: the prediction is
    the gcd of the entries of |side| * keymap(side), the keymap's
    numerators.  It can miss the actual |F0|: for L = [[-3]], M = [[2]]
    it gives 2 on side L and 3 on side M, but |F0| = 1.
    """
    num, _, det, _ = _side_data(pair, side)
    _, quotient = zero_fracket_lattice(pair, side)
    if not quotient.is_cyclic:
        return None
    return {"predicted": gcd_entries(num), "actual": abs(det) // quotient.order}
