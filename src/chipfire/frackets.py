"""Fracket partitions of the critical groups of a pair.

For side S in {L, M} (with T the other matrix), the critical group
K(S) = Z^n / S Z^n splits into frackets: the fracket of a class [v] is
keyed by the fractional vector f = {T S^-1 v}.  The key is well defined
because T S^-1 (v + S z) = T S^-1 v + T z shifts by an integer vector.

The zero fracket F0_S (key 0) is a subgroup and the frackets are its
cosets, so all frackets share one size, and K(S) / F0_S is the group of
keys: [v] -> {T S^-1 v} is a homomorphism with kernel F0_S, and the
order of [v] there is the least common denominator of its key,
flcm(T S^-1 v).  As an abstract group

    K(S) / F0_S  ~=  Z^n / Lambda_S,   Lambda_S = Z^n  intersect  (S T^-1) Z^n,

whose invariant factors one Smith form gives for both sides at once
(zero_fracket_quotient): Lambda_M is Z^n intersect B^-1 Z^n for the
B = L M^-1 of Lambda_L, and the Smith form of the scaled B gives the
invariant factors of both intersections.

|F0| = |det S| / |K(S)/F0_S| is the same on both sides
(zero_fracket_size).  fracket_checks compares the structure facts: the
largest invariant factor of K(S)/F0_S equals the flcm of the keymap,
and |F0| against the size formula and its cyclic shortcut.

The keymap T S^-1 is carried as integer numerators over one positive
denominator den (|det L| for side L, det M for side M), so a key is its
residue vector, the numerators of {T S^-1 v} mod den.  A FracketPartition
holds the side, den, the residue vectors in ascending order and the class
ids of each fracket; its keys and by_key are the rational view, built
only when read.
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


def zero_fracket_quotient(pair: ChipFiringPair, side):
    """K(S)/F0_S ~= Z^n / Lambda_S as an AbelianGroup.  Both sides come
    from one Smith decomposition (lattices.lattice_intersection), made on
    the first call for either side and cached on the pair."""
    if side not in ("L", "M"):
        raise ValueError("side must be 'L' or 'M'")
    if not pair._zero_quotients:
        # Lambda_L = Z^n intersect B Z^n for B = L M^-1 = n_lm / det M, and
        # Lambda_M = Z^n intersect B^-1 Z^n; num = L adj(M), so
        # det num = det L det M^(n-1) with no further elimination
        _, quot_l, quot_m = lattices.lattice_intersection(
            pair.n_lm, pair.det_m, pair.det_l * pair.det_m ** (pair.n - 1))
        # |F0_L| = |F0_M|, that is |det L| / |Q_L| = |det M| / |Q_M|
        ensure(pair.den_l % quot_l.order == 0, "|Q_L| divides |det L|")
        ensure(pair.den_l * quot_m.order == pair.det_m * quot_l.order,
               "|det L| |Q_M| = |det M| |Q_L|")
        pair._zero_quotients.update(L=quot_l, M=quot_m)
    return pair._zero_quotients[side]


class FracketPartition(namedtuple("FracketPartition", "side den residues groups")):
    """The frackets of K(side) on integers: residues holds each key's
    numerators over the positive denominator den, ascending, and groups
    the tuple of canonical class ids of each key's classes, in the same
    order.  keys and by_key are the rational view, built when read."""

    __slots__ = ()

    @property
    def keys(self):
        return tuple(over(r, self.den) for r in self.residues)

    @property
    def by_key(self):
        return dict(zip(self.keys, self.groups))

    @property
    def fracket_count(self):
        return len(self.groups)

    @property
    def fracket_size(self):
        sizes = set(map(len, self.groups))
        ensure(len(sizes) == 1, "frackets are cosets of F0 and share one size")
        return sizes.pop()


def _residues(num, den, v):
    # numerators of {num v / den} over the positive denominator den
    return tuple(q % den for q in mat_vec(num, v))


def fracket_key(pair: ChipFiringPair, side, v):
    num, den, _, _ = _side_data(pair, side)
    return over(_residues(num, den, v), den)


def fracket_partition(pair: ChipFiringPair, side):
    """Partition the classes of K(side) by key, keys in ascending lex order.

    Each class is named by its canonical class id (lattices.class_id).
    The walk steps num U r by vector additions and the class id of U r
    is its residue r (lattices.walk_class_ids), so no class takes a
    matrix-vector product.  The classes are grouped by the residue
    vectors of their keys, which over one positive denominator sort as
    the keys do, and no rational is built.
    """
    num, den, det, dec = _side_data(pair, side)
    groups = {}
    walk = lattices.walk_class_reps(dec, image=num)
    for r, v in zip(lattices.walk_class_ids(dec), walk):
        groups.setdefault(tuple(q % den for q in v), []).append(r)
    residues = sorted(groups)
    part = FracketPartition(side, den, tuple(residues), tuple(tuple(groups[r]) for r in residues))
    ensure(sum(map(len, part.groups)) == abs(det), "the frackets cover K(side)")
    # cross-check the coset picture against the lattice quotient
    quotient = zero_fracket_quotient(pair, side)
    ensure(part.fracket_count == quotient.order, "one fracket per class of Z^n / Lambda")
    ensure(part.fracket_size * quotient.order == abs(det), "|F0| |Z^n / Lambda| = |det|")
    return part


def zero_fracket_size(pair: ChipFiringPair):
    """|F0|, which both sides share: |det L| / |K(L)/F0_L|."""
    return pair.den_l // zero_fracket_quotient(pair, "L").order


FracketChecks = namedtuple("FracketChecks", "flcm largest predicted size shortcut")


def fracket_checks(pair: ChipFiringPair):
    """The structure facts of F0, each pair in side order (L, M).

    flcm holds the flcm of each keymap and largest the largest invariant
    factor of each K(S)/F0_S; the two always agree.  predicted is the
    size formula gcd(gcd n_ml, gcd n_lm) / gcd(p_L, p_M), with p_S the
    product of the non-largest invariant factors of K(S)/F0_S, and size
    the actual |F0|.  shortcut is the gcd of the entries of the side's
    keymap numerators where K(S)/F0_S is cyclic, else None.  Either can
    miss |F0|: for L = [[-3]], M = [[2]], |F0| = 1, but the shortcut
    gives 2 on side L and 3 on side M.
    """
    nums = (pair.n_ml, pair.n_lm)
    quots = (zero_fracket_quotient(pair, "L"), zero_fracket_quotient(pair, "M"))
    numerator = math.gcd(*map(gcd_entries, nums))
    denominator = math.gcd(*(math.prod(q.invariant_factors[:-1]) for q in quots))
    ensure(numerator % denominator == 0, "gcd(p_L, p_M) divides the gcd of the scaled transfers")
    return FracketChecks(
        flcm=(flcm(pair.n_ml, pair.den_l), flcm(pair.n_lm, pair.det_m)),
        largest=tuple(q.largest_factor for q in quots),
        predicted=numerator // denominator,
        size=zero_fracket_size(pair),
        shortcut=tuple(gcd_entries(num) if q.is_cyclic else None for num, q in zip(nums, quots)),
    )
