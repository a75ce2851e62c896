import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chipfire import lattices, linalg, refdata, verification
from chipfire.fixtures import diamond_pair
from chipfire.frackets import (
    fracket_checks,
    fracket_key,
    fracket_partition,
    zero_fracket_quotient,
    zero_fracket_size,
)
from chipfire.lattices import class_id, lattice_intersection
from chipfire.linalg import gcd_entries, mat_det, mat_vec
from chipfire.pairs import ChipFiringPair


def frac_part(v):
    """{v} = v - floor(v) entrywise: a Fraction oracle independent of the
    integer numerators the package computes with."""
    return tuple(q - math.floor(q) for q in v)


def test_partition_keys(diamond):
    part_l = fracket_partition(diamond, "L")
    part_m = fracket_partition(diamond, "M")
    assert part_l.keys == refdata.L_FRACKET_KEYS
    assert part_m.keys == refdata.M_FRACKET_KEYS
    assert part_l.fracket_size == refdata.FRACKET_SIZE
    assert part_m.fracket_size == refdata.FRACKET_SIZE
    assert part_l.fracket_count * part_l.fracket_size == abs(diamond.det_l)
    assert part_m.fracket_count * part_m.fracket_size == abs(diamond.det_m)


def test_keys_are_transfer_fracs(diamond):
    part = fracket_partition(diamond, "L")
    for key in part.keys:
        for r in part.by_key[key]:
            rep = mat_vec(diamond.l_snf.U, r)
            assert frac_part(Fraction(q, diamond.den_l) for q in mat_vec(diamond.n_ml, rep)) == key
            assert fracket_key(diamond, "L", rep) == key


@pytest.mark.parametrize("side", ["L", "M"])
def test_partition_by_class_ids(diamond, c6_negative, side):
    # by_key names every class once by its canonical class id, and the
    # representative U r of id r carries the key it is filed under
    for pair in (diamond, c6_negative):
        dec = pair.l_snf if side == "L" else pair.m.snf
        det = pair.det_l if side == "L" else pair.det_m
        part = fracket_partition(pair, side)
        ids = [r for k in part.keys for r in part.by_key[k]]
        assert len(set(ids)) == len(ids) == abs(det)
        for key in part.keys:
            for r in part.by_key[key]:
                rep = mat_vec(dec.U, r)
                assert class_id(dec, rep) == r
                assert fracket_key(pair, side, rep) == key


def test_zero_fracket(diamond):
    # F0 is each partition's first fracket: the zero residue is the least key
    part_l, part_m = (fracket_partition(diamond, side) for side in ("L", "M"))
    assert not any(part_l.residues[0]) and not any(part_m.residues[0])
    assert len(part_l.groups[0]) == len(part_m.groups[0]) == refdata.ZERO_FRACKET_SIZE
    assert zero_fracket_size(diamond) == refdata.ZERO_FRACKET_SIZE
    assert zero_fracket_quotient(diamond, "L").invariant_factors == refdata.L_QUOTIENT_FACTORS
    assert zero_fracket_quotient(diamond, "M").invariant_factors == refdata.M_QUOTIENT_FACTORS
    # the tagged vector sits in the zero fracket of K(M) as a nonzero class,
    # while in K(L) it collapses to the identity
    tagged = refdata.ZERO_FRACKET_TAGGED_VECTOR
    assert fracket_key(diamond, "M", tagged) == (0, 0, 0)
    assert diamond.m.class_id(tagged) in part_m.groups[0]
    assert diamond.class_id(tagged) == diamond.class_id((0, 0, 0))


def test_largest_invariant_factor(diamond):
    checks = fracket_checks(diamond)
    assert checks.largest == checks.flcm == (refdata.FLCM_ML_INV, refdata.FLCM_LM_INV)


def test_size_formula(diamond):
    checks = fracket_checks(diamond)
    assert checks.predicted == checks.size == refdata.ZERO_FRACKET_SIZE
    assert gcd_entries(diamond.n_ml) == gcd_entries(diamond.n_lm) == refdata.SCALED_GCD


def test_cyclic_shortcut(diamond):
    checks = fracket_checks(diamond)
    assert checks.shortcut == (refdata.SCALED_GCD,) * 2
    assert checks.size == refdata.SCALED_GCD
    # the shortcut misses |F0| = 1 on both sides of L = [[-3]], M = [[2]]
    checks = fracket_checks(ChipFiringPair([[-3]], [[2]]))
    assert (checks.predicted, checks.size, checks.shortcut) == (1, 1, (2, 3))


def test_shortcut_none_when_not_cyclic():
    # K(L)/F0 = Z_4 x Z_4 and K(M)/F0 = Z_7: with p_L = 4 the size formula
    # predicts 4, and misses |F0| = 1, as does the shortcut on side M
    pair = ChipFiringPair(((4, 4), (0, -4)), ((2, -1), (-1, 4)))
    assert zero_fracket_quotient(pair, "L").invariant_factors == (4, 4)
    assert zero_fracket_quotient(pair, "M").invariant_factors == (7,)
    checks = fracket_checks(pair)
    assert checks.largest == checks.flcm
    assert (checks.predicted, checks.size, checks.shortcut) == (4, 1, (None, 4))


def test_equal_pair_has_single_fracket():
    from chipfire.fixtures import DIAMOND_M

    pair = ChipFiringPair(DIAMOND_M, DIAMOND_M)
    part = fracket_partition(pair, "M")
    assert part.keys == ((0, 0, 0),)
    assert part.fracket_size == abs(pair.det_m)
    assert fracket_checks(pair).shortcut[1] == abs(pair.det_m)


def test_bad_side_rejected(diamond):
    with pytest.raises((KeyError, ValueError)):
        fracket_partition(diamond, "X")
    with pytest.raises(ValueError, match="^side must be 'L' or 'M'$"):
        zero_fracket_quotient(diamond, "X")


def test_zero_fracket_quotient_takes_one_determinant(monkeypatch):
    # the pair build takes det L; |det Lambda| comes from the intersection
    # and det n_lm from det L and det M, so no further elimination runs
    real = linalg._det_bareiss
    calls = []
    monkeypatch.setattr(linalg, "_det_bareiss", lambda a: calls.append(a) or real(a))
    pair = diamond_pair()
    quotient = zero_fracket_quotient(pair, "L")
    assert len(calls) <= 1
    assert quotient.order == fracket_partition(pair, "L").fracket_count


def test_both_zero_fracket_quotients_take_one_smith_form(monkeypatch):
    pair = diamond_pair()
    real = lattices.snf
    calls = []
    monkeypatch.setattr(lattices, "snf", lambda a, det: calls.append(a) or real(a, det))
    quot_l = zero_fracket_quotient(pair, "L")
    quot_m = zero_fracket_quotient(pair, "M")
    assert len(calls) == 1
    assert quot_l.order == fracket_partition(pair, "L").fracket_count
    assert quot_m.order == fracket_partition(pair, "M").fracket_count


def _signed_random_pair(seed, equal, negate):
    """A pair from the acceptance suite's generators, or (M, M) when equal;
    negate flips the sign of L's first row, and with it det L."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    m = verification._random_m_matrix(rng, n)
    grid = m.m if equal else verification._random_pair(rng, n, m).l
    if negate:
        grid = (tuple(-x for x in grid[0]),) + tuple(grid[1:])
    return ChipFiringPair(grid, m)


# seed 25 with negate=True gives det L = -9 (K(M)/F0_M = Z_2 x Z_194), seed 30
# det L = -26 with |F0| = 2, and seed 5 with equal=True the pair (M, M)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), equal=st.booleans(), negate=st.booleans())
@example(seed=25, equal=False, negate=True)
@example(seed=30, equal=False, negate=True)
@example(seed=5, equal=True, negate=False)
@example(seed=5, equal=True, negate=True)
def test_zero_fracket_quotients_match_one_intersection_per_side(seed, equal, negate):
    # the two-call path: Lambda_L from the keymap L M^-1 = n_lm / det M and
    # Lambda_M from M L^-1 = n_ml / |det L|, each with its own Smith form
    pair = _signed_random_pair(seed, equal, negate)
    _, quot_l, _ = lattice_intersection(pair.n_lm, pair.det_m, mat_det(pair.n_lm))
    _, quot_m, _ = lattice_intersection(pair.n_ml, pair.den_l, mat_det(pair.n_ml))
    assert zero_fracket_quotient(pair, "L") == quot_l
    assert zero_fracket_quotient(pair, "M") == quot_m
    assert zero_fracket_size(pair) * quot_m.order == pair.det_m
