import random
from itertools import count, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chipfire import refdata, verification
from chipfire.duality import (
    duality,
    duality_inverse,
    duality_rows,
    duality_table,
    fixed_points,
    involution_mu,
    mu_case,
    nonzero_criteria,
    predicted_fixed_point_count,
)
from chipfire.fixtures import DIAMOND_L, DIAMOND_M
from chipfire.frackets import fracket_key, fracket_partition
from chipfire.lattices import walk_class_reps
from chipfire.linalg import identity, mat_vec, vec_sub
from chipfire.mmatrix import MMatrix
from chipfire.pairs import ChipFiringPair


def test_mu_table(diamond):
    for s, (image, case) in refdata.MU_TABLE.items():
        assert mu_case(diamond, s) == case
        assert involution_mu(diamond, s) == image


def test_mu_is_an_involution(diamond):
    for s in refdata.MU_TABLE:
        assert involution_mu(diamond, involution_mu(diamond, s)) == s


def test_mu_rejects_non_superstable(diamond):
    with pytest.raises(ValueError):
        involution_mu(diamond, (5, 5, 5))


def test_worked_example(diamond):
    assert duality(diamond, refdata.WORKED_DUALITY_INPUT) == refdata.WORKED_DUALITY_OUTPUT
    src, dst = refdata.WORKED_DUALITY_CONFIGS
    assert diamond.to_config(refdata.WORKED_DUALITY_INPUT) == src
    assert diamond.to_config(refdata.WORKED_DUALITY_OUTPUT) == dst


def test_duality_bijection_and_inverse(diamond):
    rows = diamond.enumerate_pair_superstables()
    crit_pre = {r.preimage for r in diamond.enumerate_pair_criticals()}
    images = set()
    for r in rows:
        y = duality(diamond, r.preimage)
        assert duality_inverse(diamond, y) == r.preimage
        images.add(y)
    assert images == crit_pre


def test_point_formulas_reject_non_members(diamond):
    sup_pre = {r.preimage for r in diamond.enumerate_pair_superstables()}
    crit_pre = {r.preimage for r in diamond.enumerate_pair_criticals()}
    critical = min(crit_pre - sup_pre)
    superstable = min(sup_pre - crit_pre)
    for x in (critical, (-1, 0, 0), (0.5, 0, 0)):
        with pytest.raises(ValueError, match="^not a superstable preimage$"):
            duality(diamond, x)
    for y in (superstable, (-1, 0, 0), (0.5, 0, 0)):
        with pytest.raises(ValueError, match="^not a critical preimage$"):
            duality_inverse(diamond, y)
    # a float entry is neither an int nor a rational
    with pytest.raises(ValueError, match="^not a member of R\\+$"):
        diamond.to_config((0.5, 0, 0))


def test_duality_table_matches_masked_reference(diamond):
    table = duality_table(diamond)
    got = {tuple(row["config"]): tuple(row["dual_config"]) for row in table}
    assert got == refdata.MASKED_DUALITY
    # the printed alignment differs on exactly four rows
    diff = {c for c in got if got[c] != refdata.PRINTED_DUALITY[c]}
    assert diff == {(0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0)}


def test_fixed_points(diamond):
    assert fixed_points(diamond) == refdata.FIXED_POINTS
    assert predicted_fixed_point_count(diamond) == 4


def test_nonzero_criteria_fields(diamond):
    crit = nonzero_criteria(diamond)
    assert crit["quotient"].invariant_factors == refdata.M_QUOTIENT_FACTORS
    assert crit["cmax_order"] == 1
    assert crit["odd_order_guarantee"] is True
    assert crit["cyclic_even_criterion"] is None


def test_cyclic_even_criterion_both_ways():
    # ord([c_max]) is even in both; the criterion decides emptiness exactly
    empty = ChipFiringPair(((-4, -2), (4, -3)), ((3, -1), (-2, 2)))
    crit = nonzero_criteria(empty)
    assert crit["cyclic_even_criterion"] is False
    assert fixed_points(empty) == ()

    full = ChipFiringPair(
        ((-2, 4, -4), (3, 4, 2), (2, 2, 2)),
        ((5, -1, 0), (0, 5, -1), (-2, -1, 3)),
    )
    crit = nonzero_criteria(full)
    assert crit["cyclic_even_criterion"] is True
    assert len(fixed_points(full)) == 2


def test_equal_pair_duality_is_complement():
    m = MMatrix(DIAMOND_M)
    pair = ChipFiringPair(DIAMOND_M, m)
    for s in m.superstables():
        assert involution_mu(pair, s) == s
        assert duality(pair, s) == vec_sub(m.c_max, s)


def test_naive_complement_really_fails(diamond):
    gap = vec_sub(refdata.NAIVE_MAP_CRITICAL, refdata.NAIVE_MAP_SUPERSTABLE)
    assert gap == refdata.NAIVE_MAP_DIFFERENCE
    # the difference is critical on its own, the subtraction just leaves the class
    assert diamond.classify(gap).is_critical
    assert diamond.class_id(gap) != diamond.class_id(refdata.NAIVE_MAP_CRITICAL)


def _random_pair(seed, equal):
    """A pair from the acceptance suite's generators, or (M, M) when equal."""
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    m = verification._random_m_matrix(rng, n)
    return ChipFiringPair(m.m, m) if equal else verification._random_pair(rng, n, m)


def _fixed_points_oracle(pair):
    """The fixed points as mu's identity case at every superstable of M."""
    return tuple(s for s in pair.m.superstables() if mu_case(pair, s) == "identity")


def _duality_rows_oracle(pair):
    """duality_rows from mu at every floor and a lookup for every row."""
    c_max = pair.m.c_max
    criticals = {(r.floor, r.frac_num): r for r in pair.enumerate_pair_criticals()}
    return [(r, mu_case(pair, r.floor),
             criticals[(vec_sub(c_max, involution_mu(pair, r.floor)), r.frac_num)])
            for r in pair.enumerate_pair_superstables()]


# seeds 5 and 20 give pairs with no fixed point (20 with no order criterion
# deciding it), and seed 5 with equal=True gives an all-fixed (M, M) pair
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), equal=st.booleans())
@example(seed=5, equal=False)
@example(seed=20, equal=False)
@example(seed=5, equal=True)
def test_fixed_points_match_mu_at_every_superstable(seed, equal):
    pair = _random_pair(seed, equal)
    fps = fixed_points(pair)
    assert fps == _fixed_points_oracle(_random_pair(seed, equal))
    # the walk stabilizes the fixed classes only
    assert len(pair.m._crit_by_class) == len(fps)
    if equal:
        assert fps == pair.m.superstables()
    # mu's identity case is the integrality of L M^-1 (2s - c_max)
    for s in pair.m.superstables():
        shift = [2 * q - c for q, c in zip(s, pair.m.c_max)]
        integral = not any(q % pair.det_m for q in mat_vec(pair.n_lm, shift))
        assert (s in fps) == integral


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), equal=st.booleans())
@example(seed=5, equal=False)
@example(seed=5, equal=True)
def test_duality_rows_match_mu_at_every_floor(seed, equal):
    assert duality_rows(_random_pair(seed, equal)) == _duality_rows_oracle(
        _random_pair(seed, equal))


def _fracket_oracle(pair, side):
    """{key: class ids} from fracket_key at the representative U r of
    every class id r, the ids in lex order."""
    dec = pair.l_snf if side == "L" else pair.m.snf
    by_key = {}
    for r in product(*(range(dec.D[i][i]) for i in range(pair.n))):
        by_key.setdefault(fracket_key(pair, side, mat_vec(dec.U, r)), []).append(r)
    return {key: tuple(ids) for key, ids in by_key.items()}


# seed 5 gives det L = -11, and equal=True the pair (M, M)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), equal=st.booleans())
@example(seed=5, equal=False)
@example(seed=5, equal=True)
def test_integer_tables_match_their_rational_oracles(seed, equal):
    pair = _random_pair(seed, equal)
    for side, det in (("L", pair.det_l), ("M", pair.det_m)):
        part = fracket_partition(pair, side)
        oracle = _fracket_oracle(pair, side)
        assert part.keys == tuple(sorted(oracle))
        assert part.by_key == oracle and tuple(part.by_key) == part.keys
        assert part.fracket_count * part.fracket_size == abs(det)
    table = duality_table(pair)
    rows = duality_rows(pair)
    assert len(table) == len(rows)
    for record, (s, case, c) in zip(table, rows):
        assert record == {"config": s.config, "preimage": s.preimage, "mu_case": case,
                          "dual_config": c.config, "dual_preimage": c.preimage}


def _signed_pair(seed, equal, negate):
    """_random_pair, with L's first row negated when negate (det L < 0
    whenever det L > 0 before)."""
    pair = _random_pair(seed, equal)
    if not negate:
        return pair
    return ChipFiringPair((tuple(-x for x in pair.l[0]),) + pair.l[1:], pair.m.m)


# seed 6 with negate=True gives det L = -15, seed 20 no fixed point, and
# seed 5 with equal=True the pair (M, M)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), equal=st.booleans(), negate=st.booleans())
@example(seed=6, equal=False, negate=True)
@example(seed=20, equal=False, negate=False)
@example(seed=5, equal=True, negate=False)
def test_quotient_facts_match_brute_force(seed, equal, negate):
    pair = _signed_pair(seed, equal, negate)
    c_max = pair.m.c_max
    # the order of [c_max] in K(M)/F0_M: the least k with n_lm (k c_max) = 0 mod det M
    order = next(k for k in count(1)
                 if not any(q % pair.det_m for q in mat_vec(pair.n_lm, [k * c for c in c_max])))
    assert nonzero_criteria(pair)["cmax_order"] == order
    assert fixed_points(pair) == _fixed_points_oracle(_signed_pair(seed, equal, negate))
    for side, dec in (("L", pair.l_snf), ("M", pair.m.snf)):
        zero = tuple(rep for rep in walk_class_reps(dec, identity(pair.n))
                     if not any(fracket_key(pair, side, rep)))
        # F0 is the partition's first fracket, with U r representing class id r
        assert tuple(mat_vec(dec.U, r) for r in fracket_partition(pair, side).groups[0]) == zero


def test_duality_rows_from_cached_and_rebuilt_rows():
    pair = ChipFiringPair(DIAMOND_L, DIAMOND_M)
    first = duality_rows(pair)
    # both kinds of rows are cached with the class tables their positions read
    assert set(pair.rows.kinds) == {"superstable", "critical"}
    assert duality_rows(pair) == first
    # with the row cache dropped, a later call walks the classes again
    del pair.rows
    assert duality_rows(pair) == first
    assert first == _duality_rows_oracle(ChipFiringPair(DIAMOND_L, DIAMOND_M))


def test_duality_rows_raise_when_the_duals_miss_a_critical():
    # reversed critical rows give the dual-case rows the criticals of other
    # classes of L, and the diamond's 8 identity rows build their duals
    # themselves, so some critical is repeated and another missed
    pair = ChipFiringPair(DIAMOND_L, DIAMOND_M)
    rows, floors = pair.rows.walk("critical")
    pair.rows.kinds["critical"] = rows[::-1], floors
    with pytest.raises(RuntimeError, match="^the duals are not the critical configurations$"):
        duality_rows(pair)
