import math
import random
import re
from fractions import Fraction
from itertools import repeat

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chipfire import lattices, refdata, verification
from chipfire.duality import fixed_points
from chipfire.fixtures import DIAMOND_L, DIAMOND_M, diamond_pair
from chipfire.frackets import fracket_key, fracket_partition
from chipfire.lattices import EnumerationCapExceeded
from chipfire.linalg import identity, mat_vec, over, vec_add
from chipfire.mmatrix import MMatrix
from chipfire.pairs import ChipFiringPair
from chipfire.rows import PairRow, RowFields
from chipfire.sgraph import family, orbit_sweep, reduced_laplacians, scan_critical_groups, sweep


def frac_part(v):
    """{v} = v - floor(v) entrywise: a Fraction oracle independent of the
    integer numerators the package computes with."""
    return tuple(q - math.floor(q) for q in v)


def _rational(matrix):
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in row) for row in matrix.tolist())


def _mat_over(num, den):
    return tuple(over(row, den) for row in num)


def _transfers(pair):
    """(L M^-1, M L^-1) as Fraction matrices from sympy."""
    l, m = sympy.Matrix(pair.l), sympy.Matrix(pair.m.m)
    return _rational(l * m.inv()), _rational(m * l.inv())


def _assert_transfers_match_sympy(pair):
    assert pair.det_l == sympy.Matrix(pair.l).det() and pair.det_m == sympy.Matrix(pair.m.m).det()
    assert (_mat_over(pair.n_lm, pair.det_m), _mat_over(pair.n_ml, pair.den_l)) == _transfers(pair)


def test_transfers_match_sympy_on_every_k5_pattern():
    # n_lm / det M and n_ml / |det L| are L M^-1 and M L^-1 on all 64 signings
    for _, pair in sweep("complete", 5):
        _assert_transfers_match_sympy(pair)


def test_negative_det_l_keeps_a_positive_denominator():
    pair = ChipFiringPair(((4, 4), (0, -4)), ((2, -1), (-1, 4)))
    assert pair.det_l == -16 and pair.den_l == 16
    _assert_transfers_match_sympy(pair)
    rows = pair.enumerate_pair_superstables()
    assert len(rows) == 16
    for r in rows:
        assert pair.to_preimage(r.config) == r.preimage
        assert pair.to_config(r.preimage) == r.config
        assert all(0 <= f < 1 for f in r.frac)


def test_reference_enumeration(diamond):
    got = [(r.config, r.preimage, r.floor) for r in diamond.enumerate_pair_superstables()]
    assert got == [(c, p, f) for c, p, f in refdata.PAIR_SUPERSTABLE_ROWS]
    # the critical reference rows are aligned per class, ours sort by config
    got = [(r.config, r.preimage, r.floor) for r in diamond.enumerate_pair_criticals()]
    assert got == sorted((c, p, f) for c, p, f in refdata.PAIR_CRITICAL_ROWS)


def test_row_counts_match_det(diamond):
    assert len(diamond.enumerate_pair_superstables()) == abs(diamond.det_l) == 12
    assert diamond.det_m == 8


def test_one_budget_reaches_every_class_walk(monkeypatch):
    # the diamond has |det L| = 12 and |det M| = 8: a budget of 3 stops every
    # class walk of a fresh pair, and a budget of 12 lets the L walk through
    monkeypatch.setattr(lattices, "DEFAULT_ENUMERATION_CAP", 3)
    walks = [
        (12, lambda pair: pair.enumerate_pair_superstables()),
        (12, lambda pair: pair.enumerate_pair_criticals()),
        (8, lambda pair: pair.m.superstables()),
        (8, fixed_points),
    ]
    for side, det in (("L", 12), ("M", 8)):
        walks.append((det, lambda pair, side=side: fracket_partition(pair, side)))
    for det, walk in walks:
        with pytest.raises(EnumerationCapExceeded, match=f"^{det} classes exceeds cap 3$"):
            walk(diamond_pair())
    monkeypatch.setattr(lattices, "DEFAULT_ENUMERATION_CAP", 12)
    pair = diamond_pair()
    assert len(pair.enumerate_pair_superstables()) == 12
    assert len(pair.enumerate_pair_criticals()) == 12


def _random_pair(seed, equal, flip):
    """A pair from the acceptance suite's generators, or (M, M) when
    equal; flip negates the first row of L, and with it det L."""
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    m = verification._random_m_matrix(rng, n)
    grid = m.m if equal else verification._random_pair(rng, n, m).l
    if flip:
        grid = (tuple(-x for x in grid[0]),) + tuple(grid[1:])
    return ChipFiringPair(grid, m)


def _rows_oracle(pair, kind):
    """The kind's rows, one per class of L in the order of the class walk,
    from Fractions: for each class representative c = U_L r of L,
    x = M L^-1 c, M's superstable or critical of floor(x)'s class plus
    {x}, and L M^-1 of that.  The two kinds' rows at one position lie in
    one class of L."""
    lookup = pair.m.sstab_of_class if kind == "superstable" else pair.m.crit_of_class
    d = pair.den_l
    lm_inv, ml_inv = _transfers(pair)
    rows = []
    for c in lattices.walk_class_reps(pair.l_snf, identity(pair.n)):
        x = mat_vec(ml_inv, c)
        fl = tuple(math.floor(q) for q in x)
        fr = frac_part(x)
        base = lookup(fl)
        config = mat_vec(lm_inv, vec_add(base, fr))
        assert all(q.denominator == 1 for q in config)
        rows.append(PairRow(tuple(map(int, config)), base, tuple(int(q * d) for q in fr), d))
    return rows


def _decoded(pair, kind):
    """The kind's packed rows in group order, each decoded to a PairRow,
    after checking that a row's low part is its position."""
    rows, _ = pair.rows.walk(kind)
    assert [row % pair.den_l for row in rows] == list(range(pair.den_l))
    return list(map(PairRow, *RowFields(pair.rows, kind).columns(rows), repeat(pair.den_l)))


# seed 5 with flip=True gives det L < 0, and with equal=True as well the
# pair (M, M) with L's first row negated, whose configurations have
# negative entries
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), equal=st.booleans(), flip=st.booleans())
@example(seed=5, equal=False, flip=False)
@example(seed=5, equal=False, flip=True)
@example(seed=5, equal=True, flip=False)
@example(seed=5, equal=True, flip=True)
def test_walk_rows_match_a_fraction_oracle(seed, equal, flip):
    # the packed rows, decoded, pair the superstable and the critical of
    # each class of L as the rows built from rational preimages do, on a
    # fresh pair with its own M; the class tables stay, since the
    # positions read them
    pair = _random_pair(seed, equal, flip)
    rows = sorted(zip(_decoded(pair, "superstable"), _decoded(pair, "critical")))
    oracle = _random_pair(seed, equal, flip)
    assert rows == sorted(zip(_rows_oracle(oracle, "superstable"), _rows_oracle(oracle, "critical")))
    # the library rows are the same rows, sorted
    assert pair.enumerate_pair_superstables() == tuple(sorted(s for s, _ in rows))
    assert pair.enumerate_pair_criticals() == tuple(sorted(c for _, c in rows))


def test_the_oracle_examples_cover_negative_determinants_and_entries():
    pair = _random_pair(5, True, True)
    assert pair.det_l < 0 and pair.l != pair.m.m
    assert min(min(r.config) for r in pair.enumerate_pair_superstables()) < 0
    assert _random_pair(5, True, False).l == _random_pair(5, True, False).m.m


def test_a_configuration_outside_the_box_raises():
    # the box holds every configuration whose preimage lies in
    # 0 <= x < c_max + 1: one past either end of an entry does not pack
    pair = _random_pair(5, True, True)
    box = pair.rows.box
    configs = [r.config for r in pair.enumerate_pair_criticals()]
    assert all(box.unpack(box.pack(c)) == c for c in configs)
    highs = tuple(lo + size - 1 for lo, size in zip(box.lows, box.sizes))
    for i in range(pair.n):
        for bad in (box.lows[i] - 1, highs[i] + 1):
            with pytest.raises(RuntimeError, match="the vector lies in the packing box"):
                box.pack(box.lows[:i] + (bad,) + box.lows[i + 1:])


def test_superstable_rows_build_no_critical_row():
    # K6 pattern 691: 2048 rows, and |det L| >= det M, so M fills its
    # table of criticals for all 1296 of its classes by one walk (the
    # superstables of the floors reach 1104 of them)
    pair = reduced_laplacians(family("complete", 6, 691))
    assert len(pair.enumerate_pair_superstables()) == 2048
    assert "critical" not in pair.rows.kinds
    assert len(pair.m._crit_by_class) == 1296


def _count_stabilizations(monkeypatch, m):
    """A list that grows by one entry per call of m.stabilize."""
    calls, stabilize = [], m.stabilize

    def counted(c):
        calls.append(None)
        return stabilize(c)

    monkeypatch.setattr(m, "stabilize", counted)
    return calls


@pytest.mark.parametrize("kind", ["superstable", "critical"])
def test_rows_fill_every_class_of_m_by_one_walk(monkeypatch, kind):
    # K6 pattern 691: |det L| = 2048 >= det M = 1296, so the first sweep
    # walks K(M), d = (1, 6, 6, 6, 6): one stabilization per class plus
    # one per moving digit, and none more for the rows
    pair = reduced_laplacians(family("complete", 6, 691))
    calls = _count_stabilizations(monkeypatch, pair.m)
    pair.rows.walk(kind)
    assert len(pair.m._crit_by_class) == 1296
    assert len(calls) == 1296 + 4


def test_large_m_pair_stabilizes_one_class(monkeypatch):
    # |det L| = 1 < det M = 8,999,999: the one row's class of M is a miss
    pair = ChipFiringPair(identity(2), ((3000, -1), (-1, 3000)))
    calls = _count_stabilizations(monkeypatch, pair.m)
    assert [r.config for r in pair.enumerate_pair_superstables()] == [(0, 0)]
    assert len(calls) == 1 and len(pair.m._crit_by_class) == 1


def _next_class_criticals(monkeypatch, pair):
    """Tamper: M's table answers each class id with the critical of the next
    one, a stable configuration in the wrong class."""
    m, lookup = pair.m, pair.m.packed_critical
    monkeypatch.setattr(m, "packed_critical", lambda i: lookup((i + 1) % m.det))


def _shift_stabilized(shift):
    """Tamper: M's stabilizer, so each critical it finds, moved by the vector shift."""
    def tamper(monkeypatch, pair):
        stabilize = pair.m.stabilize
        monkeypatch.setattr(pair.m, "stabilize", lambda c: vec_add(stabilize(c), shift))
    return tamper


def _repeat_first_class(monkeypatch, pair):
    """Tamper: the class walk visits its first class twice and skips its last."""
    walk = lattices.walk_class_reps

    def repeated(*args, **kwargs):
        reps = list(walk(*args, **kwargs))
        return iter(reps[:1] + reps[:-1])

    monkeypatch.setattr(lattices, "walk_class_reps", repeated)


@pytest.mark.parametrize("tamper, message", [
    # a critical of another class of M gives no integral configuration
    (_next_class_criticals, "gave no valid critical preimage"),
    # minus column 0 of M keeps the class and integrality, not the sign: a
    # negative base cannot enter M's table of criticals in radix c_max + 1
    (_shift_stabilized(tuple(-row[0] for row in DIAMOND_M)), "the vector lies in the packing box"),
    # plus column 0 keeps them too, and leaves 0 <= base <= c_max
    (_shift_stabilized(tuple(row[0] for row in DIAMOND_M)), "the vector lies in the packing box"),
    (_repeat_first_class, "critical rows are not |det L| distinct configurations"),
], ids=["integral", "nonnegative", "bounded", "distinct"])
def test_row_checks_raise(monkeypatch, tamper, message):
    pair = diamond_pair()
    tamper(monkeypatch, pair)
    with pytest.raises(RuntimeError, match=re.escape(message)):
        pair.enumerate_pair_criticals()


def test_transfer_roundtrip(diamond):
    for r in diamond.enumerate_pair_superstables():
        assert diamond.to_preimage(r.config) == r.preimage
        assert diamond.to_config(r.preimage) == r.config
        assert frac_part(r.preimage) == r.frac


def test_membership_predicates(diamond):
    rows = diamond.enumerate_pair_superstables()
    for r in rows:
        assert diamond.splus_member(r.config)
        assert diamond.rplus_numerators(r.preimage) is not None
    assert diamond.rplus_numerators((Fraction(1, 2), 0, 0)) is None
    with pytest.raises(ValueError):
        diamond.to_config((Fraction(1, 2), 0, 0))


def test_classify(diamond):
    ss = {r.config for r in diamond.enumerate_pair_superstables()}
    crit = {r.config for r in diamond.enumerate_pair_criticals()}
    for cfg in ss:
        verdict = diamond.classify(cfg)
        assert verdict.is_superstable
        assert verdict.is_critical == (cfg in crit)
    # the erratum case: both tables contain it, and classify agrees
    assert diamond.classify(refdata.NAIVE_MAP_DIFFERENCE).is_critical


def _stabilize_numerators(pair, p):
    """Stabilize the preimage numerators p: M's stabilizer on the floor,
    with the fractional part kept."""
    fl, fr = pair.split(p)
    return pair.join(pair.m.stabilize(fl), fr)


def test_stabilize_rplus(diamond):
    # M (1,1,1) = (1,0,1) keeps the bumped point inside R+
    bump = mat_vec(diamond.m.m, (1, 1, 1))
    d = diamond.den_l
    for r in diamond.enumerate_pair_superstables()[:4]:
        settled = _stabilize_numerators(diamond, diamond.rplus_numerators(vec_add(r.preimage, bump)))
        assert diamond.rplus_numerators(over(settled, d)) == settled
        # site i is ready iff subtracting column i of M keeps x >= 0
        assert all(any(q < d * m for q, m in zip(settled, col)) for col in zip(*diamond.m.m))
        assert diamond.class_id(diamond.config_of_numerators(settled)) == diamond.class_id(r.config)


def test_rplus_rejects_negative(diamond):
    column = tuple(row[0] for row in diamond.m.m)
    assert diamond.rplus_numerators(column) is None
    with pytest.raises(ValueError):
        diamond.m.stabilize(column)


def test_class_lookups_reject_non_integer_vectors():
    # a half-integer vector has no class of Z^n / A Z^n, so no lookup may
    # store a critical under a rational key in M's table
    pair = diamond_pair()
    v = (Fraction(1, 2), 0, 0)
    lookups = (pair.m.crit_of_class, pair.m.sstab_of_class, pair.m.is_z_superstable, pair.class_id,
               lambda x: fracket_key(pair, "L", x), lambda x: fracket_key(pair, "M", x))
    for lookup in lookups:
        with pytest.raises(ValueError, match="needs an integer vector"):
            lookup(v)
    assert pair.m._crit_by_class == {}


def test_stabilize_splus(diamond):
    rows = diamond.enumerate_pair_superstables()
    cfg = vec_add(rows[0].config, mat_vec(diamond.l, (1, 1, 1)))
    assert diamond.splus_member(cfg)
    settled = diamond.config_of_numerators(_stabilize_numerators(diamond, diamond.preimage_numerators(cfg)))
    assert diamond.class_id(settled) == diamond.class_id(rows[0].config)


def test_identity_pair_degenerates_to_mmatrix():
    m = MMatrix(DIAMOND_M)
    pair = ChipFiringPair(identity(3), m)
    assert _mat_over(pair.n_ml, pair.den_l) == m.m
    rows = pair.enumerate_pair_superstables()
    assert [r.config for r in rows] == [(0, 0, 0)]


def test_equal_pair_matches_classical_tables():
    m = MMatrix(DIAMOND_M)
    pair = ChipFiringPair(DIAMOND_M, m)
    assert [r.config for r in pair.enumerate_pair_superstables()] == list(m.superstables())
    assert [r.config for r in pair.enumerate_pair_criticals()] == sorted(m.criticals())
    for r in pair.enumerate_pair_superstables():
        assert r.preimage == r.config
        assert r.frac == (0, 0, 0)


def test_rejects_bad_l():
    m = MMatrix(DIAMOND_M)
    with pytest.raises(ValueError):
        ChipFiringPair(((1, 0, 0), (0, 1, 0), (1, 1, 0)), m)
    with pytest.raises(ValueError):
        ChipFiringPair(((Fraction(1, 2), 0, 0), (0, 1, 0), (0, 0, 1)), m)


def test_grid_or_instance_equivalent():
    a = ChipFiringPair(DIAMOND_L, DIAMOND_M)
    b = ChipFiringPair(DIAMOND_L, MMatrix(DIAMOND_M))
    assert a.l == b.l and a.m.m == b.m.m


LAZY = ("adj_l", "n_lm", "n_ml")


def test_critical_group_scan_builds_no_transfer():
    rows = orbit_sweep("complete", 6)
    scan_critical_groups(rows, 1024)
    assert all(not set(LAZY) & set(vars(pair)) for _, pair in rows)


def test_transfers_are_cached_after_the_first_read():
    pair = ChipFiringPair(DIAMOND_L, DIAMOND_M)
    first = pair.n_ml           # reads adj_l on the way
    assert {"adj_l", "n_ml"} <= set(vars(pair)) and "n_lm" not in vars(pair)
    assert pair.n_ml is first and vars(pair)["n_ml"] is first


def _bumped(grid):
    return ((grid[0][0] + 1,) + tuple(grid[0][1:]),) + tuple(grid[1:])


@pytest.mark.parametrize("tamper, read, check", [
    (lambda p: setattr(p.m, "adj", _bumped(p.m.adj)), "n_lm", "n_lm M = det M L"),
    (lambda p: setattr(p, "adj_l", _bumped(p.adj_l)), "n_ml", "n_ml L = |det L| M"),
    (lambda p: setattr(p, "l", _bumped(p.l)), "adj_l", "= det L"),
])
def test_lazy_transfers_keep_their_checks(tamper, read, check):
    # each identity runs when its matrix is first built, and raises
    pair = ChipFiringPair(DIAMOND_L, MMatrix(DIAMOND_M))
    tamper(pair)
    with pytest.raises(RuntimeError, match=re.escape(check)):
        getattr(pair, read)
