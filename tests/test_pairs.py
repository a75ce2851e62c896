import math
import re
from fractions import Fraction

import pytest
import sympy

from chipfire import lattices, refdata
from chipfire.fixtures import DIAMOND_L, DIAMOND_M, diamond_pair
from chipfire.frackets import fracket_partition, zero_fracket
from chipfire.lattices import EnumerationCapExceeded
from chipfire.linalg import identity, mat_over, mat_vec, vec_add
from chipfire.mmatrix import MMatrix
from chipfire.pairs import ChipFiringPair
from chipfire.sgraph import orbit_sweep, scan_critical_groups, sweep


def frac_part(v):
    """{v} = v - floor(v) entrywise: a Fraction oracle independent of the
    integer numerators the package computes with."""
    return tuple(q - math.floor(q) for q in v)


def _rational(matrix):
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in row) for row in matrix.tolist())


def _assert_transfers_match_sympy(pair):
    l, m = sympy.Matrix(pair.l), sympy.Matrix(pair.m.m)
    assert pair.det_l == l.det() and pair.det_m == m.det()
    assert mat_over(pair.n_lm, pair.det_m) == _rational(l * m.inv())
    assert mat_over(pair.n_ml, pair.den_l) == _rational(m * l.inv())


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
    ]
    for side, det in (("L", 12), ("M", 8)):
        walks.append((det, lambda pair, side=side: fracket_partition(pair, side)))
        walks.append((det, lambda pair, side=side: zero_fracket(pair, side)))
    for det, walk in walks:
        with pytest.raises(EnumerationCapExceeded, match=f"^{det} classes exceeds cap 3$"):
            walk(diamond_pair())
    monkeypatch.setattr(lattices, "DEFAULT_ENUMERATION_CAP", 12)
    pair = diamond_pair()
    assert len(pair.enumerate_pair_superstables()) == 12
    assert len(pair.enumerate_pair_criticals()) == 12


def test_transfer_roundtrip(diamond):
    for r in diamond.enumerate_pair_superstables():
        assert diamond.to_preimage(r.config) == r.preimage
        assert diamond.to_config(r.preimage) == r.config
        assert frac_part(r.preimage) == r.frac


def test_membership_predicates(diamond):
    rows = diamond.enumerate_pair_superstables()
    for r in rows:
        assert diamond.splus_member(r.config)
        assert diamond.rplus_member(r.preimage)
    assert not diamond.rplus_member((Fraction(1, 2), 0, 0))
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


def test_stabilize_rplus(diamond):
    # M (1,1,1) = (1,0,1) keeps the bumped point inside R+
    bump = mat_vec(diamond.m.m, (1, 1, 1))
    for r in diamond.enumerate_pair_superstables()[:4]:
        bumped = vec_add(r.preimage, bump)
        settled = diamond.stabilize_rplus(bumped)
        assert diamond.rplus_member(settled)
        assert all(not diamond.ready_to_fire(settled, i) for i in range(diamond.n))
        assert diamond.class_id(diamond.to_config(settled)) == diamond.class_id(r.config)


def test_rplus_rejects_negative(diamond):
    with pytest.raises(ValueError):
        diamond.stabilize_rplus(vec_add(diamond.m_column(0), (0, 0, 0)))


def test_stabilize_splus(diamond):
    rows = diamond.enumerate_pair_superstables()
    cfg = vec_add(rows[0].config, mat_vec(diamond.l, (1, 1, 1)))
    settled = diamond.stabilize_splus(cfg)
    assert diamond.class_id(settled) == diamond.class_id(rows[0].config)


def test_identity_pair_degenerates_to_mmatrix():
    m = MMatrix(DIAMOND_M)
    pair = ChipFiringPair(identity(3), m)
    assert pair.ml_inv == m.m
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
