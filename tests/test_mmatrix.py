import math
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chipfire import refdata
from chipfire.fixtures import DIAMOND_M
from chipfire.linalg import mat_vec, vec_sub
from chipfire.mmatrix import MMatrix, burning_script, is_m_matrix

# z-candidates the box oracle below may scan for one matrix; draws above it
# (near-singular matrices with huge inverses) would take minutes each
ORACLE_BUDGET = 20_000


@st.composite
def m_matrices(draw, n_max=3):
    n = draw(st.integers(1, n_max))
    grid = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                grid[i][j] = -draw(st.integers(0, 2))
    for j in range(n):
        slack = draw(st.integers(1, 3))
        grid[j][j] = sum(-grid[i][j] for i in range(n) if i != j) + slack
    return MMatrix(tuple(tuple(r) for r in grid))


@st.composite
def general_m_matrices(draw, n_max=3):
    """Any sign-valid grid that is an M-matrix, so rows and columns may
    both have negative sums; rejection-sampled with is_m_matrix."""
    n = draw(st.integers(1, n_max))
    grid = tuple(
        tuple(draw(st.integers(1, 4)) if i == j else -draw(st.integers(0, 2)) for j in range(n))
        for i in range(n)
    )
    assume(is_m_matrix(grid))
    return grid


def widened_box(m):
    return product(*(range(m.m[i][i] + 2) for i in range(m.n)))


def box_oracle(m, s):
    """The definition, searched over 0 <= z <= floor(M^-1 s): every z >= 0
    with s - Mz >= 0 lies there because M^-1 >= 0."""
    bound = [math.floor(q) for q in mat_vec(m.inverse, s)]
    for z in product(*(range(b + 1) for b in bound)):
        if any(z) and all(q >= 0 for q in vec_sub(s, mat_vec(m.m, z))):
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(general_m_matrices())
@example(((1, -2), (0, 1)))
@example(((2, -1, 0), (-2, 2, -1), (0, -2, 3)))
def test_z_superstable_matches_box_oracle_on_general_m_matrices(grid):
    m = MMatrix(grid)
    cost = sum(math.prod(math.floor(q) + 1 for q in mat_vec(m.inverse, s))
               for s in widened_box(m))
    assume(cost <= ORACLE_BUDGET)
    for s in widened_box(m):
        assert m.is_z_superstable(s) == box_oracle(m, s), s
    assert len(m.superstables()) == abs(m.det)
    # superstable implies stable (take z = e_i), so the stable box holds them all
    stable_box = product(*(range(m.m[i][i]) for i in range(m.n)))
    assert set(m.superstables()) == {s for s in stable_box if box_oracle(m, s)}


@settings(max_examples=60, deadline=None)
@given(general_m_matrices())
@example(((1, -2), (0, 1)))
def test_burning_vector_is_least(grid):
    m = MMatrix(grid)
    z = burning_script(m.m)
    assert all(b >= 1 for b in mat_vec(m.m, z))
    # every w >= 0 with Mw >= 1 dominates z.  That set is closed under
    # entrywise min, so a w that does not would give min(w, z) < z, which
    # lies in this box
    for w in product(*(range(x + 2) for x in z)):
        if all(b >= 1 for b in mat_vec(m.m, w)):
            assert all(a >= b for a, b in zip(w, z)), w


@settings(max_examples=100, deadline=None)
@given(general_m_matrices(n_max=4), st.lists(st.integers(-200, 200), min_size=4, max_size=4))
@example(((1, -2), (0, 1)), [150, -7, 0, 0])
@example(((2, -1, 0), (-2, 2, -1), (0, -2, 3)), [-200, 200, 31, 0])
def test_stabilization_start_gives_the_burning_critical(grid, entries):
    # crit_of_class starts from c0 = v - M ceil(M^-1 (v - c_max)); the
    # definition stabilizes v + k b for the burning vector b and the least
    # k >= 0 with v + k b >= c_max
    m = MMatrix(grid)
    burning = mat_vec(m.m, burning_script(m.m))
    v = tuple(entries[: m.n])
    k = max(0, *(-((x - top) // b) for x, top, b in zip(v, m.c_max, burning)))
    assert m.crit_of_class(v) == m.stabilize(x + k * b for x, b in zip(v, burning))


def test_burning_vector_of_complete_graph_is_all_ones():
    k6 = tuple(tuple(5 if i == j else -1 for j in range(5)) for i in range(5))
    m = MMatrix(k6)
    assert burning_script(m.m) == (1,) * 5
    assert mat_vec(m.m, burning_script(m.m)) == (1,) * 5


def test_is_m_matrix():
    assert is_m_matrix(((2, -1), (-1, 2)))
    assert not is_m_matrix(((1, -5), (-5, 1)))
    assert not is_m_matrix(((2, 1), (1, 2)))
    assert not is_m_matrix(((0, 0), (0, 0)))


def test_reference_m_matrix_tables():
    m = MMatrix(DIAMOND_M)
    assert m.det == 8
    assert m.c_max == (2, 1, 2)
    assert tuple(m.superstables()) == refdata.M_SUPERSTABLES
    assert tuple(m.criticals()) == refdata.M_CRITICALS
    for s, c in zip(refdata.M_SUPERSTABLES, refdata.M_CRITICALS):
        assert m.classical_dual(s) == c


def test_fire_moves_chips():
    m = MMatrix(DIAMOND_M)
    c = (3, 0, 0)
    fired = m.fire(c, 0)
    assert fired == vec_sub(c, mat_vec(m.m, (1, 0, 0)))
    assert not m.is_stable(c)
    assert m.is_stable(fired)


@settings(max_examples=40, deadline=None)
@given(m_matrices(), st.lists(st.integers(-20, 20), min_size=3, max_size=3))
def test_superstable_count_and_classes(m, draw):
    ss = m.superstables()
    assert len(ss) == abs(m.det)
    assert len({m.class_id(s) for s in ss}) == len(ss)
    for s in ss:
        assert m.sstab_of_class(s) == s
    # class lookups accept vectors with negative entries
    v = tuple(draw[: m.n - 1]) + (-1 - abs(draw[-1]),)
    crit = m.crit_of_class(v)
    assert crit in m.criticals()
    assert m.class_id(crit) == m.class_id(v)
    sstab = m.sstab_of_class(v)
    assert sstab in ss
    assert m.class_id(sstab) == m.class_id(v)


@settings(max_examples=25, deadline=None)
@given(m_matrices(), st.randoms(use_true_random=False))
def test_stabilize_schedule_independent(m, rng):
    c = tuple(rng.randint(0, m.m[i][i] + 2) for i in range(m.n))
    ordered = m.stabilize(c)
    chaotic = c
    while True:
        ready = [i for i in range(m.n) if chaotic[i] >= m.m[i][i]]
        if not ready:
            break
        chaotic = m.fire(chaotic, rng.choice(ready))
    assert ordered == chaotic
    assert m.is_stable(ordered)


@settings(max_examples=25, deadline=None)
@given(m_matrices(n_max=2))
def test_z_superstable_against_brute_force(m):
    # brute definition: no nonzero z >= 0 keeps s - M z nonnegative.
    # column dominance is strict, so each unit of z burns at least one
    # chip in total and sum(s) bounds every coordinate of a witness.
    for s in product(*(range(m.m[i][i]) for i in range(m.n))):
        cap = sum(s)
        brute = True
        for z in product(range(cap + 1), repeat=m.n):
            if not any(z):
                continue
            if all(q >= 0 for q in vec_sub(s, mat_vec(m.m, z))):
                brute = False
                break
        assert m.is_z_superstable(s) == brute


def test_z_superstable_rejects_negative():
    m = MMatrix(DIAMOND_M)
    with pytest.raises(ValueError):
        m.is_z_superstable((-1, 0, 0))


def test_criticals_are_stable_and_dual():
    m = MMatrix(DIAMOND_M)
    for c in m.criticals():
        assert m.is_stable(c)
        assert m.crit_of_class(c) == c
    # duality is a bijection between the two tables
    assert {m.classical_dual(s) for s in m.superstables()} == set(m.criticals())
