from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chipfire.linalg import (
    adjugate,
    flcm,
    gcd_entries,
    identity,
    mat_det,
    mat_from_json,
    mat_is_integral,
    mat_mul,
    mat_vec,
    over_json,
    parse_rational,
    vec_from_json,
    vec_is_integral,
    vec_scale,
    vec_sub,
)
from chipfire.pairs import ChipFiringPair

ints = st.integers(min_value=-50, max_value=50)


def square(n, elems=ints):
    return st.lists(st.lists(elems, min_size=n, max_size=n), min_size=n, max_size=n).map(
        lambda rows: tuple(tuple(r) for r in rows)
    )


def test_flcm_on_matrix_and_vector():
    # ((1/2, 3), (5/6, 1/4)) and (2/3, 1/2) over the common denominators 12 and 6
    assert flcm(((6, 36), (10, 3)), 12) == 12
    assert flcm((4, 3), 6) == 6
    assert flcm(((2, 4), (6, 8)), 2) == 1
    assert flcm(((0, 0), (0, 0)), 5) == 1


def test_gcd_entries():
    assert gcd_entries(((4, -6), (10, 0))) == 2
    with pytest.raises(ValueError):
        gcd_entries(((0, 0), (0, 0)))


@given(st.integers(-999, 999), st.integers(1, 999))
def test_rational_str_roundtrip(num, den):
    # over_json writes a whole rational as an int, which JSON keeps bare
    assert parse_rational(str(over_json((num,), den)[0])) == Fraction(num, den)


@given(st.integers(-10**30, 10**30), st.integers(1, 10**12))
@example(0, 1)
@example(-3, 6)
@example(4096, 2048)
def test_over_json_renders_like_the_rational(q, d):
    x = Fraction(q, d)
    assert over_json((q,), d) == [x.numerator if x.denominator == 1 else str(x)]


def test_json_roundtrip():
    assert vec_from_json(over_json((4, -3, 0), 4)) == (1, Fraction(-3, 4), 0)
    a = [over_json(row, 10) for row in ((5, 20), (-30, 14))]
    assert mat_from_json(a) == ((Fraction(1, 2), 2), (-3, Fraction(7, 5)))


@settings(max_examples=60)
@given(square(3))
def test_det_matches_sympy(a):
    assert mat_det(a) == sympy.Matrix(a).det()


@settings(max_examples=40)
@given(square(3, st.integers(-6, 6)))
def test_inverse_matches_sympy(a):
    det, adj = adjugate(a)
    if mat_det(a) == 0:
        assert (det, adj) == (0, None)
        return
    inv = tuple(tuple(Fraction(x, det) for x in row) for row in adj)
    expected = sympy.Matrix(a).inv()
    for i in range(3):
        for j in range(3):
            assert inv[i][j] == Fraction(*sympy.fraction(expected[i, j]))
    assert mat_mul(a, inv) == identity(3)


def with_pivot_trouble(a, kind):
    """a itself, a with a zero leading entry (row swaps), or a singular a
    (its last row replaced by the first, or zero for n = 1)."""
    rows = [list(r) for r in a]
    if kind == "zero-pivot":
        rows[0][0] = 0
    elif kind == "singular":
        rows[-1] = list(rows[0]) if len(rows) > 1 else [0]
    return tuple(tuple(r) for r in rows)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda n: square(n, st.integers(-6, 6))),
    st.sampled_from(("plain", "zero-pivot", "singular")),
)
@example(((0, 1), (1, 0)), "plain")
@example(((0, 0, 1), (0, 1, 0), (1, 0, 0)), "plain")
@example(((0, 2, 1), (0, 1, 3), (4, 0, 0)), "plain")
@example(((1, 2), (2, 4)), "plain")
@example(((1, 2, 3), (4, 5, 6), (7, 8, 9)), "plain")
def test_adjugate_matches_sympy(a, kind):
    a = with_pivot_trouble(a, kind)
    det, adj = adjugate(a)
    expected = sympy.Matrix(a)
    assert det == expected.det()
    if det == 0:
        # every caller rejects a singular matrix, so none gets an adjugate
        assert adj is None
        return
    assert adj == tuple(tuple(int(x) for x in row) for row in expected.adjugate().tolist())
    n = len(a)
    assert mat_mul(a, adj) == tuple(tuple(det * int(i == j) for j in range(n)) for i in range(n))


@settings(max_examples=40)
@given(square(2), square(2))
def test_mat_mul_matches_sympy(a, b):
    got = mat_mul(a, b)
    expected = sympy.Matrix(a) * sympy.Matrix(b)
    assert got == tuple(tuple(expected[i, j] for j in range(2)) for i in range(2))


@given(square(2), st.lists(ints, min_size=2, max_size=2))
def test_mat_vec_linear(a, xs):
    x = tuple(xs)
    assert mat_vec(a, vec_scale(3, x)) == vec_scale(3, mat_vec(a, x))
    assert vec_sub(mat_vec(a, x), mat_vec(a, x)) == (0, 0)


def test_integrality_predicates():
    assert vec_is_integral((1, -3))
    assert not vec_is_integral((1, Fraction(1, 3)))
    assert mat_is_integral(identity(2))
    assert not mat_is_integral(((Fraction(1, 2), 0), (0, 1)))


def test_singular_inverse_message():
    # adjugate gives (0, None) for a singular L; the pair reports it
    with pytest.raises(ValueError, match="invertible"):
        ChipFiringPair(((1, 2), (2, 4)), ((2, -1), (-1, 2)))
