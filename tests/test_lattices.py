from itertools import product

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chipfire import lattices
from chipfire.lattices import (
    AbelianGroup,
    EnumerationCapExceeded,
    class_id,
    count_order_le2,
    element_order,
    lattice_basis_from_columns,
    lattice_intersection,
    quotient_group,
    snf,
    subgroup_invariant_factors,
    walk_class_reps,
)
from chipfire.linalg import (
    adjugate,
    identity,
    mat_det,
    mat_mul,
    mat_scale,
    mat_vec,
    vec_add,
    vec_is_integral,
)


def small_invertible(n, bound=4, det_cap=60):
    def ok(a):
        d = mat_det(a)
        return d != 0 and abs(d) <= det_cap

    return (
        st.lists(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
        .map(lambda rows: tuple(tuple(r) for r in rows))
        .filter(ok)
    )


def _snf(a):
    return snf(a, mat_det(a))


@settings(max_examples=40, deadline=None)
@given(small_invertible(3))
def test_snf_decomposition(a):
    dec = _snf(a)
    assert mat_mul(mat_mul(dec.Uinv, a), dec.Vinv) == dec.D
    assert mat_mul(dec.U, dec.Uinv) == identity(3)
    assert abs(mat_det(dec.U)) == 1
    assert abs(mat_det(dec.Vinv)) == 1
    diag = [dec.D[i][i] for i in range(3)]
    for i in range(3):
        for j in range(3):
            if i != j:
                assert dec.D[i][j] == 0
    for d, e in zip(diag, diag[1:]):
        assert e % d == 0
    expected = smith_normal_form(sympy.Matrix(a))
    assert diag == [abs(expected[i, i]) for i in range(3)]


@settings(max_examples=30, deadline=None)
@given(small_invertible(3))
def test_quotient_group_order(a):
    g = quotient_group(_snf(a))
    assert g.order == abs(mat_det(a))
    assert g.largest_factor == (g.invariant_factors[-1] if g.invariant_factors else 1)


@settings(max_examples=30, deadline=None)
@given(small_invertible(2, det_cap=30), st.lists(st.integers(-5, 5), min_size=2, max_size=2))
def test_class_id_invariant_under_lattice_shift(a, w):
    dec = _snf(a)
    v = (1, -2)
    shifted = vec_add(v, mat_vec(a, tuple(w)))
    assert class_id(dec, v) == class_id(dec, shifted)


@settings(max_examples=25, deadline=None)
@given(small_invertible(2, det_cap=24))
def test_enumerate_class_reps(a):
    dec = _snf(a)
    reps = list(walk_class_reps(dec))
    assert len(reps) == abs(mat_det(a))
    ids = {class_id(dec, r) for r in reps}
    assert len(ids) == len(reps)
    # the odometer walk gives U r over the residue box in lexicographic order
    box = product(*(range(dec.D[i][i]) for i in range(2)))
    assert reps == [mat_vec(dec.U, r) for r in box]
    images = [mat_vec(a, r) for r in reps]
    assert list(walk_class_reps(dec, image=a)) == images
    assert list(walk_class_reps(dec, image=a, with_rep=True)) == list(zip(reps, images))


@pytest.mark.parametrize("diag", [(1, 1, 1), (1, 2, 6), (2, 2, 4), (1, 1, 12)])
def test_enumerate_class_reps_odometer_in_three_dims(diag):
    # U A V = D for a unimodular U, V: the classes of A are those of D
    u = ((1, 2, 0), (0, 1, -3), (0, 0, 1))
    v = ((1, 0, 0), (5, 1, 0), (-2, 7, 1))
    d = tuple(tuple(x if i == j else 0 for j in range(3)) for i, x in enumerate(diag))
    a = mat_mul(mat_mul(u, d), v)
    dec = _snf(a)
    box = product(*(range(dec.D[i][i]) for i in range(3)))
    assert list(walk_class_reps(dec)) == [mat_vec(dec.U, r) for r in box]


def test_enumeration_cap(monkeypatch):
    # the walk reads the one budget when it is called, before any class
    monkeypatch.setattr(lattices, "DEFAULT_ENUMERATION_CAP", 10)
    a = ((1000, 0), (0, 1000))
    with pytest.raises(EnumerationCapExceeded, match="^1000000 classes exceeds cap 10$"):
        walk_class_reps(_snf(a))


@settings(max_examples=25, deadline=None)
@given(small_invertible(2, det_cap=20))
@example(((1, 0), (0, 1)))
@example(((2, 1), (1, 1)))
def test_lattice_intersect_membership(a):
    # B = 2 A^-1 = 2 sign(det A) adj(A) / |det A| has B^-1 = A / 2, so v lies
    # in B Z^n iff A v = 0 (mod 2): Z^n cap B Z^n is a proper sublattice of
    # Z^n unless A = 0 (mod 2)
    det, adj = adjugate(a)
    sign = 1 if det > 0 else -1
    num = mat_scale(2 * sign, adj)
    w, quotient = lattice_intersection(num, abs(det), mat_det(num))
    w_det, w_adj = adjugate(w)
    assert quotient.order == abs(w_det)

    def in_b(v):
        return not any(q % 2 for q in mat_vec(a, v))

    # every column of W is an integer vector inside B Z^n
    for j in range(2):
        col = tuple(w[i][j] for i in range(2))
        assert vec_is_integral(col)
        assert in_b(col)
    # brute check on a small window: v in Z^n cap B Z^n  iff
    # W^-1 v = adj(W) v / det W is integral
    for v in product(range(-4, 5), repeat=2):
        assert in_b(v) == (not any(q % w_det for q in mat_vec(w_adj, v)))


@settings(max_examples=40, deadline=None)
@given(small_invertible(3), st.integers(1, 12))
@example(((2, 0, 0), (0, 4, 0), (0, 0, 6)), 4)
def test_lattice_intersection_quotient_equals_the_smith_form_of_w(num, den):
    # the quotient read off the one Smith decomposition of k B is the
    # quotient of a second, independent Smith form of W
    det = mat_det(num)
    w, quotient = lattice_intersection(num, den, det)
    det_w = mat_det(w)
    assert quotient == quotient_group(snf(w, det_w))
    assert quotient.order == abs(det_w)


def test_count_order_le2():
    assert count_order_le2(quotient_group(_snf(((4, 0), (0, 6))))) == 4
    assert count_order_le2(quotient_group(_snf(((3, 0), (0, 5))))) == 1


def test_element_order():
    lat = ((2, 0), (0, 3))
    assert element_order(lat, (1, 0)) == 2
    assert element_order(lat, (0, 1)) == 3
    assert element_order(lat, (1, 1)) == 6
    assert element_order(lat, (2, 3)) == 1


def test_lattice_basis_from_columns():
    cols = ((2, 0), (0, 2), (1, 1))
    basis = lattice_basis_from_columns(cols)
    # c lies in the lattice iff basis^-1 c = adj(basis) c / det is integral
    det, adj = adjugate(basis)
    for c in cols:
        assert all(q % det == 0 for q in mat_vec(adj, c))
    # (1, 0) has half-integral coordinates: it is outside the lattice
    assert any(q % det for q in mat_vec(adj, (1, 0)))
    assert abs(det) == 2


def test_subgroup_invariant_factors():
    # inside Z^2 / diag(4, 4), the pair (2, 0), (0, 2) generates Z_2 x Z_2
    a = ((4, 0), (0, 4))
    sub = subgroup_invariant_factors(((2, 0), (0, 2)), a)
    assert sub.invariant_factors == (2, 2)
    sub_single = subgroup_invariant_factors(((1, 0),), a)
    assert sub_single.invariant_factors == (4,)


def test_abelian_group_str():
    g = quotient_group(_snf(((2, 0), (0, 6))))
    assert str(g) == "Z_2 x Z_6"
    assert g.is_cyclic is False
    assert quotient_group(_snf(((5, 3), (3, 2)))).order == 1


@pytest.mark.parametrize("factors", [(3, 2), (1,), (2, 0), (2.0,)])
def test_abelian_group_rejects_bad_factors(factors):
    with pytest.raises(ValueError):
        AbelianGroup(factors)


def test_abelian_group_value():
    g = AbelianGroup((2, 4))
    assert repr(g) == "AbelianGroup(invariant_factors=(2, 4))"
    assert str(g) == "Z_2 x Z_4" and g.order == 8 and g.largest_factor == 4
    assert g == AbelianGroup(invariant_factors=(2, 4)) and hash(g) == hash(AbelianGroup((2, 4)))
    assert str(AbelianGroup(())) == "trivial" and AbelianGroup(()).is_cyclic


@pytest.mark.parametrize("a", [((0, 0), (0, 0)), ((2, 4), (1, 2)), ((1, 2, 3), (4, 5, 6), (7, 8, 9))])
def test_snf_rejects_singular(a):
    # det 0 is refused up front; a wrong nonzero det still meets the zero
    # trailing block of the reduction
    for det in (mat_det(a), 1):
        with pytest.raises(ValueError, match="snf of a singular matrix"):
            snf(a, det)


@pytest.mark.parametrize("a", [((2, 1), (1, 3)), ((4, 0), (0, 6)), ((1, 2, 0), (0, 3, 1), (2, 0, 5))])
def test_snf_checks_the_supplied_determinant(a):
    det = mat_det(a)
    for wrong in (2 * det, det + 1, -3 * det):
        with pytest.raises(RuntimeError, match="the invariant factors multiply to"):
            snf(a, wrong)
    with pytest.raises(ValueError, match="snf of a singular matrix"):
        snf(a, 0)
    # the sign of det is not part of the contract: only |det| is checked
    assert snf(a, -det) == snf(a, det)
