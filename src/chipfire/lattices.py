"""Integer lattice algorithms.

Smith normal form with unimodular transforms, finite abelian quotient
structure Z^n / A Z^n, canonical equivalence-class coordinates, the
class walk, and intersection of Z^n with a rational lattice B Z^n and
with its inverse B^-1 Z^n.

A nonsingular A has one Smith decomposition, snf(A, det A):
Uinv * A * Vinv = D = diag(d_1, ..., d_n), d_1 | ... | d_n, d_i >= 1,
and the quotient, class ids and the class walk read only it.  Two
integer vectors v, w satisfy v == w (mod A Z^n) iff Uinv v and Uinv w
agree modulo diag(D), which gives a canonical class id.

Every class walk (pair, fracket side, M-matrix) goes through
walk_class_reps or walk_class_ids, which check the one budget
DEFAULT_ENUMERATION_CAP.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import product
from operator import add

from .linalg import (
    ensure,
    flcm,
    identity,
    mat_is_integral,
    mat_mul,
    mat_vec,
    mat_shape,
    vec_is_integral,
)

DEFAULT_ENUMERATION_CAP = 10**6


class EnumerationCapExceeded(ValueError):
    """Raised when a walk or scan would exceed DEFAULT_ENUMERATION_CAP."""


SnfDecomposition = namedtuple("SnfDecomposition", "U D Uinv Vinv")


class AbelianGroup(namedtuple("AbelianGroup", "invariant_factors")):
    """Finite abelian group in invariant-factor form.

    invariant_factors is ascending with d_i | d_{i+1}; factors equal to 1
    are dropped, so the trivial group has an empty tuple.
    """

    __slots__ = ()

    def __new__(cls, invariant_factors):
        fs = invariant_factors
        if not all(isinstance(d, int) and d >= 2 for d in fs):
            raise ValueError(f"invariant factors must be integers >= 2, got {fs}")
        if not all(fs[i + 1] % fs[i] == 0 for i in range(len(fs) - 1)):
            raise ValueError(f"invariant factors must divide each other in turn, got {fs}")
        return super().__new__(cls, fs)

    @property
    def order(self):
        return math.prod(self.invariant_factors)

    @property
    def is_cyclic(self):
        return len(self.invariant_factors) <= 1

    @property
    def largest_factor(self):
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def __str__(self):
        if not self.invariant_factors:
            return "trivial"
        return " x ".join(f"Z_{d}" for d in self.invariant_factors)

    def to_json(self):
        return list(self.invariant_factors)


def snf(a, det):
    """Smith normal form of a nonsingular square integer matrix a with
    determinant det, which the caller already holds.

    Returns SnfDecomposition(U, D, Uinv, Vinv), all integral and built
    during the reduction, with Uinv*a*Vinv = D and U = Uinv^-1.  The d_i
    multiply to |det|, so Uinv and Vinv are unimodular; a wrong det raises
    RuntimeError, and a singular a or det == 0 raises ValueError.
    """
    n, m = mat_shape(a)
    if n != m:
        raise ValueError("snf needs a square matrix")
    if not mat_is_integral(a):
        raise ValueError("snf needs integer entries")
    if det == 0:
        raise ValueError("snf of a singular matrix")

    eye = identity(n)
    d = [list(row) for row in a]
    u = [list(row) for row in eye]      # U = Uinv^-1 throughout
    uinv = [list(row) for row in eye]
    vinv = [list(row) for row in eye]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        uinv[i], uinv[j] = uinv[j], uinv[i]
        for r in range(n):                       # swap columns i,j of U
            u[r][i], u[r][j] = u[r][j], u[r][i]

    def swap_cols(i, j):
        for r in range(n):
            d[r][i], d[r][j] = d[r][j], d[r][i]
            vinv[r][i], vinv[r][j] = vinv[r][j], vinv[r][i]

    def add_row(dst, src, q):
        # row_dst += q * row_src on D, mirrored on Uinv, undone on U
        for c in range(n):
            d[dst][c] += q * d[src][c]
            uinv[dst][c] += q * uinv[src][c]
        for r in range(n):
            u[r][src] -= q * u[r][dst]

    def add_col(dst, src, q):
        for r in range(n):
            d[r][dst] += q * d[r][src]
            vinv[r][dst] += q * vinv[r][src]

    def negate_row(i):
        for c in range(n):
            d[i][c] = -d[i][c]
            uinv[i][c] = -uinv[i][c]
        for r in range(n):
            u[r][i] = -u[r][i]

    k = 0
    while k < n:
        # pivot: the first minimal absolute nonzero entry of the trailing block
        best = min(((abs(d[i][j]), i, j) for i in range(k, n) for j in range(k, n) if d[i][j]),
                   default=None)
        # the reduction keeps the rank, so only a singular matrix leaves a
        # zero trailing block
        if best is None:
            raise ValueError("snf of a singular matrix")
        if best[1] != k:
            swap_rows(k, best[1])
        if best[2] != k:
            swap_cols(k, best[2])

        for i in range(k + 1, n):
            q = d[i][k] // d[k][k]
            if q:
                add_row(i, k, -q)
        for j in range(k + 1, n):
            q = d[k][j] // d[k][k]
            if q:
                add_col(j, k, -q)
        # a nonzero remainder is smaller than the pivot: pick it next
        if any(d[i][k] or d[k][i] for i in range(k + 1, n)):
            continue
        # pivot must divide the whole trailing block for the chain to hold
        bad = next((j for i in range(k + 1, n) for j in range(k + 1, n) if d[i][j] % d[k][k]), None)
        if bad is not None:
            add_col(k, bad, 1)
            continue
        k += 1

    for i in range(n):
        if d[i][i] < 0:
            negate_row(i)

    dec = SnfDecomposition(*(tuple(map(tuple, x)) for x in (u, d, uinv, vinv)))
    ensure(mat_mul(dec.U, dec.Uinv) == eye, "U Uinv = I")
    ensure(mat_mul(mat_mul(dec.Uinv, a), dec.Vinv) == dec.D, "Uinv A Vinv = D")
    diag = [dec.D[i][i] for i in range(n)]
    ensure(all(x >= 1 for x in diag), "positive invariant factors")
    ensure(all(diag[i + 1] % diag[i] == 0 for i in range(n - 1)), "d_i divides d_(i+1)")
    ensure(math.prod(diag) == abs(det), "the invariant factors multiply to |det A|")
    return dec


def quotient_group(dec):
    """Invariant factors of Z^n / A Z^n as an AbelianGroup; dec = snf(A, det A)."""
    n = len(dec.D)
    return AbelianGroup(tuple(dec.D[i][i] for i in range(n) if dec.D[i][i] > 1))


def class_id(dec, v):
    """Canonical coordinates of [v] in Z^n / A Z^n; dec = snf(A, det A).

    Equal class ids iff the vectors differ by an element of A Z^n.
    Raises ValueError unless every entry of v is an int.
    """
    if not vec_is_integral(v):
        raise ValueError("a class id needs an integer vector")
    w = mat_vec(dec.Uinv, v)
    n = len(w)
    return tuple(w[i] % dec.D[i][i] for i in range(n))


def walk_class_reps(dec, image):
    """image*U*r per class U*r of Z^n / A Z^n; dec = snf(A, det A).

    An iterator over r in the residue box 0 <= r_i < d_i, in
    lexicographic residue order, so the output is the same no matter how
    the caller partitions the work; image = I yields the representatives
    U*r.  DEFAULT_ENUMERATION_CAP, read at each call, is checked first.

    The box is walked like an odometer: U*(r + e_i) = U*r + U e_i, and a
    digit that wraps from d_i - 1 to 0 takes (d_i - 1) U e_i off, so each
    class costs vector additions instead of a matrix-vector product.
    """
    dims, total = _residue_box(dec)
    basis = mat_mul(image, dec.U)
    # only the digits with d_i > 1 move; the last one turns fastest
    wheels = [(d - 1, tuple(row[i] for row in basis), tuple((1 - d) * row[i] for row in basis))
              for i, d in enumerate(dims) if d > 1]
    return _odometer(wheels, len(basis), total)


def walk_class_ids(dec):
    """The class ids of walk_class_reps(dec, image)'s classes, in its order.

    The walk yields image*U*r for r in lexicographic residue order, and
    class_id(dec, U*r) = Uinv*U*r mod diag(D) = r, so zipped with a walk
    this names every class without a matrix-vector product, and alone it
    names every class without building one.  Like the walk, it checks
    DEFAULT_ENUMERATION_CAP when it is called, before its first step.
    """
    return product(*map(range, _residue_box(dec)[0]))


def _residue_box(dec):
    # (d_1, ..., d_n) and their product, under the one budget
    dims = [dec.D[i][i] for i in range(len(dec.D))]
    total = math.prod(dims)
    if total > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapExceeded(f"{total} classes exceeds cap {DEFAULT_ENUMERATION_CAP}")
    return dims, total


def _odometer(wheels, size, total):
    digits = [0] * len(wheels)
    v = (0,) * size
    yield v
    for _ in range(total - 1):
        k = len(wheels) - 1
        while digits[k] == wheels[k][0]:
            digits[k] = 0
            v = tuple(map(add, v, wheels[k][2]))
            k -= 1
        digits[k] += 1
        v = tuple(map(add, v, wheels[k][1]))
        yield v


def lattice_intersection(num, den, det):
    """(W, Z^n / W Z^n, Z^n / W' Z^n) for the lattices
    Z^n intersect B Z^n = W Z^n and Z^n intersect B^-1 Z^n = W' Z^n, the
    quotients as AbelianGroups, where B = num / den with an integer
    matrix num of determinant det, which the caller already holds, and a
    positive integer den.  One Smith decomposition gives all three.

    Proof.  k = flcm(B) = den / g with g = gcd(den, content of num), so
    C = kB = num / g is integral, and snf gives Uinv C Vinv = D, that is
    C = U D V with U and V = Vinv^-1 unimodular.  Then
    B Z^n = (1/k) C Z^n = (1/k) U D Z^n, and since U is unimodular,
    (1/k) U D z is integral iff D z lies in k Z^n, iff each z_i is a
    multiple of s_i = k / gcd(d_i, k).  So the intersection is
    (1/k) U D diag(s) Z^n = U diag(e) Z^n with e_i = d_i s_i / k =
    d_i / gcd(d_i, k), and Z^n / W Z^n is the sum of the Z / e_i Z, again
    because U is unimodular.  e_i = lcm(d_i, k) / k, and d_i | d_(i+1)
    gives e_i | e_(i+1), so the e_i > 1 are the invariant factors.  The
    same W is B Vinv diag(s), so den W = num Vinv diag(s), and
    |det W| = prod(e) = |det num| prod(s) / den^n; both are checked.

    The inverse lattice.  B^-1 = k V^-1 D^-1 U^-1, and U^-1 is
    unimodular, so B^-1 Z^n = Vinv diag(k / d_i) Z^n.  With k / d_i =
    s_i / e_i in lowest terms, Z intersect (s_i / e_i) Z = s_i Z, so
    W' = Vinv diag(s) and Z^n / W' Z^n is the sum of the Z / s_i Z, again
    because Vinv is unimodular.  gcd(d_i, k) divides gcd(d_(i+1), k), so
    s_(i+1) | s_i: the s_i > 1 in reverse order are the invariant
    factors.  prod(s) / prod(e) = k^n / prod(d) = den^n / |det num|.
    """
    n, m = mat_shape(num)
    if n != m:
        raise ValueError("square matrix required")
    if den <= 0:
        raise ValueError("the denominator must be positive")
    if det == 0:
        raise ValueError("singular matrix")
    k = flcm(num, den)
    g = den // k
    dec = snf(tuple(tuple(x // g for x in row) for row in num), det // g**n)
    diag = [dec.D[i][i] for i in range(n)]
    scale = [k // math.gcd(d, k) for d in diag]
    e = [d // math.gcd(d, k) for d in diag]
    w = tuple(tuple(x * f for x, f in zip(row, e)) for row in dec.U)
    ensure(all(den * x == y * s
               for row_w, row_b in zip(w, mat_mul(num, dec.Vinv))
               for x, y, s in zip(row_w, row_b, scale)),
           "den W = num Vinv diag(scale)")
    ensure(math.prod(e) * den**n == abs(det) * math.prod(scale),
           "prod(e) den^n = |det num| prod(scale)")
    return (w, AbelianGroup(tuple(x for x in e if x > 1)),
            AbelianGroup(tuple(x for x in reversed(scale) if x > 1)))


def count_order_le2(group):
    """Number of elements of order at most 2: product of gcd(2, d_i)."""
    return math.prod(math.gcd(2, d) for d in group.invariant_factors)
