"""Integer lattice algorithms.

Smith normal form with unimodular transforms, finite abelian quotient
structure Z^n / A Z^n, canonical equivalence-class coordinates, the
class walk, intersection of Z^n with a rational lattice B Z^n, and
element orders in quotients.

A nonsingular A has one Smith decomposition, snf(A, det A):
Uinv * A * Vinv = D = diag(d_1, ..., d_n), d_1 | ... | d_n, d_i >= 1,
and the quotient, class ids and the class walk read only it.  Two
integer vectors v, w satisfy v == w (mod A Z^n) iff Uinv v and Uinv w
agree modulo diag(D), which gives a canonical class id.

Every class walk (pair, fracket side, M-matrix) goes through
walk_class_reps, which checks the one budget DEFAULT_ENUMERATION_CAP.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import add

from .linalg import (
    adjugate,
    ensure,
    flcm,
    identity,
    mat,
    mat_det,
    mat_is_integral,
    mat_mul,
    mat_vec,
    mat_shape,
    xgcd,
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

    d = [list(row) for row in a]
    u = [list(row) for row in identity(n)]      # U = Uinv^-1 throughout
    uinv = [list(row) for row in identity(n)]
    vinv = [list(row) for row in identity(n)]

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

    dec = SnfDecomposition(mat(u), mat(d), mat(uinv), mat(vinv))
    ensure(mat_mul(dec.U, dec.Uinv) == identity(n), "U Uinv = I")
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
    """
    w = mat_vec(dec.Uinv, v)
    n = len(w)
    return tuple(w[i] % dec.D[i][i] for i in range(n))


def walk_class_reps(dec, image=None, with_rep=False):
    """One representative per class of Z^n / A Z^n; dec = snf(A, det A).

    An iterator over U*r for r in the residue box 0 <= r_i < d_i, in
    lexicographic residue order, so the output is the same no matter how
    the caller partitions the work.  With an integer matrix image it
    yields image*U*r in the same order instead, or (U*r, image*U*r)
    pairs from one walk when with_rep.  DEFAULT_ENUMERATION_CAP, read at
    each call, is checked before it returns.

    The box is walked like an odometer: U*(r + e_i) = U*r + U e_i, and a
    digit that wraps from d_i - 1 to 0 takes (d_i - 1) U e_i off, so each
    class costs vector additions instead of a matrix-vector product.
    With with_rep the odometer moves U*r and image*U*r as one stacked
    vector.
    """
    n = len(dec.D)
    dims = [dec.D[i][i] for i in range(n)]
    total = math.prod(dims)
    if total > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapExceeded(f"{total} classes exceeds cap {DEFAULT_ENUMERATION_CAP}")
    basis = dec.U if image is None else mat_mul(image, dec.U)
    if with_rep:
        basis = dec.U + basis
    # only the digits with d_i > 1 move; the last one turns fastest
    wheels = [(d - 1, tuple(row[i] for row in basis), tuple((1 - d) * row[i] for row in basis))
              for i, d in enumerate(dims) if d > 1]
    walk = _odometer(wheels, len(basis), total)
    return ((v[:n], v[n:]) for v in walk) if with_rep else walk


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
    """(W, Z^n / W Z^n as an AbelianGroup) for the lattice
    Z^n intersect B Z^n = W Z^n, where B = num / den with an integer
    matrix num of determinant det, which the caller already holds, and a
    positive integer den.  One Smith decomposition gives both.

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
    return w, AbelianGroup(tuple(x for x in e if x > 1))


def count_order_le2(group):
    """Number of elements of order at most 2: product of gcd(2, d_i)."""
    return math.prod(math.gcd(2, d) for d in group.invariant_factors)


def element_order(lattice_basis, v):
    """Least k >= 1 with k*v in the lattice spanned by the basis columns.

    k*v in W Z^n iff k * (W^-1 v) is integral, so k is the lcm of the
    denominators of W^-1 v = adj(W) v / det W.
    """
    det, adj = adjugate(lattice_basis)
    if det == 0:
        raise ValueError("singular lattice basis")
    return flcm(mat_vec(adj, v), det)


def lattice_basis_from_columns(cols):
    """Basis of the full-rank lattice spanned by the given integer columns.

    Column-style gcd elimination: for each row a single pivot column is
    produced by repeated extended-gcd combinations (each combination is a
    unimodular move on the pair, so the span never changes).  The result
    is lower triangular with positive diagonal.
    """
    cols = [list(c) for c in cols]
    n = len(cols[0])
    if not all(len(c) == n for c in cols):
        raise ValueError("columns differ in length")
    basis = []
    work = cols
    for i in range(n):
        pivot = None
        rest = []
        for c in work:
            ensure(all(c[r] == 0 for r in range(i)), "rows above the pivot are eliminated")
            if c[i] == 0:
                rest.append(c)
            elif pivot is None:
                pivot = c
            else:
                g, x, y = xgcd(pivot[i], c[i])
                pa, ca = pivot[i] // g, c[i] // g
                new_pivot = [x * p + y * q for p, q in zip(pivot, c)]
                new_rest = [ca * p - pa * q for p, q in zip(pivot, c)]
                ensure(new_pivot[i] == g and new_rest[i] == 0, "the gcd step clears the row")
                pivot = new_pivot
                rest.append(new_rest)
        if pivot is None:
            raise ValueError("columns do not span a full-rank lattice")
        if pivot[i] < 0:
            pivot = [-x for x in pivot]
        basis.append(pivot)
        work = rest
    return mat(tuple(basis[j][r] for j in range(n)) for r in range(n))


def subgroup_invariant_factors(generators, a):
    """Invariant factors of the subgroup of Z^n / A Z^n generated by the
    classes of the given integer vectors.

    With B a basis of the lattice spanned by the generators together with
    the columns of A, the subgroup is isomorphic to Z^n / (B^-1 A) Z^n, and
    B^-1 A = adj(B) A / det B.
    """
    n = len(a)
    cols = [list(g) for g in generators] + [[a[r][j] for r in range(n)] for j in range(n)]
    det, adj = adjugate(lattice_basis_from_columns(cols))
    x = mat_mul(adj, a)
    ensure(not any(q % det for row in x for q in row), "A Z^n sits inside the generated lattice")
    x = tuple(tuple(q // det for q in row) for row in x)
    return quotient_group(snf(x, mat_det(x)))
