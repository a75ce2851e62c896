"""Exact rational linear algebra on immutable tuples.

Vectors are tuples and matrices are tuples of row tuples.  Entries are
Python ints or fractions.Fraction values, normalized so that anything
with denominator 1 is stored as an int.  Every operation is exact;
determinants use fraction-free (Bareiss) elimination on integer input
and plain rational elimination otherwise, so no pivot tolerance exists
anywhere.

Serialization: a rational renders as "a/b" in lowest terms, or "a" when
the denominator is 1.  Matrices serialize row-major as JSON arrays of
such strings (bare ints stay ints).
"""

from __future__ import annotations

import math
from fractions import Fraction


def _norm(x):
    # ints stay ints, Fraction with denominator 1 collapses to int
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int):
        return x
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def vec(entries):
    return tuple(_norm(x) for x in entries)


def mat(rows):
    out = tuple(vec(r) for r in rows)
    if len({len(r) for r in out}) > 1:
        raise ValueError("ragged matrix: rows differ in length")
    return out


def mat_shape(a):
    return len(a), (len(a[0]) if a else 0)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def vec_add(u, v):
    return tuple(_norm(a + b) for a, b in zip(u, v, strict=True))


def vec_sub(u, v):
    return tuple(_norm(a - b) for a, b in zip(u, v, strict=True))


def vec_scale(k, v):
    return tuple(_norm(k * a) for a in v)


def mat_vec(a, x):
    assert len(a[0]) == len(x), "dimension mismatch"
    return tuple(_norm(sum(r[j] * x[j] for j in range(len(x)))) for r in a)


def mat_mul(a, b):
    n, m = mat_shape(a)
    m2, p = mat_shape(b)
    assert m == m2, "dimension mismatch"
    return tuple(
        tuple(_norm(sum(a[i][k] * b[k][j] for k in range(m))) for j in range(p))
        for i in range(n)
    )


def mat_scale(k, a):
    return tuple(tuple(_norm(k * x) for x in row) for row in a)


def is_integer_entry(x):
    return isinstance(x, int)


def vec_is_integral(v):
    return all(isinstance(x, int) for x in v)


def mat_is_integral(a):
    return all(vec_is_integral(row) for row in a)


def mat_det(a):
    """Exact determinant.  Integer input returns an int."""
    n, m = mat_shape(a)
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    if mat_is_integral(a):
        return _det_bareiss(a)
    return _det_rational(a)


def _det_bareiss(a):
    # fraction-free elimination; every division below is exact
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                q, r = divmod(num, prev)
                assert r == 0
                m[i][j] = q
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _det_rational(a):
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for k in range(n):
        pivot = None
        for i in range(k, n):
            if m[i][k] != 0:
                pivot = i
                break
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] * inv
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return _norm(det)


def mat_inverse(a):
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    n, m = mat_shape(a)
    if n != m:
        raise ValueError("inverse of a non-square matrix")
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for k in range(n):
        pivot = None
        for i in range(k, n):
            if work[i][k] != 0:
                pivot = i
                break
        if pivot is None:
            raise ValueError("singular matrix")
        work[k], work[pivot] = work[pivot], work[k]
        inv = 1 / work[k][k]
        work[k] = [x * inv for x in work[k]]
        for i in range(n):
            if i != k and work[i][k]:
                f = work[i][k]
                work[i] = [x - f * y for x, y in zip(work[i], work[k])]
    out = mat(row[n:] for row in work)
    assert mat_mul(a, out) == identity(n)
    return out


def floor_frac_split(x):
    """Split x into (floor(x), {x}) with x = floor + frac and 0 <= frac < 1.

    Floor is toward minus infinity, so negative entries split as e.g.
    -1/2 = -1 + 1/2.
    """
    fl = tuple(math.floor(q) for q in x)
    fr = tuple(_norm(q - f) for q, f in zip(x, fl))
    assert all(0 <= f < 1 for f in fr)
    return fl, fr


def frac_part(x):
    return floor_frac_split(x)[1]


def _denominator(x):
    return x.denominator if isinstance(x, Fraction) else 1


def flcm(a):
    """lcm of the denominators of all entries (matrix or vector)."""
    rows = a if a and isinstance(a[0], tuple) else (a,)
    k = 1
    for row in rows:
        for x in row:
            k = math.lcm(k, _denominator(x))
    return k


def gcd_entries(a):
    """gcd of the absolute values of all integer entries."""
    rows = a if a and isinstance(a[0], tuple) else (a,)
    g = 0
    for row in rows:
        for x in row:
            if not isinstance(x, int):
                raise ValueError("gcd_entries needs integer entries")
            g = math.gcd(g, abs(x))
    if g == 0:
        raise ValueError("gcd_entries of an all-zero matrix")
    return g


def xgcd(a, b):
    """Extended gcd: returns (g, x, y) with a*x + b*y = g = gcd(a,b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def rational_str(x):
    x = _norm(x)
    if isinstance(x, int):
        return str(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s):
    """Parse "a" or "a/b" into an int or Fraction; ValueError for anything else."""
    if not isinstance(s, str):
        raise ValueError(f"a rational must be a string \"a\" or \"a/b\", not {s!r}")
    if "/" not in s:
        return int(s)
    num, den = (int(t) for t in s.split("/"))
    if den == 0:
        raise ValueError(f"zero denominator in {s!r}")
    return _norm(Fraction(num, den))


def vec_to_json(v):
    return [x if isinstance(x, int) else rational_str(x) for x in v]


def mat_to_json(a):
    return [vec_to_json(row) for row in a]


def _json_array(data):
    if not isinstance(data, list):
        raise ValueError(f"expected a JSON array, got {type(data).__name__}")
    return data


def vec_from_json(data):
    # bool is an int subclass, so JSON true/false must not pass as 1/0
    return vec(x if type(x) is int else parse_rational(x) for x in _json_array(data))


def mat_from_json(data):
    return mat(vec_from_json(row) for row in _json_array(data))
