"""Exact linear algebra on immutable tuples.

Vectors are tuples and matrices are tuples of row tuples.  The exact
core is integer: a rational matrix such as an inverse or a transfer
L M^-1 is carried as an integer numerator matrix N over one positive
common denominator d, and the inverse of an integer matrix A is
adj(A) / det(A), with the adjugate from fraction-free (Bareiss)
elimination.  Integrality of N / d is N % d == 0, its floor is N // d and
its fractional numerators are N % d, so there is no pivot tolerance and
no rational arithmetic: every helper below takes integer operands and
returns plain integer results.

fractions.Fraction lives only at the parse boundary and in the rational
views that library callers read, and the module loads on first use
inside _norm, over and parse_rational, so a command that parses only
integers never imports fractions (or the decimal module it pulls in).
parse_rational reads "a/b" and vec/mat normalize input entries (a
Fraction with denominator 1 becomes an int); over turns numerators into
the rationals that public fields show, and numerators reads such
rationals back as integers over a given denominator.

Serialization: a rational renders as "a/b" in lowest terms, or "a" when
the denominator is 1.  over_json renders integer numerators over a
positive denominator that way, as a JSON array of such strings and ints,
without building a rational; a matrix is rendered row by row.  It is
the CLI's one rational renderer: str of its entries is the table text.

ensure and verdict are the package's check helpers: a post-condition
that python -O keeps, and the ok/FAIL detail of a list of facts.
"""

from __future__ import annotations

import math
from operator import mul


def _norm(x):
    # ints stay ints, Fraction with denominator 1 collapses to int
    if type(x) is int:
        return x
    from fractions import Fraction

    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int):
        return x
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def ensure(ok, what):
    """Raise RuntimeError unless ok: a post-condition that python -O keeps."""
    if not ok:
        raise RuntimeError(f"post-condition failed: {what}")


def verdict(facts, summary=None):
    """(passed, detail) of a list of (ok, text) facts: passed iff every fact
    holds.  A passing check with a summary reports the summary; otherwise
    the detail has one ok/FAIL line per fact, and the later lines of a
    multi-line text follow as they are."""
    passed = all(ok for ok, _ in facts)
    if passed and summary is not None:
        return True, summary
    return passed, "\n".join(f"{'ok  ' if ok else 'FAIL'} {text}" for ok, text in facts)


def vec(entries):
    return tuple(map(_norm, entries))


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
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(k, v):
    return tuple(k * a for a in v)


def mat_vec(a, x):
    if len(a[0]) != len(x):
        raise ValueError("dimension mismatch")
    return tuple([sum(map(mul, r, x)) for r in a])


def mat_mul(a, b):
    if mat_shape(a)[1] != len(b):
        raise ValueError("dimension mismatch")
    cols = tuple(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


def mat_scale(k, a):
    return tuple(tuple(k * x for x in row) for row in a)


def vec_is_integral(v):
    return all(isinstance(x, int) for x in v)


def mat_is_integral(a):
    return all(vec_is_integral(row) for row in a)


def mat_det(a):
    """Exact determinant of a square integer matrix."""
    n, m = mat_shape(a)
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    if not mat_is_integral(a):
        raise ValueError("determinant needs integer entries")
    return _det_bareiss(a)


def _exact(num, den):
    q, r = divmod(num, den)
    if r:
        raise RuntimeError(f"fraction-free elimination: {den} does not divide {num}")
    return q


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
                m[i][j] = _exact(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def adjugate(a):
    """(det A, adj A) for a square integer matrix, so A adj(A) = det(A) I.

    Fraction-free Gauss-Jordan elimination on [A | I], the Bareiss (1968)
    step applied above the pivot too: every division by the previous
    pivot is exact, the left block ends as p I and the right block as
    p A^-1, where the last pivot p is det A up to the sign of the row
    swaps.  A singular A has no full pivot sequence and gives (0, None):
    every caller rejects det A = 0, so no adjugate is built for it.
    """
    n, m = mat_shape(a)
    if n != m:
        raise ValueError("adjugate of a non-square matrix")
    if not mat_is_integral(a):
        raise ValueError("adjugate needs integer entries")
    w = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    sign = 1
    prev = 1
    for k in range(n):
        if w[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if w[i][k]), None)
            if swap is None:
                return 0, None
            w[k], w[swap] = w[swap], w[k]
            sign = -sign
        pivot_row = w[k]
        p = pivot_row[k]
        # columns left of k are zero in every row but the diagonal, which
        # later steps never read, so only columns k+1.. change
        for i in range(n):
            if i != k:
                row = w[i]
                f = row[k]
                for j in range(k + 1, 2 * n):
                    row[j] = _exact(p * row[j] - f * pivot_row[j], prev)
                row[k] = 0
        prev = p
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in w)


def over(nums, den):
    """The vector nums / den as normalized rationals, an int where den
    divides the numerator: the one place a numerator vector becomes
    Fraction entries."""
    from fractions import Fraction

    return tuple(q // den if q % den == 0 else Fraction(q, den) for q in nums)


def numerators(v, den):
    """The integers p with v = p / den, or None when den is not a common
    denominator of the entries of v."""
    out = []
    for x in v:
        if isinstance(x, int):
            out.append(x * den)
        else:
            q, r = divmod(den, x.denominator)
            if r:
                return None
            out.append(x.numerator * q)
    return tuple(out)


def _entries(a):
    rows = a if a and isinstance(a[0], tuple) else (a,)
    return [x for row in rows for x in row]


def flcm(num, den):
    """lcm of the denominators of the entries of num / den (matrix or
    vector): den / gcd(den, content of num)."""
    return abs(den) // math.gcd(den, *_entries(num))


def gcd_entries(a):
    """gcd of the absolute values of all integer entries."""
    entries = _entries(a)
    if not all(isinstance(x, int) for x in entries):
        raise ValueError("gcd_entries needs integer entries")
    g = math.gcd(*entries)
    if g == 0:
        raise ValueError("gcd_entries of an all-zero matrix")
    return g


def parse_rational(s):
    """Parse "a" or "a/b" into an int or Fraction; ValueError for anything else."""
    if not isinstance(s, str):
        raise ValueError(f"a rational must be a string \"a\" or \"a/b\", not {s!r}")
    if "/" not in s:
        return int(s)
    num, den = (int(t) for t in s.split("/"))
    if den == 0:
        raise ValueError(f"zero denominator in {s!r}")
    from fractions import Fraction

    return _norm(Fraction(num, den))


def over_json(nums, den):
    """The vector nums / den for a positive den as JSON entries, without
    building a rational: an int where den divides the numerator, else
    "a/b" reduced by the gcd."""
    out = []
    for q in nums:
        if q % den:
            g = math.gcd(q, den)
            out.append(f"{q // g}/{den // g}")
        else:
            out.append(q // den)
    return out


def _json_array(data):
    if not isinstance(data, list):
        raise ValueError(f"expected a JSON array, got {type(data).__name__}")
    return data


def vec_from_json(data):
    # bool is an int subclass, so JSON true/false must not pass as 1/0
    return vec(x if type(x) is int else parse_rational(x) for x in _json_array(data))


def mat_from_json(data):
    return mat(vec_from_json(row) for row in _json_array(data))
