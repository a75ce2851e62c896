"""Chip-firing on a single M-matrix.

An M-matrix has positive diagonal, nonpositive off-diagonal entries and
an entrywise nonnegative inverse; these are exactly the firing matrices
whose dynamics terminate.  This module decides z-superstability, fires
and stabilizes configurations, enumerates the superstable and critical
configurations (one of each per equivalence class mod M Z^n), and maps
arbitrary integer vectors to the class representatives sstab_of_class
and crit_of_class.

Criticals come from the classical duality c -> c_max - c, which is a
bijection from superstables onto criticals (Guzman-Klivans 2015).  The
z-superstability decision uses it the other way round: s is
z-superstable exactly when c_max - s is critical, and criticality is a
burning test in the style of Dhar (1990).  Add the burning vector
b = Mz, where z is the least integer vector >= 0 with Mz >= 1; a stable
c is critical iff it stabilizes back to itself.  The test costs one
stabilization of at most sum(z) firings instead of a search over every
z <= floor(M^-1 s).
"""

from __future__ import annotations

import itertools

from . import lattices
from .linalg import (
    adjugate,
    mat,
    mat_is_integral,
    mat_over,
    mat_vec,
    mat_shape,
    vec,
    vec_add,
    vec_sub,
)


def _m_matrix_adjugate(grid):
    """(det, adj) of grid when it is an M-matrix, else None."""
    n, m = mat_shape(grid)
    if n != m or n == 0 or not mat_is_integral(grid):
        return None
    for i in range(n):
        if grid[i][i] <= 0:
            return None
        for j in range(n):
            if i != j and grid[i][j] > 0:
                return None
    det, adj = adjugate(grid)
    # the inverse adj / det is nonnegative iff no entry of adj has the
    # opposite sign of det
    if det == 0 or any(x * det < 0 for row in adj for x in row):
        return None
    return det, adj


def is_m_matrix(grid):
    """True iff the sign pattern holds, the matrix is invertible and the
    inverse is entrywise nonnegative.  Singular input returns False."""
    return _m_matrix_adjugate(grid) is not None


def burning_script(grid):
    """The least integer z >= 0 with (grid z)_i >= 1 for every i.

    Least-action iteration: raise each deficient z_i by the units it needs.
    Raising z_i only lowers the other entries of grid z, so every z' >= 0
    with grid z' >= 1 stays above the iterate, which therefore stops at
    the least such vector.  An M-matrix has one (adj(M) 1 is such a z), so
    the loop ends; on the reduced Laplacian of K_n it returns all ones.
    """
    n = len(grid)
    z = [0] * n
    b = [0] * n
    while True:
        short = [i for i in range(n) if b[i] < 1]
        if not short:
            return tuple(z)
        i = short[0]
        step = -((b[i] - 1) // grid[i][i])     # ceil((1 - b_i) / M_ii)
        z[i] += step
        for r in range(n):
            b[r] += grid[r][i] * step


class MMatrix:
    """An M-matrix with its adjugate, Smith data and class tables.

    The inverse is adj / det; det is positive, as for every nonsingular
    M-matrix.
    """

    def __init__(self, grid):
        m = mat(grid)
        found = _m_matrix_adjugate(m)
        if found is None:
            raise ValueError("not an M-matrix (sign pattern, invertibility and "
                             "nonnegative inverse are all required)")
        self.m = m
        self.n = len(m)
        self.det, self.adj = found
        self.snf = lattices.snf(m)
        self.group = lattices.quotient_group(m, self.snf)
        self.c_max = tuple(m[i][i] - 1 for i in range(self.n))
        self.burning = mat_vec(m, burning_script(m))
        self._superstables = None
        self._criticals = None
        self._sstab_by_class = None
        self._crit_by_class = None

    @property
    def inverse(self):
        """M^-1 as rationals, built on demand for printing."""
        return mat_over(self.adj, self.det)

    # -- basic dynamics ----------------------------------------------------

    def fire(self, c, i):
        """Fire site i: subtract column i."""
        if not 0 <= i < self.n:
            raise IndexError("site index out of range")
        return tuple(c[r] - self.m[r][i] for r in range(self.n))

    def ready_sites(self, c):
        # site i can fire legally iff c_i >= M_ii (off-diagonal entries
        # are <= 0, so only coordinate i can drop below zero)
        return [i for i in range(self.n) if c[i] >= self.m[i][i]]

    def is_stable(self, c):
        return all(c[i] < self.m[i][i] for i in range(self.n))

    def stabilize(self, c):
        """Stabilize by repeatedly firing the lowest-index ready site.

        The result is independent of the firing order; determinism of the
        trace is the only reason for the fixed schedule.
        """
        c = vec(c)
        if any(x < 0 for x in c):
            raise ValueError("stabilize needs an effective configuration")
        while True:
            ready = self.ready_sites(c)
            if not ready:
                return c
            c = self.fire(c, ready[0])

    # -- superstability ----------------------------------------------------

    def is_z_superstable(self, s):
        """True iff no nonzero z >= 0 keeps s - Mz effective.

        Decided as: s is stable and c = c_max - s satisfies
        stabilize(c + b) == c, where b = self.burning = Mz_b for the least
        integer z_b >= 0 with M z_b >= 1.

        Proof.  Unstable s fail with z = e_i, so let s be stable; then c is
        stable and effective.  (=>) c is critical by the Guzman-Klivans
        duality.  b >= 0 and c + b lies in the class of c; criticals are
        closed under adding chips and stabilizing, and each class has
        exactly one critical, so stabilize(c + b) = c.  (<=) By the
        abelian property stabilize(c + kb) = c for every k >= 1.  Since
        b >= 1, c + kb dominates any given configuration a once k is large
        enough, so c = stabilize(a + (c + kb - a)) is reached from every
        configuration: c is critical, and s = c_max - c is z-superstable
        by the same duality.
        """
        if any(x < 0 for x in s):
            raise ValueError("z-superstability is defined for effective "
                             "configurations")
        if not self.is_stable(s):
            return False
        c = vec_sub(self.c_max, s)
        return self.stabilize(vec_add(c, self.burning)) == c

    def superstables(self):
        """All z-superstable configurations in lexicographic order.

        Superstable implies stable (take z = e_i), so the stable box
        prod [0, M_ii - 1] is an exhaustive search space.
        """
        if self._superstables is None:
            box = itertools.product(*(range(self.m[i][i]) for i in range(self.n)))
            found = tuple(s for s in box if self.is_z_superstable(s))
            if len(found) != abs(self.det):
                raise RuntimeError(f"found {len(found)} superstables, expected "
                                   f"|det M| = {abs(self.det)}")
            self._superstables = found
        return self._superstables

    def classical_dual(self, v):
        return vec_sub(self.c_max, v)

    def criticals(self):
        """Images of the superstables under the classical duality."""
        if self._criticals is None:
            self._criticals = tuple(self.classical_dual(s) for s in self.superstables())
        return self._criticals

    # -- class lookups -----------------------------------------------------

    def class_id(self, v):
        return lattices.class_id(self.m, v, self.snf)

    def _tables(self):
        if self._sstab_by_class is None:
            sstab = {}
            crit = {}
            for s in self.superstables():
                sstab[self.class_id(s)] = s
            for c in self.criticals():
                crit[self.class_id(c)] = c
            if not len(sstab) == len(crit) == abs(self.det):
                raise RuntimeError("superstables and criticals do not each hit "
                                   "every class of Z^n / M Z^n once")
            self._sstab_by_class = sstab
            self._crit_by_class = crit
        return self._sstab_by_class, self._crit_by_class

    def sstab_of_class(self, v):
        """The unique superstable equivalent to v mod M Z^n.

        Accepts arbitrary integer vectors, negatives included.
        """
        return self._tables()[0][self.class_id(v)]

    def crit_of_class(self, v):
        """The unique critical equivalent to v mod M Z^n."""
        return self._tables()[1][self.class_id(v)]
