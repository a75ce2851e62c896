"""Chip-firing on a single M-matrix.

An M-matrix has positive diagonal, nonpositive off-diagonal entries and
an entrywise nonnegative inverse; these are exactly the firing matrices
whose dynamics terminate.  This module fires and stabilizes
configurations, finds the critical and the superstable configuration of
any class of Z^n / M Z^n, enumerates them (one of each per class), and
decides z-superstability.

Everything comes from one stabilizer and one table.  Each class holds
exactly one critical c, and c_max - c is the class's superstable
partner: c -> c_max - c is a bijection from criticals onto superstables
(Guzman-Klivans 2015).  The critical of v's class is the stabilization
of v + k b, where b = Mz is the burning vector of Dhar (1990), z the
least integer vector >= 0 with Mz >= 1, and k >= 0 the least integer
with v + k b >= c_max: b lies in M Z^n, so v + k b stays in v's class,
and stabilizing c_max plus chips gives a critical.  The stabilizer
starts instead from c0 = v - M ceil(M^-1 (v - c_max)): c0 is in the
class, equals c_max - M e for some 0 <= e < 1, and lies on the way from
v + k b to the critical, so a far-off v costs no more sweeps than one
near c_max (the proofs are in crit_of_class).  crit_of_class caches
each critical by class id the first time it is asked for;
sstab_of_class, superstables, criticals and is_z_superstable are read
off it.  A lookup costs at most one stabilization and the full
enumeration |det M| of them; nothing scans the stable box prod [0, M_ii).
"""

from __future__ import annotations

from itertools import product
from operator import mul, sub

from . import lattices
from .linalg import (
    adjugate,
    mat,
    mat_is_integral,
    mat_over,
    mat_shape,
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
    """An M-matrix with its adjugate, Smith data, c_max and a table of
    the criticals found so far, keyed by class id.

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
        self.snf = lattices.snf(m, self.det)
        self.group = lattices.quotient_group(self.snf)
        self.c_max = tuple(m[i][i] - 1 for i in range(self.n))
        self._superstables = None
        self._crit_by_class = {}

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

    def is_stable(self, c):
        return all(c[i] < self.m[i][i] for i in range(self.n))

    def stabilize(self, c):
        """Fire ready sites until none is ready.

        Each sweep fires site i floor(c_i / M_ii) times in one step.  That
        is legal because firing other sites only adds chips to i (the
        off-diagonal entries are <= 0).  The result does not depend on the
        firing order (the abelian property), so it is the one that firing
        one site at a time gives.
        """
        c = list(c)
        if any(x < 0 for x in c):
            raise ValueError("stabilize needs an effective configuration")
        cols = tuple(enumerate(zip(*self.m)))
        sites = range(self.n)
        fired = True
        while fired:
            fired = False
            for i, col in cols:
                k = c[i] // col[i]
                if k:
                    fired = True
                    for r in sites:
                        c[r] -= k * col[r]
        return tuple(c)

    # -- class lookups -----------------------------------------------------

    def class_id(self, v):
        return lattices.class_id(self.snf, v)

    def classical_dual(self, v):
        return vec_sub(self.c_max, v)

    def crit_of_class(self, v):
        """The unique critical equivalent to v mod M Z^n.

        Accepts arbitrary integer vectors, negatives included.  The
        critical is stabilize(a) for a = v + k b, where b = M z_b for
        z_b = burning_script(M) and k >= 0 is the least integer with
        a >= c_max, and it is computed as stabilize(c0) for c0 = v - M z
        with z = ceil(M^-1 (v - c_max)), which needs no k.

        Proof that stabilize(a) is the critical.  b lies in M Z^n, so a
        and c = stabilize(a) lie in v's class, and c is stable.  c is
        critical, that is, reached from every configuration by adding
        chips and stabilizing: for an effective y, its stabilization y'
        is stable, so y' <= c_max <= a, and by the abelian property
        stabilize(y + (a - y')) = stabilize(y' + (a - y')) = c.  Each
        class holds exactly one critical (Guzman-Klivans 2015), so c is
        the critical of v's class.

        Proof that stabilize(c0) = stabilize(a).  Write
        e = z - M^-1 (v - c_max), so 0 <= e < 1 and c0 = c_max - M e.
        (1) c0 is effective: the off-diagonal entries of M are <= 0 and
        e >= 0, so (M e)_i <= M_ii e_i < M_ii, and c0_i > c_max_i - M_ii
        = -1.  (2) c0 = v - M z lies in v's class.  (3) c0 = a - M w for
        w = z + k z_b = ceil(M^-1 (a - c_max)), and w >= 0 because
        a >= c_max and M^-1 >= 0.  (4) w can be fired legally from a.
        Fire from a only ready sites i that have fired fewer than w_i
        times, until none is left; let t <= w count the firings and
        S = {i : t_i < w_i}.  Each i in S is not ready, so
        (a - M t)_i <= c_max_i.  For d = w - t - e, M d = a - M t - c_max,
        so (M d)_i <= 0 on S, while d > 0 on S (w_i - t_i >= 1 > e_i) and
        d <= 0 off S (w_i = t_i).  The off-diagonal entries of M are <= 0,
        so M_SS d_S <= (M d)_S <= 0, and M_SS, a principal submatrix of an
        M-matrix, has a nonnegative inverse: d_S <= 0.  So S is empty and
        t = w.  Hence c0 is reached from a by legal firings, w is at most
        the least-action odometer of a, and by the abelian property
        stabilize(c0) = stabilize(a).
        """
        return self._crit(self.class_id(v), v)

    def _crit(self, key, v):
        """crit_of_class(v) for a v whose class id is key."""
        crit = self._crit_by_class.get(key)
        if crit is None:
            det = self.det
            gap = tuple(map(sub, v, self.c_max))
            # z = ceil(M^-1 (v - c_max)) as ceil(adj (v - c_max) / det)
            z = [-(sum(map(mul, row, gap)) // -det) for row in self.adj]
            crit = self.stabilize(x - sum(map(mul, row, z)) for x, row in zip(v, self.m))
            self._crit_by_class[key] = crit
        return crit

    def sstab_of_class(self, v):
        """The unique superstable equivalent to v mod M Z^n: c_max minus
        the critical of c_max - v.  Accepts arbitrary integer vectors."""
        return self.classical_dual(self.crit_of_class(self.classical_dual(v)))

    # -- enumeration and superstability ------------------------------------

    def superstables(self):
        """All z-superstable configurations in lexicographic order: c_max
        minus the critical of each class.  The work is |det M|
        stabilizations, and the enumeration cap bounds it."""
        if self._superstables is None:
            # the walk yields U r in residue order, and the class id of U r is r
            box = product(*(range(self.snf.D[i][i]) for i in range(self.n)))
            for key, rep in zip(box, lattices.walk_class_reps(self.snf)):
                self._crit(key, rep)
            if len(self._crit_by_class) != abs(self.det):
                raise RuntimeError(f"found {len(self._crit_by_class)} criticals, expected "
                                   f"|det M| = {abs(self.det)}")
            self._superstables = tuple(sorted(map(self.classical_dual,
                                                  self._crit_by_class.values())))
        return self._superstables

    def criticals(self):
        """Images of the superstables under the classical duality."""
        return tuple(map(self.classical_dual, self.superstables()))

    def is_z_superstable(self, s):
        """True iff no nonzero z >= 0 keeps s - Mz effective.

        The z-superstables are the superstables, one per class, so s is
        z-superstable iff it is the superstable of its own class.
        """
        if any(x < 0 for x in s):
            raise ValueError("z-superstability is defined for effective "
                             "configurations")
        return self.sstab_of_class(s) == tuple(s)
