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
near c_max (the proofs are in crit_of_class).  For the representative
v = U key of class id key, c0 = c_max - M t / det with
t = (adj c_max - adj U key) mod det, so crit_of_class_id starts from
the class id alone, with adj U built once per matrix.  It caches each
critical by class id the first time it is asked for, at one
stabilization from c0, and crit_of_class reads the same table at
class_id(v); sstab_of_class_id reads it at the class of c_max - U key,
and sstab_of_class, superstables, criticals and is_z_superstable are
read off it.  fill_criticals fills the whole table by one odometer walk
of the class ids instead: each step stabilizes a critical plus a small
superstable, which settles in fewer sweeps than a start from c0.
Nothing scans the stable box prod [0, M_ii).

The table is packed: a class id is one integer in the mixed radix
diag(D) (ids), and a critical one integer in radix c_max + 1 (crits),
whose packing checks 0 <= crit <= c_max.  Misses are kept in a dict by
packed id, so a large det M allocates nothing per class it never asks
for; fill_criticals walks the ids in their packed order 0, 1, 2, ...,
so the full table is one flat sequence indexed by id.  In radix
c_max + 1 the superstable c_max - crit packs to pack(c_max) - pack(crit).
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from operator import add, mod, mul, sub

from . import lattices
from .linalg import (
    adjugate,
    mat,
    mat_is_integral,
    mat_mul,
    mat_shape,
    mat_vec,
    vec_sub,
)
from .rows import Radix, int_array


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


class MMatrix:
    """An M-matrix with its adjugate, Smith data, c_max and a table of
    the criticals found so far.  The table holds one integer per
    critical, packed in radix c_max + 1 (crits), keyed by the class id
    packed in radix diag(D) (ids): a dict of the ids looked up so far,
    and a flat sequence indexed by id (rows.int_array) once
    fill_criticals has found them all.

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
        self._columns = tuple(enumerate(zip(*m)))
        self._superstables = None
        self._crit_by_class = {}

    @cached_property
    def ids(self):
        """The rows.Radix of the class ids, diag(D): the walk of the class
        ids visits the packed ids 0, 1, 2, ... in turn."""
        return Radix((0,) * self.n, [self.snf.D[i][i] for i in range(self.n)])

    @cached_property
    def crits(self):
        """The rows.Radix of the stable configurations, c_max + 1."""
        return Radix((0,) * self.n, [c + 1 for c in self.c_max])

    # -- basic dynamics ----------------------------------------------------

    def fire(self, c, i):
        """Fire site i: subtract column i."""
        if not 0 <= i < self.n:
            raise IndexError("site index out of range")
        return tuple(c[r] - self.m[r][i] for r in range(self.n))

    def stabilize(self, c):
        """Fire ready sites until none is ready.

        Each sweep fires site i floor(c_i / M_ii) times in one step.  That
        is legal because firing other sites only adds chips to i (the
        off-diagonal entries are <= 0).  The result does not depend on the
        firing order (the abelian property), so it is the one that firing
        one site at a time gives.
        """
        c = list(c)
        if c and min(c) < 0:
            raise ValueError("stabilize needs an effective configuration")
        sites = range(self.n)
        fired = True
        while fired:
            fired = False
            for i, col in self._columns:
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

        Accepts arbitrary integer vectors, negatives included, and reads
        crit_of_class_id at v's class id.  The critical is stabilize(a)
        for a = v + k b, where b = M z_b for z_b the least z >= 0 with
        Mz >= 1 (adj(M) 1 is one such z, since adj(M) >= 0) and k >= 0 is
        the least integer with a >= c_max, and it is computed as
        stabilize(c0) for c0 = v - M z with z = ceil(M^-1 (v - c_max)),
        which needs no k.

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
        return self.crit_of_class_id(self.class_id(v))

    def crit_of_class_id(self, key):
        """The critical of the class whose class id is key, from the table,
        or on a miss from one stabilization (_stabilized_start)."""
        i = self.ids.pack(key)
        try:
            return self.crits.unpack(self._crit_by_class[i])
        except KeyError:
            crit = self._stabilized_start(key)
            self._crit_by_class[i] = self.crits.pack(crit)
            return crit

    def packed_critical(self, i):
        """crit_of_class_id at the class id that packs to i (ids), packed
        (crits)."""
        try:
            return self._crit_by_class[i]
        except KeyError:
            crit = self._crit_by_class[i] = self.crits.pack(self._stabilized_start(self.ids.unpack(i)))
            return crit

    def _stabilized_start(self, key):
        """The critical of class id key, stabilized from c0; no table.

        U key lies in that class, since class_id(U r) = r, and c0 is read
        off key.  Write a = adj (c_max - U key) and t = a mod det.  Then
        z = ceil(adj (U key - c_max) / det) = -(a - t) / det, and
        M a = det (c_max - U key) since M adj = det I, so
        c0 = U key - M z = c_max - M t / det, and e = t / det.  The digits
        with d_i = 1 lead and are 0, so adj U key is the product of the
        trailing columns of adj U with the trailing digits of key, and a
        miss costs that product, M t and one stabilization.  adj c_max and
        those columns are built on the first miss."""
        det = self.det
        top, first, rows = self._start
        tail = key[first:]
        t = [(x - sum(map(mul, row, tail))) % det for x, row in zip(top, rows)]
        return self.stabilize(x - sum(map(mul, row, t)) // det
                              for x, row in zip(self.c_max, self.m))

    @cached_property
    def _start(self):
        """(adj c_max, the first digit with d_i > 1, the rows of adj U over
        that digit and the ones after it), entries mod det, built on the
        first miss, so a matrix that never misses skips it."""
        det, d = self.det, self.snf.D
        first = next((i for i in range(self.n) if d[i][i] > 1), self.n)
        rows = tuple(tuple(x % det for x in row[first:]) for row in mat_mul(self.adj, self.snf.U))
        return tuple(x % det for x in mat_vec(self.adj, self.c_max)), first, rows

    def sstab_of_class(self, v):
        """The unique superstable equivalent to v mod M Z^n.  Accepts
        arbitrary integer vectors."""
        return self.sstab_of_class_id(self.class_id(v))

    def sstab_of_class_id(self, key):
        """The superstable of class id key: c_max minus the critical of the
        class of c_max - U key, id(c_max) - key mod diag(D)."""
        id_max, dims = self._id_max
        return tuple(map(sub, self.c_max, self.crit_of_class_id(tuple(map(mod, map(sub, id_max, key), dims)))))

    def packed_superstable(self, i):
        """The superstable of the class whose class id packs to i, packed:
        c_max minus the critical of the class id(c_max) - id, which in
        radix c_max + 1 is pack(c_max) minus the packed critical."""
        id_max, dims = self._id_max
        dual = map(mod, map(sub, id_max, self.ids.unpack(i)), dims)
        return self.crits.total - 1 - self.packed_critical(sum(map(mul, dual, self.ids.weights)))

    @cached_property
    def _id_max(self):
        """(id(c_max), diag(D)), built on first read."""
        return self.class_id(self.c_max), tuple(self.snf.D[i][i] for i in range(self.n))

    # -- enumeration and superstability ------------------------------------

    def fill_criticals(self):
        """Fill the table with the critical of every class by one odometer
        walk of the class ids, unless it is filled already.  The
        enumeration cap bounds the walk before its first step.

        Stepping digit k stabilizes the critical where that digit last
        started plus g_k, the superstable of the class of U e_k (id e_k).
        Adding chips to a critical and stabilizing gives a critical (the
        proof in crit_of_class), the sum lies in class id + e_k, and each
        class holds one critical.  The work is |det M| - 1 such steps plus
        one start from c0 for id 0 and for each g_k."""
        det, n = self.det, self.n
        if not isinstance(self._crit_by_class, dict):
            return
        keys = lattices.walk_class_ids(self.snf)
        id_max, dims = self._id_max     # g_k = c_max - crit(id(c_max) - e_k)
        steps = [d > 1 and vec_sub(self.c_max, self._stabilized_start(
                     id_max[:k] + ((id_max[k] - 1) % d,) + id_max[k + 1:]))
                 for k, d in enumerate(dims)]
        starts = [self._stabilized_start(next(keys))] * n     # per digit, the critical where it started
        pack = self.crits.pack
        table = [pack(starts[0])]       # the walk visits the ids 0, 1, 2, ... in turn
        for key in keys:
            k = n - 1
            while not key[k]:
                k -= 1
            crit = self.stabilize(map(add, starts[k], steps[k]))
            table.append(pack(crit))
            starts[k:] = repeat(crit, n - k)
        if len(table) != det:
            raise RuntimeError(f"found {len(table)} criticals, expected |det M| = {det}")
        self._crit_by_class = int_array(table, self.crits.total)

    def superstables(self):
        """All z-superstable configurations in lexicographic order: c_max
        minus the critical of each class, from fill_criticals.  In radix
        c_max + 1 that is top - crit for top = pack(c_max), and the packed
        integers sort as the configurations do."""
        if self._superstables is None:
            self.fill_criticals()
            top = self.crits.total - 1
            self._superstables = tuple(map(self.crits.unpack,
                                           sorted(top - c for c in self._crit_by_class)))
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
