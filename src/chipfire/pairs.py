"""Chip-firing pairs (L, M).

L is any invertible integer matrix (the firing rule) and M is an
M-matrix (the validity geometry).  Valid configurations and their
preimages:

    S+ = { c in Z^n : M L^-1 c >= 0 }
    R+ = { x >= 0 : L M^-1 x is integral }

to_preimage(c) = M L^-1 c and to_config(x) = L M^-1 x are mutually
inverse bijections between S+ and R+.  Firing site i of the pair
subtracts L e_i from c, that is column i of M from its preimage x: the
fractional part {x} is kept, and site i is ready iff floor(x)_i >= M_ii,
so the pair stabilizes c by M.stabilize on floor(x) plus {x}.

A configuration c in S+ is superstable (critical) for the pair iff
floor(M L^-1 c) is z-superstable (critical) for M.  Enumeration sweeps
the classes of Z^n / L Z^n: for a class representative with preimage x,
the superstable preimage of that class is sstab_of_class(M, floor(x)) + {x}
and the critical preimage is crit_of_class(M, floor(x)) + {x}.  The
fractional part {x} is an invariant of the class, which makes the sweep
well defined.

Both transfers are carried as integer numerator matrices over a positive
denominator, each built and checked on first read: M L^-1 = n_ml / |det L|
with n_ml = +-M adj(L), and L M^-1 = n_lm / det M with n_lm = L adj(M).
A preimage x is carried as its numerators p = |det L| x, so
floor(x) = p // |det L| and the numerators of {x} are p % |det L|.  An
enumerated row keeps the split: PairRow holds the configuration, the
floor, the fractional numerators and |det L|, and its num, preimage and
frac properties are derived only when a caller reads them.

The class walk steps the preimage numerators p, stacked over Uinv_M p,
through the residue box one column at a time (lattices.walk_class_reps).
A class keeps its fractional numerators fr = p mod |det L| and the
M-class id of its floor, (Uinv_M p - Uinv_M fr) / |det L| mod diag(D_M),
with Uinv_M fr and n_lm fr computed once per distinct fr, and the
classes are grouped by that id.  The rows are built one class of M at a
time: a group's base, the critical of its id (or, for superstables,
c_max minus the critical of id(c_max) - id, the class of c_max - floor),
and |det L| n_lm base are built once, and a row's configuration is that
sum plus n_lm fr over det M |det L|, so no row takes a matrix-vector
product.  When |det L| >= det M, M fills its table of criticals by one
walk of K(M) first.  Both sweeps share the walk and the groups, which
are released once both kinds of rows are cached.  The rows of each kind
are cached in group order, the pair's one row cache, and sorted on each
ask; both kinds visit the groups in one order, so duality pairs the
superstable and the critical of each class of L by position, without a
lookup.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import repeat
from operator import add, floordiv, mod, sub

from . import lattices
from .linalg import (
    adjugate,
    ensure,
    identity,
    mat,
    mat_det,
    mat_is_integral,
    mat_mul,
    mat_scale,
    mat_vec,
    numerators,
    over,
    vec_is_integral,
)
from .mmatrix import MMatrix


class PairRow(namedtuple("PairRow", "config floor frac_num den")):
    """One enumerated row: the configuration, the floor of its preimage
    and the numerators of the preimage's fractional part over the
    denominator den = |det L|.  The preimage numerators num, the preimage
    and its fractional part are derived when read."""

    __slots__ = ()

    @property
    def num(self):
        d = self.den
        return tuple(f * d + r for f, r in zip(self.floor, self.frac_num))

    @property
    def preimage(self):
        return over(self.num, self.den)

    @property
    def frac(self):
        return over(self.frac_num, self.den)


Classification = namedtuple("Classification", "is_superstable is_critical")


class ChipFiringPair:
    """(L, M) with the Smith data for L and, built on first read, the
    adjugate of L and the transfer numerators."""

    def __init__(self, l_grid, m_grid):
        self.l = mat(l_grid)
        if not mat_is_integral(self.l):
            raise ValueError("L must be an integer matrix")
        self.m = m_grid if isinstance(m_grid, MMatrix) else MMatrix(m_grid)
        if len(self.l) != self.m.n or any(len(r) != self.m.n for r in self.l):
            raise ValueError("L and M must be square of equal size")
        self.n = self.m.n
        self.det_l = mat_det(self.l)
        if self.det_l == 0:
            raise ValueError("L must be invertible")
        # a signed L can have det L < 0; the preimage denominator is |det L|
        self.den_l = abs(self.det_l)
        self.l_snf = lattices.snf(self.l, self.det_l)
        self.l_group = lattices.quotient_group(self.l_snf)
        self._classes = None    # the groups of the classes of L, while a kind is uncached
        self._rows = {}         # kind -> PairRows in group order
        self._zero_quotients = {}   # side -> K(side)/F0 as an AbelianGroup; frackets fills both at once

    @property
    def det_m(self):
        return self.m.det

    # -- adjugate and transfers, each built and checked on first read --------------
    # (a critical-group scan reads only l_group and never builds them)

    @cached_property
    def adj_l(self):
        det, adj = adjugate(self.l)
        ensure(det == self.det_l, "det from the adjugate elimination = det L")
        ensure(mat_mul(self.l, adj) == mat_scale(self.det_l, identity(self.n)),
               "L adj(L) = det L I")
        return adj

    @cached_property
    def n_lm(self):
        n_lm = mat_mul(self.l, self.m.adj)
        ensure(mat_mul(n_lm, self.m.m) == mat_scale(self.det_m, self.l), "n_lm M = det M L")
        return n_lm

    @cached_property
    def n_ml(self):
        n_ml = mat_mul(self.m.m, mat_scale(self.den_l // self.det_l, self.adj_l))
        ensure(mat_mul(n_ml, self.l) == mat_scale(self.den_l, self.m.m), "n_ml L = |det L| M")
        return n_ml

    # -- numerator transfers ---------------------------------------------------------

    def preimage_numerators(self, c):
        """|det L| M L^-1 c for an integer vector c."""
        return mat_vec(self.n_ml, c)

    def config_of_numerators(self, p):
        """L M^-1 (p / |det L|), or None when it is not integral."""
        den = self.det_m * self.den_l
        c = mat_vec(self.n_lm, p)
        if any(q % den for q in c):
            return None
        return tuple(q // den for q in c)

    def rplus_numerators(self, x):
        """The numerators |det L| x of a member x of R+, or None."""
        p = numerators(x, self.den_l)
        if p is None or any(q < 0 for q in p) or self.config_of_numerators(p) is None:
            return None
        return p

    def split(self, p):
        """(floor, numerators of the fractional part) of p / |det L|."""
        d = self.den_l
        return tuple(q // d for q in p), tuple(q % d for q in p)

    def join(self, fl, fr):
        """Numerators of fl + fr / |det L|."""
        d = self.den_l
        return tuple(f * d + r for f, r in zip(fl, fr))

    # -- membership and transfer -------------------------------------------

    def splus_member(self, c):
        return vec_is_integral(c) and all(q >= 0 for q in self.preimage_numerators(c))

    def to_preimage(self, c):
        return over(self.preimage_numerators(c), self.den_l)

    def to_config(self, x):
        p = self.rplus_numerators(x)
        if p is None:
            raise ValueError("not a member of R+")
        return self.config_of_numerators(p)

    def class_id(self, c):
        return lattices.class_id(self.l_snf, c)

    # -- classification and enumeration ---------------------------------------

    def classify(self, c):
        """Superstable / critical status of c in S+ via the floor of its
        preimage."""
        if not self.splus_member(c):
            raise ValueError("not a member of S+")
        fl, _ = self.split(self.preimage_numerators(c))
        return Classification(
            is_superstable=self.m.sstab_of_class(fl) == fl,
            is_critical=self.m.crit_of_class(fl) == fl,
        )

    def _class_tables(self):
        """The groups, shared by both sweeps until both kinds of rows are
        cached: the classes of L grouped by the M-class id of their
        preimage floor, in order of first visit, each class as the entry
        (fr, n_lm fr) of its fractional numerators fr.  Classes with one
        fr share one entry tuple, built when that fr is first seen."""
        if self._classes is None:
            d, n, dec = self.den_l, self.n, self.m.snf
            dims = tuple(dec.D[i][i] for i in range(n))
            seen = {}       # fr -> (Uinv_M fr, (fr, n_lm fr))
            groups = {}
            image = self.n_ml + mat_mul(dec.Uinv, self.n_ml)
            for v in lattices.walk_class_reps(self.l_snf, image=image):
                fr = tuple(map(d.__rmod__, v[:n]))
                found = seen.get(fr)
                if found is None:
                    found = seen[fr] = (mat_vec(dec.Uinv, fr), (fr, mat_vec(self.n_lm, fr)))
                u, entry = found
                fl_id = map(floordiv, map(sub, v[n:], u), repeat(d))     # Uinv_M floor
                groups.setdefault(tuple(map(mod, fl_id, dims)), []).append(entry)
            self._classes = groups
        return self._classes

    def _walk_rows(self, kind):
        """The kind's rows in group order: both kinds visit the groups of
        _class_tables in one order, so the superstable and the critical at
        one position lie in the same class of L.

        The rows are built one class of M at a time.  A floor of M-class
        id key gives the critical base M.crit_of_class_id(key) and the
        superstable base M.sstab_of_class_id(key).  A group builds its
        base and |det L| n_lm base once; a row's configuration is
        (|det L| n_lm base + n_lm fr) / (det M |det L|).  Both bases read
        M's table of criticals, filled by M.fill_criticals first when
        |det L| >= det M, since the rows then touch most classes of M;
        otherwise each group's miss costs one stabilization.  A negative
        base, a configuration that is not integral, or a kind without
        |det L| distinct configurations raises RuntimeError.  The groups
        are released once both kinds are cached.
        """
        if kind not in self._rows:
            groups = self._class_tables()
            m, d, n_lm = self.m, self.den_l, self.n_lm
            den = self.det_m * d
            if d >= self.det_m:
                m.fill_criticals()
            base_of = m.sstab_of_class_id if kind == "superstable" else m.crit_of_class_id
            rows = []
            for key, members in groups.items():
                base = base_of(key)
                top = tuple(d * q for q in mat_vec(n_lm, base))
                negative = min(base) < 0
                for fr, n_fr in members:
                    num = tuple(map(add, top, n_fr))
                    if negative or any(map(den.__rmod__, num)):
                        raise RuntimeError(f"the class of L with fractional numerators {fr} "
                                           f"gave no valid {kind} preimage")
                    rows.append(PairRow(tuple(map(den.__rfloordiv__, num)), base, fr, d))
            if len({r.config for r in rows}) != d:
                raise RuntimeError(f"{kind} rows are not |det L| distinct configurations")
            self._rows[kind] = tuple(rows)
            if len(self._rows) == 2:
                self._classes = None
        return self._rows[kind]

    def enumerate_pair_superstables(self):
        """The |det L| superstable rows, ascending lexicographic by
        configuration.  Each row is a PairRow."""
        return tuple(sorted(self._walk_rows("superstable")))

    def enumerate_pair_criticals(self):
        return tuple(sorted(self._walk_rows("critical")))
