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
floor(x) = p // |det L| and the numerators of {x} are p % |det L|.  A
library row keeps the split: rows.PairRow holds the configuration, the floor,
the fractional numerators and |det L|, and its num, preimage and frac
properties are derived only when a caller reads them.

The rows themselves live in the pair's one row cache, rows (a
rows.PairRows, built on first read): one packed integer per row, built
by one walk of the classes of L, whose class tables stay with the rows
for the pair's life, since a row's position reads them; only the per-fr
transfers are released, once both kinds are cached.
enumerate_pair_superstables and enumerate_pair_criticals build their
PairRow objects from it on each call.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

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
from .rows import PairRows


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

    @cached_property
    def rows(self):
        """The pair's one row cache, a rows.PairRows, built on first read."""
        return PairRows(self)

    def enumerate_pair_superstables(self):
        """The |det L| superstable rows, ascending lexicographic by
        configuration.  Each row is a PairRow, built from the packed row."""
        return self.rows.pair_rows("superstable")

    def enumerate_pair_criticals(self):
        return self.rows.pair_rows("critical")
