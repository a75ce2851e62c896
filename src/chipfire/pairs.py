"""Chip-firing pairs (L, M).

L is any invertible integer matrix (the firing rule) and M is an
M-matrix (the validity geometry).  Valid configurations and their
preimages:

    S+ = { c in Z^n : M L^-1 c >= 0 }
    R+ = { x >= 0 : L M^-1 x is integral }

to_preimage(c) = M L^-1 c and to_config(x) = L M^-1 x are mutually
inverse bijections between S+ and R+.  Site i fires in preimage space by
subtracting column i of M; only nonnegativity can break, because the
image of M e_i under L M^-1 is L e_i, which is always integral.

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
frac properties are derived only when a caller reads them, as are the
rational views lm_inv and ml_inv.  The class walk steps
the preimage numerators through the residue box one column of n_ml U at
a time (lattices.walk_class_reps), and both sweeps share its split
into (floor, fractional numerators), walked once per pair.
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
    mat_over,
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
        return over(self.frac_num, self.den, self.floor)

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
        self._classes = None    # ((floor, frac numerators), ...) per class of L
        self._rows = {}         # kind -> sorted PairRows
        self._mu = {}       # {s: (mu case, mu(s))}, filled floor by floor in duality
        self._zero_lattices = {}    # side -> (Lambda, quotient), filled by frackets

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

    # -- rational views, built on demand for printing ----------------------------

    @property
    def lm_inv(self):
        return mat_over(self.n_lm, self.det_m)

    @property
    def ml_inv(self):
        return mat_over(self.n_ml, self.den_l)

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

    def rplus_member(self, x):
        return self.rplus_numerators(x) is not None

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

    # -- dynamics in preimage space ------------------------------------------

    def ready_to_fire(self, x, i):
        p = self.rplus_numerators(x)
        if p is None:
            raise ValueError("not a member of R+")
        # firing subtracts column i of M, whose transfer L e_i is integral
        return all(q >= self.den_l * m for q, m in zip(p, self.m_column(i)))

    def m_column(self, i):
        if not 0 <= i < self.n:
            raise IndexError("site index out of range")
        return tuple(self.m.m[r][i] for r in range(self.n))

    def stabilize_rplus(self, x):
        """Fire ready sites until none is ready.

        Site i is ready iff x_i >= M_ii iff floor(x_i) >= M_ii, and firing
        keeps {x}, so this is M's stabilization of floor(x) plus {x}.
        """
        p = self.rplus_numerators(x)
        if p is None:
            raise ValueError("not a member of R+")
        fl, fr = self.split(p)
        return over(self.join(self.m.stabilize(fl), fr), self.den_l)

    def stabilize_splus(self, c):
        # configuration-side stabilization by transfer through R+
        if not self.splus_member(c):
            raise ValueError("not a member of S+")
        fl, fr = self.split(self.preimage_numerators(c))
        return self.config_of_numerators(self.join(self.m.stabilize(fl), fr))

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

    def _split_classes(self):
        """(floor, fractional numerators) of the preimage of one
        representative per class of Z^n / L Z^n, in class-walk order,
        walked once and shared by both sweeps."""
        if self._classes is None:
            walk = lattices.walk_class_reps(self.l_snf, image=self.n_ml)
            self._classes = tuple(map(self.split, walk))
        return self._classes

    def _enumerate(self, kind):
        if kind not in self._rows:
            lookup = self.m.sstab_of_class if kind == "superstable" else self.m.crit_of_class
            d = self.den_l
            rows = []
            for fl, fr in self._split_classes():
                base = lookup(fl)
                p = self.join(base, fr)
                config = self.config_of_numerators(p)
                if config is None or any(q < 0 for q in base):
                    raise RuntimeError(f"the class with preimage floor {fl} gave no valid "
                                       f"{kind} preimage")
                rows.append(PairRow(config, base, fr, d))
            rows.sort()
            if len({r.config for r in rows}) != self.den_l:
                raise RuntimeError(f"{kind} rows are not |det L| distinct configurations")
            self._rows[kind] = tuple(rows)
        return self._rows[kind]

    def enumerate_pair_superstables(self):
        """The |det L| superstable rows, ascending lexicographic by
        configuration.  Each row is a PairRow."""
        return self._enumerate("superstable")

    def enumerate_pair_criticals(self):
        return self._enumerate("critical")
