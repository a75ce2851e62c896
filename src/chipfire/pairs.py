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
"""

from __future__ import annotations

from collections import namedtuple

from . import lattices
from .linalg import (
    floor_frac_split,
    mat,
    mat_det,
    mat_inverse,
    mat_is_integral,
    mat_mul,
    mat_vec,
    vec_add,
    vec_is_integral,
    vec_sub,
)
from .mmatrix import MMatrix

PairRow = namedtuple("PairRow", "config preimage floor frac")
Classification = namedtuple("Classification", "is_superstable is_critical")


class ChipFiringPair:
    """(L, M) with cached transfer matrices and Smith data for L."""

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
        self.l_inv = mat_inverse(self.l)
        self.lm_inv = mat_mul(self.l, self.m.inverse)
        self.ml_inv = mat_mul(self.m.m, self.l_inv)
        assert mat_mul(self.lm_inv, self.m.m) == self.l
        assert mat_mul(self.ml_inv, self.l) == self.m.m
        self.l_snf = lattices.snf(self.l)
        self.l_group = lattices.quotient_group(self.l, self.l_snf)
        self._rows = {}
        self._mu = None     # {s: (mu case, mu(s))}, filled by duality._mu_table
        self._zero_lattices = {}    # side -> (Lambda, quotient), filled by frackets

    @property
    def det_m(self):
        return self.m.det

    # -- membership and transfer -------------------------------------------

    def rplus_member(self, x):
        return all(q >= 0 for q in x) and vec_is_integral(mat_vec(self.lm_inv, x))

    def splus_member(self, c):
        return vec_is_integral(c) and all(q >= 0 for q in mat_vec(self.ml_inv, c))

    def to_preimage(self, c):
        return mat_vec(self.ml_inv, c)

    def to_config(self, x):
        if not self.rplus_member(x):
            raise ValueError("not a member of R+")
        return mat_vec(self.lm_inv, x)

    def class_id(self, c):
        return lattices.class_id(self.l, c, self.l_snf)

    # -- dynamics in preimage space ------------------------------------------

    def ready_to_fire(self, x, i):
        if not self.rplus_member(x):
            raise ValueError("not a member of R+")
        fired = vec_sub(x, self.m_column(i))
        assert vec_is_integral(mat_vec(self.lm_inv, fired))
        return all(q >= 0 for q in fired)

    def m_column(self, i):
        if not 0 <= i < self.n:
            raise IndexError("site index out of range")
        return tuple(self.m.m[r][i] for r in range(self.n))

    def stabilize_rplus(self, x):
        """Fire the lowest-index ready site until none is ready.

        Site i is ready iff x_i >= M_ii iff floor(x_i) >= M_ii, and firing
        keeps {x}, so this is M's stabilization of floor(x) plus {x}.
        """
        if not self.rplus_member(x):
            raise ValueError("not a member of R+")
        fl, fr = floor_frac_split(x)
        return vec_add(self.m.stabilize(fl), fr)

    def stabilize_splus(self, c):
        # configuration-side stabilization by transfer through R+
        if not self.splus_member(c):
            raise ValueError("not a member of S+")
        return mat_vec(self.lm_inv, self.stabilize_rplus(self.to_preimage(c)))

    # -- classification and enumeration ---------------------------------------

    def classify(self, c):
        """Superstable / critical status of c in S+ via the floor of its
        preimage."""
        if not self.splus_member(c):
            raise ValueError("not a member of S+")
        fl, _ = floor_frac_split(self.to_preimage(c))
        return Classification(
            is_superstable=self.m.sstab_of_class(fl) == fl,
            is_critical=self.m.crit_of_class(fl) == fl,
        )

    def _enumerate(self, kind, cap):
        key = (kind, cap)
        if key not in self._rows:
            lookup = self.m.sstab_of_class if kind == "superstable" else self.m.crit_of_class
            rows = []
            for rep in lattices.enumerate_class_reps(self.l, self.l_snf, cap=cap):
                x = self.to_preimage(rep)
                fl, fr = floor_frac_split(x)
                base = lookup(fl)
                preimage = vec_add(base, fr)
                config = mat_vec(self.lm_inv, preimage)
                if not vec_is_integral(config) or any(q < 0 for q in preimage):
                    raise RuntimeError(f"class rep {rep} gave no valid {kind} preimage")
                rows.append(PairRow(config=config, preimage=preimage, floor=base, frac=fr))
            rows.sort(key=lambda r: r.config)
            if len({r.config for r in rows}) != abs(self.det_l):
                raise RuntimeError(f"{kind} rows are not |det L| distinct configurations")
            self._rows[key] = tuple(rows)
        return self._rows[key]

    def enumerate_pair_superstables(self, cap=lattices.DEFAULT_ENUMERATION_CAP):
        """The |det L| superstable rows, ascending lexicographic by
        configuration.  Each row carries (config, preimage, floor, frac)."""
        return self._enumerate("superstable", cap)

    def enumerate_pair_criticals(self, cap=lattices.DEFAULT_ENUMERATION_CAP):
        return self._enumerate("critical", cap)
