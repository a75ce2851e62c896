"""Duality between superstable and critical configurations of a pair.

The map is built from an involution mu on the z-superstables of M:

    mu(s) = s                      if {L M^-1 (2s)} = {L M^-1 c_max}
    mu(s) = sstab_M(c_max - s)     otherwise

where c_max = diag(M) - 1 and sstab_M(v) is the unique z-superstable in
the M-class of v.  The identity case triggers exactly when c_max - 2s
lies in the lattice Z^n intersect M L^-1 Z^n, i.e. when s and c_max - s
share an M-class *and* the correction c_max - 2s transfers integrally.

On preimages the duality and its inverse are

    D(x)      = c_max - mu(floor(x)) + {x}
    D^-1(y)   = mu(c_max - floor(y)) + {y}

D sends superstable preimages to critical preimages bijectively; on
configurations it maps the superstables of (L, M) onto the criticals.
When L = M the transfer L M^-1 is the identity, so {2s} and {c_max} are
both zero: every s is an identity case and D(x) = c_max - x, the
classical complement.  In the dual case D(x) = crit_M(floor(x)) + {x},
the critical of x's own class of L, and in the identity case
D(x) = (c_max - floor(x)) + {x}, so DualRows pairs the packed rows of
each class of L by position and builds an identity row's dual from the
row, with no lookup.  Its rows are the one table of D: read by critical
they are the table of D^-1 as well.  DualRows reads the pair's packed
rows a list at a time; duality_rows and duality_table build their
PairRows and records from it on each call.  duality and duality_inverse evaluate the
formulas above at one point, recomputing mu there, as a check
independent of that table.

Fixed points of mu are the s with {L M^-1 (2s)} = {L M^-1 c_max}.  The
test depends only on the class of s in K(M), so fixed_points walks K(M)
once, tests each class with vector arithmetic and stabilizes only the
classes that pass; it never enumerates the superstables of M.  Their
count is either 0 or |F0_M| * d where F0_M is the zero fracket of M for
the pair and d counts the elements of order <= 2 in K(M) / F0_M.  That
quotient is the group of keys {L M^-1 v}, so the order of [c_max] there
is the order of its key, ord [c_max] = flcm(L M^-1 c_max).  If it is odd
the count is never zero; if the quotient is cyclic and the order is
even, the count is nonzero iff |quotient| / ord is even.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, repeat
from operator import add, mul, ne, sub

from . import lattices
from .linalg import ensure, flcm, mat_vec, over, vec_sub
from .pairs import ChipFiringPair
from .rows import PairRow


def _identity_test(pair: ChipFiringPair):
    """mu's identity test as a predicate on v = n_lm s.  The identity
    case {L M^-1 (2s)} = {L M^-1 c_max} holds iff L M^-1 (2s - c_max)
    is integral, i.e. iff 2v - n_lm c_max = 0 mod det M.  It depends only
    on the class of s in K(M), since n_lm M z = det M L z.  At the floor
    s of a pair row with fractional numerators fr, the row's integral
    configuration n_lm (|det L| s + fr) / (det M |det L|) gives
    v = -(n_lm fr) / |det L| mod det M, so the test holds iff det M |det L|
    divides w = |det L| n_lm c_max + 2 n_lm fr: DualRows' form."""
    det = pair.det_m
    target = mat_vec(pair.n_lm, pair.m.c_max)

    def test(v):
        for q, t in zip(v, target):
            if (q + q - t) % det:
                return False
        return True

    return test


def _mu(pair: ChipFiringPair, s):
    """(case, mu(s)) for a z-superstable s of M: one transfer, and a
    critical lookup in the dual case."""
    if _identity_test(pair)(mat_vec(pair.n_lm, s)):
        return "identity", s
    m = pair.m
    return "dual", vec_sub(m.c_max, m.crit_of_class(s))


def _is_z_superstable(pair: ChipFiringPair, s):
    return not any(x < 0 for x in s) and pair.m.is_z_superstable(s)


def _mu_entry(pair: ChipFiringPair, s):
    s = tuple(s)
    if not _is_z_superstable(pair, s):
        raise ValueError("mu is only defined on z-superstable configurations")
    return _mu(pair, s)


def mu_case(pair: ChipFiringPair, s):
    """'identity' or 'dual', deciding which branch of mu applies to s."""
    return _mu_entry(pair, s)[0]


def involution_mu(pair: ChipFiringPair, s):
    return _mu_entry(pair, s)[1]


def _apply(pair: ChipFiringPair, x, inverse, what):
    """D(x), or D^-1(x) when inverse, from the point formulas."""
    p = pair.rplus_numerators(x)
    if p is not None:
        c_max = pair.m.c_max
        fl, fr = pair.split(p)
        # fl is critical iff c_max - fl is superstable
        key = vec_sub(c_max, fl) if inverse else fl
        if _is_z_superstable(pair, key):
            image = _mu(pair, key)[1]
            return over(pair.join(image if inverse else vec_sub(c_max, image), fr), pair.den_l)
    raise ValueError(f"not a {what} preimage")


def duality(pair: ChipFiringPair, x):
    """Send a superstable preimage x to the matching critical preimage."""
    return _apply(pair, x, False, "superstable")


def duality_inverse(pair: ChipFiringPair, y):
    """Send a critical preimage y back to its superstable preimage."""
    return _apply(pair, y, True, "critical")


class DualRows:
    """The duality table on packed rows: rows holds the superstable rows
    ascending, and columns and records read a list of them as
    RowFields does, each with its mu case and its dual critical's
    fields; duals gives the packed configuration of each dual.

    D(x) = c_max - mu(floor(x)) + {x} needs mu's case only at the floors
    of the superstable rows, and the case is decided once per fractional
    part fr: identity iff det M |det L| divides
    w = |det L| n_lm c_max + 2 n_lm fr (_identity_test).  The two rows of
    each class of L share a position in group order.  In the dual case
    D(x) = crit(floor(x)) + {x}, the critical row at x's position; in
    the identity case D(x) = (c_max - floor(x)) + {x}, whose
    configuration is w / (det M |det L|) minus x's, so packed it is
    w . weights / den - 2 shift minus x's packed configuration.  Raises
    RuntimeError unless the duals are the critical configurations: D
    must be a bijection onto the criticals."""

    def __init__(self, pair: ChipFiringPair):
        n_lm, d, c_max, rows = pair.n_lm, pair.den_l, pair.m.c_max, pair.rows
        den = pair.det_m * d
        box = rows.box
        self.den, self.c_max, self.box, self.tables = d, c_max, box, rows.tables
        self.floors = rows.walk("superstable")[1]
        self.criticals, self.critical_floors = rows.walk("critical")
        top = [d * q for q in mat_vec(n_lm, c_max)]
        shifted = sum(map(mul, top, box.weights)) - 2 * den * box.shift
        self.sums = []      # per fr: w . weights / den - 2 shift, or None in the dual case
        for n_fr in map(mat_vec, repeat(n_lm), self.tables.frs):
            ensure(not any(q % d for q in n_fr), "n_lm {x} = 0 mod |det L| at an integral row")
            identity = not any((t + 2 * q) % den for t, q in zip(top, n_fr))
            self.sums.append((shifted + 2 * sum(map(mul, n_fr, box.weights))) // den if identity else None)
        self.rows = rows.sorted("superstable")
        criticals = map(d.__rfloordiv__, rows.sorted("critical"))
        if any(map(ne, sorted(self.duals(self.rows)), criticals)):
            raise RuntimeError("the duals are not the critical configurations")

    def duals(self, rows):
        """The packed configuration of each row's dual, in a list."""
        d, fr_index, sums, criticals = self.den, self.tables.fr_index, self.sums, self.criticals
        duals = []
        for row in rows:
            config, pos = divmod(row, d)
            total = sums[fr_index[pos]]
            duals.append(criticals[pos] // d if total is None else total - config)
        return duals

    def columns(self, rows):
        """(superstable configurations, superstable floors, fractional
        numerators, mu cases, dual configurations, dual floors) of the
        rows, each a list in row order."""
        d, tables, c_max, criticals = self.den, self.tables, self.c_max, self.criticals
        configs = [row // d for row in rows]
        positions = [row % d for row in rows]
        groups = list(map(bisect_right, repeat(tables.ends), positions))
        indices = list(map(tables.fr_index.__getitem__, positions))
        totals = list(map(self.sums.__getitem__, indices))
        floors = list(map(self.floors.__getitem__, groups))
        duals = [criticals[pos] // d if total is None else total - config
                 for config, pos, total in zip(configs, positions, totals)]
        dual_floors = [c_floor if total is None else tuple(map(sub, c_max, floor))
                       for c_floor, floor, total in zip(map(self.critical_floors.__getitem__, groups),
                                                        floors, totals)]
        return (self.box.unpack_all(configs), floors, list(map(tables.frs.__getitem__, indices)),
                ["dual" if total is None else "identity" for total in totals],
                self.box.unpack_all(duals), dual_floors)

    def records(self, rows):
        """(superstable fields, mu case, dual fields) of each row."""
        configs, floors, frs, cases, dual_configs, dual_floors = self.columns(rows)
        return zip(zip(configs, floors, frs), cases, zip(dual_configs, dual_floors, frs))


def duality_rows(pair: ChipFiringPair):
    """(superstable row, mu case, dual critical row) per superstable
    configuration, ascending lex, each row a PairRow built from the
    packed rows by DualRows, which raises RuntimeError unless the duals
    are the critical configurations."""
    table = DualRows(pair)
    configs, floors, frs, cases, dual_configs, dual_floors = table.columns(table.rows)
    d = repeat(pair.den_l)
    return list(zip(map(PairRow, configs, floors, frs, d), cases, map(PairRow, dual_configs, dual_floors, frs, d)))


def duality_table(pair: ChipFiringPair):
    """One row per superstable configuration, ascending lex, giving the
    dual critical on both the configuration and preimage sides, with
    rational preimages equal to the rows' PairRow.preimage, read from
    the packed rows by DualRows.  Each entry is built once per distinct
    preimage numerator of the table and shared by every row that
    carries it.  Raises RuntimeError if the rows are not a bijection onto
    the criticals."""
    table = DualRows(pair)
    configs, floors, frs, cases, dual_configs, dual_floors = table.columns(table.rows)
    d = pair.den_l
    # the preimage numerators floor |det L| + fr of each side
    nums, dual_nums = ([list(map(add, map(mul, floor, repeat(d)), fr)) for floor, fr in zip(side, frs)]
                       for side in (floors, dual_floors))
    distinct = tuple(set(chain.from_iterable(nums + dual_nums)))
    rational = dict(zip(distinct, over(distinct, d))).__getitem__
    return [
        {
            "config": config,
            "preimage": tuple(map(rational, num)),
            "mu_case": case,
            "dual_config": dual_config,
            "dual_preimage": tuple(map(rational, dual_num)),
        }
        for config, num, case, dual_config, dual_num in zip(configs, nums, cases, dual_configs, dual_nums)
    ]


def fixed_points(pair: ChipFiringPair):
    """The z-superstables of M fixed by mu, in lex order.

    mu's identity test depends only on the class of s in K(M), so one
    class walk of K(M) tests each class on n_lm U r, which the walk
    steps by vector additions, and only the classes that pass are
    stabilized, each by M.sstab_of_class_id.  The walk visits all
    |det M| classes under the enumeration budget."""
    m = pair.m
    identity = _identity_test(pair)
    walk = lattices.walk_class_reps(m.snf, image=pair.n_lm)
    return tuple(sorted(m.sstab_of_class_id(r) for r, v in zip(lattices.walk_class_ids(m.snf), walk)
                        if identity(v)))


def predicted_fixed_point_count(pair: ChipFiringPair):
    """|F0_M| * #{order <= 2 in K(M)/F0_M}; the true count is this or 0."""
    from .frackets import zero_fracket_quotient, zero_fracket_size

    return zero_fracket_size(pair) * lattices.count_order_le2(zero_fracket_quotient(pair, "M"))


def fixed_point_invariants(pair: ChipFiringPair):
    """(fixed points, predicted count, nonzero_criteria, ok): ok holds
    iff the count is 0 or the prediction, and it is nonzero exactly when
    an applicable order criterion says it must be."""
    fps = fixed_points(pair)
    predicted = predicted_fixed_point_count(pair)
    crit = nonzero_criteria(pair)
    nonzero = len(fps) > 0
    ok = (len(fps) in (0, predicted)
          and (nonzero or not crit["odd_order_guarantee"])
          and crit["cyclic_even_criterion"] in (None, nonzero))
    return fps, predicted, crit, ok


def nonzero_criteria(pair: ChipFiringPair):
    """Structural tests telling whether the fixed-point set must be
    nonempty.

    odd_order_guarantee: the class of c_max in K(M)/F0_M has odd order,
    forcing at least one fixed point.  cyclic_even_criterion: when that
    quotient is cyclic and the order is even, nonemptiness is equivalent
    to |quotient| / ord being even; None when the test does not apply.
    The order is that of c_max's key, flcm(L M^-1 c_max), and dividing
    |quotient| cross-checks it against the Smith form.
    """
    from .frackets import zero_fracket_quotient

    quotient = zero_fracket_quotient(pair, "M")
    ord_cmax = flcm(mat_vec(pair.n_lm, pair.m.c_max), pair.det_m)
    if quotient.order % ord_cmax:
        raise RuntimeError(f"the order {ord_cmax} of c_max does not divide "
                           f"|K(M) / F0_M| = {quotient.order}")
    crit = None
    if quotient.is_cyclic and ord_cmax % 2 == 0:
        crit = (quotient.order // ord_cmax) % 2 == 0
    return {
        "quotient": quotient,
        "cmax_order": ord_cmax,
        "odd_order_guarantee": ord_cmax % 2 == 1,
        "cyclic_even_criterion": crit,
    }
