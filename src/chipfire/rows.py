"""Packed integer forms: the pair rows, and the packing they share with
M's table of criticals.

Radix packs the integer vectors of a box into single integers, mixed
radix with the first entry most significant, so the integers sort as
the vectors do, and int_array keeps such integers as one flat sequence
of the narrowest machine integers that holds them.  MMatrix keeps its
class ids and criticals in this form, and a pair keeps its rows in it.

A pair's PairRows is its one row cache (ChipFiringPair.rows).  One walk
of the classes of L groups them by the M-class id of their preimage
floor (ClassTables: the ids packed into integers, one end offset per
group, and one small integer per class naming its fractional numerators
fr).  The rows are built one class of M at a time: a group's base, the
critical of its id (or, for superstables, c_max minus the critical of
id(c_max) - id, the class of c_max - floor), and |det L| n_lm base are
built once, and a row's configuration is that sum plus n_lm fr over
det M |det L|, so no row takes a matrix-vector product.

config_box bounds every configuration, so a configuration packs into
one integer in its mixed radix, and packing is linear: a row's packed
configuration is one integer sum per row.  A row is that integer times
|det L| plus the row's position in group order, and each kind keeps its
rows in group order as one flat sequence of integers, with the floor of
each group.  Sorting the rows sorts them by configuration, so the kinds'
|det L| distinct configurations are checked by an adjacent compare of
the sorted rows.  Both kinds visit the groups in one order, so duality
pairs the superstable and the critical of each class of L by position,
without a lookup.  The position reads the row's group and fr in the
class tables, so the tables stay with the cache for the pair's life;
only the per-fr transfers n_lm fr, which the sweeps read, are released
once both kinds are cached.  RowFields reads the rows a list at a time;
PairRow objects are built only for library callers
(enumerate_pair_superstables, enumerate_pair_criticals, duality_rows).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate, chain, pairwise, repeat, starmap
from operator import add, floordiv, le, lt, mod, mul, sub

from . import lattices
from .linalg import ensure, mat_mul, mat_vec, over


class Radix:
    """Mixed-radix packing of the integer vectors v in the box
    lows <= v < lows + sizes: pack(v) = sum (v_i - lows_i) weights_i, with
    weights_i the product of the sizes after entry i, so
    0 <= pack(v) < total and the integers order as the vectors do,
    lexicographically.  pack raises RuntimeError for a vector outside the
    box; unpack is its inverse on 0 <= k < total."""

    __slots__ = ("lows", "sizes", "highs", "weights", "total", "shift")

    def __init__(self, lows, sizes):
        self.lows, self.sizes = tuple(lows), tuple(sizes)
        ensure(len(self.lows) == len(self.sizes) and min(self.sizes, default=1) >= 1,
               "every radix is positive")
        self.highs = tuple(map(add, self.lows, self.sizes))
        weights = list(accumulate(reversed(self.sizes), mul, initial=1))
        self.total = weights.pop()
        self.weights = tuple(reversed(weights))
        # pack(v) = v . weights - shift
        self.shift = sum(map(mul, self.lows, self.weights))

    def pack(self, v):
        ensure(all(map(le, self.lows, v)) and all(map(lt, v, self.highs)), "the vector lies in the packing box")
        return sum(map(mul, v, self.weights)) - self.shift

    def unpack(self, k):
        out = []
        for weight, size, low in zip(self.weights, self.sizes, self.lows):
            out.append(k // weight % size + low)
        return tuple(out)

    def unpack_all(self, ks):
        """unpack of each integer of the list ks, in a list: one pass over
        ks per entry."""
        return list(zip(*[[k // weight % size + low for k in ks]
                          for weight, size, low in zip(self.weights, self.sizes, self.lows)]))


# (typecode, bound) of the unsigned machine integers, narrowest first
_TYPECODES = tuple((code, 1 << 8 * array(code).itemsize) for code in "BHIQ")


def int_array(values, bound):
    """The integers 0 <= v < bound of values as one flat sequence: an
    array of the narrowest unsigned machine integers that holds bound - 1,
    or a list past 64 bits."""
    for code, limit in _TYPECODES:
        if bound <= limit:
            return array(code, values)
    return list(values)


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


class ClassTables(namedtuple("ClassTables", "keys ends frs fr_index")):
    """The classes of L grouped by the M-class id of their preimage
    floor, the groups in order of first visit.  keys holds each group's
    id packed in radix diag(D_M) (MMatrix.ids), and ends the position in
    group order where each group ends, so group g holds the positions
    ends[g - 1] <= pos < ends[g] and bisect_right(ends, pos) finds it.
    frs holds the distinct fractional numerators fr in order of first
    visit, and fr_index, in group order, the index into frs of each
    class's fr.  keys, ends and fr_index are flat sequences of integers
    (int_array)."""

    __slots__ = ()


def config_box(pair):
    """The Radix that packs the configurations of the pair's rows.  A
    row's preimage x = base + fr / |det L| has 0 <= base <= c_max and
    0 <= fr < |det L|, so 0 <= x < c_max + 1, and entry i of its
    configuration n_lm x / det M lies between the sums of the negative and
    of the positive terms of row i of n_lm times c_max + 1, over det M:
    floored, they are the entry's least and greatest value."""
    top = [c + 1 for c in pair.m.c_max]
    det = pair.det_m
    lows, sizes = [], []
    for row in pair.n_lm:
        terms = list(map(mul, row, top))
        low = sum([t for t in terms if t < 0])
        lows.append(low // det)
        sizes.append((sum(terms) - low) // det - lows[-1] + 1)
    return Radix(lows, sizes)


def class_tables(pair):
    """The ClassTables of the pair, by one walk of the classes of L."""
    d, n, dec = pair.den_l, pair.n, pair.m.snf
    dims, weights = pair.m.ids.sizes, pair.m.ids.weights
    seen = {}       # fr -> (its index in frs, Uinv_M fr)
    groups = {}     # key -> the fr indices of its classes
    image = pair.n_ml + mat_mul(dec.Uinv, pair.n_ml)
    for v in lattices.walk_class_reps(pair.l_snf, image=image):
        # from a list: tuple(map(...)) resizes its guess, which strands one
        # tuple per class in the free lists
        fr = tuple([q % d for q in v[:n]])
        found = seen.get(fr)
        if found is None:
            found = seen[fr] = (len(seen), mat_vec(dec.Uinv, fr))
        j, u = found
        fl_id = map(floordiv, map(sub, v[n:], u), repeat(d))     # Uinv_M floor
        groups.setdefault(sum(map(mul, map(mod, fl_id, dims), weights)), []).append(j)
    return ClassTables(int_array(groups, pair.det_m), int_array(accumulate(map(len, groups.values())), d + 1),
                       list(seen), int_array(chain.from_iterable(groups.values()), len(seen)))


class PairRows:
    """A pair's packed rows: box (config_box), tables (class_tables), and
    per kind, on first ask, the rows and the floor of each group
    (walk)."""

    def __init__(self, pair):
        # the pair's parts, not the pair, which holds this cache
        self.m, self.n_lm, self.det_m, self.den = pair.m, pair.n_lm, pair.det_m, pair.den_l
        self.box = config_box(pair)
        self.tables = class_tables(pair)
        self.kinds = {}         # kind -> (its rows, packed, in group order; the floor of each group)
        self._transfers = None  # per fr, (n_lm fr mod den, n_lm fr . weights) while a kind is uncached

    def walk(self, kind):
        """(rows, floors): the kind's rows in group order, packed, and the
        floor of each group, its base.  A row is the integer
        box.pack(configuration) |det L| + its position in group order, and
        rows is a flat sequence of them (int_array).  Both kinds visit the
        groups of the tables in one order, so the superstable and the
        critical at one position lie in the same class of L.

        A floor of M-class id key has the critical base
        M.packed_critical(key) and the superstable base
        M.packed_superstable(key), each unpacked once per group; M's table
        holds them packed in radix c_max + 1, so 0 <= base <= c_max and the
        box bounds every configuration.  A group builds
        top = |det L| n_lm base once; a row's configuration is
        (top + n_lm fr) / den for den = det M |det L|, and packing is
        linear, so its packed form is
        (top . weights + n_lm fr . weights) / den - box.shift, one integer
        sum per row.  n_lm fr mod den and n_lm fr . weights are built once
        per distinct fr and released once both kinds are cached.  The row
        is integral iff n_lm fr = -top mod den in every entry, a compare of
        the fr's residues with the group's.  A configuration that is not
        integral, or a packed one outside 0 <= k < box.total, raises
        RuntimeError.  Both bases read M's table of criticals, filled by
        M.fill_criticals first when |det L| >= det M, since the rows then
        touch most classes of M; otherwise each group's miss costs one
        stabilization.
        """
        if kind not in self.kinds:
            keys, ends, frs, fr_index = self.tables
            m, n_lm, d, box = self.m, self.n_lm, self.den, self.box
            den = self.det_m * d
            if self._transfers is None:
                n_frs = [mat_vec(n_lm, fr) for fr in frs]
                self._transfers = ([tuple(map(den.__rmod__, q)) for q in n_frs],
                                   [sum(map(mul, q, box.weights)) for q in n_frs])
            residues, sums = self._transfers
            if d >= self.det_m:
                m.fill_criticals()
            base_of = m.packed_superstable if kind == "superstable" else m.packed_critical
            unpack, weights, offset, scale = m.crits.unpack, box.weights, den * box.shift, (-d).__mul__
            rows, floors = [], []
            for key, start, stop in zip(keys, chain((0,), ends), ends):
                base = unpack(base_of(key))
                floors.append(base)
                v = mat_vec(n_lm, base)     # top = |det L| v
                want = tuple(map(den.__rmod__, map(scale, v)))
                shifted = d * sum(map(mul, v, weights)) - offset
                for pos in range(start, stop):
                    j = fr_index[pos]
                    if residues[j] != want:
                        raise RuntimeError(f"the class of L with fractional numerators {frs[j]} "
                                           f"gave no valid {kind} preimage")
                    rows.append((shifted + sums[j]) // den * d + pos)
            ensure(min(rows) >= 0 and max(rows) < box.total * d, "the configurations lie in the box")
            self.kinds[kind] = int_array(rows, box.total * d), floors
            if len(self.kinds) == 2:
                self._transfers = None
        return self.kinds[kind]

    def sorted(self, kind):
        """The kind's packed rows ascending, that is ascending by
        configuration, as a list.  Raises RuntimeError unless adjacent
        rows hold distinct configurations: the kind's |det L| rows are
        |det L| distinct configurations."""
        rows = sorted(self.walk(kind)[0])
        if not all(starmap(lt, pairwise(map(self.den.__rfloordiv__, rows)))):
            raise RuntimeError(f"{kind} rows are not |det L| distinct configurations")
        return rows

    def pair_rows(self, kind):
        """The kind's rows ascending, each a PairRow, in a tuple."""
        return tuple(RowFields(self, kind).pair_rows(self.sorted(kind)))


class RowFields:
    """The fields of one kind's packed rows (PairRows.walk), read a list
    of rows at a time.  A row's configuration unpacks from
    row // |det L|; its position row % |det L| reads the index of its
    fractional numerators in the class tables, and its group, whose base
    is its floor, by bisection of the group ends, so the rows of one
    group share one floor tuple."""

    def __init__(self, rows, kind):
        self.den, self.tables, self.box = rows.den, rows.tables, rows.box
        self.floors = rows.walk(kind)[1]

    def configs(self, rows):
        """The configuration of each row, in a list."""
        return self.box.unpack_all([row // self.den for row in rows])

    def columns(self, rows):
        """(configurations, floors, fractional numerators) of the rows,
        each a list in row order."""
        d, tables = self.den, self.tables
        positions = [row % d for row in rows]
        return (self.box.unpack_all([row // d for row in rows]),
                list(map(self.floors.__getitem__, map(bisect_right, repeat(tables.ends), positions))),
                list(map(tables.frs.__getitem__, map(tables.fr_index.__getitem__, positions))))

    def records(self, rows):
        """(configuration, floor, fractional numerators) of each row."""
        return zip(*self.columns(rows))

    def pair_rows(self, rows):
        """A PairRow per row."""
        return list(map(PairRow, *self.columns(rows), repeat(self.den)))
