"""Signed graphs as a source of (L, M) pairs.

Vertices are 1..n with a designated sink.  Each edge carries a sign; a
negative edge flips the sign of the corresponding off-diagonal entries
in the firing matrix.  Deleting the sink row and column gives

    M = reduced Laplacian of the underlying graph
    L = same, but the off-diagonal entry for vertices u, v is minus the
        SUM of the signs of the u-v edges instead of minus their count

Diagonals of L and M agree (vertex degrees), so signs on sink-incident
edges never show up in (L, M).  Multi-edges accumulate in both matrices.

Families: 'complete' and 'cycle' on n vertices with sink n.  Non-sink
edges are ordered lexicographically by sorted endpoints, and a sign
pattern is an integer whose bit i (least significant first) makes the
i-th non-sink edge negative.  Sink-incident edges stay positive, which
loses nothing by the remark above.

Switching classes.  Switching at a non-sink vertex v flips the sign of
every edge at v, which sends L to DLD with D = diag(+-1), -1 at v.  D is
unimodular and D = D^-1, so x -> Dx maps Z^k / L Z^k onto
Z^k / DLD Z^k: the critical group K(L) is a switching invariant
(Zaslavsky, "Signed graphs", 1982).  When the non-sink graph is connected
on its n - 1 vertices, the switchings act freely up to the flip of all of
them, so every class has 2^(n-2) sign patterns, and exactly one pattern
per class is + on a fixed spanning tree of the non-sink graph: switch
along the tree from its root to make each tree edge +.  For K_n the tree
is the star at vertex 1, leaving 2^C(n-2,2) classes; for C_n it is the
whole non-sink path, leaving one.  A statement about K(L) over all
patterns therefore needs one pair per class, weighted by 2^(n-2).
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import lattices
from .linalg import ensure, mat_vec, vec_add, vec_scale
from .mmatrix import MMatrix
from .pairs import ChipFiringPair


class SignedGraph(namedtuple("SignedGraph", "n edges sink")):
    """edges is ((u, v, sign), ...) with u < v and sign in {+1, -1}."""

    __slots__ = ()

    def __new__(cls, n, edges, sink):
        if n < 2:
            raise ValueError("need at least two vertices")
        if not 1 <= sink <= n:
            raise ValueError("sink out of range")
        for u, v, sign in edges:
            if not (1 <= u < v <= n):
                raise ValueError(f"bad edge ({u}, {v}): need 1 <= u < v <= n")
            if sign not in (1, -1):
                raise ValueError(f"bad sign {sign!r} on edge ({u}, {v})")
        # every vertex must reach the sink for M to be an M-matrix
        neighbours = {}
        for u, v, _ in edges:
            neighbours.setdefault(u, []).append(v)
            neighbours.setdefault(v, []).append(u)
        seen = {sink}
        frontier = [sink]
        while frontier:
            for b in neighbours.get(frontier.pop(), ()):
                if b not in seen:
                    seen.add(b)
                    frontier.append(b)
        if len(seen) != n:
            raise ValueError("graph is not connected")
        return super().__new__(cls, n, edges, sink)

    @property
    def non_sink_edges(self):
        return tuple((u, v, s) for u, v, s in self.edges if self.sink not in (u, v))


def parse_edge_list(text):
    """Read "n <count> sink <id>" then one "u v +" or "u v -" line per edge."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty edge list")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "n" or head[2] != "sink":
        raise ValueError(f"bad header {lines[0]!r}: expected 'n <count> sink <id>'")
    n, sink = int(head[1]), int(head[3])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[2] not in ("+", "-"):
            raise ValueError(f"bad edge line {ln!r}: expected 'u v +' or 'u v -'")
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise ValueError(f"loop at vertex {u} is not allowed")
        edges.append((min(u, v), max(u, v), 1 if parts[2] == "+" else -1))
    return SignedGraph(n=n, edges=tuple(sorted(edges)), sink=sink)


def format_edge_list(g: SignedGraph):
    out = [f"n {g.n} sink {g.sink}"]
    out.extend(f"{u} {v} {'+' if s > 0 else '-'}" for u, v, s in g.edges)
    return "\n".join(out) + "\n"


def laplacian_grids(g: SignedGraph):
    """(L, M) of a signed graph with the sink row/column removed, as
    integer grids (lists of rows), before any matrix is built."""
    verts = [v for v in range(1, g.n + 1) if v != g.sink]
    idx = {v: i for i, v in enumerate(verts)}
    k = len(verts)
    m_grid = [[0] * k for _ in range(k)]
    l_grid = [[0] * k for _ in range(k)]
    for u, v, sign in g.edges:
        for a, b in ((u, v), (v, u)):
            if a != g.sink:
                i = idx[a]
                m_grid[i][i] += 1
                l_grid[i][i] += 1
                if b != g.sink:
                    m_grid[i][idx[b]] -= 1
                    l_grid[i][idx[b]] -= sign
    return l_grid, m_grid


def reduced_laplacians(g: SignedGraph, shared_m: MMatrix | None = None):
    """The (L, M) pair of a signed graph with the sink row/column removed."""
    l_grid, m_grid = laplacian_grids(g)
    if shared_m is not None:
        if shared_m.m != tuple(tuple(r) for r in m_grid):
            raise ValueError("shared_m is not the M-matrix of this graph")
        return ChipFiringPair(l_grid, shared_m)
    return ChipFiringPair(l_grid, m_grid)


# -- parametric families -----------------------------------------------------

def _family_edges(kind, n):
    if kind == "complete":
        return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    pairs = [(i, i + 1) for i in range(1, n)] + [(1, n)]     # kind == "cycle"
    return sorted(pairs)


def family(kind, n, sign_pattern=0):
    """SignedGraph for K_n or C_n, sink n, signs set by sign_pattern.

    Bit i of sign_pattern makes the i-th non-sink edge negative (edges
    in lex order by endpoints, least significant bit first).  Edges at
    the sink keep sign +.
    """
    count = pattern_count(kind, n)      # checks n and kind
    base = _family_edges(kind, n)
    non_sink = [e for e in base if n not in e]
    if not 0 <= sign_pattern < count:
        raise ValueError(f"sign pattern needs {len(non_sink)} bits")
    signs = {}
    for i, e in enumerate(non_sink):
        signs[e] = -1 if sign_pattern >> i & 1 else 1
    edges = tuple((u, v, signs.get((u, v), 1)) for u, v in base)
    return SignedGraph(n=n, edges=edges, sink=n)


def pattern_count(kind, n):
    """2^k sign patterns, k = C(n-1, 2) non-sink edges for K_n, n - 2 for C_n."""
    if n < 3:
        raise ValueError("need n >= 3")
    if kind == "complete":
        return 1 << math.comb(n - 1, 2)
    if kind == "cycle":
        return 1 << n - 2
    raise ValueError("kind must be 'complete' or 'cycle'")


def count_text(count):
    """A pattern count in decimal, or as 2^k past sys.get_int_max_str_digits()."""
    try:
        return str(count)
    except ValueError:
        return f"2^{count.bit_length() - 1}"


def switching_representatives(kind, n):
    """One sign pattern per switching class of the family, ascending, as
    (pattern, weight): the patterns that are + on the spanning tree the
    breadth-first search from vertex 1 takes through the non-sink edges,
    each weighted by its class size 2^(n-2).  The weights sum to
    pattern_count(kind, n); the module docstring has the argument."""
    edges = [(u, v) for u, v, _ in family(kind, n).non_sink_edges]
    reached, tree, frontier = {1}, set(), [1]
    for w in frontier:
        for i, (u, v) in enumerate(edges):
            other = v if u == w else u if v == w else None
            if other is not None and other not in reached:
                reached.add(other)
                tree.add(i)
                frontier.append(other)
    ensure(len(reached) == n - 1, "the non-sink graph is connected")
    free = [i for i in range(len(edges)) if i not in tree]
    weight = 1 << len(tree)
    for mask in range(1 << len(free)):
        yield sum(1 << i for b, i in enumerate(free) if mask >> b & 1), weight


def _pair_builder(kind, n):
    """The family's pattern count and a pattern -> pair function whose
    pairs share the first pair's M-matrix instance, since M ignores
    signs.  Raises EnumerationCapExceeded, before any pair is built, when
    the patterns exceed lattices.DEFAULT_ENUMERATION_CAP."""
    count = pattern_count(kind, n)
    if count > lattices.DEFAULT_ENUMERATION_CAP:
        raise lattices.EnumerationCapExceeded(
            f"{count_text(count)} sign patterns exceeds cap {lattices.DEFAULT_ENUMERATION_CAP}")
    shared = None

    def build(pattern):
        nonlocal shared
        pair = reduced_laplacians(family(kind, n, pattern), shared_m=shared)
        shared = pair.m
        return pair

    return count, build


def sweep(kind, n):
    """All sign patterns of the family as (pattern, pair), ascending by
    pattern, for claims that must hold pattern by pattern.  Capped like
    _pair_builder."""
    count, build = _pair_builder(kind, n)
    return [(pattern, build(pattern)) for pattern in range(count)]


def class_sweep(kind, n):
    """One (weight, pair) row per switching class of the family, from
    switching_representatives, for switching-invariant claims such as
    the critical-group histogram.  Capped on the pattern count, like
    sweep."""
    _, build = _pair_builder(kind, n)
    return [(weight, build(pattern)) for pattern, weight in switching_representatives(kind, n)]


# -- structure theorems for complete graphs ----------------------------------

def verify_half_n_integrality(n):
    """Inverse structure of the reduced Laplacian of K_n.

    M^-1 has 2/n on the diagonal and 1/n off it, so n * M^-1 e_i = 1 + e_i
    (all-ones plus a standard basis vector).  For even n this makes the
    preimages (n/2) e_i transfer integrally under any signing's L M^-1.
    Both follow from the integer identity M (I + J) = n I on M alone,
    checked column by column as M (1 + e_i) = n e_i: it shows that M is
    invertible with M^-1 = (I + J) / n, so no determinant, adjugate or
    Smith form of M is needed.
    """
    _, m = laplacian_grids(family("complete", n))
    k = len(m)
    row_sums = [sum(row) for row in m]      # M 1
    for i in range(k):
        ensure(all(m[r][i] + row_sums[r] == (n if r == i else 0) for r in range(k)),
               f"n M^-1 e_{i} = ones + e_{i}")
    return {"n": n, "diag": "2/n", "offdiag": "1/n", "n_m_inv_ei": "ones + e_i"}


def _subsets_up_to(items, size):
    from itertools import combinations

    for r in range(size + 1):
        yield from combinations(items, r)


def kn_z2_subgroup(pair: ChipFiringPair, n):
    """Structural checks behind the Z_2^(n-2) subgroup of K(L) for any
    signing of K_n with even n.

    With q = n/2 and s_i = q e_i: each s_i is z-superstable for M and
    transfers to an integer configuration c_i with 2 c_i = L(ones + e_i),
    so [c_i] has order dividing 2 and lies in the zero fracket of K(L).
    Subset sums of the s_i stay z-superstable up to size (n-2)/2, and the
    c_i together generate a subgroup with invariant factors (2,)*(n-2).
    Raises RuntimeError if any of these fails, and EnumerationCapExceeded,
    before any check, when the subset sums exceed
    lattices.DEFAULT_ENUMERATION_CAP.
    """
    if n % 2:
        raise ValueError("needs even n")
    k = pair.n
    if k != n - 1:
        raise ValueError(f"a signing of K_{n} has {n - 1} non-sink vertices, not {k}")
    subsets = sum(math.comb(k, r) for r in range((n - 2) // 2 + 1))
    if subsets > lattices.DEFAULT_ENUMERATION_CAP:
        raise lattices.EnumerationCapExceeded(
            f"{subsets} subset sums exceeds cap {lattices.DEFAULT_ENUMERATION_CAP}")
    q = n // 2
    ones = (1,) * k
    configs = []
    for i in range(k):
        e_i = tuple(int(j == i) for j in range(k))
        s_i = vec_scale(q, e_i)
        ensure(pair.m.is_z_superstable(s_i), f"{q} e_{i} is z-superstable")
        c_i = pair.config_of_numerators(vec_scale(pair.den_l, s_i))
        ensure(c_i is not None, f"{q} e_{i} transfers integrally")
        doubled = vec_scale(2, c_i)
        ensure(doubled == mat_vec(pair.l, vec_add(ones, e_i)), f"2 c_{i} = L(ones + e_{i})")
        ensure(lattices.class_id(pair.l_snf, doubled) == (0,) * k, f"2 [c_{i}] = 0")
        frac_key = pair.preimage_numerators(c_i)
        ensure(not any(x % pair.den_l for x in frac_key), f"c_{i} sits in the zero fracket")
        configs.append(c_i)
    for subset in _subsets_up_to(range(k), (n - 2) // 2):
        total = tuple(q if j in subset else 0 for j in range(k))
        ensure(pair.m.is_z_superstable(total), f"{total} is z-superstable")
    group = lattices.subgroup_invariant_factors(configs, pair.l)
    ensure(group.invariant_factors == (2,) * (n - 2), f"the c_i generate Z_2^{n - 2}")
    return {"n": n, "generators": tuple(configs), "subgroup": group}


def count_even_invariant_factors(group: lattices.AbelianGroup):
    return sum(1 for d in group.invariant_factors if d % 2 == 0)


def kn_structure(rows, n):
    """The K_n structure results over the sweep rows of the complete family
    with even n: the patterns with fewer than n - 2 even invariant factors,
    the number of patterns whose Z_2^(n-2) subgroup kn_z2_subgroup verified
    (every stride-th row, stride max(1, len(rows) // 32)), and whether
    (n/2) L M^-1 = (n/2) n_lm / det M is integral for every pattern."""
    samples = rows[:: max(1, len(rows) // 32)]
    for _, pair in samples:
        kn_z2_subgroup(pair, n)
    return {
        "even_factor_failures": [
            p for p, pair in rows if count_even_invariant_factors(pair.l_group) < n - 2
        ],
        "structural_samples": len(samples),
        "half_n_transfer_integral": all(
            not any(n // 2 * x % pair.det_m for row in pair.n_lm for x in row) for _, pair in rows
        ),
    }


def scan_critical_groups(rows, patterns):
    """Critical groups K(L) over weighted rows (weight, pair), each row
    standing for `weight` of the family's `patterns` sign patterns: maps
    each invariant factor tuple to its number of patterns, ascending lex."""
    histogram = {}
    for weight, pair in rows:
        factors = pair.l_group.invariant_factors
        histogram[factors] = histogram.get(factors, 0) + weight
    ordered = dict(sorted(histogram.items()))
    ensure(sum(ordered.values()) == patterns, "every pattern is counted once")
    return ordered
