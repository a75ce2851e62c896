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

Relabeling orbits.  A permutation pi of the non-sink vertices that maps
the family's non-sink edges onto themselves sends a pattern to the
pattern negative on the images of its negative edges, and L to P L P^T
with P the permutation matrix.  P is unimodular, so x -> Px maps
Z^k / L Z^k onto Z^k / P L P^T Z^k: K(L) is a relabeling invariant too.
Relabeling then switching at v is switching at pi^-1(v) then relabeling,
so the relabelings permute the switching classes, and the group they
generate together with the switchings has as orbits unions of whole
classes.  For K_n every permutation of 1..n-1 qualifies, generated by
the transposition (1 2) and the cycle (1 2 ... n-1); the orbits are the
two-graphs on n - 1 vertices (Seidel 1976), 2, 3, 7, 16 and 54 of them
for K_4 to K_8 (Mallows-Sloane 1975).  For C_n the only one is the
reflection v -> n - v, and its single class is its single orbit.  A
statement about K(L) over all patterns therefore needs one pair per
orbit, weighted by the orbit's class count times 2^(n-2).

The walk acts on class indices, the bits of a representative on the
non-tree edges.  A generator's action on them is linear over GF(2):
relabeling permutes bits, and switching back to the tree-positive
representative flips each non-tree edge (u, v) by the parity of the
negative tree edges on the tree path from u to v, a sum of bits.  So a
generator is one table of images per byte of the index, and the image
of an index is the XOR of its bytes' entries.  A finite orbit is closed
under a permutation's inverse once it is closed under the permutation,
so the classes reached from an index by the generators alone are its
whole orbit.

kn_z2_subgroup reads the Z_2^(n-2) subgroup of K(L) for even n off the
Smith coordinates of L that the pair already holds.
"""

from __future__ import annotations

import math
import sys
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
    bits = pattern_bits(kind, n)        # checks n and kind
    base = _family_edges(kind, n)
    non_sink = [e for e in base if n not in e]
    if sign_pattern < 0 or sign_pattern >> bits:
        raise ValueError(f"sign pattern needs {bits} bits")
    signs = {}
    for i, e in enumerate(non_sink):
        signs[e] = -1 if sign_pattern >> i & 1 else 1
    edges = tuple((u, v, signs.get((u, v), 1)) for u, v in base)
    return SignedGraph(n=n, edges=edges, sink=n)


def pattern_bits(kind, n):
    """k for the 2^k sign patterns: C(n-1, 2) non-sink edges for K_n,
    n - 2 for C_n.  The scans decide from k, since 2^k takes k bits."""
    if n < 3:
        raise ValueError("need n >= 3")
    if kind == "complete":
        return math.comb(n - 1, 2)
    if kind == "cycle":
        return n - 2
    raise ValueError("kind must be 'complete' or 'cycle'")


def pattern_count(kind, n):
    """The 2^k sign patterns of the family, for a k known to be small."""
    return 1 << pattern_bits(kind, n)


def pow2_text(k):
    """2^k in decimal, or as "2^k" past sys.get_int_max_str_digits().
    2^k has more digits than that limit once k is 4 times it, so 2^k is
    never built for such k."""
    limit = sys.get_int_max_str_digits()
    if not limit or k < 4 * limit:
        try:
            return str(1 << k)
        except ValueError:
            pass
    return f"2^{k}"


def _over_cap(k):
    """Whether 2^k exceeds lattices.DEFAULT_ENUMERATION_CAP."""
    return k >= lattices.DEFAULT_ENUMERATION_CAP.bit_length()


def _switching_tree(kind, n):
    """(edges, paths, free) for the family: its non-sink edges (u, v) in
    bit order; for each non-sink vertex, the bits of its path from vertex
    1 in the spanning tree the breadth-first search from vertex 1 takes
    through those edges; and the bits off that tree, ascending, which are
    the bits of a class index."""
    edges = [(u, v) for u, v, _ in family(kind, n).non_sink_edges]
    paths, frontier = {1: 0}, [1]
    for w in frontier:
        for i, (u, v) in enumerate(edges):
            other = v if u == w else u if v == w else None
            if other is not None and other not in paths:
                paths[other] = paths[w] | 1 << i
                frontier.append(other)
    ensure(len(paths) == n - 1, "the non-sink graph is connected")
    tree = 0
    for bits in paths.values():
        tree |= bits
    return edges, paths, [i for i in range(len(edges)) if not tree >> i & 1]


def _pattern_of(free, index):
    """The tree-positive representative of the class with this index."""
    return sum(1 << i for b, i in enumerate(free) if index >> b & 1)


def _relabelings(kind, n):
    """Generators of the family's relabelings that fix the sink, each a
    list taking a non-sink vertex to its image (entry 0 unused)."""
    if kind == "cycle":
        return [[0] + [n - v for v in range(1, n)]]
    return [[0, 2, 1] + list(range(3, n)), [0] + [v % (n - 1) + 1 for v in range(1, n)]]


def _byte_tables(perm, edges, paths, free):
    """A relabeling's action on class indices, as one table of images per
    byte of the index: relabel the representative's negative edges, then
    switch back to the tree-positive representative (module docstring)."""
    bit = {e: i for i, e in enumerate(edges)}

    def act(index):
        image = 0
        for b, i in enumerate(free):
            if index >> b & 1:
                u, v = edges[i]
                moved = bit.get((min(perm[u], perm[v]), max(perm[u], perm[v])))
                ensure(moved is not None, "the relabeling keeps the family's edges")
                image |= 1 << moved
        out = 0
        for b, i in enumerate(free):
            u, v = edges[i]
            out |= ((image >> i ^ (image & (paths[u] ^ paths[v])).bit_count()) & 1) << b
        return out

    return [[act(x << 8 * j) for x in range(1 << min(8, len(free) - 8 * j))]
            for j in range(-(-len(free) // 8))]


def orbit_representatives(kind, n):
    """One sign pattern per orbit of relabeling x switching on the
    family's patterns, ascending, as (pattern, weight): the least
    tree-positive pattern of the orbit, weighted by the orbit's switching
    classes times 2^(n-2).  The weights sum to pattern_count(kind, n); the
    module docstring has the argument.

    The walk visits every switching class once, 2^C(n-2, 2) of them for
    K_n and one for C_n, and raises EnumerationCapExceeded before any work
    when they exceed lattices.DEFAULT_ENUMERATION_CAP, or when (n - 1)^3,
    the cost of one orbit's (n - 1) x (n - 1) pair, does: the single C_n
    orbit is cheap to find but not to build past n = 101.
    """
    bits = pattern_bits(kind, n)
    class_bits = bits - (n - 2)
    if _over_cap(class_bits):
        raise lattices.EnumerationCapExceeded(
            f"{pow2_text(bits)} sign patterns in {pow2_text(class_bits)} switching classes "
            f"exceeds cap {lattices.DEFAULT_ENUMERATION_CAP}")
    k = n - 1
    if k**3 > lattices.DEFAULT_ENUMERATION_CAP:
        raise lattices.EnumerationCapExceeded(
            f"a {k} x {k} pair per orbit takes {k}^3 = {k**3} steps, "
            f"exceeds cap {lattices.DEFAULT_ENUMERATION_CAP}")
    edges, paths, free = _switching_tree(kind, n)
    ensure(len(free) == class_bits, "2^(n-2) patterns per switching class")
    generators = [_byte_tables(perm, edges, paths, free) for perm in _relabelings(kind, n)]
    classes = 1 << class_bits
    seen = bytearray(classes)
    for start in range(classes):
        if seen[start]:
            continue
        seen[start] = 1
        orbit = [start]
        for index in orbit:
            for tables in generators:
                image = 0
                for j, table in enumerate(tables):
                    image ^= table[index >> 8 * j & 255]
                if not seen[image]:
                    seen[image] = 1
                    orbit.append(image)
        yield _pattern_of(free, start), len(orbit) << n - 2


def _pair_builder(kind, n):
    """A pattern -> pair function whose pairs share the first pair's
    M-matrix instance, since M ignores signs."""
    shared = None

    def build(pattern):
        nonlocal shared
        pair = reduced_laplacians(family(kind, n, pattern), shared_m=shared)
        shared = pair.m
        return pair

    return build


def sweep(kind, n):
    """All sign patterns of the family as (pattern, pair), ascending by
    pattern, for claims that must hold pattern by pattern.  Raises
    EnumerationCapExceeded, before any pair is built, when the patterns
    exceed lattices.DEFAULT_ENUMERATION_CAP."""
    bits = pattern_bits(kind, n)
    if _over_cap(bits):
        raise lattices.EnumerationCapExceeded(
            f"{pow2_text(bits)} sign patterns exceeds cap {lattices.DEFAULT_ENUMERATION_CAP}")
    build = _pair_builder(kind, n)
    return [(pattern, build(pattern)) for pattern in range(1 << bits)]


def orbit_sweep(kind, n):
    """One (weight, pair) row per orbit of relabeling x switching, from
    orbit_representatives, for claims about K(L) such as the
    critical-group histogram.  Capped like orbit_representatives, before
    any pair is built."""
    build = _pair_builder(kind, n)
    return [(weight, build(pattern)) for pattern, weight in orbit_representatives(kind, n)]


# -- structure theorems for complete graphs ----------------------------------

def verify_half_n_integrality(n):
    """Inverse structure of the reduced Laplacian of K_n.

    M^-1 has 2/n on the diagonal and 1/n off it, so n * M^-1 e_i = 1 + e_i
    (all-ones plus a standard basis vector).  For even n this makes the
    preimages (n/2) e_i transfer integrally under any signing's L M^-1.
    Both follow from the integer identity M (I + J) = n I on M alone,
    checked column by column as M (1 + e_i) = n e_i: it shows that M is
    invertible with M^-1 = (I + J) / n, so no determinant, adjugate or
    Smith form of M is needed.  Raises EnumerationCapExceeded, before
    the graph is built, when the (n - 1)^2 grid exceeds
    lattices.DEFAULT_ENUMERATION_CAP.
    """
    k = n - 1
    if k * k > lattices.DEFAULT_ENUMERATION_CAP and n >= 3:     # n < 3: family's error
        raise lattices.EnumerationCapExceeded(
            f"a {k} x {k} grid takes {k}^2 = {k * k} steps, "
            f"exceeds cap {lattices.DEFAULT_ENUMERATION_CAP}")
    _, m = laplacian_grids(family("complete", n))
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

    The subgroup is read off the Smith coordinates of L that the pair
    already holds: class_id maps K(L) onto the sum of the Z / d_j Z, and
    2 [c_i] = 0 leaves each coordinate of [c_i] at 0 or d_j / 2.  Sending
    d_j / 2 to 1 maps the elements of order at most 2 isomorphically onto
    a GF(2) vector space, so the c_i generate Z_2^r, where r is the GF(2)
    rank of their supports, found with an XOR basis.
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
    # an XOR basis of the supports of the [c_i] in Smith coordinates
    basis = []
    for c_i in configs:
        bits = sum(1 << j for j, x in enumerate(lattices.class_id(pair.l_snf, c_i)) if x)
        for b in basis:
            bits = min(bits, bits ^ b)      # clears b's leading bit from bits
        if bits:
            basis.append(bits)
    ensure(len(basis) == n - 2, f"the c_i generate Z_2^{n - 2}")
    return {"n": n, "generators": tuple(configs),
            "subgroup": lattices.AbelianGroup((2,) * len(basis))}


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
