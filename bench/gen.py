"""Seeded input generation for the chipfire benchmark.

Everything here is the benchmark's own code: exact determinants and
inverses, the K6 edge ordering and the random signed multigraphs.  It never imports chipfire, so a change to the program
cannot change the inputs, and the time spent here is part of setup_s.
The program receives only the edge-list text produced below.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

K6_VERTICES = 6  # sink is vertex 6, as in `chipfire family-scan --kind complete`

# small-pairs batch: (reduced size n, lowest |det L|, highest |det L| + 1, jobs).
# Job time grows about linearly with |det L| at each n, so narrow |det L|
# windows keep the work of a batch nearly the same from seed to seed; the
# wide low windows add cheap jobs.  220 jobs in all: with half as many,
# the batch time still varied by about 8% between seeds.
SMALL_SLOTS = (
    (2, 1, 5, 48), (2, 5, 10, 32), (2, 10, 301, 16),
    (3, 1, 10, 40),
    *((3, lo, hi, 4) for lo, hi in ((10, 12), (15, 17), (20, 23), (26, 29), (33, 37), (40, 44),
                                     (50, 55), (60, 66), (70, 77), (80, 88), (90, 99))),
    (4, 1, 10, 16),
    *((4, lo, hi, 2) for lo, hi in ((10, 12), (20, 23), (30, 33), (40, 44), (50, 55), (65, 71),
                                     (80, 88), (100, 110), (120, 132), (140, 154), (160, 176),
                                     (180, 198))),
)
# Caps on det M and on the two boxes the superstable search scans (the
# stable box prod M_ii and its largest z-box prod(floor(M^-1 c_max) + 1))
# keep every job under about a second, so no single input dominates a
# batch; k6-pair is the workload for the large box search.
DET_CAP = 300
STABLE_BOX_CAP = 1000
Z_BOX_CAP = 100
DRAW_LIMIT = 200_000


def det(a):
    """Determinant of an integer matrix by fraction-free elimination."""
    m = [list(row) for row in a]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def inverse(a):
    n = len(a)
    w = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for k in range(n):
        p = next(i for i in range(k, n) if w[i][k])
        w[k], w[p] = w[p], w[k]
        inv = 1 / w[k][k]
        w[k] = [x * inv for x in w[k]]
        for i in range(n):
            if i != k and w[i][k]:
                f = w[i][k]
                w[i] = [x - f * y for x, y in zip(w[i], w[k])]
    return [row[n:] for row in w]


def z_box_size(m_inv, s):
    """prod(floor(M^-1 s) + 1): the z-candidates a box search may try for s."""
    return math.prod(math.floor(sum(r[j] * s[j] for j in range(len(s)))) + 1 for r in m_inv)


def edge_list_text(n, edges):
    return f"n {n} sink {n}\n" + "".join(f"{u} {v} {s}\n" for u, v, s in edges)


def laplacians(n, edges):
    """(L, M) with the sink n removed; same rule as the program documents."""
    k = n - 1
    m = [[0] * k for _ in range(k)]
    l = [[0] * k for _ in range(k)]
    for u, v, sign in edges:
        for a, b in ((u, v), (v, u)):
            if a != n:
                m[a - 1][a - 1] += 1
                l[a - 1][a - 1] += 1
                if b != n:
                    m[a - 1][b - 1] -= 1
                    l[a - 1][b - 1] -= 1 if sign == "+" else -1
    return l, m


# -- K6 sign patterns -----------------------------------------------------------

def k6_non_sink_edges():
    return [(u, v) for u in range(1, K6_VERTICES) for v in range(u + 1, K6_VERTICES)]


def k6_edges(pattern):
    """All 15 edges of K6 in lex order; bit i of pattern negates non-sink edge i."""
    neg = {e for i, e in enumerate(k6_non_sink_edges()) if pattern >> i & 1}
    return [(u, v, "-" if (u, v) in neg else "+")
            for u in range(1, K6_VERTICES + 1) for v in range(u + 1, K6_VERTICES + 1)]


def k6_orbit(pattern):
    """Sign patterns isomorphic to `pattern` under permutations of the
    non-sink vertices; they share det L, the critical group and the work
    of every command up to the order of the search."""
    edges = k6_non_sink_edges()
    index = {e: i for i, e in enumerate(edges)}
    orbit = set()
    for perm in itertools.permutations(range(1, K6_VERTICES)):
        image = 0
        for i, (u, v) in enumerate(edges):
            if pattern >> i & 1:
                a, b = sorted((perm[u - 1], perm[v - 1]))
                image |= 1 << index[(a, b)]
        orbit.add(image)
    return sorted(orbit)


def k6_input(pattern):
    edges = k6_edges(pattern)
    l, _ = laplacians(K6_VERTICES, edges)
    return {"pattern": pattern, "det_l": det(l), "text": edge_list_text(K6_VERTICES, edges)}


# -- small signed multigraphs ----------------------------------------------------

def _connected(n, edges):
    seen = {n}
    frontier = [n]
    while frontier:
        w = frontier.pop()
        for u, v, _ in edges:
            for a, b in ((u, v), (v, u)):
                if a == w and b not in seen:
                    seen.add(b)
                    frontier.append(b)
    return len(seen) == n


def _draw(rng, wanted):
    """One signed multigraph on 3-5 vertices, multiplicity 0-2, whose size
    and |det L| fall in a slot of `wanted`; (slot, job) or None."""
    n = rng.randint(3, 5)
    edges = [(u, v, rng.choice("+-"))
             for u in range(1, n + 1) for v in range(u + 1, n + 1)
             for _ in range(rng.randint(0, 2))]
    if not _connected(n, edges):
        return None
    l, m = laplacians(n, edges)
    det_l = abs(det(l))
    slot = next((s for s in wanted if s[0] == n - 1 and s[1] <= det_l < s[2]), None)
    if slot is None:
        return None
    det_m = det(m)
    if det_m > DET_CAP or math.prod(m[i][i] for i in range(n - 1)) > STABLE_BOX_CAP:
        return None
    if z_box_size(inverse(m), [m[i][i] - 1 for i in range(n - 1)]) > Z_BOX_CAP:
        return None
    return slot, {"n": n - 1, "det_l": det_l, "det_m": det_m, "text": edge_list_text(n, edges)}


def small_pairs(seed):
    """The small-pairs batch for one seed, in draw order."""
    rng = random.Random(seed)
    left = {slot: slot[3] for slot in SMALL_SLOTS}
    batch = []
    for _ in range(DRAW_LIMIT):
        wanted = [slot for slot, count in left.items() if count]
        if not wanted:
            return batch
        drawn = _draw(rng, wanted)
        if drawn is not None:
            left[drawn[0]] -= 1
            batch.append(drawn[1])
    raise RuntimeError(f"slots not filled after {DRAW_LIMIT} draws: {left}")
