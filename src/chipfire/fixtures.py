"""Built-in example inputs.

The diamond fixture is K4 minus one edge, sink at vertex 4, with the
single edge {1,2} negative.  Its reduced matrices are

    L = [[3, 1, -1], [1, 2, -1], [-1, -1, 3]]
    M = [[3, -1, -1], [-1, 2, -1], [-1, -1, 3]]

The negative six-cycle fixture is C6 with sink 6 and every non-sink
edge negative; its critical configurations have no coordinatewise
maximum, which no single M-matrix can exhibit.
"""

from __future__ import annotations

from .pairs import ChipFiringPair
from .sgraph import SignedGraph, family, reduced_laplacians

DIAMOND_L = ((3, 1, -1), (1, 2, -1), (-1, -1, 3))
DIAMOND_M = ((3, -1, -1), (-1, 2, -1), (-1, -1, 3))

C6_NEGATIVE_PATTERN = 0b1111


def diamond_graph() -> SignedGraph:
    edges = ((1, 2, -1), (1, 3, 1), (1, 4, 1), (2, 3, 1), (3, 4, 1))
    return SignedGraph(n=4, edges=edges, sink=4)


def diamond_pair() -> ChipFiringPair:
    pair = reduced_laplacians(diamond_graph())
    if pair.l != DIAMOND_L or pair.m.m != DIAMOND_M:
        raise RuntimeError("the diamond graph no longer gives the frozen L and M")
    return pair


def negative_c6_graph() -> SignedGraph:
    return family("cycle", 6, C6_NEGATIVE_PATTERN)


def negative_c6_pair() -> ChipFiringPair:
    return reduced_laplacians(negative_c6_graph())


FIXTURES = {
    "diamond": diamond_pair,
    "c6-negative": negative_c6_pair,
}
