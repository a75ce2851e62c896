"""A K6 pair with a large denominator, pinned byte for byte.

The golden cases use fixtures whose preimage denominators are at most
12.  Sign pattern 691 of K6 has det L = 2048, so its rows carry
numerators over 2048 that reduce to many different denominators.  The
digests are the benchmark's frozen ones for this pattern (the
`k6_pairs["691"]` entry of bench/reference.json, frozen by
bench/freeze.py); the edge list is the one its input generator writes
for the pattern (bench/gen.py, `k6_input(691)`).
"""

import hashlib

import pytest

from chipfire.cli import main
from chipfire.sgraph import family, format_edge_list, reduced_laplacians

PATTERN = 691
EDGE_LIST = """n 6 sink 6
1 2 -
1 3 -
1 4 +
1 5 +
1 6 +
2 3 -
2 4 -
2 5 +
2 6 +
3 4 -
3 5 +
3 6 +
4 5 -
4 6 +
5 6 +
"""
STDOUT_SHA256 = {
    ("enumerate", "--kind", "superstable", "--preimages", "--format", "csv"):
        "8b3ee2349979e6e26a589b143e2168fef85ad247eab0e54dd65fd651af506ccb",
    ("duality", "--show-mu-cases"):
        "a5cb8a70d38761329532ef9a12523ff515f81107b43b81f7eb5a8dfdb583db2b",
}


def test_pattern_is_the_benchmark_input():
    graph = family("complete", 6, PATTERN)
    assert format_edge_list(graph) == EDGE_LIST
    assert reduced_laplacians(graph).det_l == 2048


@pytest.mark.parametrize("argv", sorted(STDOUT_SHA256), ids=lambda a: a[0])
def test_k6_pattern_output_digest(tmp_path, capsys, argv):
    path = tmp_path / f"k6-pattern-{PATTERN}.sg"
    path.write_text(EDGE_LIST)
    assert main([*argv, "--graph", str(path)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert hashlib.sha256(out.out.encode()).hexdigest() == STDOUT_SHA256[argv]
