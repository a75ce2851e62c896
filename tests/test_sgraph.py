import pytest

from chipfire import refdata
from chipfire.fixtures import DIAMOND_L, DIAMOND_M, diamond_graph
from chipfire.sgraph import (
    SignedGraph,
    count_even_invariant_factors,
    family,
    format_edge_list,
    kn_z2_subgroup,
    parse_edge_list,
    reduced_laplacians,
    scan_critical_groups,
    sweep,
    verify_half_n_integrality,
)


def test_parse_format_roundtrip():
    text = "n 4 sink 4\n1 2 -\n1 3 +\n2 3 +\n2 4 +\n3 4 -\n"
    g = parse_edge_list(text)
    assert g.n == 4 and g.sink == 4
    assert format_edge_list(g) == text
    assert parse_edge_list(format_edge_list(g)) == g


def test_parse_accepts_comments_and_blank_lines():
    g = parse_edge_list("# a triangle\nn 3 sink 3\n\n1 2 +\n1 3 +\n2 3 -\n")
    assert len(g.edges) == 3


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3 sink 3\n1 2 +",
        "n 3 sink 3\n1 1 +",
        "n 3 sink 3\n1 2 *",
        "n 3 sink 3\n1 2 +-\n1 3 +\n2 3 +",
        "n 3 sink 3\n1 2",
    ],
)
def test_parse_rejects_bad_input(text):
    with pytest.raises(ValueError):
        parse_edge_list(text)


def test_rejects_disconnected_graph():
    with pytest.raises(ValueError):
        SignedGraph(n=4, edges=((1, 2, 1),), sink=4)


def test_rejects_bad_sink():
    with pytest.raises(ValueError):
        SignedGraph(n=3, edges=((1, 2, 1), (2, 3, 1)), sink=5)


def test_diamond_graph_laplacians(diamond):
    pair = reduced_laplacians(diamond_graph())
    assert pair.l == DIAMOND_L
    assert pair.m.m == DIAMOND_M
    assert pair.l == diamond.l


def test_sink_incident_signs_do_not_matter():
    plus = parse_edge_list("n 3 sink 3\n1 2 -\n1 3 +\n2 3 +\n")
    minus = parse_edge_list("n 3 sink 3\n1 2 -\n1 3 -\n2 3 -\n")
    a = reduced_laplacians(plus)
    b = reduced_laplacians(minus)
    assert a.l == b.l and a.m.m == b.m.m


def test_family_bit_convention():
    # bit 0 flips the lex-first non-sink edge (1, 2)
    g0 = family("cycle", 4, 0)
    g1 = family("cycle", 4, 1)
    signs0 = {(u, v): s for u, v, s in g0.edges}
    signs1 = {(u, v): s for u, v, s in g1.edges}
    assert signs0[(1, 2)] == 1 and signs1[(1, 2)] == -1
    assert all(signs1[e] == signs0[e] for e in signs0 if e != (1, 2))


def test_family_validation():
    with pytest.raises(ValueError):
        family("cycle", 2)
    with pytest.raises(ValueError):
        family("path", 4)
    with pytest.raises(ValueError):
        family("cycle", 4, 1 << 10)


def test_sweep_shares_one_m_matrix():
    rows = sweep("cycle", 5)
    assert [p for p, _ in rows] == list(range(8))
    first = rows[0][1].m
    assert all(pair.m is first for _, pair in rows)


def test_shared_m_must_match_the_graph():
    other = reduced_laplacians(family("cycle", 4)).m
    with pytest.raises(ValueError):
        reduced_laplacians(family("complete", 4), shared_m=other)


def test_half_n_integrality():
    assert verify_half_n_integrality(4)["n"] == 4
    assert verify_half_n_integrality(6)["n"] == 6
    # the inverse shape holds for every n, even without the half-n preimages
    assert verify_half_n_integrality(5)["diag"] == "2/n"


def test_kn_z2_subgroup_on_k4():
    pair = reduced_laplacians(family("complete", 4, 0))
    res = kn_z2_subgroup(pair, 4)
    assert res["subgroup"].invariant_factors == (2, 2)


def test_scan_cycle_four():
    assert scan_critical_groups(sweep("cycle", 4)) == {(4,): 4}


def test_count_even_invariant_factors(diamond):
    assert count_even_invariant_factors(diamond.l_group) == 1
    pair = reduced_laplacians(family("complete", 4, 0))
    assert count_even_invariant_factors(pair.l_group) == 2


def test_c6_negative_fixture(c6_negative):
    assert c6_negative.l == refdata.C6_NEGATIVE_L
    crit = [r.config for r in c6_negative.enumerate_pair_criticals()]
    assert tuple(crit) == refdata.C6_CRITICALS


def test_c6_negative_has_no_cmax(c6_negative):
    # no critical dominates all others coordinatewise
    crit = [r.config for r in c6_negative.enumerate_pair_criticals()]
    for c in crit:
        assert any(any(o[i] > c[i] for i in range(len(c))) for o in crit)
    coordinate_max = tuple(max(c[i] for c in crit) for i in range(5))
    assert coordinate_max not in crit
