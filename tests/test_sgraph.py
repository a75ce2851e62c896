from collections import Counter
from itertools import combinations, permutations, product

import pytest

from chipfire import refdata, sgraph
from chipfire.fixtures import DIAMOND_L, DIAMOND_M, diamond_graph
from chipfire.lattices import AbelianGroup, EnumerationCapExceeded
from chipfire.sgraph import (
    SignedGraph,
    count_even_invariant_factors,
    family,
    kn_z2_subgroup,
    orbit_representatives,
    orbit_sweep,
    parse_edge_list,
    pattern_count,
    reduced_laplacians,
    scan_critical_groups,
    sweep,
    verify_half_n_integrality,
)


def test_parse_format_roundtrip(format_edge_list):
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


@pytest.mark.parametrize("edges", [
    ((1, 1, 1), (1, 3, 1), (2, 3, 1)),      # a loop
    ((1, 2, 0), (1, 3, 1), (2, 3, 1)),      # a bad sign
])
def test_rejects_loops_and_bad_signs(edges):
    with pytest.raises(ValueError):
        SignedGraph(n=3, edges=edges, sink=3)


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


@pytest.mark.parametrize("kind", ["complete", "cycle"])
@pytest.mark.parametrize("n", range(3, 10))
def test_pattern_count_closed_form(kind, n):
    assert pattern_count(kind, n) == 1 << len(family(kind, n).non_sink_edges)


@pytest.mark.parametrize(
    "kind, n, message",
    [("cycle", 2, "need n >= 3"), ("path", 2, "need n >= 3"), ("path", 4, "kind must be 'complete' or 'cycle'")],
)
def test_pattern_count_rejects_what_family_rejects(kind, n, message):
    for build in (pattern_count, family):
        with pytest.raises(ValueError, match=message):
            build(kind, n)


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


@pytest.mark.parametrize("n, pattern", [(4, p) for p in range(8)] + [(6, p) for p in range(0, 1024, 32)])
def test_kn_z2_subgroup_against_subset_sums(n, pattern):
    # the generated subgroup has one element per distinct class among the
    # 2^(n-1) subset sums of the c_i, all of order <= 2, so it is Z_2^r
    pair = reduced_laplacians(family("complete", n, pattern))
    res = kn_z2_subgroup(pair, n)
    gens = res["generators"]
    classes = {
        pair.class_id(tuple(sum(col) for col in zip((0,) * pair.n, *chosen)))
        for r in range(len(gens) + 1) for chosen in combinations(gens, r)
    }
    r = len(classes).bit_length() - 1
    assert len(classes) == 1 << r
    assert res["subgroup"] == AbelianGroup((2,) * r)


def test_kn_z2_subgroup_budget_stops_before_any_check():
    # K22: sum of C(21, r) for r <= 10 is 2^20 = 1,048,576 subset sums
    pair = reduced_laplacians(family("complete", 22, 0))
    with pytest.raises(EnumerationCapExceeded, match="1048576 subset sums exceeds cap 1000000"):
        kn_z2_subgroup(pair, 22)
    assert not {"n_lm", "n_ml", "adj_l"} & set(vars(pair))


def test_scan_cycle_four():
    assert scan_critical_groups([(1, pair) for _, pair in sweep("cycle", 4)], 4) == {(4,): 4}


def test_scan_rejects_weights_that_miss_a_pattern():
    with pytest.raises(RuntimeError):
        scan_critical_groups([(1, pair) for _, pair in sweep("cycle", 4)[1:]], 4)


def _laplacian(kind, n, pattern):
    return reduced_laplacians(family(kind, n, pattern)).l


def _switched(l, d):
    return tuple(tuple(d[i] * x * d[j] for j, x in enumerate(row)) for i, row in enumerate(l))


@pytest.mark.parametrize("kind, n", [("complete", 5), ("cycle", 6)])
def test_every_pattern_switches_to_exactly_one_representative(switching_representatives, kind, n):
    # L_p = D L_rep D for one representative and some D = diag(+-1), tried
    # over all D with d_0 = +1 (D and -D switch alike)
    reps = dict(switching_representatives(kind, n))
    rep_ls = {r: _laplacian(kind, n, r) for r in reps}
    signs = [(1,) + rest for rest in product((1, -1), repeat=n - 2)]
    hits = Counter()
    for pattern in range(pattern_count(kind, n)):
        l = _laplacian(kind, n, pattern)
        found = {r for r, l_rep in rep_ls.items() for d in signs if _switched(l_rep, d) == l}
        assert len(found) == 1, (pattern, found)
        hits[found.pop()] += 1
    assert hits == reps


@pytest.mark.parametrize("kind, n", [(k, n) for k in ("complete", "cycle") for n in range(3, 9)] + [("cycle", 21)])
def test_representative_weights_sum_to_the_pattern_count(switching_representatives, kind, n):
    reps = list(switching_representatives(kind, n))
    assert [p for p, _ in reps] == sorted({p for p, _ in reps})
    assert {w for _, w in reps} == {1 << (n - 2)}
    assert sum(w for _, w in reps) == pattern_count(kind, n)
    if kind == "cycle":
        assert reps == [(0, 1 << (n - 2))]
    else:
        assert len(reps) == 1 << (n - 2) * (n - 3) // 2


@pytest.mark.parametrize("kind, n", [("complete", 4), ("complete", 5), ("complete", 6), ("cycle", 4), ("cycle", 6)])
def test_representative_histogram_equals_the_full_sweep(class_sweep, kind, n):
    full = scan_critical_groups([(1, pair) for _, pair in sweep(kind, n)], pattern_count(kind, n))
    assert scan_critical_groups(class_sweep(kind, n), pattern_count(kind, n)) == full


K7_HISTOGRAM = {
    (3, 9765): 5760,
    (5, 5, 5, 5, 55): 32,
    (5, 5, 1255): 1920,
    (5, 5, 1295): 480,
    (5, 45, 135): 480,
    (5, 5355): 1440,
    (7, 7, 7, 7, 7): 32,
    (7, 7, 455): 480,
    (7, 7, 511): 1920,
    (7, 21, 189): 480,
    (7, 4305): 1440,
    (31, 31, 31): 384,
    (35, 805): 640,
    (27559,): 5760,
    (28735,): 5760,
    (30535,): 5760,
}


def test_k7_representative_histogram(class_sweep):
    # cross-checked once against the full 32,768-pattern sweep (see CHANGES.md)
    assert scan_critical_groups(class_sweep("complete", 7), 32768) == K7_HISTOGRAM


ORBITS = {("complete", 4): 2, ("complete", 5): 3, ("complete", 6): 7, ("complete", 7): 16,
          ("complete", 8): 54, **{("cycle", n): 1 for n in range(3, 9)}}


@pytest.mark.parametrize("kind, n", sorted(ORBITS))
def test_orbit_weights_sum_to_the_pattern_count(switching_representatives, kind, n):
    # the K_n orbits are the two-graphs on n - 1 vertices (Mallows-Sloane 1975)
    reps = list(orbit_representatives(kind, n))
    assert len(reps) == ORBITS[kind, n]
    assert [p for p, _ in reps] == sorted({p for p, _ in reps})
    assert {p for p, _ in reps} <= {p for p, _ in switching_representatives(kind, n)}
    assert all(w % (1 << n - 2) == 0 for _, w in reps)
    assert sum(w for _, w in reps) == pattern_count(kind, n)


@pytest.mark.parametrize("kind, n", [("complete", 5), ("complete", 6), ("complete", 7), ("cycle", 4), ("cycle", 6)])
def test_orbit_histogram_equals_the_class_sweep(class_sweep, kind, n):
    count = pattern_count(kind, n)
    assert scan_critical_groups(orbit_sweep(kind, n), count) == scan_critical_groups(class_sweep(kind, n), count)


def test_k7_orbit_histogram():
    assert scan_critical_groups(orbit_sweep("complete", 7), 32768) == K7_HISTOGRAM


def _relabeled(l, perm):
    # P L P^T: vertex i of l becomes vertex perm[i]
    out = [[0] * len(l) for _ in l]
    for i, row in enumerate(l):
        for j, x in enumerate(row):
            out[perm[i]][perm[j]] = x
    return tuple(map(tuple, out))


def test_every_k5_pattern_reaches_exactly_one_orbit_representative():
    # L_p = D P L_rep P^T D for one orbit representative and some
    # relabeling P and switching D = diag(+-1) with d_0 = +1
    reps = dict(orbit_representatives("complete", 5))
    rep_ls = {r: _laplacian("complete", 5, r) for r in reps}
    images = {r: {_switched(_relabeled(l, perm), d)
                  for perm in permutations(range(4))
                  for d in ((1,) + rest for rest in product((1, -1), repeat=3))}
              for r, l in rep_ls.items()}
    hits = Counter()
    for pattern in range(pattern_count("complete", 5)):
        found = [r for r in reps if _laplacian("complete", 5, pattern) in images[r]]
        assert len(found) == 1, (pattern, found)
        hits[found[0]] += 1
    assert hits == reps


K8_HISTOGRAM = {
    (2, 2, 2, 2, 2, 15330): 80640,
    (2, 2, 2, 2, 2, 15378): 80640,
    (2, 2, 2, 2, 2, 15826): 161280,
    (2, 2, 2, 2, 2, 16066): 161280,
    (2, 2, 2, 2, 4, 7824): 80640,
    (2, 2, 2, 2, 4, 7968): 80640,
    (2, 2, 2, 2, 4, 8096): 80640,
    (2, 2, 2, 2, 4, 8288): 80640,
    (2, 2, 2, 2, 6, 5334): 40320,
    (2, 2, 2, 2, 6, 5430): 80640,
    (2, 2, 2, 2, 6, 5478): 80640,
    (2, 2, 2, 2, 6, 5694): 40320,
    (2, 2, 2, 2, 6, 5742): 26880,
    (2, 2, 2, 2, 8, 3432): 26880,
    (2, 2, 2, 2, 8, 3624): 26880,
    (2, 2, 2, 2, 8, 3720): 80640,
    (2, 2, 2, 2, 8, 3784): 80640,
    (2, 2, 2, 2, 12, 2736): 26880,
    (2, 2, 2, 2, 12, 2784): 120960,
    (2, 2, 2, 2, 12, 2820): 40320,
    (2, 2, 2, 2, 16, 1776): 80640,
    (2, 2, 2, 2, 16, 1840): 40320,
    (2, 2, 2, 2, 16, 1904): 40320,
    (2, 2, 2, 2, 16, 1952): 80640,
    (2, 2, 2, 2, 16, 1968): 20160,
    (2, 2, 2, 2, 22, 1430): 53760,
    (2, 2, 2, 2, 22, 1518): 16128,
    (2, 2, 2, 2, 24, 1320): 20160,
    (2, 2, 2, 2, 44, 704): 16128,
    (2, 2, 2, 2, 44, 748): 53760,
    (2, 2, 2, 2, 48, 720): 6720,
    (2, 2, 2, 2, 58, 522): 23040,
    (2, 2, 2, 2, 60, 540): 26880,
    (2, 2, 2, 2, 80, 400): 26880,
    (2, 2, 2, 2, 82, 410): 23040,
    (2, 2, 2, 6, 12, 864): 13440,
    (2, 2, 2, 6, 24, 360): 6720,
    (2, 2, 2, 6, 24, 456): 2240,
    (2, 2, 2, 6, 30, 330): 6720,
    (2, 2, 4, 8, 8, 480): 13440,
    (2, 2, 4, 16, 16, 128): 6720,
    (2, 2, 4, 24, 24, 48): 2240,
    (2, 2, 6, 6, 6, 630): 6720,
    (2, 2, 6, 6, 6, 654): 6720,
    (2, 2, 6, 6, 24, 168): 1344,
    (2, 2, 6, 6, 36, 108): 4480,
    (2, 2, 8, 8, 8, 168): 1344,
    (2, 2, 8, 8, 8, 200): 4480,
    (2, 2, 8, 8, 16, 96): 6720,
    (2, 2, 8, 8, 16, 112): 6720,
    (6, 6, 6, 6, 6, 78): 64,
    (8, 8, 8, 8, 8, 8): 64,
}


def test_k8_orbit_histogram():
    # 54 pairs for 2,097,152 patterns; cross-checked once against the full
    # 32,768-class sweep (see CHANGES.md)
    assert scan_critical_groups(orbit_sweep("complete", 8), 1 << 21) == K8_HISTOGRAM


def test_orbit_walk_over_the_class_cap_does_no_work(monkeypatch):
    # K9: 2^28 patterns in 2^21 switching classes
    def refuse(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(sgraph, "_switching_tree", refuse)
    with pytest.raises(EnumerationCapExceeded,
                       match="^268435456 sign patterns in 2097152 switching classes exceeds cap 1000000$"):
        orbit_sweep("complete", 9)


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
