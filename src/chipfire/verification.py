"""Acceptance checks against the frozen reference tables.

Each criterion is a function returning (passed, detail), built by
linalg.verdict from a list of (ok, text) facts.  run_all times
them and never raises: a check that throws is reported as failed with
the exception text, so a verification run always produces a full
matrix.  Criteria 3 and 10 replay reference values that are printed
wrong and pass only when each discrepancy is exactly the expected one;
their detail strings name every printed value they reject.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from itertools import product

from . import lattices, refdata
from .duality import (
    duality,
    duality_inverse,
    duality_rows,
    fixed_point_invariants,
    involution_mu,
    mu_case,
)
from .fixtures import C6_NEGATIVE_PATTERN, DIAMOND_M, diamond_pair, negative_c6_pair
from .frackets import (
    fracket_checks,
    fracket_key,
    fracket_partition,
    zero_fracket_quotient,
    zero_fracket_size,
)
from .linalg import ensure, gcd_entries, mat_vec, over, vec_sub, verdict
from .mmatrix import MMatrix, is_m_matrix
from .pairs import ChipFiringPair
from .sgraph import (
    SignedGraph,
    kn_structure,
    pattern_count,
    reduced_laplacians,
    scan_critical_groups,
    sweep,
    verify_half_n_integrality,
)

PROPERTY_SEED = 31415


CriterionResult = namedtuple("CriterionResult", "number name passed detail seconds")


# -- 1: unsigned baseline ------------------------------------------------------

def check_unsigned_baseline():
    m = MMatrix(DIAMOND_M)
    ss, cc = m.superstables(), m.criticals()
    return verdict([
        (set(ss) == set(refdata.M_SUPERSTABLES), f"superstables {ss} match the reference table"),
        (set(cc) == set(refdata.M_CRITICALS), f"criticals {cc} match the reference table"),
    ], f"{len(ss)} superstables and {len(cc)} criticals match the reference table")


# -- 2: pair enumeration -------------------------------------------------------

def check_pair_enumeration():
    pair = diamond_pair()
    got_ss = {(r.config, r.preimage, r.floor) for r in pair.enumerate_pair_superstables()}
    got_cc = {(r.config, r.preimage, r.floor) for r in pair.enumerate_pair_criticals()}
    return verdict([
        (got_ss == set(refdata.PAIR_SUPERSTABLE_ROWS), "superstable rows match the reference table"),
        (got_cc == set(refdata.PAIR_CRITICAL_ROWS), "critical rows match the reference table"),
    ], "all 12 superstable and 12 critical (config, preimage, floor) rows match")


# -- 3: duality map, with the reference's duality-table errata ------------------

def _unmasked_dual_config(pair, fl, fr):
    """Dual configuration of the preimage fl + fr / |det L| when mu's
    identity branch is dropped: c_max - sstab(c_max - fl) + fr / |det L|,
    moved to the configuration side."""
    cmax = pair.m.c_max
    return pair.config_of_numerators(pair.join(vec_sub(cmax, pair.m.sstab_of_class(vec_sub(cmax, fl))), fr))


def check_duality_map():
    pair = diamond_pair()
    worked = duality(pair, refdata.WORKED_DUALITY_INPUT)
    cfgs = (pair.to_config(refdata.WORKED_DUALITY_INPUT), pair.to_config(worked))
    ok_worked = worked == refdata.WORKED_DUALITY_OUTPUT and cfgs == refdata.WORKED_DUALITY_CONFIGS

    rows = duality_rows(pair)
    computed = {r.config: dual.config for r, _, dual in rows}
    ok_masked = computed == refdata.MASKED_DUALITY
    ok_duals = sorted(computed.values()) == sorted(cfg for cfg, _, _ in refdata.PAIR_CRITICAL_ROWS)
    ok_inverse = all(duality_inverse(pair, dual.preimage) == r.preimage for r, _, dual in rows)

    # the reference prints the unmasked map; it parts from the masked one
    # exactly where a floor takes the identity branch although its
    # complement c_max - floor lies in another M-class
    printed = refdata.PRINTED_DUALITY
    ok_printed = {
        r.config: _unmasked_dual_config(pair, r.floor, r.frac_num) for r, _, _ in rows
    } == printed
    mismatches = [cfg for cfg in computed if computed[cfg] != printed.get(cfg)]
    expected = [
        r.config for r, case, _ in rows
        if case == "identity" and pair.m.sstab_of_class(vec_sub(pair.m.c_max, r.floor)) != r.floor
    ]
    ok_rows = bool(mismatches) and mismatches == expected

    # the unmasked map is no duality: on (M, M) it is not x -> c_max - x
    mm = ChipFiringPair(DIAMOND_M, DIAMOND_M)
    mm_rows = mm.enumerate_pair_superstables()
    mm_broken = sum(
        _unmasked_dual_config(mm, r.floor, r.frac_num) != vec_sub(mm.m.c_max, r.config)
        for r in mm_rows
    )
    ok_mm = mm_broken > 0

    diff = vec_sub(refdata.NAIVE_MAP_CRITICAL, refdata.NAIVE_MAP_SUPERSTABLE)
    ok_naive = (
        diff == refdata.NAIVE_MAP_DIFFERENCE
        and pair.classify(diff).is_critical
        and pair.class_id(diff) != pair.class_id(refdata.NAIVE_MAP_SUPERSTABLE)
    )

    rows_text = "\n".join(
        [f"printed alignment differs on the {len(expected)} identity-branch rows whose complement changes class",
         *(f"       {cfg}: computed dual {computed[cfg]}, reference prints {printed.get(cfg)}" for cfg in mismatches)]
    )
    return verdict([
        (ok_worked, "duality sends (4/3,7/6,0) to (7/3,7/6,1), configs (5,4,0) -> (8,6,1)"),
        (ok_masked, "computed table equals the masked reference on all 12 rows"),
        (ok_duals, "the duals are exactly the 12 critical configurations"),
        (ok_inverse, "duality_inverse recovers every input"),
        (ok_printed, "printed table is the unmasked map s -> sstab(c_max - s) -- documented erratum"),
        (ok_rows, rows_text),
        (ok_mm, f"the unmasked map breaks duality(x) = c_max - x on (M, M), {mm_broken} of {len(mm_rows)} rows"),
        (ok_naive, "(9,7,2) - (1,1,0) = (8,6,2) is critical and in another L-class than (1,1,0);\n"
                   "       the reference calls it not critical -- documented erratum"),
    ])


# -- 4: involution ----------------------------------------------------------------

def check_involution():
    pair = diamond_pair()
    ss = pair.m.superstables()
    ok_table = all(
        (involution_mu(pair, s), mu_case(pair, s)) == refdata.MU_TABLE[s] for s in ss
    )
    ok_invol = all(involution_mu(pair, involution_mu(pair, s)) == s for s in ss)
    ok_example = involution_mu(pair, (1, 1, 0)) == (0, 0, 1)
    mm = ChipFiringPair(DIAMOND_M, DIAMOND_M)
    ok_mm_mu = all(
        involution_mu(mm, s) == s and mu_case(mm, s) == "identity"
        for s in mm.m.superstables()
    )
    cmax = mm.m.c_max
    ok_mm_dual = all(
        duality(mm, r.preimage) == vec_sub(cmax, r.preimage)
        for r in mm.enumerate_pair_superstables()
    )
    return verdict([
        (ok_table, "mu values and identity/dual cases match on all 8 superstables"),
        (ok_invol, "mu(mu(s)) = s on all 8 superstables"),
        (ok_example, "mu((1,1,0)) = (0,0,1)"),
        (ok_mm_mu, "mu = id on the pair (M, M)"),
        (ok_mm_dual, "duality(x) = c_max - x on the pair (M, M)"),
    ], "mu table, involution law, and (M, M) degeneration all hold")


# -- 5: frackets -------------------------------------------------------------------

def check_frackets():
    pair = diamond_pair()
    part_l = fracket_partition(pair, "L")
    part_m = fracket_partition(pair, "M")
    # every class is filed under the key that its representative U r carries
    filed = all(fracket_key(pair, part.side, mat_vec(dec.U, r)) == key
                for part, dec in ((part_l, pair.l_snf), (part_m, pair.m.snf))
                for key, ids in part.by_key.items() for r in ids)
    ok_keys = (filed and part_l.keys == refdata.L_FRACKET_KEYS
               and part_m.keys == refdata.M_FRACKET_KEYS)
    ok_sizes = part_l.fracket_size == refdata.FRACKET_SIZE == part_m.fracket_size

    ok_quot = (
        zero_fracket_quotient(pair, "L").invariant_factors == refdata.L_QUOTIENT_FACTORS
        and zero_fracket_quotient(pair, "M").invariant_factors == refdata.M_QUOTIENT_FACTORS
    )

    tagged = refdata.ZERO_FRACKET_TAGGED_VECTOR
    # the reference names {[(0,0,0)], [(3,3,3)]} as the zero fracket of
    # K(L), but (3,3,3) = L(1,2,2) is the identity there; the statement
    # holds verbatim on the M side, and |F0| = 2 holds on both sides.
    # F0 is the first fracket, since the zero residue is the least key
    f0_l, f0_m = part_l.groups[0], part_m.groups[0]
    tagged_degenerate = pair.class_id(tagged) == (0,) * pair.n
    ok_m_side = set(f0_m) == {pair.m.class_id((0, 0, 0)), pair.m.class_id(tagged)}
    ok_zero = (not any(part_l.residues[0]) and not any(part_m.residues[0]) and tagged_degenerate
               and ok_m_side and len(f0_l) == len(f0_m) == refdata.ZERO_FRACKET_SIZE)

    checks = fracket_checks(pair)
    ok_flcm = checks.largest == checks.flcm == (refdata.FLCM_ML_INV, refdata.FLCM_LM_INV)
    ok_formula = checks.predicted == checks.size == refdata.ZERO_FRACKET_SIZE
    ok_shortcut = checks.shortcut == (checks.size,) * 2 == (refdata.SCALED_GCD,) * 2

    return verdict([
        (ok_keys, "6 keys on side L and 4 keys on side M, as listed"),
        (ok_sizes, "every fracket has size 2"),
        (ok_zero, "zero fracket has size 2 on both sides\n"
                  "       note: the tagged member (3,3,3) of F0 collapses to the identity in K(L)\n"
                  "       (it equals L(1,2,2)); the two-class statement holds verbatim in K(M),\n"
                  "       and F0 of K(L) is {[(0,0,0)], [(2,2,0)]}"),
        (ok_quot, "K(M)/F0 = Z_4 and K(L)/F0 = Z_6"),
        (ok_flcm, "flcm(ML^-1) = 6 and flcm(LM^-1) = 4 equal the largest invariant factors"),
        (ok_formula, "size formula predicts 2 = actual"),
        (ok_shortcut, "cyclic shortcut gives gcd = 2 on both sides"),
    ])


# -- 6: fixed points -----------------------------------------------------------------

def check_fixed_points():
    pair = diamond_pair()
    fps, predicted, crit, ok = fixed_point_invariants(pair)
    f0 = zero_fracket_size(pair)
    d = lattices.count_order_le2(crit["quotient"])
    ok_diamond = ok and fps == refdata.FIXED_POINTS and predicted == 4 and (f0, d) == (2, 2)

    triangles = []
    shared = None
    for signs in product((1, -1), repeat=3):
        edges = tuple((u, v, s) for (u, v), s in zip(((1, 2), (1, 3), (2, 3)), signs))
        tri = reduced_laplacians(SignedGraph(n=3, edges=edges, sink=3), shared_m=shared)
        shared = tri.m
        fps, _, _, ok = fixed_point_invariants(tri)
        triangles.append(ok and len(fps) == refdata.TRIANGLE_FIXED_POINT_COUNTS[signs[0]])

    cycles = []
    for pattern, cyc in sweep("cycle", 6):
        fps, _, _, ok = fixed_point_invariants(cyc)
        expected = refdata.C6_FIXED_POINT_COUNTS.get(pattern, refdata.C6_FIXED_POINT_DEFAULT)
        cycles.append(ok and len(fps) == expected)

    return verdict([
        (ok_diamond, "diamond fixture: fixed points = {(0,0,0),(0,0,2),(0,1,0),(2,0,0)}, count 4 = 2*2"),
        (all(triangles), "all 8 signed triangles: count in {0, predicted}; order criteria hold"),
        (all(cycles), "all 16 signed six-cycles: count in {0, predicted}; order criteria hold"),
    ], "diamond count 4 = 2*2; 8 triangle and 16 six-cycle signings satisfy the count and order criteria")


# -- 7: critical set with no maximum ---------------------------------------------------

def check_no_cmax():
    target = set(refdata.C6_CRITICALS)
    matches = []
    for pattern, cyc in sweep("cycle", 6):
        crit = {r.config for r in cyc.enumerate_pair_criticals()}
        if crit == target:
            matches.append(pattern)
    ok_search = matches == [C6_NEGATIVE_PATTERN]

    fixture = negative_c6_pair()
    ok_l = fixture.l == refdata.C6_NEGATIVE_L
    crit = [r.config for r in fixture.enumerate_pair_criticals()]
    ok_set = set(crit) == target
    no_max = not any(all(all(c[i] >= d[i] for i in range(5)) for d in crit) for c in crit)

    return verdict([
        (ok_search, f"16-pattern search finds the fixture uniquely (patterns {matches})"),
        (ok_l, "fixture firing matrix matches the frozen all-negative six-cycle"),
        (ok_set, "critical configurations match the 6 reference rows"),
        (no_max, "no critical configuration dominates all others coordinatewise"),
    ], "unique signing (all four non-sink edges negative) reproduces the 6 reference criticals, no coordinatewise maximum")


# -- 8: complete graph on six vertices ---------------------------------------------------

def check_k6():
    rows = sweep("complete", 6)
    histogram = scan_critical_groups([(1, pair) for _, pair in rows], pattern_count("complete", 6))
    ok_hist = histogram == refdata.K6_CRITICAL_GROUPS
    verify_half_n_integrality(6)
    res = kn_structure(rows, 6)
    ok_transfer = res["half_n_transfer_integral"]
    ok_even = not res["even_factor_failures"]
    sampled = res["structural_samples"]

    return verdict([
        (ok_transfer, "3 * LM^-1 is integral for all 1024 sign patterns"),
        (ok_hist, f"critical groups are exactly the 7 reference groups ({len(histogram)} found)"),
        (ok_even, ">= 4 even invariant factors for every pattern"),
        (sampled >= 32, f"structural Z_2^4 subgroup verified on {sampled} sampled patterns"),
    ], f"1024 patterns: 3*LM^-1 integral, 7 reference critical groups, >=4 even factors everywhere, Z_2^4 verified structurally on {sampled} samples")


# -- 9: randomized property suites ----------------------------------------------------------

def _random_m_matrix(rng, n):
    """A random M-matrix whose diagonal dominates its column sums or, in
    half of the draws, its row sums; those can have negative column sums."""
    while True:
        grid = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    grid[i][j] = -rng.choice((0, 0, 1, 1, 2))
        by_rows = rng.randrange(2)
        for j in range(n):
            off = sum(-(grid[j][i] if by_rows else grid[i][j]) for i in range(n) if i != j)
            grid[j][j] = off + rng.randint(1, 3)
        if is_m_matrix(grid):
            return MMatrix(grid)


def _stabilize_random_order(m, c, rng):
    c = tuple(c)
    while True:
        ready = [i for i in range(m.n) if c[i] >= m.m[i][i]]
        if not ready:
            return c
        c = m.fire(c, rng.choice(ready))


def _widened_z_superstable(m, s):
    """Box verdict recomputed with every bound raised by one."""
    if any(q < 0 for q in s):
        return False
    bound = [q // m.det + 1 for q in mat_vec(m.adj, s)]
    for z in product(*(range(b + 1) for b in bound)):
        if not any(z):
            continue
        fired = vec_sub(s, mat_vec(m.m, z))
        if all(q >= 0 for q in fired):
            return False
    return True


def _random_pair(rng, n, m):
    while True:
        grid = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        try:
            pair = ChipFiringPair(grid, m)
        except ValueError:
            continue
        if 0 < abs(pair.det_l) <= 40:
            return pair


def check_property_suites():
    rng = random.Random(PROPERTY_SEED)
    for _ in range(100):
        n = rng.randint(1, 3)
        m = _random_m_matrix(rng, n)
        ss = m.superstables()
        ensure(len(ss) == abs(m.det), "|det M| superstables")
        ensure(len({m.class_id(s) for s in ss}) == len(ss), "one superstable per class")
        for _ in range(3):
            c = tuple(rng.randint(0, m.m[i][i] + 2) for i in range(n))
            ensure(m.stabilize(c) == _stabilize_random_order(m, c, rng), "schedule independence")
        for _ in range(3):
            s = tuple(rng.randint(0, m.m[i][i] - 1) for i in range(n))
            ensure(m.is_z_superstable(s) == _widened_z_superstable(m, s), "box widening")

    for _ in range(50):
        n = rng.randint(1, 3)
        m = _random_m_matrix(rng, n)
        pair = _random_pair(rng, n, m)
        rows = pair.enumerate_pair_superstables()
        for r in rows:
            ensure(pair.to_preimage(r.config) == r.preimage, "to_preimage inverts to_config")
            ensure(pair.to_config(r.preimage) == r.config, "to_config inverts to_preimage")
        for _ in range(5):
            v = tuple(rng.randint(-6, 6) for _ in range(n))
            w = tuple(rng.randint(-3, 3) for _ in range(n))
            shifted = vec_sub(v, mat_vec(pair.l, w))
            ensure(fracket_key(pair, "L", v) == fracket_key(pair, "L", shifted),
                     "{M L^-1 v} is constant on L-classes")
        crit_pre = {r.preimage for r in pair.enumerate_pair_criticals()}
        images = set()
        for r in rows:
            d = duality(pair, r.preimage)
            _, fr = pair.split(pair.rplus_numerators(d))
            ensure(over(fr, pair.den_l) == r.frac, "duality preserves fractional parts")
            ensure(duality_inverse(pair, d) == r.preimage, "duality_inverse undoes duality")
            images.add(d)
        ensure(images == crit_pre, "duality is a bijection onto the critical preimages")

    # every property above is an ensure, so reaching here is the verdict
    return verdict([], f"100 random M-matrices and 50 random pairs passed every property check (seed {PROPERTY_SEED})")


# -- 10: documented erratum in the scaled transfer matrix -------------------------------------

def check_scaled_transfer_erratum():
    pair = diamond_pair()
    scaled = pair.n_ml
    ok_matrix = scaled == refdata.SCALED_ML_INV
    computed = scaled[2][2]
    printed = refdata.SCALED_ML_INV_PRINTED_33
    ok_flag = computed == 12 and printed == 2 and computed != printed
    ok_gcd = gcd_entries(scaled) == refdata.SCALED_GCD
    return verdict([
        (ok_matrix, "|L| ML^-1 = [[16,-16,-4],[-10,16,-2],[0,0,12]]"),
        (ok_flag, f"(3,3) entry: computed {computed}, reference prints {printed} -- documented erratum"),
        (ok_gcd, "gcd of entries = 2 either way, matching the zero-fracket size"),
    ])


CRITERIA = (
    (1, "unsigned-baseline", check_unsigned_baseline),
    (2, "pair-enumeration", check_pair_enumeration),
    (3, "duality-map", check_duality_map),
    (4, "involution", check_involution),
    (5, "frackets", check_frackets),
    (6, "fixed-points", check_fixed_points),
    (7, "no-cmax-cycle", check_no_cmax),
    (8, "k6-theorems", check_k6),
    (9, "property-suites", check_property_suites),
    (10, "scaled-transfer-erratum", check_scaled_transfer_erratum),
)


def run_criterion(number):
    for num, name, fn in CRITERIA:
        if num == number:
            start = time.perf_counter()
            try:
                passed, detail = fn()
            except Exception as exc:  # report, never crash the matrix
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            return CriterionResult(num, name, passed, detail, time.perf_counter() - start)
    raise ValueError(f"no criterion {number}")


def run_all():
    return tuple(run_criterion(num) for num, _, _ in CRITERIA)
