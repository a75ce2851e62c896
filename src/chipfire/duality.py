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
classical complement.

Fixed points of mu are the s with {L M^-1 (2s)} = {L M^-1 c_max}.  Their
count is either 0 or |F0_M| * d where F0_M is the zero fracket of M for
the pair and d counts the elements of order <= 2 in K(M) / F0_M.  If the
class of c_max has odd order in that quotient the count is never zero;
if the quotient is cyclic and the order of c_max's class is even, the
count is nonzero iff |quotient| / ord is even.
"""

from __future__ import annotations

from . import lattices
from .frackets import zero_fracket_lattice
from .linalg import mat_vec, over, vec_sub
from .pairs import ChipFiringPair


def _mu(pair: ChipFiringPair, s):
    """(case, mu(s)) for a z-superstable s of M, computed on first ask and
    kept per pair.  The identity case {L M^-1 (2s)} = {L M^-1 c_max} holds
    iff L M^-1 (2s - c_max) is integral, i.e. L adj(M) (2s - c_max) = 0
    mod det M: one transfer per floor."""
    entry = pair._mu.get(s)
    if entry is None:
        m = pair.m
        shift = tuple(2 * q - c for q, c in zip(s, m.c_max))
        if any(q % pair.det_m for q in mat_vec(pair.n_lm, shift)):
            entry = ("dual", vec_sub(m.c_max, m.crit_of_class(s)))
        else:
            entry = ("identity", s)
        pair._mu[s] = entry
    return entry


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


def _dual_numerators(pair: ChipFiringPair, p, inverse):
    """Preimage numerators of D(x) (or D^-1(x) when inverse) for the
    numerators p of x, or None when x is not a superstable (critical)
    preimage."""
    c_max = pair.m.c_max
    fl, fr = pair.split(p)
    # fl is critical iff c_max - fl is superstable
    key = vec_sub(c_max, fl) if inverse else fl
    if not _is_z_superstable(pair, key):
        return None
    image = _mu(pair, key)[1]
    return pair.join(image if inverse else vec_sub(c_max, image), fr)


def _apply(pair: ChipFiringPair, x, inverse, what):
    p = pair.rplus_numerators(x)
    q = None if p is None else _dual_numerators(pair, p, inverse)
    if q is None:
        raise ValueError(f"not a {what} preimage")
    return over(q, pair.den_l)


def duality(pair: ChipFiringPair, x):
    """Send a superstable preimage x to the matching critical preimage."""
    return _apply(pair, x, False, "superstable")


def duality_inverse(pair: ChipFiringPair, y):
    """Send a critical preimage y back to its superstable preimage."""
    return _apply(pair, y, True, "critical")


def duality_rows(pair: ChipFiringPair):
    """(superstable row, mu case, dual critical row) per superstable
    configuration, ascending lex, on integer rows.

    D(x) = c_max - mu(floor(x)) + {x} needs mu only at the floors of the
    superstable rows, and each dual is looked up among the critical rows
    by its (floor, fractional numerators), the tuples the rows hold.
    Raises RuntimeError when a dual is not a critical preimage or the
    duals miss a critical: D must be a bijection onto the criticals."""
    c_max = pair.m.c_max
    criticals = {(r.floor, r.frac_num): r for r in pair.enumerate_pair_criticals()}
    rows = []
    for r in pair.enumerate_pair_superstables():
        case, image = _mu(pair, r.floor)
        dual = criticals.get((vec_sub(c_max, image), r.frac_num))
        if dual is None:
            raise RuntimeError(f"the dual of the superstable {r.config} is not a critical preimage")
        rows.append((r, case, dual))
    if len({dual.config for _, _, dual in rows}) != len(criticals):
        raise RuntimeError("the duals are not the critical configurations")
    return rows


def duality_table(pair: ChipFiringPair):
    """One row per superstable configuration, ascending lex, giving the
    dual critical on both the configuration and preimage sides, with
    rational preimages.  Raises RuntimeError if the rows are not a
    bijection onto the criticals."""
    return [
        {
            "config": r.config,
            "preimage": r.preimage,
            "mu_case": case,
            "dual_config": dual.config,
            "dual_preimage": dual.preimage,
        }
        for r, case, dual in duality_rows(pair)
    ]


def fixed_points(pair: ChipFiringPair):
    """The z-superstables of M fixed by mu, in lex order: mu at every
    superstable of M, capped like M's class walk."""
    return tuple(s for s in pair.m.superstables() if _mu(pair, s)[0] == "identity")


def predicted_fixed_point_count(pair: ChipFiringPair):
    """|F0_M| * #{order <= 2 in K(M)/F0_M}; the true count is this or 0."""
    _, quotient = zero_fracket_lattice(pair, "M")
    f0_size, rest = divmod(abs(pair.det_m), quotient.order)
    if rest:
        raise RuntimeError(f"|K(M) / F0_M| = {quotient.order} does not divide "
                           f"|det M| = {abs(pair.det_m)}")
    return f0_size * lattices.count_order_le2(quotient)


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
    """
    lam, quotient = zero_fracket_lattice(pair, "M")
    ord_cmax = lattices.element_order(lam, pair.m.c_max)
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
