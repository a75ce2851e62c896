"""Command-line front end.

Input selection (one of):
  --pair FILE      JSON {"L": [[...]], "M": [[...]]}, rationals as "a/b"
  --graph FILE     edge list: header "n <count> sink <id>", then lines "u v +" / "u v -"
  --fixture NAME   built-in example input (diamond, c6-negative)

Output: --format {table,json,csv} (default table), --out FILE.  All
output is deterministic: identical inputs render byte-identical text
on every run.  paper-check omits timings unless --timings is given,
since wall-clock numbers are not reproducible.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import namedtuple
from itertools import repeat
from math import gcd

from .fixtures import FIXTURES
from .lattices import AbelianGroup, class_id
from .linalg import mat_from_json, mat_to_json, over_json, vec_to_json
from .mmatrix import MMatrix, is_m_matrix
from .pairs import ChipFiringPair, PairRow
from .sgraph import (
    count_text,
    kn_structure,
    orbit_sweep,
    parse_edge_list,
    pattern_count,
    reduced_laplacians,
    scan_critical_groups,
    sweep,
    verify_half_n_integrality,
)


def _fmt_vec(v):
    # str renders an int, a Fraction and its JSON string "a/b" alike
    return "(" + ", ".join(map(str, v)) + ")"


def _fmt_mat_lines(a):
    cells = [[str(x) for x in row] for row in a]
    widths = [max(len(cells[i][j]) for i in range(len(cells))) for j in range(len(cells[0]))]
    return ["  [" + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + "]" for row in cells]


class Report(namedtuple("Report", "payload headers rows lines code", defaults=(None, 0))):
    """What a command produced, in every format.

    json prints the payload; csv prints the headers and rows; table
    prints the hand-written lines when there are any, else the headers
    and rows aligned.  code is the exit code.
    """

    __slots__ = ()

    def render(self, fmt):
        if fmt == "json":
            return json.dumps(self.payload, indent=2, sort_keys=True) + "\n"
        if fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(self.headers)
            writer.writerows(self.rows)
            return buf.getvalue()
        lines = self.lines
        if lines is None:
            cells = [list(self.headers)] + [[str(c) for c in row] for row in self.rows]
            widths = [max(len(r[j]) for r in cells) for j in range(len(self.headers))]
            lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in cells]
            lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines) + "\n"


def _over_cell(floor, frac_num, den):
    """Cell text of the vector floor + frac_num / den, 0 <= frac_num < den:
    each entry an integer, or "a/b" reduced by gcd(frac_num, den), as
    over_json renders it."""
    parts = []
    for f, r in zip(floor, frac_num):
        if r:
            g = gcd(r, den)
            d = den // g
            parts.append(f"{f * d + r // g}/{d}")
        else:
            parts.append(str(f))
    return "(" + ", ".join(parts) + ")"


# what a column shows of a PairRow field, or (None) of a plain value,
# as (JSON value, cell text)
_ROW_FIELDS = {
    None: (lambda x: x, lambda x: x),
    "config": (lambda r: vec_to_json(r.config), lambda r: _fmt_vec(r.config)),
    "preimage": (lambda r: over_json(r.num, r.den),
                 lambda r: _over_cell(r.floor, r.frac_num, r.den)),
    "floor": (lambda r: vec_to_json(r.floor), lambda r: _fmt_vec(r.floor)),
    "frac": (lambda r: over_json(r.frac_num, r.den),
             lambda r: _over_cell(repeat(0), r.frac_num, r.den)),
}


def _rows_report(args, records, columns, shown):
    """Report of records, each a tuple of PairRows and plain values.

    Each column is (name, index into the record, PairRow field, or None
    for a plain value).  json prints every column and table and csv the
    first shown ones; only the format printed is built, json from the
    JSON renderers and table and csv from the cell texts.
    """
    if args.format == "json":
        getters = [(name, i, _ROW_FIELDS[field][0]) for name, i, field in columns]
        payload = [{name: get(rec[i]) for name, i, get in getters} for rec in records]
        return Report(payload, (), None)
    getters = [(i, _ROW_FIELDS[field][1]) for _, i, field in columns[:shown]]
    rows = [[get(rec[i]) for i, get in getters] for rec in records]
    return Report(None, tuple(name for name, _, _ in columns[:shown]), rows)


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_pair(args) -> ChipFiringPair:
    chosen = [s for s in ("pair", "graph", "fixture") if getattr(args, s, None)]
    if len(chosen) != 1:
        raise ValueError("exactly one of --pair, --graph, --fixture is required")
    if args.pair:
        with open(args.pair) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("--pair needs a JSON object with L and M grids")
        return ChipFiringPair(_grid(data, "L"), _grid(data, "M"))
    if args.graph:
        with open(args.graph) as fh:
            return reduced_laplacians(parse_edge_list(fh.read()))
    return FIXTURES[args.fixture]()


def _grid(data, key):
    if key not in data:
        raise ValueError(f"--pair needs a JSON object with L and M grids (missing {key})")
    return mat_from_json(data[key])


def _load_matrix(args):
    """The M side alone, for check-mmatrix; accepts a bare grid too."""
    if args.pair:
        with open(args.pair) as fh:
            data = json.load(fh)
        return _grid(data, "M") if isinstance(data, dict) else mat_from_json(data)
    return _load_pair(args).m.m


# -- subcommands ---------------------------------------------------------------

def cmd_check_mmatrix(args):
    grid = _load_matrix(args)
    ok = is_m_matrix(grid)
    payload = {"is_m_matrix": ok}
    lines = [f"is_m_matrix: {'yes' if ok else 'no'}"]
    rows = [["is_m_matrix", ok]]
    if ok:
        m = MMatrix(grid)
        inverse = m.inverse
        payload.update(
            det=m.det,
            c_max=vec_to_json(m.c_max),
            group=m.group.to_json(),
            inverse=mat_to_json(inverse),
        )
        lines += [
            f"det: {m.det}",
            f"c_max: {_fmt_vec(m.c_max)}",
            f"group: {m.group}",
            "inverse:",
            *_fmt_mat_lines(inverse),
        ]
        rows += [["det", m.det], ["c_max", _fmt_vec(m.c_max)], ["group", str(m.group)]]
    return Report(payload, ("field", "value"), rows, lines, code=0 if ok else 1)


def cmd_show_pair(args):
    pair = _load_pair(args)
    grids = (
        ("L", "L", pair.l),
        ("M", "M", pair.m.m),
        ("LM_inv", "LM^-1", pair.lm_inv),
        ("ML_inv", "ML^-1", pair.ml_inv),
    )
    payload = {key: mat_to_json(grid) for key, _, grid in grids}
    payload.update(det_L=pair.det_l, det_M=pair.det_m, c_max=vec_to_json(pair.m.c_max))
    lines = []
    for _, label, grid in grids:
        lines += [f"{label}:", *_fmt_mat_lines(grid)]
    lines += [
        f"det L = {pair.det_l}   det M = {pair.det_m}",
        f"c_max = {_fmt_vec(pair.m.c_max)}",
    ]
    rows = [["det_L", pair.det_l], ["det_M", pair.det_m], ["c_max", _fmt_vec(pair.m.c_max)]]
    return Report(payload, ("field", "value"), rows, lines)


def cmd_enumerate(args):
    pair = _load_pair(args)
    rows = (pair.enumerate_pair_superstables() if args.kind == "superstable"
            else pair.enumerate_pair_criticals())
    columns = tuple((field, 0, field) for field in ("config", "preimage", "floor", "frac"))
    return _rows_report(args, zip(rows), columns, 4 if args.preimages else 1)


def cmd_duality(args):
    from .duality import _dual_numerators, duality_rows

    pair = _load_pair(args)
    if args.inverse:
        # D^-1 computed afresh on each critical row, not read off duality_rows
        records = []
        for r in pair.enumerate_pair_criticals():
            p = _dual_numerators(pair, r.num, inverse=True)
            config = None if p is None else pair.config_of_numerators(p)
            if config is None:
                raise RuntimeError(f"the inverse dual of the critical {r.config} is not a "
                                   f"superstable preimage")
            records.append((r, PairRow(config, *pair.split(p), pair.den_l)))
        columns = (("critical", 0, "config"), ("critical_preimage", 0, "preimage"),
                   ("superstable", 1, "config"), ("superstable_preimage", 1, "preimage"))
        return _rows_report(args, records, columns, 4)
    columns = (("superstable", 0, "config"), ("superstable_preimage", 0, "preimage"),
               ("critical", 2, "config"), ("critical_preimage", 2, "preimage"),
               ("mu_case", 1, None))
    return _rows_report(args, duality_rows(pair), columns, 5 if args.show_mu_cases else 4)


def cmd_fixed_points(args):
    from .duality import fixed_point_invariants, fixed_points

    pair = _load_pair(args)
    code = 0
    if args.predict:
        fps, predicted, crit, ok = fixed_point_invariants(pair)
        code = 0 if ok else 1
    else:
        fps = fixed_points(pair)
    if args.format == "json":
        payload = {"fixed_points": [vec_to_json(s) for s in fps], "count": len(fps)}
        if args.predict:
            payload.update(
                predicted=predicted,
                quotient=str(crit["quotient"]),
                cmax_order=crit["cmax_order"],
                odd_order_guarantee=crit["odd_order_guarantee"],
                cyclic_even_criterion=crit["cyclic_even_criterion"],
            )
        return Report(payload, (), None, code=code)
    cells = [_fmt_vec(s) for s in fps]
    lines = cells
    if args.predict:
        lines = [
            f"actual={len(fps)} predicted={predicted}",
            *cells,
            f"quotient by the zero fracket: {crit['quotient']}",
            f"order of [c_max] there: {crit['cmax_order']}",
        ]
    return Report(None, ("fixed_point",), [[c] for c in cells], lines, code)


def cmd_frackets(args):
    if not args.verify and not args.side:
        raise ValueError("frackets needs --side L|M or --verify")
    from .frackets import (
        cyclic_shortcut,
        fracket_partition,
        verify_largest_invariant_factor,
        zero_fracket_lattice,
        zero_fracket_size_formula,
    )

    pair = _load_pair(args)
    if args.verify:
        facts = []
        for side in ("L", "M"):
            res = verify_largest_invariant_factor(pair, side)
            facts.append((res["ok"], f"largest invariant factor of K({side})/F0 = flcm = {res['flcm']}"))
        formula = zero_fracket_size_formula(pair)
        facts.append((formula["predicted"] == formula["actual"],
                      f"size formula: predicted {formula['predicted']} = actual {formula['actual']}"))
        for side in ("L", "M"):
            short = cyclic_shortcut(pair, side)
            found, hit = "not applicable", True
            if short is not None:
                hit = short["predicted"] == short["actual"]
                found = f"gcd = {short['predicted']}" + ("" if hit else f", actual |F0| = {short['actual']}")
            facts.append((hit, f"cyclic shortcut on side {side}: {found}"))
        from . import verification

        ok, detail = verification.verdict(facts)
        payload = {"checks": [{"check": text, "ok": flag} for flag, text in facts], "ok": ok}
        rows = [(text, flag) for flag, text in facts]
        return Report(payload, ("check", "ok"), rows, [detail], code=0 if ok else 1)
    part = fracket_partition(pair, args.side)
    _, quotient = zero_fracket_lattice(pair, args.side)
    dec = pair.l_snf if args.side == "L" else pair.m.snf
    # canonical class ids, independent of which representative the sweep produced
    labels = {k: [class_id(dec, v) for v in part.by_key[k]] for k in part.keys}
    if args.format == "json":
        payload = {
            "side": args.side,
            "fracket_size": part.fracket_size,
            "quotient": quotient.to_json(),
            "frackets": [{"key": vec_to_json(k), "classes": list(map(vec_to_json, labels[k]))}
                         for k in part.keys],
        }
        return Report(payload, (), None)
    rows = [[_fmt_vec(k), len(labels[k]), " ".join(map(_fmt_vec, labels[k]))] for k in part.keys]
    return Report(None, ("key", "size", "classes"), rows)


def cmd_group(args):
    pair = _load_pair(args)
    groups = {"K(L)": pair.l_group, "K(M)": pair.m.group}
    if args.format == "json":
        return Report({k: {"group": str(g), "invariant_factors": g.to_json()}
                       for k, g in groups.items()}, (), None)
    rows = [[k, str(g)] for k, g in groups.items()]
    return Report(None, ("group", "value"), rows, [f"{k}: {g}" for k, g in rows])


def cmd_family_scan(args):
    n = args.n
    if args.verify == "half-n":
        if args.kind != "complete":
            raise ValueError("half-n verification needs the complete family")
        result = verify_half_n_integrality(n)
        text = (
            f"reduced complete graph on {n} vertices: inverse has 2/{n} on the "
            f"diagonal and 1/{n} off it; {n} * M^-1 e_i = ones + e_i"
        )
        return Report({"verify": "half-n", **result}, ("field", "value"), sorted(result.items()), [text])
    if args.verify == "z2-subgroup" and (args.kind != "complete" or n % 2):
        raise ValueError("z2-subgroup verification needs the complete family with even n")
    if args.verify is None:
        count = pattern_count(args.kind, n)
        text = f"{count_text(count)} sign patterns of the {args.kind} family on {n} vertices"
        if "^" in text:
            raise ValueError(f"{text}: too many digits to print")
        payload = {"kind": args.kind, "n": n, "patterns": count}
        return Report(payload, ("field", "value"), sorted(payload.items()), [text])
    if args.verify == "critical-groups":
        patterns = pattern_count(args.kind, n)
        histogram = scan_critical_groups(orbit_sweep(args.kind, n), patterns)
        payload = {
            "verify": "critical-groups",
            "patterns": patterns,
            "groups": [{"invariant_factors": list(f), "patterns": c} for f, c in histogram.items()],
        }
        body = [[str(AbelianGroup(f)), c] for f, c in histogram.items()]
        lines = [f"{g}: {c} patterns" for g, c in body]
        lines.append(f"{len(histogram)} distinct critical groups over {patterns} patterns")
        return Report(payload, ("group", "patterns"), body, lines)
    rows = sweep(args.kind, n)
    res = kn_structure(rows, n)
    bad = res["even_factor_failures"]
    transfer_ok = res["half_n_transfer_integral"]
    ok = not bad and transfer_ok
    payload = {"verify": "z2-subgroup", "patterns": len(rows), **res, "ok": ok}
    lines = [
        f"{len(rows)} sign patterns",
        f"{n // 2} * LM^-1 integral everywhere: {'yes' if transfer_ok else 'no'}",
        f">= {n - 2} even invariant factors: {'all patterns' if not bad else f'FAILED on {bad}'}",
        f"structural Z_2^{n - 2} subgroup verified on {res['structural_samples']} sampled patterns",
    ]
    body = [[k, str(v)] for k, v in sorted(payload.items())]
    return Report(payload, ("field", "value"), body, lines, code=0 if ok else 1)


def cmd_paper_check(args):
    from . import verification

    results = verification.run_all()
    payload = []
    lines = []
    for r in results:
        entry = {"number": r.number, "name": r.name, "passed": r.passed, "detail": r.detail}
        if args.timings:
            entry["seconds"] = round(r.seconds, 3)
        payload.append(entry)
        stamp = f"  ({r.seconds:.2f}s)" if args.timings else ""
        lines.append(f"{r.number:>2}  {r.name:<24} {'PASS' if r.passed else 'FAIL'}{stamp}")
        lines += ["      " + detail_line for detail_line in r.detail.splitlines()]
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed} passed, {failed} failed")
    rows = [[r.number, r.name, "PASS" if r.passed else "FAIL"] for r in results]
    return Report(payload, ("number", "name", "result"), rows, lines, code=0 if failed == 0 else 1)


# -- parser ----------------------------------------------------------------------

def build_parser():
    top = argparse.ArgumentParser(
        prog="chipfire",
        description="Exact chip-firing on matrix pairs: superstables, criticals, duality, frackets.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, fn, help_text, inputs=True):
        p = sub.add_parser(name, help=help_text)
        if inputs:
            p.add_argument("--pair", help="JSON file with L and M grids")
            p.add_argument("--graph", help="signed edge list file")
            p.add_argument("--fixture", choices=sorted(FIXTURES), help="built-in example input")
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.set_defaults(fn=fn)
        return p

    command("check-mmatrix", cmd_check_mmatrix, "decide whether M is an M-matrix")
    command("show-pair", cmd_show_pair, "print L, M, transfer matrices, determinants, c_max")

    p = command("enumerate", cmd_enumerate, "list superstable or critical configurations")
    p.add_argument("--kind", choices=("superstable", "critical"), required=True)
    p.add_argument("--preimages", action="store_true", help="include preimage, floor, frac columns")

    p = command("duality", cmd_duality, "superstable <-> critical duality tables")
    p.add_argument("--show-mu-cases", action="store_true", help="tag each row identity/dual")
    p.add_argument("--inverse", action="store_true", help="map criticals back to superstables")

    p = command("fixed-points", cmd_fixed_points, "fixed points of the involution")
    p.add_argument("--predict", action="store_true", help="compare against the predicted count")

    p = command("frackets", cmd_frackets, "fracket partition of a critical group")
    p.add_argument("--side", choices=("L", "M"), help="which critical group to partition")
    p.add_argument("--verify", action="store_true", help="run the fracket structure checks")

    command("group", cmd_group, "invariant factors of K(L) and K(M)")

    p = command("family-scan", cmd_family_scan, "sweep sign patterns of a graph family", inputs=False)
    p.add_argument("--kind", choices=("complete", "cycle"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", choices=("half-n", "z2-subgroup", "critical-groups"))

    p = command("paper-check", cmd_paper_check, "run every acceptance criterion", inputs=False)
    p.add_argument("--timings", action="store_true", help="include wall-clock timings (not byte-reproducible)")

    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        report = args.fn(args)
        _emit(args, report.render(args.format))
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return report.code


if __name__ == "__main__":
    sys.exit(main())
