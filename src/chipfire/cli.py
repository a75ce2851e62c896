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
import json
import os
import sys
from collections import namedtuple
from contextlib import nullcontext
from itertools import chain, tee
from math import gcd
from operator import add, itemgetter, mul

from .fixtures import FIXTURES
from .lattices import AbelianGroup
from .linalg import mat_from_json, over_json
from .mmatrix import MMatrix, is_m_matrix
from .pairs import ChipFiringPair
from .rows import RowFields
from .sgraph import (
    kn_structure,
    orbit_sweep,
    parse_edge_list,
    pattern_bits,
    pattern_count,
    pow2_text,
    reduced_laplacians,
    scan_critical_groups,
    sweep,
    verify_half_n_integrality,
)


def _fmt_vec(v):
    # its vectors are integer: rationals print through over_json
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

    def write(self, fmt, out):
        """Write the report in format fmt to out, row by row as it formats it;
        the table reads its rows (tuples of strings) twice, widths first."""
        if fmt == "json":
            out.write(json.dumps(self.payload, indent=2, sort_keys=True) + "\n")
        elif fmt == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(self.headers)
            writer.writerows(self.rows)
        elif self.lines is not None:
            out.writelines(line + "\n" for line in self.lines)
        else:
            widths = list(map(len, self.headers))
            for row in self.rows:
                widths = list(map(max, widths, map(len, row)))
            line = "".join(f"%-{w}s  " for w in widths[:-1]) + "%s\n"
            out.write(line % self.headers)
            out.write("  ".join("-" * w for w in widths) + "\n")
            for row in self.rows:
                out.write(line % row)


def _template(frac_num, den):
    """(format, b, a, cell) of a fractional part q/den, 0 <= q < den, with
    q/den = a/b reduced by gcd(q, den) as over_json renders it: a preimage
    entry f + a/b is "%d/b" % (f*b + a), or "%d" % f when b == 1."""
    b = tuple(den // gcd(q, den) for q in frac_num)
    a = tuple(q * x // den for q, x in zip(frac_num, b))
    fmt = "(" + ", ".join(f"%d/{x}" if x > 1 else "%d" for x in b) + ")"
    return fmt, b, a, fmt % a


# what a column shows of a row's (config, floor, frac_num), or (None) of a plain value, in JSON
_ROW_JSON = {
    None: lambda den: lambda x: x,
    "config": lambda den: itemgetter(0),
    "preimage": lambda den: lambda r: over_json([f * den + q for f, q in zip(r[1], r[2])], den),
    "floor": lambda den: itemgetter(1),
    "frac": lambda den: lambda r: over_json(r[2], den),
}


def _row_cells(n, den, fracs):
    """Per field (None: a plain value), the map from a column to its cells,
    for one report of n-vectors: one "%d" format for every vector, one
    _template per fractional part of fracs over den."""
    vec = "(" + ", ".join(["%d"] * n) + ")"
    part = {fr: _template(fr, den) for fr in fracs}

    def preimage(r):
        fmt, b, a, _ = part[r[2]]
        return fmt % tuple(map(add, map(mul, r[1], b), a))

    return {
        None: lambda col: col,
        "config": lambda col: map(vec.__mod__, map(itemgetter(0), col)),
        "preimage": lambda col: map(preimage, col),
        "floor": lambda col: map(vec.__mod__, map(itemgetter(1), col)),
        "frac": lambda col: (part[r[2]][3] for r in col),
    }


_CHUNK = 64     # packed rows read at a time: a pass holds one chunk's records


class _Cells:
    """The table and CSV rows of packed rows, read a chunk at a time afresh on each pass."""

    def __init__(self, rows, records, columns):
        self.rows, self.records, self.columns = rows, records, columns

    def __iter__(self):
        rows = self.rows
        chunks = (rows[i:i + _CHUNK] for i in range(0, len(rows), _CHUNK))
        records = tee(chain.from_iterable(map(self.records, chunks)), len(self.columns))
        return zip(*[cells(recs if i is None else map(itemgetter(i), recs))
                     for recs, (i, cells) in zip(records, self.columns)])


def _rows_report(args, rows, records, columns, shown, fields):
    """Report of packed rows, which records(rows) reads into records: a
    row's (config, floor, frac_num), or a tuple of such and plain values.
    Each column is (name, index into the record or None, field or None
    for a plain value); fields (RowFields or DualRows) gives den, box and
    tables.  json prints every column, table and csv the first shown."""
    den = fields.den
    if args.format == "json":
        getters = [(name, i, _ROW_JSON[field](den)) for name, i, field in columns]
        payload = [{name: get(rec if i is None else rec[i]) for name, i, get in getters}
                   for rec in records(rows)]
        return Report(payload, (), None)
    columns = columns[:shown]
    fracs = fields.tables.frs if {"preimage", "frac"} & {field for _, _, field in columns} else ()
    cells = _row_cells(len(fields.box.sizes), den, fracs)
    return Report(None, tuple(name for name, _, _ in columns),
                  _Cells(rows, records, [(i, cells[field]) for _, i, field in columns]))


def _read_json(path):
    """The JSON value in the file; nesting too deep to parse is malformed
    input, not a failed verification."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_pair(args) -> ChipFiringPair:
    chosen = [s for s in ("pair", "graph", "fixture") if getattr(args, s, None)]
    if len(chosen) != 1:
        raise ValueError("exactly one of --pair, --graph, --fixture is required")
    if args.pair:
        data = _read_json(args.pair)
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
        data = _read_json(args.pair)
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
        inverse = [over_json(row, m.det) for row in m.adj]
        payload.update(det=m.det, c_max=m.c_max, group=m.group.to_json(), inverse=inverse)
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
        ("LM_inv", "LM^-1", [over_json(row, pair.det_m) for row in pair.n_lm]),
        ("ML_inv", "ML^-1", [over_json(row, pair.den_l) for row in pair.n_ml]),
    )
    payload = {key: grid for key, _, grid in grids}
    payload.update(det_L=pair.det_l, det_M=pair.det_m, c_max=pair.m.c_max)
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
    fields = RowFields(pair.rows, args.kind)
    shown = 4 if args.preimages else 1
    records = fields.records if shown > 1 or args.format == "json" else lambda rows: zip(fields.configs(rows))
    columns = tuple((field, None, field) for field in ("config", "preimage", "floor", "frac"))
    return _rows_report(args, pair.rows.sorted(args.kind), records, columns, shown, fields)


def cmd_duality(args):
    from .duality import DualRows

    pair = _load_pair(args)
    table = DualRows(pair)
    rows = table.rows
    if args.inverse:
        # D^-1's table is D's, read by critical
        columns = (("critical", 2, "config"), ("critical_preimage", 2, "preimage"),
                   ("superstable", 0, "config"), ("superstable_preimage", 0, "preimage"))
        rows = [row for _, row in sorted(zip(table.duals(rows), rows))]
        return _rows_report(args, rows, table.records, columns, 4, table)
    columns = (("superstable", 0, "config"), ("superstable_preimage", 0, "preimage"),
               ("critical", 2, "config"), ("critical_preimage", 2, "preimage"),
               ("mu_case", 1, None))
    return _rows_report(args, rows, table.records, columns, 5 if args.show_mu_cases else 4, table)


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
        payload = {"fixed_points": fps, "count": len(fps)}
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
    return Report(None, ("fixed_point",), [(c,) for c in cells], lines, code)


def cmd_frackets(args):
    if not args.verify and not args.side:
        raise ValueError("frackets needs --side L|M or --verify")
    from .frackets import fracket_checks, fracket_partition, zero_fracket_quotient

    pair = _load_pair(args)
    if args.verify:
        # facts set the exit code; the size formula and the shortcut are predictions
        checks = fracket_checks(pair)
        size = checks.size
        facts = [(big == f, f"largest invariant factor of K({side})/F0 = flcm = {f}")
                 for side, f, big in zip("LM", checks.flcm, checks.largest)]
        hit = checks.predicted == size
        predictions = [(hit, f"size formula: predicted {checks.predicted} {'=' if hit else '!='} actual {size}")]
        for side, gcd in zip("LM", checks.shortcut):
            found, hit = "not applicable", True
            if gcd is not None:
                hit = gcd == size
                found = f"gcd = {gcd}" + ("" if hit else f", actual |F0| = {size}")
            predictions.append((hit, f"cyclic shortcut on side {side}: {found}"))
        ok = all(flag for flag, _ in facts)
        lines = ([f"{'ok  ' if flag else 'FAIL'} {text}" for flag, text in facts]
                 + [f"{'ok  ' if flag else 'miss'} {text}" for flag, text in predictions])
        payload = {"checks": [{"check": text, "ok": flag} for flag, text in facts + predictions], "ok": ok}
        rows = [(text, flag) for flag, text in facts + predictions]
        return Report(payload, ("check", "ok"), rows, lines, code=0 if ok else 1)
    # the groups hold canonical class ids, independent of the walk's representatives
    part = fracket_partition(pair, args.side)
    quotient = zero_fracket_quotient(pair, args.side)
    keyed = zip(part.residues, part.groups)
    if args.format == "json":
        payload = {
            "side": args.side,
            "fracket_size": part.fracket_size,
            "quotient": quotient.to_json(),
            "frackets": [{"key": over_json(r, part.den), "classes": list(map(list, ids))}
                         for r, ids in keyed],
        }
        return Report(payload, (), None)
    rows = [(_template(r, part.den)[3], str(len(ids)), " ".join(map(_fmt_vec, ids))) for r, ids in keyed]
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
        bits = pattern_bits(args.kind, n)
        text = f"{pow2_text(bits)} sign patterns of the {args.kind} family on {n} vertices"
        if "^" in text:
            raise ValueError(f"{text}: too many digits to print")
        payload = {"kind": args.kind, "n": n, "patterns": 1 << bits}
        return Report(payload, ("field", "value"), sorted(payload.items()), [text])
    if args.verify == "critical-groups":
        rows = orbit_sweep(args.kind, n)    # raises over the cap, before 2^k is built
        patterns = pattern_count(args.kind, n)
        histogram = scan_critical_groups(rows, patterns)
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
    # with PYTHONUNBUFFERED set stdout is write-through, so each row would
    # be its own write(2): it is buffered while the report is written
    through = not args.out and getattr(sys.stdout, "write_through", False)
    try:
        report = args.fn(args)
        if through:
            sys.stdout.reconfigure(write_through=False)
        with open(args.out, "w") if args.out else nullcontext(sys.stdout) as out:
            report.write(args.format, out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`| head`): the exit's final flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if through:
            sys.stdout.reconfigure(write_through=True)
    return report.code


if __name__ == "__main__":
    sys.exit(main())
