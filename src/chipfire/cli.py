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

from . import verification
from .duality import (
    duality_inverse,
    duality_table,
    fixed_points,
    nonzero_criteria,
    predicted_fixed_point_count,
)
from .fixtures import FIXTURES
from .frackets import (
    cyclic_shortcut,
    fracket_partition,
    verify_largest_invariant_factor,
    zero_fracket,
    zero_fracket_size_formula,
)
from .lattices import AbelianGroup, class_id
from .linalg import mat_from_json, mat_to_json, rational_str, vec_to_json
from .mmatrix import MMatrix, is_m_matrix
from .pairs import ChipFiringPair
from .sgraph import (
    kn_structure,
    parse_edge_list,
    reduced_laplacians,
    scan_critical_groups,
    sweep,
    verify_half_n_integrality,
)


def _fmt_vec(v):
    return "(" + ", ".join(rational_str(x) for x in v) + ")"


def _fmt_mat_lines(a):
    cells = [[rational_str(x) for x in row] for row in a]
    widths = [max(len(cells[i][j]) for i in range(len(cells))) for j in range(len(cells[0]))]
    return ["  [" + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + "]" for row in cells]


def _table(headers, rows):
    cells = [list(headers)] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[j]) for r in cells) for j in range(len(headers))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _csv(headers, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(args, text):
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(args, payload, headers, rows, table_text=None):
    if args.format == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.format == "csv":
        return _csv(headers, rows)
    return table_text if table_text is not None else _table(headers, rows)


def _load_pair(args) -> ChipFiringPair:
    chosen = [s for s in ("pair", "graph", "fixture") if getattr(args, s, None)]
    if len(chosen) != 1:
        raise ValueError("exactly one of --pair, --graph, --fixture is required")
    if args.pair:
        with open(args.pair) as fh:
            data = json.load(fh)
        return ChipFiringPair(mat_from_json(data["L"]), mat_from_json(data["M"]))
    if args.graph:
        with open(args.graph) as fh:
            return reduced_laplacians(parse_edge_list(fh.read()))
    return FIXTURES[args.fixture]()


def _load_matrix(args):
    """The M side alone, for check-mmatrix; accepts a bare grid too."""
    if args.pair:
        with open(args.pair) as fh:
            data = json.load(fh)
        return mat_from_json(data["M"] if isinstance(data, dict) else data)
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
        payload.update(
            det=m.det,
            c_max=vec_to_json(m.c_max),
            group=m.group.to_json(),
            inverse=mat_to_json(m.inverse),
        )
        lines += [
            f"det: {m.det}",
            f"c_max: {_fmt_vec(m.c_max)}",
            f"group: {m.group}",
            "inverse:",
            *_fmt_mat_lines(m.inverse),
        ]
        rows += [["det", m.det], ["c_max", _fmt_vec(m.c_max)], ["group", str(m.group)]]
    _emit(args, _render(args, payload, ("field", "value"), rows, "\n".join(lines) + "\n"))
    return 0 if ok else 1


def cmd_show_pair(args):
    pair = _load_pair(args)
    payload = {
        "L": mat_to_json(pair.l),
        "M": mat_to_json(pair.m.m),
        "LM_inv": mat_to_json(pair.lm_inv),
        "ML_inv": mat_to_json(pair.ml_inv),
        "det_L": pair.det_l,
        "det_M": pair.det_m,
        "c_max": vec_to_json(pair.m.c_max),
    }
    lines = []
    for label, grid in (("L", pair.l), ("M", pair.m.m), ("LM^-1", pair.lm_inv), ("ML^-1", pair.ml_inv)):
        lines.append(f"{label}:")
        lines += _fmt_mat_lines(grid)
    lines += [
        f"det L = {pair.det_l}   det M = {pair.det_m}",
        f"c_max = {_fmt_vec(pair.m.c_max)}",
    ]
    rows = [
        ["det_L", pair.det_l],
        ["det_M", pair.det_m],
        ["c_max", _fmt_vec(pair.m.c_max)],
    ]
    _emit(args, _render(args, payload, ("field", "value"), rows, "\n".join(lines) + "\n"))
    return 0


def cmd_enumerate(args):
    pair = _load_pair(args)
    rows = (
        pair.enumerate_pair_superstables()
        if args.kind == "superstable"
        else pair.enumerate_pair_criticals()
    )
    payload = [
        {
            "config": vec_to_json(r.config),
            "preimage": vec_to_json(r.preimage),
            "floor": vec_to_json(r.floor),
            "frac": vec_to_json(r.frac),
        }
        for r in rows
    ]
    if args.preimages:
        headers = ("config", "preimage", "floor", "frac")
        body = [[_fmt_vec(r.config), _fmt_vec(r.preimage), _fmt_vec(r.floor), _fmt_vec(r.frac)] for r in rows]
    else:
        headers = ("config",)
        body = [[_fmt_vec(r.config)] for r in rows]
    _emit(args, _render(args, payload, headers, body))
    return 0


def cmd_duality(args):
    pair = _load_pair(args)
    if args.inverse:
        records = []
        body = []
        for r in pair.enumerate_pair_criticals():
            x = duality_inverse(pair, r.preimage)
            cfg = pair.to_config(x)
            records.append(
                {
                    "critical": vec_to_json(r.config),
                    "critical_preimage": vec_to_json(r.preimage),
                    "superstable": vec_to_json(cfg),
                    "superstable_preimage": vec_to_json(x),
                }
            )
            body.append([_fmt_vec(r.config), _fmt_vec(r.preimage), _fmt_vec(cfg), _fmt_vec(x)])
        headers = ("critical", "critical_preimage", "superstable", "superstable_preimage")
    else:
        table = duality_table(pair)
        records = [
            {
                "superstable": vec_to_json(row["config"]),
                "superstable_preimage": vec_to_json(row["preimage"]),
                "critical": vec_to_json(row["dual_config"]),
                "critical_preimage": vec_to_json(row["dual_preimage"]),
                "mu_case": row["mu_case"],
            }
            for row in table
        ]
        headers = ["superstable", "superstable_preimage", "critical", "critical_preimage"]
        if args.show_mu_cases:
            headers.append("mu_case")
        body = []
        for row in table:
            cells = [
                _fmt_vec(row["config"]),
                _fmt_vec(row["preimage"]),
                _fmt_vec(row["dual_config"]),
                _fmt_vec(row["dual_preimage"]),
            ]
            if args.show_mu_cases:
                cells.append(row["mu_case"])
            body.append(cells)
        headers = tuple(headers)
    _emit(args, _render(args, records, headers, body))
    return 0


def cmd_fixed_points(args):
    pair = _load_pair(args)
    fps = fixed_points(pair)
    payload = {"fixed_points": [vec_to_json(s) for s in fps], "count": len(fps)}
    lines = [_fmt_vec(s) for s in fps]
    body = [[_fmt_vec(s)] for s in fps]
    ok = True
    if args.predict:
        predicted = predicted_fixed_point_count(pair)
        crit = nonzero_criteria(pair)
        ok = len(fps) in (0, predicted)
        payload.update(
            predicted=predicted,
            quotient=str(crit["quotient"]),
            cmax_order=crit["cmax_order"],
            odd_order_guarantee=crit["odd_order_guarantee"],
            cyclic_even_criterion=crit["cyclic_even_criterion"],
        )
        lines.insert(0, f"actual={len(fps)} predicted={predicted}")
        lines.append(f"quotient by the zero fracket: {crit['quotient']}")
        lines.append(f"order of [c_max] there: {crit['cmax_order']}")
    _emit(args, _render(args, payload, ("fixed_point",), body, "\n".join(lines) + "\n"))
    return 0 if ok else 1


def cmd_frackets(args):
    pair = _load_pair(args)
    if args.verify:
        checks = []
        for side in ("L", "M"):
            res = verify_largest_invariant_factor(pair, side)
            checks.append(
                (
                    f"largest invariant factor of K({side})/F0 = flcm = {res['flcm']}",
                    res["ok"],
                )
            )
        formula = zero_fracket_size_formula(pair)
        checks.append(
            (f"size formula: predicted {formula['predicted']} = actual {formula['actual']}", True)
        )
        for side in ("L", "M"):
            value = cyclic_shortcut(pair, side)
            if value is None:
                checks.append((f"cyclic shortcut on side {side}: not applicable", True))
            else:
                checks.append((f"cyclic shortcut on side {side}: gcd = {value}", True))
        ok = all(flag for _, flag in checks)
        payload = {"checks": [{"check": text, "ok": flag} for text, flag in checks], "ok": ok}
        lines = [f"{'ok  ' if flag else 'FAIL'} {text}" for text, flag in checks]
        body = [[text, flag] for text, flag in checks]
        _emit(args, _render(args, payload, ("check", "ok"), body, "\n".join(lines) + "\n"))
        return 0 if ok else 1
    part = fracket_partition(pair, args.side)
    zero = zero_fracket(pair, args.side)
    grid, dec = (pair.l, pair.l_snf) if args.side == "L" else (pair.m.m, pair.m.snf)

    def label(rep):
        # canonical class id, independent of which representative the sweep produced
        return class_id(grid, rep, dec)

    payload = {
        "side": args.side,
        "fracket_size": part.fracket_size,
        "quotient": zero.quotient.to_json(),
        "frackets": [
            {"key": vec_to_json(k), "classes": [vec_to_json(label(v)) for v in part.by_key[k]]}
            for k in part.keys
        ],
    }
    body = [[_fmt_vec(k), len(part.by_key[k]), " ".join(_fmt_vec(label(v)) for v in part.by_key[k])] for k in part.keys]
    _emit(args, _render(args, payload, ("key", "size", "classes"), body))
    return 0


def cmd_group(args):
    pair = _load_pair(args)
    payload = {
        "K(L)": {"group": str(pair.l_group), "invariant_factors": pair.l_group.to_json()},
        "K(M)": {"group": str(pair.m.group), "invariant_factors": pair.m.group.to_json()},
    }
    lines = [f"K(L): {pair.l_group}", f"K(M): {pair.m.group}"]
    body = [["K(L)", str(pair.l_group)], ["K(M)", str(pair.m.group)]]
    _emit(args, _render(args, payload, ("group", "value"), body, "\n".join(lines) + "\n"))
    return 0


def cmd_family_scan(args):
    if args.verify == "half-n":
        result = verify_half_n_integrality(args.n)
        payload = {"verify": "half-n", **result}
        text = (
            f"reduced complete graph on {args.n} vertices: inverse has 2/{args.n} on the "
            f"diagonal and 1/{args.n} off it; {args.n} * M^-1 e_i = ones + e_i\n"
        )
        _emit(args, _render(args, payload, ("field", "value"), sorted(result.items()), text))
        return 0

    if args.verify == "z2-subgroup" and (args.kind != "complete" or args.n % 2):
        raise ValueError("z2-subgroup verification needs the complete family with even n")
    rows = sweep(args.kind, args.n)
    if args.verify == "z2-subgroup":
        need = args.n - 2
        res = kn_structure(rows, args.n)
        bad = res["even_factor_failures"]
        transfer_ok = res["half_n_transfer_integral"]
        ok = not bad and transfer_ok
        payload = {"verify": "z2-subgroup", "patterns": len(rows), **res, "ok": ok}
        lines = [
            f"{len(rows)} sign patterns",
            f"{args.n // 2} * LM^-1 integral everywhere: {'yes' if transfer_ok else 'no'}",
            f">= {need} even invariant factors: {'all patterns' if not bad else f'FAILED on {bad}'}",
            f"structural Z_2^{need} subgroup verified on {res['structural_samples']} sampled patterns",
        ]
        body = [[k, str(v)] for k, v in sorted(payload.items())]
        _emit(args, _render(args, payload, ("field", "value"), body, "\n".join(lines) + "\n"))
        return 0 if ok else 1
    if args.verify == "critical-groups":
        histogram = scan_critical_groups(rows)
        payload = {
            "verify": "critical-groups",
            "patterns": len(rows),
            "groups": [
                {"invariant_factors": list(f), "patterns": c} for f, c in histogram.items()
            ],
        }
        body = [[str(AbelianGroup(f)), c] for f, c in histogram.items()]
        lines = [f"{str(AbelianGroup(f))}: {c} patterns" for f, c in histogram.items()]
        lines.append(f"{len(histogram)} distinct critical groups over {len(rows)} patterns")
        _emit(args, _render(args, payload, ("group", "patterns"), body, "\n".join(lines) + "\n"))
        return 0
    payload = {"kind": args.kind, "n": args.n, "patterns": len(rows)}
    _emit(
        args,
        _render(
            args,
            payload,
            ("field", "value"),
            sorted(payload.items()),
            f"{len(rows)} sign patterns of the {args.kind} family on {args.n} vertices\n",
        ),
    )
    return 0


def cmd_paper_check(args):
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
        indent = "      "
        for detail_line in r.detail.splitlines():
            lines.append(indent + detail_line)
    passed = sum(1 for r in results if r.passed)
    failed = len(results) - passed
    lines.append(f"{passed} passed, {failed} failed")
    body = [[r.number, r.name, "PASS" if r.passed else "FAIL"] for r in results]
    _emit(args, _render(args, payload, ("number", "name", "result"), body, "\n".join(lines) + "\n"))
    return 0 if failed == 0 else 1


# -- parser ----------------------------------------------------------------------

def _add_input_opts(p):
    p.add_argument("--pair", help="JSON file with L and M grids")
    p.add_argument("--graph", help="signed edge list file")
    p.add_argument("--fixture", choices=sorted(FIXTURES), help="built-in example input")


def _add_output_opts(p):
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--out", help="write output to this file instead of stdout")


def build_parser():
    top = argparse.ArgumentParser(
        prog="chipfire",
        description="Exact chip-firing on matrix pairs: superstables, criticals, duality, frackets.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, fn, help_text, inputs=True):
        p = sub.add_parser(name, help=help_text)
        if inputs:
            _add_input_opts(p)
        _add_output_opts(p)
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
        if args.command == "frackets" and not args.verify and not args.side:
            raise ValueError("frackets needs --side L|M or --verify")
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
