import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chipfire
from chipfire import cli, lattices, linalg, sgraph, verification
from chipfire.cli import main
from chipfire.lattices import AbelianGroup

SRC = str(Path(chipfire.__file__).resolve().parent.parent)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_table(capsys):
    code, out, _ = run(capsys, "enumerate", "--fixture", "diamond", "--kind", "superstable")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith(("config", "-"))]
    assert len(lines) == 12
    assert lines[0] == "(0, 0, 0)"


def test_enumerate_preimage_columns(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--fixture", "diamond", "--kind", "superstable", "--preimages"
    )
    assert code == 0
    assert "(4/3, 7/6, 0)" in out


def test_enumerate_json_has_all_fields(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--fixture", "diamond", "--kind", "critical", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 12
    assert set(rows[0]) == {"config", "preimage", "floor", "frac"}


def test_duality_mu_cases(capsys):
    code, out, _ = run(capsys, "duality", "--fixture", "diamond", "--show-mu-cases")
    assert code == 0
    assert out.count("dual") >= 4
    assert out.count("identity") == 8


def test_duality_inverse_roundtrip(capsys):
    code, fwd, _ = run(capsys, "duality", "--fixture", "diamond", "--format", "json")
    assert code == 0
    code, bwd, _ = run(capsys, "duality", "--fixture", "diamond", "--inverse", "--format", "json")
    assert code == 0
    fwd_pairs = {(tuple(r["superstable"]), tuple(r["critical"])) for r in json.loads(fwd)}
    bwd_pairs = {(tuple(r["superstable"]), tuple(r["critical"])) for r in json.loads(bwd)}
    assert fwd_pairs == bwd_pairs


def test_fixed_points_predict(capsys):
    code, out, _ = run(capsys, "fixed-points", "--fixture", "diamond", "--predict")
    assert code == 0
    assert out.splitlines()[0] == "actual=4 predicted=4"


def test_fixed_points_predict_fails_on_a_contradicted_order_criterion(
        monkeypatch, capsys, diamond):
    # [c_max] has order 1 in K(M) / F0_M on the diamond, so the odd-order
    # guarantee rules out an empty fixed-point set, though a count of 0
    # alone would pass the count check
    duality = importlib.import_module("chipfire.duality")
    assert duality.nonzero_criteria(diamond)["cmax_order"] == 1
    monkeypatch.setattr(duality, "fixed_points", lambda pair: ())
    code, out, _ = run(capsys, "fixed-points", "--fixture", "diamond", "--predict")
    assert code == 1
    assert out.splitlines()[0] == "actual=0 predicted=4"


def test_fixed_points_without_a_fixed_point_prints_no_line(tmp_path, capsys):
    # the pair of test_duality.py::test_cyclic_even_criterion_both_ways has
    # no fixed point: the table has no line at all and the CSV only its header
    path = tmp_path / "pair.json"
    path.write_text('{"L": [["-4", "-2"], ["4", "-3"]], "M": [["3", "-1"], ["-2", "2"]]}')
    assert run(capsys, "fixed-points", "--pair", str(path)) == (0, "", "")
    assert run(capsys, "fixed-points", "--pair", str(path), "--format", "csv") == (
        0, "fixed_point\n", "")


def test_frackets_verify(capsys):
    code, out, _ = run(capsys, "frackets", "--fixture", "diamond", "--verify")
    assert code == 0
    assert "flcm = 6" in out and "flcm = 4" in out


def test_frackets_verify_reports_missed_predictions(tmp_path, capsys):
    # the cyclic shortcut is a prediction: its misses print as "miss" and
    # leave the exit code to the largest-invariant-factor facts
    path = tmp_path / "pair.json"
    path.write_text('{"L": [["-3"]], "M": [["2"]]}')
    code, out, err = run(capsys, "frackets", "--pair", str(path), "--verify")
    assert code == 0
    assert err == ""
    assert not [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    misses = [ln for ln in out.splitlines() if ln.startswith("miss")]
    assert misses == [
        "miss cyclic shortcut on side L: gcd = 2, actual |F0| = 1",
        "miss cyclic shortcut on side M: gcd = 3, actual |F0| = 1",
    ]


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_frackets_verify_exits_0_when_only_predictions_miss(tmp_path, capsys, fmt):
    # L = [[3]], M = [[2]]: |F0| = 1, while the cyclic shortcut gives 2 on
    # side L and 3 on side M; the largest invariant factors hold
    path = tmp_path / "pair.json"
    path.write_text('{"L": [[3]], "M": [[2]]}')
    code, out, err = run(capsys, "frackets", "--pair", str(path), "--verify", "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        payload = json.loads(out)
        assert payload["ok"] is True
        assert [c["ok"] for c in payload["checks"]] == [True, True, True, False, False]
    elif fmt == "csv":
        assert out.splitlines()[-2:] == ['"cyclic shortcut on side L: gcd = 2, actual |F0| = 1",False',
                                         '"cyclic shortcut on side M: gcd = 3, actual |F0| = 1",False']
    else:
        assert [ln[:4] for ln in out.splitlines()] == ["ok  ", "ok  ", "ok  ", "miss", "miss"]


def test_large_m_with_one_l_class(tmp_path, capsys):
    # |det L| = 1, so enumerate and duality need one class of M (duality
    # takes mu at the one floor); fixed-points needs all 8,999,999 of them
    # and must stop at the cap instead of hanging
    path = tmp_path / "pair.json"
    path.write_text('{"L": [["1", "0"], ["0", "1"]], "M": [["3000", "-1"], ["-1", "3000"]]}')
    code, out, err = run(capsys, "enumerate", "--pair", str(path), "--kind", "superstable")
    assert code == 0 and err == ""
    assert out.splitlines()[2:] == ["(0, 0)"]
    code, out, err = run(capsys, "duality", "--pair", str(path), "--format", "csv")
    assert code == 0 and err == ""
    assert out == ("superstable,superstable_preimage,critical,critical_preimage\n"
                   '"(0, 0)","(0, 0)","(1, 1)","(2999, 2999)"\n')
    for predict in ((), ("--predict",)):
        code, out, err = run(capsys, "fixed-points", "--pair", str(path), *predict)
        assert code == 2 and out == ""
        assert err == "error: 8999999 classes exceeds cap 1000000\n"


@pytest.mark.parametrize("argv", [["enumerate", "--kind", "superstable", "--preimages"],
                                  ["duality", "--show-mu-cases"]])
def test_large_m_rows_allocate_nothing_of_size_det_m(tmp_path, capsys, argv):
    # det M = 8,999,999 with one class of L: the one row's class of M is a
    # miss kept by its packed id, so no step sizes a table by det M (a
    # byte per class alone would take 9 MB)
    path = tmp_path / "pair.json"
    path.write_text('{"L": [["1", "0"], ["0", "1"]], "M": [["3000", "-1"], ["-1", "3000"]]}')
    run(capsys, *argv, "--pair", str(path))
    gc.collect()
    tracemalloc.start()
    try:
        code, _, err = run(capsys, *argv, "--pair", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert peak < 200 * 1024


def test_k7_pair_enumerate_digest(tmp_path, capsys, format_edge_list):
    # |det L| = 28,735 rows over det M = 16,807 classes of M, pinned byte for byte
    path = tmp_path / "k7.sg"
    path.write_text(format_edge_list(sgraph.family("complete", 7, 12345)))
    code, out, err = run(capsys, "enumerate", "--graph", str(path), "--kind", "superstable",
                         "--preimages", "--format", "csv")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7f5f854c243ea866aaca2818ba9e45aece439a043db12cb8ca767fd4c47d5c03")


def test_frackets_requires_mode(capsys):
    code, _, err = run(capsys, "frackets", "--fixture", "diamond")
    assert code == 2
    assert "error:" in err


def test_group(capsys):
    code, out, _ = run(capsys, "group", "--fixture", "diamond")
    assert code == 0
    assert "K(L): Z_12" in out and "K(M): Z_8" in out


def test_check_mmatrix(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text('[["2","-1"],["-1","2"]]')
    code, out, _ = run(capsys, "check-mmatrix", "--pair", str(good))
    assert code == 0 and "yes" in out

    bad = tmp_path / "bad.json"
    bad.write_text('[["1","-5"],["-5","1"]]')
    code, out, _ = run(capsys, "check-mmatrix", "--pair", str(bad))
    assert code == 1 and "no" in out


@pytest.mark.parametrize("command", ["group", "check-mmatrix"])
def test_pair_without_m_names_the_missing_grid(tmp_path, capsys, command):
    blob = tmp_path / "pair.json"
    blob.write_text('{"L": [[2, -1], [-1, 2]]}')
    code, out, err = run(capsys, command, "--pair", str(blob))
    assert (code, out) == (2, "")
    assert err == "error: --pair needs a JSON object with L and M grids (missing M)\n"


def test_pair_json_input(tmp_path, capsys):
    blob = {
        "L": [[str(v) for v in row] for row in ((3, 1, -1), (1, 2, -1), (-1, -1, 3))],
        "M": [[str(v) for v in row] for row in ((3, -1, -1), (-1, 2, -1), (-1, -1, 3))],
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run(capsys, "group", "--pair", str(path))
    assert code == 0 and "Z_12" in out


def test_graph_input(tmp_path, capsys):
    path = tmp_path / "tri.sg"
    path.write_text("n 3 sink 3\n1 2 +\n1 3 +\n2 3 -\n")
    code, out, _ = run(capsys, "group", "--graph", str(path))
    assert code == 0 and "K(L): Z_3" in out


def test_input_is_required(capsys):
    code, _, err = run(capsys, "group")
    assert code == 2 and "exactly one" in err


INPUT_COMMANDS = (
    ["check-mmatrix"],
    ["show-pair"],
    ["enumerate", "--kind", "superstable"],
    ["duality"],
    ["fixed-points"],
    ["frackets", "--side", "L"],
    ["group"],
)


def test_input_commands_are_all_listed():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    inputs = {name for name, p in sub.choices.items() if "--pair" in p._option_string_actions}
    assert inputs == {command[0] for command in INPUT_COMMANDS}


@pytest.mark.parametrize("command", INPUT_COMMANDS, ids=lambda command: command[0])
def test_exclusive_inputs(tmp_path, capsys, command):
    # each source alone is valid input, so only the pairing is rejected
    pair = tmp_path / "pair.json"
    pair.write_text('{"L": [[2]], "M": [[2]]}')
    graph = tmp_path / "edge.sg"
    graph.write_text("n 2 sink 2\n1 2 +\n")
    sources = {"--pair": str(pair), "--graph": str(graph), "--fixture": "diamond"}
    for chosen in (("--pair", "--fixture"), ("--graph", "--pair"), ("--graph", "--fixture"),
                   ("--pair", "--graph", "--fixture")):
        argv = [arg for flag in chosen for arg in (flag, sources[flag])]
        code, out, err = run(capsys, *command, *argv)
        assert (code, out) == (2, ""), chosen
        assert "exactly one of --pair, --graph, --fixture is required" in err
    for flag, value in sources.items():
        code, _, err = run(capsys, *command, flag, value)
        assert code in (0, 1) and err == "", flag


def test_missing_file(capsys):
    code, _, err = run(capsys, "group", "--pair", "/nonexistent/x.json")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "blob",
    [
        '{"L": [["1/0"]], "M": [["1"]]}',
        '{"L": [[1.5]], "M": [[1]]}',
        '{"L": [[1, 2], [3]], "M": [[1, 0], [0, 1]]}',
        '[[2, -1], [-1, 2]]',
        '{"L": [[2]], "M": [[2, 0], [0, 2]]}',
    ],
    ids=["zero-denominator", "float-entry", "ragged-rows", "bare-grid", "unequal-sizes"],
)
def test_malformed_pair_is_an_input_error(tmp_path, capsys, blob):
    path = tmp_path / "pair.json"
    path.write_text(blob)
    code, out, err = run(capsys, "group", "--pair", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["check-mmatrix", "show-pair"])
def test_deeply_nested_pair_json_is_an_input_error(tmp_path, capsys, command):
    # too deep for the JSON parser's recursion: malformed input, not a failed check
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, command, "--pair", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_out_to_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run(capsys, "group", "--fixture", "diamond", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert not target.exists()


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "group", "--fixture", "diamond", "--out", str(target))
    assert code == 0
    assert out == ""
    assert "Z_12" in target.read_text()


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("argv", [("enumerate", "--kind", "superstable", "--preimages"),
                                  ("duality", "--show-mu-cases")], ids=lambda a: a[0])
def test_out_file_equals_stdout(tmp_path, capsys, argv, fmt):
    # the file is written row by row, as stdout is
    argv = [*argv, "--fixture", "diamond", "--format", fmt]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out
    target = tmp_path / "report.txt"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == out.encode()


def test_family_scan_default(capsys):
    code, out, _ = run(capsys, "family-scan", "--kind", "cycle", "--n", "6")
    assert code == 0
    assert "16 sign patterns" in out


def test_family_scan_critical_groups_cycle4(capsys):
    code, out, _ = run(capsys, "family-scan", "--kind", "cycle", "--n", "4", "--verify", "critical-groups")
    assert code == 0
    assert "Z_4: 4 patterns" in out


def count_sweeps(monkeypatch):
    real = sgraph.sweep
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sgraph, "sweep", counted)
    monkeypatch.setattr(cli, "sweep", counted)
    return calls


def count_pairs(monkeypatch):
    real = sgraph.reduced_laplacians
    built = []

    def counted(g, *args, **kwargs):
        built.append(g)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(sgraph, "reduced_laplacians", counted)
    return built


@pytest.mark.parametrize("kind, n, orbits", [("cycle", 4, 1), ("complete", 5, 3)])
def test_family_scan_critical_groups_builds_one_pair_per_orbit(monkeypatch, capsys, kind, n, orbits):
    sweeps = count_sweeps(monkeypatch)
    built = count_pairs(monkeypatch)
    code, _, _ = run(capsys, "family-scan", "--kind", kind, "--n", str(n), "--verify", "critical-groups")
    assert code == 0
    assert sweeps == []
    assert [g.edges for g in built] == [sgraph.family(kind, n, p).edges for p, _ in sgraph.orbit_representatives(kind, n)]
    assert len(built) == orbits


def test_family_scan_critical_groups_cycle21_counts_every_pattern_at_once(capsys):
    # 2^19 patterns in one switching class: one pair, not 524,288
    code, out, err = run(capsys, "family-scan", "--kind", "cycle", "--n", "21", "--verify", "critical-groups")
    assert code == 0 and err == ""
    assert out == "Z_21: 524288 patterns\n1 distinct critical groups over 524288 patterns\n"


def test_family_scan_counts_without_building_pairs(monkeypatch, capsys):
    # K_30 has 406 non-sink edges; the count is 2^406 and no pair is built
    calls = count_sweeps(monkeypatch)
    code, out, err = run(capsys, "family-scan", "--kind", "complete", "--n", "30")
    assert code == 0 and err == ""
    assert out == f"{2 ** 406} sign patterns of the complete family on 30 vertices\n"
    assert calls == []


def test_family_scan_over_the_pattern_cap_builds_nothing(monkeypatch, capsys):
    # the orbit walk visits every switching class: 2^21 for K9, over the cap
    built = []
    monkeypatch.setattr(sgraph, "reduced_laplacians", lambda *args, **kwargs: built.append(args))
    code, out, err = run(capsys, "family-scan", "--kind", "complete", "--n", "9", "--verify", "critical-groups")
    assert code == 2 and out == ""
    assert err == "error: 268435456 sign patterns in 2097152 switching classes exceeds cap 1000000\n"
    assert built == []


def test_family_scan_cycle_pair_over_the_cap_builds_nothing(monkeypatch, capsys):
    # C_n is one orbit, but its (n-1) x (n-1) pair costs (n-1)^3 steps:
    # C_2000 stops before any work, C_101 (100^3 = the cap) still builds
    built = []

    def record(g, *args, **kwargs):
        built.append(g.n)
        return types.SimpleNamespace(m=None, l_group=AbelianGroup((g.n,)))

    monkeypatch.setattr(sgraph, "reduced_laplacians", record)
    code, out, err = run(capsys, "family-scan", "--kind", "cycle", "--n", "2000", "--verify", "critical-groups")
    assert code == 2 and out == "" and built == []
    assert err.startswith("error: ") and err.endswith(" exceeds cap 1000000\n") and err.count("\n") == 1
    code, _, err = run(capsys, "family-scan", "--kind", "cycle", "--n", "101", "--verify", "critical-groups")
    assert code == 0 and err == "" and built == [101]


def test_family_scan_half_n_over_the_cap_builds_nothing(monkeypatch, capsys):
    # the identity is checked on the (n-1) x (n-1) grid of K_n: with the
    # budget at 100, K_11 (10^2 = the cap) still runs and K_12 stops first
    built = []
    real = sgraph.family
    monkeypatch.setattr(sgraph, "family", lambda *args: built.append(args) or real(*args))
    monkeypatch.setattr(lattices, "DEFAULT_ENUMERATION_CAP", 100)
    code, out, err = run(capsys, "family-scan", "--kind", "complete", "--n", "12", "--verify", "half-n")
    assert code == 2 and out == "" and built == []
    assert err == "error: a 11 x 11 grid takes 11^2 = 121 steps, exceeds cap 100\n"
    code, _, err = run(capsys, "family-scan", "--kind", "complete", "--n", "11", "--verify", "half-n")
    assert code == 0 and err == "" and built == [("complete", 11)]


@pytest.mark.parametrize("verify", [[], ["--verify", "critical-groups"], ["--verify", "z2-subgroup"],
                                    ["--verify", "half-n"]])
def test_family_scan_on_k1000000_never_builds_the_pattern_count(verify):
    # 2^C(999999, 2) takes 62.5 GB; under a 512 MB address-space limit
    # each request still exits 2 with one error line
    limit = 512 * 2**20
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (%d, %d)); "
            "from chipfire.cli import main; sys.exit(main(sys.argv[1:]))" % (limit, limit))
    env = {**os.environ, "PYTHONPATH": SRC}
    argv = ["family-scan", "--kind", "complete", "--n", "1000000", *verify]
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_family_scan_critical_groups_on_k8(capsys):
    # 54 orbits stand for 2,097,152 patterns
    start = time.perf_counter()
    code, out, err = run(capsys, "family-scan", "--kind", "complete", "--n", "8", "--verify", "critical-groups")
    assert time.perf_counter() - start < 5
    assert code == 0 and err == ""
    assert out.endswith("\n52 distinct critical groups over 2097152 patterns\n")
    assert "Z_8 x Z_8 x Z_8 x Z_8 x Z_8 x Z_8: 64 patterns\n" in out


@pytest.mark.parametrize("verify", [[], ["--verify", "critical-groups"], ["--verify", "z2-subgroup"]])
def test_family_scan_on_k2000_fails_fast(monkeypatch, capsys, verify):
    # 2^1997001 patterns: the count is closed form and never printed in decimal
    built = []
    monkeypatch.setattr(sgraph, "reduced_laplacians", lambda *args, **kwargs: built.append(args))
    start = time.perf_counter()
    code, out, err = run(capsys, "family-scan", "--kind", "complete", "--n", "2000", *verify)
    assert time.perf_counter() - start < 2
    assert code == 2 and out == "" and built == []
    assert err.startswith("error: 2^1997001 sign patterns ") and err.count("\n") == 1


def test_family_scan_pattern_count_past_the_digit_limit(capsys):
    # 2^15931 has 4,796 digits: past the default limit of 4,300, but below
    # the 4 * limit where the count is not built at all
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "family-scan", "--kind", "complete", "--n", "180")
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (2, "")
    assert err == ("error: 2^15931 sign patterns of the complete family on 180 vertices: "
                   "too many digits to print\n")


def test_family_scan_half_n_on_k200_builds_no_matrix(monkeypatch, capsys):
    # the identity M (I + J) = n I needs M's grid only: no pair, no
    # M-matrix object with its adjugate and Smith form, no determinant
    def refuse(*args, **kwargs):
        raise AssertionError("half-n built a matrix object")

    monkeypatch.setattr(sgraph, "ChipFiringPair", refuse)
    monkeypatch.setattr(sgraph, "MMatrix", refuse)
    monkeypatch.setattr(linalg, "_det_bareiss", refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, "family-scan", "--kind", "complete", "--n", "200", "--verify", "half-n")
    assert time.perf_counter() - start < 5
    assert code == 0 and err == ""
    assert out == ("reduced complete graph on 200 vertices: inverse has 2/200 on the diagonal "
                   "and 1/200 off it; 200 * M^-1 e_i = ones + e_i\n")


def test_family_scan_critical_groups_takes_one_determinant_per_pair(monkeypatch, capsys):
    # 7 K6 orbits, one Bareiss determinant of L each; M's determinant
    # comes from its adjugate
    real = linalg._det_bareiss
    calls = []

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(linalg, "_det_bareiss", counted)
    code, _, _ = run(capsys, "family-scan", "--kind", "complete", "--n", "6", "--verify", "critical-groups")
    assert code == 0
    assert len(calls) == 7


@pytest.mark.parametrize(
    "verify, kind, n",
    [("z2-subgroup", "cycle", "6"), ("z2-subgroup", "complete", "5"), ("half-n", "cycle", "6")],
)
def test_family_scan_z2_subgroup_rejects_bad_request(monkeypatch, capsys, verify, kind, n):
    calls = count_sweeps(monkeypatch)
    code, out, err = run(capsys, "family-scan", "--kind", kind, "--n", n, "--verify", verify)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert calls == []


def test_paper_check_matrix(monkeypatch, capsys, paper_results):
    monkeypatch.setattr(verification, "run_all", lambda: paper_results)
    code, out, _ = run(capsys, "paper-check")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "10 passed, 0 failed"
    statuses = [ln for ln in lines if ln.lstrip()[:1].isdigit() and ("PASS" in ln or "FAIL" in ln)]
    assert len(statuses) == 10
    assert "FAIL" not in out
    # criterion 3 still reports the printed errata it expects
    assert "(0, 0, 0): computed dual (8, 6, 2), reference prints (6, 4, 2)" in out


def test_paper_check_timings(monkeypatch, capsys, paper_results):
    monkeypatch.setattr(verification, "run_all", lambda: paper_results)
    code, out, _ = run(capsys, "paper-check", "--timings", "--format", "json")
    assert code == 0
    assert [e["seconds"] for e in json.loads(out)] == [round(r.seconds, 3) for r in paper_results]
    code, out, _ = run(capsys, "paper-check", "--timings", "--format", "csv")
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "number,name,result,seconds"
    assert rows == [f"{r.number},{r.name},PASS,{round(r.seconds, 3)}" for r in paper_results]
    code, out, _ = run(capsys, "paper-check", "--timings")
    assert code == 0
    # one status line per criterion, each followed by its indented detail lines
    *body, summary = out.splitlines()
    statuses = [ln for ln in body if not ln.startswith("      ")]
    assert summary == "10 passed, 0 failed" and len(statuses) == len(paper_results) == 10
    for line, r in zip(statuses, paper_results):
        assert line.startswith(f"{r.number:>2}  {r.name}") and line.endswith(f"  ({r.seconds:.2f}s)")


def test_paper_check_byte_identical(monkeypatch, capsys, paper_results):
    # one fresh run against the session's shared result, rendered the same way
    _, fresh, _ = run(capsys, "paper-check")
    monkeypatch.setattr(verification, "run_all", lambda: paper_results)
    _, shared, _ = run(capsys, "paper-check")
    assert fresh == shared


@pytest.mark.parametrize("command", ["group", "show-pair"])
def test_singular_l_exits_2(tmp_path, capsys, command):
    blob = tmp_path / "pair.json"
    blob.write_text(json.dumps({"L": [[1, 1], [1, 1]], "M": [[2, -1], [-1, 2]]}))
    code, out, err = run(capsys, command, "--pair", str(blob))
    assert (code, out, err) == (2, "", "error: L must be invertible\n")


def test_show_pair(capsys):
    code, out, _ = run(capsys, "show-pair", "--fixture", "diamond")
    assert code == 0
    assert "det L = 12" in out and "det M = 8" in out


# -- fuzzing the input edge ------------------------------------------------------
# Any --pair blob or --graph text either runs (exit 0) or is rejected with
# exit 2, an empty stdout and exactly one "error:" line on stderr.

FUZZED_COMMANDS = (
    ["group"],
    ["show-pair"],
    ["enumerate", "--kind", "superstable"],
    ["duality"],
)
M_MATRICES = {
    1: [["3"]],
    2: [["2", "-1"], ["-1", "2"]],
    3: [["3", "-1", "-1"], ["-1", "2", "-1"], ["-1", "-1", "3"]],
}
ATOMS = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3).map(str),
    st.sampled_from(["4/2", "-1/2", "1/0", "1/2/3", "", "x", True, None, 1.5]),
)
ENTRIES = ATOMS | st.lists(ATOMS, max_size=2)


def _square(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


GRIDS = st.one_of(
    st.integers(1, 3).flatmap(lambda n: _square(n, ENTRIES)),
    st.lists(st.lists(ENTRIES, max_size=3), max_size=3),
    ENTRIES,
)
# an integer L over a real M-matrix reaches enumeration and duality
VALID_SHAPED = st.integers(1, 3).flatmap(
    lambda n: st.fixed_dictionaries({"L": _square(n, st.integers(-3, 3).map(str)), "M": st.just(M_MATRICES[n])})
)
PAIR_BLOBS = st.one_of(
    VALID_SHAPED,
    st.fixed_dictionaries({"L": GRIDS, "M": GRIDS}),
    st.fixed_dictionaries({"L": GRIDS}),
    GRIDS,
)
HEADERS = st.one_of(
    st.builds("n {} sink {}".format, st.integers(-1, 5), st.integers(-1, 6)),
    st.sampled_from(["", "n 3", "n x sink 1", "m 3 sink 3", "n 3 sink 3 extra"]),
)
EDGES = st.builds(
    "{} {} {}".format, st.integers(0, 6), st.integers(0, 6), st.sampled_from(["+", "-", "+-", "x", ""])
)

def _graph_text(head, edges):
    return "\n".join([head, *edges]) + "\n"


# a good header and in-range edges; disconnected graphs and singular L still occur
WELL_FORMED_GRAPHS = st.integers(2, 4).flatmap(
    lambda n: st.builds(
        _graph_text,
        st.integers(1, n).map(f"n {n} sink {{}}".format),
        st.lists(
            st.builds("{0[0]} {0[1]} {1}".format,
                      st.sampled_from([(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]),
                      st.sampled_from("+-")),
            max_size=6,
        ),
    )
)
GRAPH_TEXTS = WELL_FORMED_GRAPHS | st.builds(_graph_text, HEADERS, st.lists(EDGES, max_size=8))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_quiet(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_runs_or_rejects(flag, path):
    for command in FUZZED_COMMANDS:
        code, out, err = run_quiet(*command, flag, str(path))
        assert code in (0, 2), (command, code, err)
        if code == 2:
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
        else:
            assert err == ""


@settings(max_examples=150, deadline=None)
@given(PAIR_BLOBS)
def test_fuzzed_pair_blobs_run_or_exit_2(fuzz_dir, blob):
    path = fuzz_dir / "pair.json"
    path.write_text(json.dumps(blob))
    assert_runs_or_rejects("--pair", path)


@settings(max_examples=150, deadline=None)
@given(GRAPH_TEXTS)
def test_fuzzed_graph_texts_run_or_exit_2(fuzz_dir, text):
    path = fuzz_dir / "graph.sg"
    path.write_text(text)
    assert_runs_or_rejects("--graph", path)
