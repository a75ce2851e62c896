"""A K6 pair with a large denominator, pinned byte for byte.

The golden cases use fixtures whose preimage denominators are at most
12.  Sign pattern 691 of K6 has det L = 2048 and det M = 1296, so its
rows and fracket keys carry numerators over 2048 or 1296 that reduce to
many different denominators.  The STDOUT_SHA256 digests are the
benchmark's frozen ones for this pattern (the `k6_pairs["691"]` entry of
bench/reference.json, frozen by bench/freeze.py); FORMAT_SHA256 pins the
remaining formats of `enumerate` and `duality` and both sides of
`frackets`, so that no change to the renderer moves a byte.  The edge list is the one the benchmark's input generator writes
for the pattern (bench/gen.py, `k6_input(691)`).
"""

import contextlib
import gc
import hashlib
import io
import os
import subprocess
import sys
import tracemalloc

import pytest

import chipfire.cli
import chipfire.linalg
from chipfire.cli import build_parser, main
from chipfire.duality import duality, duality_inverse, duality_rows, fixed_points, mu_case
from chipfire.sgraph import family, reduced_laplacians

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
    ("frackets", "--side", "L"):
        "717d799fbd2b903d1f03f60781e3075a791c2cb94460abd4dde4a299f91cb0dd",
}
FORMAT_SHA256 = {
    ("enumerate", "--kind", "superstable", "--preimages"):
        "c3b61adb23c2efd0dc0ff8f3b31f00b44f82fc41ec781bd6123d30d9cd6562ab",
    ("enumerate", "--kind", "superstable", "--format", "json"):
        "e1513f41fb9fb4ec95a50d4e61935e22ccc49898cf849366e20f8acfae3d85be",
    ("enumerate", "--kind", "critical", "--preimages"):
        "8e32e595001cb265f7ad0bde0291621f24e443958c0c508a9a6b1cb50211f50b",
    ("enumerate", "--kind", "critical", "--format", "json"):
        "36039718483926164ab934adba02397d256ca5bbce13a9692e8c51c867314a0f",
    ("duality", "--format", "csv"):
        "664290dcbe52be2c859095ae188153ffcffc2a07e7b0912fc989e54881cfae32",
    ("duality", "--show-mu-cases", "--format", "json"):
        "2610d0ca42e2d348f94e99c9af3df63d7680cc7c5a4dad3918559e4dae21c540",
    ("duality", "--inverse"):
        "74a67fcde1d1d48803371b6490991259372dec636fe122e1d69f113c99c11897",
    ("frackets", "--side", "L", "--format", "csv"):
        "b5beadd95ae67a4ec1dabea072110de125f3d5944ce00c482710489b153d13f9",
    ("frackets", "--side", "L", "--format", "json"):
        "9e1278f6d62fd662d33d4a4b603cc4b8c3917bf72aada9d4cd2eba541360fe50",
    ("frackets", "--side", "M"):
        "ecefb1c1e54a472bf72b71b5ca9a4409353f8cf8d896ae27df50d4aa9b46fd5b",
    ("frackets", "--side", "M", "--format", "csv"):
        "7f61b2ff5803bd3664986ce46ad4de1ffb02b3f3e8427d50769f254cc7421648",
    ("frackets", "--side", "M", "--format", "json"):
        "876569744d46517f92c8c784e0fb30a456cd2c37609b596eba5d5ba0258fdf95",
}
JSON_BUILDERS = ("over_json",)


def test_pattern_is_the_benchmark_input(format_edge_list):
    graph = family("complete", 6, PATTERN)
    assert format_edge_list(graph) == EDGE_LIST
    assert reduced_laplacians(graph).det_l == 2048


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("k6") / f"k6-pattern-{PATTERN}.sg"
    path.write_text(EDGE_LIST)
    return str(path)


def stdout_digest(capsys, argv, graph_path):
    assert main([*argv, "--graph", graph_path]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    return hashlib.sha256(out.out.encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(STDOUT_SHA256), ids=lambda a: a[0])
def test_k6_pattern_output_digest(graph_path, capsys, argv):
    assert stdout_digest(capsys, argv, graph_path) == STDOUT_SHA256[argv]


@pytest.mark.parametrize("argv", sorted(FORMAT_SHA256), ids=" ".join)
def test_k6_pattern_format_digest(graph_path, capsys, argv):
    assert stdout_digest(capsys, argv, graph_path) == FORMAT_SHA256[argv]


@pytest.mark.parametrize("argv", [
    ("enumerate", "--kind", "superstable", "--preimages"),
    ("enumerate", "--kind", "critical", "--preimages", "--format", "csv"),
    ("duality", "--show-mu-cases"),
    ("duality", "--format", "csv"),
    ("duality", "--inverse", "--format", "csv"),
], ids=" ".join)
def test_table_and_csv_rows_skip_the_json_builders(graph_path, capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("a table or CSV row went through a JSON builder")

    for name in JSON_BUILDERS:
        monkeypatch.setattr(chipfire.linalg, name, refuse)
        monkeypatch.setattr(chipfire.cli, name, refuse)
    assert main([*argv, "--graph", graph_path]) == 0
    assert capsys.readouterr().out.count("\n") == 2048 + (1 if "csv" in argv else 2)


class LineSink:
    """A stdout stand-in that keeps the byte count and the number of
    writes holding more than one line, and nothing of the text."""

    def __init__(self):
        self.size = self.multiline_writes = 0

    def write(self, text):
        self.size += len(text)
        self.multiline_writes += text.find("\n") not in (-1, len(text) - 1)


def test_table_rows_are_written_as_they_are_formatted(graph_path):
    # 2,049 lines of about 120 bytes: a report that joined them first
    # would hold the whole text at once, and write it in one call
    args = build_parser().parse_args(["duality", "--show-mu-cases", "--graph", graph_path])
    report = args.fn(args)
    sink = LineSink()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report.write(args.format, sink)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sink.size > 200_000
    assert sink.multiline_writes == 0
    assert peak < 64 * 1024


@pytest.mark.parametrize("argv", [["enumerate", "--kind", "superstable", "--preimages", "--format", "csv"],
                                  ["duality", "--show-mu-cases"]])
def test_row_commands_trace_at_most_800_kb(graph_path, argv):
    # the packed rows: one integer per row, per critical and per group key;
    # the first run loads what the command imports, and gc.collect empties
    # the free lists, so the traced peak counts this run's own blocks
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main([*argv, "--graph", graph_path]) == 0
        gc.collect()
        tracemalloc.start()
        try:
            assert main([*argv, "--graph", graph_path]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 800 * 1024


class CountingRaw(io.RawIOBase):
    """An unbuffered binary stream that keeps what it is given and counts
    the writes, as the file under an unbuffered sys.stdout sees them."""

    def __init__(self):
        self.data, self.writes = bytearray(), 0

    def writable(self):
        return True

    def write(self, b):
        self.data += b
        self.writes += 1
        return len(b)


def test_main_buffers_a_write_through_stdout(graph_path, monkeypatch):
    # PYTHONUNBUFFERED gives a write-through stdout over the raw file: main
    # writes it in blocks of the text layer's chunk size, not one per row,
    # and leaves it write-through for the caller
    raw = CountingRaw()
    stdout = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    monkeypatch.setattr(sys, "stdout", stdout)
    argv = ("duality", "--show-mu-cases")
    assert main([*argv, "--graph", graph_path]) == 0
    assert stdout.write_through
    assert hashlib.sha256(raw.data).hexdigest() == STDOUT_SHA256[argv]
    assert raw.writes <= len(raw.data) // 8192 + 2


def _cli_env(unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(chipfire.cli.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("argv", [
    ("duality", "--show-mu-cases"),
    ("enumerate", "--kind", "superstable", "--preimages", "--format", "csv"),
], ids=["duality", "enumerate-csv"])
def test_unbuffered_stdout_into_a_pipe_gives_the_buffered_bytes(graph_path, argv):
    outs = []
    for unbuffered in (False, True):
        proc = subprocess.run([sys.executable, "-m", "chipfire.cli", *argv, "--graph", graph_path],
                              capture_output=True, env=_cli_env(unbuffered), timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[1]).hexdigest() == STDOUT_SHA256[argv]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, header", [
    (("duality", "--show-mu-cases"), b"superstable "),
    (("enumerate", "--kind", "superstable", "--preimages", "--format", "csv"), b"config,preimage,floor,frac\n"),
], ids=["duality", "enumerate-csv"])
def test_a_reader_that_leaves_early_ends_the_command_quietly(graph_path, argv, header, unbuffered):
    # the output outgrows the pipe, so the command is still writing when
    # the reader closes it after one line, as `| head -1` does
    proc = subprocess.Popen([sys.executable, "-m", "chipfire.cli", *argv, "--graph", graph_path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_cli_env(unbuffered))
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert first.startswith(header)
    assert (code, err) == (0, b"")


def test_fixed_points_stabilize_only_the_fixed_classes():
    # a fresh pair with its own M: the class walk of K(M) stabilizes only
    # the 16 of its 1296 classes where mu is the identity
    pair = reduced_laplacians(family("complete", 6, PATTERN))
    fps = fixed_points(pair)
    assert len(fps) == 16
    assert len(pair.m._crit_by_class) == len(fps)
    # the misses are keyed by packed class id and hold packed criticals
    assert all(pair.m.class_id(pair.m.crits.unpack(c)) == pair.m.ids.unpack(i)
               for i, c in pair.m._crit_by_class.items())
    assert fps == tuple(s for s in pair.m.superstables() if mu_case(pair, s) == "identity")


def test_point_formulas_agree_with_every_row_of_the_table():
    # duality --inverse prints duality_rows by critical; the point formulas
    # of D and D^-1 recompute mu on each of the 2048 rows independently
    pair = reduced_laplacians(family("complete", 6, PATTERN))
    rows = duality_rows(pair)
    assert len(rows) == 2048
    for s, _, c in rows:
        assert duality(pair, s.preimage) == c.preimage
        assert duality_inverse(pair, c.preimage) == s.preimage
