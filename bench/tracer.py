"""Spans and work counters recorded from outside the program.

The tracer wraps functions of the chipfire package at every place their
name is looked up: a module-level function is replaced in each chipfire
module (and the package itself) that binds the same object, so
`from .linalg import mat_mul` in pairs, lattices and mmatrix is traced
too; a method is replaced on its class.  A name the program no longer
defines is skipped: its layer is not in `present`, run.py reports its
metrics as 0 and names them as absent, so a refactor that deletes it
does not break the benchmark.

Each call becomes a span (layer, start, end, parent span, job id).
Spans stay in memory until `write_spans`.  Self time is a span's
duration minus the time covered by its child spans.  Counters are
computed from call arguments and results only.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

from gen import inverse, z_box_size

# (layer, module, attribute path[s]) in the order they are reported.
LAYERS = (
    ("pairs.ChipFiringPair.init", "pairs", ("ChipFiringPair.__init__",)),
    ("linalg.mat_inverse", "linalg", ("mat_inverse",)),
    ("linalg.mat_mul", "linalg", ("mat_mul",)),
    ("linalg.mat_det", "linalg", ("mat_det",)),
    ("lattices.snf", "lattices", ("snf",)),
    ("sgraph.reduced_laplacians", "sgraph", ("reduced_laplacians",)),
    ("sgraph.sweep", "sgraph", ("sweep",)),
    ("mmatrix.MMatrix.init", "mmatrix", ("MMatrix.__init__",)),
    ("mmatrix.superstables", "mmatrix", ("MMatrix.superstables",)),
    ("mmatrix.is_z_superstable", "mmatrix", ("MMatrix.is_z_superstable",)),
    ("duality.mu_case", "duality", ("mu_case",)),
    ("duality.duality_table", "duality", ("duality_table",)),
    ("duality.fixed_points", "duality", ("fixed_points",)),
    ("lattices.enumerate_class_reps", "lattices", ("enumerate_class_reps",)),
    ("pairs.enumerate", "pairs", ("ChipFiringPair.enumerate_pair_superstables",
                                  "ChipFiringPair.enumerate_pair_criticals")),
    ("lattices.lattice_intersect_with_Zn", "lattices", ("lattice_intersect_with_Zn",)),
    ("frackets.fracket_partition", "frackets", ("fracket_partition",)),
    ("frackets.zero_fracket", "frackets", ("zero_fracket",)),
    ("cli.main", "cli", ("main",)),
)
# counted, but too hot and too small to be worth a span
CALL_COUNTERS = (("lattices.class_id", "lattices", "class_id"),)
# work counters a layer reports next to its calls and self time
LAYER_COUNTERS = {
    "mmatrix.is_z_superstable": ("mmatrix.z_box_candidates",),
    "lattices.enumerate_class_reps": ("lattices.enumerate_class_reps.classes",),
    "pairs.enumerate": ("pairs.enumerate.rows", "pairs.enumerate.cache_hits"),
}


class Tracer:
    """Spans and counters of the chipfire calls made while installed."""

    def __init__(self):
        self.names = [layer for layer, _, _ in LAYERS]
        self.present = set()
        self.spans = []
        self.stack = []
        self.job = None
        self.counts = {}
        self._z_calls = []          # (MMatrix, s) per is_z_superstable call
        self._enum_seen = {}        # id(pair) -> (pair, ids of returned row tuples)
        self._restore = []

    # -- installation ------------------------------------------------------------

    def install(self, package):
        for _, module, _ in LAYERS + CALL_COUNTERS:
            try:
                importlib.import_module(f"{package.__name__}.{module}")
            except ImportError:
                pass        # a module a refactor removed: its layers are absent
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for index, (layer, module, paths) in enumerate(LAYERS):
            mod = sys.modules.get(f"{package.__name__}.{module}")
            for path in paths:
                if mod is not None and self._patch(modules, mod, path, self._span_wrapper(index, layer)):
                    self.present.add(layer)
                    for counter in LAYER_COUNTERS.get(layer, ()):
                        self.counts[counter] = 0
        for layer, module, attr in CALL_COUNTERS:
            mod = sys.modules.get(f"{package.__name__}.{module}")
            if mod is not None and self._patch(modules, mod, attr, self._count_wrapper(layer)):
                self.present.add(layer)
                self.counts[layer + ".calls"] = 0

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, modules, mod, path, make):
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            original = owner.__dict__.get(attr) if isinstance(owner, type) else None
            if original is None:
                return False
            self._set(owner, attr, make(original))
            return True
        original = getattr(mod, attr, None)
        if not callable(original):
            return False
        wrapped = make(original)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    self._set(m, name, wrapped)
        return True

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- wrappers ------------------------------------------------------------------

    def _span_wrapper(self, index, layer):
        spans, stack = self.spans, self.stack
        after = {
            "mmatrix.is_z_superstable": self._after_z,
            "pairs.enumerate": self._after_enumerate,
            "lattices.enumerate_class_reps": self._after_classes,
        }.get(layer)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(sid)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    spans[sid] = (index, start, end, parent, self.job)
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        return make

    def _count_wrapper(self, layer):
        key = layer + ".calls"

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _after_z(self, args, result):
        self._z_calls.append((args[0], tuple(args[1])))

    def _after_classes(self, args, result):
        self.counts["lattices.enumerate_class_reps.classes"] += len(result)

    def _after_enumerate(self, args, result):
        pair = args[0]
        _, seen = self._enum_seen.setdefault(id(pair), (pair, set()))
        if id(result) in seen:
            self.counts["pairs.enumerate.cache_hits"] += 1
        else:
            seen.add(id(result))
            self.counts["pairs.enumerate.rows"] += len(result)

    # -- results -------------------------------------------------------------------

    def finish_counters(self):
        """Fold the recorded is_z_superstable arguments into the z-box count."""
        inverses = {}
        total = 0
        for mm, s in self._z_calls:
            inv = inverses.get(id(mm))
            if inv is None:
                grid = getattr(mm, "m", None)
                if grid is None:    # the matrix moved: the count is absent, not wrong
                    self.counts.pop("mmatrix.z_box_candidates", None)
                    break
                inv = inverses[id(mm)] = inverse(grid)
            total += z_box_size(inv, s)
        if "mmatrix.z_box_candidates" in self.counts:
            self.counts["mmatrix.z_box_candidates"] += total
        self._z_calls.clear()
        self._enum_seen.clear()


def layer_totals(names, spans):
    """{layer: [calls, self seconds]} from span tuples (layer index, start,
    end, parent, job); parents index into the same list."""
    covered = [0.0] * len(spans)
    for index, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = {}
    for (index, start, end, _, _), child in zip(spans, covered):
        entry = totals.setdefault(names[index], [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - child
    return totals


def write_spans(path, names, spans):
    with open(path, "w") as fh:
        for index, start, end, parent, job in spans:
            fh.write(json.dumps({"name": names[index], "start": start, "end": end,
                                 "parent": parent, "job": job}) + "\n")
