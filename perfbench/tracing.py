"""Spans and per-layer counters recorded around the library's entry points.

Modules import names directly (``reduction`` holds its own ``prescreen``,
``cli`` its own ``find_reduction``), so a wrapper is installed at every
binding of an entry point in the loaded ``asdkit`` modules, and on the class
for methods; the benchmark itself calls the library through module
attributes.  Wrappers are in place only while a traced op runs.

A span's self time is its duration minus the time of the wrapped calls made
inside it.  Hot kernels, called up to about a million times per op, only add
to a count and a summed self time; every other entry point also keeps a span
(id, parent id, op id, name, start, end) in memory until the run ends.
"""

from __future__ import annotations

import itertools
import sys
import time
from contextlib import contextmanager

from asdkit import cli, devices, factorization, graphs, invariants, minimization, reduction, witnesses
from asdkit.devices import Device
from asdkit.errors import SearchBudgetExceeded
from asdkit.partitions import Partition

# (metric prefix, owner, attribute, hot)
POINTS = (
    ("partitions.from_raw", Partition, "from_raw", True),
    ("partitions.from_blocks", Partition, "from_blocks", True),
    ("partitions.meet", Partition, "meet", True),
    ("partitions.join", Partition, "join", True),
    ("partitions.refines", Partition, "refines", True),
    ("partitions.product", Partition, "product", True),
    ("devices.from_dict", Device, "from_dict", False),
    ("devices.to_dict", Device, "to_dict", False),
    ("devices.meet_of_all", Device, "meet_of_all", True),
    ("devices.direct_product", devices, "direct_product", False),
    ("witnesses.verify_reduction", witnesses, "verify_reduction", False),
    ("minimization.minimize", minimization, "minimize", False),
    ("invariants.prescreen", invariants, "prescreen", False),
    ("invariants.perfectness_index", invariants, "perfectness_index", False),
    ("invariants.pair_counts", invariants, "_pair_counts", False),
    ("invariants.poly_signature", invariants, "poly_signature", False),
    ("reduction.find_reduction", reduction, "find_reduction", False),
    ("reduction.structural_refute", reduction, "_structural_refute", False),
    ("reduction.search_reduction", reduction, "_search_reduction", False),
    ("reduction.search_bitmask", reduction, "_search_reduction_bitmask", False),
    ("reduction.ac_narrow", reduction, "_ac_narrow", True),
    ("reduction.search_bijection", reduction, "_search_bijection", False),
    ("reduction.decide_equivalence", reduction, "decide_equivalence", False),
    ("factorization.factor_binary", factorization, "factor_binary", False),
    ("factorization.audit", factorization, "_audit_uniqueness", False),
    ("factorization.binary_product_reduce", factorization, "binary_product_reduce", False),
    ("factorization.extract_index_partition", factorization, "extract_index_partition", False),
    ("graphs.clique_via_reduction", graphs, "clique_via_reduction", False),
    ("graphs.gi_via_equivalence", graphs, "gi_via_equivalence", False),
    ("cli.load", cli, "_load_device", False),
    ("cli.emit", cli, "_emit", False),
    ("cli.command", cli, "main", False),
)

SEARCHES = ("reduction.search_reduction", "reduction.search_bitmask", "reduction.search_bijection")


def _binding_sites(owner, attr: str):
    """Every (namespace, name) at which the entry point can be looked up."""
    if isinstance(owner, type):
        return [(owner, attr, owner.__dict__[attr])]
    original = getattr(owner, attr)
    mods = [m for name, m in sys.modules.items() if name == "asdkit" or name.startswith("asdkit.")]
    sites = []
    for mod in mods:
        for name, value in vars(mod).items():
            if value is original:
                sites.append((mod, name, original))
    return sites


class Tracer:
    """Counts, self times and spans for ops run inside ``tracer.op(...)``."""

    def __init__(self):
        self.stats = {name: [0, 0.0] for name, *_ in POINTS}
        self.stats["op"] = [0, 0.0]
        self.counts = dict.fromkeys(
            ("minimize.repeats", "prescreen.refutes", "structural_refute.hits", "budget_exceeded"), 0)
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._op_id = 0
        self._minimized: set = set()
        self._patches = []
        for name, owner, attr, hot in POINTS:
            for ns, key, original in _binding_sites(owner, attr):
                self._patches.append((ns, key, original, self._wrapped(name, original, hot)))

    # ------------------------------------------------------------------

    def _wrapped(self, name, original, hot):
        if isinstance(original, (classmethod, staticmethod)):
            return type(original)(self._wrapped(name, original.__func__, hot))
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        if hot:
            def traced(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    took = clock() - start
                    stack.pop()
                    stat[0] += 1
                    stat[1] += took - frame[0]
                    stack[-1][0] += took
            return traced

        spans, ids, counts = self.spans, self._ids, self.counts
        before = self._minimize_seen if name == "minimization.minimize" else None
        after = {
            "invariants.prescreen": lambda res: res is not None and "prescreen.refutes",
            "reduction.structural_refute": lambda res: res and "structural_refute.hits",
        }.get(name)
        search = name in SEARCHES

        def traced(*args, **kwargs):
            if before is not None:
                before(args[0])
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except SearchBudgetExceeded:
                if search:
                    counts["budget_exceeded"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1]
                stat[0] += 1
                stat[1] += end - start - frame[0]
                parent[0] += end - start
                spans.append((frame[1], parent[1], self._op_id, name, start, end))
            if after is not None:
                key = after(result)
                if key:
                    counts[key] += 1
            return result

        return traced

    def _minimize_seen(self, dev) -> None:
        if dev in self._minimized:
            self.counts["minimize.repeats"] += 1
        else:
            self._minimized.add(dev)

    # ------------------------------------------------------------------

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Trace one op: install the wrappers, open the op's root span, remove them."""
        self._op_id = op_id
        self._minimized = set()
        root = [0.0, next(self._ids)]
        self._stack.append(root)
        for ns, key, _, wrapped in self._patches:
            setattr(ns, key, wrapped)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            for ns, key, original, _ in self._patches:
                setattr(ns, key, original)
            self._stack.pop()
            self.stats["op"][0] += 1
            self.stats["op"][1] += end - start - root[0]
            self.spans.append((root[1], None, op_id, f"op:{kind}", start, end))

    def metric(self, name: str) -> float:
        """Value of a per-layer metric named as in BENCHMARK.json."""
        ratios = {
            "minimization.minimize.repeat_frac": ("minimize.repeats", "minimization.minimize"),
            "invariants.prescreen.refute_frac": ("prescreen.refutes", "invariants.prescreen"),
            "reduction.structural_refute.hit_frac": ("structural_refute.hits",
                                                     "reduction.structural_refute"),
        }
        if name in ratios:
            count, point = ratios[name]
            calls = self.stats[point][0]
            return self.counts[count] / calls if calls else 0.0
        if name == "reduction.budget_exceeded.count":
            return self.counts["budget_exceeded"]
        point, _, field = name.rpartition(".")
        if field == "calls":
            return self.stats[point][0]
        if field == "self_s":
            return self.stats[point][1]
        raise KeyError(name)
