"""Spans around calls into flipwidth's layers, for the traced run.

The tracer wraps module-level functions from outside the package.  Spans
are named by layer, not by function: LAYERS maps today's functions onto
the layers, and a later refactor that renames a function changes only its
row here.  A function that no longer exists is skipped and reported.

Enumeration generators are timed per item yielded, so their span's busy
time is the time spent producing items, not the time the consumer held
the generator open.  A span's self time is its busy time minus the busy
time of its direct children.
"""

import itertools
import json
import math
import time
from collections import defaultdict

from flipwidth import bulk, cli, flips, games, params


def _raw_k_flips(g, k, *args, **kwargs):
    return flips.count_raw_flips(g.n, k)


def _raw_definable(g, k, *args, **kwargs):
    # (S, pair subset) combinations: S of size <= k, blocks the S-types
    total = 0
    for size in range(min(k, g.n) + 1):
        for s in itertools.combinations(range(g.n), size):
            smask = sum(1 << v for v in s)
            b = len({row & smask for row in g.adj})
            total += 1 << (b * (b + 1) // 2)
    return total


def _raw_cut_flips(og, k, *args, **kwargs):
    n = og.graph.n
    cuts = sum(math.comb(n, i) for i in range(min(k, n) + 1))
    return flips.count_raw_flips(n, k) * cuts


def _param_kind(g, kind, *args, **kwargs):
    return f"params.{kind}"


CALL, GENERATOR = "call", "generator"

# (module, function, layer, how it runs, raw flips from the arguments,
# count from the result); layer may be a function of the arguments
LAYERS = [
    (cli, "main", "cli", CALL, None, None),
    (games, "flip_width", "search", CALL, None, None),
    (games, "definable_flip_width", "search", CALL, None, None),
    (games, "ordered_flip_width", "search", CALL, None, None),
    (games, "cop_width", "search", CALL, None, None),
    (games, "solve_flipper", "package", CALL, None, None),
    (games, "solve_definable", "package", CALL, None, None),
    (games, "solve_ordered", "package", CALL, None, None),
    (games, "_flip_outcomes", "outcomes", CALL, None, len),
    (games, "_definable_outcomes", "outcomes", CALL, None, len),
    (games, "_cut_flip_outcomes", "outcomes", CALL, None, len),
    (games, "enumerate_k_flips", "flips.enum", GENERATOR, _raw_k_flips, None),
    (games, "enumerate_definable_flips", "flips.enum", GENERATOR, _raw_definable, None),
    (games, "enumerate_cut_flips", "flips.enum", GENERATOR, _raw_cut_flips, None),
    (bulk, "component_outcomes", "bulk", CALL, _raw_k_flips, len),
    (games, "_abstract_solve", "fixpoint", CALL, None, len),
    (games, "check_anti_tone", "fixpoint.anti_tone", CALL, None, None),
    (games, "_reach_table", "cops.reach", CALL, None, None),
    (games, "_solve_cops_family", "cops.fixpoint", CALL, None, None),
    (params, "degeneracy", "params.degeneracy", CALL, None, None),
    (params, "generalized_coloring_number", _param_kind, CALL, None, None),
    (params, "treewidth_small", "params.treewidth", CALL, None, None),
]


class Span:
    __slots__ = ("name", "start", "end", "busy", "parent", "op", "round",
                 "count", "raw")

    def to_json(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Records spans in memory while installed; `op` and `round` tag them."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.round = None
        self.missing = []
        self._stack = []
        self._saved = []

    def install(self):
        for module, fn_name, layer, how, raw, count in LAYERS:
            fn = getattr(module, fn_name, None)
            if fn is None:
                self.missing.append(f"{module.__name__}.{fn_name}")
                continue
            self._saved.append((module, fn_name, fn))
            wrap = self._generator if how == GENERATOR else self._call
            setattr(module, fn_name, wrap(fn, layer, raw, count))

    def uninstall(self):
        while self._saved:
            module, fn_name, fn = self._saved.pop()
            setattr(module, fn_name, fn)

    def _open(self, layer, raw, args, kwargs):
        span = Span()
        span.name = layer(*args, **kwargs) if callable(layer) else layer
        span.parent = self._stack[-1] if self._stack else -1
        span.op = self.op
        span.round = self.round
        span.busy = 0.0
        span.count = 0
        span.raw = raw(*args, **kwargs) if raw else 0
        self.spans.append(span)
        span.start = span.end = time.perf_counter()
        return len(self.spans) - 1, span

    def _call(self, fn, layer, raw, count):
        def wrapper(*args, **kwargs):
            index, span = self._open(layer, raw, args, kwargs)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
                span.busy = span.end - span.start
            if count:
                span.count = count(result)
            return result
        return wrapper

    def _generator(self, fn, layer, raw, count):
        def wrapper(*args, **kwargs):
            index, span = self._open(layer, raw, args, kwargs)
            return self._drive(index, span, fn(*args, **kwargs))
        return wrapper

    def _drive(self, index, span, items):
        clock = time.perf_counter
        try:
            while True:
                self._stack.append(index)
                t0 = clock()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    span.busy += clock() - t0
                    self._stack.pop()
                span.count += 1
                yield item
        finally:
            span.end = clock()
            items.close()

    def write(self, path, t0):
        """Write every span as one JSON line, times relative to t0."""
        with open(path, "w") as f:
            for i, span in enumerate(self.spans):
                obj = span.to_json()
                obj["id"] = i
                obj["start"] -= t0
                obj["end"] -= t0
                f.write(json.dumps(obj) + "\n")


def self_times(spans, indices):
    """Self time of each span in `indices`: busy minus its children's."""
    own = {i: spans[i].busy for i in indices}
    for i in indices:
        parent = spans[i].parent
        if parent in own:
            own[parent] -= spans[i].busy
    return own


SOLVES = ("package", "cops.fixpoint")


def layer_metrics(spans, indices):
    """Per-layer metrics of the spans of one traced round of the batch."""
    own = self_times(spans, indices)
    busy, self_s, count, raw = (defaultdict(float), defaultdict(float),
                                defaultdict(int), defaultdict(int))
    calls = defaultdict(int)
    solves_in_search = 0
    for i in indices:
        s = spans[i]
        busy[s.name] += s.busy
        self_s[s.name] += own[i]
        count[s.name] += s.count
        raw[s.name] += s.raw
        calls[s.name] += 1
        if s.name in SOLVES and s.parent in own and spans[s.parent].name == "search":
            solves_in_search += 1
    flips_raw = raw["flips.enum"] + raw["bulk"]
    return {
        "flips.enum_s": (self_s["flips.enum"], "s"),
        "flips.raw": (flips_raw, "count"),
        "flips.edge_sets": (count["flips.enum"], "count"),
        "outcomes.reduce_s": (self_s["outcomes"], "s"),
        "outcomes.distinct": (count["outcomes"], "count"),
        "outcomes.per_raw": (count["outcomes"] / flips_raw if flips_raw else 0.0, "ratio"),
        "bulk.s": (busy["bulk"], "s"),
        "bulk.raw_per_s": (raw["bulk"] / busy["bulk"] if busy["bulk"] else 0.0, "1/s"),
        "bulk.outcomes": (count["bulk"], "count"),
        "fixpoint.s": (self_s["fixpoint"], "s"),
        "fixpoint.anti_tone_s": (busy["fixpoint.anti_tone"], "s"),
        "fixpoint.states_won": (count["fixpoint"], "count"),
        "package.s": (self_s["package"], "s"),
        "search.solves": (solves_in_search / calls["search"] if calls["search"] else 0.0,
                          "solves/search"),
        "cops.reach_s": (busy["cops.reach"], "s"),
        "cops.fixpoint_s": (self_s["cops.fixpoint"], "s"),
        "cops.solves": (calls["cops.fixpoint"], "count"),
        "params.degeneracy_s": (busy["params.degeneracy"], "s"),
        "params.adm_s": (busy["params.adm"], "s"),
        "params.wcol_s": (busy["params.wcol"], "s"),
        "params.treewidth_s": (busy["params.treewidth"], "s"),
        "cli.s": (self_s["cli"], "s"),
    }
