"""Spans and counters around the library's public functions.

``Tracer.install`` replaces each traced function with a wrapper in every
``netinfluence`` module namespace that holds it, so calls are caught where
each module looks them up: ``game`` calling ``diffusion_centrality_matrix``,
``solver`` calling ``table_payoffs``, ``cli`` calling ``load_graph`` and so
on.  Nothing under ``src/`` changes; ``uninstall`` puts the originals back.

Spans are kept in memory as ``(name, start, end, parent)`` and turned into
per-function inclusive time, self time (inclusive minus wrapped child calls)
and call counts.  Counters are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict

# module -> public functions timed at their boundary.
TRACED = {
    "graph": ("load_graph", "validate", "random_graph"),
    "dynamics": ("influence_matrix", "diffusion_centrality_matrix", "eigenvector_weights", "evolve"),
    "game": ("payoff_table", "table_payoffs", "utility", "utility_closed_form"),
    "solver": ("exact_best_response", "greedy_best_response", "exhaustive_nash_check",
               "best_response_dynamics", "consensus_equilibrium"),
    "cli": ("main",),
}
NAMESPACES = ("netinfluence", "netinfluence.graph", "netinfluence.dynamics", "netinfluence.game",
              "netinfluence.solver", "netinfluence.cli")


def _count_load(counts, args, kwargs, result):
    counts["graph.load_graph.edges"] += len(result.edges)


def _count_table(counts, args, kwargs, result):
    n = result.shape[0]
    counts["dynamics.table_mb"] += n * n * 8 / 1e6


def _count_best_response(counts, args, kwargs, result):
    counts["solver.candidates"] += result.evaluations


def _count_profiles(counts, args, kwargs, result):
    cfg = args[0]
    counts["solver.profiles"] += math.prod(math.comb(cfg.n, min(b, cfg.n)) for b in cfg.budgets)


def _count_moves(counts, args, kwargs, result):
    counts["solver.moves"] += len(result.trace)


AFTER = {
    "graph.load_graph": _count_load,
    "dynamics.diffusion_centrality_matrix": _count_table,
    "solver.exact_best_response": _count_best_response,
    "solver.greedy_best_response": _count_best_response,
    "solver.exhaustive_nash_check": _count_profiles,
    "solver.best_response_dynamics": _count_moves,
}


class Tracer:
    """Installs the wrappers and collects their spans and counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._seen_tables: set = set()
        self._keep: list = []
        self._patched: list = []
        self.paused = False

    # -- installation -----------------------------------------------------
    def install(self):
        import importlib

        modules = [importlib.import_module(name) for name in NAMESPACES]
        wrappers = {}
        for short, names in TRACED.items():
            mod = importlib.import_module(f"netinfluence.{short}")
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        after = AFTER.get(name)
        is_table = name == "game.payoff_table"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if is_table:
                self._note_table_key(args, kwargs)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _note_table_key(self, args, kwargs):
        cfg = args[0]
        regime = args[1] if len(args) > 1 else kwargs.get("regime", "horizon")
        key = (id(cfg.graph), cfg.alpha, cfg.horizon if regime == "horizon" else None, regime)
        self._keep.append(cfg.graph)  # keeps ids unique while the key is remembered
        if key in self._seen_tables:
            self.counts["game.payoff_table.hits"] += 1
        else:
            self._seen_tables.add(key)

    # -- collection -------------------------------------------------------
    def caches_cleared(self):
        """Forget table keys: the library's caches were just emptied."""
        self._seen_tables.clear()
        self._keep.clear()

    def take(self) -> tuple[list, Counter]:
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        self.caches_cleared()
        return spans, counts


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per-function inclusive seconds, self seconds and calls from a span list."""
    child = defaultdict(float)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for index, (name, start, end, _) in enumerate(spans):
        entry = out[name]
        entry["s"] += end - start
        entry["self_s"] += end - start - child[index]
        entry["calls"] += 1
    return out


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-module metrics from one round's spans and counters.

    Every traced function gets ``.s``, ``.self_s`` and ``.calls`` (zero when
    it was not called); derived rates and ratios follow.
    """
    agg = aggregate(spans)
    m: dict[str, float] = {}
    for short, names in TRACED.items():
        for name in names:
            entry = agg.get(f"{short}.{name}", {"s": 0.0, "self_s": 0.0, "calls": 0})
            for field, value in entry.items():
                m[f"{short}.{name}.{field}"] = float(value)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    m["graph.load_graph.edges_per_s"] = ratio(counts["graph.load_graph.edges"],
                                              m["graph.load_graph.s"])
    m["dynamics.table_mb"] = float(counts["dynamics.table_mb"])
    m["game.payoff_table.hit_ratio"] = ratio(counts["game.payoff_table.hits"],
                                             m["game.payoff_table.calls"])
    m["game.table_payoffs.us_per_call"] = 1e6 * ratio(m["game.table_payoffs.s"],
                                                      m["game.table_payoffs.calls"])
    for key in ("solver.candidates", "solver.profiles", "solver.moves", "cli.output_bytes"):
        m[key] = float(counts[key])
    m["solver.candidates_per_s"] = ratio(
        m["solver.candidates"],
        m["solver.exact_best_response.s"] + m["solver.greedy_best_response.s"])
    return m
