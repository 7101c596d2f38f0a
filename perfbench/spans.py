"""Layer spans for the traced run, recorded from the benchmark's own files.

Each public layer function is wrapped at every name an ``oddmax`` module
looks it up by (``oddmax.oracle.parse``, ``oddmax.machine.serialize``,
``oddmax.sat.sat_dpll``, ...), so calls between modules pass through the
wrapper. Nothing under ``src/`` changes, and ``Tracer.restore`` puts every
original back.

A span is (name, start, end, parent). Spans are kept in memory in flat
arrays and written out when the run ends. A layer's self time is the length
of its spans minus the length of their direct child spans.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable

#: (span name, home module, function names) for every traced layer.
LAYERS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("formula.parse", "oddmax.formula", ("parse",)),
    ("formula.serialize", "oddmax.formula", ("serialize",)),
    ("formula.substitute", "oddmax.formula", ("substitute",)),
    ("sat.sat_dpll", "oddmax.sat", ("sat_dpll",)),
    ("sat.sat_bruteforce", "oddmax.sat", ("sat_bruteforce",)),
    ("sat.lexmax", "oddmax.sat", ("lexmax",)),
    ("oracle.sat_join_cosat", "oddmax.oracle", ("sat_join_cosat",)),
    ("oracle.sample_subset_pair", "oddmax.oracle", ("sample_subset_pair",)),
    ("oracle.enumerate_subset_pairs", "oddmax.oracle", ("enumerate_subset_pairs",)),
    ("machine.run_machine", "oddmax.machine", ("run_machine",)),
    ("machine.build_query_tree", "oddmax.machine", ("build_query_tree",)),
    ("machine.tree_verdict", "oddmax.machine", ("tree_verdict",)),
    ("positivity.check", "oddmax.positivity",
     ("check_positivity_exhaustive", "check_positivity_sampled")),
    ("corpus.curated_corpus", "oddmax.corpus", ("curated_corpus",)),
    ("cli.main", "oddmax.cli", ("main",)),
)


class Tracer:
    """Spans and counters, grouped into named phases of the run."""

    def __init__(self) -> None:
        self.names: list[str] = [layer[0] for layer in LAYERS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.phases: list[tuple[str, int]] = []
        self.counters: dict[str, Counter] = {}
        self.bodies: dict[str, set[str]] = {}
        self._patched: list[tuple[Any, str, Any]] = []
        self.origin = time.perf_counter()

    # --- recording ---------------------------------------------------------

    def phase(self, name: str) -> None:
        """Spans and counts from here on belong to phase `name`."""
        self.phases.append((name, len(self.start)))
        self.counters.setdefault(name, Counter())
        self.bodies.setdefault(name, set())

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[self.phases[-1][0]][key] += amount

    def enter(self, name_id: int) -> int:
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.current = index
        self.start.append(time.perf_counter())
        return index

    def leave(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.current = self.parent[index]

    # --- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._ids[name]
        enter, leave = self.enter, self.leave
        observe = _OBSERVERS.get(name)

        if name == "oracle.enumerate_subset_pairs":
            # A generator: each step is a span, so the consumer's work
            # between steps is not charged to it.
            def wrapper(*args, **kwargs):
                steps = fn(*args, **kwargs)

                def traced():
                    while True:
                        index = enter(name_id)
                        try:
                            pair = next(steps)
                        except StopIteration:
                            return
                        finally:
                            leave(index)
                        self.count("oracle.enumerate_subset_pairs.pairs")
                        yield pair

                return traced()
        else:
            branches = "sat.sat_dpll.branches" if name == "sat.sat_dpll" else None

            def wrapper(*args, **kwargs):
                # A layer that recurses through its module global (serialize,
                # sat_dpll) stays one span; sat_dpll's inner calls are its
                # search branches.
                if self.current >= 0 and self.name_of[self.current] == name_id:
                    if branches:
                        self.count(branches)
                    return fn(*args, **kwargs)
                index = enter(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(index)
                if observe is not None:
                    observe(self, args, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every binding of every layer function in loaded oddmax modules."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "oddmax" or key.startswith("oddmax."))]
        for name, home, functions in LAYERS:
            for function in functions:
                original = getattr(sys.modules[home], function)
                wrapper = self._wrap(name, original)
                for module in modules:
                    if module.__dict__.get(function) is original:
                        self._patched.append((module, function, original))
                        setattr(module, function, wrapper)

    def restore(self) -> None:
        """Put back every original function that install replaced."""
        while self._patched:
            module, function, original = self._patched.pop()
            setattr(module, function, original)

    # --- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per phase and layer: span count and self time in seconds."""
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            parent = self.parent[i]
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        bounds = [first for _, first in self.phases[1:]] + [len(self.start)]
        totals: dict[str, dict[str, dict[str, float]]] = {}
        for (phase, first), last in zip(self.phases, bounds):
            layers = totals.setdefault(phase, {})
            for i in range(first, last):
                entry = layers.setdefault(self.names[self.name_of[i]], {"calls": 0, "self_s": 0.0})
                entry["calls"] += 1
                entry["self_s"] += self.end[i] - self.start[i] - child[i]
        return totals

    def write_spans(self, path: Path) -> None:
        """Spans as gzip TSV: id, name, phase, start and end (seconds from
        the tracer's creation), parent id (-1 for a root)."""
        bounds = [first for _, first in self.phases[1:]] + [len(self.start)]
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tphase\tstart_s\tend_s\tparent\n")
            for (phase, first), last in zip(self.phases, bounds):
                for i in range(first, last):
                    out.write(
                        f"{i}\t{self.names[self.name_of[i]]}\t{phase}\t"
                        f"{self.start[i] - self.origin:.7f}\t{self.end[i] - self.origin:.7f}\t"
                        f"{self.parent[i]}\n"
                    )


def _observe_join(tracer: Tracer, args, result) -> None:
    tracer.bodies[tracer.phases[-1][0]].add(args[0].body)


def _observe_run(tracer: Tracer, args, result) -> None:
    tracer.count("machine.run_machine.iterations", len(result.iterations))


def _observe_check(tracer: Tracer, args, result) -> None:
    tracer.count("positivity.pairs_checked", result.pairs_checked)


_OBSERVERS: dict[str, Callable[[Tracer, tuple, Any], None]] = {
    "oracle.sat_join_cosat": _observe_join,
    "machine.run_machine": _observe_run,
    "positivity.check": _observe_check,
}
