"""Executable monotonicity checking for the machine: growing the oracle must
never turn an accepted input into a rejected one.

The check quantifies over subsets of the reachable query universe rather
than over all strings; a run's verdict only ever consults queries from that
universe, so the restriction loses nothing (the test suite pins this down).
Both checks start from one compile (`_compile`) of one expansion of the
runs (`expand_runs`), whose builder gathers each asked body and keeps it in
its node; the bodies are sorted once, body r owning bits 2r and 2r+1 (its two wires'
places in sorted order), and one walk relabels the expanded nodes into the
one node layout over those bits. Small universes are swept exhaustively
over all 3^|U| nested mask pairs of `enumerate_subset_pairs`, against one
table of 2^|U| verdicts filled by walking the compiled tree with
`tree_verdict` once per mask; larger ones are sampled, every pair from one
`subset_mask_draws` stream, each mask selecting its run with two integer
ANDs per level, the root's from locals and the rest walked inline in the
draw loop, which takes the stream's (T, R) pairs as they come and counts
them: S's run on every pair, T's run only when S's run accepts, since a
pair whose S is rejected cannot violate. Neither check builds the query
tree. Both return through one report builder (`_report`), the only place
that builds Queries, frozensets and finite oracles: it replays a violating
mask pair by two run_machine calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Union

from .formula import Formula, serialize
from .machine import (
    MachineProgram,
    STANDARD_PROGRAM,
    expand_runs,
    run_machine,
    tree_verdict,
)
from .oracle import (
    TAGS,
    FiniteOracle,
    Query,
    enumerate_subset_pairs,
    mask_subset,
    subset_mask_draws,
    subset_pair_rank,
)

#: Default number of pairs drawn in sampled mode.
DEFAULT_SAMPLES = 10_000


@dataclass(frozen=True)
class Counterexample:
    """A monotonicity violation: the smaller oracle accepts, the larger rejects.

    Re-checkable by two run_machine calls with the two finite oracles.
    """

    small: FiniteOracle
    large: FiniteOracle
    small_verdict: bool
    large_verdict: bool


@dataclass(frozen=True)
class PositivityReport:
    formula: str
    mode: str  # "exhaustive" | "sampled"
    universe_size: int
    pairs_checked: int
    seed: int | None
    violation: Counterexample | None

    @property
    def ok(self) -> bool:
        return self.violation is None

    def to_json(self) -> dict:
        if self.violation is None:
            result: object = "ok"
        else:
            result = {
                "S": sorted(q.wire() for q in self.violation.small.members),
                "T": sorted(q.wire() for q in self.violation.large.members),
            }
        return {
            "formula": self.formula,
            "mode": self.mode,
            "universeSize": self.universe_size,
            "pairsChecked": self.pairs_checked,
            "seed": self.seed,
            "result": result,
        }


def _report(
    text: str, wires: list[str], program: MachineProgram, mode: str, checked: int,
    seed: int | None, pair: tuple[int, int] | None = None,
) -> PositivityReport:
    """The report of a check over the sorted `wires`. A violating mask pair
    (small, large) is replayed as two finite oracles by two run_machine calls."""
    violation = None
    if pair is not None:
        elements = tuple(map(Query.from_wire, wires))
        universe = frozenset(elements)
        small, large = (FiniteOracle(universe, mask_subset(elements, mask)) for mask in pair)
        violation = Counterexample(
            small, large, run_machine(text, small, program).verdict,
            run_machine(text, large, program).verdict,
        )
    return PositivityReport(text, mode, len(wires), checked, seed, violation)


#: A compiled run tree: the mask bits of the node's two queries, then its
#: children, (bit0, bit1, fix_true, fix_false, accept_both, reject_both) per
#: node; a leaf is its verdict.
MaskTree = Union[tuple, bool]


def _compile(formula: Formula, program: MachineProgram) -> tuple[str, list[str], MaskTree]:
    """The report text, the universe's sorted wires, and the mask tree over
    them, from one expansion of the runs. Raises ValueError past TREE_BOUND.

    The expansion gathers the asked bodies and builds each node as (body,
    *children); the bodies are sorted once, and one walk relabels each node
    with its body's bits. Body r of the sorted bodies gets bits 2r and 2r+1:
    bodies of one text differ only in what is written over its variable
    tokens (0, 1 or the variable), whose first characters differ, so no body
    is a proper prefix of another and the sorted wires are body+"0", body+"1"
    in body order."""
    text = serialize(formula)
    asked: set[str] = set()

    def body_node(i: int, text: str, body: str, children: list) -> tuple:
        asked.add(body)
        return (body, *children)

    runs = expand_runs(text, program, body_node)
    bodies = sorted(asked)
    wires = [body + tag for body in bodies for tag in TAGS]
    bits = {body: (1 << 2 * r, 2 << 2 * r) for r, body in enumerate(bodies)}

    def relabel(node: tuple) -> tuple:
        # Bool leaves are kept as they are, without a call each.
        body, fix_true, fix_false, accept_both, reject_both = node
        return (
            *bits[body],
            fix_true if type(fix_true) is bool else relabel(fix_true),
            fix_false if type(fix_false) is bool else relabel(fix_false),
            accept_both if type(accept_both) is bool else relabel(accept_both),
            reject_both if type(reject_both) is bool else relabel(reject_both),
        )

    return text, wires, runs if type(runs) is bool else relabel(runs)


def check_positivity_exhaustive(
    formula: Formula, program: MachineProgram = STANDARD_PROGRAM
) -> PositivityReport:
    """Sweep every nested oracle pair over the query universe.

    Reports the first violation found, or OK after all 3^|U| pairs. Raises
    ValueError when the formula has more than TREE_BOUND variables (no tree),
    and when the universe exceeds SUBSET_PAIR_BOUND (fall back to sampling).
    """
    text, wires, compiled = _compile(formula, program)
    k = len(wires)
    pairs = enumerate_subset_pairs(k)  # checks the bound before 2^k walks
    # One tree walk per oracle: accepts[mask] is the verdict under `mask`.
    accepts = [tree_verdict(compiled, mask.__and__) for mask in range(1 << k)]
    for small, large in pairs:
        if accepts[small] and not accepts[large]:
            rank = subset_pair_rank(k, small, large)
            return _report(text, wires, program, "exhaustive", rank + 1, None, (small, large))
    return _report(text, wires, program, "exhaustive", 3**k, None)


def check_positivity_sampled(
    formula: Formula,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    program: MachineProgram = STANDARD_PROGRAM,
) -> PositivityReport:
    """Check `samples` nested pairs drawn from the seeded sampler.

    Raises ValueError when `samples` < 1, since a check of no pairs proves
    nothing, and when the formula has more than TREE_BOUND variables.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    text, wires, compiled = _compile(formula, program)
    if type(compiled) is bool:  # no variables: every run ends on this verdict
        return _report(text, wires, program, "sampled", samples, seed)
    # The root's fields are locals, so each run's first level is two ANDs;
    # deeper levels are walked inline, with no call per run. A pair whose S
    # is rejected cannot violate, so T's run is walked only when S's accepts.
    # The pairs are counted in a local, so no pair is wrapped with its count.
    root0, root1, root_true, root_false, root_both, root_neither = compiled
    draws = subset_mask_draws(len(wires), random.Random(seed))
    checked = 0
    for large, r in islice(draws, samples):
        checked += 1
        small = large & r
        if small & root0:
            node = root_both if small & root1 else root_true
        else:
            node = root_false if small & root1 else root_neither
        while type(node) is tuple:
            bit0, bit1, fix_true, fix_false, accept_both, reject_both = node
            if small & bit0:
                node = accept_both if small & bit1 else fix_true
            else:
                node = fix_false if small & bit1 else reject_both
        if not node:
            continue
        if large & root0:
            node = root_both if large & root1 else root_true
        else:
            node = root_false if large & root1 else root_neither
        while type(node) is tuple:
            bit0, bit1, fix_true, fix_false, accept_both, reject_both = node
            if large & bit0:
                node = accept_both if large & bit1 else fix_true
            else:
                node = fix_false if large & bit1 else reject_both
        if not node:
            return _report(text, wires, program, "sampled", checked, seed, (small, large))
    return _report(text, wires, program, "sampled", samples, seed)
