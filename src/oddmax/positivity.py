"""Executable monotonicity checking for the machine: growing the oracle must
never turn an accepted input into a rejected one.

The check quantifies over subsets of the reachable query universe rather
than over all strings; a run's verdict only ever consults queries from that
universe, so the restriction loses nothing (the test suite pins this down).
Both checks start from one compile (`_compile`): it expands the runs once
into the wire tree (`expand_runs` with `wire_node`), sorts the wires, and
compiles the wire tree into the same node layout over masks (`_mask_tree`),
bit i standing for the i-th sorted wire. Small universes are swept
exhaustively over all 3^|U| nested mask pairs of `enumerate_subset_pairs`,
against one table of 2^|U| verdicts filled by walking the compiled tree with
`tree_verdict` once per mask; larger ones are sampled, every pair from one
`subset_mask_draws` stream, each mask selecting its run with two integer
ANDs per level (`_mask_verdict`). Neither check builds the query tree.
Queries, frozensets and finite oracles are built only to replay a violation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Mapping, Union

from .formula import Formula, serialize
from .machine import (
    MachineProgram,
    STANDARD_PROGRAM,
    WireTree,
    expand_runs,
    run_machine,
    tree_queries,
    tree_verdict,
    wire_node,
)
from .oracle import (
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


def _replayed_counterexample(
    text: str, wires: list[str], small: int, large: int, program: MachineProgram
) -> Counterexample:
    """Replay the mask pair (small, large) over the sorted `wires` as two
    finite oracles."""
    elements = tuple(map(Query.from_wire, wires))
    universe = frozenset(elements)
    small_oracle = FiniteOracle(universe, mask_subset(elements, small))
    large_oracle = FiniteOracle(universe, mask_subset(elements, large))
    small_verdict = run_machine(text, small_oracle, program).verdict
    large_verdict = run_machine(text, large_oracle, program).verdict
    return Counterexample(small_oracle, large_oracle, small_verdict, large_verdict)


#: A compiled run tree: a WireTree with each wire string replaced by its
#: mask bit, (bit0, bit1, fix_true, fix_false, accept_both, reject_both) per
#: node; a leaf is its verdict.
MaskTree = Union[tuple, bool]


def _mask_tree(tree: WireTree, bit: Mapping[str, int]) -> MaskTree:
    """Compile the tree for `_mask_verdict`; `bit` maps each wire to its mask bit."""
    if type(tree) is not tuple:
        return tree
    wire0, wire1, *children = tree
    return (bit[wire0], bit[wire1], *[_mask_tree(child, bit) for child in children])


def _compile(formula: Formula, program: MachineProgram) -> tuple[str, list[str], MaskTree]:
    """The report text, the universe's sorted wires, and the mask tree over
    them, from one expansion of the runs. Raises ValueError past TREE_BOUND."""
    text = serialize(formula)
    tree = expand_runs(text, program, wire_node)
    wires = sorted(tree_queries(tree))
    return text, wires, _mask_tree(tree, {wire: 1 << i for i, wire in enumerate(wires)})


def _mask_verdict(node: MaskTree, mask: int) -> bool:
    """`tree_verdict` of the compiled tree under the oracle whose members are `mask`."""
    while type(node) is tuple:
        bit0, bit1, fix_true, fix_false, accept_both, reject_both = node
        if mask & bit0:
            node = accept_both if mask & bit1 else fix_true
        else:
            node = fix_false if mask & bit1 else reject_both
    return node


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
            return PositivityReport(
                formula=text,
                mode="exhaustive",
                universe_size=k,
                pairs_checked=subset_pair_rank(k, small, large) + 1,
                seed=None,
                violation=_replayed_counterexample(text, wires, small, large, program),
            )
    return PositivityReport(text, "exhaustive", k, 3**k, None, None)


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
    draws = islice(subset_mask_draws(len(wires), random.Random(seed)), samples)
    for checked, (large, r) in enumerate(draws, 1):
        small = large & r
        if _mask_verdict(compiled, small) and not _mask_verdict(compiled, large):
            return PositivityReport(
                formula=text,
                mode="sampled",
                universe_size=len(wires),
                pairs_checked=checked,
                seed=seed,
                violation=_replayed_counterexample(text, wires, small, large, program),
            )
    return PositivityReport(text, "sampled", len(wires), samples, seed, None)
