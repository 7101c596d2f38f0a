"""Shared fixtures and independent test-side oracles.

The helpers here recompute expected values by direct enumeration so the
tests never trust the code paths they are checking.
"""

from __future__ import annotations

import random
import re
from itertools import product
from typing import Callable, Collection, Union

import pytest
from hypothesis import strategies as st

from oddmax.corpus import curated_corpus
from oddmax.formula import (
    FALSE,
    TRUE,
    And,
    Assignment,
    Formula,
    Not,
    Or,
    Var,
    evaluate,
    num_vars,
    parse,
    serialize,
    substitute,
)
from oddmax.machine import IterationCase, MachineProgram, STANDARD_PROGRAM
from oddmax.oracle import Query
from oddmax.sat import _assign, sat_bruteforce, sat_dpll

#: Longest text `any_text` draws. Text this short nests at most this deep,
#: well inside the interpreter's recursion limit; the parser takes any depth,
#: but deeper input still overflows the recursive AST walkers, which the
#: round-trip properties call through `serialize` (ROADMAP item 3).
SHALLOW_TEXT = 150

#: Input strings of at most SHALLOW_TEXT characters, weighted toward the
#: grammar's own characters and toward repeated nesting.
any_text = st.one_of(
    st.text(max_size=SHALLOW_TEXT),
    st.text(alphabet="x0123456789()!&|", max_size=SHALLOW_TEXT),
    st.builds(
        lambda unit, count, tail: unit * count + tail,
        st.sampled_from(["!", "(", "x1|", "x1&", "!("]),
        st.integers(0, 40),
        st.text(alphabet="x019()!&|", max_size=20),
    ),
)


_REFERENCE_TOKEN = re.compile(r"x[0-9]*|[\s\S]")


def reference_tokens(text: str) -> list[str]:
    """Independent tokenizer, one regex match per token: "x" with its ASCII
    digits (a bare "x" included), or any other single character."""
    return _REFERENCE_TOKEN.findall(text)


#: Every rule table: the 64 programs over MachineProgram's six Boolean fields.
FAMILY = [MachineProgram(*bits) for bits in product((False, True), repeat=6)]


#: Gapped indices (sibling bodies coincide, so the universe must dedupe),
#: prefix collisions between x1 and x10, repeated tokens and constants.
TRICKY_TREE_TEXTS = [
    "(x1&x3)", "(x1|x10)", "((x2|x10)&x1)", "x2", "((x1&x1)|!(x1|x2))",
    "(x10&(x1|1))", "!(x3|(0&x1))",
]

#: Gapped texts with at most four variables, small enough for the whole FAMILY.
SMALL_TREE_TEXTS = ["(x1&x3)", "x2", "((x1&x1)|!(x1|x2))", "!(x3|(0&x1))", "((x2|x4)&x1)"]


@pytest.fixture(scope="session")
def corpus() -> list[Formula]:
    return curated_corpus()


def all_assignments_descending(n: int):
    """Every length-n assignment, lexicographically greatest first."""
    for packed in range((1 << n) - 1, -1, -1):
        yield tuple(bool((packed >> (n - 1 - k)) & 1) for k in range(n))


def satisfying_assignments(formula: Formula) -> list[tuple[bool, ...]]:
    """Brute-force oracle: direct evaluate() sweep, greatest first."""
    n = num_vars(formula)
    return [a for a in all_assignments_descending(n) if evaluate(formula, a)]


def reference_lexmax(formula: Formula) -> tuple[bool, ...] | None:
    found = satisfying_assignments(formula)
    return found[0] if found else None


# Reference lex-max above the truth-table bound, independent of the package's
# search: n + 1 sat_dpll calls, pinning each variable true when a satisfying
# extension remains, else false.
def lexmax_greedy(formula: Formula) -> Assignment | None:
    if not sat_dpll(formula):
        return None
    n = num_vars(formula)
    bits: list[bool] = []
    current = formula
    for i in range(1, n + 1):
        pinned_true = _assign(current, i, TRUE)
        if sat_dpll(pinned_true):
            current = pinned_true
            bits.append(True)
        else:
            current = _assign(current, i, FALSE)
            bits.append(False)
    return tuple(bits)


def threshold_cnf(seed: int, n: int) -> Formula:
    """Seeded random 3-CNF at the satisfiability threshold: int(4.26*n)
    clauses of three distinct variables with random signs, conjoined with
    (xn|!xn) so it spans exactly n variables. About half are satisfiable,
    and the lex-max witness of a satisfiable one is rarely all-true."""
    rng = random.Random(seed)
    formula: Formula = Or(Var(n), Not(Var(n)))
    for _ in range(int(4.26 * n)):
        picks = rng.sample(range(1, n + 1), 3)
        a, b, c = (Var(i) if rng.randrange(2) else Not(Var(i)) for i in picks)
        formula = And(Or(Or(a, b), c), formula)
    return formula


def reachable_query_wires(
    formula: Formula, program: MachineProgram = STANDARD_PROGRAM
) -> set[str]:
    """Independent query-universe oracle: plain frontier expansion over the
    values the program pins on FIX_TRUE and FIX_FALSE, deduplicated by wire
    string."""
    n = num_vars(formula)
    values = {program.step(case)[0] for case in (IterationCase.FIX_TRUE, IterationCase.FIX_FALSE)}
    wires: set[str] = set()
    frontier: list[tuple[Formula, int]] = [(formula, 1)]
    while frontier:
        current, i = frontier.pop()
        if i > n:
            continue
        body = serialize(substitute(current, i, True))
        wires.add(body + "0")
        wires.add(body + "1")
        if i < n:
            frontier.extend((substitute(current, i, value), i + 1) for value in values)
    return wires


def tree_queries(tree) -> frozenset:
    """Every query appearing anywhere in a tree of the machine's one node
    layout: slots 0 and 1 of every node, the four children after them."""
    queries = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            queries.update(node[:2])
            stack.extend(node[2:6])
    return frozenset(queries)


SetPredicate = Union[Callable[[str], bool], Collection[str]]


def join_membership(query: Query, left: SetPredicate, right: SetPredicate) -> bool:
    """Membership in the join of two sets: tag '0' asks left, tag '1' right."""
    side = left if query.tag == "0" else right
    if callable(side):
        return bool(side(query.body))
    return query.body in side


def reference_join(query: Query) -> bool:
    """Independent sat/unsat join: `join_membership` over the truth-table
    SAT set (tag '0') and its complement among formulas (tag '1')."""

    def sat(body: str) -> bool:
        return sat_bruteforce(parse(body))

    return join_membership(query, sat, lambda body: not sat(body))
