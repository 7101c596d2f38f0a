"""Boolean formula ASTs: parsing, canonical serialization, substitution, evaluation.

The grammar is deliberately tiny (variables, negation, conjunction,
disjunction, constants) and the canonical form is fully parenthesized and
whitespace-free, so serialization is injective and round-trips through the
parser unchanged.

Grammar accepted by :func:`parse`::

    formula := or ; or := and { "|" and } ; and := lit { "&" lit }
    lit     := "!" lit | "(" formula ")" | var | "0" | "1"
    var     := "x" nonzero-digit { digit }

Unparenthesized operator chains associate to the left. Digits are ASCII,
and variable indices stop at ``MAX_VAR_INDEX``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence, Union

Formula = Union["Var", "Not", "And", "Or", "Const"]

#: Largest variable index parse accepts. A formula on x_1..x_n makes the
#: machine loop n times, so the index bounds the length of a run.
MAX_VAR_INDEX = 100

#: Truth values for x_1..x_n, position 0 holding x_1 (the most significant
#: coordinate in the lexicographic order).
Assignment = tuple[bool, ...]


@dataclass(frozen=True)
class Var:
    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"variable index must be >= 1, got {self.index}")


@dataclass(frozen=True)
class Not:
    child: Formula


@dataclass(frozen=True)
class And:
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or:
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Const:
    value: bool


class ParseError(ValueError):
    """Raised on malformed formula text; carries the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


def parse(text: str) -> Formula:
    """Parse `text` into a Formula, or raise ParseError.

    The grammar is strict: no whitespace, no trailing characters. Variable
    indices above MAX_VAR_INDEX are rejected like malformed text.
    """
    ast, pos = _parse_or(text, 0)
    if pos != len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    return ast


def _parse_or(text: str, pos: int) -> tuple[Formula, int]:
    node, pos = _parse_and(text, pos)
    while pos < len(text) and text[pos] == "|":
        right, pos = _parse_and(text, pos + 1)
        node = Or(node, right)
    return node, pos


def _parse_and(text: str, pos: int) -> tuple[Formula, int]:
    node, pos = _parse_lit(text, pos)
    while pos < len(text) and text[pos] == "&":
        right, pos = _parse_lit(text, pos + 1)
        node = And(node, right)
    return node, pos


def _parse_lit(text: str, pos: int) -> tuple[Formula, int]:
    if pos >= len(text):
        raise ParseError("unexpected end of input", pos)
    ch = text[pos]
    if ch == "!":
        child, pos = _parse_lit(text, pos + 1)
        return Not(child), pos
    if ch == "(":
        node, pos = _parse_or(text, pos + 1)
        if pos >= len(text) or text[pos] != ")":
            raise ParseError("expected ')'", pos)
        return node, pos + 1
    if ch == "0":
        return Const(False), pos + 1
    if ch == "1":
        return Const(True), pos + 1
    if ch == "x":
        return _parse_var(text, pos)
    raise ParseError(f"unexpected character {ch!r}", pos)


_DIGITS = frozenset("0123456789")
_INDEX_WIDTH = len(str(MAX_VAR_INDEX))


def _parse_var(text: str, pos: int) -> tuple[Formula, int]:
    start = pos + 1
    if start >= len(text) or text[start] not in _DIGITS:
        raise ParseError("expected variable index after 'x'", start)
    if text[start] == "0":
        raise ParseError("variable index must be >= 1", start)
    end = start
    while end < len(text) and text[end] in _DIGITS:
        end += 1
    # Compare lengths first: int() of a huge digit string is slow or refused.
    index = int(text[start:end]) if end - start <= _INDEX_WIDTH else MAX_VAR_INDEX + 1
    if index > MAX_VAR_INDEX:
        raise ParseError(f"variable index exceeds {MAX_VAR_INDEX}", start)
    return Var(index), end


def serialize(formula: Formula) -> str:
    """Canonical form: fully parenthesized binary nodes, no whitespace.

    Injective on ASTs; parse(serialize(f)) == f.
    """
    if isinstance(formula, Var):
        return f"x{formula.index}"
    if isinstance(formula, Const):
        return "1" if formula.value else "0"
    if isinstance(formula, Not):
        return "!" + serialize(formula.child)
    if isinstance(formula, And):
        return f"({serialize(formula.left)}&{serialize(formula.right)})"
    if isinstance(formula, Or):
        return f"({serialize(formula.left)}|{serialize(formula.right)})"
    raise TypeError(f"not a formula node: {formula!r}")


def num_vars(formula: Formula) -> int:
    """Largest variable index occurring in the formula (0 if none).

    Unused indices below the maximum count as free variables, so a formula
    mentioning only x1 and x3 is treated as a formula on three variables.
    """
    if isinstance(formula, Var):
        return formula.index
    if isinstance(formula, Const):
        return 0
    if isinstance(formula, Not):
        return num_vars(formula.child)
    return max(num_vars(formula.left), num_vars(formula.right))


def substitute(formula: Formula, index: int, value: bool) -> Formula:
    """Replace every occurrence of x_index by the constant `value`.

    Purely structural: no constant folding, so substitution instances made
    at different loop depths stay distinct as strings. Substituting an
    absent variable returns the formula unchanged.
    """
    if index < 1:
        raise ValueError(f"variable index must be >= 1, got {index}")
    return _substitute(formula, index, Const(value))


def _substitute(formula: Formula, index: int, replacement: Const) -> Formula:
    if isinstance(formula, Var):
        return replacement if formula.index == index else formula
    if isinstance(formula, Const):
        return formula
    if isinstance(formula, Not):
        child = _substitute(formula.child, index, replacement)
        return formula if child is formula.child else Not(child)
    left = _substitute(formula.left, index, replacement)
    right = _substitute(formula.right, index, replacement)
    if left is formula.left and right is formula.right:
        return formula
    return And(left, right) if isinstance(formula, And) else Or(left, right)


def evaluate(formula: Formula, assignment: Sequence[bool]) -> bool:
    """Standard Boolean semantics; assignment[i-1] is the value of x_i."""
    if len(assignment) < num_vars(formula):
        raise ValueError(
            f"assignment of length {len(assignment)} is shorter than "
            f"num_vars = {num_vars(formula)}"
        )
    return _evaluate(formula, assignment)


def _evaluate(formula: Formula, assignment: Sequence[bool]) -> bool:
    if isinstance(formula, Var):
        return bool(assignment[formula.index - 1])
    if isinstance(formula, Const):
        return formula.value
    if isinstance(formula, Not):
        return not _evaluate(formula.child, assignment)
    if isinstance(formula, And):
        return _evaluate(formula.left, assignment) and _evaluate(formula.right, assignment)
    return _evaluate(formula.left, assignment) or _evaluate(formula.right, assignment)


def assignment_bits(assignment: Sequence[bool]) -> str:
    """Render an assignment as the bit string x_1..x_n."""
    return "".join("1" if b else "0" for b in assignment)


def random_formula(seed: int, n: int, size: int) -> Formula:
    """Deterministic random AST with variable indices <= n and <= size nodes.

    Bounded so that parse accepts every result: n <= MAX_VAR_INDEX.
    """
    if not 1 <= n <= MAX_VAR_INDEX:
        raise ValueError(f"n must be between 1 and {MAX_VAR_INDEX}, got {n}")
    if size < 1:
        raise ValueError("size must be >= 1")
    rng = random.Random(seed)
    return _random_node(rng, n, size)


def _random_node(rng: random.Random, n: int, budget: int) -> Formula:
    if budget >= 3:
        kind = rng.randrange(10)
        if kind < 3:
            left_budget = rng.randint(1, budget - 2)
            left = _random_node(rng, n, left_budget)
            right = _random_node(rng, n, budget - 1 - left_budget)
            return And(left, right)
        if kind < 6:
            left_budget = rng.randint(1, budget - 2)
            left = _random_node(rng, n, left_budget)
            right = _random_node(rng, n, budget - 1 - left_budget)
            return Or(left, right)
        if kind < 8:
            return Not(_random_node(rng, n, budget - 1))
    elif budget == 2 and rng.randrange(2) == 0:
        return Not(_random_node(rng, n, 1))
    if rng.randrange(8) == 0:
        return Const(rng.randrange(2) == 0)
    return Var(rng.randint(1, n))
