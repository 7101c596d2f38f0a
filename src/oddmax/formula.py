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

:func:`parse` is one loop over regex tokens (a variable with its digits, or
one character). It keeps the open "|" and "&" chains and the pending "!"s of
each open parenthesis on an explicit stack, so nesting depth costs no
recursion, and computes a token's offset only for a ParseError. The loop
(``_fold``) takes its algebra as arguments: parse folds the tokens into AST
nodes, and :func:`oddmax.sat.text_satisfiable` folds the same tokens into
bit-parallel truth-table columns, so both share one grammar and one set of
error messages and positions. The leaves
``Var(1)`` .. ``Var(MAX_VAR_INDEX)``, ``TRUE`` and ``FALSE`` are built once
at import: parse, substitute and the SAT layer's constant folding return
these shared objects instead of building new ones. The AST walkers dispatch
on ``type(node) is C``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, TypeVar, Union

Formula = Union["Var", "Not", "And", "Or", "Const"]

#: Largest variable index parse accepts. A formula on x_1..x_n makes the
#: machine loop n times, so the index bounds the length of a run.
MAX_VAR_INDEX = 100

#: Truth values for x_1..x_n, position 0 holding x_1 (the most significant
#: coordinate in the lexicographic order).
Assignment = tuple[bool, ...]


@dataclass(frozen=True, slots=True)
class Var:
    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"variable index must be >= 1, got {self.index}")


@dataclass(frozen=True, slots=True)
class Not:
    child: Formula


@dataclass(frozen=True, slots=True)
class And:
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or:
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Const:
    value: bool


#: The shared constant leaves.
TRUE, FALSE = Const(True), Const(False)

#: Every leaf parse can return, keyed by its text.
_LEAVES: dict[str, Formula] = {"0": FALSE, "1": TRUE}
_LEAVES.update((f"x{i}", Var(i)) for i in range(1, MAX_VAR_INDEX + 1))


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
    return _fold(text, _TOKEN.findall(text), _LEAVES, Not, And, Or)


_T = TypeVar("_T")


def _fold(
    text: str,
    tokens: list[str],
    leaves: Mapping[str, _T],
    neg: Callable[[_T], _T],
    conj: Callable[[_T, _T], _T],
    disj: Callable[[_T, _T], _T],
) -> _T:
    """Fold the grammar over `tokens` (from `_TOKEN.findall(text)`) in one loop.

    `leaves` maps the text of every valid leaf that occurs in `tokens` to its
    value, and `neg`, `conj` and `disj` combine values as "!", "&" and "|"
    do; parse passes the AST leaves and node classes. Raises the ParseError
    parse raises, whatever the algebra.
    """
    frames: list[tuple[_T | None, _T | None, int]] = []
    or_node: _T | None = None  # the open "|" chain, left-associated
    and_node: _T | None = None  # the open "&" chain, left-associated
    nots = 0  # "!"s waiting for the next literal
    want_literal = True
    for k, token in enumerate(tokens):
        if want_literal:
            node = leaves.get(token)
            if node is not None:
                while nots:
                    node = neg(node)
                    nots -= 1
                and_node = node if and_node is None else conj(and_node, node)
                want_literal = False
            elif token == "!":
                nots += 1
            elif token == "(":
                frames.append((or_node, and_node, nots))
                or_node = and_node = None
                nots = 0
            else:
                raise _literal_error(token, _offset(tokens, k))
        elif token == "&":
            want_literal = True
        elif token == "|":
            or_node = and_node if or_node is None else disj(or_node, and_node)
            and_node = None
            want_literal = True
        elif token == ")" and frames:
            node = and_node if or_node is None else disj(or_node, and_node)
            or_node, and_node, nots = frames.pop()
            while nots:
                node = neg(node)
                nots -= 1
            and_node = node if and_node is None else conj(and_node, node)
        elif frames:
            raise ParseError("expected ')'", _offset(tokens, k))
        else:
            raise ParseError(f"unexpected character {token[0]!r}", _offset(tokens, k))
    if want_literal:
        raise ParseError("unexpected end of input", len(text))
    if frames:
        raise ParseError("expected ')'", len(text))
    return and_node if or_node is None else disj(or_node, and_node)


#: A variable with its ASCII digits, or any other single character.
_TOKEN = re.compile(r"x[0-9]*|[\s\S]")


def _offset(tokens: list[str], k: int) -> int:
    return sum(map(len, tokens[:k]))


def _literal_error(token: str, pos: int) -> ParseError:
    # `token` stands where a literal must start and is no leaf's text.
    if token == "x":
        return ParseError("expected variable index after 'x'", pos + 1)
    if token.startswith("x0"):
        return ParseError("variable index must be >= 1", pos + 1)
    if token.startswith("x"):
        return ParseError(f"variable index exceeds {MAX_VAR_INDEX}", pos + 1)
    return ParseError(f"unexpected character {token!r}", pos)


def serialize(formula: Formula) -> str:
    """Canonical form: fully parenthesized binary nodes, no whitespace.

    Injective on ASTs; parse(serialize(f)) == f.
    """
    kind = type(formula)
    if kind is Var:
        return f"x{formula.index}"
    if kind is Const:
        return "1" if formula.value else "0"
    if kind is Not:
        return "!" + serialize(formula.child)
    if kind is And:
        return f"({serialize(formula.left)}&{serialize(formula.right)})"
    if kind is Or:
        return f"({serialize(formula.left)}|{serialize(formula.right)})"
    raise TypeError(f"not a formula node: {formula!r}")


def num_vars(formula: Formula) -> int:
    """Largest variable index occurring in the formula (0 if none).

    Unused indices below the maximum count as free variables, so a formula
    mentioning only x1 and x3 is treated as a formula on three variables.
    """
    kind = type(formula)
    if kind is Var:
        return formula.index
    if kind is Const:
        return 0
    if kind is Not:
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
    return _substitute(formula, index, TRUE if value else FALSE)


def _substitute(formula: Formula, index: int, replacement: Const) -> Formula:
    kind = type(formula)
    if kind is Var:
        return replacement if formula.index == index else formula
    if kind is Const:
        return formula
    if kind is Not:
        child = _substitute(formula.child, index, replacement)
        return formula if child is formula.child else Not(child)
    left = _substitute(formula.left, index, replacement)
    right = _substitute(formula.right, index, replacement)
    if left is formula.left and right is formula.right:
        return formula
    return kind(left, right)


def evaluate(formula: Formula, assignment: Sequence[bool]) -> bool:
    """Standard Boolean semantics; assignment[i-1] is the value of x_i."""
    if len(assignment) < num_vars(formula):
        raise ValueError(
            f"assignment of length {len(assignment)} is shorter than "
            f"num_vars = {num_vars(formula)}"
        )
    return _evaluate(formula, assignment)


def _evaluate(formula: Formula, assignment: Sequence[bool]) -> bool:
    kind = type(formula)
    if kind is Var:
        return bool(assignment[formula.index - 1])
    if kind is Const:
        return formula.value
    if kind is Not:
        return not _evaluate(formula.child, assignment)
    if kind is And:
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
