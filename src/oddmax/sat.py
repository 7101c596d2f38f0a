"""Desk-scale SAT decision and lexicographically maximum satisfying assignments.

One lex-max search, ``_top_model``, serves every n, with no variable limit,
for sat_bruteforce, lexmax and odd_max_sat_ref. It runs over the m variables
that occur, in index order, found by one recursive walk (``_names``): a
variable that does not occur never changes satisfiability, so the lex-max
model sets it true. Up to BLOCK_VARS of them it sweeps one 2^m-bit truth
table, and above that it pins the first m-16 depth-first with constant
folding and sweeps one table of the last BLOCK_VARS at each leaf. This is
the renaming text_satisfiable's fold makes, kept in index order. The tests
check the search by :func:`sat_dpll`, which nothing here calls: a splitting
search that first pins the literals among the top-level conjuncts (the unit
rule), then decides a disjunction by its sides and otherwise splits on its
leftmost variable.

The join oracle asks :func:`text_satisfiable`, which decides formula text
without building an AST: it splits the text once at its variable tokens,
takes its variable names from the split's odd pieces that are in formula's
token table (those parse accepts) and builds the parse loop's tokens from
the same split. Up to BRUTEFORCE_BOUND distinct variables it folds
truth-table columns in the parse loop itself, and above that it parses and
calls :func:`sat_bruteforce`.

The sweep and the fold take their variable columns from one cache, one
column set per width (``_columns``), built by one recurrence on the width.
The sweep walks the left operand of "&" and "|" first and skips the right
one when the left absorbs it (0 for "&", all-ones for "|").
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from functools import lru_cache
from operator import and_, or_

from .formula import (
    FALSE,
    TRUE,
    And,
    Assignment,
    Const,
    Formula,
    Not,
    Or,
    Var,
    _INDEX,
    _VARIABLE,
    _fold,
    _tokens,
    parse,
)

#: Most distinct variables text_satisfiable folds into one 2^m-bit table.
BRUTEFORCE_BOUND = 20
#: Occurring variables in one table of the lex-max search: all of them up to
#: 16, and the last 16 at each leaf above that (2^16-bit, 8 KiB tables).
BLOCK_VARS = 16


def sat_bruteforce(formula: Formula) -> bool:
    """Satisfiability by the lex-max search over the m variables that occur,
    with no variable limit: one bit-parallel truth table (one bit per
    assignment) up to BLOCK_VARS of them, and above that one 2^16-bit table
    per leaf of the pinning search, ending at the first model.
    """
    return _top_model(formula, _names(formula)) is not None


def _names(formula: Formula) -> list[int]:
    # The sorted indices of the variables that occur in `formula`.
    found: set[int] = set()
    _collect(formula, found.add)
    return sorted(found)


def _collect(formula: Formula, add: Callable[[int], object]) -> None:
    # Calls `add` on the index of every variable leaf, left to right.
    kind = type(formula)
    if kind is Var:
        add(formula.index)
    elif kind is Not:
        _collect(formula.child, add)
    elif kind is not Const:
        _collect(formula.left, add)
        _collect(formula.right, add)


def _top_model(formula: Formula, names: list[int]) -> int | None:
    # Index of the lexicographically greatest model over the m occurring
    # variables `names` (names[0] is bit m-1), or None if UNSAT; a variable
    # that does not occur is true in every such model. Up to BLOCK_VARS it
    # is one table's highest set bit. Above, constants are folded and
    # names[:m-16] pinned depth-first, true first: FALSE prunes, TRUE ends
    # with ones, a variable that _assign leaves unchanged takes only true,
    # and each leaf sweeps the last 16 names; first model wins.
    m = len(names)
    if m <= BLOCK_VARS:
        full, columns = _columns(m)
        table = _table(formula, dict(zip(names, columns[1:])), full)
        return table.bit_length() - 1 if table else None
    pinned = m - BLOCK_VARS
    full, columns = _columns(BLOCK_VARS)
    # names[:pinned] are assigned away before a leaf, so it holds no others.
    leaf = dict(zip(names[pinned:], columns[1:]))
    stack = [(_assign(formula, 0, TRUE), 0, 0)]
    while stack:
        formula, depth, prefix = stack.pop()
        if depth < 0:  # a false branch, assigned only when reached
            depth = -depth
            formula = _assign(formula, names[depth - 1], FALSE)
        if type(formula) is Const:
            if formula.value:
                return (prefix + 1 << m - depth) - 1
            continue
        if depth == pinned:
            table = _table(formula, leaf, full)
            if table:
                return (prefix << BLOCK_VARS) + table.bit_length() - 1
            continue
        true = _assign(formula, names[depth], TRUE)
        depth += 1
        if true is not formula:
            stack.append((formula, -depth, prefix << 1))
        stack.append((true, depth, prefix << 1 | 1))
    return None


def _table(formula: Formula, columns: Mapping[int, int], full: int) -> int:
    # columns[i] is the column of x_i; `full` is the all-ones mask over them.
    # The left operand goes first: a 0 absorbs "&" and `full` absorbs "|",
    # so the right operand is then never walked.
    kind = type(formula)
    if kind is Var:
        return columns[formula.index]
    if kind is Const:
        return full if formula.value else 0
    if kind is Not:
        return full ^ _table(formula.child, columns, full)
    left = _table(formula.left, columns, full)
    if kind is And:
        return left & _table(formula.right, columns, full) if left else 0
    return left | _table(formula.right, columns, full) if left != full else full


def text_satisfiable(text: str) -> bool:
    """Satisfiability of formula text; raises ParseError exactly as parse does.

    With m <= BRUTEFORCE_BOUND distinct variables the text is folded once
    into its 2^m-bit truth table over those variables (an order-free
    renaming, so satisfiability is unchanged), with no AST and no
    recursion. The text is split once at its variable tokens: the names are
    the split's odd pieces in formula's token table (a token such as x0 or
    x101 is no name, and the fold raises parse's error where it stands),
    and the fold reads the tokens built from that split, takes the m cached
    columns as its leaves and combines them with operator's C-level `and_`
    and `or_`. Above the bound the text is parsed and decided by
    sat_bruteforce.
    """
    pieces = _VARIABLE.split(text)
    names = _INDEX.keys() & pieces[1::2]
    m = len(names)
    if m > BRUTEFORCE_BOUND:
        return sat_bruteforce(parse(text))
    full, columns = _columns(m)
    leaves = dict(zip(names, columns[1:]))
    leaves["0"] = 0
    leaves["1"] = full
    return _fold(text, _tokens(pieces), leaves, full.__xor__, and_, or_) != 0


@lru_cache(maxsize=None)
def _columns(m: int) -> tuple[int, tuple[int, ...]]:
    # The all-ones mask over 2^m assignments and, at index i, the column of
    # the i-th of m variables, x_1 first (slot 0 unused): the package's one
    # column cache, which the lex-max search and the join's fold share.
    # Bit a of x_i's column is bit m - i of a. The columns grow one width at
    # a time, and only width m is cached: at width w + 1, x_1's column is
    # the upper half and x_i's is x_(i-1)'s column at width w, repeated.
    columns: tuple[int, ...] = ()
    for w in range(m):
        half = 1 << w  # the assignments at width w
        columns = (((1 << half) - 1) << half, *(column | column << half for column in columns))
    return (1 << (1 << m)) - 1, (0, *columns)


def _assign(formula: Formula, index: int, value: Const) -> Formula:
    """Put `value` for x_index and fold constants in one walk (Const if forced).

    Subtrees with neither x_index nor a constant come back as the same
    objects. Index 0 matches no variable: _assign(formula, 0, value) only folds.
    """
    kind = type(formula)
    if kind is Var:
        return value if formula.index == index else formula
    if kind is Const:
        return formula
    if kind is Not:
        child = _assign(formula.child, index, value)
        if type(child) is Const:
            return FALSE if child.value else TRUE
        return formula if child is formula.child else Not(child)
    left = _assign(formula.left, index, value)
    right = _assign(formula.right, index, value)
    is_or = kind is Or  # True absorbs an Or, False an And
    if type(left) is Const:
        return left if left.value == is_or else right
    if type(right) is Const:
        return right if right.value == is_or else left
    if left is formula.left and right is formula.right:
        return formula
    return kind(left, right)


def sat_dpll(formula: Formula) -> bool:
    """Satisfiability by the unit rule, then a disjunction by its sides, then
    splitting on the leftmost variable.

    Works directly on the AST. While the formula is an And, a literal that
    is a conjunct of its top-level "&" spine is forced: _assign makes it
    true and folds constants (the unit rule of Davis, Logemann and Loveland,
    CACM 1962). An Or is satisfiable exactly when one of its sides is, and
    is decided side by side, left first. Otherwise the search splits on the
    variable reached by following the left operand down from the root, the
    true branch before the false one. No variable-count bound.
    """
    while type(formula) is And:
        forced = _spine_literal(formula)
        if forced is None:
            break
        formula = _assign(formula, *forced)
    if type(formula) is Or:
        return sat_dpll(formula.left) or sat_dpll(formula.right)
    leaf = formula
    while type(leaf) is not Var:
        if type(leaf) is Const:
            # Only the caller's formula can hold a constant: _assign folds
            # every one away, so the folded formula's path ends at a Var.
            formula = _assign(formula, 0, TRUE)
            return formula.value if type(formula) is Const else sat_dpll(formula)
        leaf = leaf.child if type(leaf) is Not else leaf.left
    index = leaf.index
    return sat_dpll(_assign(formula, index, TRUE)) or sat_dpll(_assign(formula, index, FALSE))


def _spine_literal(formula: Formula) -> tuple[int, Const] | None:
    # The leftmost literal among the conjuncts of the "&" spine, as the pin
    # (index, value) that makes it true; None if no conjunct is a literal.
    # It recurses no deeper than the _assign that sat_dpll calls next.
    kind = type(formula)
    if kind is And:
        return _spine_literal(formula.left) or _spine_literal(formula.right)
    if kind is Var:
        return formula.index, TRUE
    if kind is Not and type(formula.child) is Var:
        return formula.child.index, FALSE
    return None


def lexmax(formula: Formula) -> Assignment | None:
    """Lexicographically greatest satisfying assignment, or None if UNSAT.

    x_1 is the most significant coordinate. The lex-max search gives the
    model index over the variables that occur, in index order; every
    variable below x_n that does not occur is true in the witness.
    """
    names = _names(formula)
    top = _top_model(formula, names)
    if top is None:
        return None
    m = len(names)
    witness = [True] * (names[-1] if names else 0)
    for k, index in enumerate(names, 1):
        witness[index - 1] = top >> m - k & 1 == 1
    return tuple(witness)


def odd_max_sat_ref(formula: Formula) -> bool:
    """Reference decider: satisfiable with x_n true in the lex-max witness.

    An assignment read as the binary numeral x_1..x_n is odd exactly when
    x_n is true. x_n is the last variable that occurs, so it is bit 0 of
    the lex-max search's index. Rejects unsatisfiable formulas, and, as the
    machine does, a formula without variables, which has no x_n to be true;
    so decide_oddmaxsat(f) == odd_max_sat_ref(f) for every formula f. That
    holds for every AST, not only parsed ones: the leaf constructors admit
    only leaves parse accepts, so the machine reads f's serialization back.
    """
    top = _top_model(formula, _names(formula))
    return top is not None and top & 1 == 1
