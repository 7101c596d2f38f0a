"""Desk-scale SAT decision and lexicographically maximum satisfying assignments.

Two independent satisfiability routes are kept side by side on purpose:
:func:`sat_bruteforce` sweeps the full truth table, while :func:`sat_dpll`
searches by splitting. One checks the other throughout the test suite.

The join oracle asks :func:`text_satisfiable`, which decides formula text
without building an AST: up to BRUTEFORCE_BOUND distinct variables it folds
truth-table columns in the parse loop itself, and above that it parses and
runs sat_dpll.
"""

from __future__ import annotations

from functools import lru_cache

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
    _LEAVES,
    _TOKEN,
    _fold,
    num_vars,
    parse,
)

#: Largest variable count swept as a truth table (2^n assignments): the
#: limit of sat_bruteforce and the point where lexmax turns greedy.
BRUTEFORCE_BOUND = 20


def sat_bruteforce(formula: Formula) -> bool:
    """Truth-table satisfiability over all 2^n assignments.

    The sweep is bit-parallel: each subformula is evaluated simultaneously
    on every assignment, one bit per assignment column.
    """
    n = num_vars(formula)
    if n > BRUTEFORCE_BOUND:
        raise ValueError(f"formula has {n} variables, exceeding the bound {BRUTEFORCE_BOUND}")
    return _truth_table(formula, n) != 0


def _truth_table(formula: Formula, n: int) -> int:
    """Integer whose bit a is evaluate(formula, assignment a) over all 2^n a."""
    return _table(formula, n, (1 << (1 << n)) - 1)


def _table(formula: Formula, n: int, full: int) -> int:
    # `full` is the all-ones mask over the 2^n columns, built once per table.
    kind = type(formula)
    if kind is Var:
        return _var_column(n - formula.index, n)
    if kind is Const:
        return full if formula.value else 0
    if kind is Not:
        return full ^ _table(formula.child, n, full)
    if kind is And:
        return _table(formula.left, n, full) & _table(formula.right, n, full)
    return _table(formula.left, n, full) | _table(formula.right, n, full)


#: The text of every variable leaf parse accepts.
_VARIABLE_NAMES = frozenset(_LEAVES) - {"0", "1"}


def text_satisfiable(text: str) -> bool:
    """Satisfiability of formula text; raises ParseError exactly as parse does.

    With m <= BRUTEFORCE_BOUND distinct variables the text is folded once
    into its 2^m-bit truth table over those variables (an order-free
    renaming, so satisfiability is unchanged), with no AST and no
    recursion. Above the bound it is parsed and decided by sat_dpll.
    """
    tokens = _TOKEN.findall(text)
    names = _VARIABLE_NAMES.intersection(tokens)
    m = len(names)
    if m > BRUTEFORCE_BOUND:
        return sat_dpll(parse(text))
    full = (1 << (1 << m)) - 1
    leaves = {"0": 0, "1": full}
    leaves.update((name, _var_column(j, m)) for j, name in enumerate(names))
    return _fold(text, tokens, leaves, full.__xor__, int.__and__, int.__or__) != 0


@lru_cache(maxsize=None)
def _var_column(shift: int, n: int) -> int:
    # Bit a of the column for x_i is (a >> shift) & 1 with shift = n - i,
    # i.e. blocks of 2^shift zeros then 2^shift ones, repeated. Built by
    # doubling instead of looping over all 2^n assignments.
    half = 1 << shift
    column = ((1 << half) - 1) << half
    filled = half << 1
    total = 1 << n
    while filled < total:
        column |= column << filled
        filled <<= 1
    return column


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


def _min_var(formula: Formula) -> int:
    # Lowest variable index, or 0 when the formula holds a constant.
    kind = type(formula)
    if kind is Var:
        return formula.index
    if kind is Const:
        return 0
    if kind is Not:
        return _min_var(formula.child)
    return min(_min_var(formula.left), _min_var(formula.right))


def sat_dpll(formula: Formula) -> bool:
    """Satisfiability by splitting on the lowest-index live variable.

    Works directly on the AST: propagate constants, then try the true
    branch before the false branch. No variable-count bound.
    """
    index = _min_var(formula)
    if index == 0:  # only the caller's formula can hold unfolded constants
        formula = _assign(formula, 0, TRUE)
        if type(formula) is Const:
            return formula.value
        index = _min_var(formula)
    return sat_dpll(_assign(formula, index, TRUE)) or sat_dpll(
        _assign(formula, index, FALSE)
    )


def lexmax(formula: Formula) -> Assignment | None:
    """Lexicographically greatest satisfying assignment, or None if UNSAT.

    x_1 is the most significant coordinate. Up to BRUTEFORCE_BOUND
    variables the witness is the highest set bit of the truth table, whose
    index a reads as the numeral x_1..x_n (x_1 is bit n-1, x_n is bit 0).
    Larger formulas are settled greedily by pinning each variable to true
    when a satisfying extension remains.
    """
    n = num_vars(formula)
    if n > BRUTEFORCE_BOUND:
        return lexmax_greedy(formula)
    table = _truth_table(formula, n)
    if not table:
        return None
    top = table.bit_length() - 1
    return tuple(bool((top >> (n - 1 - k)) & 1) for k in range(n))


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


def odd_max_sat_ref(formula: Formula) -> bool:
    """Reference decider: satisfiable with x_n true in the lex-max witness.

    An assignment read as the binary numeral x_1..x_n is odd exactly when
    x_n is true. Rejects unsatisfiable formulas. Constant formulas have no
    x_n and are an error here; the machine runner is the layer that maps
    them to rejection.
    """
    n = num_vars(formula)
    if n < 1:
        raise ValueError("constant formula: no final variable to test")
    witness = lexmax(formula)
    return witness is not None and witness[-1]
