"""Desk-scale SAT decision and lexicographically maximum satisfying assignments.

Two independent satisfiability routes are kept side by side on purpose:
:func:`sat_bruteforce` sweeps the full truth table, while :func:`sat_dpll`
searches by splitting. One checks the other throughout the test suite.
"""

from __future__ import annotations

from functools import lru_cache

from .formula import (
    And,
    Assignment,
    Const,
    Formula,
    Not,
    Or,
    Var,
    num_vars,
    substitute,
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
    full = (1 << (1 << n)) - 1
    if isinstance(formula, Var):
        return _var_column(n - formula.index, n)
    if isinstance(formula, Const):
        return full if formula.value else 0
    if isinstance(formula, Not):
        return full & ~_truth_table(formula.child, n)
    if isinstance(formula, And):
        return _truth_table(formula.left, n) & _truth_table(formula.right, n)
    return _truth_table(formula.left, n) | _truth_table(formula.right, n)


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


def _fold_constants(formula: Formula) -> Formula:
    """Semantic constant propagation; returns Const when the value is forced."""
    if isinstance(formula, (Var, Const)):
        return formula
    if isinstance(formula, Not):
        child = _fold_constants(formula.child)
        if isinstance(child, Const):
            return Const(not child.value)
        return Not(child)
    left = _fold_constants(formula.left)
    right = _fold_constants(formula.right)
    if isinstance(formula, And):
        if isinstance(left, Const):
            return right if left.value else Const(False)
        if isinstance(right, Const):
            return left if right.value else Const(False)
        return And(left, right)
    if isinstance(left, Const):
        return Const(True) if left.value else right
    if isinstance(right, Const):
        return Const(True) if right.value else left
    return Or(left, right)


def _min_var(formula: Formula) -> int:
    if isinstance(formula, Var):
        return formula.index
    if isinstance(formula, Const):
        raise ValueError("constant formula has no variables")
    if isinstance(formula, Not):
        return _min_var(formula.child)
    return min(_min_var(formula.left), _min_var(formula.right))


def sat_dpll(formula: Formula) -> bool:
    """Satisfiability by splitting on the lowest-index live variable.

    Works directly on the AST: propagate constants, then try the true
    branch before the false branch. No variable-count bound.
    """
    folded = _fold_constants(formula)
    if isinstance(folded, Const):
        return folded.value
    index = _min_var(folded)
    return sat_dpll(substitute(folded, index, True)) or sat_dpll(
        substitute(folded, index, False)
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
        pinned_true = substitute(current, i, True)
        if sat_dpll(pinned_true):
            current = pinned_true
            bits.append(True)
        else:
            current = substitute(current, i, False)
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
