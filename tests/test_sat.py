"""SAT back ends, lex-max witnesses, and the reference decider."""

from __future__ import annotations

import pytest

import oddmax.sat
from conftest import all_assignments_descending, reference_lexmax, satisfying_assignments
from oddmax.formula import (
    And,
    Const,
    Not,
    Or,
    Var,
    evaluate,
    num_vars,
    parse,
    random_formula,
    serialize,
    substitute,
)
from oddmax.sat import (
    BRUTEFORCE_BOUND,
    _assign,
    _truth_table,
    lexmax,
    lexmax_greedy,
    odd_max_sat_ref,
    sat_bruteforce,
    sat_dpll,
)

#: Formulas holding the constants 0 and 1, folded or not.
WITH_CONSTANTS = [
    "0", "1", "!0", "!(0&1)", "(x1&1)", "(x2|0)", "!(x1&0)", "((x1|1)&!x3)",
    "((0|x2)&(x1|!1))", "!(!(x3&1)|(0&x1))",
]


def _fold_constants(formula):
    """Constant propagation as sat_dpll did it before the assign-and-fold walk."""
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


def _min_var(formula):
    if isinstance(formula, Var):
        return formula.index
    if isinstance(formula, Not):
        return _min_var(formula.child)
    return min(_min_var(formula.left), _min_var(formula.right))


def reference_dpll(formula, calls):
    """The three-walk search (fold, lowest index, structural substitute)
    that sat_dpll ran before; appends one entry to `calls` per call."""
    calls.append(formula)
    folded = _fold_constants(formula)
    if isinstance(folded, Const):
        return folded.value
    index = _min_var(folded)
    return reference_dpll(substitute(folded, index, True), calls) or reference_dpll(
        substitute(folded, index, False), calls
    )


def dpll_samples():
    """2000 seeded formulas on 1..12 variables (some hold constants)."""
    for seed in range(2000):
        yield random_formula(seed, n=1 + seed % 12, size=25)


class TestBruteforce:
    def test_contradiction(self):
        assert sat_bruteforce(parse("(x1&!x1)")) is False

    def test_constants(self):
        assert sat_bruteforce(parse("1")) is True
        assert sat_bruteforce(parse("0")) is False

    def test_xor_is_satisfiable(self):
        # Direct enumeration of the 4 assignments: 10 and 01 satisfy.
        formula = parse("((x1|x2)&(!x1|!x2))")
        assert satisfying_assignments(formula) == [(True, False), (False, True)]
        assert sat_bruteforce(formula) is True

    def test_bound_exceeded(self):
        with pytest.raises(ValueError):
            sat_bruteforce(parse("(x1&x21)"))

    def test_agrees_with_direct_sweep(self):
        for seed in range(2000):
            formula = random_formula(seed, n=6, size=20)
            assert sat_bruteforce(formula) == bool(satisfying_assignments(formula))


class TestTruthTable:
    @staticmethod
    def expected_table(formula, n):
        # Bit a is the value at assignment a, read as the numeral x_1..x_n.
        table = 0
        for a, assignment in zip(range((1 << n) - 1, -1, -1), all_assignments_descending(n)):
            table |= evaluate(formula, assignment) << a
        return table

    def test_every_bit_equals_evaluate(self):
        formulas = [parse(text) for text in WITH_CONSTANTS]
        for seed in range(300):
            base = random_formula(seed, n=1 + seed % 8, size=20)
            formulas += [base, Not(base)]
        for formula in formulas:
            n = num_vars(formula)
            assert n <= 8
            assert _truth_table(formula, n) == self.expected_table(formula, n), serialize(formula)


class TestDpll:
    def test_contradiction(self):
        assert sat_dpll(parse("(x1&!x1)")) is False

    def test_single_free_variable(self):
        assert sat_dpll(parse("x5")) is True

    def test_constants(self):
        assert sat_dpll(parse("0")) is False
        assert sat_dpll(parse("!(0&1)")) is True

    def test_agrees_with_bruteforce(self):
        for seed in range(2000):
            formula = random_formula(seed, n=12, size=25)
            assert sat_dpll(formula) == sat_bruteforce(formula)

    def test_same_answers_and_branches_as_the_three_walk_search(self, monkeypatch):
        calls = []
        original = oddmax.sat.sat_dpll

        def counting(formula):
            calls.append(formula)
            return original(formula)

        # sat_dpll recurses through the module global, so every branch
        # passes through the wrapper.
        monkeypatch.setattr(oddmax.sat, "sat_dpll", counting)
        for formula in list(dpll_samples()) + [parse(text) for text in WITH_CONSTANTS]:
            expected_calls = []
            expected = reference_dpll(formula, expected_calls)
            calls.clear()
            assert oddmax.sat.sat_dpll(formula) is expected, serialize(formula)
            assert len(calls) == len(expected_calls), serialize(formula)

    def test_assign_is_fold_after_substitute(self):
        for formula in list(dpll_samples()) + [parse(text) for text in WITH_CONSTANTS]:
            for index in range(1, num_vars(formula) + 1):
                for value in (True, False):
                    assert _assign(formula, index, Const(value)) == _fold_constants(
                        substitute(formula, index, value)
                    ), (serialize(formula), index, value)
            assert _assign(formula, 0, Const(True)) == _fold_constants(formula)

    def test_assign_keeps_untouched_subtrees(self):
        formula = parse("((x1&x2)|!(x3|x4))")
        assigned = _assign(formula, 1, Const(True))
        assert assigned == Or(Var(2), formula.right)
        assert assigned.right is formula.right
        assert _assign(formula, 5, Const(False)) is formula


class TestLexmax:
    def test_xor_prefers_high_bit(self):
        assert lexmax(parse("((x1|x2)&(!x1|!x2))")) == (True, False)

    def test_implication(self):
        assert lexmax(parse("(!x1|x2)")) == (True, True)

    def test_unsat(self):
        assert lexmax(parse("(x1&!x1)")) is None

    def test_constant_formulas(self):
        assert lexmax(parse("1")) == ()
        assert lexmax(parse("0")) is None

    def test_witness_is_maximum(self):
        for seed in range(500):
            formula = random_formula(seed, n=8, size=20)
            assert lexmax(formula) == reference_lexmax(formula)

    def test_witness_is_maximum_at_twelve_variables(self):
        for seed in range(150):
            formula = random_formula(seed, n=12, size=25)
            assert lexmax(formula) == reference_lexmax(formula)

    def test_greedy_equals_truth_table(self):
        for seed in range(500):
            formula = random_formula(seed, n=12, size=25)
            assert lexmax_greedy(formula) == lexmax(formula)

    def test_greedy_handles_gaps(self):
        # Free variables are pinned true: they never block satisfiability.
        assert lexmax_greedy(parse("(x1&x3)")) == (True, True, True)
        assert lexmax_greedy(parse("x2")) == (True, True)

    @pytest.mark.parametrize("n", [BRUTEFORCE_BOUND, BRUTEFORCE_BOUND + 1])
    def test_regime_boundary(self, n):
        # n = BRUTEFORCE_BOUND reads the truth table; one more goes greedy.
        assert lexmax(parse(f"(x1&!x{n})")) == (True,) * (n - 1) + (False,)
        assert lexmax(parse(f"((x1&!x1)&x{n})")) is None

    @pytest.mark.parametrize("n", range(17, BRUTEFORCE_BOUND + 1))
    def test_truth_table_equals_greedy_up_to_the_bound(self, n):
        # reference_lexmax is too slow at this size; greedy is the oracle.
        # The tautology on x_n makes every formula span exactly n variables;
        # negations are included because their witnesses are rarely all-true.
        for seed in range(5):
            base = random_formula(seed, n=n, size=25)
            for body in (base, Not(base)):
                formula = And(body, Or(Var(n), Not(Var(n))))
                assert num_vars(formula) == n
                assert lexmax(formula) == lexmax_greedy(formula)


class TestOddMaxSatRef:
    def test_rejects_even_witness(self):
        assert odd_max_sat_ref(parse("(x1&!x2)")) is False

    def test_accepts_odd_witness(self):
        assert odd_max_sat_ref(parse("(!x1|x2)")) is True

    def test_rejects_unsat(self):
        assert odd_max_sat_ref(parse("(x1&!x1)")) is False

    def test_constant_formula_is_an_error(self):
        with pytest.raises(ValueError):
            odd_max_sat_ref(parse("1"))

    def test_matches_direct_enumeration(self):
        for seed in range(500):
            formula = random_formula(seed, n=6, size=20)
            if num_vars(formula) == 0:
                continue
            witness = reference_lexmax(formula)
            assert odd_max_sat_ref(formula) == (witness is not None and witness[-1])
