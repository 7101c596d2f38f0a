"""SAT back ends, lex-max witnesses, and the reference decider."""

from __future__ import annotations

import pytest

from conftest import reference_lexmax, satisfying_assignments
from oddmax.formula import And, Not, Or, Var, num_vars, parse, random_formula
from oddmax.sat import (
    BRUTEFORCE_BOUND,
    lexmax,
    lexmax_greedy,
    odd_max_sat_ref,
    sat_bruteforce,
    sat_dpll,
)


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
