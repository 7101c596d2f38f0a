"""SAT back ends, lex-max witnesses, and the reference decider."""

from __future__ import annotations

import re
import time

import pytest
from hypothesis import given, settings, strategies as st

import oddmax.sat
from conftest import (
    all_assignments_descending,
    any_text,
    lexmax_greedy,
    reachable_query_wires,
    reference_lexmax,
    satisfying_assignments,
)
from test_corpus import indices
from test_formula import TestParserReference as ParserReference, parse_outcome
from oddmax.formula import (
    MAX_VAR_INDEX,
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
from oddmax.machine import decide_oddmaxsat
from oddmax.sat import (
    BLOCK_VARS,
    BRUTEFORCE_BOUND,
    _assign,
    _columns,
    lexmax,
    odd_max_sat_ref,
    sat_bruteforce,
    sat_dpll,
    text_satisfiable,
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


def reference_dpll(formula, calls):
    """The three-walk search (highest index, structural substitute, fold)
    that sat_dpll runs in two; appends one entry to `calls` per call."""
    calls.append(formula)
    index = reference_num_vars(formula)
    if index == 0:
        return _fold_constants(formula).value
    return any(
        reference_dpll(_fold_constants(substitute(formula, index, value)), calls)
        for value in (True, False)
    )


def reference_unit_dpll(formula, calls):
    """sat_dpll's rule in the three walks, recursive where it is iterative:
    while the formula is an And, make the leftmost literal among the
    conjuncts of its "&" spine true; then decide an Or by its sides, left
    first; otherwise split on the leftmost leaf, true first, or, if that
    leaf is a constant, fold the formula and decide it again unless it
    folded to a constant. Appends one entry to `calls` per call."""
    calls.append(formula)
    while isinstance(formula, And):
        literal = next((c for c in conjuncts(formula) if is_literal(c)), None)
        if literal is None:
            break
        if isinstance(literal, Var):
            formula = _fold_constants(substitute(formula, literal.index, True))
        else:
            formula = _fold_constants(substitute(formula, literal.child.index, False))
    if isinstance(formula, Or):
        return reference_unit_dpll(formula.left, calls) or reference_unit_dpll(
            formula.right, calls
        )
    leaf = leftmost_leaf(formula)
    if isinstance(leaf, Const):
        folded = _fold_constants(formula)
        if isinstance(folded, Const):
            return folded.value
        return reference_unit_dpll(folded, calls)
    return any(
        reference_unit_dpll(_fold_constants(substitute(formula, leaf.index, value)), calls)
        for value in (True, False)
    )


def leftmost_leaf(formula):
    """The leaf reached by taking the left operand (or the child) from the root."""
    if isinstance(formula, (Var, Const)):
        return formula
    if isinstance(formula, Not):
        return leftmost_leaf(formula.child)
    return leftmost_leaf(formula.left)


def conjuncts(formula):
    """The conjuncts of the top-level "&" spine, left to right."""
    if isinstance(formula, And):
        yield from conjuncts(formula.left)
        yield from conjuncts(formula.right)
    else:
        yield formula


def is_literal(formula):
    return isinstance(formula, Var) or (
        isinstance(formula, Not) and isinstance(formula.child, Var)
    )


def dpll_samples():
    """2000 seeded formulas on 1..12 variables (some hold constants)."""
    for seed in range(2000):
        yield random_formula(seed, n=1 + seed % 12, size=25)


def reference_num_vars(formula):
    """num_vars as a max-walk: the largest index, 0 for a constant leaf."""
    if isinstance(formula, Var):
        return formula.index
    if isinstance(formula, Const):
        return 0
    if isinstance(formula, Not):
        return reference_num_vars(formula.child)
    return max(reference_num_vars(formula.left), reference_num_vars(formula.right))


class TestWalkers:
    """The conditional-expression walker against its max reference."""

    def test_num_vars_equals_the_reference_walk(self):
        formulas = list(dpll_samples()) + [parse(text) for text in WITH_CONSTANTS]
        for formula in formulas:
            assert num_vars(formula) == reference_num_vars(formula), serialize(formula)
        # The walker meets formulas without variables and many distinct maxima.
        assert {reference_num_vars(f) for f in formulas} >= set(range(13))


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

    def test_answers_above_twenty_variables(self):
        assert sat_bruteforce(parse("(x1&x21)")) is True
        assert sat_bruteforce(parse("((x1&!x1)&x30)")) is False
        assert sat_bruteforce(parse("(!x1&x100)")) is True
        for n in range(21, 31):
            for seed in range(5):
                base = random_formula(seed, n=n, size=25)
                for body in (base, Not(base)):
                    formula = spanning(body, n)
                    expected = sat_dpll(formula)
                    assert sat_bruteforce(formula) is expected
                    assert (lexmax(formula) is not None) is expected

    def test_agrees_with_direct_sweep(self):
        for seed in range(2000):
            formula = random_formula(seed, n=6, size=20)
            assert sat_bruteforce(formula) == bool(satisfying_assignments(formula))


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


def reference_truth_table(formula, n):
    """The single 2^n-bit table that sat_bruteforce and lexmax swept before
    the lex-max search split it: bit a is the value at assignment a."""
    full = (1 << (1 << n)) - 1

    def table(node):
        kind = type(node)
        if kind is Var:
            return _var_column(n - node.index, n)
        if kind is Const:
            return full if node.value else 0
        if kind is Not:
            return full ^ table(node.child)
        if kind is And:
            return table(node.left) & table(node.right)
        return table(node.left) | table(node.right)

    return table(formula)


def reference_witness(formula, n):
    """The lex-max witness read off the single table's highest set bit."""
    top = reference_truth_table(formula, n).bit_length() - 1
    return None if top < 0 else tuple(bool((top >> (n - 1 - k)) & 1) for k in range(n))


def single_table(formula, n):
    """The search's own sweep at n <= BLOCK_VARS: one _table over _columns(n),
    looked up on the module so that a wrapped _table sees the root call."""
    assert n <= BLOCK_VARS
    full, columns = _columns(n)
    return oddmax.sat._table(formula, columns, full)


def record_sweeps(monkeypatch, limit=2) -> list:
    """Wrap _table so that each sweep, not each node it visits, appends the
    formula swept and its table's width in bits (2^m for m variables),
    failing past `limit` sweeps; _table recurses through the module global,
    so nested calls are told apart by their depth."""
    sweeps, depth = [], 0
    original = oddmax.sat._table

    def recording(formula, columns, full):
        nonlocal depth
        if depth == 0:
            sweeps.append((formula, full.bit_length()))
            assert len(sweeps) <= limit, f"more than {limit} sweeps"
        depth += 1
        try:
            return original(formula, columns, full)
        finally:
            depth -= 1

    monkeypatch.setattr(oddmax.sat, "_table", recording)
    return sweeps


def spanning(body, n):
    """`body` conjoined with the tautology on x_n, so it spans n variables."""
    return And(body, Or(Var(n), Not(Var(n))))


def tautologies(first, last):
    """The right-nested conjunction of (x_i|!x_i) for i = first..last."""
    chain = Or(Var(last), Not(Var(last)))
    for i in range(last - 1, first - 1, -1):
        chain = And(Or(Var(i), Not(Var(i))), chain)
    return chain


def contradictions(indices):
    """The left-deep disjunction of (x_i&!x_i) for each i in `indices`."""
    first, *rest = indices
    chain = And(Var(first), Not(Var(first)))
    for i in rest:
        chain = Or(chain, And(Var(i), Not(Var(i))))
    return chain


def full_span(body, n):
    """`body` conjoined with the tautology on every x_1..x_n, so that all n
    variables occur and, above BLOCK_VARS, the lex-max search pins the
    first n - 16 of them."""
    formula = And(body, tautologies(1, n))
    assert len(indices(formula)) == n > BLOCK_VARS
    return formula


def pin_high(n, block):
    """Conjunction fixing x_1..x_(n-BLOCK_VARS) to the bits of `block`, so
    every model lies in that block."""
    literals = [Var(i) if block >> (n - BLOCK_VARS - i) & 1 else Not(Var(i))
                for i in range(1, n - BLOCK_VARS + 1)]
    pinned = literals[0]
    for literal in literals[1:]:
        pinned = And(pinned, literal)
    return pinned


def block_path_formulas(n):
    """Seeded formulas spanning n variables: random bodies and their
    negations, UNSAT ones, and above BLOCK_VARS ones whose models all lie
    under the lowest pinned prefix of x_1..x_(n-16) or under a middle one,
    each also in its full-span variant, which the search pins."""
    formulas = []
    for seed in range(6):
        base = random_formula(seed, n=n, size=25)
        bodies = [base, Not(base), And(base, Not(base))]
        if n > BLOCK_VARS:
            # The lowest block, and 0b0101.. in the middle when n > 17.
            for block in (0, (1 << (n - BLOCK_VARS)) // 3):
                bodies.append(And(pin_high(n, block), Or(base, Var(n))))
        formulas += [spanning(body, n) for body in bodies]
        if n > BLOCK_VARS:
            formulas += [full_span(body, n) for body in bodies]
    return formulas


class TestBlocks:
    """The lex-max search, one table per leaf, against the single table."""

    @pytest.mark.parametrize("n", [16, 17, 18, 19, 20])
    def test_block_sweep_equals_the_single_table(self, n):
        outcomes = set()
        for formula in block_path_formulas(n):
            assert num_vars(formula) == n
            table = reference_truth_table(formula, n)
            witness = reference_witness(formula, n)
            if n <= BLOCK_VARS:
                assert single_table(formula, n) == table, serialize(formula)
            assert sat_bruteforce(formula) is (table != 0), serialize(formula)
            assert lexmax(formula) == witness, serialize(formula)
            outcomes.add(None if witness is None else witness[: n - BLOCK_VARS])
        # UNSAT formulas and, above one block, models led by several
        # different high-variable prefixes, the lowest among them.
        assert None in outcomes
        if n > BLOCK_VARS:
            assert (False,) * (n - BLOCK_VARS) in outcomes
            assert len(outcomes) >= 3

    def test_top_model_in_the_lowest_and_a_middle_block(self):
        lowest = parse("((!x1&(!x2&(!x3&!x4)))&(x5|(x20|!x20)))")
        assert lexmax(lowest) == (False,) * 4 + (True,) * 16
        middle = parse("((!x1&(x2&(!x3&x4)))&(!x19|!x20))")
        assert lexmax(middle) == (False, True, False, True) + (True,) * 14 + (True, False)
        for formula in (lowest, middle):
            assert sat_bruteforce(formula) is True
            assert lexmax(formula) == reference_witness(formula, 20)

    def test_first_leaf_with_a_model_ends_the_search(self, monkeypatch):
        # Only x1 and x20 occur: one 2^2-bit sweep over them, no pins.
        sweeps = record_sweeps(monkeypatch)
        formula = parse("(x1&x20)")
        assert sat_bruteforce(formula) is True
        assert sweeps == [(formula, 4)]
        sweeps.clear()
        assert lexmax(formula) == (True,) * 20
        assert sweeps == [(formula, 4)]
        # All twenty occur, so x1..x4 are pinned. x4 = 1 leaves a leaf with
        # no model; x4 = 0 leaves the last 16 tautologies, whose leaf has
        # one and ends the search before x3 = 0 is tried.
        sweeps.clear()
        empty = And(Var(20), Not(Var(20)))
        formula = full_span(Or(Not(Var(4)), empty), 20)
        leaves = [(And(empty, tautologies(5, 20)), 1 << 16), (tautologies(5, 20), 1 << 16)]
        assert sat_bruteforce(formula) is True
        assert sweeps == leaves
        sweeps.clear()
        assert lexmax(formula) == (True, True, True, False) + (True,) * 16
        assert sweeps == leaves

    def test_pins_that_fold_to_false_sweep_no_leaf(self, monkeypatch):
        # Only x1 and x20 occur: one 2^2-bit sweep per search, no pins.
        sweeps = record_sweeps(monkeypatch)
        formula = parse("((x1&!x1)&x20)")
        assert sat_bruteforce(formula) is False
        assert lexmax(formula) is None
        assert sweeps == [(formula, 4)] * 2
        # All twenty occur: both values of x1 fold the formula to FALSE, so
        # no leaf is reached.
        sweeps.clear()
        formula = full_span(formula, 20)
        assert sat_bruteforce(formula) is False
        assert lexmax(formula) is None
        assert sweeps == []


class TestColumns:
    """_columns(m): the one column cache, indexed by variable, against the
    doubling construction that built each column on its own."""

    @pytest.mark.parametrize("m", range(BRUTEFORCE_BOUND + 1))
    def test_layout_and_one_cached_tuple_per_width(self, m):
        full, columns = _columns(m)
        assert full == (1 << (1 << m)) - 1
        assert len(columns) == m + 1
        assert columns[0] == 0
        for i in range(1, m + 1):
            assert columns[i] == _var_column(m - i, m)
        if m <= 10:
            # Bit a of x_i's column is bit m - i of a (x_1 most significant).
            for i in range(1, m + 1):
                assert columns[i] == sum(1 << a for a in range(1 << m) if a >> (m - i) & 1)
        assert _columns(m)[1] is columns

    def test_only_the_widths_asked_for_are_cached(self):
        _columns.cache_clear()
        _columns(13)
        assert _columns.cache_info().currsize == 1


def absorbing_formulas(n):
    """Formulas spanning n variables whose "&" and "|" have absorbing left
    operands: the high variables and their negations (0 or all-ones in each
    block) and the WITH_CONSTANTS texts, over random, negated and UNSAT
    bodies. The last two per body meet both cases in every block. Above
    BLOCK_VARS each comes in its full-span variant too, which the search
    pins."""
    lefts = [parse(text) for text in WITH_CONSTANTS]
    for i in range(1, n - BLOCK_VARS + 1):
        lefts += [Var(i), Not(Var(i))]
    formulas = []
    for seed in range(2):
        base = random_formula(seed, n=n, size=25)
        for body in (base, Not(base), And(base, Not(base))):
            body = spanning(body, n)
            for left in lefts:
                formulas += [And(left, body), Or(left, body)]
            formulas += [
                Or(And(Var(1), body), And(Not(Var(1)), Not(body))),
                And(Or(Var(1), body), Or(Not(Var(1)), Not(body))),
            ]
    if n > BLOCK_VARS:
        formulas += [full_span(formula, n) for formula in formulas]
    return formulas


class TestAbsorbingOperands:
    """The sweep's short-circuited "&" and "|" against the single table."""

    @pytest.mark.parametrize("n", range(BLOCK_VARS + 1, BRUTEFORCE_BOUND + 1))
    def test_absorbing_left_operands_equal_the_single_table(self, n):
        outcomes = set()
        for formula in absorbing_formulas(n):
            assert num_vars(formula) == n
            table = reference_truth_table(formula, n)
            witness = reference_witness(formula, n)
            assert sat_bruteforce(formula) is (table != 0), serialize(formula)
            assert lexmax(formula) == witness, serialize(formula)
            outcomes.add(witness is None)
        assert outcomes == {False, True}

    def test_an_absorbed_right_operand_is_not_walked(self, monkeypatch):
        walked = []
        original = oddmax.sat._table

        def counting(formula, columns, full):
            walked.append(formula)
            return original(formula, columns, full)

        # _table recurses through the module global, so every node visit counts.
        monkeypatch.setattr(oddmax.sat, "_table", counting)
        # A literal 0 absorbs "&" and a literal 1 absorbs "|": two visits.
        # The other constant leaves the right operand to be walked: five.
        right = {And: Or(Var(2), Var(3)), Or: And(Var(2), Var(3))}
        cases = [(And, False, 2), (And, True, 5), (Or, True, 2), (Or, False, 5)]
        for kind, value, visits in cases:
            formula = kind(Const(value), right[kind])
            walked.clear()
            single_table(formula, 3)
            assert len(walked) == visits, serialize(formula)

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, BRUTEFORCE_BOUND))
    def test_random_formulas_equal_the_single_table(self, seed, n):
        formula = spanning(random_formula(seed, n=n, size=25), n)
        table = reference_truth_table(formula, n)
        if n <= BLOCK_VARS:
            assert single_table(formula, n) == table
        assert sat_bruteforce(formula) is (table != 0)
        assert lexmax(formula) == reference_witness(formula, n)


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
            expected = self.expected_table(formula, n)
            assert single_table(formula, n) == expected, serialize(formula)


def reference_text_sat(text):
    """sat_bruteforce on the parsed text, its variables renumbered 1..m in
    order of first occurrence so that high indices stay within the sweep."""
    canonical = serialize(parse(text))
    rank: dict[str, str] = {}
    compact = re.sub(r"x[0-9]+", lambda m: rank.setdefault(m[0], f"x{len(rank) + 1}"), canonical)
    return sat_bruteforce(parse(compact))


class TestTextSatisfiable:
    """text_satisfiable against parse plus the truth-table sweep."""

    def assert_matches(self, texts):
        for text in texts:
            expected = parse_outcome(reference_text_sat, text)
            assert parse_outcome(text_satisfiable, text) == expected, repr(text)

    def test_every_body_of_the_curated_universes(self, corpus):
        wires = set().union(*(reachable_query_wires(formula) for formula in corpus))
        assert len(wires) > 2000
        self.assert_matches(sorted({wire[:-1] for wire in wires}))

    def test_reference_parser_text_families(self):
        self.assert_matches(ParserReference().reference_texts())

    @pytest.mark.parametrize(
        "text", ["x", "x0", "x01", "x101", "x1&x0", "(x1|x)", "0", "1", "!0", "!1",
                 "(0|1)", "(1&0)", "!(1&!0)", "((0|0)|!1)", "x100", "(x100&!x99)"],
    )
    def test_invalid_names_and_constant_bodies(self, text):
        self.assert_matches([text])

    @pytest.mark.parametrize("m", [21, 22, 23, 24])
    def test_more_than_the_bound_takes_the_lexmax_search(self, m, monkeypatch):
        parsed: list[str] = []
        original = oddmax.sat.parse

        def counting(text):
            parsed.append(text)
            return original(text)

        monkeypatch.setattr(oddmax.sat, "parse", counting)
        present = "&".join(f"(x{i}|!x{i})" for i in range(1, m + 1))
        for seed in range(10):
            core = random_formula(seed, n=6, size=20)
            for body in (core, Not(core)):
                text = f"({serialize(body)}&{present})"
                assert text_satisfiable(text) is sat_bruteforce(body), text
        assert len(parsed) == 20

    def test_more_than_the_bound_calls_sat_bruteforce_once(self, monkeypatch):
        calls = []
        original = oddmax.sat.sat_bruteforce

        def counting(formula):
            calls.append(formula)
            return original(formula)

        monkeypatch.setattr(oddmax.sat, "sat_bruteforce", counting)
        text = "&".join(f"(x{i}|!x{i})" for i in range(1, BRUTEFORCE_BOUND + 2))
        assert text_satisfiable(f"({text})") is True
        assert len(calls) == 1

    @given(any_text)
    def test_any_text(self, text):
        self.assert_matches([text])

    @pytest.mark.parametrize(
        "text, message, position",
        [("(x1&x101)", "variable index exceeds 100", 5),
         ("(x0|x2)", "variable index must be >= 1", 2),
         ("(x1&x)", "expected variable index after 'x'", 5),
         ("(x1&x1000)", "variable index exceeds 100", 5)],
    )
    def test_invalid_token_among_valid_ones_raises_parses_error(self, text, message, position):
        # The names come from the split's odd pieces; an invalid one is no
        # name, and the fold raises where it stands, as parse does.
        expected = (f"syntax error at position {position}: {message}", position)
        assert parse_outcome(parse, text) == expected
        assert parse_outcome(text_satisfiable, text) == expected


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

    @pytest.fixture
    def calls(self, monkeypatch):
        """The formula of every sat_dpll call, branches included."""
        calls = []
        original = oddmax.sat.sat_dpll

        def counting(formula):
            calls.append(formula)
            return original(formula)

        # sat_dpll recurses through the module global, so every branch
        # passes through the wrapper.
        monkeypatch.setattr(oddmax.sat, "sat_dpll", counting)
        return calls

    def test_same_answers_and_branches_as_the_three_walk_search(self, calls):
        # reference_dpll gives the answer and reference_unit_dpll, sat_dpll's
        # rule written apart, the exact number of calls.
        for formula in list(dpll_samples()) + [parse(text) for text in WITH_CONSTANTS]:
            expected_calls = []
            expected = reference_dpll(formula, [])
            assert reference_unit_dpll(formula, expected_calls) is expected, serialize(formula)
            calls.clear()
            assert oddmax.sat.sat_dpll(formula) is expected, serialize(formula)
            assert len(calls) == len(expected_calls), serialize(formula)

    def test_disjunction_of_contradictions_is_decided_side_by_side(self, calls):
        # A split on x1 leaves the other contradictions standing, so a
        # search without the disjunction rule makes 2^12 - 1 calls here.
        assert oddmax.sat.sat_dpll(contradictions(range(1, 13))) is False
        assert len(calls) <= 2 * 12 - 1
        assert sat_dpll(contradictions(range(1, 61))) is False
        assert sat_dpll(Or(contradictions(range(1, 61)), Var(61))) is True

    def test_long_disjunction_chain(self):
        # The disjunction rule recurses once per disjunct; 900 of them fit
        # under the default recursion limit.
        chain = contradictions([1] * 900)
        assert sat_dpll(chain) is False
        assert sat_dpll(Or(chain, Var(2))) is True

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 12)), min_size=1,
                    max_size=6))
    def test_disjunction_is_satisfiable_when_a_disjunct_is(self, draws):
        disjuncts = [random_formula(seed, n=n, size=15) for seed, n in draws]
        chain = disjuncts[0]
        for disjunct in disjuncts[1:]:
            chain = Or(chain, disjunct)
        assert sat_dpll(chain) is sat_bruteforce(chain) is any(map(sat_bruteforce, disjuncts))

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
        # Both sides of 20 variables take the same search over the variables
        # that occur: one 2^2-bit table here, and in the full-span variants
        # x_1..x_(n-16) pinned, so x_1..x_4 at n = 20 and x_1..x_5 at n = 21.
        for formula, witness in [
            (parse(f"(x1&!x{n})"), (True,) * (n - 1) + (False,)),
            (parse(f"((x1&!x1)&x{n})"), None),
        ]:
            assert lexmax(formula) == witness
            assert lexmax(full_span(formula, n)) == witness

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
    @pytest.mark.parametrize("n", [*range(1, 9), 17, 20, 21])
    def test_equals_the_last_bit_of_lexmax(self, n):
        for seed in range(20 if n <= 8 else 4):
            base = random_formula(seed, n=n, size=25)
            for body in (base, Not(base), And(base, Not(base))):
                formula = spanning(body, n)
                witness = lexmax(formula)
                assert odd_max_sat_ref(formula) is (witness is not None and witness[-1])

    def test_rejects_even_witness(self):
        assert odd_max_sat_ref(parse("(x1&!x2)")) is False

    def test_accepts_odd_witness(self):
        assert odd_max_sat_ref(parse("(!x1|x2)")) is True

    def test_rejects_unsat(self):
        assert odd_max_sat_ref(parse("(x1&!x1)")) is False

    def test_constant_formulas_are_rejected(self):
        # No x_n to be true: the reference rejects, as the machine does.
        for text in ("1", "0", "!(0&1)"):
            formula = parse(text)
            assert odd_max_sat_ref(formula) is False
            assert odd_max_sat_ref(formula) == decide_oddmaxsat(formula)

    def test_matches_direct_enumeration(self):
        for seed in range(500):
            formula = random_formula(seed, n=6, size=20)
            witness = reference_lexmax(formula)  # () for a satisfiable constant
            assert odd_max_sat_ref(formula) == (witness is not None and witness[-1:] == (True,))


def assert_search(formula):
    """lexmax equals the greedy reference, its witness satisfies the formula
    and odd_max_sat_ref reads the witness's last bit; returns the witness."""
    witness = lexmax(formula)
    assert witness == lexmax_greedy(formula), serialize(formula)
    assert witness is None or evaluate(formula, witness) is True
    assert odd_max_sat_ref(formula) is (witness is not None and witness[-1])
    return witness


class TestSearchAboveTheBound:
    """The lex-max search's pinning of the occurring variables above the
    last 16, rule by rule. Each gapped formula is also searched in its
    full-span variant, where all n variables occur and x_1..x_(n-16) are
    pinned; the witness is the same."""

    @pytest.mark.parametrize("text, n", [("(x1&x30)", 30), ("x25", 25)])
    def test_gapped_formulas_are_all_true(self, text, n):
        for formula in (parse(text), full_span(parse(text), n)):
            assert assert_search(formula) == (True,) * n

    def test_false_pins_in_the_prefix(self):
        for text, n, witness in [
            ("(!x1&x25)", 25, (False,) + (True,) * 24),
            ("(x1&(!x2&x40))", 40, (True, False) + (True,) * 38),
        ]:
            for formula in (parse(text), full_span(parse(text), n)):
                assert assert_search(formula) == witness

    @pytest.mark.parametrize("text, n, witness", [
        # x1 = 1 folds the formula to TRUE before any leaf: x2..x17 read true.
        ("(x1|(" + "&".join(f"x{i}" for i in range(2, 18)) + "))", 17, (True,) * 17),
        # x1 = 1 folds to FALSE at x3 either way, and x1, x2 = 0, 1 to TRUE:
        # x3..x20 read true.
        ("((!x1&x2)|(x1&((x3&!x3)&(" + "&".join(f"x{i}" for i in range(4, 21)) + "))))",
         20, (False,) + (True,) * 19),
    ], ids=["x1-folds-to-true", "x1-x2-fold-to-true"])
    def test_a_pin_that_folds_to_true_ends_with_ones(self, text, n, witness, monkeypatch):
        sweeps = record_sweeps(monkeypatch)
        formula = parse(text)
        assert lexmax(formula) == reference_witness(formula, n) == witness
        assert odd_max_sat_ref(formula) is decide_oddmaxsat(formula) is True
        assert sweeps == []

    def test_branches_that_fold_to_constants(self):
        # x1, x2 = 1, 1 folds to FALSE and x1, x2, x3 = 1, 0, 1 to TRUE.
        formula = parse("((!x1|!x2)&(x3|x30))")
        assert assert_search(formula) == (True, False) + (True,) * 28
        assert assert_search(full_span(formula, 30)) == (True, False) + (True,) * 28
        # Every branch under x1 = 1 folds to FALSE at x3; x1 = 0 leaves x30.
        formula = parse("((x1&(x2&(x3&!x3)))|(!x1&x30))")
        assert assert_search(formula) == (False,) + (True,) * 29
        assert assert_search(full_span(formula, 30)) == (False,) + (True,) * 29

    @pytest.mark.parametrize("text", ["((x1&x100)&!x100)", "((1&x100)&!x100)"])
    def test_absent_variables_take_only_the_true_branch(self, text, monkeypatch):
        # x2..x99 do not occur, so nothing is pinned: lexmax and
        # odd_max_sat_ref each sweep one 2^m-bit table over the m variables
        # that occur (x1 and x100, or x100 alone).
        sweeps = record_sweeps(monkeypatch)
        formula = parse(text)
        assert assert_search(formula) is None
        assert sweeps == [(formula, 1 << len(indices(formula)))] * 2

    @pytest.mark.parametrize("n", [21, 100])
    def test_a_variable_the_branch_no_longer_holds_takes_only_its_true_branch(
        self, n, monkeypatch
    ):
        # All n variables occur, so x1..x_(n-16) are pinned. x1 = 1 leaves
        # `unsat`, free of x2..x_(n-16): one leaf sweep, where branching on
        # each would repeat it up to 2^(n-17) times. x1 = 0 leaves the
        # tautologies, whose all-true path reaches a leaf with a model.
        sweeps = record_sweeps(monkeypatch, limit=6)
        unsat = And(And(Var(n), Not(Var(n))), tautologies(n - 15, n))
        formula = Or(And(Var(1), unsat), And(Not(Var(1)), tautologies(2, n)))
        assert len(indices(formula)) == n
        start = time.perf_counter()
        witness = lexmax(formula)
        assert time.perf_counter() - start < 1
        assert assert_search(formula) == witness == (False,) + (True,) * (n - 1)
        leaves = [(unsat, 1 << 16), (tautologies(n - 15, n), 1 << 16)]
        assert sweeps == leaves * 3

    @pytest.mark.parametrize("n", [21, 30, 50, 100])
    def test_random_bodies_and_their_negations(self, n):
        for seed in range(30):
            base = random_formula(seed, n=n, size=3 * n)
            for body in (base, Not(base)):
                assert_search(spanning(body, n))

    @pytest.mark.parametrize("n", [17, 21])
    def test_random_bodies_in_full_span(self, n):
        # Every x_1..x_(n-16) is pinned, and the tautologies keep any branch
        # from folding to TRUE before the leaf: up to 2^(n-16) leaves.
        for seed in range(30):
            base = random_formula(seed, n=n, size=3 * n)
            for body in (base, Not(base)):
                assert_search(full_span(body, n))


def drawn_node(draw, budget):
    """An AST of at most `budget` nodes, drawn node by node."""
    if budget >= 3 and draw(st.booleans()):
        left = draw(st.integers(1, budget - 2))
        kind = draw(st.sampled_from([And, Or]))
        return kind(drawn_node(draw, left), drawn_node(draw, budget - 1 - left))
    if budget >= 2 and draw(st.booleans()):
        return Not(drawn_node(draw, budget - 1))
    return draw(st.one_of(st.builds(Var, st.integers(1, MAX_VAR_INDEX)),
                          st.builds(Const, st.booleans())))


@st.composite
def constructed_formulas(draw):
    """ASTs of at most 25 nodes built straight from the constructors, with
    indices anywhere in 1..MAX_VAR_INDEX and bool constants."""
    return drawn_node(draw, draw(st.integers(1, 25)))


class TestConstructedFormulas:
    """An AST needs no parse to be a formula: the leaf constructors admit
    only the leaves parse accepts, so every AST round-trips and meets
    Theorem 1."""

    @settings(deadline=None)
    @given(constructed_formulas())
    def test_round_trip_and_machine_equals_reference(self, formula):
        assert parse(serialize(formula)) == formula
        assert decide_oddmaxsat(formula) == odd_max_sat_ref(formula)


def renamed(formula, targets):
    """`formula` with each x_k written as x_targets[k-1]."""
    kind = type(formula)
    if kind is Var:
        return Var(targets[formula.index - 1])
    if kind is Const:
        return formula
    if kind is Not:
        return Not(renamed(formula.child, targets))
    return kind(renamed(formula.left, targets), renamed(formula.right, targets))


class TestGapInvariance:
    """A formula's indices moved apart, in order, change no answer: the
    search runs over the variables that occur, and the new gaps read true."""

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.data())
    def test_spread_indices_give_the_spread_witness(self, seed, m, data):
        formula = random_formula(seed, n=m, size=25)
        targets = sorted(data.draw(st.sets(st.integers(1, MAX_VAR_INDEX), min_size=m, max_size=m)))
        gapped = renamed(formula, targets)
        witness = lexmax(formula)
        expected = None
        if witness is not None:
            n = len(witness)
            spread = [True] * (targets[n - 1] if n else 0)
            for k in range(n):
                spread[targets[k] - 1] = witness[k]
            expected = tuple(spread)
        assert lexmax(gapped) == expected, serialize(gapped)
        assert lexmax_greedy(gapped) == expected, serialize(gapped)
        assert sat_bruteforce(gapped) is sat_bruteforce(formula) is (witness is not None)
        assert odd_max_sat_ref(gapped) is odd_max_sat_ref(formula)
