"""Formula AST: parsing, canonical form, substitution, evaluation."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, strategies as st

from conftest import any_text, reference_tokens
from oddmax import formula as formula_module
from oddmax.formula import (
    MAX_VAR_INDEX,
    And,
    Const,
    Not,
    Or,
    ParseError,
    Var,
    _VARIABLE,
    _tokens,
    canonical,
    evaluate,
    num_vars,
    parse,
    random_formula,
    serialize,
    substitute,
)
from oddmax.sat import _assign

leaves = st.one_of(
    st.builds(Var, st.integers(min_value=1, max_value=6)),
    st.builds(Const, st.booleans()),
)
formulas = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub)
    ),
    max_leaves=25,
)


class TestParse:
    def test_single_variable(self):
        assert parse("x1") == Var(1)

    def test_and_with_negation(self):
        assert parse("(x1&!x2)") == And(Var(1), Not(Var(2)))

    def test_constants(self):
        assert parse("0") == Const(False)
        assert parse("1") == Const(True)

    def test_chains_associate_left(self):
        assert parse("x1&x2&x3") == And(And(Var(1), Var(2)), Var(3))
        assert parse("x1|x2|x3") == Or(Or(Var(1), Var(2)), Var(3))

    def test_and_binds_tighter_than_or(self):
        assert parse("x1|x2&x3") == Or(Var(1), And(Var(2), Var(3)))
        assert parse("x1&x2|x3") == Or(And(Var(1), Var(2)), Var(3))

    def test_redundant_parens_are_grouping_only(self):
        assert parse("((x1))") == Var(1)

    def test_multi_digit_index(self):
        assert parse("x10") == Var(10)

    @pytest.mark.parametrize(
        "text",
        ["x0", "x01", "", "x", "(x1", "x1)", "x1 ", " x1", "x1&&x2", "y1", "!(", "x1|"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse("(x1&x0)")
        assert excinfo.value.position == 5
        assert "position 5" in str(excinfo.value)


def reference_parse(text: str):
    """The recursive-descent parser the token loop replaced, kept as the
    reference the loop must match on every input."""
    ast, pos = _ref_or(text, 0)
    if pos != len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    return ast


def _ref_or(text, pos):
    node, pos = _ref_and(text, pos)
    while pos < len(text) and text[pos] == "|":
        right, pos = _ref_and(text, pos + 1)
        node = Or(node, right)
    return node, pos


def _ref_and(text, pos):
    node, pos = _ref_lit(text, pos)
    while pos < len(text) and text[pos] == "&":
        right, pos = _ref_lit(text, pos + 1)
        node = And(node, right)
    return node, pos


def _ref_lit(text, pos):
    if pos >= len(text):
        raise ParseError("unexpected end of input", pos)
    ch = text[pos]
    if ch == "!":
        child, pos = _ref_lit(text, pos + 1)
        return Not(child), pos
    if ch == "(":
        node, pos = _ref_or(text, pos + 1)
        if pos >= len(text) or text[pos] != ")":
            raise ParseError("expected ')'", pos)
        return node, pos + 1
    if ch == "0":
        return Const(False), pos + 1
    if ch == "1":
        return Const(True), pos + 1
    if ch == "x":
        start = pos + 1
        digits = "0123456789"
        if start >= len(text) or text[start] not in digits:
            raise ParseError("expected variable index after 'x'", start)
        if text[start] == "0":
            raise ParseError("variable index must be >= 1", start)
        end = start
        while end < len(text) and text[end] in digits:
            end += 1
        width = len(str(MAX_VAR_INDEX))
        index = int(text[start:end]) if end - start <= width else MAX_VAR_INDEX + 1
        if index > MAX_VAR_INDEX:
            raise ParseError(f"variable index exceeds {MAX_VAR_INDEX}", start)
        return Var(index), end
    raise ParseError(f"unexpected character {ch!r}", pos)


def parse_outcome(parser, text):
    """The AST, or the ParseError's message and position."""
    try:
        return parser(text)
    except ParseError as error:
        return (str(error), error.position)


class TestParserReference:
    ALPHABET = "x!()&|01293 a\n"

    def reference_texts(self):
        rng = random.Random(2024)
        texts = ["x\u00b2", "x1\u00b2", "x\u0661"]
        for seed in range(200):
            n = MAX_VAR_INDEX if seed % 10 == 0 else rng.randint(1, 12)
            canonical = serialize(random_formula(seed, n, rng.randint(1, 14)))
            texts.append(canonical)
            for i in range(len(canonical)):
                texts.append(canonical[:i] + canonical[i + 1:])
                texts.extend(
                    canonical[:i] + ch + canonical[i + 1:] for ch in self.ALPHABET
                )
        for _ in range(20_000):
            texts.append("".join(rng.choices(self.ALPHABET, k=rng.randint(0, 12))))
        # Well-formed text with the unparenthesized chains, mixed precedence
        # and redundant parentheses that canonical text lacks, and each with
        # one character deleted.
        for _ in range(8_000):
            text = self.surface_text(rng, depth=3)
            cut = rng.randrange(len(text))
            texts += [text, text[:cut] + text[cut + 1:]]
        return texts

    def surface_text(self, rng, depth):
        parts = []
        for k in range(rng.randint(1, 3)):
            if k:
                parts.append(rng.choice("&|"))
            parts.append("!" * rng.choice([0, 0, 1, 2]))
            if depth and rng.randrange(3) == 0:
                parts.append(f"({self.surface_text(rng, depth - 1)})")
            else:
                parts.append(rng.choice(["x1", "x2", "x10", "0", "1"]))
        return "".join(parts)

    def test_matches_the_recursive_descent_parser(self):
        texts = self.reference_texts()
        assert len(texts) >= 60_000
        for text in texts:
            assert parse_outcome(parse, text) == parse_outcome(reference_parse, text), repr(text)

    def test_canonical_is_serialize_after_parse(self):
        texts = self.reference_texts()
        assert sum(isinstance(parse_outcome(parse, text), tuple) for text in texts) > 20_000
        for text in texts:
            expected = parse_outcome(parse, text)
            if not isinstance(expected, tuple):
                expected = serialize(expected)
            assert parse_outcome(canonical, text) == expected, repr(text)

    def test_deep_parentheses_do_not_recurse(self):
        assert parse("(" * 10_000 + "x1" + ")" * 10_000) == Var(1)

    def test_canonical_takes_any_depth(self):
        assert canonical("!" * 5000 + "((x1&x2))") == "!" * 5000 + "(x1&x2)"
        operands = ["x1", "x2"] * 1500
        expected = "(" * 2999 + "x1" + "".join(f"|{x})" for x in operands[1:])
        assert canonical("|".join(operands)) == expected


class TestTokens:
    """The one tokenizer of parse, canonical and text_satisfiable splits the
    text once at its variable tokens; the reference matches token by token."""

    @given(any_text)
    @example("x")
    @example("x0")
    @example("x012")
    @example("x101")
    @example("x\u0661")
    @example("x\u00b2")
    @example("(x1&x)")
    @example("xx1x")
    @example("x1\nx2")
    @example("\tx1\t")
    @example("(x10|!x2)&x100")
    def test_equals_the_reference_tokenizer(self, text):
        tokens = _tokens(_VARIABLE.split(text))
        assert tokens == reference_tokens(text)
        assert "".join(tokens) == text


class TestSharedLeaves:
    def test_parse_substitute_and_folding_return_the_shared_leaves(self):
        formula = parse("(x3|!x3)")
        assert formula.left is formula.right.child is parse("x3")
        true, false = formula_module.TRUE, formula_module.FALSE
        assert parse("1") is true and parse("0") is false
        pinned = substitute(formula, 3, True)
        assert pinned.left is pinned.right.child is true
        assert substitute(Var(2), 2, False) is false
        assert _assign(Not(Var(1)), 1, true) is false
        assert _assign(Not(And(Var(1), Var(2))), 2, false) is true


class TestLimits:
    """parse bounds variable indices, so a run never loops past
    MAX_VAR_INDEX, and answers every short text with a formula or a
    ParseError."""

    def test_variable_index_cap(self):
        assert parse(f"x{MAX_VAR_INDEX}") == Var(MAX_VAR_INDEX)
        with pytest.raises(ParseError) as excinfo:
            parse(f"(x1&x{MAX_VAR_INDEX + 1})")
        assert excinfo.value.position == 5
        with pytest.raises(ParseError):
            parse("x" + "9" * 5000)

    def test_leaf_constructors_admit_only_the_leaves_parse_accepts(self):
        assert parse(serialize(Var(MAX_VAR_INDEX))) == Var(MAX_VAR_INDEX)
        for index in (0, -1):
            with pytest.raises(ValueError, match="variable index must be >= 1"):
                Var(index)
        for index in (MAX_VAR_INDEX + 1, 150, 10**6):
            with pytest.raises(ValueError, match=f"variable index exceeds {MAX_VAR_INDEX}"):
                Var(index)
        # An index parse never reads serializes to a token it rejects.
        for index in (True, 1.5, 2.0, "3"):
            with pytest.raises(ValueError, match="variable index must be an int"):
                Var(index)
        for value in (2, 0, 1, 1.0, None, "1"):
            with pytest.raises(ValueError, match="constant value must be a bool"):
                Const(value)

    @pytest.mark.parametrize("text", ["x\u00b2", "x1\u00b2", "x\u0661"])
    def test_only_ascii_digits_index_variables(self, text):
        with pytest.raises(ParseError):
            parse(text)

    @given(any_text)
    def test_any_text_parses_or_raises_parse_error(self, text):
        try:
            formula = parse(text)
        except ParseError:
            return
        assert parse(serialize(formula)) == formula


class TestSerialize:
    def test_canonical_form(self):
        assert serialize(And(Var(1), Const(True))) == "(x1&1)"
        assert serialize(Or(Not(Var(2)), Var(3))) == "(!x2|x3)"

    @given(formulas)
    def test_round_trip(self, formula):
        assert parse(serialize(formula)) == formula

    def test_round_trip_on_seeded_corpus(self):
        batch = [random_formula(seed, n=4, size=15) for seed in range(1000)]
        for formula in batch:
            assert parse(serialize(formula)) == formula

    def test_injective_on_large_random_corpus(self):
        asts = {random_formula(seed, n=6, size=25) for seed in range(25_000)}
        assert len(asts) >= 10_000
        assert len({serialize(f) for f in asts}) == len(asts)


class TestSubstitute:
    def test_replaces_matching_variable(self):
        assert substitute(parse("(x1&x2)"), 1, True) == And(Const(True), Var(2))

    def test_absent_variable_is_identity(self):
        assert substitute(Var(1), 2, False) == Var(1)

    def test_replaces_every_occurrence(self):
        assert substitute(parse("(x1|x1)"), 1, True) == Or(Const(True), Const(True))

    def test_no_constant_folding(self):
        # (1&1) stays a conjunction; the oracle handles constants semantically.
        assert substitute(parse("(x1&1)"), 1, True) == And(Const(True), Const(True))

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            substitute(Var(1), 0, True)

    @given(formulas, st.integers(1, 6), st.booleans(),
           st.lists(st.booleans(), min_size=6, max_size=6))
    def test_matches_pinning_the_assignment(self, formula, i, b, bits):
        assignment = tuple(bits)
        pinned = assignment[: i - 1] + (b,) + assignment[i:]
        assert evaluate(substitute(formula, i, b), assignment) == evaluate(formula, pinned)


class TestEvaluate:
    def test_standard_semantics(self):
        assert evaluate(parse("(x1&!x2)"), (True, False)) is True
        assert evaluate(parse("(x1&!x2)"), (True, True)) is False

    def test_constant_dominates(self):
        assert evaluate(parse("(1|x1)"), (False,)) is True

    def test_short_assignment_is_an_error(self):
        with pytest.raises(ValueError):
            evaluate(Var(1), ())


class TestNumVars:
    def test_maximum_index_counts_gaps(self):
        assert num_vars(parse("(x1&x3)")) == 3
        assert num_vars(parse("x2")) == 2

    def test_constant_formula_has_none(self):
        assert num_vars(parse("1")) == 0
        assert num_vars(parse("!(0&1)")) == 0


class TestRandomFormula:
    def test_deterministic(self):
        assert random_formula(1, 3, 9) == random_formula(1, 3, 9)

    def test_respects_bounds(self):
        def node_count(f):
            if isinstance(f, (Var, Const)):
                return 1
            if isinstance(f, Not):
                return 1 + node_count(f.child)
            return 1 + node_count(f.left) + node_count(f.right)

        for seed in range(500):
            formula = random_formula(seed, n=3, size=9)
            assert num_vars(formula) <= 3
            assert node_count(formula) <= 9

    def test_results_stay_within_the_index_cap(self):
        formula = random_formula(3, MAX_VAR_INDEX, 60)
        assert parse(serialize(formula)) == formula
        with pytest.raises(ValueError):
            random_formula(0, MAX_VAR_INDEX + 1, 5)

    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            random_formula(0, 1, 0)
        with pytest.raises(ValueError):
            random_formula(0, 0, 5)
