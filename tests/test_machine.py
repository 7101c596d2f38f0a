"""The oracle machine: case table, runs, transcripts, and the query tree."""

from __future__ import annotations

import random
import zlib

import pytest
from hypothesis import given, settings

from conftest import any_text, reachable_query_wires, reference_lexmax
from oddmax.formula import (
    And,
    Const,
    Not,
    ParseError,
    Var,
    num_vars,
    parse,
    random_formula,
    serialize,
    substitute,
)
from oddmax.corpus import random_corpus
from oddmax.machine import (
    Iteration,
    IterationCase,
    MUTANT_PROGRAMS,
    STANDARD_PROGRAM,
    QueryRecord,
    Transcript,
    TreeLeaf,
    TreeNode,
    build_query_tree,
    classify_case,
    decide_oddmaxsat,
    query_universe,
    run_machine,
    tree_to_json,
    tree_verdict,
)
import oddmax.machine
import oddmax.oracle
from oddmax.oracle import FiniteOracle, Query, sat_join_cosat
from oddmax.sat import odd_max_sat_ref


class TestClassifyCase:
    def test_yes_no_pins_true(self):
        assert classify_case(True, False) is IterationCase.FIX_TRUE

    def test_no_yes_pins_false(self):
        assert classify_case(False, True) is IterationCase.FIX_FALSE

    def test_yes_yes_accepts(self):
        assert classify_case(True, True) is IterationCase.ACCEPT_BOTH

    def test_no_no_rejects(self):
        assert classify_case(False, False) is IterationCase.REJECT_BOTH


class TestRunMachine:
    def test_rejects_non_formula_with_empty_transcript(self):
        transcript = run_machine("zzz", sat_join_cosat)
        assert transcript.verdict is False
        assert transcript.well_formed is False
        assert transcript.iterations == ()

    def test_all_yes_oracle_accepts_at_first_iteration(self):
        transcript = run_machine("x1", lambda q: True)
        assert transcript.verdict is True
        assert len(transcript.iterations) == 1
        assert transcript.iterations[0].case is IterationCase.ACCEPT_BOTH

    def test_empty_oracle_rejects_at_first_iteration(self):
        transcript = run_machine("x1", lambda q: False)
        assert transcript.verdict is False
        assert transcript.iterations[0].case is IterationCase.REJECT_BOTH

    def test_xor_run_under_the_true_oracle(self):
        # Lex-max of the 4 assignments is 10, so x2 ends false: reject.
        transcript = run_machine("((x1|x2)&(!x1|!x2))", sat_join_cosat)
        assert transcript.verdict is False
        assert [it.case for it in transcript.iterations] == [
            IterationCase.FIX_TRUE,
            IterationCase.FIX_FALSE,
        ]
        assert transcript.query_count() == 4

    def test_queries_share_body_with_tags_in_order(self):
        transcript = run_machine("(x1&(x2&x3))", sat_join_cosat)
        for it in transcript.iterations:
            r0, r1 = it.records
            assert r0.query.body == r1.query.body
            assert (r0.query.tag, r1.query.tag) == ("0", "1")

    def test_constant_formula_rejects_without_queries(self):
        transcript = run_machine("1", sat_join_cosat)
        assert transcript.well_formed is True
        assert transcript.verdict is False
        assert transcript.iterations == ()

    def test_transcript_json_shape(self):
        payload = run_machine("x1", sat_join_cosat).to_json()
        assert payload["wellFormed"] is True
        assert payload["verdict"] == "accept"
        assert payload["iterations"][0]["queries"][0] == {
            "string": "10",
            "tag": "0",
            "answer": True,
        }


def reference_run_machine(text, oracle, program):
    """The loop as it ran before continuations reused the pinned formula:
    every continuation substitutes again."""
    try:
        formula = parse(text)
    except ParseError:
        return Transcript(text, False, (), False)
    n = num_vars(formula)
    iterations = []
    current = formula
    verdict = False
    for i in range(1, n + 1):
        body = serialize(substitute(current, i, True))
        q0, q1 = Query(body, "0"), Query(body, "1")
        ans0, ans1 = oracle(q0), oracle(q1)
        case = classify_case(ans0, ans1)
        iterations.append(Iteration(i, (QueryRecord(q0, ans0), QueryRecord(q1, ans1)), case))
        if case is IterationCase.ACCEPT_BOTH:
            verdict = program.accept_both_verdict
            break
        if case is IterationCase.REJECT_BOTH:
            verdict = program.reject_both_verdict
            break
        if case is IterationCase.FIX_TRUE:
            if i == n:
                verdict = program.fix_true_final
                break
            current = substitute(current, i, program.fix_true_value)
        else:
            if i == n:
                verdict = program.fix_false_final
                break
            current = substitute(current, i, program.fix_false_value)
    return Transcript(text, True, tuple(iterations), verdict)


class TestReusedPin:
    @pytest.mark.parametrize(
        "program", [STANDARD_PROGRAM, *MUTANT_PROGRAMS.values()],
        ids=["standard", *MUTANT_PROGRAMS],
    )
    def test_equals_the_substituting_loop(self, program, corpus):
        formulas = corpus + random_corpus(500, max_vars=8, size=25, seed=88)
        for formula in formulas:
            text = serialize(formula)
            expected = reference_run_machine(text, sat_join_cosat, program)
            assert run_machine(text, sat_join_cosat, program).to_json() == expected.to_json(), text


def noncanonical_text(formula, rng):
    """Print an AST as parseable text that is mostly not canonical: binary
    nodes lose their parentheses or gain redundant ones, and negations stack.
    The text may parse to a different AST; both loops parse the same text."""
    kind = type(formula)
    if kind is Var or kind is Const:
        text = serialize(formula)
    elif kind is Not:
        text = "!" * rng.choice([1, 1, 3]) + noncanonical_text(formula.child, rng)
    else:
        op = "&" if kind is And else "|"
        text = noncanonical_text(formula.left, rng) + op + noncanonical_text(formula.right, rng)
        if rng.randrange(2):
            text = f"({text})"
    return f"({text})" if rng.randrange(6) == 0 else text


def hashed_oracle(query):
    """Answers that reach every case of the table, not only the two pin cases."""
    return zlib.crc32(query.wire().encode()) % 3 != 0


NONCANONICAL_TEXTS = [
    "x1&x2|x3", "x1|x2&x3", "!x1&!x2|x3&x4", "x3|x1&!x2|x1",
    "((x1))", "(((x1&x2))|(x3))", "((!(x2)))&x1",
    "!!x1", "!!!(x1|x2)", "!(!x1&!!x2)",
    "(1&x1)", "x3|0", "!1|x2&0", "((0|x1)&!1)",
    "(x1&x5)", "x3", "(x2|!x7)", "x1&x4&x9",
    "x1&x10&x11", "x2|x20", "x100&x1", "(x10|!x1)&x11", "x12&x1&x2",
    "1", "0", "(1&!0)", "!!1",
    "", "x0", "x1&", "(x1", "x101", "zzz", "x1 & x2", "(x1&x2))",
]


class TestTextPinning:
    """run_machine writes bodies into the input's canonical text; the
    substituting loop builds and serializes a new AST per iteration."""

    @pytest.mark.parametrize(
        "program", [STANDARD_PROGRAM, *MUTANT_PROGRAMS.values()],
        ids=["standard", *MUTANT_PROGRAMS],
    )
    def test_equals_the_substituting_loop_on_noncanonical_text(self, program):
        rng = random.Random(909)
        printed = [
            noncanonical_text(random_formula(seed, rng.randint(1, 12), 25), rng)
            for seed in range(1000)
        ]
        assert sum(text != serialize(parse(text)) for text in printed) > 700
        for oracle in (sat_join_cosat, hashed_oracle):
            for text in NONCANONICAL_TEXTS + printed:
                expected = reference_run_machine(text, oracle, program).to_json()
                assert run_machine(text, oracle, program).to_json() == expected, text

    def test_one_serialize_and_no_ast_walk_per_run(self, monkeypatch):
        calls: dict[str, int] = {}
        for name in ("serialize", "substitute", "num_vars"):
            original = getattr(oddmax.machine, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args)

            monkeypatch.setattr(oddmax.machine, name, counting)
        transcript = run_machine("(((x1|x2)&(x3|!x4))&((x5|x6)&(!x7|x8)))", sat_join_cosat)
        assert len(transcript.iterations) == 8
        assert calls.get("serialize", 0) <= 1
        assert calls.get("substitute", 0) == 0
        assert calls.get("num_vars", 0) == 0


class TestBodyMemo:
    def test_each_iteration_costs_one_solver_call(self, monkeypatch):
        solved: list[str] = []
        searched: list[object] = []
        original = oddmax.oracle.text_satisfiable

        def counting(text):
            solved.append(text)
            return original(text)

        oddmax.oracle._body_sat.cache_clear()
        monkeypatch.setattr(oddmax.oracle, "text_satisfiable", counting)
        monkeypatch.setattr(oddmax.sat, "sat_dpll", searched.append)
        text = "((x1|x2)&(!x1|!x3))"
        cold = run_machine(text, sat_join_cosat)
        k = len(cold.iterations)
        assert k == 3 and cold.query_count() == 2 * k
        assert len(solved) == k
        warm = run_machine(text, sat_join_cosat)
        assert len(solved) == k
        assert warm.to_json() == cold.to_json()
        # Three variables are folded as a truth table, never searched.
        assert searched == []


class TestDecide:
    def test_single_variable_accepts(self):
        assert decide_oddmaxsat(parse("x1")) is True

    def test_negated_variable_rejects(self):
        assert decide_oddmaxsat(parse("!x1")) is False

    def test_implication_accepts(self):
        assert decide_oddmaxsat(parse("(!x1|x2)")) is True

    def test_agrees_with_reference_on_random_batch(self):
        for seed in range(300):
            formula = random_formula(seed, n=6, size=20)
            if num_vars(formula) == 0:
                continue
            assert decide_oddmaxsat(formula) == odd_max_sat_ref(formula), serialize(formula)


class TestTrueOracleRuns:
    def test_only_pin_cases_and_full_depth(self, corpus):
        for formula in corpus:
            transcript = run_machine(serialize(formula), sat_join_cosat)
            n = num_vars(formula)
            assert len(transcript.iterations) == n
            for it in transcript.iterations:
                assert it.case in (IterationCase.FIX_TRUE, IterationCase.FIX_FALSE)

    def test_pinned_bits_equal_the_lexmax_witness(self, corpus):
        for formula in corpus:
            if num_vars(formula) == 0:
                continue
            witness = reference_lexmax(formula)
            if witness is None:
                continue
            transcript = run_machine(serialize(formula), sat_join_cosat)
            assert transcript.fixed_bits() == witness


class TestQueryUniverse:
    @pytest.mark.parametrize(
        "text,size",
        [("x1", 2), ("(x1&x2)", 6), ("(x1&(x2&x3))", 14)],
    )
    def test_full_depth_sizes(self, text, size):
        assert len(query_universe(parse(text))) == size

    def test_matches_independent_expansion(self, corpus):
        for formula in corpus:
            if num_vars(formula) > 4:
                continue
            wires = {query.wire() for query in query_universe(formula)}
            assert wires == reachable_query_wires(formula)

    def test_gapped_formula_collapses_branches(self):
        universe = query_universe(parse("(x1&x3)"))
        assert len(universe) == len(reachable_query_wires(parse("(x1&x3)")))
        assert len(universe) < 14

    def test_bound_exceeded(self):
        wide = parse("(x1|x11)")
        with pytest.raises(ValueError):
            query_universe(wide)


def reference_build_node(formula, i, n, program):
    """The tree node as it was built with three substitutes per node: the
    pinned body, then each continuation substituted afresh."""
    body = serialize(substitute(formula, i, True))
    queries = (Query(body, "0"), Query(body, "1"))

    def continuation(value, final):
        if i == n:
            return TreeLeaf(final)
        return reference_build_node(substitute(formula, i, value), i + 1, n, program)

    edges = (
        (IterationCase.FIX_TRUE, continuation(program.fix_true_value, program.fix_true_final)),
        (IterationCase.FIX_FALSE, continuation(program.fix_false_value, program.fix_false_final)),
        (IterationCase.ACCEPT_BOTH, TreeLeaf(program.accept_both_verdict)),
        (IterationCase.REJECT_BOTH, TreeLeaf(program.reject_both_verdict)),
    )
    return TreeNode(i, formula, queries, edges)


class TestQueryTree:
    def test_single_variable_tree_is_one_node_with_four_leaves(self):
        tree = build_query_tree(parse("x1"))
        assert isinstance(tree, TreeNode)
        assert tree.iteration == 1
        children = [child for _, child in tree.edges]
        assert all(isinstance(child, TreeLeaf) for child in children)
        assert tree.edge(IterationCase.FIX_TRUE).verdict is True
        assert tree.edge(IterationCase.FIX_FALSE).verdict is False
        assert tree.edge(IterationCase.ACCEPT_BOTH).verdict is True
        assert tree.edge(IterationCase.REJECT_BOTH).verdict is False

    def test_two_variable_tree_has_two_continuation_children(self):
        tree = build_query_tree(parse("(x1&x2)"))
        continuations = [
            tree.edge(IterationCase.FIX_TRUE),
            tree.edge(IterationCase.FIX_FALSE),
        ]
        assert all(isinstance(child, TreeNode) for child in continuations)
        assert {serialize(child.formula) for child in continuations} == {
            "(1&x2)",
            "(0&x2)",
        }
        assert isinstance(tree.edge(IterationCase.ACCEPT_BOTH), TreeLeaf)

    def test_constant_formula_is_a_reject_leaf(self):
        assert build_query_tree(parse("1")) == TreeLeaf(False)

    def test_bound_exceeded(self):
        with pytest.raises(ValueError):
            build_query_tree(parse("(x1|x11)"))

    @pytest.mark.parametrize(
        "program", [STANDARD_PROGRAM, *MUTANT_PROGRAMS.values()],
        ids=["standard", *MUTANT_PROGRAMS],
    )
    def test_equals_the_three_substitute_build(self, program, corpus):
        built = 0
        for formula in corpus:
            n = num_vars(formula)
            if not 1 <= n <= 8:
                continue
            tree = build_query_tree(formula, program)
            expected = reference_build_node(formula, 1, n, program)
            assert tree == expected, serialize(formula)
            assert tree_to_json(tree) == tree_to_json(expected), serialize(formula)
            built += 1
        assert built >= 60

    def test_runs_trace_root_to_leaf_paths(self, corpus):
        rng = random.Random(42)
        for formula in corpus:
            n = num_vars(formula)
            if not 1 <= n <= 4:
                continue
            tree = build_query_tree(formula)
            universe = sorted(query_universe(formula), key=Query.wire)
            for _ in range(10):
                members = frozenset(
                    query for query in universe if rng.randrange(2)
                )
                oracle = FiniteOracle(frozenset(universe), members)
                transcript = run_machine(serialize(formula), oracle)
                node = tree
                for it in transcript.iterations:
                    assert isinstance(node, TreeNode)
                    assert node.queries == (it.records[0].query, it.records[1].query)
                    assert node.iteration == it.index
                    node = node.edge(it.case)
                assert isinstance(node, TreeLeaf)
                assert node.verdict == transcript.verdict

    def test_tree_verdict_matches_run_machine_for_all_programs(self, corpus):
        rng = random.Random(7)
        programs = [STANDARD_PROGRAM, *MUTANT_PROGRAMS.values()]
        for formula in corpus:
            if not 1 <= num_vars(formula) <= 3:
                continue
            text = serialize(formula)
            universe = frozenset(query_universe(formula))
            ordered = sorted(universe, key=Query.wire)
            for program in programs:
                tree = build_query_tree(formula, program)
                for _ in range(5):
                    members = frozenset(q for q in ordered if rng.randrange(2))
                    oracle = FiniteOracle(universe, members)
                    assert tree_verdict(tree, oracle) == run_machine(
                        text, oracle, program
                    ).verdict


class TestRestrictionSufficiency:
    def test_answers_outside_the_universe_never_matter(self, corpus):
        rng = random.Random(11)
        for formula in corpus:
            if not 1 <= num_vars(formula) <= 4:
                continue
            text = serialize(formula)
            universe = frozenset(query_universe(formula))
            ordered = sorted(universe, key=Query.wire)
            for _ in range(5):
                members = frozenset(q for q in ordered if rng.randrange(2))

                def restricted(query: Query) -> bool:
                    return query in members

                def noisy(query: Query) -> bool:
                    if query in universe:
                        return query in members
                    return bool(zlib.crc32(query.wire().encode()) & 1)

                assert (
                    run_machine(text, restricted).verdict
                    == run_machine(text, noisy).verdict
                )


class TestTotality:
    """run_machine and the join oracle answer every string without raising."""

    def test_index_beyond_the_cap_is_rejected_without_queries(self):
        transcript = run_machine("x99999999", sat_join_cosat)
        assert not transcript.well_formed
        assert transcript.iterations == ()
        assert transcript.verdict is False

    @settings(deadline=None)
    @given(any_text)
    def test_never_raise_on_any_text(self, text):
        try:
            parse(text)
            parses = True
        except ParseError:
            parses = False
        assert run_machine(text, sat_join_cosat).well_formed is parses
        for tag in "01":
            answer = sat_join_cosat(Query(text, tag))
            assert answer is False or (parses and answer is True)
