"""The oracle machine: case table, runs, transcripts, and the query tree."""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

import pytest
from hypothesis import given, settings

from conftest import (
    FAMILY,
    SMALL_TREE_TEXTS,
    TRICKY_TREE_TEXTS,
    any_text,
    reachable_query_wires,
    reference_lexmax,
    tree_queries,
)
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
    TREE_BOUND,
    QueryRecord,
    Transcript,
    TreeNode,
    build_query_tree,
    classify_case,
    decide_oddmaxsat,
    expand_runs,
    query_universe,
    render_tree,
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
        assert len(transcript.iterations) == 2

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


class TestRecords:
    """Iteration and QueryRecord are tuples; they read and refuse writes as
    the frozen records they replaced did."""

    def test_fields_read_by_name(self):
        first, last = run_machine("(x1&x2)", sat_join_cosat).iterations
        assert first.index == 1 and last.index == 2  # the field, not tuple.index
        r0, r1 = first.records
        assert r0.query == Query("(1&x2)", "0") and r0.answer is True
        assert r1.query == Query("(1&x2)", "1") and r1.answer is False
        assert first.case is IterationCase.FIX_TRUE
        assert first == Iteration(index=1, records=(r0, r1), case=IterationCase.FIX_TRUE)
        assert r0 == QueryRecord(query=Query("(1&x2)", "0"), answer=True)

    @pytest.mark.parametrize(
        "path, field",
        [((), "index"), ((), "records"), ((), "case"), ((0,), "query"), ((0,), "answer")],
    )
    def test_refuse_attribute_assignment(self, path, field):
        record = run_machine("(x1&x2)", sat_join_cosat).iterations[0]
        for k in path:
            record = record.records[k]
        with pytest.raises(AttributeError):
            setattr(record, field, None)


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


#: Answers that are not bools, read for their truth: 1 and "yes" are yes.
RAW_ANSWERS = (0, 1, "", "yes", None)


def raw_oracle(query):
    """Each raw answer by a hash of the query, so every case is reached."""
    return RAW_ANSWERS[zlib.crc32(query.wire().encode()) % len(RAW_ANSWERS)]


class TestStepTable:
    """Each program builds one table from classify_case and step, which the
    run and expand_runs read instead of calling them."""

    @pytest.mark.parametrize(
        "program", [*MUTANT_PROGRAMS.values(), *FAMILY],
        ids=[*MUTANT_PROGRAMS, *(f"family-{i:06b}" for i in range(len(FAMILY)))],
    )
    def test_equals_classify_case_and_step(self, program):
        for ans0 in (True, False):
            for ans1 in (True, False):
                case = classify_case(ans0, ans1)
                assert program._table[not ans0][not ans1] == (case, *program.step(case))

    @pytest.mark.parametrize(
        "program", [STANDARD_PROGRAM, *MUTANT_PROGRAMS.values()],
        ids=["standard", *MUTANT_PROGRAMS],
    )
    def test_non_bool_answers_equal_the_substituting_loop(self, program, corpus):
        texts = [serialize(formula) for formula in corpus]
        cases, answers = set(), set()
        for text in texts:
            expected = reference_run_machine(text, raw_oracle, program)
            transcript = run_machine(text, raw_oracle, program)
            assert transcript.to_json() == expected.to_json(), text
            records = [rec for it in transcript.iterations for rec in it.records]
            # The records keep the raw answers: 1 == True, so compare types too.
            raw = [raw_oracle(rec.query) for rec in records]
            assert [(type(rec.answer), rec.answer) for rec in records] == [(type(a), a) for a in raw]
            cases.update(it.case for it in transcript.iterations)
            answers.update(map(repr, raw))
        assert cases == set(IterationCase)
        assert answers == set(map(repr, RAW_ANSWERS))


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


def count_calls(monkeypatch, bindings):
    """Patch each existing (module, name) binding to count its calls, by name."""
    calls: dict[str, int] = {}
    for module, name in bindings:
        if name not in vars(module):
            continue
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


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

    @pytest.mark.parametrize(
        "program", FAMILY, ids=[f"family-{i:06b}" for i in range(len(FAMILY))]
    )
    def test_every_rule_table_equals_the_substituting_loop(self, program, corpus):
        texts = NONCANONICAL_TEXTS + [serialize(formula) for formula in corpus]
        for oracle in (sat_join_cosat, hashed_oracle):
            for text in texts:
                expected = reference_run_machine(text, oracle, program).to_json()
                assert run_machine(text, oracle, program).to_json() == expected, text

    def test_no_serialize_parse_or_ast_walk_per_run(self, monkeypatch):
        calls = count_calls(
            monkeypatch,
            [(module, name) for module in (oddmax.machine, oddmax.formula)
             for name in ("serialize", "parse", "substitute", "num_vars")],
        )
        transcript = run_machine("(((x1|x2)&(x3|!x4))&((x5|x6)&(!x7|x8)))", sat_join_cosat)
        assert len(transcript.iterations) == 8
        assert calls == {}


class TestDeepInput:
    """run_machine folds its input into canonical text without recursion, so
    depth costs nothing while the oracle can answer the bodies (at most 20
    distinct variables)."""

    @staticmethod
    def shape(transcript):
        return transcript.verdict, [it.case for it in transcript.iterations]

    def test_stacked_negations_run_as_their_shallow_equivalent(self):
        for count, shallow in ((5000, "(x1&x2)"), (5001, "!(x1&x2)")):
            deep = run_machine("!" * count + "(x1&x2)", sat_join_cosat)
            assert deep.well_formed
            assert self.shape(deep) == self.shape(run_machine(shallow, sat_join_cosat))
        assert run_machine("!" * 5000 + "(x1&x2)", sat_join_cosat).verdict is True

    def test_long_chain_runs_as_its_shallow_equivalent(self):
        operands = [f"x{k % 15 + 1}" for k in range(3000)]
        for op in "&|":
            deep = run_machine(op.join(operands), sat_join_cosat)
            shallow = run_machine(op.join(operands[:15]), sat_join_cosat)
            assert len(deep.iterations) >= 1
            assert self.shape(deep) == self.shape(shallow)


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
        assert k == 3
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
            assert tuple(it.case is IterationCase.FIX_TRUE for it in transcript.iterations) == witness


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

    @pytest.mark.parametrize(
        "program,texts",
        [(program, TRICKY_TREE_TEXTS) for program in (STANDARD_PROGRAM, *MUTANT_PROGRAMS.values())]
        + [(program, SMALL_TREE_TEXTS) for program in FAMILY],
        ids=["standard", *MUTANT_PROGRAMS, *(f"family-{i:06b}" for i in range(len(FAMILY)))],
    )
    def test_equals_the_query_trees_queries(self, program, texts):
        # "(1&!0)" is constant: no tree, so an empty universe.
        for text in [*texts, "(1&!0)"]:
            formula = parse(text)
            universe = query_universe(formula, program)
            assert universe == tree_queries(build_query_tree(formula, program)), text
            assert {q.wire() for q in universe} == reachable_query_wires(formula, program), text
        with pytest.raises(ValueError, match=f"exceeding the tree bound {TREE_BOUND}$"):
            query_universe(parse(f"(x1|x{TREE_BOUND + 1})"), program)


@dataclass(frozen=True)
class ReferenceNode:
    """A tree node as it was built on ASTs: `formula` is the node's AST."""

    iteration: int
    formula: object
    queries: tuple
    edges: tuple


def reference_build_node(formula, i, n, program):
    """The tree node as it was built with three substitutes per node: the
    pinned body, then each continuation substituted afresh."""
    body = serialize(substitute(formula, i, True))
    queries = (Query(body, "0"), Query(body, "1"))

    def continuation(value, final):
        if i == n:
            return final
        return reference_build_node(substitute(formula, i, value), i + 1, n, program)

    edges = (
        (IterationCase.FIX_TRUE, continuation(program.fix_true_value, program.fix_true_final)),
        (IterationCase.FIX_FALSE, continuation(program.fix_false_value, program.fix_false_final)),
        (IterationCase.ACCEPT_BOTH, program.accept_both_verdict),
        (IterationCase.REJECT_BOTH, program.reject_both_verdict),
    )
    return ReferenceNode(i, formula, queries, edges)


def reference_tree_json(node):
    """`tree_to_json` as it read on AST nodes: the formula serialized."""
    if isinstance(node, bool):
        return {"verdict": "accept" if node else "reject"}
    return {
        "iteration": node.iteration,
        "formula": serialize(node.formula),
        "queries": [q.wire() for q in node.queries],
        "edges": {case.value: reference_tree_json(child) for case, child in node.edges},
    }


def assert_same_tree(tree, reference):
    """Node by node: the text is the reference AST's serialization, and the
    queries, edge cases and leaves are equal."""
    if isinstance(reference, bool):
        assert tree is reference
        return
    assert isinstance(tree, TreeNode)
    assert tree.iteration == reference.iteration
    assert tree.text == serialize(reference.formula)
    assert tree.queries == reference.queries
    assert [case for case, _ in tree.edges] == [case for case, _ in reference.edges]
    for (_, child), (_, expected) in zip(tree.edges, reference.edges):
        assert_same_tree(child, expected)


def wire_node(i, text, body, children):
    """A test-side `expand_runs` builder: the two wire strings, then the children."""
    return (body + "0", body + "1", *children)


def wire_layout(tree):
    """The query tree with each Query as its wire and (iteration, text) dropped."""
    if isinstance(tree, bool):
        return tree
    query0, query1, *children, _, _ = tree
    return (query0.wire(), query1.wire(), *map(wire_layout, children))


class TestQueryTree:
    def test_single_variable_tree_is_one_node_with_four_leaves(self):
        tree = build_query_tree(parse("x1"))
        assert isinstance(tree, TreeNode)
        assert tree.iteration == 1
        children = [child for _, child in tree.edges]
        assert all(isinstance(child, bool) for child in children)
        assert tree.fix_true is True
        assert tree.fix_false is False
        assert tree.accept_both is True
        assert tree.reject_both is False

    def test_two_variable_tree_has_two_continuation_children(self):
        tree = build_query_tree(parse("(x1&x2)"))
        continuations = [tree.fix_true, tree.fix_false]
        assert all(isinstance(child, TreeNode) for child in continuations)
        assert {child.text for child in continuations} == {
            "(1&x2)",
            "(0&x2)",
        }
        assert isinstance(tree.accept_both, bool)

    def test_constant_formula_is_a_reject_leaf(self):
        assert build_query_tree(parse("1")) is False

    def test_bound_exceeded(self):
        with pytest.raises(ValueError):
            build_query_tree(parse("(x1|x11)"))

    def test_hand_built_index_past_parse_cap_meets_the_bound(self):
        # Var(101) parses from no text, so no AST holds it: the constructor
        # raises parse's error before a tree is built.
        with pytest.raises(ValueError, match="variable index exceeds 100"):
            build_query_tree(And(Var(1), Var(101)))

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
            assert_same_tree(tree, expected)
            assert tree_to_json(tree) == reference_tree_json(expected), serialize(formula)
            built += 1
        assert built >= 60

    @pytest.mark.parametrize(
        "program,texts",
        [(program, TRICKY_TREE_TEXTS) for program in (STANDARD_PROGRAM, *MUTANT_PROGRAMS.values())]
        + [(program, SMALL_TREE_TEXTS) for program in FAMILY],
        ids=["standard", *MUTANT_PROGRAMS, *(f"family-{i:06b}" for i in range(len(FAMILY)))],
    )
    def test_equals_the_reference_on_gapped_and_prefix_texts(self, program, texts):
        for text in texts:
            formula = parse(text)
            tree = build_query_tree(formula, program)
            expected = reference_build_node(formula, 1, num_vars(formula), program)
            assert_same_tree(tree, expected)
            assert tree_to_json(tree) == reference_tree_json(expected), text
            assert render_tree(tree).splitlines()[0].startswith(f"[i=1] {text}  ")
        universe = query_universe(parse("(x1&x3)"), program)
        assert {q.wire() for q in universe} == reachable_query_wires(parse("(x1&x3)"), program)

    def test_one_serialize_and_no_ast_walk_per_build(self, monkeypatch):
        calls = count_calls(
            monkeypatch,
            [(oddmax.machine, "serialize")]
            + [(module, name) for module in (oddmax.machine, oddmax.formula)
               for name in ("substitute", "num_vars")],
        )
        tree = build_query_tree(parse("(((x1|x2)&(x3|!x4))&(x5|!x6))"))
        assert len(tree_queries(tree)) > 60
        assert calls.get("serialize", 0) <= 1
        assert calls.get("substitute", 0) == 0
        assert calls.get("num_vars", 0) == 0

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
                    node = getattr(node, it.case.name.lower())
                assert isinstance(node, bool)
                assert node == transcript.verdict

    @pytest.mark.parametrize(
        "program", FAMILY, ids=[f"family-{i:06b}" for i in range(len(FAMILY))]
    )
    def test_one_node_layout_and_the_run_order_of_queries(self, program, corpus):
        texts = SMALL_TREE_TEXTS + [serialize(f) for f in corpus if num_vars(f) <= 6]
        rng = random.Random(17)
        for text in texts:
            formula = parse(text)
            tree = build_query_tree(formula, program)
            wires = expand_runs(serialize(formula), program, wire_node)
            assert wire_layout(tree) == wires, text
            universe = frozenset(query_universe(formula, program))
            ordered = sorted(universe, key=Query.wire)
            for _ in range(5):
                oracle = FiniteOracle(universe, frozenset(q for q in ordered if rng.randrange(2)))
                asked = []

                def recording(query: Query) -> bool:
                    asked.append(query)
                    return oracle(query)

                verdict = tree_verdict(tree, recording)
                transcript = run_machine(text, oracle, program)
                assert asked == [rec.query for it in transcript.iterations for rec in it.records]
                assert [query.tag for query in asked] == ["0", "1"] * len(transcript.iterations)
                assert verdict == transcript.verdict

    def test_tree_verdict_matches_run_machine_for_all_programs(self, corpus):
        rng = random.Random(7)
        programs = [STANDARD_PROGRAM, *MUTANT_PROGRAMS.values(), *FAMILY]
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
                    expected = reference_run_machine(text, oracle, program)
                    assert run_machine(text, oracle, program).to_json() == expected.to_json()
                    assert tree_verdict(tree, oracle) == expected.verdict


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
