"""Monotonicity checking: exhaustive and sampled sweeps, mutants, reports."""

from __future__ import annotations

import random
from itertools import product

import pytest

import oddmax.machine
import oddmax.positivity
from conftest import FAMILY, SMALL_TREE_TEXTS, TRICKY_TREE_TEXTS, tree_queries
from oddmax.formula import num_vars, parse, serialize
from oddmax.machine import (
    IterationCase,
    MUTANT_PROGRAMS,
    MUTANT_SWAP_UNANIMOUS,
    MachineProgram,
    STANDARD_PROGRAM,
    TREE_BOUND,
    TreeNode,
    build_query_tree,
    classify_case,
    query_universe,
    run_machine,
    tree_verdict,
)
from oddmax.oracle import SUBSET_PAIR_BOUND, FiniteOracle, Query, mask_subset, sorted_universe
from oddmax.positivity import (
    _compile,
    _mask_verdict,
    check_positivity_exhaustive,
    check_positivity_sampled,
)


def reference_sampled(formula, samples, seed, program):
    """The sampled check as it stood with frozenset draws, written out here
    so that it shares no sampling code with the checker: (pairs checked,
    S wires, T wires) of the first violation, or (samples, None, None)."""
    tree = build_query_tree(formula, program)
    elements = sorted_universe(tree_queries(tree))
    k = len(elements)
    rng = random.Random(seed)
    for checked in range(1, samples + 1):
        large_bits = rng.getrandbits(k) if k else 0
        small_bits = large_bits & (rng.getrandbits(k) if k else 0)
        large = frozenset(q for i, q in enumerate(elements) if (large_bits >> i) & 1)
        small = frozenset(q for i, q in enumerate(elements) if (small_bits >> i) & 1)
        if tree_verdict(tree, small.__contains__) and not tree_verdict(
            tree, large.__contains__
        ):
            return checked, sorted(q.wire() for q in small), sorted(q.wire() for q in large)
    return samples, None, None


def reference_exhaustive(formula, program):
    """The exhaustive check as it stood with frozenset subsets and a
    frozenset-keyed verdict memo, written out here so that it shares no
    enumeration code with the checker: (pairs checked, S wires, T wires) of
    the first violation, or (3^|U|, None, None)."""
    tree = build_query_tree(formula, program)
    elements = sorted_universe(tree_queries(tree))
    verdicts: dict = {}

    def verdict(members):
        if members not in verdicts:
            verdicts[members] = tree_verdict(tree, members.__contains__)
        return verdicts[members]

    for checked, trits in enumerate(product(range(3), repeat=len(elements)), 1):
        small = frozenset(q for q, t in zip(elements, trits) if t == 2)
        large = frozenset(q for q, t in zip(elements, trits) if t >= 1)
        if verdict(small) and not verdict(large):
            return checked, sorted(q.wire() for q in small), sorted(q.wire() for q in large)
    return checked, None, None


def reference_mask_tree(tree, bit):
    """The sampled check's compile as it stood on the query tree: each
    TreeNode becomes (bit of query 0, bit of query 1, *children in edge
    order), each leaf its verdict; `bit` maps each Query to its mask bit."""
    if not isinstance(tree, TreeNode):
        return tree
    q0, q1 = tree.queries
    return (bit[q0], bit[q1], *(reference_mask_tree(child, bit) for _, child in tree.edges))


def outcome(report):
    """(pairs checked, S wires, T wires) of a report, as the references give it."""
    if report.ok:
        return report.pairs_checked, None, None
    payload = report.to_json()["result"]
    return report.pairs_checked, payload["S"], payload["T"]


def replay(report, program):
    """Re-check a violation with two fresh machine runs."""
    violation = report.violation
    small = run_machine(report.formula, violation.small, program).verdict
    large = run_machine(report.formula, violation.large, program).verdict
    return small, large


class TestExhaustive:
    def test_single_variable_is_clean(self):
        report = check_positivity_exhaustive(parse("x1"))
        assert report.ok
        assert report.universe_size == 2
        assert report.pairs_checked == 9
        assert report.mode == "exhaustive"

    def test_xor_is_clean(self):
        report = check_positivity_exhaustive(parse("((x1|x2)&(!x1|!x2))"))
        assert report.ok
        assert report.pairs_checked == 729

    def test_universe_bound_exceeded(self):
        with pytest.raises(ValueError):
            check_positivity_exhaustive(parse("(x1&(x2&x3))"))  # universe 14

    def test_unanimous_swap_mutant_is_caught_on_one_variable(self):
        report = check_positivity_exhaustive(parse("x1"), program=MUTANT_SWAP_UNANIMOUS)
        assert not report.ok
        violation = report.violation
        assert violation.small.members == frozenset()
        assert violation.small.members <= violation.large.members
        assert violation.small_verdict is True
        assert violation.large_verdict is False
        assert replay(report, MUTANT_SWAP_UNANIMOUS) == (True, False)

    def test_first_counterexample_on_two_variables_is_pinned(self):
        # Recorded from the frozenset enumeration before subsets became masks.
        payload = check_positivity_exhaustive(
            parse("(x1&x2)"), program=MUTANT_SWAP_UNANIMOUS
        ).to_json()
        assert payload["pairsChecked"] == 5
        assert payload["result"] == {"S": [], "T": ["(1&x2)0", "(1&x2)1"]}

    def test_clean_corpus_formulas(self, corpus):
        for formula in corpus:
            if num_vars(formula) > 2:
                continue
            assert check_positivity_exhaustive(formula).ok, serialize(formula)

    @pytest.mark.parametrize(
        "program", [STANDARD_PROGRAM, *MUTANT_PROGRAMS.values()],
        ids=["standard", *MUTANT_PROGRAMS],
    )
    def test_equals_the_frozenset_reference(self, program, corpus):
        checked = 0
        for formula in corpus:
            if num_vars(formula) > TREE_BOUND:
                continue
            if len(tree_queries(build_query_tree(formula, program))) > SUBSET_PAIR_BOUND:
                continue
            report = check_positivity_exhaustive(formula, program=program)
            assert outcome(report) == reference_exhaustive(formula, program), serialize(formula)
            checked += 1
        assert checked == 37
        if program is not STANDARD_PROGRAM:
            return
        # The family holds every program above; one case sweeps it on the gapped texts.
        checked = 0
        for family_program in FAMILY:
            for text in SMALL_TREE_TEXTS:
                formula = parse(text)
                if len(query_universe(formula, family_program)) > SUBSET_PAIR_BOUND:
                    continue
                report = check_positivity_exhaustive(formula, program=family_program)
                expected = reference_exhaustive(formula, family_program)
                assert outcome(report) == expected, (text, family_program)
                checked += 1
        assert checked == 288


class TestExhaustiveCost:
    """The exhaustive check walks the tree once per oracle mask and builds
    frozensets only to replay a violation."""

    def record(self, monkeypatch, name) -> list:
        calls = []
        original = getattr(oddmax.positivity, name)

        def recording(*args):
            result = original(*args)
            calls.append(result)
            return result

        monkeypatch.setattr(oddmax.positivity, name, recording)
        return calls

    def test_clean_check_walks_each_mask_once(self, monkeypatch):
        walks = self.record(monkeypatch, "tree_verdict")
        subsets = self.record(monkeypatch, "mask_subset")
        report = check_positivity_exhaustive(parse("((x1|x2)&(!x1|!x2))"))
        assert report.ok and report.universe_size == 6
        assert len(walks) == 2**6
        assert subsets == []

    def test_violation_builds_subsets_only_for_the_replay(self, monkeypatch):
        subsets = self.record(monkeypatch, "mask_subset")
        report = check_positivity_exhaustive(parse("(x1&x2)"), program=MUTANT_SWAP_UNANIMOUS)
        assert not report.ok
        assert subsets == [report.violation.small.members, report.violation.large.members]


class TestSampled:
    def test_five_variable_formula_is_clean(self):
        formula = parse("((x1&(x2|x3))|(x4&x5))")
        report = check_positivity_sampled(formula, samples=2000, seed=9)
        assert report.ok
        assert report.pairs_checked == 2000
        assert report.seed == 9

    def test_deterministic_for_fixed_seed(self):
        formula = parse("(x1&(x2&x3))")
        first = check_positivity_sampled(formula, samples=500, seed=21)
        second = check_positivity_sampled(formula, samples=500, seed=21)
        assert first == second

    def test_unanimous_swap_mutant_found_by_sampling(self):
        report = check_positivity_sampled(
            parse("(x1&(x2&x3))"), samples=10_000, seed=3,
            program=MUTANT_SWAP_UNANIMOUS,
        )
        assert not report.ok
        assert report.pairs_checked == 3  # frozen: third drawn pair violates
        assert replay(report, MUTANT_SWAP_UNANIMOUS) == (True, False)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_rejects_non_positive_sample_counts(self, samples):
        with pytest.raises(ValueError, match="samples"):
            check_positivity_sampled(parse("x1"), samples=samples)

    @pytest.mark.parametrize(
        "program", [STANDARD_PROGRAM, *MUTANT_PROGRAMS.values()],
        ids=["standard", *MUTANT_PROGRAMS],
    )
    def test_equals_the_frozenset_reference(self, program, corpus):
        for formula in corpus:
            if num_vars(formula) > 6:
                continue
            for seed in (0, 1, 2):
                report = check_positivity_sampled(formula, samples=60, seed=seed, program=program)
                payload = report.to_json()["result"]
                got = (
                    (report.pairs_checked, None, None)
                    if report.ok
                    else (report.pairs_checked, payload["S"], payload["T"])
                )
                expected = reference_sampled(formula, 60, seed, program)
                assert got == expected, (serialize(formula), seed)


def identity_formulas(corpus):
    """The curated formulas with n <= 6 and the gapped texts, which reach x10."""
    texts = dict.fromkeys(TRICKY_TREE_TEXTS + SMALL_TREE_TEXTS)
    return [f for f in corpus if num_vars(f) <= 6] + [parse(text) for text in texts]


class TestMaskTree:
    """The sampled check's compiled walk against `tree_verdict`."""

    @pytest.mark.parametrize(
        "program", [STANDARD_PROGRAM, *MUTANT_PROGRAMS.values()],
        ids=["standard", *MUTANT_PROGRAMS],
    )
    def test_agrees_with_tree_verdict_on_every_mask(self, program, corpus):
        checked = 0
        for formula in corpus:
            if num_vars(formula) > TREE_BOUND:
                continue
            tree = build_query_tree(formula, program)
            elements = sorted_universe(tree_queries(tree))
            if len(elements) > SUBSET_PAIR_BOUND:
                continue
            compiled = _compile(formula, program)[2]
            for mask in range(1 << len(elements)):
                expected = tree_verdict(tree, mask_subset(elements, mask).__contains__)
                assert _mask_verdict(compiled, mask) == expected, (serialize(formula), mask)
                assert tree_verdict(compiled, mask.__and__) == expected, (serialize(formula), mask)
                checked += 1
        assert checked > 4000

    @pytest.mark.parametrize("program", FAMILY, ids=[f"family-{i:06b}" for i in range(64)])
    def test_compile_and_universe_equal_the_query_tree_reference(self, program, corpus):
        for formula in identity_formulas(corpus):
            tree = build_query_tree(formula, program)
            universe = tree_queries(tree)
            elements = sorted_universe(universe)
            text, wires, compiled = _compile(formula, program)
            assert text == serialize(formula)
            assert wires == [q.wire() for q in elements], serialize(formula)
            bit = {q: 1 << i for i, q in enumerate(elements)}
            assert compiled == reference_mask_tree(tree, bit), serialize(formula)
            assert query_universe(formula, program) == universe, serialize(formula)

    def count_calls(self, monkeypatch, module, name) -> list:
        calls = []
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_sampled_check_never_walks_the_query_tree(self, monkeypatch):
        calls = self.count_calls(monkeypatch, oddmax.positivity, "tree_verdict")
        report = check_positivity_sampled(parse("((x1|x2)&(x3|x4))"), samples=500, seed=5)
        assert report.ok and report.pairs_checked == 500
        assert calls == []
        # The wrapper is live: the exhaustive sweep still walks the tree.
        assert check_positivity_exhaustive(parse("x1")).ok
        assert len(calls) == 4

    def test_neither_check_builds_a_query_tree(self, monkeypatch):
        assert not hasattr(oddmax.positivity, "build_query_tree")
        calls = self.count_calls(monkeypatch, oddmax.machine, "build_query_tree")
        report = check_positivity_sampled(parse("((x1|x2)&(x3|x4))"), samples=500, seed=5)
        assert report.ok and report.pairs_checked == 500
        report = check_positivity_exhaustive(parse("((x1|x2)&(!x1|!x2))"))
        assert report.ok and report.pairs_checked == 729
        assert calls == []
        # Nor does the query universe.
        assert len(query_universe(parse("x1"))) == 2
        assert calls == []
        # The wrapper is live: it counts the build itself.
        oddmax.machine.build_query_tree(parse("x1"))
        assert len(calls) == 1

    def test_checks_build_queries_only_to_replay_a_violation(self, monkeypatch):
        built = []
        original = Query.__new__

        def counting(cls, body, tag):
            built.append(body + tag)
            return original(cls, body, tag)

        monkeypatch.setattr(Query, "__new__", counting)
        report = check_positivity_sampled(parse("((x1|x2)&(x3|x4))"), samples=500, seed=5)
        assert report.ok and built == []
        report = check_positivity_exhaustive(parse("((x1|x2)&(!x1|!x2))"))
        assert report.ok and built == []
        for check, text, options in [
            (check_positivity_sampled, "(x1&(x2&x3))", {"samples": 10_000, "seed": 3}),
            (check_positivity_exhaustive, "(x1&x2)", {}),
        ]:
            built.clear()
            report = check(parse(text), program=MUTANT_SWAP_UNANIMOUS, **options)
            assert not report.ok
            # The universe's elements for the two finite oracles, then the
            # queries of the two replayed runs.
            k = report.universe_size
            assert built[:k] == sorted(q.wire() for q in report.violation.large.universe)
            assert len(built) > k, text

    def test_int_verdicts_expand_to_bool_leaves(self):
        # An int verdict as a leaf would stop no tree walk, which ends on a bool.
        ints = MachineProgram(accept_both_verdict=1, reject_both_verdict=0)
        rng = random.Random(23)
        for text in ("x1", "(x1&x2)"):
            formula = parse(text)
            assert check_positivity_exhaustive(formula, ints) == check_positivity_exhaustive(
                formula
            ), text
            assert check_positivity_sampled(formula, 200, 1, ints) == check_positivity_sampled(
                formula, 200, 1
            ), text
            tree = build_query_tree(formula, ints)
            universe = frozenset(query_universe(formula, ints))
            ordered = sorted(universe, key=Query.wire)
            for _ in range(8):
                oracle = FiniteOracle(universe, frozenset(q for q in ordered if rng.randrange(2)))
                verdict = tree_verdict(tree, oracle)
                assert type(verdict) is bool, text
                transcript = run_machine(text, oracle, ints)
                assert type(transcript.verdict) is bool, text
                assert verdict == transcript.verdict, text
                assert transcript.to_json() == run_machine(text, oracle).to_json(), text


class TestMutantReality:
    """Which case-table edits can actually break monotonicity.

    Two runs under nested oracles answer identically until the larger
    oracle strictly dominates an answer pair, and the only strict dominator
    of a mixed pair is yes/yes. So edits to the mixed-pair continuations or
    their end-of-loop verdicts leave the machine monotone; only the
    unanimous-pair verdicts are load-bearing. These sweeps pin that down.
    """

    @pytest.mark.parametrize("name", ["swap-continuations", "swap-final-verdicts"])
    def test_mixed_pair_mutants_stay_monotone(self, name, corpus):
        program = MUTANT_PROGRAMS[name]
        for formula in corpus:
            if num_vars(formula) > 2:
                continue
            assert check_positivity_exhaustive(formula, program=program).ok

    @pytest.mark.parametrize("name", ["swap-continuations", "swap-final-verdicts"])
    def test_mixed_pair_mutants_survive_sampling(self, name):
        program = MUTANT_PROGRAMS[name]
        for text in ["(x1&(x2&x3))", "((x1|x2)&x3)", "((x1|x2)&(x3|x4))"]:
            report = check_positivity_sampled(
                parse(text), samples=5000, seed=17, program=program
            )
            assert report.ok

    def test_unanimous_swap_mutant_is_caught_everywhere(self, corpus):
        for formula in corpus:
            if not 1 <= num_vars(formula) <= 2:
                continue
            report = check_positivity_exhaustive(formula, program=MUTANT_SWAP_UNANIMOUS)
            assert not report.ok, serialize(formula)


class TestCaseMonotonicity:
    def test_the_local_law_holds(self):
        # Over all 16 ordered answer-pair combinations, raising answers
        # pointwise can only move toward the accept-both case and away from
        # the reject-both case.
        pairs = list(product((False, True), repeat=2))
        for low in pairs:
            for high in pairs:
                if not (low[0] <= high[0] and low[1] <= high[1]):
                    continue
                low_case = classify_case(*low)
                high_case = classify_case(*high)
                if low_case is IterationCase.ACCEPT_BOTH:
                    assert high_case is IterationCase.ACCEPT_BOTH, (low, high)
                if high_case is IterationCase.REJECT_BOTH:
                    assert low_case is IterationCase.REJECT_BOTH, (low, high)

    def test_spotchecks(self):
        # no/no below yes/no: reject-both versus pin-true is consistent;
        # yes/no below yes/yes: pin-true versus accept-both is consistent.
        from oddmax.machine import IterationCase, classify_case

        assert classify_case(False, False) is IterationCase.REJECT_BOTH
        assert classify_case(True, False) is IterationCase.FIX_TRUE
        assert classify_case(True, True) is IterationCase.ACCEPT_BOTH


class TestReportJson:
    def test_ok_report(self):
        payload = check_positivity_exhaustive(parse("x1")).to_json()
        assert payload == {
            "formula": "x1",
            "mode": "exhaustive",
            "universeSize": 2,
            "pairsChecked": 9,
            "seed": None,
            "result": "ok",
        }

    def test_violation_report(self):
        payload = check_positivity_exhaustive(
            parse("x1"), program=MUTANT_SWAP_UNANIMOUS
        ).to_json()
        assert payload["result"] == {"S": [], "T": ["11"]}
        assert payload["pairsChecked"] == 2

    def test_sampled_report_carries_seed(self):
        payload = check_positivity_sampled(parse("x1"), samples=10, seed=4).to_json()
        assert payload["mode"] == "sampled"
        assert payload["seed"] == 4


@pytest.mark.parametrize(
    "check", [check_positivity_exhaustive, check_positivity_sampled], ids=["exhaustive", "sampled"]
)
class TestReportText:
    """The report text is the tree's root text: one serialize per check."""

    def count_serialize(self, monkeypatch) -> list:
        serialized = []
        for module in (oddmax.positivity, oddmax.machine):
            def counting(formula, _original=module.serialize):
                serialized.append(formula)
                return _original(formula)

            monkeypatch.setattr(module, "serialize", counting)
        return serialized

    def test_one_serialize_per_check(self, monkeypatch, check):
        serialized = self.count_serialize(monkeypatch)
        formula = parse("(x1|!x2)")
        assert check(formula).formula == "(x1|!x2)"
        assert serialized == [formula]

    def test_constant_formula_is_serialized_for_the_report(self, monkeypatch, check):
        serialized = self.count_serialize(monkeypatch)
        formula = parse("(!1|0)")
        report = check(formula)
        assert (report.formula, report.universe_size, report.ok) == ("(!1|0)", 0, True)
        assert serialized == [formula]
