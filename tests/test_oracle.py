"""Query strings, the join oracle, finite oracles, and subset-pair streams."""

from __future__ import annotations

import random
from itertools import islice, product

import pytest

from conftest import join_membership, reference_join, sorted_universe
from oddmax.formula import num_vars, parse
from oddmax.machine import query_universe
from oddmax.oracle import (
    BODY_MEMO_SIZE,
    TAGS,
    FiniteOracle,
    Query,
    enumerate_subset_pairs,
    mask_subset,
    sample_subset_pair,
    sat_join_cosat,
    subset_mask_draws,
    subset_pair_rank,
)
from oddmax.oracle import _body_sat as body_memo
from oddmax.sat import sat_bruteforce


def q(wire: str) -> Query:
    return Query.from_wire(wire)


class TestQuery:
    def test_wire_round_trip(self):
        query = Query("(x1&1)", "0")
        assert query.wire() == "(x1&1)0"
        assert Query.from_wire(query.wire()) == query

    def test_tag_is_final_character(self):
        assert Query.from_wire("x10") == Query("x1", "0")
        assert Query.from_wire("x11") == Query("x1", "1")

    @pytest.mark.parametrize("raw", ["", "x1x", "zz"])
    def test_rejects_untagged_strings(self, raw):
        with pytest.raises(ValueError):
            Query.from_wire(raw)

    def test_rejects_bad_tag(self):
        with pytest.raises(ValueError):
            Query("x1", "2")

    def test_equals_the_plain_tuple(self):
        query = Query("x1", "0")
        assert query == ("x1", "0") and hash(query) == hash(("x1", "0"))
        assert (query.body, query.tag) == ("x1", "0")


class TestJoinMembership:
    def test_tag_zero_asks_left(self):
        assert join_membership(q("x10"), {"x1"}, set()) is True

    def test_wrong_tag_misses(self):
        assert join_membership(q("x11"), {"x1"}, set()) is False

    def test_tag_one_asks_right(self):
        assert join_membership(q("x11"), set(), {"x1"}) is True

    def test_accepts_callables(self):
        assert join_membership(q("x10"), lambda body: body == "x1", set()) is True


class TestSatJoinCosat:
    def test_unsat_body_on_cosat_side(self):
        assert sat_join_cosat(q("(x1&!x1)1")) is True

    def test_sat_body_on_sat_side(self):
        assert sat_join_cosat(q("x10")) is True

    def test_sat_body_on_cosat_side(self):
        assert sat_join_cosat(q("x11")) is False

    def test_malformed_body_answers_false_on_both_tags(self):
        assert sat_join_cosat(Query("zzz", "0")) is False
        assert sat_join_cosat(Query("zzz", "1")) is False

    def test_index_beyond_the_cap_answers_false_on_both_tags(self):
        body = "x99999999"
        assert sat_join_cosat(Query(body, "0")) is False
        assert sat_join_cosat(Query(body, "1")) is False

    @pytest.mark.parametrize(
        "deep, shallow",
        [
            ("!" * 5000 + "(x1&x2)", "(x1&x2)"),
            ("!" * 5001 + "(x1&x2)", "!(x1&x2)"),
            ("!" * 5000 + "(x1&!x1)", "(x1&!x1)"),
            ("(" * 5000 + "x1&!x2" + ")" * 5000, "(x1&!x2)"),
            ("(" * 5000 + "x1&!x1" + ")" * 5000, "(x1&!x1)"),
            ("&".join(f"x{1 + k % 15}" for k in range(3000)),
             "&".join(f"x{i}" for i in range(1, 16))),
            ("&".join(f"x{1 + k % 15}" for k in range(2999)) + "&!x7",
             "&".join(f"x{i}" for i in range(1, 16)) + "&!x7"),
        ],
        ids=["5000-nots", "5001-nots", "5000-nots-unsat", "5000-parens", "5000-parens-unsat",
             "3000-chain", "3000-chain-unsat"],
    )
    def test_deep_bodies_answer_as_their_shallow_equivalents(self, deep, shallow):
        body_memo.cache_clear()
        for tag in TAGS:
            assert sat_join_cosat(Query(deep, tag)) is sat_join_cosat(Query(shallow, tag))

    def test_tags_answer_complementarily_on_formulas(self, corpus):
        # The engine behind the machine only ever seeing the two pin cases.
        from oddmax.formula import serialize

        for formula in corpus:
            body = serialize(formula)
            assert sat_join_cosat(Query(body, "0")) != sat_join_cosat(Query(body, "1"))


class TestOneQueryDecider:
    """The join oracle as Theorem 2's decider: one metered SAT call per query."""

    def test_unsat_body_tag_zero(self):
        assert sat_join_cosat(q("(x1&!x1)0"), []) is False

    def test_unsat_body_tag_one(self):
        assert sat_join_cosat(q("(x1&!x1)1"), []) is True

    def test_meters_exactly_one_call(self):
        calls: list[str] = []
        sat_join_cosat(q("(x1|x2)1"), calls)
        assert calls == ["(x1|x2)"]

    def test_malformed_body_makes_no_call(self):
        calls: list[str] = []
        assert sat_join_cosat(Query("zzz", "1"), calls) is False
        assert calls == []

    def test_body_in_the_memo_is_still_metered_once(self):
        body_memo.cache_clear()
        assert sat_join_cosat(q("(x1&x2)0")) is True
        hits = body_memo.cache_info().hits
        calls: list[str] = []
        assert sat_join_cosat(q("(x1&x2)1"), calls) is False
        assert body_memo.cache_info().hits == hits + 1
        assert calls == ["(x1&x2)"]
        assert sat_join_cosat(q("(x1&x2)0"), calls) is True
        assert calls == ["(x1&x2)", "(x1&x2)"]

    def test_agrees_with_join_oracle_on_universes(self, corpus):
        for formula in corpus:
            if not 1 <= num_vars(formula) <= 4:
                continue
            for query in sorted_universe(query_universe(formula)):
                calls: list[str] = []
                assert sat_join_cosat(query, calls) == reference_join(query)
                assert calls == [query.body]


class TestBodyMemo:
    """The memo behind the join oracle, checked against the truth-table back end."""

    def test_cold_and_warm_memo_match_the_truth_table(self, corpus):
        queries = [
            query
            for formula in corpus
            if 1 <= num_vars(formula) <= 6
            for query in sorted_universe(query_universe(formula))
        ]

        def check_all():
            for query in queries:
                expected = sat_bruteforce(parse(query.body))
                assert sat_join_cosat(query) == (expected if query.tag == "0" else not expected)

        body_memo.cache_clear()
        check_all()
        cold_misses = body_memo.cache_info().misses
        check_all()
        # Fewer distinct bodies than the bound: each is solved once, on the
        # cold pass, and the warm pass solves nothing.
        assert cold_misses == len({query.body for query in queries}) < BODY_MEMO_SIZE
        assert body_memo.cache_info().misses == cold_misses

    @pytest.mark.parametrize("body", ["zzz", "", "x0"])
    def test_malformed_bodies_answer_false_on_repeat(self, body):
        body_memo.cache_clear()
        for _ in range(3):
            assert sat_join_cosat(Query(body, "0")) is False
            assert sat_join_cosat(Query(body, "1")) is False
            calls: list[str] = []
            assert sat_join_cosat(Query(body, "1"), calls) is False
            assert calls == []

    def test_memo_stays_within_its_bound(self):
        body_memo.cache_clear()
        bodies = [
            f"(x{i}{op}{neg}x{j})"
            for op in "&|" for neg in ("", "!") for i in range(1, 21) for j in range(1, 21)
        ]
        assert len(bodies) > BODY_MEMO_SIZE
        for body in bodies:
            expected = sat_bruteforce(parse(body))
            assert sat_join_cosat(Query(body, "0")) is expected
        assert body_memo.cache_info().currsize <= BODY_MEMO_SIZE


class TestFiniteOracle:
    def test_membership(self):
        universe = frozenset({q("x10"), q("x11")})
        oracle = FiniteOracle(universe, frozenset({q("x10")}))
        assert oracle(q("x10")) is True
        assert oracle(q("x11")) is False

    def test_members_must_lie_in_universe(self):
        with pytest.raises(ValueError):
            FiniteOracle(frozenset(), frozenset({q("x10")}))


class TestEnumerateSubsetPairs:
    def test_empty_universe_has_one_pair(self):
        assert list(enumerate_subset_pairs(0)) == [(0, 0)]

    def test_two_elements_give_nine_pairs(self):
        pairs = list(enumerate_subset_pairs(2))
        assert len(pairs) == 9
        assert len(set(pairs)) == 9

    def test_six_elements_give_729_pairs(self):
        assert len(query_universe(parse("(x1&x2)"))) == 6
        pairs = list(enumerate_subset_pairs(6))
        assert len(pairs) == 729
        assert len(set(pairs)) == 729

    def test_every_pair_is_nested(self):
        for small, large in enumerate_subset_pairs(6):
            assert small & ~large == 0
            assert 0 <= large < 1 << 6

    def test_bound_exceeded(self):
        with pytest.raises(ValueError):
            list(enumerate_subset_pairs(13))

    @pytest.mark.parametrize("size", range(7))
    def test_order_is_the_trit_product_order(self, size):
        # Element j of the sorted universe is out (trit 0), in T only (1) or
        # in S and T (2); pairs come in itertools.product order.
        universe = {Query(f"x{i}", tag) for i in range(1, 4) for tag in "01"}
        universe = set(sorted(universe, key=lambda query: query.wire())[:size])
        elements = sorted_universe(universe)
        expected = [
            (
                frozenset(x for x, t in zip(elements, trits) if t == 2),
                frozenset(x for x, t in zip(elements, trits) if t >= 1),
            )
            for trits in product(range(3), repeat=size)
        ]
        got = [
            (mask_subset(elements, small), mask_subset(elements, large))
            for small, large in enumerate_subset_pairs(len(elements))
        ]
        assert got == expected

    @pytest.mark.parametrize("size", range(7))
    def test_rank_is_the_position_in_the_stream(self, size):
        for position, (small, large) in enumerate(enumerate_subset_pairs(size)):
            assert subset_pair_rank(size, small, large) == position


class TestSampleSubsetPair:
    def test_always_nested(self):
        universe = query_universe(parse("(x1&(x2&x3))"))
        rng = random.Random(5)
        for _ in range(2000):
            small, large = sample_subset_pair(universe, rng)
            assert small <= large <= frozenset(universe)

    def test_deterministic_for_fixed_seed(self):
        universe = query_universe(parse("(x1&x2)"))
        first = sample_subset_pair(universe, random.Random(7))
        second = sample_subset_pair(universe, random.Random(7))
        assert first == second

    def test_accepts_a_bare_seed(self):
        universe = query_universe(parse("(x1&x2)"))
        assert sample_subset_pair(universe, 7) == sample_subset_pair(
            universe, random.Random(7)
        )

    def test_marginals_are_balanced(self):
        # Law-of-large-numbers check: each element lands in T about half
        # the time over 10^4 draws.
        universe = sorted_universe({q("x10"), q("x11"), q("x20"), q("x21")})
        rng = random.Random(123)
        counts = {element: 0 for element in universe}
        draws = 10_000
        for _ in range(draws):
            _, large = sample_subset_pair(universe, rng)
            for element in large:
                counts[element] += 1
        for element, count in counts.items():
            assert abs(count / draws - 0.5) < 0.05, element

    def test_empty_universe(self):
        assert sample_subset_pair(frozenset(), random.Random(0)) == (
            frozenset(),
            frozenset(),
        )

    def test_masks_make_the_same_draws(self):
        universe = query_universe(parse("(x1&(x2|x3))"))
        elements = sorted_universe(universe)
        for seed in range(5):
            by_pair, by_mask = random.Random(seed), random.Random(seed)
            for _ in range(200):
                large, r = next(subset_mask_draws(len(elements), by_mask))
                small = large & r
                assert small & ~large == 0
                assert sample_subset_pair(universe, by_pair) == (
                    mask_subset(elements, small),
                    mask_subset(elements, large),
                )
            assert by_pair.getstate() == by_mask.getstate()

    @pytest.mark.parametrize("k", [0, 1, 5, 33, 126])
    def test_the_one_draw_stream(self, k):
        # Two getrandbits(k) calls per draw, T first; a stream started afresh
        # for each draw, as sample_subset_pair does, gives the same pairs bit
        # for bit.
        raw, streamed, paired = random.Random(k), random.Random(k), random.Random(k)
        draws = list(islice(subset_mask_draws(k, streamed), 50))
        assert draws == [(raw.getrandbits(k), raw.getrandbits(k)) for _ in range(50)]
        pairs = [next(subset_mask_draws(k, paired)) for _ in range(50)]
        assert pairs == draws
        assert raw.getstate() == streamed.getstate() == paired.getstate()

    def test_no_elements_draw_nothing(self):
        rng = random.Random(0)
        state = rng.getstate()
        assert next(subset_mask_draws(0, rng)) == (0, 0)
        assert rng.getstate() == state
