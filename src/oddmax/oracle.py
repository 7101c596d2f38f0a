"""Oracles over tagged query strings: the join of two sets, the canonical
satisfiable/unsatisfiable join, finite oracles, and subset-pair enumeration.

Wire format: the canonical serialization of a formula body immediately
followed by a single tag character, '0' or '1', with no delimiter. Tag '0'
routes a query to the left component of a join, tag '1' to the right.

Subsets of a finite universe are bit masks over `sorted_universe`: bit i
stands for element i. Sampling draws masks (`sample_subset_masks`), and
`mask_subset` turns a mask back into a frozenset of queries.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, Sequence, Union

# `parse` is not called here, but stays bound: the benchmark's tracer tests
# look the layer up by the name oddmax.oracle.parse.
from .formula import ParseError, parse
from .sat import text_satisfiable

#: Largest universe enumerate_subset_pairs will sweep (3^|U| pairs).
SUBSET_PAIR_BOUND = 12

#: Distinct bodies whose satisfiability the join oracle keeps (LRU).
BODY_MEMO_SIZE = 1024

TAGS = ("0", "1")


@dataclass(frozen=True, order=True)
class Query:
    """One oracle query: a formula body plus the join tag it is aimed at."""

    body: str
    tag: str

    def __post_init__(self) -> None:
        if self.tag not in TAGS:
            raise ValueError(f"tag must be '0' or '1', got {self.tag!r}")

    def wire(self) -> str:
        return self.body + self.tag

    @classmethod
    def from_wire(cls, raw: str) -> "Query":
        """Split a raw query string into body and trailing tag.

        The tag is always the final character, so decoding is unambiguous.
        Raises ValueError when `raw` is empty or ends in a non-tag character.
        """
        if not raw or raw[-1] not in TAGS:
            raise ValueError(f"query string must end in '0' or '1': {raw!r}")
        return cls(raw[:-1], raw[-1])


#: Any deterministic total membership predicate over queries.
Oracle = Callable[[Query], bool]

SetPredicate = Union[Callable[[str], bool], Collection[str]]


def join_membership(query: Query, left: SetPredicate, right: SetPredicate) -> bool:
    """Membership in the join of two sets: tag '0' asks left, tag '1' right."""
    side = left if query.tag == "0" else right
    if callable(side):
        return bool(side(query.body))
    return query.body in side


@functools.lru_cache(maxsize=BODY_MEMO_SIZE)
def _body_sat(body: str) -> bool | None:
    """Satisfiability of a query body, or None when it is not a formula.

    Both tags of a body share this one answer, so a machine iteration costs
    one pass over the body's tokens (text_satisfiable), at any nesting depth.
    Only a body with more than BRUTEFORCE_BOUND distinct variables is parsed
    and searched by sat_dpll, which recurses; exceptions from that fallback
    (deep input) propagate uncached.
    """
    try:
        return text_satisfiable(body)
    except ParseError:
        return None


def sat_join_cosat(query: Query) -> bool:
    """The canonical join oracle: satisfiability on tag '0', unsatisfiability
    on tag '1'. Bodies that are not formulas are answered False on both tags,
    keeping the predicate total.
    """
    answer = _body_sat(query.body)
    if answer is None:
        return False
    return answer if query.tag == "0" else not answer


def one_query_decider(query: Query, sat_calls: list[str] | None = None) -> bool:
    """Decide join membership with a single satisfiability call on the body.

    Returns the call's answer for tag '0' and its negation for tag '1';
    agrees with sat_join_cosat everywhere. Pass a list as `sat_calls` to
    meter the calls made (the body is appended once per call, whether or not
    the memo already holds the answer). Bodies that are not formulas are
    answered False without a metered call.
    """
    answer = _body_sat(query.body)
    if answer is None:
        return False
    if sat_calls is not None:
        sat_calls.append(query.body)
    return answer if query.tag == "0" else not answer


@dataclass(frozen=True)
class FiniteOracle:
    """An explicit oracle: a member set drawn from a finite query universe.

    Queries outside the member set are answered False, including queries
    outside the universe, so the oracle is total.
    """

    universe: frozenset[Query]
    members: frozenset[Query]

    def __post_init__(self) -> None:
        if not self.members <= self.universe:
            raise ValueError("members must be a subset of the universe")

    def __call__(self, query: Query) -> bool:
        return query in self.members


def sorted_universe(universe: Iterable[Query]) -> tuple[Query, ...]:
    """Canonical element order (by wire string) for deterministic sweeps."""
    return tuple(sorted(universe, key=Query.wire))


def mask_subset(elements: Sequence[Query], mask: int) -> frozenset[Query]:
    """The subset of `elements` whose bit is set in `mask` (bit i is elements[i])."""
    return frozenset(q for i, q in enumerate(elements) if (mask >> i) & 1)


def _trit_masks(bits: Sequence[int]) -> list[tuple[int, int]]:
    """(small, large) masks for every choice per bit of out, in large only,
    or in both, in product(range(3), repeat=len(bits)) order."""
    pairs = [(0, 0)]
    for bit in reversed(bits):
        pairs = [(s | hs, l | hl) for hs, hl in ((0, 0), (0, bit), (bit, bit)) for s, l in pairs]
    return pairs


def enumerate_subset_pairs(
    universe: Collection[Query],
) -> Iterator[tuple[frozenset[Query], frozenset[Query]]]:
    """All ordered pairs (S, T) with S <= T <= universe, each exactly once.

    Every element is independently out of T, in T only, or in both, so the
    stream has exactly 3^|universe| pairs. They come in the order of
    product(range(3), repeat=k) over the sorted elements, trit 2 meaning in
    S and T, trit 1 in T only. The 2^k subsets are built once and shared.
    """
    elements = sorted_universe(universe)
    if len(elements) > SUBSET_PAIR_BOUND:
        raise ValueError(
            f"universe of size {len(elements)} exceeds the exhaustive bound "
            f"{SUBSET_PAIR_BOUND}"
        )
    subsets = [frozenset()]
    for q in elements:
        single = frozenset((q,))
        subsets += [s | single for s in subsets]
    # Split the trits in two halves so each pair costs two lookups, not k.
    bits = [1 << i for i in range(len(elements))]
    half = len(bits) // 2
    low = _trit_masks(bits[half:])
    for high_small, high_large in _trit_masks(bits[:half]):
        for small, large in low:
            yield subsets[high_small | small], subsets[high_large | large]


def sample_subset_masks(k: int, rng: random.Random) -> tuple[int, int]:
    """Draw T uniformly from subsets of k elements, then S uniformly from
    subsets of T; return their masks (S, T)."""
    if not k:
        return 0, 0
    large = rng.getrandbits(k)
    return large & rng.getrandbits(k), large


def sample_subset_pair(
    universe: Collection[Query], rng: int | random.Random
) -> tuple[frozenset[Query], frozenset[Query]]:
    """`sample_subset_masks` over the sorted universe, as frozensets. Takes a
    seed, or a generator for streams of draws; either way the result is
    deterministic."""
    if isinstance(rng, int):
        rng = random.Random(rng)
    elements = sorted_universe(universe)
    small, large = sample_subset_masks(len(elements), rng)
    return mask_subset(elements, small), mask_subset(elements, large)
