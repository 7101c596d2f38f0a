"""Oracles over tagged query strings: the canonical satisfiable/unsatisfiable
join (one satisfiability call per query, which a caller can meter), finite
oracles, and subset-pair enumeration.

Wire format: the canonical serialization of a formula body immediately
followed by a single tag character, '0' or '1', with no delimiter. Tag '0'
routes a query to the left component of a join, tag '1' to the right.

Subsets of a finite universe are bit masks over it sorted by wire: bit i
stands for element i. The exhaustive sweep enumerates nested mask pairs
(`enumerate_subset_pairs`), sampling draws them (`subset_mask_draws`), and
`mask_subset` turns a mask back into a frozenset of queries.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import chain, repeat
from operator import or_
from typing import Callable, Collection, Iterator, NamedTuple, Sequence

# `parse` is not called here, but stays bound: the benchmark's tracer tests
# look the layer up by the name oddmax.oracle.parse.
from .formula import ParseError, parse
from .sat import text_satisfiable

#: Largest universe enumerate_subset_pairs will sweep (3^|U| pairs).
SUBSET_PAIR_BOUND = 12

#: Distinct bodies whose satisfiability the join oracle keeps (LRU).
BODY_MEMO_SIZE = 1024

TAGS = ("0", "1")


class Query(NamedTuple("Query", [("body", str), ("tag", str)])):
    """One oracle query: a formula body plus the join tag it is aimed at.

    A tuple, so hashing, equality and ordering run in C; a Query equals the
    plain tuple (body, tag)."""

    __slots__ = ()

    def __new__(cls, body: str, tag: str) -> "Query":
        if tag not in TAGS:
            raise ValueError(f"tag must be '0' or '1', got {tag!r}")
        return tuple.__new__(cls, (body, tag))

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

@functools.lru_cache(maxsize=BODY_MEMO_SIZE)
def _body_sat(body: str) -> bool | None:
    """Satisfiability of a query body, or None when it is not a formula: the
    one satisfiability call sat_join_cosat makes per query.

    Both tags of a body share this one answer, so a machine iteration costs
    one pass over the body's tokens (text_satisfiable), at any nesting depth.
    Only a body with more than BRUTEFORCE_BOUND distinct variables is parsed
    and given to sat_bruteforce, whose walk for the occurring variables and
    _assign recurse; exceptions from that fallback (deep input) propagate
    uncached.
    """
    try:
        return text_satisfiable(body)
    except ParseError:
        return None


def sat_join_cosat(query: Query, sat_calls: list[str] | None = None) -> bool:
    """The canonical join oracle: satisfiability on tag '0', unsatisfiability
    on tag '1', decided by a single satisfiability call on the body. Bodies
    that are not formulas are answered False on both tags, keeping the
    predicate total. Pass a list as `sat_calls` to meter the calls made (the
    body is appended once per call, whether or not the memo already holds the
    answer); a body that is not a formula is answered without a metered call.
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


def enumerate_subset_pairs(k: int) -> Iterator[tuple[int, int]]:
    """All mask pairs (S, T) with S <= T over k elements, each exactly once.

    Every element is independently out of T, in T only, or in both, so the
    stream has exactly 3^k pairs. They come in the order of
    product(range(3), repeat=k), trit j standing for bit j: 2 means in S and
    T, 1 in T only. Raises ValueError at the call when k exceeds
    SUBSET_PAIR_BOUND.
    """
    if k > SUBSET_PAIR_BOUND:
        raise ValueError(
            f"query universe has {k} elements, exceeding the exhaustive bound "
            f"{SUBSET_PAIR_BOUND}"
        )
    # Split the trits in two halves, so that each pair costs two ORs made in C.
    bits = [1 << i for i in range(k)]
    smalls, larges = zip(*_trit_masks(bits[k // 2:]))
    return chain.from_iterable(
        zip(map(or_, repeat(high_small), smalls), map(or_, repeat(high_large), larges))
        for high_small, high_large in _trit_masks(bits[: k // 2])
    )


def subset_pair_rank(k: int, small: int, large: int) -> int:
    """How many pairs enumerate_subset_pairs(k) yields before (small, large)."""
    trits = "".join(str((small >> j & 1) + (large >> j & 1)) for j in range(k))
    return int(trits or "0", 3)


def subset_mask_draws(k: int, rng: random.Random) -> Iterator[tuple[int, int]]:
    """The one draw stream of sampled checks: endless pairs (T, R) of masks
    over k elements, two `getrandbits(k)` calls per pair, T first. T is
    uniform over the subsets, and S = T & R is uniform over the subsets of T.
    At k = 0 both calls return 0 and consume no generator state."""
    bits = map(rng.getrandbits, repeat(k))
    return zip(bits, bits)


def sample_subset_pair(
    universe: Collection[Query], rng: int | random.Random
) -> tuple[frozenset[Query], frozenset[Query]]:
    """One draw of `subset_mask_draws` over the sorted universe, as the
    frozensets (S, T) with S = T & R. Takes a seed, or a generator for
    streams of draws; either way the result is deterministic."""
    if isinstance(rng, int):
        rng = random.Random(rng)
    elements = sorted(universe, key=Query.wire)
    large, r = next(subset_mask_draws(len(elements), rng))
    return mask_subset(elements, large & r), mask_subset(elements, large)
