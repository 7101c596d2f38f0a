"""The positive oracle machine: a greedy variable-fixing loop that asks two
tagged queries per variable, plus transcripts of single runs and the tree of
all runs over all possible oracle answers.

On a formula with variables x_1..x_n, iteration i sends the formula with x_i
pinned true under tag '0' and tag '1'. The standard rule table
(MachineProgram.step) acts on the answers: yes/no pins x_i true, no/yes pins
it false, yes/yes accepts, no/no rejects; at i = n the pin-true case accepts
and the pin-false case rejects. Strings that fail to parse are rejected
without any queries, as are constant formulas, which have no variables to pin.
Each program builds, once, a private table from classify_case and step that
maps the truth values of an answer pair to (case, pinned value, verdict); a
run looks each iteration's answers up in it, and expand_runs reads its
four children's rules from it.

Runs and trees work on text and walk no AST. The canonical text (folded from
the input by formula.canonical, or the tree's one serialize) is split at its
variable tokens, each token's index read from formula's one token table, and
a body is that text with '1' or '0' written over the tokens of x_1..x_i: the
string serialize(substitute(...)) gives for those pins.

All runs are expanded in one place, `expand_runs`, which takes the node
builder as an argument; each job passes its own builder and walks no tree
built for another job. Every tree a walk reads has one node layout: the two
queries, then the four children in IterationCase order. `build_query_tree`
builds TreeNodes, which hold Query objects and then the iteration and its
text, for the tree dumps; `query_universe` builds nothing and only gathers
the bodies, from which it makes its queries; the positivity checks gather
the bodies in one expansion whose nodes hold the body and then the four
children, and relabel those nodes into the one layout over their bodies'
mask bits. `tree_verdict` walks any tree of that layout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Mapping, NamedTuple, TypeVar, Union

# _VARIABLE is the variable-token pattern parse's tokenizer splits at, and
# _INDEX maps every variable token parse accepts to its index.
from .formula import Formula, ParseError, _INDEX, _VARIABLE, canonical, serialize
from .oracle import TAGS, Oracle, Query, sat_join_cosat

#: Largest variable count for full tree expansion and query universes.
TREE_BOUND = 10


class IterationCase(enum.Enum):
    """Outcome of one loop iteration, classified from the two answers."""

    FIX_TRUE = "FIX_TRUE"  # (yes, no): pin x_i true, accept if i = n
    FIX_FALSE = "FIX_FALSE"  # (no, yes): pin x_i false, reject if i = n
    ACCEPT_BOTH = "ACCEPT_BOTH"  # (yes, yes): accept immediately
    REJECT_BOTH = "REJECT_BOTH"  # (no, no): reject immediately


def classify_case(ans0: bool, ans1: bool) -> IterationCase:
    if ans0 and ans1:
        return IterationCase.ACCEPT_BOTH
    if ans0:
        return IterationCase.FIX_TRUE
    if ans1:
        return IterationCase.FIX_FALSE
    return IterationCase.REJECT_BOTH


@dataclass(frozen=True)
class MachineProgram:
    """The rule table of the loop; the default values are the real machine.

    The run and `expand_runs` read it through one private table, built once
    per program from `classify_case` and `step`: `_table[not ans0][not ans1]`
    is (case, value, verdict) for an answer pair, so answers of any type are
    read for their truth as classify_case reads them.

    Mutant tables exist to show that the positivity and equivalence checkers
    together have teeth: each mutant is caught by one of them. Only
    `accept_both_verdict` and `reject_both_verdict` can break monotonicity:
    two runs under nested oracles agree answer-for-answer until the larger
    oracle strictly dominates an answer pair, and the only strict dominator
    of a mixed pair is (yes, yes). The mixed-pair options below never enter
    that argument, so mutants touching only them stay monotone (see the
    positivity tests, which pin this down exhaustively); they are caught by
    the equivalence check against the lex-max reference instead.
    """

    accept_both_verdict: bool = True
    reject_both_verdict: bool = False
    fix_true_value: bool = True
    fix_false_value: bool = False
    fix_true_final: bool = True
    fix_false_final: bool = False

    def __post_init__(self) -> None:
        # Every entry is a bool whatever was passed: runs report these
        # verdicts as they are, and tree walks end on a bool leaf.
        for field in fields(self):
            object.__setattr__(self, field.name, bool(getattr(self, field.name)))
        object.__setattr__(self, "_table", tuple(
            tuple((case := classify_case(ans0, ans1), *self.step(case)) for ans1 in (True, False))
            for ans0 in (True, False)
        ))

    def step(self, case: IterationCase) -> tuple[bool | None, bool]:
        """(value, verdict): the value x_i is pinned to, or None when `case`
        ends the run, and the verdict if the run ends here (pin cases: i = n)."""
        if case is IterationCase.FIX_TRUE:
            return self.fix_true_value, self.fix_true_final
        if case is IterationCase.FIX_FALSE:
            return self.fix_false_value, self.fix_false_final
        if case is IterationCase.ACCEPT_BOTH:
            return None, self.accept_both_verdict
        return None, self.reject_both_verdict


STANDARD_PROGRAM = MachineProgram()

#: (yes, yes) rejects and (no, no) accepts; the one genuinely non-monotone mutant.
MUTANT_SWAP_UNANIMOUS = replace(
    STANDARD_PROGRAM, accept_both_verdict=False, reject_both_verdict=True
)
#: Pin-true continues with x_i := 0 and pin-false with x_i := 1.
MUTANT_SWAP_CONTINUATIONS = replace(
    STANDARD_PROGRAM, fix_true_value=False, fix_false_value=True
)
#: At i = n, the pin-true case rejects and the pin-false case accepts.
MUTANT_SWAP_FINAL = replace(
    STANDARD_PROGRAM, fix_true_final=False, fix_false_final=True
)

MUTANT_PROGRAMS: Mapping[str, MachineProgram] = {
    "swap-unanimous-verdicts": MUTANT_SWAP_UNANIMOUS,
    "swap-continuations": MUTANT_SWAP_CONTINUATIONS,
    "swap-final-verdicts": MUTANT_SWAP_FINAL,
}


class QueryRecord(NamedTuple):
    query: Query
    answer: bool


class Iteration(NamedTuple):
    """One iteration of a run. A tuple, so its field `index` hides the
    tuple method of that name."""

    index: int
    records: tuple[QueryRecord, QueryRecord]
    case: IterationCase


@dataclass(frozen=True)
class Transcript:
    """The recorded run: every query, every answer, and the verdict."""

    input: str
    well_formed: bool
    iterations: tuple[Iteration, ...]
    verdict: bool

    def to_json(self) -> dict:
        return {
            "input": self.input,
            "wellFormed": self.well_formed,
            "iterations": [
                {
                    "i": it.index,
                    "queries": [
                        {"string": rec.query.wire(), "tag": rec.query.tag, "answer": rec.answer}
                        for rec in it.records
                    ],
                    "case": it.case.value,
                }
                for it in self.iterations
            ],
            "verdict": "accept" if self.verdict else "reject",
        }


def run_machine(
    text: str, oracle: Oracle, program: MachineProgram = STANDARD_PROGRAM
) -> Transcript:
    """Run the loop on an arbitrary input string against an oracle.

    Total: inputs that are not formulas are rejected with an empty
    transcript. Both queries of an iteration are always issued, tag '0'
    first, even when the first answer already rules out a terminal case.
    """
    try:
        pieces, places, n = _split(canonical(text))
    except ParseError:
        return Transcript(text, False, (), False)
    table = program._table
    iterations: list[Iteration] = []
    verdict = False  # a constant formula never enters the loop: reject
    for i in range(1, n + 1):
        slots = places.get(i, ())
        for k in slots:
            pieces[k] = "1"
        body = "".join(pieces)
        q0, q1 = Query(body, "0"), Query(body, "1")
        ans0, ans1 = oracle(q0), oracle(q1)
        case, value, verdict = table[not ans0][not ans1]
        iterations.append(Iteration(i, (QueryRecord(q0, ans0), QueryRecord(q1, ans1)), case))
        if value is None or i == n:
            break
        if not value:
            for k in slots:
                pieces[k] = "0"
    return Transcript(text, True, tuple(iterations), verdict)


def _split(text: str) -> tuple[list[str], dict[int, list[int]], int]:
    """Canonical text split at its variable tokens: the pieces (odd ones are
    the tokens), the piece positions of each x_i, and the largest index i.

    Canonical text comes from parse or serialize, so each token is one that
    parse accepts and is read from formula's token table."""
    pieces = _VARIABLE.split(text)
    places: dict[int, list[int]] = {}
    for k in range(1, len(pieces), 2):
        places.setdefault(_INDEX[pieces[k]], []).append(k)
    return pieces, places, max(places, default=0)


def decide_oddmaxsat(formula: Formula) -> bool:
    """Verdict of the machine on the formula under the canonical join oracle."""
    return run_machine(serialize(formula), sat_join_cosat).verdict


class TreeNode(NamedTuple):
    """One loop iteration with its two queries and its four successors, in
    IterationCase order, each a node or a bare verdict.

    `text` is the canonical text the iteration starts from: the formula with
    the pins of x_1..x_{i-1} written in."""

    query0: Query
    query1: Query
    fix_true: QueryTree
    fix_false: QueryTree
    accept_both: QueryTree
    reject_both: QueryTree
    iteration: int
    text: str

    @property
    def queries(self) -> tuple[Query, Query]:
        return self[:2]

    @property
    def edges(self) -> tuple[tuple[IterationCase, QueryTree], ...]:
        """(case, child) pairs, for the JSON and text dumps."""
        return tuple(zip(IterationCase, self[2:6]))


QueryTree = Union[TreeNode, bool]

_N = TypeVar("_N")


def expand_runs(
    text: str, program: MachineProgram, node: Callable[[int, str, str, list], _N]
) -> Union[_N, bool]:
    """Expand every computation branch of the machine over all possible
    oracle answers, building each iteration with `node`.

    `text` is the formula's canonical text. `node(i, text, body, children)`
    builds iteration i, which starts from `text` (the pins of x_1..x_{i-1}
    written in) and asks `body` under both tags; `children` are its four
    successors in IterationCase order, each a built node or a bare verdict.
    A constant formula yields the bare verdict False. Raises ValueError when
    the text has more than TREE_BOUND variables.
    """
    pieces, places, n = _split(text)
    if n > TREE_BOUND:
        raise ValueError(f"formula has {n} variables, exceeding the tree bound {TREE_BOUND}")
    if n == 0:
        return False
    (accept_both, fix_true), (fix_false, reject_both) = program._table
    rules = fix_true, fix_false, accept_both, reject_both  # IterationCase order

    def expand(i: int, text: str, pieces: list[str]) -> _N:
        # `pieces` is `text` split by _split; this call may write into it.
        slots = places.get(i, ())
        for k in slots:
            pieces[k] = "1"
        body = "".join(pieces)
        children = []
        for _, value, verdict in rules:
            if value is None or i == n:
                children.append(verdict)
                continue
            child = pieces.copy()
            if not value:
                for k in slots:
                    child[k] = "0"
            children.append(expand(i + 1, body if value else "".join(child), child))
        return node(i, text, body, children)

    return expand(1, text, pieces)


def _tree_node(i: int, text: str, body: str, children: list) -> TreeNode:
    return TreeNode(Query(body, "0"), Query(body, "1"), *children, i, text)


def build_query_tree(
    formula: Formula, program: MachineProgram = STANDARD_PROGRAM
) -> QueryTree:
    """Materialize every computation branch over all possible oracle answers.

    Any single run traces one root-to-leaf path of this tree. A constant
    formula yields the bare verdict False.
    """
    return expand_runs(serialize(formula), program, _tree_node)


def tree_verdict(tree: Union[tuple, bool], oracle: Callable[[Any], object]) -> bool:
    """Verdict of the run the oracle selects through a tree of the one node
    layout, whatever its slots 0 and 1 hold: `oracle` is asked about those
    slots and its answers are read for their truth. The walk ends on a bool
    leaf."""
    node = tree
    while type(node) is not bool:
        if oracle(node[0]):
            node = node[4] if oracle(node[1]) else node[2]
        else:
            node = node[3] if oracle(node[1]) else node[5]
    return node


def query_universe(
    formula: Formula, program: MachineProgram = STANDARD_PROGRAM
) -> frozenset[Query]:
    """The set of queries reachable on the formula under some oracle behavior,
    from one expansion that builds no node and only gathers the bodies asked.
    Raises ValueError past TREE_BOUND."""
    bodies: set[str] = set()
    expand_runs(serialize(formula), program, lambda i, text, body, children: bodies.add(body))
    return frozenset(Query(body, tag) for body in bodies for tag in TAGS)


def tree_to_json(tree: QueryTree) -> dict:
    if not isinstance(tree, TreeNode):
        return {"verdict": "accept" if tree else "reject"}
    return {
        "iteration": tree.iteration,
        "formula": tree.text,
        "queries": [q.wire() for q in tree.queries],
        "edges": {case.value: tree_to_json(child) for case, child in tree.edges},
    }


def render_tree(tree: QueryTree, indent: int = 0) -> str:
    """Indented text dump of the full tree, all four edges per node."""
    pad = "  " * indent
    if not isinstance(tree, TreeNode):
        return f"{pad}{'accept' if tree else 'reject'}"
    lines = [
        f"{pad}[i={tree.iteration}] {tree.text}  "
        f"queries: {tree.queries[0].wire()} {tree.queries[1].wire()}"
    ]
    for case, child in tree.edges:
        if isinstance(child, TreeNode):
            lines += [f"{pad}  {case.value} ->", render_tree(child, indent + 2)]
        else:
            lines.append(f"{pad}  {case.value} -> {'accept' if child else 'reject'}")
    return "\n".join(lines)
