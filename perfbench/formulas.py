"""The benchmark's own formula generator and bit-parallel truth tables.

It imports nothing from ``oddmax``, so the expected answers it gives are
independent of the program, and the speed reference (`speed.py`) can run it
in any process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Node count of every generated formula (the CLI's default node budget).
FORMULA_SIZE = 25


def _random_tree(rng: random.Random, n: int, size: int) -> list:
    """A formula tree of exactly `size` nodes over x1..xn, as nested lists."""
    if size == 1:
        if rng.randrange(8) == 0:
            return ["c", rng.randrange(2) == 1]
        return ["x", rng.randint(1, n)]
    if size == 2 or rng.randrange(5) == 0:
        return ["!", _random_tree(rng, n, size - 1)]
    left = rng.randint(1, size - 2)
    return [
        "&" if rng.randrange(2) else "|",
        _random_tree(rng, n, left),
        _random_tree(rng, n, size - 1 - left),
    ]


def _var_leaves(tree: list, out: list) -> list:
    if tree[0] == "x":
        out.append(tree)
    elif tree[0] != "c":
        for child in tree[1:]:
            _var_leaves(child, out)
    return out


def _text(tree: list) -> str:
    kind = tree[0]
    if kind == "x":
        return f"x{tree[1]}"
    if kind == "c":
        return "1" if tree[1] else "0"
    if kind == "!":
        return "!" + _text(tree[1])
    return f"({_text(tree[1])}{kind}{_text(tree[2])})"


class TruthTables:
    """Bit-parallel evaluation: bit a of a table is the formula's value on
    assignment a, read as the numeral x1..xn (x1 most significant)."""

    def __init__(self) -> None:
        self._columns: dict[tuple[int, int], int] = {}

    def column(self, n: int, index: int) -> int:
        key = (n, index)
        if key not in self._columns:
            # Blocks of 2^(n-index) zeros then ones, doubled up to 2^n bits.
            half = 1 << (n - index)
            column = ((1 << half) - 1) << half
            width = 2 * half
            while width < 1 << n:
                column |= column << width
                width *= 2
            self._columns[key] = column
        return self._columns[key]

    def table(self, tree: list, n: int) -> int:
        return self._table(tree, n, (1 << (1 << n)) - 1)

    def _table(self, tree: list, n: int, full: int) -> int:
        kind = tree[0]
        if kind == "x":
            return self.column(n, tree[1])
        if kind == "c":
            return full if tree[1] else 0
        if kind == "!":
            return full & ~self._table(tree[1], n, full)
        left, right = self._table(tree[1], n, full), self._table(tree[2], n, full)
        return left & right if kind == "&" else left | right


@dataclass(frozen=True)
class Generated:
    """One generated formula with the benchmark's own expected answers."""

    text: str
    n: int
    lexmax_index: int | None  # None when unsatisfiable

    @property
    def satisfiable(self) -> bool:
        return self.lexmax_index is not None

    def lexmax_bits(self) -> str | None:
        if self.lexmax_index is None:
            return None
        return format(self.lexmax_index, f"0{self.n}b") if self.n else ""


def generate(rng: random.Random, n: int, tables: TruthTables) -> Generated:
    """A formula of FORMULA_SIZE nodes whose largest variable is exactly xn
    (or a constant, when no leaf is a variable)."""
    tree = _random_tree(rng, n, FORMULA_SIZE)
    leaves = _var_leaves(tree, [])
    if leaves:
        rng.choice(leaves)[1] = n
    else:
        n = 0
    table = tables.table(tree, n)
    return Generated(_text(tree), n, table.bit_length() - 1 if table else None)
