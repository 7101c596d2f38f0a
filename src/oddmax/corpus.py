"""Formula corpora: the curated file shipped with the package, user corpus
files, and seeded random batches.

Corpus file format: UTF-8 text, one formula per line; lines whose first
non-blank character is '#' are comments; blank lines are ignored.
"""

from __future__ import annotations

import random
from importlib import resources
from pathlib import Path

from .formula import MAX_VAR_INDEX, Formula, ParseError, parse, random_formula


class CorpusError(ValueError):
    """A corpus line failed to parse; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_corpus(text: str) -> list[Formula]:
    formulas = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            formulas.append(parse(line))
        except ParseError as exc:
            raise CorpusError(str(exc), lineno) from exc
    return formulas


def load_corpus(path: str | Path) -> list[Formula]:
    """The formulas of a corpus file; ValueError if it holds none."""
    formulas = parse_corpus(Path(path).read_text(encoding="utf-8"))
    if not formulas:
        raise ValueError(f"corpus {path} holds no formulas")
    return formulas


def curated_corpus() -> list[Formula]:
    """The hand-written corpus shipped with the package."""
    text = resources.files("oddmax").joinpath("data/curated.txt").read_text(encoding="utf-8")
    return parse_corpus(text)


def random_corpus(count: int, max_vars: int, size: int, seed: int) -> list[Formula]:
    """A deterministic batch of random formulas with num_vars <= max_vars.

    Raises ValueError unless 1 <= max_vars <= MAX_VAR_INDEX, whatever the seed.
    """
    if not 1 <= max_vars <= MAX_VAR_INDEX:
        raise ValueError(f"max_vars must be between 1 and {MAX_VAR_INDEX}, got {max_vars}")
    rng = random.Random(seed)
    batch = []
    for _ in range(count):
        n = rng.randint(1, max_vars)
        batch.append(random_formula(rng.getrandbits(32), n, size))
    return batch
