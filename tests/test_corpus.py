"""Corpus loading and the composition of the shipped corpus."""

from __future__ import annotations

import pytest

from conftest import satisfying_assignments
from oddmax.corpus import CorpusError, load_corpus, parse_corpus, random_corpus
from oddmax.formula import Const, Not, Var, num_vars


def depth(formula) -> int:
    if isinstance(formula, (Var, Const)):
        return 1
    if isinstance(formula, Not):
        return 1 + depth(formula.child)
    return 1 + max(depth(formula.left), depth(formula.right))


def indices(formula) -> set[int]:
    if isinstance(formula, Var):
        return {formula.index}
    if isinstance(formula, Const):
        return set()
    if isinstance(formula, Not):
        return indices(formula.child)
    return indices(formula.left) | indices(formula.right)


class TestParseCorpus:
    def test_comments_and_blanks_are_ignored(self):
        formulas = parse_corpus("# header\n\nx1\n  # indented comment\n!x1\n")
        assert len(formulas) == 2

    def test_bad_line_reports_its_number(self):
        with pytest.raises(CorpusError) as excinfo:
            parse_corpus("x1\n\nx0\n")
        assert excinfo.value.line == 3
        assert "line 3" in str(excinfo.value)

    def test_load_corpus_reads_files(self, tmp_path):
        path = tmp_path / "batch.txt"
        path.write_text("x1\n(x1&x2)\n")
        assert len(load_corpus(path)) == 2

    def test_load_corpus_refuses_a_file_without_formulas(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n\n")
        with pytest.raises(ValueError, match="holds no formulas"):
            load_corpus(path)
        assert parse_corpus(path.read_text()) == []


class TestCuratedCorpus:
    def test_is_large_enough(self, corpus):
        assert len(corpus) >= 50

    def test_variable_counts_stay_desk_scale(self, corpus):
        assert all(num_vars(f) <= 8 for f in corpus)

    def test_has_twenty_mid_size_formulas(self, corpus):
        mid = [f for f in corpus if 3 <= num_vars(f) <= 6]
        assert len(mid) >= 20
        # Five per variable count, so sampling can span the whole range.
        for n in (3, 4, 5, 6):
            assert sum(1 for f in mid if num_vars(f) == n) >= 5

    def test_has_small_formulas_for_exhaustive_sweeps(self, corpus):
        assert sum(1 for f in corpus if 1 <= num_vars(f) <= 2) >= 10

    def test_covers_unsat(self, corpus):
        unsat = [f for f in corpus if not satisfying_assignments(f)]
        assert len(unsat) >= 3

    def test_covers_tautologies(self, corpus):
        tautologies = [
            f
            for f in corpus
            if num_vars(f) >= 1
            and len(satisfying_assignments(f)) == 2 ** num_vars(f)
        ]
        assert len(tautologies) >= 3

    def test_covers_gapped_indices(self, corpus):
        gapped = [
            f
            for f in corpus
            if num_vars(f) >= 1 and indices(f) != set(range(1, num_vars(f) + 1))
        ]
        assert len(gapped) >= 5

    def test_covers_deep_nesting(self, corpus):
        assert any(depth(f) >= 6 for f in corpus)

    def test_includes_constant_formulas(self, corpus):
        assert any(num_vars(f) == 0 for f in corpus)


class TestRandomCorpus:
    def test_deterministic(self):
        assert random_corpus(50, 8, 25, seed=7) == random_corpus(50, 8, 25, seed=7)

    def test_respects_max_vars(self):
        assert all(num_vars(f) <= 8 for f in random_corpus(200, 8, 25, seed=1))
