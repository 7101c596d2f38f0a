"""Command-line interface: outputs, exit codes, and JSON schemas."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings

import oddmax
from conftest import any_text
from oddmax.cli import main

TRANSCRIPT_SCHEMA = {
    "type": "object",
    "required": ["input", "wellFormed", "iterations", "verdict"],
    "additionalProperties": False,
    "properties": {
        "input": {"type": "string"},
        "wellFormed": {"type": "boolean"},
        "iterations": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["i", "queries", "case"],
                "additionalProperties": False,
                "properties": {
                    "i": {"type": "integer", "minimum": 1},
                    "queries": {
                        "type": "array",
                        "minItems": 2,
                        "maxItems": 2,
                        "items": {
                            "type": "object",
                            "required": ["string", "tag", "answer"],
                            "additionalProperties": False,
                            "properties": {
                                "string": {"type": "string"},
                                "tag": {"enum": ["0", "1"]},
                                "answer": {"type": "boolean"},
                            },
                        },
                    },
                    "case": {
                        "enum": ["FIX_TRUE", "FIX_FALSE", "ACCEPT_BOTH", "REJECT_BOTH"]
                    },
                },
            },
        },
        "verdict": {"enum": ["accept", "reject"]},
    },
}

POSITIVITY_SCHEMA = {
    "type": "object",
    "required": ["formula", "mode", "universeSize", "pairsChecked", "seed", "result"],
    "additionalProperties": False,
    "properties": {
        "formula": {"type": "string"},
        "mode": {"enum": ["exhaustive", "sampled"]},
        "universeSize": {"type": "integer", "minimum": 0},
        "pairsChecked": {"type": "integer", "minimum": 0},
        "seed": {"type": ["integer", "null"]},
        "result": {
            "oneOf": [
                {"const": "ok"},
                {
                    "type": "object",
                    "required": ["S", "T"],
                    "additionalProperties": False,
                    "properties": {
                        "S": {"type": "array", "items": {"type": "string"}},
                        "T": {"type": "array", "items": {"type": "string"}},
                    },
                },
            ]
        },
    },
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: Parses, but overflows the recursive AST walkers (serialize, num_vars, the
#: SAT back ends); the oracle walks a body only past 20 distinct variables.
DEEP = "!" * 5000 + "(x1&x2)"
DEEP_WIDE_QUERY = "!" * 5000 + "(" + "&".join(f"x{i}" for i in range(1, 22)) + ")0"
TOO_DEEP = (2, "", "error: input nested too deeply\n")
ONE_OF_A_FORMULA_OR_A_CORPUS = "error: provide exactly one of a formula or --corpus\n"


class TestDecide:
    def test_accept(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "x1")
        assert (code, out.strip()) == (0, "accept")

    def test_reject(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "!x1")
        assert (code, out.strip()) == (1, "reject")

    def test_trace_shows_the_two_pin_iterations(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "(!x1|x2)", "--trace")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "accept"
        assert len(lines) == 3
        assert "FIX_TRUE" in lines[1] and "FIX_TRUE" in lines[2]
        assert "(!1|x2)0=yes" in lines[1]

    def test_deep_parentheses_are_one_variable(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "(" * 5000 + "x1" + ")" * 5000)
        assert (code, out.strip()) == (0, "accept")

    def test_deeply_negated_formula_is_decided(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "!" * 5000 + "(x1&x2)")
        assert (code, out.strip()) == (0, "accept")
        code, out, _ = run_cli(capsys, "decide", "!" * 5001 + "(x1&x2)")
        assert (code, out.strip()) == (1, "reject")

    def test_parse_error_exits_2(self, capsys):
        assert run_cli(capsys, "decide", "x0") == (
            2, "", "error: syntax error at position 1: variable index must be >= 1\n"
        )

    @pytest.mark.parametrize("text", ["x101", "x99999999"])
    def test_index_beyond_the_cap_exits_2(self, capsys, text):
        assert run_cli(capsys, "decide", text) == (
            2, "", "error: syntax error at position 1: variable index exceeds 100\n"
        )

    def test_json_transcript_validates(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "((x1|x2)&(!x1|!x2))", "--json")
        payload = json.loads(out)
        jsonschema.validate(payload, TRANSCRIPT_SCHEMA)
        assert code == 1
        assert payload["verdict"] == "reject"
        assert [it["case"] for it in payload["iterations"]] == ["FIX_TRUE", "FIX_FALSE"]

    def test_json_parse_error_still_reports_reject(self, capsys):
        code, out, err = run_cli(capsys, "decide", "zzz", "--json")
        payload = json.loads(out)
        jsonschema.validate(payload, TRANSCRIPT_SCHEMA)
        assert code == 2
        assert payload == {
            "input": "zzz",
            "wellFormed": False,
            "iterations": [],
            "verdict": "reject",
        }
        assert "syntax error" in err


class TestLexmax:
    def test_xor(self, capsys):
        assert run_cli(capsys, "lexmax", "((x1|x2)&(!x1|!x2))")[:2] == (0, "10\n")

    def test_unsat(self, capsys):
        code, out, _ = run_cli(capsys, "lexmax", "(x1&!x1)")
        assert (code, out) == (1, "UNSAT\n")

    def test_free_variable_is_maximized(self, capsys):
        assert run_cli(capsys, "lexmax", "x2")[:2] == (0, "11\n")

    def test_parse_error(self, capsys):
        assert run_cli(capsys, "lexmax", "(x1") == (
            2, "", "error: syntax error at position 3: expected ')'\n"
        )

    def test_deep_input_exits_2(self, capsys):
        assert run_cli(capsys, "lexmax", DEEP) == TOO_DEEP


class TestVerifyEquivalence:
    def test_curated_corpus_passes(self, capsys):
        from importlib import resources

        path = str(resources.files("oddmax").joinpath("data/curated.txt"))
        code, out, _ = run_cli(capsys, "verify-equivalence", "--corpus", path)
        assert code == 0
        assert "mismatches=0" in out

    def test_corpus_file_passes(self, capsys, tmp_path):
        path = tmp_path / "batch.txt"
        path.write_text("# tiny\nx1\n!x1\n(x1&x2)\n((x1|x2)&(!x1|!x2))\n")
        code, out, _ = run_cli(capsys, "verify-equivalence", "--corpus", str(path))
        assert code == 0
        assert "checked=4 mismatches=0" in out

    def test_deep_corpus_line_exits_2(self, capsys, tmp_path):
        path = tmp_path / "deep.txt"
        path.write_text(DEEP + "\n")
        assert run_cli(capsys, "verify-equivalence", "--corpus", str(path)) == TOO_DEEP

    def test_malformed_corpus_names_the_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("x1\nx0\n")
        code, _, err = run_cli(capsys, "verify-equivalence", "--corpus", str(path))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("content", ["", "# comments only\n\n   # and blanks\n"])
    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_empty_corpus_exits_2(self, capsys, tmp_path, content, flags):
        path = tmp_path / "empty.txt"
        path.write_text(content)
        code, out, err = run_cli(capsys, "verify-equivalence", "--corpus", str(path), *flags)
        assert (code, out, err) == (2, "", f"error: corpus {path} holds no formulas\n")

    def test_random_batch_is_seed_replayable(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-equivalence", "--random", "100", "--seed", "7"
        )
        assert code == 0
        assert "seed=7" in out
        assert "mismatches=0" in out

    @pytest.mark.parametrize("max_vars", ["101", "0"])
    def test_random_batch_beyond_the_index_cap_exits_2(self, capsys, max_vars):
        assert run_cli(
            capsys, "verify-equivalence", "--random", "5", "--seed", "1", "--max-vars", max_vars
        ) == (2, "", f"error: max_vars must be between 1 and 100, got {max_vars}\n")

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_non_positive_random_counts_exit_2(self, capsys, count):
        assert run_cli(capsys, "verify-equivalence", "--random", count, "--seed", "1") == (
            2, "", f"error: --random must be at least 1, got {count}\n"
        )

    def test_non_positive_random_count_prints_no_seed(self, capsys):
        code, out, err = run_cli(capsys, "verify-equivalence", "--random", "0")
        assert code == 2
        assert out == ""
        assert "seed" not in err

    def test_json_summary(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify-equivalence", "--random", "50", "--seed", "3", "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["checked"] == 50
        assert payload["mismatchCount"] == 0
        assert payload["seed"] == 3


class TestVerifyPositivity:
    def test_exhaustive_single_formula(self, capsys):
        code, out, _ = run_cli(capsys, "verify-positivity", "x1", "--exhaustive")
        assert code == 0
        assert "OK x1" in out
        assert "pairs=9" in out

    def test_exhaustive_is_the_default_mode(self, capsys):
        code, out, _ = run_cli(capsys, "verify-positivity", "x1")
        assert code == 0
        assert "mode=exhaustive" in out

    def test_sampled_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify-positivity", "(x1&(x2|x3))", "--samples", "2000", "--seed", "3",
        )
        assert code == 0
        assert "OK" in out and "mode=sampled" in out

    def test_deep_input_exits_2(self, capsys):
        assert run_cli(capsys, "verify-positivity", DEEP) == TOO_DEEP

    def test_universe_too_large_suggests_sampling(self, capsys):
        code, _, err = run_cli(
            capsys, "verify-positivity", "(((x1&x2)&x3)&x4)", "--exhaustive"
        )
        assert code == 2
        assert "--samples" in err

    def test_universe_beyond_the_exhaustive_bound_keeps_the_hint(self, capsys):
        text = "(((x1|x2)&(x3|x4))&(x5|x6))"  # 6 variables, universe 126
        code, out, err = run_cli(capsys, "verify-positivity", text)
        assert (code, out) == (2, "")
        assert err == (
            "error: query universe has 126 elements, exceeding the exhaustive bound 12; "
            "use --samples for universes beyond 12\n"
        )
        code, out, _ = run_cli(capsys, "verify-positivity", text, "--samples", "50", "--seed", "1")
        assert code == 0 and out.startswith(f"OK {text} mode=sampled")

    @pytest.mark.parametrize("mode", [[], ["--samples", "50", "--seed", "1"]])
    def test_formula_beyond_the_tree_bound_gets_no_sampling_hint(self, capsys, mode):
        code, out, err = run_cli(capsys, "verify-positivity", "(x1&x11)", *mode)
        assert (code, out) == (2, "")
        assert err == "error: formula has 11 variables, exceeding the tree bound 10\n"

    def test_corpus_exhaustive_skips_by_the_bound_that_was_hit(self, capsys, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("x1\n(x1&x11)\n(((x1|x2)&(x3|x4))&(x5|x6))\n!x2\n")
        code, out, err = run_cli(capsys, "verify-positivity", "--corpus", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines()[2:] == [
            "skipped (x1&x11) (more than 10 variables)",
            "skipped (((x1|x2)&(x3|x4))&(x5|x6)) "
            "(universe beyond the exhaustive bound; use --samples)",
        ]
        code, out, err = run_cli(capsys, "verify-positivity", "--corpus", str(path), "--json")
        assert (code, err) == (0, "")
        assert [report["formula"] for report in json.loads(out)] == ["x1", "!x2"]

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_non_positive_sample_counts_exit_2(self, capsys, samples):
        assert run_cli(
            capsys, "verify-positivity", "x1", "--samples", samples, "--seed", "1", "--json"
        ) == (2, "", f"error: --samples must be at least 1, got {samples}\n")

    def test_non_positive_sample_count_prints_no_seed(self, capsys):
        code, out, err = run_cli(capsys, "verify-positivity", "x1", "--samples", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "samples" in err

    def test_formula_beyond_the_tree_bound_prints_no_seed(self, capsys):
        code, out, err = run_cli(capsys, "verify-positivity", "x11", "--samples", "5")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "tree bound" in err

    @pytest.mark.parametrize("content", ["", "# comments only\n\n"])
    @pytest.mark.parametrize(
        "flags",
        [(), ("--json",), ("--samples", "5"), ("--samples", "5", "--json"),
         ("--samples", "5", "--seed", "1")],
    )
    def test_empty_corpus_exits_2_before_drawing_a_seed(self, capsys, tmp_path, content, flags):
        path = tmp_path / "empty.txt"
        path.write_text(content)
        code, out, err = run_cli(capsys, "verify-positivity", "--corpus", str(path), *flags)
        assert (code, out, err) == (2, "", f"error: corpus {path} holds no formulas\n")

    @pytest.mark.parametrize("mode", [(), ("--samples", "5", "--seed", "1")])
    def test_corpus_of_skipped_formulas_still_exits_0(self, capsys, tmp_path, mode):
        path = tmp_path / "beyond.txt"
        path.write_text("(x1&x11)\n")
        argv = ("verify-positivity", "--corpus", str(path), *mode)
        assert run_cli(capsys, *argv) == (0, "skipped (x1&x11) (more than 10 variables)\n", "")
        assert run_cli(capsys, *argv, "--json") == (0, "[]\n", "")

    def test_drawn_seed_leads_the_report_and_replays_it(self, capsys):
        code, out, _ = run_cli(capsys, "verify-positivity", "(x1&x2)", "--samples", "50")
        assert code == 0
        seed_line, report_line = out.splitlines()
        assert seed_line.startswith("seed=")
        replay = run_cli(
            capsys, "verify-positivity", "(x1&x2)", "--samples", "50",
            "--seed", seed_line.removeprefix("seed="),
        )
        assert replay == (0, report_line + "\n", "")

    def test_corpus_sampled_skips_formulas_beyond_the_tree_bound(self, capsys, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("x1\n(x1&x11)\n!x2\n")
        argv = ("verify-positivity", "--corpus", str(path), "--samples", "50", "--seed", "3")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert [line.split()[:2] for line in lines] == [
            ["OK", "x1"], ["OK", "!x2"], ["skipped", "(x1&x11)"],
        ]
        assert lines[-1] == "skipped (x1&x11) (more than 10 variables)"
        code, out, err = run_cli(capsys, *argv, "--json")
        payload = json.loads(out)
        assert code == 0
        assert err == ""
        assert [report["formula"] for report in payload] == ["x1", "!x2"]
        for report in payload:
            jsonschema.validate(report, POSITIVITY_SCHEMA)
            assert report["mode"] == "sampled" and report["seed"] == 3

    def test_json_report_validates(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify-positivity", "(x1&x2)", "--samples", "500", "--seed", "5", "--json",
        )
        payload = json.loads(out)
        jsonschema.validate(payload, POSITIVITY_SCHEMA)
        assert code == 0
        assert payload["result"] == "ok"
        assert payload["seed"] == 5

    def test_corpus_exhaustive_skips_large_universes(self, capsys, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("x1\n(((x1&x2)&x3)&x4)\n")
        code, out, _ = run_cli(
            capsys, "verify-positivity", "--corpus", str(path), "--exhaustive"
        )
        assert code == 0
        assert "OK x1" in out
        assert "skipped" in out

    def test_needs_a_formula_or_a_corpus(self, capsys):
        assert run_cli(capsys, "verify-positivity") == (2, "", ONE_OF_A_FORMULA_OR_A_CORPUS)

    def test_rejects_both_a_formula_and_a_corpus(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("x1\n")
        assert run_cli(capsys, "verify-positivity", "x1", "--corpus", str(path)) == (
            2, "", ONE_OF_A_FORMULA_OR_A_CORPUS
        )

    def test_json_corpus_reports_are_a_list(self, capsys, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("x1\n!x1\n")
        code, out, _ = run_cli(
            capsys, "verify-positivity", "--corpus", str(path), "--json"
        )
        payload = json.loads(out)
        assert code == 0
        assert len(payload) == 2
        for report in payload:
            jsonschema.validate(report, POSITIVITY_SCHEMA)


class TestTree:
    def test_single_variable_text(self, capsys):
        code, out, _ = run_cli(capsys, "tree", "x1")
        assert code == 0
        assert out.count("[i=1]") == 1
        assert out.count("accept") + out.count("reject") == 4
        assert "FIX_TRUE -> accept" in out
        assert "FIX_FALSE -> reject" in out

    def test_two_variable_json_lists_six_queries(self, capsys):
        code, out, _ = run_cli(capsys, "tree", "(x1&x2)", "--json")
        payload = json.loads(out)
        assert code == 0

        def collect(node, acc):
            if "queries" in node:
                acc.update(node["queries"])
                for child in node["edges"].values():
                    collect(child, acc)
            return acc

        assert len(collect(payload, set())) == 6

    def test_final_iteration_edge_labels(self, capsys):
        _, out, _ = run_cli(capsys, "tree", "(x1&x2)", "--json")
        payload = json.loads(out)
        for child in (payload["edges"]["FIX_TRUE"], payload["edges"]["FIX_FALSE"]):
            assert child["edges"]["FIX_TRUE"] == {"verdict": "accept"}
            assert child["edges"]["FIX_FALSE"] == {"verdict": "reject"}

    def test_bound_exceeded(self, capsys):
        assert run_cli(capsys, "tree", "(x1|x11)") == (
            2, "", "error: formula has 11 variables, exceeding the tree bound 10\n"
        )

    def test_deep_input_exits_2(self, capsys):
        assert run_cli(capsys, "tree", DEEP) == TOO_DEEP


class TestOracle:
    def test_satisfiable_body_tag_zero(self, capsys):
        assert run_cli(capsys, "oracle", "x10")[:2] == (0, "yes\n")

    def test_satisfiable_body_tag_one(self, capsys):
        assert run_cli(capsys, "oracle", "x11")[:2] == (1, "no\n")

    def test_one_query_reports_the_single_call(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "(x1&!x1)1", "--one-query")
        assert code == 0
        assert out == "sat-call: (x1&!x1)\nyes\n"

    def test_deeply_negated_body_is_answered(self, capsys):
        assert run_cli(capsys, "oracle", "!" * 5000 + "(x1&x2)0")[:2] == (0, "yes\n")
        assert run_cli(capsys, "oracle", "!" * 5000 + "(x1&x2)1")[:2] == (1, "no\n")

    def test_deep_body_over_20_variables_exits_2(self, capsys):
        assert run_cli(capsys, "oracle", DEEP_WIDE_QUERY) == TOO_DEEP

    def test_undecodable_string_answers_no(self, capsys):
        assert run_cli(capsys, "oracle", "zz")[:2] == (1, "no\n")

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "x10", "--json")
        payload = json.loads(out)
        assert (code, payload["answer"]) == (0, True)

    def test_one_query_meters_no_call_on_a_malformed_body(self, capsys):
        assert run_cli(capsys, "oracle", "zzz1", "--one-query")[:2] == (1, "no\n")
        code, out, _ = run_cli(capsys, "oracle", "zzz1", "--one-query", "--json")
        assert code == 1
        assert json.loads(out) == {"query": "zzz1", "answer": False, "satCalls": []}

    def test_one_query_json_lists_the_single_call(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "(x1&!x1)0", "--one-query", "--json")
        assert code == 1
        assert json.loads(out) == {"query": "(x1&!x1)0", "answer": False,
                                   "satCalls": ["(x1&!x1)"]}

    def test_json_lists_no_calls_without_one_query(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "(x1&!x1)1", "--json")
        assert code == 0
        assert json.loads(out) == {"query": "(x1&!x1)1", "answer": True}


class TestUsageErrors:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            *[pytest.param((command, "--corpus", "{%s}" % corpus), message,
                           id=f"{command}-{corpus}-corpus")
              for command in ("verify-equivalence", "verify-positivity")
              for corpus, message in [
                  ("missing", "[Errno 2] No such file or directory: '{missing}'"),
                  ("directory", "[Errno 21] Is a directory: '{directory}'"),
                  ("undecodable",
                   "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
              ]],
            pytest.param(("verify-equivalence", "--random", "2", "--size", "0", "--seed", "1"),
                         "size must be >= 1", id="verify-equivalence-size-0"),
        ],
    )
    def test_input_error_exits_2_with_its_message(self, capsys, tmp_path, argv, message):
        paths = {
            "missing": tmp_path / "missing.txt",
            "directory": tmp_path,
            "undecodable": tmp_path / "undecodable.txt",
        }
        paths["undecodable"].write_bytes(b"\xff\xfe")
        argv = [arg.format(**paths) for arg in argv]
        assert run_cli(capsys, *argv) == (2, "", f"error: {message.format(**paths)}\n")

    @settings(max_examples=200, deadline=None)
    @given(any_text)
    def test_any_text_exits_0_1_or_2_with_one_error_line(self, text):
        # "--" ends the options, so text that starts with "-" is still the input.
        for argv in (
            ["decide", "--", text],
            ["lexmax", "--", text],
            ["tree", "--", text],
            ["oracle", "--", text + "0"],
            ["verify-positivity", "--samples", "20", "--seed", "1", "--", text],
        ):
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), argv
            if code == 2:
                assert out.getvalue() == "", argv
                message = err.getvalue()
                assert message.startswith("error: "), argv
                assert message.endswith("\n") and message.splitlines(True) == [message], argv


class TestProcess:
    """The CLI as a process, for what only a process has: a stdout pipe that
    closes and a locale."""

    @staticmethod
    def command(*argv):
        return [sys.executable, "-X", "utf8=0", "-m", "oddmax.cli", *argv]

    @staticmethod
    def environment(**variables):
        source = str(Path(oddmax.__file__).resolve().parents[1])
        return {**os.environ, "PYTHONPATH": source, **variables}

    def test_a_closed_stdout_exits_1_with_empty_stderr(self):
        # Its tree dump (391 kB) is larger than a pipe holds.
        wide = "(((((((((x1|x2)|x3)|x4)|x5)|x6)|x7)|x8)|x9)|x10)"
        process = subprocess.Popen(
            self.command("tree", wide),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.environment(),
        )
        head = process.stdout.read(10)
        process.stdout.close()
        err = process.stderr.read()
        process.stderr.close()
        assert (process.wait(timeout=60), head, err) == (1, b"[i=1] ((((", b"")

    def test_corpus_files_are_utf8_under_any_locale(self, tmp_path):
        cafe = tmp_path / "cafe.txt"
        cafe.write_text("# caf\u00e9\n((x1|x2)&!x2)\n", encoding="utf-8")
        undecodable = tmp_path / "undecodable.txt"
        undecodable.write_bytes(b"\xff\xfe")
        undecodable_error = (
            b"error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        )
        for locale in ("C", "C.UTF-8"):
            env = self.environment(LC_ALL=locale)
            run = subprocess.run(
                self.command("verify-equivalence", "--corpus", str(cafe)),
                capture_output=True, env=env, timeout=60,
            )
            assert (run.returncode, run.stdout, run.stderr) == (
                0, b"checked=1 mismatches=0\n", b""
            ), locale
            run = subprocess.run(
                self.command("verify-equivalence", "--corpus", str(undecodable)),
                capture_output=True, env=env, timeout=60,
            )
            assert (run.returncode, run.stdout, run.stderr) == (2, b"", undecodable_error), locale
