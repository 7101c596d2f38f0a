"""Tests of the benchmark itself: run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import oddmax.formula
import oddmax.machine
import oddmax.sat
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parents[1]


def bindings() -> dict[tuple[str, str], object]:
    """Every binding of every traced function in the loaded oddmax modules."""
    found = {}
    for key, module in sys.modules.items():
        if module is None or not (key == "oddmax" or key.startswith("oddmax.")):
            continue
        for _, _, functions in spans.LAYERS:
            for function in functions:
                if function in module.__dict__:
                    found[(key, function)] = module.__dict__[function]
    return found


def test_tracer_wraps_every_binding_and_restores_it():
    before = bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = bindings()
        assert all(during[key] is not before[key] for key in before)
        assert during[("oddmax.oracle", "parse")].__wrapped__ is before[("oddmax.formula", "parse")]
    finally:
        tracer.restore()
    assert bindings() == before


def test_traced_run_restores_originals_and_reports_layers(tmp_path):
    before = bindings()
    record = harness.run("positivity-exhaustive", 3, 0, True, tmp_path)
    assert bindings() == before
    assert record["correct"]
    layers = record["layers"]
    assert layers["positivity.check.calls"] == record["pass0_ops"]
    assert layers["oracle.enumerate_subset_pairs.pairs"] == layers["positivity.pairs_checked"]
    assert 0 < layers["positivity.verdict_reuse_ratio"] < 1
    assert record["overhead_ratio"] > 0


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    tracer.phase("pass0")
    outer = tracer.enter(0)
    inner = tracer.enter(1)
    tracer.leave(inner)
    tracer.leave(outer)
    tracer.start[outer], tracer.end[outer] = 0.0, 1.0
    tracer.start[inner], tracer.end[inner] = 0.25, 0.5
    totals = tracer.layer_totals()["pass0"]
    assert totals[tracer.names[0]]["self_s"] == pytest.approx(0.75)
    assert totals[tracer.names[1]]["self_s"] == pytest.approx(0.25)


def test_sat_dpll_recursion_counts_as_branches(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    tracer.phase("pass0")
    try:
        oddmax.sat.sat_dpll(oddmax.formula.parse("((x1|x2)&(!x1|x3))"))
    finally:
        tracer.restore()
    totals = tracer.layer_totals()["pass0"]
    assert totals["sat.sat_dpll"]["calls"] == 1
    assert tracer.counters["pass0"]["sat.sat_dpll.branches"] >= 1


def test_mutant_mismatches_count_as_failed_ops(tmp_path):
    record = harness.run("equivalence", 5, 0, False, tmp_path,
                         program=oddmax.machine.MUTANT_SWAP_FINAL)
    assert record["failed"] > 0
    assert record["error_rate"] == record["failed"] / record["attempted"]
    assert not record["correct"]


def test_deep_input_recursion_error_is_a_failed_op(tmp_path):
    workload = workloads.Equivalence(0, tmp_path)
    workload.setup()
    runner = harness.PassRunner(workload)
    times: list[float] = []
    results = runner.run([("!" * 5000 + "x1", True), ("(x1&x2)", True)], times)
    assert runner.failed == 1 and len(times) == 2
    assert results[0].record == {"error": "RecursionError"}
    assert results[1].ok


def test_raising_layer_is_counted_not_propagated(tmp_path, monkeypatch):
    original = oddmax.sat.sat_bruteforce

    def flaky(formula, *args, **kwargs):
        if oddmax.formula.num_vars(formula) == 20:
            raise RuntimeError("injected")
        return original(formula, *args, **kwargs)

    monkeypatch.setattr(oddmax.sat, "sat_bruteforce", flaky)
    record = harness.run("sat-crosscheck", 2, 0, True, tmp_path)
    per_n = workloads.CROSSCHECK_UNSAT + workloads.CROSSCHECK_SAT
    assert record["failed"] == per_n * record["passes"]
    assert oddmax.sat.sat_bruteforce is flaky


def test_inputs_come_from_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        a = harness.run(name, 7, 0, False, tmp_path, setup_only=True)
        b = harness.run(name, 7, 0, False, tmp_path, setup_only=True)
        c = harness.run(name, 8, 0, False, tmp_path, setup_only=True)
        assert a == b
        assert a != c


def test_output_digest_repeats(tmp_path):
    for name in workloads.WORKLOADS:
        first = harness.run(name, 4, 0, False, tmp_path)
        second = harness.run(name, 4, 0, False, tmp_path)
        assert first["correct"] and first["cli_parity"] == "ok", name
        assert first["output_digest"] == second["output_digest"], name


def test_generator_text_is_canonical_and_expectations_hold():
    tables = workloads.TruthTables()
    rng = random.Random(1)
    for n in (1, 3, 8, 12):
        for _ in range(20):
            g = workloads.generate(rng, n, tables)
            formula = oddmax.formula.parse(g.text)
            assert oddmax.formula.serialize(formula) == g.text
            assert oddmax.formula.num_vars(formula) == g.n
            witness = oddmax.sat.lexmax(formula)
            bits = None if witness is None else oddmax.formula.assignment_bits(witness)
            assert bits == g.lexmax_bits()


def test_crosscheck_pass_has_fixed_unsat_share(tmp_path):
    items = workloads.SatCrosscheck(3, tmp_path).make_pass(0)
    for n in workloads.CROSSCHECK_VARS:
        group = [g for g in items if g.n == n]
        assert sum(not g.satisfiable for g in group) == workloads.CROSSCHECK_UNSAT
        assert len(group) == workloads.CROSSCHECK_UNSAT + workloads.CROSSCHECK_SAT


def test_tail_percentile_keeps_ten_samples_beyond():
    assert harness.tail_latency([float(i) for i in range(1000)], 99.0)[0] == 99.0
    percentile, value, beyond = harness.tail_latency([float(i) for i in range(999)], 99.0)
    assert (percentile, beyond) == (90.0, 99)
    assert harness.tail_latency([float(i) for i in range(5000)], 90.0)[0] == 90.0


def test_speed_scale_follows_the_reference_around_each_op():
    nominal = speed.REFERENCE_NOMINAL_S
    gauge = speed.SpeedGauge()
    gauge.marks = [0, 2, 3, 5]
    gauge.seconds = [nominal, nominal, 2 * nominal, 2 * nominal]
    assert gauge.scales(5) == pytest.approx([1, 1, 2 / 3, 0.5, 0.5])


def test_one_slow_reference_does_not_move_the_ops_beside_it():
    nominal = speed.REFERENCE_NOMINAL_S
    gauge = speed.SpeedGauge()
    gauge.marks = [0, 1, 2, 3, 4]
    gauge.seconds = [nominal, nominal, 10 * nominal, nominal, nominal]
    assert gauge.scales(4) == pytest.approx([1, 1, 1, 1])


def test_speed_scale_needs_a_reference_after_the_last_op():
    gauge = speed.SpeedGauge()
    gauge.probe(0)
    gauge.probe(3)
    assert len(gauge.scales(3)) == 3
    with pytest.raises(ValueError):
        gauge.scales(4)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(command + ["--workload", "equivalence", "--seed", "1",
                                     "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
