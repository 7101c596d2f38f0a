"""The four benchmark workloads: their inputs, the timed op, and the checks.

Inputs are owned by the benchmark. Random formulas come from its own
generator (`formulas.py`), not from ``oddmax.corpus.random_corpus`` or
``random_formula``, so a change to those functions cannot silently change a
workload. The curated corpus is read through the package, as users read it.

A workload is run in passes. Pass 0 is built during set-up; later passes are
built between ops, outside op timing. Every pass has the workload's stated
mix, and a run always ends on a pass boundary, so the mix a run measures does
not depend on how many ops fit in the time.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import oddmax.cli
import oddmax.corpus
import oddmax.formula
import oddmax.machine
import oddmax.oracle
import oddmax.positivity
import oddmax.sat
from formulas import Generated, TruthTables, generate

#: Random formulas per equivalence pass, the `verify-equivalence` default.
EQUIVALENCE_RANDOM = 2000
#: Variable counts of the equivalence formulas are drawn from 1..8.
EQUIVALENCE_MAX_VARS = 8
#: Variable counts swept by sat-crosscheck: both lexmax regimes.
CROSSCHECK_VARS = range(1, 21)
#: Per pass and per variable count: UNSAT formulas, satisfiable formulas.
#: 2 in 15 is close to the generator's own UNSAT share (about 1 in 10 for
#: n >= 9).
CROSSCHECK_UNSAT, CROSSCHECK_SAT = 2, 13
#: Nested pairs drawn per positivity-sampled op.
SAMPLED_PAIRS = 1000
#: Universe bound of the exhaustive workload (the acceptance test's).
EXHAUSTIVE_MAX_UNIVERSE = 12


def pass_rng(workload: str, seed: int, pass_index: int) -> random.Random:
    # String seeds are hashed with SHA-512, so they do not depend on
    # PYTHONHASHSEED and the same seed gives the same inputs in every process.
    return random.Random(f"{workload}:{seed}:{pass_index}")


@dataclass
class OpResult:
    """The checked outcome of one op."""

    ok: bool
    record: Any  # JSON-serializable output, digested in order
    detail: str = ""


class Workload:
    """One workload: `make_pass` builds inputs, `op` is the timed call, and
    `check` validates its result outside timing."""

    name = ""
    #: The percentile latency_tail_ms reports: the highest of 99 and 90
    #: that left at least ten ops beyond it in a 25-second run when the
    #: benchmark was written. Fixed per workload so that run-to-run changes
    #: in op count cannot move the metric to another percentile.
    tail_percentile = 99.0

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def setup(self) -> None:
        """Work done once before the first op besides building pass 0."""

    def make_pass(self, index: int) -> list:
        raise NotImplementedError

    def input_key(self, item) -> str:
        """One line per input for the input digest."""
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def check(self, item, result) -> OpResult:
        raise NotImplementedError

    def cli_parity(self, items: list, results: list[OpResult]) -> list[str]:
        """Run the workload's CLI command in-process; return disagreements."""
        raise NotImplementedError


def run_cli(argv: list[str]) -> tuple[int, Any]:
    """Call ``oddmax.cli.main`` in-process and decode its JSON output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = oddmax.cli.main(argv)
    return code, json.loads(out.getvalue())


class Equivalence(Workload):
    """An item is (formula text, the truth table's verdict or None)."""

    name = "equivalence"

    def __init__(self, seed: int, out_dir: Path, program=None):
        super().__init__(seed, out_dir)
        self.program = program or oddmax.machine.STANDARD_PROGRAM
        self.tables = TruthTables()

    def setup(self) -> None:
        self.corpus = [oddmax.formula.serialize(f) for f in oddmax.corpus.curated_corpus()]

    def make_pass(self, index: int) -> list:
        rng = pass_rng(self.name, self.seed, index)
        items = []
        for _ in range(EQUIVALENCE_RANDOM):
            g = generate(rng, rng.randint(1, EQUIVALENCE_MAX_VARS), self.tables)
            # OddMaxSat: satisfiable and the lex-max witness ends in 1.
            items.append((g.text, g.n > 0 and g.satisfiable and g.lexmax_index % 2 == 1))
        items += [(text, None) for text in self.corpus]
        rng.shuffle(items)
        return items

    def input_key(self, item) -> str:
        return item[0]

    def op(self, item):
        text = item[0]
        transcript = oddmax.machine.run_machine(
            text, oddmax.oracle.sat_join_cosat, self.program
        )
        formula = oddmax.formula.parse(text)
        if oddmax.formula.num_vars(formula) == 0:
            reference = False  # the machine rejects constant formulas
        else:
            reference = oddmax.sat.odd_max_sat_ref(formula)
        return transcript, reference

    def check(self, item, result) -> OpResult:
        expected = item[1]
        transcript, reference = result
        record = {"transcript": transcript.to_json(), "reference": reference}
        if not transcript.well_formed or transcript.verdict != reference:
            return OpResult(False, record, f"machine={transcript.verdict} reference={reference}")
        if expected is not None and reference != expected:
            return OpResult(False, record, f"reference={reference} truth table={expected}")
        return OpResult(True, record)

    def cli_parity(self, items, results) -> list[str]:
        path = self.out_dir / f"equivalence-seed{self.seed}-pass0.txt"
        path.write_text("".join(text + "\n" for text, _ in items))
        code, payload = run_cli(["verify-equivalence", "--corpus", str(path), "--json"])
        library = [text for (text, _), res in zip(items, results) if not res.ok]
        problems = []
        if payload["checked"] != len(items):
            problems.append(f"checked={payload['checked']} expected {len(items)}")
        if [m["formula"] for m in payload["mismatches"]] != library:
            problems.append(f"CLI mismatches {payload['mismatchCount']} != library {len(library)}")
        if code != (1 if library else 0):
            problems.append(f"exit code {code}")
        return problems


class SatCrosscheck(Workload):
    name = "sat-crosscheck"

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.tables = TruthTables()

    def make_pass(self, index: int) -> list:
        # Every pass holds, for each n, the same number of unsatisfiable
        # formulas. An unsatisfiable formula costs lexmax a full 2^n sweep,
        # so letting that count vary by seed would make run-to-run spread
        # measure the draw instead of the program.
        rng = pass_rng(self.name, self.seed, index)
        items: list[Generated] = []
        for n in CROSSCHECK_VARS:
            unsat: list[Generated] = []
            sat: list[Generated] = []
            for _ in range(100_000):
                if len(unsat) == CROSSCHECK_UNSAT and len(sat) == CROSSCHECK_SAT:
                    break
                g = generate(rng, n, self.tables)
                bucket, quota = (sat, CROSSCHECK_SAT) if g.satisfiable else (unsat, CROSSCHECK_UNSAT)
                if len(bucket) < quota:
                    bucket.append(g)
            else:
                raise RuntimeError(f"generator did not fill the n={n} quota")
            items.extend(unsat + sat)
        rng.shuffle(items)
        return items

    def input_key(self, item) -> str:
        return item.text

    def op(self, item):
        formula = oddmax.formula.parse(item.text)
        return (
            formula,
            oddmax.sat.sat_dpll(formula),
            oddmax.sat.sat_bruteforce(formula),
            oddmax.sat.lexmax(formula),
        )

    def check(self, item, result) -> OpResult:
        formula, dpll, brute, witness = result
        bits = None if witness is None else oddmax.formula.assignment_bits(witness)
        record = {"dpll": dpll, "bruteforce": brute, "lexmax": bits}
        if dpll != brute:
            return OpResult(False, record, "back ends disagree")
        if (witness is None) == dpll:
            return OpResult(False, record, "lexmax disagrees with satisfiability")
        if witness is not None and not oddmax.formula.evaluate(formula, witness):
            return OpResult(False, record, "witness does not satisfy the formula")
        if dpll != item.satisfiable or bits != item.lexmax_bits():
            return OpResult(False, record, f"truth table expects {item.lexmax_bits()}")
        return OpResult(True, record)

    def cli_parity(self, items, results) -> list[str]:
        # `oddmax lexmax` on the first formula of each n in pass 0.
        problems = []
        seen = set()
        for item, res in zip(items, results):
            if item.n in seen or not res.ok:
                continue
            seen.add(item.n)
            code, payload = run_cli(["lexmax", item.text, "--json"])
            if payload["assignment"] != res.record["lexmax"] or code != (
                1 if res.record["lexmax"] is None else 0
            ):
                problems.append(f"lexmax {item.text}: CLI {payload} exit {code}")
        return problems


class _Positivity(Workload):
    tail_percentile = 90.0

    def input_key(self, item) -> str:
        return " ".join(str(part) for part in item)

    def check_report(self, report, expected_pairs: int) -> OpResult:
        record = report.to_json()
        if not report.ok:
            return OpResult(False, record, "violation")
        if report.pairs_checked != expected_pairs:
            return OpResult(False, record, f"pairs_checked={report.pairs_checked} expected {expected_pairs}")
        return OpResult(True, record)


class PositivitySampled(_Positivity):
    name = "positivity-sampled"

    def setup(self) -> None:
        # The 20 formulas the acceptance test picks: the first five per n = 3..6.
        corpus = oddmax.corpus.curated_corpus()
        picked = []
        for n in (3, 4, 5, 6):
            picked.extend([f for f in corpus if oddmax.formula.num_vars(f) == n][:5])
        self.formulas = picked
        self.texts = [oddmax.formula.serialize(f) for f in picked]

    def make_pass(self, index: int) -> list:
        rng = pass_rng(self.name, self.seed, index)
        return [(i, self.texts[i], rng.getrandbits(32)) for i in range(len(self.texts))]

    def op(self, item):
        index, _, sample_seed = item
        return oddmax.positivity.check_positivity_sampled(
            self.formulas[index], samples=SAMPLED_PAIRS, seed=sample_seed
        )

    def check(self, item, result) -> OpResult:
        return self.check_report(result, SAMPLED_PAIRS)

    def cli_parity(self, items, results) -> list[str]:
        problems = []
        for (_, text, sample_seed), res in zip(items, results):
            argv = ["verify-positivity", text, "--samples", str(SAMPLED_PAIRS),
                    "--seed", str(sample_seed), "--json"]
            code, payload = run_cli(argv)
            if payload != res.record or code != (0 if res.ok else 1):
                problems.append(f"verify-positivity {text}: CLI disagrees (exit {code})")
        return problems


class PositivityExhaustive(_Positivity):
    name = "positivity-exhaustive"

    def setup(self) -> None:
        self.formulas = []
        self.universe = []
        for f in oddmax.corpus.curated_corpus():
            size = len(oddmax.machine.query_universe(f))
            if size <= EXHAUSTIVE_MAX_UNIVERSE:
                self.formulas.append(f)
                self.universe.append(size)
        self.texts = [oddmax.formula.serialize(f) for f in self.formulas]

    def make_pass(self, index: int) -> list:
        order = list(range(len(self.formulas)))
        pass_rng(self.name, self.seed, index).shuffle(order)
        return [(i, self.texts[i]) for i in order]

    def op(self, item):
        return oddmax.positivity.check_positivity_exhaustive(self.formulas[item[0]])

    def check(self, item, result) -> OpResult:
        index = item[0]
        if result.universe_size != self.universe[index]:
            return OpResult(False, result.to_json(), "universe size changed")
        return self.check_report(result, 3 ** self.universe[index])

    def cli_parity(self, items, results) -> list[str]:
        path = self.out_dir / f"positivity-exhaustive-seed{self.seed}-pass0.txt"
        path.write_text("".join(text + "\n" for _, text in items))
        code, payload = run_cli(["verify-positivity", "--corpus", str(path), "--json"])
        if payload != [res.record for res in results]:
            return ["CLI reports differ from the library reports"]
        if code != (0 if all(res.ok for res in results) else 1):
            return [f"exit code {code}"]
        return []


WORKLOADS: dict[str, Callable[..., Workload]] = {
    w.name: w for w in (Equivalence, SatCrosscheck, PositivitySampled, PositivityExhaustive)
}
