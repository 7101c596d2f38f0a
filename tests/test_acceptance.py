"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[acceptance] <criterion>: PASS|FAIL` line (run pytest
with -s to stream them) and then asserts. Tolerances are pinned here:
mismatch/violation counts must be exactly zero and the wall-clock budgets
are hard limits.
"""

from __future__ import annotations

import random
import time

from conftest import (
    lexmax_greedy,
    reachable_query_wires,
    reference_join,
    reference_tokens,
    sorted_universe,
    threshold_cnf,
)
from oddmax.corpus import curated_corpus, random_corpus
from oddmax.formula import And, Not, Or, Var, num_vars, parse, random_formula, serialize
from oddmax.machine import (
    IterationCase,
    MUTANT_PROGRAMS,
    decide_oddmaxsat,
    query_universe,
    run_machine,
)
from oddmax.oracle import FiniteOracle, sat_join_cosat
from oddmax.positivity import check_positivity_exhaustive, check_positivity_sampled
from oddmax.sat import lexmax, odd_max_sat_ref, sat_bruteforce, sat_dpll, text_satisfiable

CORPUS = curated_corpus()


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def test_theorem1_equivalence():
    """Machine and reference agree on the curated corpus and 2000 random
    formulas with n <= 8; zero mismatches; under 60 s."""
    start = time.perf_counter()
    batch = CORPUS + random_corpus(2000, max_vars=8, size=25, seed=1789)
    mismatches = [
        serialize(f) for f in batch if decide_oddmaxsat(f) != odd_max_sat_ref(f)
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 60
    report(
        "theorem1-equivalence",
        ok,
        f"(checked={len(batch)} mismatches={len(mismatches)} time={elapsed:.1f}s)",
    )
    assert mismatches == []
    assert elapsed < 60


def test_positivity_exhaustive_over_corpus():
    """Every corpus formula whose query universe has at most 12 elements
    passes the full 3^|U| sweep; under 60 s."""
    start = time.perf_counter()
    checked = 0
    violations = []
    for formula in CORPUS:
        if len(query_universe(formula)) > 12:
            continue
        checked += 1
        if not check_positivity_exhaustive(formula).ok:
            violations.append(serialize(formula))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 60
    report(
        "positivity-exhaustive",
        ok,
        f"(formulas={checked} violations={len(violations)} time={elapsed:.1f}s)",
    )
    assert checked >= 25
    assert violations == []
    assert elapsed < 60


def test_positivity_sampled_over_corpus():
    """20 corpus formulas spanning 3 <= n <= 6, 10,000 sampled nested pairs
    each, zero violations; under 5 s."""
    start = time.perf_counter()
    picked = []
    for n in (3, 4, 5, 6):
        picked.extend([f for f in CORPUS if num_vars(f) == n][:5])
    assert len(picked) == 20
    violations = []
    for index, formula in enumerate(picked):
        reportcard = check_positivity_sampled(formula, samples=10_000, seed=1000 + index)
        if not reportcard.ok:
            violations.append(serialize(formula))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 5
    report(
        "positivity-sampled",
        ok,
        f"(formulas=20 samples=10000 violations={len(violations)} time={elapsed:.1f}s)",
    )
    assert violations == []
    assert elapsed < 5


#: The checker that must catch each shipped mutant. A mutant added to
#: MUTANT_PROGRAMS without an entry here fails test_checker_sensitivity.
MUTANT_CATCHERS = {
    "swap-unanimous-verdicts": "positivity",
    "swap-continuations": "equivalence",
    "swap-final-verdicts": "equivalence",
}


def positivity_catch(program, pool):
    """The text of a formula whose exhaustive sweep finds a nested oracle
    pair the mutant accepts below and rejects above, replayed by two fresh
    runs; None if no formula in the pool gives one."""
    for formula in pool:
        found = check_positivity_exhaustive(formula, program=program)
        if found.ok:
            continue
        violation = found.violation
        replayed_small = run_machine(found.formula, violation.small, program).verdict
        replayed_large = run_machine(found.formula, violation.large, program).verdict
        if replayed_small is True and replayed_large is False:
            return found.formula
    return None


def equivalence_catch(program, pool):
    """The text of a formula on which the mutant's verdict under the join
    oracle differs from the lex-max reference, replayed by a second run from
    the serialized text; None if no formula in the pool gives one."""
    for formula in pool:
        text = serialize(formula)
        expected = odd_max_sat_ref(formula)
        if run_machine(text, sat_join_cosat, program).verdict == expected:
            continue
        replayed = run_machine(text, sat_join_cosat, program).verdict
        if replayed != odd_max_sat_ref(parse(text)):
            return text
    return None


CATCHERS = {"positivity": positivity_catch, "equivalence": equivalence_catch}


def test_checker_sensitivity():
    """Each shipped mutant is caught, on some formula with 1 <= n <= 2, by
    the checker pinned for it in MUTANT_CATCHERS, and the catch replays;
    under 10 s.

    The positivity checker catches only the unanimous-verdict mutant. Two
    runs under nested oracles behave identically until the larger one
    strictly dominates an answer pair, and the only strict dominator of a
    mixed pair is yes/yes, so mutants that edit just the mixed-pair
    continuations or their end-of-loop verdicts remain monotone machines;
    no positivity counterexample exists for them. They are incorrect, and
    the Theorem-1 equivalence check against the lex-max reference catches
    them. The unanimous-verdict mutant agrees with the reference, because
    the join oracle never answers a unanimous pair. Pinning the checker per
    mutant keeps either checker from covering for a regression in the other.
    """
    start = time.perf_counter()
    small = [f for f in CORPUS if 1 <= num_vars(f) <= 2]
    outcomes = {}
    for name, program in MUTANT_PROGRAMS.items():
        checker = MUTANT_CATCHERS.get(name)
        caught = CATCHERS[checker](program, small) if checker else None
        outcomes[name] = (checker, caught)
    elapsed = time.perf_counter() - start

    def describe(checker, caught):
        if checker is None:
            return "no pinned checker"
        if caught is None:
            return f"not caught by {checker}"
        return f"caught by {checker} on {caught}"

    detail = ", ".join(f"{name}={describe(*pair)}" for name, pair in outcomes.items())
    pinned = set(MUTANT_CATCHERS) == set(MUTANT_PROGRAMS)
    all_caught = all(caught is not None for _, caught in outcomes.values())
    ok = pinned and all_caught and elapsed < 10
    report("checker-sensitivity", ok, f"({detail}; time={elapsed:.1f}s)")
    assert elapsed < 10
    assert pinned, f"pinned {sorted(MUTANT_CATCHERS)}, shipped {sorted(MUTANT_PROGRAMS)}"
    assert all_caught, detail


def test_case_restriction_under_true_oracle():
    """With the real join oracle every iteration is a pin case."""
    total = 0
    pinned = 0
    for formula in CORPUS:
        transcript = run_machine(serialize(formula), sat_join_cosat)
        for it in transcript.iterations:
            total += 1
            pinned += it.case in (IterationCase.FIX_TRUE, IterationCase.FIX_FALSE)
    ok = total > 0 and pinned == total
    report("case-restriction", ok, f"(iterations={total} pinned={pinned})")
    assert pinned == total


def _pair_fault(transcript) -> bool:
    """True unless every iteration asks one body twice, tag '0' then '1'."""
    return any(
        (first.query.tag, second.query.tag) != ("0", "1") or first.query.body != second.query.body
        for first, second in (it.records for it in transcript.iterations)
    )


def test_query_bound():
    """Every iteration asks one body under tag '0', then tag '1', and a run
    takes k <= n iterations; the true oracle drives every formula with
    n >= 1 to k = n exactly."""
    rng = random.Random(99)
    arbitrary_runs = 0
    failures = []
    for formula in CORPUS:
        n = num_vars(formula)
        text = serialize(formula)
        true_run = run_machine(text, sat_join_cosat)
        if _pair_fault(true_run):
            failures.append(f"{text}: true-oracle iteration is not one body, tags 0 then 1")
        if len(true_run.iterations) != n:
            failures.append(f"{text}: true-oracle run stopped before i=n")
        if n < 1 or n > 6:
            continue
        universe = frozenset(query_universe(formula))
        ordered = sorted_universe(universe)
        for _ in range(5):
            members = frozenset(q for q in ordered if rng.randrange(2))
            arbitrary = run_machine(text, FiniteOracle(universe, members))
            if _pair_fault(arbitrary) or len(arbitrary.iterations) > n:
                failures.append(f"{text}: bad arbitrary-oracle transcript")
            arbitrary_runs += 1
    report(
        "query-bound",
        not failures,
        f"(corpus transcripts plus {arbitrary_runs} arbitrary-oracle runs, "
        f"failures={len(failures)})",
    )
    assert failures == []


def test_theorem2_one_query_witness():
    """The join oracle, metered, matches an independent join of the
    truth-table SAT and UNSAT sets on every universe query for corpus
    formulas with n <= 6, making exactly one call each; under 30 s."""
    start = time.perf_counter()
    queries = 0
    disagreements = 0
    bad_meter = 0
    for formula in CORPUS:
        if not 1 <= num_vars(formula) <= 6:
            continue
        for query in sorted_universe(query_universe(formula)):
            calls: list[str] = []
            queries += 1
            if sat_join_cosat(query, calls) != reference_join(query):
                disagreements += 1
            if len(calls) != 1:
                bad_meter += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and bad_meter == 0 and elapsed < 30
    report(
        "theorem2-one-query",
        ok,
        f"(queries={queries} disagreements={disagreements} "
        f"meter-violations={bad_meter} time={elapsed:.1f}s)",
    )
    assert queries >= 100
    assert disagreements == 0
    assert bad_meter == 0
    assert elapsed < 30


def test_sat_backend_agreement():
    """Splitting search equals the truth-table sweep on 10,000 seeded random
    formulas with n <= 12; zero disagreements; under 60 s."""
    start = time.perf_counter()
    batch = random_corpus(10_000, max_vars=12, size=25, seed=4242)
    disagreements = [
        serialize(f) for f in batch if sat_dpll(f) != sat_bruteforce(f)
    ]
    elapsed = time.perf_counter() - start
    ok = not disagreements and elapsed < 60
    report(
        "sat-backend-agreement",
        ok,
        f"(checked={len(batch)} disagreements={len(disagreements)} time={elapsed:.1f}s)",
    )
    assert disagreements == []
    assert elapsed < 60


def test_block_sweep_agreement():
    """On 400 seeded formulas spanning exactly n = 17..20 variables (200
    random bodies and their negations): splitting search equals
    sat_bruteforce and the greedy lex-max equals lexmax; zero
    disagreements; under 5 s. The lex-max search runs over the variables
    that occur, at most 14 here, so each is one table; tests/test_sat.py's
    full-span inputs reach its pins."""
    start = time.perf_counter()
    batch = []
    for seed in range(200):
        n = 17 + seed % 4
        base = random_formula(seed, n=n, size=25)
        batch += [And(body, Or(Var(n), Not(Var(n)))) for body in (base, Not(base))]
    disagreements = [
        serialize(f)
        for f in batch
        if sat_dpll(f) != sat_bruteforce(f) or lexmax(f) != lexmax_greedy(f)
    ]
    elapsed = time.perf_counter() - start
    ok = not disagreements and elapsed < 5
    report(
        "block-sweep-agreement",
        ok,
        f"(checked={len(batch)} disagreements={len(disagreements)} time={elapsed:.1f}s)",
    )
    assert all(num_vars(f) == 17 + index // 2 % 4 for index, f in enumerate(batch))
    assert disagreements == []
    assert elapsed < 5


def test_hard_inputs_below_the_bound():
    """Threshold 3-CNF at n = 10..20, 20 formulas per n: the machine equals
    the reference (Theorem 1) with exactly one metered SAT call per join
    query (Theorem 2), swap-continuations is wrong on every accepted
    formula and swap-final-verdicts on every formula, and splitting search
    equals the truth-table sweep on all 220; zero mismatches; under 30 s."""
    start = time.perf_counter()
    batch = [threshold_cnf(seed, n) for n in range(10, 21) for seed in range(20)]
    texts = [serialize(f) for f in batch]
    witnesses = [lexmax(f) for f in batch]
    verdicts = [odd_max_sat_ref(f) for f in batch]
    # The standard machine runs on the join, metered per query (Theorem 2).
    meter: list[bool] = []

    def metered(query):
        calls: list[str] = []
        answer = sat_join_cosat(query, calls)
        meter.append(calls == [query.body])
        return answer

    mismatches = [t for t, v in zip(texts, verdicts) if run_machine(t, metered).verdict != v]
    wrong = {
        name: [
            run_machine(t, sat_join_cosat, MUTANT_PROGRAMS[name]).verdict != v
            for t, v in zip(texts, verdicts)
        ]
        for name in ("swap-continuations", "swap-final-verdicts")
    }
    # sat_dpll pins the literals among the top-level conjuncts before each
    # split (the unit rule): on two cores with Python 3.11 it takes about
    # 0.55 s on all 220 formulas, against 6.7 s without the rule.
    backends = batch
    disagreements = [serialize(f) for f in backends if sat_dpll(f) != sat_bruteforce(f)]
    elapsed = time.perf_counter() - start
    ok = all(meter) and not mismatches and not disagreements and elapsed < 30
    report(
        "hard-inputs-below-the-bound",
        ok,
        f"(formulas={len(batch)} unsat={witnesses.count(None)} accepted={sum(verdicts)} "
        f"queries={len(meter)} meter-violations={meter.count(False)} "
        f"mismatches={len(mismatches)} mutants-wrong={[sum(w) for w in wrong.values()]} "
        f"backends={len(backends)} disagreements={len(disagreements)} time={elapsed:.1f}s)",
    )
    # Hard inputs: UNSAT formulas, no all-true witness, both verdicts.
    assert witnesses.count(None) == 51 and not any(w and all(w) for w in witnesses)
    assert sum(verdicts) == 92
    assert meter and all(meter)
    assert mismatches == []
    assert wrong["swap-continuations"] == verdicts and all(wrong["swap-final-verdicts"])
    assert len(backends) == 220 and disagreements == []
    assert elapsed < 30


def test_hard_inputs_above_the_bound():
    """Threshold 3-CNF above the truth-table bound, 4 formulas per n: lexmax
    and odd_max_sat_ref equal the greedy reference for n = 21..23, and the
    machine equals the reference (Theorem 1) for n = 21..26; zero
    mismatches; under 40 s."""
    start = time.perf_counter()
    mismatches = []
    witnesses = []
    verdicts = []
    for n in range(21, 27):
        for seed in range(4):
            formula = threshold_cnf(seed, n)
            if n <= 23:
                witness = lexmax(formula)
                witnesses.append(witness)
                odd = witness is not None and witness[-1]
                if witness != lexmax_greedy(formula) or odd_max_sat_ref(formula) is not odd:
                    mismatches.append(serialize(formula))
            verdicts.append(odd_max_sat_ref(formula))
            if decide_oddmaxsat(formula) != verdicts[-1]:
                mismatches.append(serialize(formula))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 40
    report(
        "hard-inputs-above-the-bound",
        ok,
        f"(witnesses={len(witnesses)} unsat={witnesses.count(None)} "
        f"runs={len(verdicts)} accepted={sum(verdicts)} mismatches={len(mismatches)} "
        f"time={elapsed:.1f}s)",
    )
    # Hard inputs: UNSAT formulas, no all-true witness, both verdicts.
    assert None in witnesses and not any(w and all(w) for w in witnesses)
    assert 0 < sum(verdicts) < len(verdicts)
    assert mismatches == []
    assert elapsed < 40


def test_join_fallback_above_the_bound():
    """The join's text_satisfiable equals sat_dpll(parse(text)) on threshold
    3-CNF bodies, 4 per n = 21..26, each with more than 20 distinct
    variables; zero disagreements; under 40 s."""
    start = time.perf_counter()
    texts = [serialize(threshold_cnf(seed, n)) for n in range(21, 27) for seed in range(4)]
    answers = [text_satisfiable(text) for text in texts]
    disagreements = [
        text for text, answer in zip(texts, answers) if answer is not sat_dpll(parse(text))
    ]
    elapsed = time.perf_counter() - start
    ok = not disagreements and elapsed < 40
    report(
        "join-fallback-above-the-bound",
        ok,
        f"(checked={len(texts)} sat={sum(answers)} disagreements={len(disagreements)} "
        f"time={elapsed:.1f}s)",
    )
    assert all(len({x for x in reference_tokens(t) if x[0] == "x"}) > 20 for t in texts)
    assert 0 < sum(answers) < len(texts)
    assert disagreements == []
    assert elapsed < 40


def test_universe_cardinality():
    """Full-depth universes hold 2*(2^n - 1) queries for n = 1, 2, 3,
    cross-checked by an independent frontier expansion."""
    cases = [("x1", 2), ("(x1&x2)", 6), ("(x1&(x2&x3))", 14)]
    failures = []
    sizes = []
    for text, expected in cases:
        formula = parse(text)
        independent = reachable_query_wires(formula)
        library = {q.wire() for q in query_universe(formula)}
        sizes.append(len(library))
        if len(independent) != expected or library != independent:
            failures.append(f"{text}: got {len(library)}, expected {expected}")
    report("universe-cardinality", not failures, f"(sizes={sizes} expected=[2, 6, 14])")
    assert failures == []
