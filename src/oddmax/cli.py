"""Command-line front end: decide formulas, inspect runs and trees, and
verify machine/reference agreement and oracle monotonicity.

Exit codes across all commands: 0 accept/OK, 1 reject/violation, 2 usage or
input error. The commands raise ValueError or OSError on bad input, and `main`
is the one place where such an error becomes `error: ...` on stderr and exit 2.
A reader that closes stdout early gets exit 1 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Sequence

from .corpus import load_corpus, random_corpus
from .formula import Formula, assignment_bits, num_vars, parse, serialize
from .machine import (
    TREE_BOUND,
    Transcript,
    build_query_tree,
    decide_oddmaxsat,
    render_tree,
    run_machine,
    tree_to_json,
)
from .oracle import Query, SUBSET_PAIR_BOUND, sat_join_cosat
from .positivity import (
    DEFAULT_SAMPLES,
    PositivityReport,
    check_positivity_exhaustive,
    check_positivity_sampled,
)
from .sat import lexmax, odd_max_sat_ref

DEFAULT_RANDOM_COUNT = 2000
DEFAULT_MAX_VARS = 8
DEFAULT_NODE_BUDGET = 25


def _verdict_word(verdict: bool) -> str:
    return "accept" if verdict else "reject"


def _print_json(payload: object) -> None:
    print(json.dumps(payload, indent=2))


def _trace_lines(transcript: Transcript) -> list[str]:
    lines = []
    for it in transcript.iterations:
        r0, r1 = it.records
        lines.append(
            f"i={it.index}: {r0.query.wire()}={'yes' if r0.answer else 'no'} "
            f"{r1.query.wire()}={'yes' if r1.answer else 'no'} -> {it.case.value}"
        )
    return lines


def cmd_decide(args: argparse.Namespace) -> int:
    transcript = run_machine(args.formula, sat_join_cosat)
    if args.json:
        _print_json(transcript.to_json())
    if not transcript.well_formed:
        parse(args.formula)  # raises the ParseError that made run_machine reject
    if not args.json:
        print(_verdict_word(transcript.verdict))
        if args.trace:
            for line in _trace_lines(transcript):
                print(line)
    return 0 if transcript.verdict else 1


def cmd_lexmax(args: argparse.Namespace) -> int:
    formula = parse(args.formula)
    witness = lexmax(formula)
    if args.json:
        _print_json(
            {
                "formula": serialize(formula),
                "assignment": None if witness is None else assignment_bits(witness),
            }
        )
    else:
        print("UNSAT" if witness is None else assignment_bits(witness))
    return 1 if witness is None else 0


def _reference_verdict(formula: Formula) -> bool:
    # The machine rejects constant formulas; mirror that in the reference.
    if num_vars(formula) == 0:
        return False
    return odd_max_sat_ref(formula)


def _load_equivalence_batch(args: argparse.Namespace) -> tuple[list[Formula], dict]:
    if args.corpus is not None:
        return load_corpus(args.corpus), {"source": f"corpus:{args.corpus}", "seed": None}
    seed = args.seed if args.seed is not None else random.SystemRandom().randrange(2**32)
    batch = random_corpus(args.random, args.max_vars, args.size, seed)
    return batch, {"source": f"random:{args.random}", "seed": seed}


def cmd_verify_equivalence(args: argparse.Namespace) -> int:
    if args.random is not None and args.random < 1:
        raise ValueError(f"--random must be at least 1, got {args.random}")
    batch, meta = _load_equivalence_batch(args)
    mismatches = []
    for formula in batch:
        machine_verdict = decide_oddmaxsat(formula)
        reference_verdict = _reference_verdict(formula)
        if machine_verdict != reference_verdict:
            mismatches.append(
                {
                    "formula": serialize(formula),
                    "machine": _verdict_word(machine_verdict),
                    "reference": _verdict_word(reference_verdict),
                }
            )
    if args.json:
        _print_json(
            {
                **meta,
                "checked": len(batch),
                "mismatchCount": len(mismatches),
                "mismatches": mismatches,
            }
        )
    else:
        if meta["seed"] is not None:
            print(f"seed={meta['seed']}")
        for entry in mismatches:
            print(
                f"mismatch: {entry['formula']} machine={entry['machine']} "
                f"reference={entry['reference']}"
            )
        print(f"checked={len(batch)} mismatches={len(mismatches)}")
    return 0 if not mismatches else 1


def _positivity_line(report: PositivityReport) -> str:
    if report.ok:
        return (
            f"OK {report.formula} mode={report.mode} "
            f"universe={report.universe_size} pairs={report.pairs_checked}"
        )
    violation = report.violation
    small = ",".join(sorted(q.wire() for q in violation.small.members))
    large = ",".join(sorted(q.wire() for q in violation.large.members))
    return f"VIOLATION {report.formula} S={{{small}}} T={{{large}}}"


def cmd_verify_positivity(args: argparse.Namespace) -> int:
    if (args.formula is None) == (args.corpus is None):
        raise ValueError("provide exactly one of a formula or --corpus")
    batch = load_corpus(args.corpus) if args.corpus is not None else [parse(args.formula)]

    sampled = args.samples is not None
    if sampled and args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    seed = args.seed
    if sampled and seed is None:
        seed = random.SystemRandom().randrange(2**32)

    reports: list[PositivityReport] = []
    skipped: list[str] = []
    for formula in batch:
        try:
            if sampled:
                reports.append(check_positivity_sampled(formula, args.samples, seed))
            else:
                reports.append(check_positivity_exhaustive(formula))
        except ValueError as exc:  # the formula is beyond the tree or the exhaustive bound
            beyond_tree = num_vars(formula) > TREE_BOUND
            if args.corpus is not None:
                reason = (f"more than {TREE_BOUND} variables" if beyond_tree
                          else "universe beyond the exhaustive bound; use --samples")
                skipped.append(f"skipped {serialize(formula)} ({reason})")
                continue
            hint = "" if beyond_tree else f"; use --samples for universes beyond {SUBSET_PAIR_BOUND}"
            raise ValueError(f"{exc}{hint}") from exc

    if args.json:
        payload: object = [r.to_json() for r in reports]
        if args.corpus is None:
            payload = reports[0].to_json()
        _print_json(payload)
    else:
        if sampled and args.seed is None:
            print(f"seed={seed}")
        for report in reports:
            print(_positivity_line(report))
        for line in skipped:
            print(line)
    return 0 if all(r.ok for r in reports) else 1


def cmd_tree(args: argparse.Namespace) -> int:
    tree = build_query_tree(parse(args.formula))
    if args.json:
        _print_json(tree_to_json(tree))
    else:
        print(render_tree(tree))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    sat_calls: list[str] = []
    try:
        query = Query.from_wire(args.query)
    except ValueError:
        answer = False
    else:
        answer = sat_join_cosat(query, sat_calls)
    if args.json:
        payload = {"query": args.query, "answer": answer}
        if args.one_query:
            payload["satCalls"] = sat_calls
        _print_json(payload)
    else:
        if args.one_query:
            for body in sat_calls:
                print(f"sat-call: {body}")
        print("yes" if answer else "no")
    return 0 if answer else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddmax",
        description=(
            "Decide whether a formula's lexicographically greatest satisfying "
            "assignment ends in a true bit, by running a two-query-per-variable "
            "oracle machine, and verify the machine's monotonicity."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", parents=[common], help="run the machine on a formula")
    p.add_argument("formula")
    p.add_argument("--trace", action="store_true", help="print the query transcript")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("lexmax", parents=[common],
                       help="print the lexicographically greatest satisfying assignment")
    p.add_argument("formula")
    p.set_defaults(func=cmd_lexmax)

    p = sub.add_parser("verify-equivalence", parents=[common],
                       help="compare the machine against the reference decider")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--corpus", help="corpus file, one formula per line")
    group.add_argument("--random", type=int, nargs="?", const=DEFAULT_RANDOM_COUNT,
                       help=f"check a random batch (default {DEFAULT_RANDOM_COUNT})")
    p.add_argument("--max-vars", type=int, default=DEFAULT_MAX_VARS)
    p.add_argument("--size", type=int, default=DEFAULT_NODE_BUDGET,
                   help="node budget for random formulas")
    p.add_argument("--seed", type=int, help="seed for the random batch")
    p.set_defaults(func=cmd_verify_equivalence)

    p = sub.add_parser("verify-positivity", parents=[common],
                       help="check that larger oracles never lose accepted inputs")
    p.add_argument("formula", nargs="?")
    p.add_argument("--corpus", help="corpus file, one formula per line")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true",
                      help=f"sweep all nested oracle pairs (universe <= {SUBSET_PAIR_BOUND}; default)")
    mode.add_argument("--samples", type=int, nargs="?", const=DEFAULT_SAMPLES,
                      help=f"sample nested pairs instead (default {DEFAULT_SAMPLES})")
    p.add_argument("--seed", type=int, help="seed for sampled mode")
    p.set_defaults(func=cmd_verify_positivity)

    p = sub.add_parser("tree", parents=[common],
                       help="dump the tree of all runs over all oracle answers")
    p.add_argument("formula")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("oracle", parents=[common],
                       help="answer one raw query string (body plus trailing tag)")
    p.add_argument("query")
    p.add_argument("--one-query", action="store_true",
                   help="report the single SAT call the join oracle makes")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader has gone: point stdout at devnull so that the flush at
        # exit writes nowhere, and exit 1 as Python does on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError) as exc:  # ParseError, CorpusError and decode errors too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # the AST walkers recurse; nesting has no bound yet
        print("error: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
