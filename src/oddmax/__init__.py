"""An executable laboratory for a positive (monotone) oracle machine that
decides whether a formula's lexicographically greatest satisfying assignment
ends in a true bit, using only membership queries to the join of the
satisfiable and unsatisfiable formula sets.
"""

from .formula import (
    And,
    Assignment,
    Const,
    Formula,
    Not,
    Or,
    ParseError,
    Var,
    assignment_bits,
    evaluate,
    num_vars,
    parse,
    random_formula,
    serialize,
    substitute,
)
from .machine import (
    IterationCase,
    MachineProgram,
    MUTANT_PROGRAMS,
    STANDARD_PROGRAM,
    Transcript,
    build_query_tree,
    classify_case,
    decide_oddmaxsat,
    query_universe,
    run_machine,
    tree_verdict,
)
from .oracle import (
    FiniteOracle,
    Query,
    enumerate_subset_pairs,
    sample_subset_pair,
    sat_join_cosat,
)
from .positivity import (
    Counterexample,
    PositivityReport,
    check_positivity_exhaustive,
    check_positivity_sampled,
)
from .sat import lexmax, odd_max_sat_ref, sat_bruteforce, sat_dpll

__version__ = "0.1.0"

__all__ = [
    "And",
    "Assignment",
    "Const",
    "Counterexample",
    "FiniteOracle",
    "Formula",
    "IterationCase",
    "MachineProgram",
    "MUTANT_PROGRAMS",
    "Not",
    "Or",
    "ParseError",
    "PositivityReport",
    "Query",
    "STANDARD_PROGRAM",
    "Transcript",
    "Var",
    "assignment_bits",
    "build_query_tree",
    "check_positivity_exhaustive",
    "check_positivity_sampled",
    "classify_case",
    "decide_oddmaxsat",
    "enumerate_subset_pairs",
    "evaluate",
    "lexmax",
    "num_vars",
    "odd_max_sat_ref",
    "parse",
    "query_universe",
    "random_formula",
    "run_machine",
    "sample_subset_pair",
    "sat_bruteforce",
    "sat_dpll",
    "sat_join_cosat",
    "serialize",
    "substitute",
    "tree_verdict",
]
