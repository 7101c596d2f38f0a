"""One workload run in a fresh interpreter: set-up, the timed passes, the
checks and the CLI parity call. `run.py` starts this file as a child.

    python3 perfbench/harness.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR
    python3 perfbench/harness.py --workload NAME --seed N --setup-only --out DIR

The child prints ``READY <input digest>`` when set-up is done, then
``SCALE <factor>``, the speed scale (`speed.py`) it measures right after
set-up, and, unless ``--setup-only`` is given, one JSON result line when it
is done.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import oddmax  # noqa: E402

from spans import Tracer  # noqa: E402
from speed import SpeedGauge, scale_now  # noqa: E402
from workloads import WORKLOADS, OpResult, Workload  # noqa: E402

#: Percentiles latency_tail_ms may fall back to, highest first.
TAIL_PERCENTILES = (99.0, 90.0, 50.0)
#: Samples that must lie beyond the tail percentile.
TAIL_MIN_BEYOND = 10
#: Failures kept verbatim in the result.
FAILURES_KEPT = 5


def check_package_location() -> None:
    """Refuse to measure an oddmax that is not this checkout's `src/`."""
    location = Path(oddmax.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SystemExit(f"oddmax imported from {location}, not from {SRC}")


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def tail_latency(times: list[float], highest: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile, no
    higher than `highest`, with at least TAIL_MIN_BEYOND samples beyond it.
    Nearest-rank percentiles."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100 * n))
        if p <= highest and (n - rank >= TAIL_MIN_BEYOND or p == TAIL_PERCENTILES[-1]):
            return p, ordered[rank - 1], n - rank
    raise ValueError(f"no tail percentile at or below {highest}")


class PassRunner:
    """Runs ops, times each one, checks it, and accounts failures. Between
    ops it lets the speed gauge time its reference."""

    def __init__(self, workload: Workload, gauge: SpeedGauge | None = None):
        self.workload = workload
        self.gauge = gauge or SpeedGauge()
        self.failed = 0
        self.failures: list[str] = []

    def run(self, items: list, times: list[float]) -> list[OpResult]:
        workload = self.workload
        results = []
        for item in items:
            self.gauge.between_ops(len(times))
            error = None
            start = time.perf_counter()
            try:
                result = workload.op(item)
            except Exception as exc:  # an op that raises is a failed op
                error = exc
            times.append(time.perf_counter() - start)
            if error is None:
                try:
                    outcome = workload.check(item, result)
                except Exception as exc:
                    error = exc
            if error is not None:
                outcome = OpResult(False, {"error": type(error).__name__},
                                   "".join(traceback.format_exception_only(error)).strip())
            if not outcome.ok:
                self.failed += 1
                if len(self.failures) < FAILURES_KEPT:
                    self.failures.append(f"{workload.input_key(item)}: {outcome.detail}")
            results.append(outcome)
        return results


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    on_ready=None,
    setup_only: bool = False,
    **workload_options,
) -> dict:
    """Run one workload in this process and return its result record."""
    tracer = Tracer() if trace else None
    try:
        return _run(tracer, name, seed, seconds, out_dir, on_ready, setup_only,
                    workload_options)
    finally:
        if tracer:
            tracer.restore()


def _run(tracer, name, seed, seconds, out_dir, on_ready, setup_only, workload_options) -> dict:
    if tracer:
        tracer.install()
        tracer.phase("setup")
    workload = WORKLOADS[name](seed, out_dir, **workload_options)
    workload.setup()
    first = workload.make_pass(0)
    input_digest = digest(workload.input_key(item) for item in first)
    if on_ready is not None:
        on_ready(input_digest)
    if setup_only:
        return {"input_digest": input_digest}

    gauge = SpeedGauge()
    runner = PassRunner(workload, gauge)
    times: list[float] = []
    started = time.perf_counter()
    gauge.probe(0)
    if tracer:
        tracer.phase("pass0")
    results0 = runner.run(first, times)
    pass0_ops = len(times)
    traced_time = sum(times)
    if tracer:
        tracer.restore()
    output_digest = digest(json.dumps(r.record, sort_keys=True) for r in results0)

    passes = 1
    while time.perf_counter() - started < seconds or (tracer and passes < 2):
        runner.run(workload.make_pass(passes), times)
        passes += 1
    gauge.probe(len(times))
    elapsed = time.perf_counter() - started

    if tracer:
        tracer.install()
        tracer.phase("cli")
    try:
        parity = workload.cli_parity(first, results0)
    except Exception as exc:  # a CLI that crashes is a disagreement, not a crash
        parity = [f"CLI parity raised {exc!r}"]
    if tracer:
        tracer.restore()

    attempted = len(times)
    record = {
        "workload": name,
        "seed": seed,
        "trace": tracer is not None,
        "correct": runner.failed == 0 and not parity,
        "attempted": attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "cli_parity": parity or "ok",
        "passes": passes,
        "pass0_ops": pass0_ops,
        "timed_wall_s": elapsed,
        "input_digest": input_digest,
        "output_digest": output_digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        untraced = times[pass0_ops:]
        record["overhead_ratio"] = (traced_time / pass0_ops) / (sum(untraced) / len(untraced))
        record["layers"] = per_layer(tracer)
        spans_path = out_dir / f"spans-{name}-seed{seed}.tsv.gz"
        tracer.write_spans(spans_path)
        record["spans_file"] = spans_path.name
    else:
        scaled = [t * scale for t, scale in zip(times, gauge.scales(attempted))]
        percentile, tail, beyond = tail_latency(scaled, workload.tail_percentile)
        record.update(
            throughput_ops_s=attempted / sum(scaled),
            latency_p50_ms=1000 * statistics.median(scaled),
            latency_tail_ms=1000 * tail,
            tail_percentile=percentile,
            tail_beyond=beyond,
            error_rate=runner.failed / attempted,
            unscaled={
                "throughput_ops_s": attempted / sum(times),
                "latency_p50_ms": 1000 * statistics.median(times),
                "latency_tail_ms": 1000 * tail_latency(times, percentile)[1],
            },
            reference_ms={
                "probes": len(gauge.seconds),
                "min": 1000 * min(gauge.seconds),
                "median": 1000 * statistics.median(gauge.seconds),
                "max": 1000 * max(gauge.seconds),
            },
        )
    return record


def per_layer(tracer: Tracer) -> dict[str, float]:
    """Layer metrics: set-up for the corpus load, the CLI call for cli.main,
    and traced pass 0 for everything else."""
    totals = tracer.layer_totals()
    pass0 = totals.get("pass0", {})
    counts = tracer.counters["pass0"]

    def layer(name: str) -> dict[str, float]:
        return pass0.get(name, {"calls": 0, "self_s": 0.0})

    metrics: dict[str, float] = {}
    for name in ("formula.parse", "formula.serialize", "formula.substitute",
                 "oracle.sat_join_cosat", "sat.sat_dpll", "sat.lexmax",
                 "sat.sat_bruteforce", "machine.run_machine", "machine.build_query_tree",
                 "machine.tree_verdict", "oracle.sample_subset_pair", "positivity.check"):
        metrics[f"{name}.calls"] = layer(name)["calls"]
        metrics[f"{name}.self_s"] = layer(name)["self_s"]
    joins = layer("oracle.sat_join_cosat")["calls"]
    metrics["oracle.sat_join_cosat.distinct_body_ratio"] = (
        len(tracer.bodies["pass0"]) / joins if joins else 0.0
    )
    metrics["sat.sat_dpll.branches"] = counts["sat.sat_dpll.branches"]
    metrics["machine.run_machine.iterations"] = counts["machine.run_machine.iterations"]
    metrics["oracle.enumerate_subset_pairs.pairs"] = counts["oracle.enumerate_subset_pairs.pairs"]
    metrics["oracle.enumerate_subset_pairs.self_s"] = layer("oracle.enumerate_subset_pairs")["self_s"]
    checked = counts["positivity.pairs_checked"]
    metrics["positivity.pairs_checked"] = checked
    verdicts = layer("machine.tree_verdict")["calls"]
    metrics["positivity.verdict_reuse_ratio"] = 1 - verdicts / (2 * checked) if checked else 0.0
    metrics["corpus.curated_corpus.self_s"] = (
        totals.get("setup", {}).get("corpus.curated_corpus", {}).get("self_s", 0.0)
    )
    metrics["cli.main.self_s"] = totals.get("cli", {}).get("cli.main", {}).get("self_s", 0.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    check_package_location()

    def ready(input_digest: str) -> None:
        print(f"READY {input_digest}", flush=True)
        # Measured in this process: the machine can be slow on one CPU and
        # fast on another.
        print(f"SCALE {scale_now()!r}", flush=True)

    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out,
                 on_ready=ready, setup_only=args.setup_only)
    if not args.setup_only:
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
