"""oddmax benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each run starts fresh interpreters
(`harness.py`): SETUP_PROBES that only set up, to time set-up, and one that
sets up and then measures. With ``--trace 0`` the last line of standard
output is the end-to-end result; with ``--trace 1`` it holds the per-layer
metrics of a traced run. End-to-end times are scaled to a machine of fixed
speed (`speed.py`). Run details go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Metric names and units come from the benchmark's declaration.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Interpreters started only to time set-up; the measuring one is timed too.
SETUP_PROBES = 4
#: How long a set-up probe may take, and how long the measuring child may
#: take beyond the measured seconds; together they keep a run under 180 s.
PROBE_TIMEOUT_S = 30
CHILD_GRACE_S = 60


class ChildError(RuntimeError):
    pass


def start_child(args: argparse.Namespace, setup_only: bool) -> tuple[float, float, str, list[str]]:
    """Run harness.py; return (seconds until READY, the child's speed scale
    measured right after it, input digest, other lines)."""
    command = [sys.executable, str(HERE / "harness.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--out", str(OUT)]
    if setup_only:
        command.append("--setup-only")
        timeout = PROBE_TIMEOUT_S
    else:
        command += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        timeout = args.seconds + CHILD_GRACE_S
    start = time.perf_counter()
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    # Killing the child ends the blocking reads below, so a hung child
    # cannot hold the run past its time limit.
    deadline = threading.Timer(timeout, child.kill)
    deadline.start()
    try:
        ready = child.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = child.communicate()
    finally:
        deadline.cancel()
        if child.poll() is None:
            child.kill()
        child.wait()
    if child.returncode != 0:
        raise ChildError(f"child exited with code {child.returncode} "
                         f"(killed after {timeout:g} s if negative)")
    if not ready.startswith("READY "):
        raise ChildError(f"child did not get ready: {ready.strip()!r}")
    lines = rest.splitlines()
    if not lines or not lines[0].startswith("SCALE "):
        raise ChildError("child did not report its speed scale")
    return setup, float(lines[0].split()[1]), ready.split()[1], lines[1:]


def run_metadata(args: argparse.Namespace) -> dict:
    sha = None
    if (ROOT / ".git").exists():  # git would otherwise search the parent directories
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "src_lines": src_lines,
    }


def measure(args: argparse.Namespace) -> tuple[dict, dict]:
    """Return (result line, full run record)."""
    setups: list[float] = []
    scales: list[float] = []
    digests: set[str] = set()
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup, scale, input_digest, _ = start_child(args, setup_only=True)
            setups.append(setup)
            scales.append(scale)
            digests.add(input_digest)
    setup, scale, input_digest, lines = start_child(args, setup_only=False)
    setups.append(setup)
    scales.append(scale)
    digests.add(input_digest)
    record = json.loads(lines[-1])
    correct = record["correct"] and len(digests) == 1
    if len(digests) != 1:
        record["input_digest_mismatch"] = sorted(digests)

    if args.trace:
        values = dict(record["layers"], **{"trace.overhead_ratio": record["overhead_ratio"]})
        declared = BENCHMARK["per_layer"]
    else:
        record["setup_s_samples"] = setups
        record["setup_s_scales"] = scales
        values = {
            "setup_s": statistics.median(s * k for s, k in zip(setups, scales)),
            "throughput_ops_s": record["throughput_ops_s"],
            "latency_p50_ms": record["latency_p50_ms"],
            "latency_tail_ms": record["latency_tail_ms"],
            "success_rate": 1 - record["error_rate"],
            "peak_rss_mb": record["peak_rss_mb"],
        }
        declared = BENCHMARK["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record["meta"] = run_metadata(args)
    line = {"correct": correct, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}
    return line, record


def report(line: dict, record: dict) -> None:
    """Human-readable lines; programs reading the result use only the last line."""
    meta = record["meta"]
    print(f"workload {record['workload']} seed {record['seed']}: {record['attempted']} ops "
          f"in {record['passes']} passes, {record['timed_wall_s']:.1f} s; "
          f"python {meta['python']}, nproc {meta['nproc']}, src lines {meta['src_lines']}, "
          f"git {meta['git_sha'] or 'unknown'}")
    print(f"  inputs {record['input_digest'][:16]}  outputs {record['output_digest'][:16]}  "
          f"CLI parity {record['cli_parity']}")
    for failure in record["failures"]:
        print(f"  failed: {failure}")
    metrics = line["metrics"]
    for name, metric in metrics.items():
        note = ""
        if name in record.get("unscaled", {}):
            note = f"  (unscaled {record['unscaled'][name]:.6g})"
        if name == "latency_tail_ms":
            note += f"  (p{record['tail_percentile']:g}, {record['tail_beyond']} ops beyond)"
        if name == "setup_s":
            note = f"  (unscaled median {statistics.median(record['setup_s_samples']):.6g})"
        if name == "success_rate":
            print(f"  {'error_rate':<44} {record['error_rate']:<14.6g} ratio"
                  f"  ({record['failed']} of {record['attempted']} ops failed)")
        print(f"  {name:<44} {metric['value']:<14.6g} {metric['unit']}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "oddmax" / "__init__.py").is_file():
        print(f"error: no oddmax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        line, record = measure(args)
    except (ChildError, json.JSONDecodeError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")
    report(line, record)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
