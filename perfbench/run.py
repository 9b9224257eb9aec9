"""monodiv benchmark: three closed-loop workloads, end to end and per layer.

Run from the root of a checkout (stdlib only, nothing to install):

  python3 perfbench/run.py --workload scan_small --seed 0 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all          # every workload, one after another

One client sends each op only after the previous one returned (closed loop,
no threads).  Every workload runs in a fresh worker process (worker.py) so
module-level caches and the lazy prime sieve never leak between workloads.

--trace 0 prints the end-to-end metrics.  One fresh worker runs the seed's
ops in a closed loop for --seconds, and the loop is cut into BLOCKS
consecutive blocks of equal op count.  A shared machine has bursts of
seconds in which the same work runs up to 1.6x faster, so throughput (ops /
wall time), p50 and p90 each report the level that SUSTAINED of the blocks
reached: with 5 blocks, the second-worst block.  peak_rss_mb is that
worker's ru_maxrss once its first worker.RSS_OPS ops have ended.  setup_s
is the median wall time of SETUP_SPAWNS fresh interpreters running the real
CLI on a trivial request of the workload's kind.
--trace 1 prints the per-layer metrics instead: TRACE_PAIRS traced and as
many untraced workers, alternating, run the same fixed, seeded op list; the
counts of the traced ones must agree exactly, their times count at the
median, and the traced/untraced op time (each op at its median) gives
trace.overhead_ratio.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the run's context (src line
count, Python version, nproc, op and sample counts).  The exit code is 1 when
any correctness check failed and 2 when the checkout has no monodiv sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"
BLOCKS = 5
SUSTAINED = 0.8  # share of the blocks that reach the reported level
SETUP_SPAWNS = 7
TRACE_PAIRS = 3
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    """A worker or CLI spawn did not complete."""


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def _worker(name: str, seed: str, mode: str, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", seed, "--mode", mode, *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {name} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker for {name} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_spawn(name: str) -> tuple[float, str | None]:
    """Wall time of one fresh CLI process serving a trivial request."""
    w = workloads.WORKLOADS[name]
    cmd = [sys.executable, "-m", "monodiv.cli", *w.setup_argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"setup: {' '.join(w.setup_argv)} timed out after {exc.timeout} s") from exc
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or not w.setup_stdout(proc.stdout):
        return elapsed, f"setup: {' '.join(w.setup_argv)} exited {proc.returncode}: {proc.stdout!r}"
    return elapsed, None


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest rank: the smallest value with at least q of the samples at or
    below it."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def _merge(*results: dict) -> dict:
    return {
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "failures": [f for r in results for f in r["failures"]],
    }


def run_timed(name: str, seed: str, seconds: float) -> tuple[dict, dict]:
    res = _merge(_worker(name, seed, "anchors"))
    setup_samples = []
    setup_spawn(name)  # warms the bytecode and file caches; not measured
    for _ in range(SETUP_SPAWNS):
        elapsed, error = setup_spawn(name)
        res["attempted"] += 1
        if error:
            res["failed"] += 1
            res["failures"].append(error)
        else:
            setup_samples.append(elapsed)
    loop = _worker(name, seed, "timed", "--seconds", str(seconds))
    res = _merge(res, loop)
    ends, latencies = loop["ends"], loop["latencies"]
    blocks = min(BLOCKS, len(ends))
    cuts = [round(i * len(ends) / blocks) for i in range(blocks + 1)]
    block_ops_s, block_p50, block_p90, above_p90 = [], [], [], []
    for lo, hi in zip(cuts, cuts[1:]):
        block_ops_s.append((hi - lo) / (ends[hi - 1] - (ends[lo - 1] if lo else 0.0)))
        block = sorted(latencies[lo:hi])
        block_p50.append(percentile(block, 0.50))
        block_p90.append(percentile(block, 0.90))
        above_p90.append(sum(1 for x in block if x > block_p90[-1]))
    metrics = {
        # sorted from best to worst, the SUSTAINED nearest rank is the level
        # that share of the blocks reached
        "throughput_ops_s": percentile(sorted(block_ops_s, reverse=True), SUSTAINED),
        "latency_p50_ms": percentile(sorted(block_p50), SUSTAINED) * 1e3,
        "latency_p90_ms": percentile(sorted(block_p90), SUSTAINED) * 1e3,
        "peak_rss_mb": loop["peak_rss_mb"],
        "setup_s": statistics.median(setup_samples) if setup_samples else float("nan"),
    }
    info = {
        "ops": len(latencies),
        "blocks": blocks,
        "block_ops": [hi - lo for lo, hi in zip(cuts, cuts[1:])],
        "block_samples_above_p90": above_p90,
        "rss_ops": loop["rss_ops"],
        "loop_s": ends[-1],
        "rule": f"each metric: the level {SUSTAINED:.0%} of the blocks reached; percentiles by nearest rank",
        "setup_spawns": len(setup_samples),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, {**res, **info}


def _op_median(*latencies: float) -> float:
    return statistics.median(latencies)


def run_traced(name: str, seed: str, ops: int) -> tuple[dict, dict]:
    import spans

    SPANS_DIR.mkdir(exist_ok=True)
    anchors = _worker(name, seed, "anchors")
    traced, plain = [], []
    for i in range(TRACE_PAIRS):
        spans_arg = ("--spans", str(SPANS_DIR / f"{name}_{seed}.jsonl")) if i == 0 else ()
        traced.append(_worker(name, seed, "traced", "--ops", str(ops), *spans_arg))
        plain.append(_worker(name, seed, "timed", "--ops", str(ops)))
    res = _merge(anchors, *traced, *plain)
    first = traced[0]["layers"]
    unstable = [
        f"{metric} differs between traced runs: {[r['layers'][metric] for r in traced]}"
        for metric in spans.COUNT_METRICS
        if any(r["layers"][metric] != first[metric] for r in traced[1:])
    ]
    res["failed"] += len(unstable)
    res["failures"] += unstable
    layers = {
        metric: first[metric]
        if metric in spans.COUNT_METRICS
        else statistics.median(r["layers"][metric] for r in traced)
        for metric in first
    }
    # Traced and untraced workers alternate, and each op counts at its median
    # over the runs, so a short fast phase of the machine in one run does not
    # move the ratio.
    traced_s = sum(map(_op_median, *(r["latencies"] for r in traced)))
    plain_s = sum(map(_op_median, *(r["latencies"] for r in plain)))
    layers["trace.overhead_ratio"] = traced_s / plain_s - 1
    res.update(ops=ops, traced_op_time_s=traced_s, plain_op_time_s=plain_s)
    metrics = {m: {"value": layers[m], "unit": unit} for m, unit in spans.LAYER_METRICS.items()}
    return metrics, res


def run_one(args) -> int:
    try:
        if args.trace:
            w = workloads.WORKLOADS[args.workload]
            metrics, res = run_traced(args.workload, args.seed, args.trace_ops or w.trace_ops)
        else:
            metrics, res = run_timed(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in res["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "failed_ratio": res["failed"] / res["attempted"],
        **{k: v for k, v in res.items() if k not in ("attempted", "failed", "failures")},
    }
    for name, m in metrics.items():
        print(f"{args.workload:<14} {name:<44} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:<14} {'failed_ratio':<44} {info['failed_ratio']:.6g} ratio")
    print(json.dumps({"info": info}))
    correct = res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", default="0")
    ap.add_argument("--seconds", type=float, default=30.0, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-ops", type=int, help="ops per traced run (default: the workload's own count)")
    args = ap.parse_args(argv)
    if not (SRC / "monodiv" / "__init__.py").is_file():
        print(f"error: no monodiv sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_one(args)
    return max(run_one(argparse.Namespace(**{**vars(args), "workload": name})) for name in workloads.WORKLOADS)


if __name__ == "__main__":
    sys.exit(main())
