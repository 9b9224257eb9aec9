"""Run one workload in this (fresh, single-threaded) process.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Modes:

  anchors  run the workload's anchor ops and compare their digest with
           reference.json
  timed    run the seed's ops, untraced, until --ops ops or --seconds of
           loop time; report every op's latency and end time and the peak
           RSS over the first RSS_OPS ops
  traced   run the seed's first --ops ops with every module boundary wrapped
           in spans; report the per-layer metrics, write the spans to --spans

Each op's output is checked outside its timing.  The result is one JSON
object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from itertools import islice
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
MAX_FAILURES_SHOWN = 5
# Peak RSS is read when this many ops have ended, not when the loop ends: the
# psi/Fueter memo grows with every op, so RSS at the end of a timed loop
# would grow with the program's speed.
RSS_OPS = 200


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_SHOWN:
                self.failures.append(error)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_ops(lib, w, inputs, tally: Tally, seconds=None, begin_op=None):
    """Run ops until the inputs end or `seconds` of loop time have passed.

    Returns each op's latency, the loop time at which it (and its check)
    ended, and the peak RSS once RSS_OPS ops have ended (None if the loop
    ended before).  A latency covers the op alone; input generation and the
    correctness check happen between latencies.
    """
    latencies: list[float] = []
    ends: list[float] = []
    rss_mb = None
    loop_start = time.perf_counter()
    for x in inputs:
        if begin_op is not None:
            begin_op()
        error = None
        start = time.perf_counter()
        try:
            out = w.op(lib, x)
        except Exception as exc:  # a raising op counts as failed; keep going
            dt = time.perf_counter() - start
            error = f"{x!r}: {type(exc).__name__}: {exc}"
        else:
            dt = time.perf_counter() - start
        latencies.append(dt)
        if error is None:
            error = w.check(x, out)
        tally.record(error)
        ends.append(time.perf_counter() - loop_start)
        if len(ends) == RSS_OPS:
            rss_mb = peak_rss_mb()
        if seconds is not None and ends[-1] >= seconds:
            break
    return latencies, ends, rss_mb


def check_anchors(lib, name: str, reference_path: Path, tally: Tally) -> None:
    w = workloads.WORKLOADS[name]
    inputs, outs = workloads.run_anchors(lib, name)
    errors = [w.check(x, out) for x, out in zip(inputs, outs)]
    if w.has_reference:
        expected = json.loads(reference_path.read_text())[name]["digest"]
        got = workloads.digest(outs)
        if got != expected:
            errors = [f"anchor digest {got} != reference {expected}"] * len(outs)
    for error in errors:
        tally.record(error)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True)
    ap.add_argument("--mode", required=True, choices=("anchors", "timed", "traced"))
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--ops", type=int)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)
    if args.mode != "anchors" and args.ops is None and args.seconds is None:
        ap.error("timed and traced runs need --ops or --seconds")

    src = HERE.parent / "src"
    lib = workloads.load_library()
    if Path(lib.arith.__file__).resolve().parent.parent != src.resolve():
        print(f"monodiv was imported from {lib.arith.__file__}, not {src}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]

    tally = Tally()
    result: dict = {}
    if args.mode == "anchors":
        check_anchors(lib, args.workload, REFERENCE, tally)
    else:
        recorder = None
        if args.mode == "traced":
            import spans

            start = time.perf_counter()
            lib.arith.small_primes()
            small_primes_first_s = time.perf_counter() - start
            recorder = spans.Recorder()
            recorder.install()
        elif w.sieves:
            # the lazy sieve is set-up, which setup_s measures; keep it out of
            # the first op's latency
            lib.arith.small_primes()
        ops = islice(w.inputs(args.seed), args.ops)
        latencies, ends, rss_mb = run_ops(lib, w, ops, tally, args.seconds, recorder and recorder.begin_op)
        result["latencies"] = latencies
        result["ends"] = ends
        result["peak_rss_mb"] = rss_mb if rss_mb is not None else peak_rss_mb()
        result["rss_ops"] = min(len(latencies), RSS_OPS)
        if recorder is not None:
            result["layers"] = recorder.summarize()
            result["layers"]["arith.small_primes.first_s"] = small_primes_first_s
            if args.spans is not None:
                recorder.write(args.spans)
    result.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
