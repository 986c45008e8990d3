"""Runs one workload's operations through cozero.cli.main in this process.

One operation at a time, nothing concurrent (a closed loop with one
client). An untimed warm-up pass comes first; then whole rounds of the
plan's schedule until the timed time reaches the run length. With
tracing, untraced and traced rounds alternate, in pairs, so the two give
the tracing overhead. Through the timed rounds a sampler thread times
small host-speed kernels every 20 ms (calibrate.py); run.py normalises
each operation by the samples taken during it. Every output is read back
after its operation, outside the timed region, and compared with the
first output of the same input: under --no-timestamp they must be equal
byte for byte.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json
(run.py writes the plan and reads the result).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import calibrate


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from cozero import cli

    ops = plan["ops"]
    first_output: dict[int, bytes] = {}
    unstable: set[int] = set()
    records: list[list] = []
    tracer = None

    def run(i: int) -> tuple[float, float, object]:
        path = ops[i]["out"]
        if os.path.exists(path):
            os.remove(path)
        argv = [*ops[i]["argv"], "--no-timestamp", "--out", path]
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded as a failed operation
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            data = b""
        if first_output.setdefault(i, data) != data:
            unstable.add(i)
        return start, elapsed, code

    def timed_round(traced: bool) -> float:
        """Summed operation time of one round (reading outputs back is not in it)."""
        first = len(records)
        for i in plan["schedule"]:
            if traced:
                tracer.operation = len(records)
            start, elapsed, code = run(i)
            records.append([i, elapsed, code, traced, start])
        return sum(elapsed for _, elapsed, *_ in records[first:])

    for i in plan["warmup"]:
        run(i)
    calibrate.int_kernel()
    calibrate.rows_kernel()

    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install("cozero")
    rounds: list[list] = []
    measured = 0.0
    sampler = calibrate.Sampler()
    sampler.start()
    while measured < plan["seconds"] or (plan["trace"] and len(rounds) % 2):
        traced = plan["trace"] and len(rounds) % 2 == 1
        if tracer is not None:
            tracer.activate(traced)
        seconds = timed_round(traced)
        rounds.append([seconds, traced])
        measured += seconds

    samples = sampler.stop()
    if tracer is not None:
        tracer.write(plan["trace_file"])
    result = {
        "records": records,
        "rounds": rounds,
        "samples": samples,
        "unstable": sorted(unstable),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": sys.modules["numpy"].__version__,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
