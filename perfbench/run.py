"""Benchmark of the cozero CLI on three workloads.

    python3 perfbench/run.py --workload quotient-ladder --seed 1 --seconds 10 --trace 0

Run from the repository root. The order of work in one run:

1. make the workload's input list from the seed (workloads.py);
2. compute every reference in a separate process (reference.py);
3. time fresh interpreters that import cozero and answer one trivial CLI
   call (setup_s, the median of several starts);
4. run the operations in one worker process (worker.py), which calls
   cozero.cli.main(argv) in process, with BLAS pinned to one thread;
5. check every output against the references (check.py).

Every process runs on one CPU, one at a time. Every time in the
end-to-end metrics is normalised by host-speed samples taken while it
ran, on that CPU (calibrate.py), because the host's speed swings by up
to a factor of two within seconds.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics (from spans, see tracer.py) with
--trace 1. A fuller record goes to perfbench/out/BENCH_<workload>_s<seed>_t<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import check
import workloads
from tracer import LAYERS, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# pinned for every process the benchmark starts: steadier on a small
# shared host, and the program's own numerics are single-threaded Python
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_STARTS = 7
# interpreter start and imports are Python and numpy work alike
SETUP_KERNEL = "mix"
# a whole run must end well inside the 180 s a run may take
DEADLINE_S = 170.0

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from cozero.cli import main; "
    "sys.exit(main(['spectrum', '6', '--format', 'csv', '--no-timestamp', '--out', sys.argv[2]]))"
)

PER_LAYER = (
    "numbers.factorize.calls", "numbers.factorize.s", "numbers.is_prime.s",
    "numbers.totient.calls",
    "quotient.build_quotient.calls", "quotient.build_quotient.s",
    "quotient.weighted_degrees.s", "quotient.build_weighted_laplacian.s",
    "eigen.eigenvalues_symmetric.calls", "eigen.eigenvalues_symmetric.s",
    "eigen.eigenvalues_symmetric.max_dim", "eigen.merge_spectrum.s",
    "spectrum.assemble_spectrum.calls", "spectrum.assemble_spectrum.s",
    "spectrum.verify_against_oracle.s", "spectrum.compare_multisets.s",
    "fullgraph.build_full_graph.s", "fullgraph.laplacian_matrix.s",
    "fullgraph.connected_component_count.s",
    "cli.main.s",
) + tuple(f"layer.{layer}.s" for layer in LAYERS) + ("trace_overhead",)


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    return env


def _remaining(started: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 0:
        raise BenchError("out of time")
    return left


def _run_child(argv: list[str], started: float, **kwargs) -> subprocess.CompletedProcess:
    """Run a child to its end; on the deadline, subprocess.run kills and reaps it."""
    try:
        return subprocess.run(argv, env=_env(), cwd=ROOT, timeout=_remaining(started), **kwargs)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1]} did not finish before the deadline") from exc


def references(inputs: list[workloads.Input], started: float) -> list[dict]:
    items = [{"n": i.n, "factors": i.factors, "oracle": i.oracle} for i in inputs]
    done = _run_child([sys.executable, str(HERE / "reference.py")], started,
                      input=json.dumps(items), capture_output=True, text=True)
    if done.returncode != 0:
        raise BenchError(f"reference.py failed:\n{done.stderr}")
    return json.loads(done.stdout)


def measure_setup(run_dir: Path, started: float) -> list[list[float]]:
    """[start, wall time, normalised time] of fresh interpreter starts.

    The first start fills bytecode caches and is dropped. A sampler thread
    in this process, on the same CPU, times the host speed meanwhile."""
    out = run_dir / "setup.txt"
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(out)]
    starts = []
    sampler = calibrate.Sampler()
    sampler.start()
    try:
        for k in range(SETUP_STARTS + 1):
            t0 = time.perf_counter()
            done = _run_child(argv, started, capture_output=True)
            elapsed = time.perf_counter() - t0
            if done.returncode != 0 or not out.read_text().startswith("value,multiplicity,exact\n"):
                raise BenchError(f"setup call failed: {done.stderr.decode(errors='replace')}")
            if k:
                starts.append([t0, elapsed])
    finally:
        speed = calibrate.Speed(sampler.stop(), SETUP_KERNEL)
    return [[t0, elapsed, elapsed * speed.factor(t0, t0 + elapsed)]
            for t0, elapsed in starts]


def run_worker(inputs, seconds: int, trace: bool, run_dir: Path, started: float) -> dict:
    plan = {
        "src": str(SRC),
        "seconds": seconds,
        "trace": trace,
        "trace_file": str(run_dir / "trace.json"),
        "ops": [{"argv": list(i.argv), "out": str(run_dir / f"op{k}.out")}
                for k, i in enumerate(inputs)],
        "schedule": workloads.round_schedule(inputs),
        "warmup": workloads.warmup_schedule(inputs),
    }
    plan_path, result_path = run_dir / "plan.json", run_dir / "result.json"
    plan_path.write_text(json.dumps(plan))
    done = _run_child([sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
                      started)
    if done.returncode != 0:
        raise BenchError(f"worker exited with {done.returncode}")
    return json.loads(result_path.read_text())


def judge(inputs, refs, result: dict, run_dir: Path) -> dict[int, list[str]]:
    """Problems per input; an input with none passed every check."""
    problems = {}
    for k, (item, ref) in enumerate(zip(inputs, refs)):
        found = []
        path = run_dir / f"op{k}.out"
        text = path.read_text(encoding="utf-8") if path.exists() else ""
        found.extend(check.check_output(list(item.argv), text, item.n, ref))
        if k in result["unstable"]:
            found.append("output differs between repetitions")
        codes = {code for i, _, code, *_ in result["records"] if i == k}
        if codes != {0}:
            found.append(f"exit codes {sorted(map(str, codes))}, expected 0")
        problems[k] = found
    return problems


def normalised(result: dict, workload: str) -> list[float]:
    """Each record's latency at the reference host speed (see calibrate.py)."""
    speed = calibrate.Speed(result["samples"], workloads.KERNEL[workload])
    return [elapsed * speed.factor(start, start + elapsed)
            for _, elapsed, _, _, start in result["records"]]


def end_to_end(result: dict, workload: str, inputs, setup: list[list[float]]) -> dict:
    latencies = normalised(result, workload)
    largest = [t for t, (i, *_) in zip(latencies, result["records"]) if inputs[i].largest]
    return {
        "setup_s": {"value": statistics.median(s[2] for s in setup), "unit": "s"},
        "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "largest_s": {"value": statistics.median(largest), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(result: dict, workload: str, trace: dict) -> dict:
    traced_ops = sum(1 for _, _, _, traced, _ in result["records"] if traced)
    times = normalised(result, workload)
    # span times are normalised with the factor of their operation
    rows = summarize(trace, [t / elapsed for t, (_, elapsed, *_) in zip(times, result["records"])])
    metrics = {}
    for name in PER_LAYER:
        if name.startswith("layer."):
            layer = name.split(".")[1]
            value = sum(r["self_s"] for fn, r in rows.items() if fn.startswith(layer + ".")) / traced_ops
            metrics[name] = {"value": value, "unit": "s/op"}
            continue
        if name == "trace_overhead":
            # as many traced rounds as untraced ones, of the same operations
            flags = [traced for _, _, _, traced, _ in result["records"]]
            plain = sum(t for t, traced in zip(times, flags) if not traced)
            value = sum(t for t, traced in zip(times, flags) if traced) / plain - 1.0
            metrics[name] = {"value": value, "unit": "ratio"}
            continue
        function, kind = name.rsplit(".", 1)
        row = rows.get(function, {"calls": 0, "self_s": 0.0, "max_dim": 0})
        if kind == "calls":
            metrics[name] = {"value": row["calls"] / traced_ops, "unit": "count/op"}
        elif kind == "s":
            metrics[name] = {"value": row["self_s"] / traced_ops, "unit": "s/op"}
        else:
            metrics[name] = {"value": row["max_dim"], "unit": "count"}
    return metrics


def machine() -> dict:
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"cpu_count": os.cpu_count(), "memory_gib": round(memory / 2**30, 1),
            "python": sys.version.split()[0], **BLAS_ENV}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind, so subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    started = time.perf_counter()
    # one CPU for every process of the run, so kernel samples and the
    # operations they normalise run on the same core
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (SRC / "cozero" / "cli.py").is_file():
        print(f"run.py: no program to measure at {SRC / 'cozero'}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}_s{args.seed}_t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inputs = workloads.make_inputs(args.workload, args.seed)
    try:
        refs = references(inputs, started)
        setup = measure_setup(run_dir, started)
        result = run_worker(inputs, args.seconds, bool(args.trace), run_dir, started)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    problems = judge(inputs, refs, result, run_dir)
    failed_inputs = {k for k, found in problems.items() if found}
    attempted = len(result["records"])
    failed = sum(1 for i, *_ in result["records"] if i in failed_inputs)
    # a known fault fails every run and is counted; any other failure is wrong output
    correct = all(inputs[k].known_fault for k in failed_inputs)

    if args.trace:
        metrics = per_layer(result, args.workload, json.loads((run_dir / "trace.json").read_text()))
    else:
        metrics = end_to_end(result, args.workload, inputs, setup)

    for k, item in enumerate(inputs):
        times = [t for i, t, *_ in result["records"] if i == k]
        status = "ok" if not problems[k] else ("known fault: " if item.known_fault else "FAIL: ")
        detail = "; ".join(problems[k])
        print(f"{item.slot:>12} n={item.n:<14} median {statistics.median(times):.4f} s "
              f"x{len(times)}  {status}{detail}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "numpy": result["numpy"],
        "setup_starts": setup, "rounds": result["rounds"],
        "inputs": [dict(item.to_json(), problems=problems[k]) for k, item in enumerate(inputs)],
        "records": result["records"], "samples": result["samples"], "metrics": metrics,
    }
    (OUT / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
