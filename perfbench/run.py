"""Benchmark transportid's ``identify`` end to end and per layer.

    python3 perfbench/run.py --workload s2-clean --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Each experiment runs in a fresh single-process interpreter
(``perfbench/worker.py``) with BLAS/OpenMP fixed at one thread.  With
``--trace 0`` experiments repeat until ``--seconds`` would be exceeded,
and the end-to-end metrics are medians over them; set-up is also timed in
``SETUP_PROBES`` extra interpreters that only import and configure.  With
``--trace 1`` traced and untraced experiments alternate, and the per-layer
metrics are medians over the traced ones.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` and
``failed`` count assimilation restarts: every restart of an experiment
that raised or failed an output check counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracer as layer_tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().with_name("worker.py")

BLAS_THREADS = 1
SETUP_PROBES = 5
# A run must end within 180 s: no experiment starts that is expected to end
# after this, and a running one is stopped at it.
RUN_DEADLINE_S = 170.0
MIN_TRACE_EXPERIMENTS = 3  # traced, untraced, traced

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
RESULT_METRICS = (("coef_rel_err", "1"), ("param_rel_err", "1"),
                  ("failed_frac", "1"))
PER_LAYER = (layer_tracer.LAYER_METRICS + RESULT_METRICS
             + (("trace.overhead_s", "s"),))


class Run:
    """Worker launches for one benchmark run, against one deadline."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.started)

    def worker(self, *flags: str) -> dict:
        """Start one worker, wait for it and return its record."""
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), *flags]
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=max(self.remaining(), 1))
        except subprocess.TimeoutExpired:
            restarts = workloads.WORKLOADS[self.workload].n_restarts
            record = {"ok": False, "failures": ["worker timed out"],
                      "attempted": restarts, "failed": restarts}
        else:
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise RuntimeError(f"worker {' '.join(flags)} failed "
                                   f"(exit {proc.returncode}):\n{proc.stderr}")
            record = json.loads(lines[-1])
        record["process_s"] = time.monotonic() - start
        return record


def _median(values):
    """Median of the known values; a count stays a whole number."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def run_experiments(run: Run, seconds: float, trace: bool) -> list:
    """Experiments back to back until the next would end after ``seconds``.

    A traced run alternates traced and untraced experiments, starting and
    (at the minimum) ending with a traced one.
    """
    records = []
    start = time.monotonic()
    while True:
        traced = trace and len(records) % 2 == 0
        records.append(run.worker("--trace") if traced else run.worker())
        if trace and len(records) < MIN_TRACE_EXPERIMENTS:
            continue
        next_s = _median([r["process_s"] for r in records])
        elapsed = time.monotonic() - start
        if elapsed + next_s > seconds or next_s > run.remaining():
            return records


def _environment(seed: int) -> dict:
    return {"python": sys.version.split()[0],
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "seed": seed}


def _line(name: str, value, unit: str, n: int, values=()) -> str:
    if value is None:
        return f"  {name:<34} null {unit}  ({n} runs)"
    spread = ""
    if len(values) > 1:
        spread = f", min {min(values):.6g}, max {max(values):.6g}"
    return f"  {name:<34} {value:.6g} {unit}  (median of {n} runs{spread})"


def summarize(workload: str, seed: int, records: list, setups: list,
              traced_run: bool, elapsed: float) -> dict:
    notes = []
    passed = [r for r in records if r["ok"]]
    for r in records:
        notes += [f"check failed: {f}" for f in r["failures"]]
    timed = passed or records
    untraced = [r for r in timed if "layers" not in r]
    traced = [r for r in timed if "layers" in r]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)

    digests = {r["summary_sha256"] for r in records if r.get("summary_sha256")}
    if len(digests) > 1:
        notes.append(f"summary.json differs between experiments: "
                     f"{sorted(digests)}")
    counts = [{k: r["layers"][k] for k in layer_tracer.EXACT_COUNTS}
              for r in traced]
    if any(c != counts[0] for c in counts[1:]):
        notes.append(f"exact counts differ between traced experiments: "
                     f"{counts}")

    print(f"perfbench: workload {workload}, seed {seed}, trace "
          f"{int(traced_run)}: {len(records)} experiments "
          f"({len(passed)} passed) in {elapsed:.1f} s")
    print("env: " + json.dumps(_environment(seed)))

    walls = [r.get("wall_s") for r in untraced]
    series = {
        "wall_s": walls,
        "setup_s": setups + [r.get("setup_s") for r in records],
        "peak_rss_mb": [r.get("peak_rss_mb") for r in untraced],
        "coef_rel_err": [r.get("coef_rel_err") for r in timed],
        "param_rel_err": [r.get("param_rel_err") for r in timed],
    }
    print("end to end:")
    medians = {name: _median(values) for name, values in series.items()}
    for name, unit in END_TO_END + RESULT_METRICS[:2]:
        print(_line(name, medians[name], unit, len(series[name]),
                    [v for v in series[name] if v is not None]))
    failed_frac = failed / attempted if attempted else 1.0
    print(f"  {'failed_frac':<34} {failed_frac:.6g} 1  "
          f"({failed} of {attempted} restarts)")

    if traced_run:
        layer = {name: _median([r["layers"][name] for r in traced])
                 for name, _ in layer_tracer.LAYER_METRICS}
        layer["coef_rel_err"] = medians["coef_rel_err"]
        layer["param_rel_err"] = medians["param_rel_err"]
        layer["failed_frac"] = failed_frac
        traced_wall, untraced_wall = (_median([r["wall_s"] for r in traced]),
                                      _median(walls))
        layer["trace.overhead_s"] = (
            None if traced_wall is None or untraced_wall is None
            else traced_wall - untraced_wall)
        print(f"per layer (median of {len(traced)} traced runs):")
        for name, unit in PER_LAYER:
            print(_line(name, layer[name], unit, len(traced)))
        if counts:
            print("counts: " + json.dumps(counts[0]))
        missing = sorted({t for r in traced for t in r["missing"].values()})
        if missing:
            print("missing wrap targets (metrics reported as null): "
                  + ", ".join(missing))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": medians[name], "unit": unit}
                   for name, unit in END_TO_END}
    if digests:
        print("summary.json sha256: " + ", ".join(sorted(digests)))
    for note in notes:
        print(note)
    return {"correct": not notes, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed)
    setups = ([] if trace else
              [run.worker("--setup-only")["setup_s"]
               for _ in range(SETUP_PROBES)])
    records = run_experiments(run, seconds, trace)
    return summarize(workload, seed, records, setups, trace,
                     time.monotonic() - run.started)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark transportid identify end to end and per layer.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "transportid" / "__init__.py").is_file():
        print(f"error: no transportid sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        result = bench(args.workload, args.seed, args.seconds,
                       bool(args.trace))
        print(json.dumps(result))
        return 0
    results = {}
    for name in workloads.BENCH_WORKLOADS:
        for trace in (False, True):
            key = f"{name}{' traced' if trace else ''}"
            results[key] = bench(name, args.seed, args.seconds, trace)
            print()
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
