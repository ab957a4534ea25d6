"""Run one benchmark experiment in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N [--trace]
       [--setup-only]

Imports transportid from the checkout's ``src/``, builds the workload's
configs (timed as set-up), runs one experiment (timed as wall), checks
the outputs and prints one JSON record as the last line of stdout.
"""

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracer as layer_tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"


def _import_transportid() -> None:
    sys.path.insert(0, str(SRC))
    import transportid
    where = Path(transportid.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"transportid imported from {where}, not {SRC}")


def set_up(workload, seed: int):
    """Import transportid and build the configs; returns (setup, seconds)."""
    start = time.perf_counter()
    _import_transportid()
    setup = workloads.build(workload, seed)
    return setup, time.perf_counter() - start


def run_experiment(workload, seed: int, trace: bool) -> dict:
    setup, setup_s = set_up(workload, seed)
    record = {"setup_s": setup_s}
    layers = None
    if trace:
        entry = ("transportid.cli" if workload.via_cli
                 else "transportid.identification")
        layers = layer_tracer.LayerTrace(entry)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    failures = []
    outcome = None
    try:
        outcome = workloads.run(setup, workdir)
    except Exception:  # noqa: BLE001 - any failure fails the experiment
        failures.append(traceback.format_exc(limit=3).strip())
    finally:
        if layers is not None:
            layers.close()
        shutil.rmtree(workdir, ignore_errors=True)

    report = outcome.report if outcome is not None else None
    attempted, failed = workload.n_restarts, workload.n_restarts
    if outcome is not None and outcome.exit_code != 0:
        failures.append(f"cli exited with code {outcome.exit_code}")
    if report is not None:
        attempted, failed = workloads.restart_counts(report)
        result = workloads.result_errors(report, setup)
        failures += workloads.check(result, setup)
        record.update(result)
    elif outcome is not None:
        failures.append("no identification report was produced")
    if failures:
        failed = attempted
    record.update(
        ok=not failures,
        failures=failures,
        wall_s=outcome.wall_s if outcome is not None else None,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        attempted=attempted,
        failed=failed,
        summary_sha256=workloads.summary_digest(outcome)
        if outcome is not None else "",
    )
    if layers is not None:
        record["layers"] = layers.metrics()
        record["missing"] = dict(layers.tracer.missing)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        record = {"setup_s": set_up(workload, args.seed)[1]}
    else:
        record = run_experiment(workload, args.seed, args.trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
