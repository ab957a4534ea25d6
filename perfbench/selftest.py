"""Self-test of the benchmark harness on the tiny scenario (a few seconds).

    python3 perfbench/selftest.py

Checks that
* ``run.py`` emits every metric named in ``BENCHMARK.json`` (and no other)
  with its unit, end to end with ``--trace 0`` and per layer with
  ``--trace 1``, and that the run is correct;
* the output checks fire on a deliberately wrong expected term set and on
  a coefficient outside its band;
* a wrap target that no longer exists yields null metrics and is named,
  instead of failing the traced run.
Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import tracer as layer_tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class Checks:
    def __init__(self) -> None:
        self.failures: list = []
        self.count = 0

    def expect(self, ok: bool, what: str) -> None:
        self.count += 1
        if not ok:
            self.failures.append(what)
            print(f"FAIL: {what}")


def _bench(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tiny",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_emitted_metrics(checks: Checks) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _bench(trace)
        checks.expect(set(result) == {"correct", "attempted", "failed",
                                      "metrics"},
                      f"trace {trace}: result keys {sorted(result)}")
        checks.expect(result["correct"] is True,
                      f"trace {trace}: tiny run not correct")
        checks.expect(result["attempted"] >= 1 and result["failed"] == 0,
                      f"trace {trace}: {result['failed']} of "
                      f"{result['attempted']} restarts failed")
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        got = result["metrics"]
        checks.expect(set(got) == set(wanted),
                      f"trace {trace}: metrics {sorted(set(got) ^ set(wanted))}"
                      f" not in both the output and BENCHMARK.json")
        for name, unit in wanted.items():
            entry = got.get(name, {})
            checks.expect(entry.get("unit") == unit,
                          f"trace {trace}: {name} unit {entry.get('unit')!r}"
                          f" != {unit!r}")
            checks.expect(isinstance(entry.get("value"), (int, float)),
                          f"trace {trace}: {name} value "
                          f"{entry.get('value')!r} is not a number")


def check_output_checks(checks: Checks) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    setup = workloads.build(workloads.WORKLOADS["tiny"], seed=0)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        outcome = workloads.run(setup, Path(tmp))
    checks.expect(outcome.exit_code == 0 and outcome.report is not None,
                  "tiny CLI run produced no report")
    result = workloads.result_errors(outcome.report, setup)
    checks.expect(workloads.check(result, setup) == [],
                  f"tiny run fails its checks: {workloads.check(result, setup)}")
    wrong_terms = workloads.check(result, setup, expected_terms=("adv", "conc"))
    checks.expect(any("selected terms" in f for f in wrong_terms),
                  "term-set check did not fire on a wrong expected set")
    setup.truth_coefs = dict(setup.truth_coefs, dis=2 * setup.truth_coefs["dis"])
    off_band = workloads.check(result, setup)
    checks.expect(any(f.startswith("dis =") for f in off_band),
                  "band check did not fire on a coefficient off by 2x")


def check_missing_target(checks: Checks) -> None:
    from transportid import regression
    original = regression.normalize_design
    del regression.normalize_design
    try:
        trace = layer_tracer.LayerTrace("transportid.identification")
        trace.close()
    finally:
        regression.normalize_design = original
    metrics = trace.metrics()
    checks.expect(metrics["library.normalize_s"] is None
                  and metrics["library.normalize_calls"] is None,
                  "metrics of a missing wrap target are not null")
    checks.expect(trace.tracer.missing.get("normalize")
                  == "transportid.regression.normalize_design",
                  f"missing target not named: {trace.tracer.missing}")
    names = {name for name, _ in layer_tracer.LAYER_METRICS}
    checks.expect(set(metrics) == names,
                  "a traced run with a missing target lost metrics")


def main() -> int:
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    checks = Checks()
    check_emitted_metrics(checks)
    check_output_checks(checks)
    check_missing_target(checks)
    if checks.failures:
        print(f"selftest: {len(checks.failures)} of {checks.count} "
              f"checks failed")
        return 1
    print(f"selftest: all {checks.count} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
