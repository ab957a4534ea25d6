"""Per-layer tracing by wrapping transportid's public names from outside.

Most modules import their collaborators by name, so each wrapper replaces
the name where it is looked up (``identification.simulate``, not
``transport.simulate``).  A wrapper counts calls and adds the wall time
spent inside them ("busy" seconds); optional hooks read arguments or
results.  Nothing under ``src/`` changes.

When a wrap target no longer exists (a later refactor removed or renamed
it), the metrics that depend on it are reported as ``None`` and the
dotted name of the target is listed in ``Tracer.missing``.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

from workloads import ensemble_summaries

_STATUS_NAMES = ("converged", "stalled", "zero_gradient", "max_iterations",
                 "budget_exhausted", "left_bounds")
_EVALS = ("evaluate", "identify")

# (metric, unit, wrap keys it needs) in output order.  Every traced run
# emits all of them; a metric whose wrap key is missing is None.
_TABLE = (
    ("transport.simulate_s", "s", ("simulate",)),
    ("transport.ms_per_step", "ms", ("simulate",)),
    ("transport.solves", "count", ("solve_banded",)),
    ("transport.solves_per_step", "count/step", ("simulate", "solve_banded")),
    ("transport.isotherm_calls", "count", ("isotherm_value",)),
    ("transport.sample_s", "s", ("sample",)),
    ("preprocess.noise_s", "s", ("add_noise",)),
    ("preprocess.smooth_s", "s", ("smooth_field",)),
    ("preprocess.smooth_passes", "count", ("prepare",)),
    ("preprocess.derivatives_s", "s", ("derivatives", "smooth_derivatives")),
    ("preprocess.derivative_calls", "count",
     ("derivatives", "smooth_derivatives")),
    ("preprocess.split_s", "s", ("split",)),
    ("preprocess.points", "count", ("prepare",)),
    ("library.normalize_s", "s", ("normalize",)),
    ("library.normalize_calls", "count", ("normalize",)),
    ("regression.evals", "count", ("evaluate",)),
    ("regression.evals.none", "count", _EVALS),
    ("regression.evals.fsorp", "count", _EVALS),
    ("regression.evals.lsorp", "count", _EVALS),
    ("regression.evals.pruned", "count", _EVALS),
    ("regression.eval_ms", "ms", ("evaluate",)),
    ("regression.eval_s", "s", ("evaluate",)),
    ("regression.init_s", "s", ("evaluator_init",)),
    ("regression.lstsq_s", "s", ("lstsq",)),
    ("regression.prederr_s", "s", ("prediction_error",)),
    ("assimilation.restarts", "count", ("run_assimilation",)),
    ("assimilation.transformed", "count", ("run_assimilation",)),
    ("assimilation.trial_evals", "count", ("run_assimilation",)),
    ("assimilation.probe_evals", "count", ("run_assimilation", "evaluate")),
    ("assimilation.accept_ratio", "1", ("run_assimilation",)),
) + tuple((f"assimilation.status.{status}", "count", ("run_assimilation",))
          for status in _STATUS_NAMES) + (
    ("identification.prepare_s", "s", ("prepare",)),
    ("identification.identify_s", "s", ("identify",)),
    ("identification.ensembles", "count", ("run_ensemble",)),
    ("identification.rounds", "count", ("identify",)),
    ("identification.screened", "count", ("identify",)),
    ("identification.paramfree_evals", "count", ("evaluate",)),
    ("persist.write_s", "s", ("write",)),
    ("persist.files", "count", ("write",)),
    ("persist.bytes", "B", ("write",)),
    ("cli.overhead_s", "s", ("cli_main", "prepare", "identify", "write")),
)
LAYER_METRICS = tuple((name, unit) for name, unit, _ in _TABLE)

# Counts that must repeat exactly between runs at one seed.
EXACT_COUNTS = ("transport.solves", "preprocess.smooth_passes",
                "identification.rounds") + tuple(
    name for name, _, _ in _TABLE
    if name.startswith(("regression.evals", "assimilation.status.")))

CANDIDATES = ("none", "fsorp", "lsorp")


class Tracer:
    """Wraps named functions, counting calls and busy seconds per key."""

    def __init__(self) -> None:
        self.calls: dict = {}
        self.busy: dict = {}
        self.missing: dict = {}   # key -> dotted target name
        self._restore: list = []

    def wrap(self, owner, attr: str, key: str, before=None, after=None):
        """Replace ``owner.attr`` by a timing wrapper recorded under ``key``.

        ``before(args, kwargs)`` runs on entry; ``after(result, args,
        kwargs)`` runs on a normal return.  A hook that raises (the program
        changed shape) marks ``key`` as missing instead of failing the call.
        """
        target = f"{_dotted(owner)}.{attr}"
        original = (None if isinstance(owner, _Missing)
                    else getattr(owner, attr, None))
        if original is None:
            self.missing[key] = target
            return
        self.calls.setdefault(key, 0)
        self.busy.setdefault(key, 0.0)

        def hook(func, *args) -> None:
            try:
                func(*args)
            except Exception as exc:  # noqa: BLE001 - never break the program
                self.missing.setdefault(key, f"{target} ({exc!r})")

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                hook(before, args, kwargs)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self.busy[key] += time.perf_counter() - start
                self.calls[key] += 1
            if after is not None:
                hook(after, result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def close(self) -> None:
        """Put every wrapped name back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _dotted(owner) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}"
    return owner.__name__


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class _Missing:
    """Stand-in owner for a module or class that no longer exists."""

    def __init__(self, name: str) -> None:
        self.__name__ = name


class LayerTrace:
    """Installs the layer wrappers for one experiment and derives metrics.

    ``entry`` is the module through which the workload reaches
    ``prepare_dataset`` and ``identify``: ``transportid.identification``
    for in-process workloads, ``transportid.cli`` for the CLI workload,
    which also wraps ``main`` and every ``write_*`` name in ``cli``.
    """

    def __init__(self, entry: str) -> None:
        self.tracer = Tracer()
        self.via_cli = entry == "transportid.cli"
        self.steps = 0
        self.smooth_passes = 0
        self.points = 0
        self.rounds = 0
        self.screened = 0
        self.paramfree_evals = 0
        self.bytes_written = 0
        self.evals_by_library: dict = {}   # id(library) -> [library, count]
        self.candidate_evals = {name: 0 for name in CANDIDATES}
        self.pruned_evals = 0
        self.restarts = 0
        self.transformed = 0
        self.trials = 0
        self.accepted = 0
        self.statuses = {status: 0 for status in _STATUS_NAMES}
        self._install(entry)

    # -- installation -------------------------------------------------

    def _owner(self, module: str, cls: str | None = None):
        mod = _module(module)
        if mod is None:
            return _Missing(module if cls is None else f"{module}.{cls}")
        if cls is None:
            return mod
        return getattr(mod, cls, None) or _Missing(f"{module}.{cls}")

    def _install(self, entry: str) -> None:
        wrap = self.tracer.wrap
        ident = self._owner("transportid.identification")
        transport = self._owner("transportid.transport")
        preprocess = self._owner("transportid.preprocess")
        regression = self._owner("transportid.regression")
        evaluator = self._owner("transportid.regression",
                                "PredictionErrorEvaluator")
        entry_mod = self._owner(entry)

        wrap(ident, "simulate", "simulate", before=self._on_simulate)
        wrap(ident, "sample_measurements", "sample")
        wrap(transport, "solve_banded", "solve_banded")
        wrap(transport, "isotherm_value", "isotherm_value")

        wrap(ident, "add_noise", "add_noise")
        wrap(ident, "smooth_field", "smooth_field")
        wrap(ident, "compute_derivatives", "derivatives")
        wrap(preprocess, "compute_derivatives", "smooth_derivatives")
        wrap(ident, "split_train_test", "split")

        wrap(regression, "normalize_design", "normalize")
        wrap(evaluator, "__init__", "evaluator_init")
        wrap(evaluator, "evaluate", "evaluate", before=self._on_evaluate)
        wrap(regression, "least_squares_fit", "lstsq")
        wrap(regression, "prediction_error", "prediction_error")

        wrap(ident, "run_assimilation", "run_assimilation",
             after=self._on_assimilation)
        wrap(ident, "run_ensemble", "run_ensemble")
        wrap(entry_mod, "prepare_dataset", "prepare",
             after=self._on_prepared)
        wrap(entry_mod, "identify", "identify", after=self._on_report)

        if self.via_cli:
            wrap(entry_mod, "main", "cli_main")
            writers = sorted(n for n in dir(entry_mod)
                             if n.startswith("write_"))
            if not writers:
                self.tracer.missing["write"] = f"{entry}.write_*"
            for name in writers:
                wrap(entry_mod, name, f"write:{name}",
                     after=self._on_written)

    def close(self) -> None:
        self.tracer.close()

    # -- hooks --------------------------------------------------------

    def _on_simulate(self, args, kwargs) -> None:
        config = args[0] if args else kwargs["config"]
        self.steps += int(round(config.meas_t_end / config.sim_dt))

    def _on_evaluate(self, args, kwargs) -> None:
        evaluator = args[0]
        library = getattr(evaluator, "library", None)
        slot = self.evals_by_library.setdefault(id(library), [library, 0])
        slot[1] += 1
        terms = getattr(library, "terms", ())
        if not any(getattr(t, "parameter_deps", ()) for t in terms):
            self.paramfree_evals += 1

    def _on_assimilation(self, trace, args, kwargs) -> None:
        # The first record is the start point; every later one is a trial.
        self.restarts += 1
        self.transformed += bool(trace.transformed)
        self.trials += len(trace.records) - 1
        self.accepted += trace.n_accepted - 1
        if trace.status in self.statuses:
            self.statuses[trace.status] += 1

    def _on_prepared(self, data, args, kwargs) -> None:
        self.smooth_passes += int(getattr(data, "smoothing_passes", 0))
        self.points += int(getattr(data, "n_points", 0))

    def _on_report(self, report, args, kwargs) -> None:
        self.rounds += len(report.rounds)
        self.screened += sum(len(s.screened_run_ids)
                             for s in ensemble_summaries(report))
        # Candidate evaluators share the candidate's library object; any
        # other library belongs to a pruning round.
        by_candidate = {id(c.library): c.name for c in report.candidates}
        for lib_id, (_, count) in self.evals_by_library.items():
            name = by_candidate.get(lib_id)
            if name in self.candidate_evals:
                self.candidate_evals[name] += count
            else:
                self.pruned_evals += count
        self.evals_by_library.clear()

    def _on_written(self, result, args, kwargs) -> None:
        for value in list(args) + list(kwargs.values()):
            if isinstance(value, (str, os.PathLike)) and os.path.isfile(value):
                self.bytes_written += os.path.getsize(value)
                return

    # -- metrics ------------------------------------------------------

    def metrics(self) -> dict:
        """Every LAYER_METRICS name -> value (None where a target is gone)."""
        t = self.tracer
        busy, calls = t.busy, t.calls
        restarts, transformed = self.restarts, self.transformed
        evals = calls.get("evaluate", 0)
        writers = [k for k in busy if k.startswith("write:")]

        values = {
            "transport.simulate_s": busy.get("simulate"),
            "transport.ms_per_step": _ratio(busy.get("simulate"), self.steps,
                                            1e3),
            "transport.solves": calls.get("solve_banded"),
            "transport.solves_per_step": _ratio(calls.get("solve_banded"),
                                                self.steps),
            "transport.isotherm_calls": calls.get("isotherm_value"),
            "transport.sample_s": busy.get("sample"),
            "preprocess.noise_s": busy.get("add_noise"),
            "preprocess.smooth_s": busy.get("smooth_field"),
            "preprocess.smooth_passes": self.smooth_passes,
            "preprocess.derivatives_s": (busy.get("derivatives", 0.0)
                                         + busy.get("smooth_derivatives",
                                                    0.0)),
            "preprocess.derivative_calls": (calls.get("derivatives", 0)
                                            + calls.get("smooth_derivatives",
                                                        0)),
            "preprocess.split_s": busy.get("split"),
            "preprocess.points": self.points,
            "library.normalize_s": busy.get("normalize"),
            "library.normalize_calls": calls.get("normalize"),
            "regression.evals": evals,
            "regression.evals.pruned": self.pruned_evals,
            "regression.eval_ms": _ratio(busy.get("evaluate"), evals, 1e3),
            "regression.eval_s": busy.get("evaluate"),
            "regression.init_s": busy.get("evaluator_init"),
            "regression.lstsq_s": busy.get("lstsq"),
            "regression.prederr_s": busy.get("prediction_error"),
            "assimilation.restarts": restarts,
            "assimilation.transformed": transformed,
            "assimilation.trial_evals": self.trials,
            # Each restart evaluates one start point (two when it restarts
            # in transformed coordinates) and one final refit.
            "assimilation.probe_evals": (evals - (restarts + transformed)
                                         - self.trials - restarts),
            "assimilation.accept_ratio": _ratio(self.accepted, self.trials),
            "identification.prepare_s": busy.get("prepare"),
            "identification.identify_s": busy.get("identify"),
            "identification.ensembles": calls.get("run_ensemble"),
            "identification.rounds": self.rounds,
            "identification.screened": self.screened,
            "identification.paramfree_evals": self.paramfree_evals,
            "persist.write_s": sum((busy[k] for k in writers), 0.0),
            "persist.files": sum(calls[k] for k in writers),
            "persist.bytes": self.bytes_written,
            "cli.overhead_s": 0.0,
        }
        for name in CANDIDATES:
            values[f"regression.evals.{name}"] = self.candidate_evals[name]
        for status, count in self.statuses.items():
            values[f"assimilation.status.{status}"] = count
        if self.via_cli and "cli_main" in busy:
            values["cli.overhead_s"] = (busy["cli_main"]
                                        - busy.get("prepare", 0.0)
                                        - busy.get("identify", 0.0)
                                        - values["persist.write_s"])
        # Every writer is recorded as "write:<name>" but counts as "write".
        missing = {key.split(":")[0] for key in t.missing}
        for name, _, keys in _TABLE:
            if missing.intersection(keys):
                values[name] = None
        return values


def _ratio(num, den, scale: float = 1.0):
    if num is None or not den:
        return None if num is None else 0.0
    return scale * num / den
