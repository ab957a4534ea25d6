"""Shared fixtures and builders for the test suite.

Expensive pipeline stages (simulation, dataset preparation, full
identification runs) are memoized per session so that unit tests and the
acceptance gate can share them regardless of execution order.
"""

import contextlib
import json
import os
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import transportid
import transportid.assimilation as assim
from transportid.identification import IdentifyConfig, identify, prepare_dataset
from transportid.params import ModelParams
from transportid.preprocess import DerivativeField, NoiseSpec, split_train_test
from transportid.scenarios import get_scenario
from transportid.transport import ScenarioConfig, SorptionModel, simulate


# Reference parameter point and start set for the closed-form recovery
# checks.  The starts cover the bound corners (with a small margin so the
# finite-difference probes stay inside), the midpoint and a few interior
# points.
M_STAR = (0.6, 90.0)
RECOVERY_STARTS = (
    (0.26, 31.0), (0.74, 149.0), (0.26, 149.0), (0.74, 31.0),
    (0.5, 90.0), (0.3, 130.0), (0.7, 40.0), (0.45, 60.0),
)

# Tight update-loop settings used when the objective is noise free and
# the optimum should be resolved to high precision.
TIGHT_ASSIM = (("_TOL_REL", 1e-9), ("_MAX_ACCEPTED", 100),
               ("_C_EPS_SCALE", 1e-6))


@contextlib.contextmanager
def assimilation_settings(overrides=()):
    """Run the update loop with some of its module constants replaced.

    ``overrides`` is a tuple of (name, value) pairs, such as
    ``TIGHT_ASSIM``, so it can key a cache; an empty one patches nothing.
    """
    if not overrides:
        yield
        return
    with mock.patch.multiple(assim, **dict(overrides)):
        yield


def manufactured_field(alpha_by_id, a_star=0.6, kl_star=90.0,
                       n_x=25, n_t=40):
    """Closed-form travelling pulse with analytically exact derivatives.

    The time derivative is constructed so that the point cloud satisfies
    c_t = sum_j alpha_j * phi_j(c; a_star, kl_star) exactly for the term
    coefficients passed in ``alpha_by_id``.  Sorption terms divide through
    the retardation-style factor, so constructions with one or both
    sorption ids remain consistent.
    """
    xs = np.linspace(0.0, 1.0, n_x)
    ts = np.linspace(0.0, 1.0, n_t)
    x_grid, t_grid = np.meshgrid(xs, ts, indexing="ij")
    width = 0.08
    arg = x_grid - 0.3 - 0.4 * t_grid
    amp = 2.5 * (0.06 + 0.94 * t_grid)
    bump = np.exp(-arg ** 2 / width)
    conc = 0.005 + amp * bump
    d1 = amp * bump * (-2.0 * arg / width)
    d2 = amp * bump * (4.0 * arg ** 2 / width ** 2 - 2.0 / width)
    d3 = amp * bump * (-8.0 * arg ** 3 / width ** 3 + 12.0 * arg / width ** 2)
    weight = (1.0
              - alpha_by_id.get("fsorp", 0.0) * np.power(conc, a_star - 1.0)
              - alpha_by_id.get("lsorp", 0.0) / (1.0 + kl_star * conc) ** 2)
    c_t = (alpha_by_id.get("adv", 0.0) * d1
           + alpha_by_id.get("dis", 0.0) * d2) / weight
    i_idx, k_idx = np.meshgrid(np.arange(n_x), np.arange(n_t), indexing="ij")
    return DerivativeField(
        x_index=i_idx.ravel(), t_index=k_idx.ravel(),
        c=conc.ravel(), c_t=c_t.ravel(), c_x=d1.ravel(),
        c_xx=d2.ravel(), c_xxx=d3.ravel(),
        c2_x=(2.0 * conc * d1).ravel(),
        c2_xx=(2.0 * (d1 ** 2 + conc * d2)).ravel(),
        c2_xxx=(2.0 * (3.0 * d1 * d2 + conc * d3)).ravel(),
    )


def manufactured_grid(n_x=25, n_t=40):
    """The grid of ``manufactured_field``: n_x by n_t points on the unit
    square, for ``point_coordinates``."""
    return SimpleNamespace(x0=0.0, dx=1.0 / (n_x - 1), t0=0.0,
                           dt=1.0 / (n_t - 1))


def point_coordinates(points, grid):
    """x and t of every point of a DerivativeField, from the grid it was
    computed on: a Field, or anything else with x0, dx, t0 and dt."""
    return (grid.x0 + grid.dx * points.x_index,
            grid.t0 + grid.dt * points.t_index)


def sorption_params(a, k_l):
    """The embedded parameters (a, K_l) of both sorption terms."""
    return ModelParams(("a", "K_l"), (float(a), float(k_l)))


def coef(vector, term_id):
    """The entry of ``term_id`` in a CoefficientVector."""
    return float(vector.values[vector.term_ids.index(term_id)])


def term_stat(summary, term_id, which="alpha_phys_mean"):
    """The entry of ``term_id`` in one statistic of an EnsembleSummary."""
    return float(getattr(summary, which)[summary.term_ids.index(term_id)])


def candidate(report, name):
    """The candidate model called ``name`` in an IdentificationReport."""
    (found,) = [c for c in report.candidates if c.name == name]
    return found


def zero_conc_split(ratio=0.6):
    """Freundlich analytic split whose first training point has C = 0.

    C^(a-1) is infinite there for every a < 1, so the Freundlich column
    cannot be evaluated while the sorption-free columns stay finite.
    """
    pts = manufactured_field({"adv": -0.01, "dis": 0.01, "fsorp": -0.15})
    conc = pts.c.copy()
    conc[0] = 0.0
    return split_train_test(replace(pts, c=conc), ratio)


def package_env() -> dict:
    """The environment with this transportid first on PYTHONPATH, for tests
    that run it in a fresh interpreter."""
    src = str(Path(transportid.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def summary_record(**changes) -> dict:
    """The least summary record ``read_summary_json`` accepts, changed."""
    record = {"scenario": "s2", "noise_delta": 0.0,
              "selected_terms": ["adv"],
              "terms": [{"id": "adv", "alpha_phys_mean": -0.01}],
              "params": [{"name": "a", "mean": 0.7}],
              "equation": "dC/dt = -0.01 dC/dx"}
    record.update(changes)
    return record


# JSON texts that are not summaries.  The reader must reject each with a
# ValidationError, before report_table indexes into it.
MALFORMED_SUMMARIES = {
    "number": "5",
    "list": "[1, 2]",
    "string": '"scenario noise_delta selected_terms terms params equation"',
    "terms-number": json.dumps(summary_record(terms=5)),
    "terms-of-numbers": json.dumps(summary_record(terms=[5])),
    "term-without-value": json.dumps(summary_record(terms=[{"id": "adv"}])),
    "term-list-id": json.dumps(summary_record(
        terms=[{"id": ["adv"], "alpha_phys_mean": -0.01}])),
    "params-object": json.dumps(summary_record(params={"a": 0.7})),
    "param-without-name": json.dumps(summary_record(params=[{"mean": 0.7}])),
}


def make_tiny(**overrides) -> ScenarioConfig:
    """Coarse, fast scenario for structural and CLI tests (sub-second)."""
    base = dict(v_x=0.01, alpha_l=1.0, theta=0.37, rho_b=1.587,
                t_pulse=200.0, c0=0.05, sorption=SorptionModel.none(),
                sim_length=32.0, sim_dx=0.32, sim_dt=1.0,
                meas_x_count=25, meas_dx=0.64,
                meas_t_start=300.0, meas_t_end=700.0, meas_dt=2.0,
                conc_floor=5e-5, sim_store_dt=2.0)
    base.update(overrides)
    return ScenarioConfig(**base)


def tiny_dict(**overrides) -> dict:
    """The tiny scenario as a plain config mapping for CLI tests."""
    cfg = make_tiny(**overrides)
    data = {name: getattr(cfg, name) for name in
            ("v_x", "alpha_l", "theta", "rho_b", "t_pulse", "c0",
             "sim_length", "sim_dx", "sim_dt", "meas_x_count", "meas_dx",
             "meas_t_start", "meas_t_end", "meas_dt", "conc_floor",
             "sim_store_dt")}
    data["sorption"] = {"kind": cfg.sorption.kind, "k_f": cfg.sorption.k_f,
                        "a": cfg.sorption.a, "k_l": cfg.sorption.k_l,
                        "s_bar": cfg.sorption.s_bar}
    return data


class PipelineCache:
    """Memoizes simulations, prepared datasets and identification runs."""

    def __init__(self):
        self._sims = {}
        self._datasets = {}
        self._prep_time = {}
        self._reports = {}
        self._run_time = {}

    def simulation(self, name):
        """(field, diagnostics) for a preset scenario."""
        if name not in self._sims:
            self._sims[name] = simulate(get_scenario(name))
        return self._sims[name]

    @staticmethod
    def _data_key(name, delta, noise_seed):
        return (name, delta, noise_seed)

    def dataset(self, name, delta=0.0, noise_seed=0):
        key = self._data_key(name, delta, noise_seed)
        if key not in self._datasets:
            noise = NoiseSpec(delta, noise_seed) if delta > 0.0 else None
            start = time.perf_counter()
            self._datasets[key] = prepare_dataset(get_scenario(name), name,
                                                  noise=noise)
            self._prep_time[key] = time.perf_counter() - start
        return self._datasets[key]

    @staticmethod
    def _report_key(name, library, delta, noise_seed, n_restarts,
                    master_seed, assimilation):
        return (name, library, delta, noise_seed, n_restarts, master_seed,
                assimilation)

    def report(self, name, library="basic", delta=0.0, noise_seed=0,
               n_restarts=20, master_seed=0, assimilation=()):
        """``assimilation`` holds ``assimilation_settings`` overrides."""
        key = self._report_key(name, library, delta, noise_seed, n_restarts,
                               master_seed, assimilation)
        if key not in self._reports:
            data = self.dataset(name, delta, noise_seed)
            noise = NoiseSpec(delta, noise_seed) if delta > 0.0 else None
            cfg = IdentifyConfig(n_restarts=n_restarts,
                                 master_seed=master_seed)
            start = time.perf_counter()
            with assimilation_settings(assimilation):
                self._reports[key] = identify(name, library=library,
                                              noise=noise, cfg=cfg, data=data)
            self._run_time[key] = time.perf_counter() - start
        return self._reports[key]

    def wall_time(self, name, library="basic", delta=0.0, noise_seed=0,
                  n_restarts=20, master_seed=0, assimilation=()):
        """Data preparation plus identification time for one experiment."""
        self.report(name, library, delta, noise_seed, n_restarts,
                    master_seed, assimilation)
        rkey = self._report_key(name, library, delta, noise_seed, n_restarts,
                                master_seed, assimilation)
        dkey = self._data_key(name, delta, noise_seed)
        return self._prep_time[dkey] + self._run_time[rkey]


@pytest.fixture(scope="session")
def pipeline():
    return PipelineCache()
