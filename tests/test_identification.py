"""Restart ensembles, screening, pruning and the candidate-model
selection loop, exercised on analytic data."""

import dataclasses
import logging
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transportid.identification as identification
from conftest import (candidate, coef, make_tiny,
                      manufactured_field, sorption_params, term_stat,
                      zero_conc_split)
from transportid.assimilation import probe_box
from transportid.errors import SolverError, TransportIdError, ValidationError
from transportid.identification import (EnsembleSummary, EpsProxy,
                                        IdentifyConfig, PreparedData,
                                        aggregate_summary, build_proxy,
                                        identify, learned_equation,
                                        prepare_dataset, prune_terms,
                                        run_ensemble, run_single,
                                        sample_prior,
                                        screen_by_prediction_error)
from transportid.library import LibrarySpec
from transportid.params import ModelParams, ParamBounds
from transportid.persist import summary_dict
from transportid.preprocess import NoiseSpec, split_train_test
from transportid.regression import PredictionErrorEvaluator
from transportid.scenarios import get_scenario, true_coefficients
from transportid.transport import SorptionModel

BASIC = LibrarySpec.from_name("basic")
EXTENDED = LibrarySpec.from_name("extended")
ADF_ALPHA = {"adv": -0.01, "dis": 0.01, "fsorp": -0.15}


def adf_split():
    return split_train_test(manufactured_field(ADF_ALPHA), 0.6)


def manufactured_data(split=None):
    return PreparedData(scenario_name="manufactured",
                        split=split or adf_split(), noise=None)


def fake_runs(eps_values):
    return [SimpleNamespace(run_id=i, fit=SimpleNamespace(eps=e))
            for i, e in enumerate(eps_values)]


def make_summary(library, alpha_norm_mean, alpha_abs=None):
    alpha_norm_mean = np.asarray(alpha_norm_mean, dtype=float)
    if alpha_abs is None:
        alpha_abs = np.abs(alpha_norm_mean)
    k = alpha_norm_mean.size
    return EnsembleSummary(
        term_ids=library.term_ids,
        retained_run_ids=(0,), screened_run_ids=(), failed_run_ids=(),
        alpha_norm_mean=alpha_norm_mean, alpha_norm_std=np.zeros(k),
        alpha_abs_norm_mean=np.asarray(alpha_abs, dtype=float),
        alpha_phys_mean=alpha_norm_mean.copy(), alpha_phys_std=np.zeros(k),
        param_names=("a", "K_l"), param_mean=np.array([0.5, 90.0]),
        param_std=np.zeros(2), eps_values=np.array([1.0]))


# --------------------------------------------------------------- prior

def test_prior_draws_are_uniform_over_the_box():
    bounds = ParamBounds.default()
    draws = sample_prior(10000, bounds, seed=0)
    arr = np.array([m.as_array() for m in draws])
    assert np.all(arr[:, 0] >= 0.25) and np.all(arr[:, 0] <= 0.75)
    assert np.all(arr[:, 1] >= 30.0) and np.all(arr[:, 1] <= 150.0)
    assert arr[:, 0].mean() == pytest.approx(0.5, abs=0.01)
    assert arr[:, 1].mean() == pytest.approx(90.0, abs=1.5)


def test_prior_draws_reproducible():
    bounds = ParamBounds.default()
    a = sample_prior(5, bounds, seed=3)
    b = sample_prior(5, bounds, seed=3)
    c = sample_prior(5, bounds, seed=4)
    assert a == b
    assert a != c
    with pytest.raises(ValidationError):
        sample_prior(0, bounds, seed=0)


# ----------------------------------------------------------- screening

def test_screening_keeps_equal_runs():
    retained, screened = screen_by_prediction_error(fake_runs([2.0] * 6))
    assert len(retained) == 6 and not screened


def test_screening_drops_the_outlier():
    runs = fake_runs([1.0, 1.0, 1.0, 10.0])
    retained, screened = screen_by_prediction_error(runs)
    assert [r.run_id for r in screened] == [3]
    assert [r.run_id for r in retained] == [0, 1, 2]


def test_screening_skips_tiny_ensembles():
    runs = fake_runs([1.0, 50.0])
    retained, screened = screen_by_prediction_error(runs)
    assert len(retained) == 2 and not screened


def test_screening_is_order_invariant():
    eps = [0.5, 3.0, 0.6, 0.55, 9.0, 0.58]
    fwd_ret, fwd_scr = screen_by_prediction_error(fake_runs(eps))
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(eps))
    shuffled = fake_runs([eps[i] for i in perm])
    for stub, i in zip(shuffled, perm):
        stub.run_id = int(i)
    rev_ret, rev_scr = screen_by_prediction_error(shuffled)
    assert {r.run_id for r in fwd_ret} == {r.run_id for r in rev_ret}
    assert {r.run_id for r in fwd_scr} == {r.run_id for r in rev_scr}


# ------------------------------------------------------------- pruning

def test_prune_keeps_comparable_terms():
    lib = BASIC
    kept = prune_terms(lib, make_summary(lib, [-0.5, 0.4, -0.45, 0.1]))
    # Both sorption candidates negative would violate the one-model rule,
    # so here only fsorp is negative and survives.
    assert kept == ("adv", "dis", "fsorp")


def test_prune_drops_wrong_signed_sorption():
    lib = BASIC
    kept = prune_terms(lib, make_summary(lib, [-0.5, 0.4, 0.3, -0.45]))
    assert kept == ("adv", "dis", "lsorp")


def test_prune_drops_small_terms_relative_to_largest():
    lib = EXTENDED.subset(("adv", "dis", "conc", "d3"))
    # Threshold is 5% of the largest magnitude (0.04 here): 0.06 stays,
    # 0.002 goes.
    summary = make_summary(lib, [-0.8, 0.6, 0.06, 0.002])
    assert prune_terms(lib, summary) == ("adv", "dis", "conc")


def test_prune_keeps_single_strongest_sorption():
    lib = BASIC
    kept = prune_terms(lib, make_summary(lib, [-0.5, 0.4, -0.2, -0.45]))
    assert kept == ("adv", "dis", "lsorp")
    kept = prune_terms(lib, make_summary(lib, [-0.5, 0.4, -0.45, -0.2]))
    assert kept == ("adv", "dis", "fsorp")


def test_prune_scale_ignores_discarded_sorption():
    """A wrong-signed dominant sorption term must not set the size scale."""
    lib = BASIC.subset(("adv", "dis", "fsorp"))
    summary = make_summary(lib, [-0.04, 0.03, 5.0])
    assert prune_terms(lib, summary) == ("adv", "dis")


def test_prune_refuses_to_empty_the_model():
    lib = BASIC.subset(("fsorp",))
    with pytest.raises(ValidationError):
        prune_terms(lib, make_summary(lib, [0.9]))


# ------------------------------------------------------------ ensemble

def test_run_single_recovers_on_analytic_data():
    split = adf_split()
    lib = BASIC.subset(("adv", "dis", "fsorp"))
    cfg = IdentifyConfig()
    ev = PredictionErrorEvaluator(split, lib)
    out = run_single(ev, ModelParams(("a",), (0.45,)),
                     cfg.bounds.restrict(("a",)), run_id=7)
    assert out.run_id == 7
    assert out.fit.alpha_norm.term_ids == lib.term_ids
    assert out.fit.eps == ev.evaluate(out.trace.m_final).eps
    assert abs(out.trace.m_final["a"] - 0.6) < 0.01


def test_run_single_takes_the_fit_the_loop_accepted(monkeypatch):
    """A restart's fit is the evaluation its loop accepted: run_single
    evaluates nothing after run_assimilation returns."""
    split = adf_split()
    lib = BASIC.subset(("adv", "dis", "fsorp"))
    cfg = IdentifyConfig()
    events = []
    evaluate = PredictionErrorEvaluator.evaluate
    assimilate = identification.run_assimilation

    def counted_evaluate(self, m):
        events.append("evaluate")
        return evaluate(self, m)

    def marked_assimilation(*args, **kwargs):
        trace = assimilate(*args, **kwargs)
        events.append("returned")
        return trace

    monkeypatch.setattr(PredictionErrorEvaluator, "evaluate",
                        counted_evaluate)
    monkeypatch.setattr(identification, "run_assimilation",
                        marked_assimilation)
    ev = PredictionErrorEvaluator(split, lib)
    out = run_single(ev, ModelParams(("a",), (0.45,)),
                     cfg.bounds.restrict(("a",)))
    assert events.count("evaluate") > 1
    assert events[-1] == "returned"
    assert out.fit is out.trace.fit
    assert out.fit.eps == evaluate(ev, out.trace.m_final).eps


def test_run_single_rejects_bounds_the_library_does_not_read():
    """Bounds must name exactly the parameters the library reads: an extra
    one would be probed and reported as an estimate, a missing one could
    not be evaluated."""
    split = adf_split()
    lib = BASIC.subset(("adv", "dis", "fsorp"))
    cfg = IdentifyConfig()
    evaluator = PredictionErrorEvaluator(split, lib)
    with pytest.raises(ValidationError, match="reads \\['a'\\]"):
        run_single(evaluator, sorption_params(0.3, 40.0),
                   ParamBounds.default())
    with pytest.raises(ValidationError, match="reads \\['a'\\]"):
        run_single(evaluator, ModelParams(("K_l",), (40.0,)),
                   cfg.bounds.restrict(("K_l",)))
    free = PredictionErrorEvaluator(split, BASIC.subset(("adv", "dis")))
    with pytest.raises(ValidationError, match="reads \\[\\]"):
        run_single(free, ModelParams(("a",), (0.3,)),
                   cfg.bounds.restrict(("a",)))


def test_run_ensemble_layout_and_determinism():
    split = adf_split()
    lib = BASIC.subset(("adv", "dis", "fsorp"))
    cfg = IdentifyConfig(n_restarts=4, master_seed=5)
    first, fails = run_ensemble(split, lib, cfg)
    again, _ = run_ensemble(split, lib, cfg)
    assert not fails
    assert [r.run_id for r in first] == [0, 1, 2, 3]
    assert [r.m0 for r in first] == [r.m0 for r in again]
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a.fit.alpha_phys.values,
                                      b.fit.alpha_phys.values)
        assert a.fit.eps == b.fit.eps
    other, _ = run_ensemble(split, lib, IdentifyConfig(n_restarts=4,
                                                       master_seed=6))
    assert [r.m0 for r in first] != [r.m0 for r in other]


def test_aggregate_summary_of_single_run():
    split = adf_split()
    lib = BASIC.subset(("adv", "dis", "fsorp"))
    cfg = IdentifyConfig(n_restarts=1)
    results, failures = run_ensemble(split, lib, cfg)
    summary = aggregate_summary(lib, results, [], failures)
    assert summary.n_runs == 1
    np.testing.assert_array_equal(summary.alpha_norm_mean,
                                  results[0].fit.alpha_norm.values)
    assert np.all(summary.alpha_norm_std == 0.0)
    assert np.all(summary.param_std == 0.0)
    assert term_stat(summary, "fsorp", "alpha_phys_mean") == pytest.approx(
        coef(results[0].fit.alpha_phys, "fsorp"))
    with pytest.raises(ValidationError):
        aggregate_summary(lib, [], [], [])


def test_aggregate_summary_mean_is_order_invariant():
    split = adf_split()
    lib = BASIC.subset(("adv", "dis", "fsorp"))
    results, _ = run_ensemble(split, lib, IdentifyConfig(n_restarts=6))
    fwd = aggregate_summary(lib, results, [], [])
    rev = aggregate_summary(lib, results[::-1], [], [])
    np.testing.assert_allclose(fwd.alpha_norm_mean, rev.alpha_norm_mean,
                               rtol=1e-12)
    np.testing.assert_allclose(fwd.param_mean, rev.param_mean, rtol=1e-12)


# ------------------------------------------------------- full pipeline

def test_identify_selects_the_generating_model():
    """On Freundlich-generated analytic data the nested-model comparison
    must pick the Freundlich candidate and keep it through pruning."""
    report = identify(make_tiny(), cfg=IdentifyConfig(n_restarts=4),
                      data=manufactured_data())
    assert [c.name for c in report.candidates] == ["none", "fsorp", "lsorp"]
    assert report.winner_name == "fsorp"
    assert report.stable
    assert len(report.rounds) == 1
    assert report.selected_term_ids == ("adv", "dis", "fsorp")
    summary = report.final_summary
    assert term_stat(summary, "fsorp", "alpha_phys_mean") == pytest.approx(
        -0.15, rel=0.05)
    assert dict(zip(summary.param_names, summary.param_mean))[
        "a"] == pytest.approx(0.6, abs=0.02)
    assert candidate(report, "fsorp").mean_eps < candidate(report, 
        "none").mean_eps
    assert report.equation.startswith("dC/dt = ")
    assert "C^(" in report.equation


def test_identify_is_deterministic():
    data = manufactured_data()
    cfg = IdentifyConfig(n_restarts=3)
    a = identify(make_tiny(), cfg=cfg, data=data)
    b = identify(make_tiny(), cfg=cfg, data=data)
    np.testing.assert_array_equal(a.final_summary.alpha_phys_mean,
                                  b.final_summary.alpha_phys_mean)
    np.testing.assert_array_equal(a.final_summary.param_mean,
                                  b.final_summary.param_mean)
    assert a.equation == b.equation
    assert a.selected_term_ids == b.selected_term_ids


def test_every_restart_failing_is_a_solver_error():
    """When no restart of any candidate evaluates, the experiment fails as
    a numeric error that names the first restart's cause.  A library of the
    Freundlich term alone has that one candidate."""
    split = zero_conc_split()
    lib = BASIC.subset(("adv", "dis", "fsorp"))
    cfg = IdentifyConfig(n_restarts=3)
    results, failures = run_ensemble(split, lib, cfg)
    assert results == []
    assert [f.run_id for f in failures] == [0, 1, 2]
    assert "term 'fsorp' evaluated non-finite" in failures[0].error
    only_fsorp = BASIC.subset(("fsorp",))
    with pytest.raises(SolverError, match="every candidate model failed; "
                       "first cause: every restart failed.*'fsorp'"):
        identify(make_tiny(), only_fsorp, cfg=cfg, data=manufactured_data(split))


def test_a_failed_candidate_is_left_out_of_selection():
    """The Freundlich candidate cannot be evaluated at C = 0; the others
    are compared without it, and the report and summary name its cause."""
    report = identify(make_tiny(), cfg=IdentifyConfig(n_restarts=3),
                      data=manufactured_data(zero_conc_split()))
    assert [c.name for c in report.candidates] == ["none", "lsorp"]
    assert report.winner_name in ("none", "lsorp")
    (failed,) = report.failed_candidates
    assert (failed.name, failed.term_ids) == ("fsorp", ("adv", "dis", "fsorp"))
    assert "term 'fsorp' evaluated non-finite" in failed.error
    record = summary_dict(report)
    assert record["failed_candidates"] == [
        {"name": "fsorp", "term_ids": ["adv", "dis", "fsorp"], "error": failed.error}]
    assert "failed_candidates" not in summary_dict(
        identify(make_tiny(), cfg=IdentifyConfig(n_restarts=3), data=manufactured_data()))


def test_unsettled_pruning_fits_no_ensemble_it_does_not_report(monkeypatch):
    """When pruning never settles, identify stops at the fourth recorded
    round: every ensemble after the candidates' is a reported round, and
    the last round's selection is left unfitted."""
    lib = EXTENDED.subset(("adv", "dis", "fsorp", "conc", "d3",
                                         "sq_dx"))
    fitted = []
    real_run_ensemble = identification.run_ensemble

    def counting(split, library, cfg):
        fitted.append(library.term_ids)
        return real_run_ensemble(split, library, cfg)

    monkeypatch.setattr(identification, "run_ensemble", counting)
    monkeypatch.setattr(identification, "prune_terms",
                        lambda library, summary: library.term_ids[:-1])
    report = identify(make_tiny(), lib, cfg=IdentifyConfig(n_restarts=2),
                      data=manufactured_data())
    assert len(report.rounds) == 4
    assert report.stable is False
    assert len(fitted) == len(report.candidates) + 3
    assert [r.library.term_ids for r in report.rounds[1:]] == fitted[-3:]
    assert report.selected_term_ids == report.final_summary.term_ids[:-1]


def test_pruning_to_a_candidate_reuses_its_ensemble(monkeypatch):
    """A pruning round that selects a candidate's terms takes that
    candidate's ensemble, which is the one a refit would give, and fits
    no ensemble of its own."""
    fitted = []
    real_run_ensemble = identification.run_ensemble

    def counting(split, library, cfg):
        fitted.append(library.term_ids)
        return real_run_ensemble(split, library, cfg)

    monkeypatch.setattr(identification, "run_ensemble", counting)
    monkeypatch.setattr(identification, "prune_terms",
                        lambda library, summary: ("adv", "dis"))
    cfg = IdentifyConfig(n_restarts=3)
    data = manufactured_data()
    report = identify(make_tiny(), BASIC, cfg=cfg, data=data)
    assert report.winner_name == "fsorp"
    assert [r.library.term_ids for r in report.rounds] == [
        ("adv", "dis", "fsorp"), ("adv", "dis")]
    assert report.stable
    assert fitted == [c.library.term_ids for c in report.candidates]
    none = candidate(report, "none")
    assert report.final_summary is none.summary
    assert report.final_results is none.results
    refit, _ = identification._ensemble_round(data.split,
                                              report.rounds[-1].library, cfg)
    for f in dataclasses.fields(refit):
        np.testing.assert_array_equal(getattr(report.final_summary, f.name),
                                      getattr(refit, f.name))


def test_restarts_ending_on_one_m_share_one_exact_fit(pipeline, monkeypatch):
    """On s1 several fsorp restarts end on the same m, on a bound: each
    distinct end is fitted exactly once, and its restarts share the fit."""
    calls = []
    evaluate = PredictionErrorEvaluator.evaluate

    def counting(self, m):
        calls.append(m)
        return evaluate(self, m)

    monkeypatch.setattr(PredictionErrorEvaluator, "evaluate", counting)
    results, failures = run_ensemble(pipeline.dataset("s1").split,
                                     BASIC.subset(("adv", "dis", "fsorp")),
                                     IdentifyConfig())
    assert not failures
    fits = {}
    for res in results:
        assert fits.setdefault(res.trace.m_final.values, res.fit) is res.fit
    assert len(fits) < len(results)
    assert len(calls) == 33 + len(fits)


@st.composite
def tiny_columns(draw):
    """A tiny column with random transport constants, inlet and sorption."""
    kind = draw(st.sampled_from(("none", "freundlich", "langmuir")))
    if kind == "freundlich":
        sorption = SorptionModel.freundlich(k_f=draw(st.floats(0.0, 0.2)),
                                            a=draw(st.floats(0.3, 1.0)))
    elif kind == "langmuir":
        sorption = SorptionModel.langmuir(k_l=draw(st.floats(0.0, 200.0)),
                                          s_bar=draw(st.floats(0.0, 0.005)))
    else:
        sorption = SorptionModel.none()
    return make_tiny(sorption=sorption, v_x=draw(st.floats(0.005, 0.05)),
                     alpha_l=draw(st.floats(0.2, 2.0)),
                     theta=draw(st.floats(0.2, 0.5)),
                     rho_b=draw(st.floats(1.2, 2.0)),
                     t_pulse=draw(st.floats(50.0, 400.0)),
                     c0=draw(st.just(0.0) | st.floats(np.log10(0.005), 6.0).map(
                         lambda e: 10.0 ** e)),
                     conc_floor=draw(st.sampled_from((0.0, 5e-5))))


@settings(max_examples=25, deadline=None)
@given(scenario=tiny_columns())
def test_identify_reports_or_raises_a_package_error(scenario):
    """Any valid tiny column identifies or fails with a TransportIdError,
    never a bare numpy or LAPACK error or a RuntimeWarning (which the
    suite turns into an error)."""
    try:
        report = identify(scenario, cfg=IdentifyConfig(n_restarts=2))
    except TransportIdError:
        return
    assert report.equation.startswith("dC/dt = ")


def test_unfloored_short_s2_identifies_its_freundlich_model():
    """A zero floor still masks C = 0, where the Freundlich term is not
    finite, so every candidate runs and the generating model wins."""
    scen = dataclasses.replace(get_scenario("s2"), conc_floor=0.0, meas_t_end=700.0)
    report = identify(scen, cfg=IdentifyConfig(n_restarts=4))
    assert [c.name for c in report.candidates] == ["none", "fsorp", "lsorp"]
    assert report.failed_candidates == []
    assert report.selected_term_ids == ("adv", "dis", "fsorp")


def test_identify_records_the_noise_of_the_data_it_ran_on():
    noise = NoiseSpec(0.05)
    data = prepare_dataset(get_scenario("s2-fast"), "s2-fast", noise=noise)
    report = identify("s2-fast", cfg=IdentifyConfig(n_restarts=2), data=data)
    assert report.data is data and report.data.noise == noise
    record = summary_dict(report)
    assert record["noise_delta"] == 0.05


def test_light_noise_on_s2_recovers_the_freundlich_model(pipeline):
    """At delta = 0.01, two smoothing passes leave s2's fsorp coefficient
    within 30 % of the truth and its exponent within 0.03 of 0.7."""
    summary = pipeline.report("s2", delta=0.01).final_summary
    truth = true_coefficients("s2")["fsorp"]
    rel_err = abs(term_stat(summary, "fsorp") - truth) / abs(truth)
    a = float(summary.param_mean[summary.param_names.index("a")])
    assert rel_err <= 0.30
    assert abs(a - 0.7) <= 0.03


# --------------------------------------------------------------- proxy

@pytest.fixture(scope="session")
def sorption_proxy(pipeline):
    """(source, term) -> the proxy of the ``adv, dis, term`` candidate on
    the analytic split or a preset's clean split, built once."""
    built = {}

    def get(source: str, term: str) -> EpsProxy:
        if (source, term) not in built:
            split = (adf_split() if source == "manufactured"
                     else pipeline.dataset(source).split)
            lib = BASIC.subset(("adv", "dis", term))
            bounds = IdentifyConfig().bounds.restrict(lib.parameter_deps)
            built[source, term] = build_proxy(
                PredictionErrorEvaluator(split, lib), bounds)
        return built[source, term]

    return get


_PROXY_BOUND = {("manufactured", "fsorp"): 2e-13,
                ("manufactured", "lsorp"): 8e-13,
                ("s2", "fsorp"): 1e-12, ("s3", "lsorp"): 2e-11}


@pytest.mark.parametrize("source, term", list(_PROXY_BOUND))
@settings(max_examples=25, deadline=None)
@given(u=st.floats(min_value=0.0, max_value=1.0))
def test_proxy_matches_the_evaluator(sorption_proxy, source, term, u):
    """Anywhere in the widened interval the proxy is within its bound of
    the exact eps.  Each bound is 6e-14 to 3e-13 of eps's scale (largest
    sample 0.70, 4.4, 17 and 233), a few times the largest error seen at
    400 random points: 4.7e-14, 1.6e-13, 3.7e-13 and 4.0e-12."""
    bound = _PROXY_BOUND[source, term]
    proxy = sorption_proxy(source, term)
    interp = proxy.interpolant
    x = min(max(interp.lo + u * (interp.hi - interp.lo), interp.lo),
            interp.hi)
    m = ModelParams(proxy.library.parameter_deps, (x,))
    exact = proxy.exact.evaluate(m).eps
    assert abs(proxy.evaluate(m).eps - exact) <= bound


@pytest.mark.parametrize("term", ["fsorp", "lsorp"])
def test_s1_proxy_ignores_rounding_noise(pipeline, monkeypatch, term):
    """s1's eps is nearly flat in a and K_l, so its last digits are
    rounding noise.  Perturbing every sample by a seeded relative 1e-11
    leaves each proxy at 33 samples, as it is without the noise."""
    split = pipeline.dataset("s1").split
    lib = BASIC.subset(("adv", "dis", term))
    bounds = IdentifyConfig().bounds.restrict(lib.parameter_deps)
    evaluator = PredictionErrorEvaluator(split, lib)
    assert build_proxy(evaluator, bounds).interpolant.values.size == 33
    evaluate = PredictionErrorEvaluator.evaluate
    rng = np.random.default_rng(0)

    def noisy(self, m):
        fit = evaluate(self, m)
        return dataclasses.replace(
            fit, eps=fit.eps * (1.0 + rng.uniform(-1e-11, 1e-11)))

    monkeypatch.setattr(PredictionErrorEvaluator, "evaluate", noisy)
    for _ in range(3):
        assert build_proxy(evaluator, bounds).interpolant.values.size == 33


@pytest.mark.parametrize("source, term", [("s2", "fsorp"), ("s3", "lsorp")])
def test_restarts_on_the_proxy_match_the_exact_path(sorption_proxy, source,
                                                    term):
    """The same restarts through run_single end with the same statuses
    and, to 1e-8, the same m_final.  The proxy run's fit is exact, and
    its trace keeps the proxy's own value at m_final."""
    proxy = sorption_proxy(source, term)
    cfg = IdentifyConfig()
    bounds = cfg.bounds.restrict(proxy.library.parameter_deps)
    for m in sample_prior(5, cfg.bounds, cfg.master_seed):
        m0 = ModelParams(bounds.names, (m[bounds.names[0]],))
        exact = run_single(proxy.exact, m0, bounds)
        fast = run_single(proxy, m0, bounds)
        assert fast.trace.status == exact.trace.status
        np.testing.assert_allclose(fast.trace.m_final.values,
                                   exact.trace.m_final.values, rtol=1e-8)
        assert fast.trace.fit == proxy.evaluate(fast.trace.m_final)
        assert fast.fit.eps == proxy.exact.evaluate(fast.trace.m_final).eps


def test_proxy_refuses_points_outside_its_interval():
    lib = BASIC.subset(("adv", "dis", "fsorp"))
    bounds = IdentifyConfig().bounds.restrict(("a",))
    proxy = build_proxy(PredictionErrorEvaluator(adf_split(), lib), bounds)
    lo, hi = (float(v[0]) for v in probe_box(bounds))
    assert (proxy.interpolant.lo, proxy.interpolant.hi) == (lo, hi)
    assert lo < 0.25 and hi > 0.75
    proxy.evaluate(ModelParams(("a",), (lo,)))
    proxy.evaluate(ModelParams(("a",), (hi,)))
    for a in (np.nextafter(lo, 0.0), np.nextafter(hi, 1.0)):
        with pytest.raises(ValidationError, match="outside"):
            proxy.evaluate(ModelParams(("a",), (a,)))


def test_unresolved_eps_falls_back_to_the_exact_path(monkeypatch, caplog):
    """An eps with a kink is not resolved by 257 samples: every restart
    then runs on the exact evaluator, as run_single does by hand."""
    evaluate = PredictionErrorEvaluator.evaluate
    calls = []

    def kinked(self, m):
        calls.append(m)
        fit = evaluate(self, m)
        return dataclasses.replace(
            fit, eps=fit.eps * (1.0 + abs(m.values[0] - 0.5)))

    monkeypatch.setattr(PredictionErrorEvaluator, "evaluate", kinked)
    split = adf_split()
    lib = BASIC.subset(("adv", "dis", "fsorp"))
    cfg = IdentifyConfig(n_restarts=3)
    bounds = cfg.bounds.restrict(("a",))
    evaluator = PredictionErrorEvaluator(split, lib)
    assert build_proxy(evaluator, bounds) is None
    assert len(calls) == 257
    with caplog.at_level(logging.DEBUG, logger="transportid.identification"):
        results, failures = run_ensemble(split, lib, cfg)
    assert not failures
    assert "not resolved by 257 Chebyshev samples" in caplog.text
    for res in results:
        by_hand = run_single(evaluator, res.m0, bounds)
        assert res.trace.status == by_hand.trace.status
        assert res.trace.m_final == by_hand.trace.m_final
        assert res.fit.eps == by_hand.fit.eps
        assert res.fit is res.trace.fit


# ------------------------------------------------------------ rendering

def test_learned_equation_renders_every_extended_term():
    lib = EXTENDED
    coefs = [-0.01, 0.01, -0.1501, -1.2868, 2e-5, -3.25e-4, 1.0,
             0.123456789, -7.0, 0.0]
    summary = make_summary(lib, coefs)
    summary.param_mean = np.array([0.70349, 98.76543])
    assert learned_equation(summary) == (
        "dC/dt = -0.01 dC/dx +0.01 d2C/dx2 -0.1501 C^(0.703-1) dC/dt "
        "-1.2868 (1+98.765 C)^-2 dC/dt +2e-05 C -0.000325 C^2 "
        "+1 d3C/dx3 +0.12346 dC^2/dx -7 d2C^2/dx2 +0 d3C^2/dx3")
    # A parameter missing from the aggregate renders as nan.
    summary.param_names = ("K_l",)
    summary.param_mean = np.array([60.0])
    rendered = learned_equation(summary)
    assert "C^(nan-1) dC/dt" in rendered
    assert "(1+60.000 C)^-2 dC/dt" in rendered


def test_identify_config_validation():
    for bad in ({"split_ratio": float("nan")}, {"n_restarts": 2.5},
                {"master_seed": 1.5}, {"n_restarts": "20"}):
        with pytest.raises(ValidationError, match=next(iter(bad))):
            IdentifyConfig(**bad)
    with pytest.raises(ValidationError):
        IdentifyConfig(n_restarts=0)
    with pytest.raises(ValidationError):
        IdentifyConfig(split_ratio=1.0)
