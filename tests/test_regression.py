"""Least-squares term fitting and the held-out prediction error."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import transportid.regression as regression
from conftest import (coef, manufactured_field, manufactured_grid,
                      point_coordinates, sorption_params, zero_conc_split)
from reference_regression import evaluate_terms, plain_fit
from transportid.errors import (CollinearityError, DegenerateColumnError,
                                TermEvaluationError, ValidationError)
from transportid.library import (DesignMatrix, LibrarySpec, TermSpec,
                                 normalize_design)
from transportid.params import ParamBounds
from transportid.preprocess import DataSplit, split_train_test
from transportid.regression import (PredictionErrorEvaluator,
                                    least_squares_fit, prediction_error)
from transportid.scenarios import true_parameters

BASIC = LibrarySpec.from_name("basic")
EXTENDED = LibrarySpec.from_name("extended")


def random_design(n=300, k=4, seed=0):
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=(n, k)) @ np.diag(rng.uniform(0.5, 3.0, k))
    truth = rng.normal(size=k)
    y = phi @ truth + rng.uniform(0.5, 1.5)
    ids = tuple(f"t{j}" for j in range(k))
    return DesignMatrix(phi, y, ids), truth


def test_exact_recovery_without_noise():
    for seed in range(5):
        dm, truth = random_design(seed=seed)
        norm, stats = normalize_design(dm)
        alpha = least_squares_fit(norm)
        phys = alpha.values * stats.y_std / stats.col_std
        np.testing.assert_allclose(phys, truth, rtol=1e-10)


def test_fit_is_a_least_squares_minimum():
    rng = np.random.default_rng(3)
    dm, _ = random_design(seed=3)
    noisy = DesignMatrix(dm.phi, dm.y + rng.normal(0.0, 0.3, dm.n_points),
                         dm.term_ids)
    norm, _ = normalize_design(noisy)
    alpha = least_squares_fit(norm)
    best = np.sum((norm.y - norm.phi @ alpha.values) ** 2)
    for _ in range(20):
        other = alpha.values + rng.normal(0.0, 0.05, alpha.values.size)
        assert best <= np.sum((norm.y - norm.phi @ other) ** 2) + 1e-12


def test_matches_normal_equations():
    dm, _ = random_design(n=500, seed=7)
    rng = np.random.default_rng(8)
    noisy = DesignMatrix(dm.phi, dm.y + rng.normal(0.0, 0.1, 500), dm.term_ids)
    norm, _ = normalize_design(noisy)
    alpha = least_squares_fit(norm)
    direct = np.linalg.solve(norm.phi.T @ norm.phi, norm.phi.T @ norm.y)
    np.testing.assert_allclose(alpha.values, direct, rtol=1e-9)


def test_underdetermined_fit_rejected():
    dm, _ = random_design(n=3, k=4, seed=1)
    with pytest.raises(ValidationError):
        least_squares_fit(dm)


def test_duplicate_column_raises_collinearity():
    rng = np.random.default_rng(4)
    base = rng.normal(size=(100, 1))
    phi = np.hstack([base, base * 2.0, rng.normal(size=(100, 1))])
    y = phi @ np.array([1.0, 1.0, 1.0]) + rng.normal(0.0, 0.01, 100)
    dm = DesignMatrix(phi, y, ("adv", "dis", "d3"))
    norm, _ = normalize_design(dm)
    with pytest.raises(CollinearityError, match="adv|dis"):
        least_squares_fit(norm)


def test_prediction_error_definition():
    """eps must use training statistics on the raw held-out columns."""
    train, truth = random_design(n=200, seed=11)
    rng = np.random.default_rng(12)
    test_phi = rng.normal(size=(50, truth.size)) + 0.3
    test_y = test_phi @ truth + rng.normal(0.0, 0.2, 50)
    test_dm = DesignMatrix(test_phi, test_y, train.term_ids)
    norm, stats = normalize_design(train)
    alpha = least_squares_fit(norm)
    got = prediction_error(test_dm, alpha, stats)
    phi_n = (test_phi - stats.col_mean) / stats.col_std
    y_n = (test_y - stats.y_mean) / stats.y_std
    expected = np.sum((y_n - phi_n @ alpha.values) ** 2)
    assert got == pytest.approx(expected, rel=1e-13)
    assert got > 0.0


def test_prediction_error_guards():
    train, _ = random_design(n=100, seed=13)
    norm, stats = normalize_design(train)
    alpha = least_squares_fit(norm)
    empty = DesignMatrix(np.empty((0, 4)), np.empty(0), train.term_ids)
    with pytest.raises(ValidationError):
        prediction_error(empty, alpha, stats)
    renamed = DesignMatrix(train.phi, train.y, ("a", "b", "c", "d"))
    with pytest.raises(ValidationError):
        prediction_error(renamed, alpha, stats)


def test_prediction_error_invariant_to_point_order():
    train, truth = random_design(n=150, seed=20)
    rng = np.random.default_rng(21)
    test_phi = rng.normal(size=(60, truth.size))
    test_y = test_phi @ truth + rng.normal(0.0, 0.1, 60)
    norm, stats = normalize_design(train)
    alpha = least_squares_fit(norm)
    fwd = prediction_error(DesignMatrix(test_phi, test_y, train.term_ids),
                           alpha, stats)
    perm = rng.permutation(60)
    rev = prediction_error(DesignMatrix(test_phi[perm], test_y[perm],
                                        train.term_ids), alpha, stats)
    assert fwd == pytest.approx(rev, rel=1e-13)


def test_manufactured_field_fit_recovers_coefficients():
    """On noise-free analytic data the full 4-term fit lands on the exact
    coefficients, and the plain path's intercept vanishes: the data have
    no source term."""
    alpha_true = {"adv": -0.01, "dis": 0.01, "fsorp": -0.15, "lsorp": -1.2}
    split = split_train_test(manufactured_field(alpha_true), 0.6)
    m = sorption_params(0.6, 90.0)
    fit = PredictionErrorEvaluator(split, BASIC).evaluate(m)
    for tid, target in alpha_true.items():
        assert coef(fit.alpha_phys, tid) == pytest.approx(target, rel=1e-9)
    assert abs(plain_fit(split, BASIC, m).intercept) < 1e-12
    assert fit.eps < 1e-18


def test_evaluator_matches_unsplit_fit_at_true_parameters():
    pts = manufactured_field({"adv": -0.01, "dis": 0.01, "fsorp": -0.15})
    lib = BASIC.subset(("adv", "dis", "fsorp"))
    ev = PredictionErrorEvaluator(split_train_test(pts, 0.6), lib)
    m_star = sorption_params(0.6, 90.0)
    fit = ev.evaluate(m_star)
    assert fit.eps < 1e-18
    assert fit.eps == ev.evaluate(m_star).eps
    np.testing.assert_allclose(
        fit.alpha_phys.values, [-0.01, 0.01, -0.15], rtol=1e-8)
    # Repeated evaluation must be bit-stable (cached static columns).
    again = ev.evaluate(m_star)
    np.testing.assert_array_equal(fit.alpha_norm.values,
                                  again.alpha_norm.values)
    assert fit.eps == again.eps


def test_parameter_free_evaluator_normalizes_once(monkeypatch):
    """Without a parameter-dependent term every m gives the same fit, and the
    design is z-scored once, at construction."""
    calls = []
    real = regression.normalize_design

    def counting(dm):
        calls.append(dm.n_points)
        return real(dm)

    monkeypatch.setattr(regression, "normalize_design", counting)
    pts = manufactured_field({"adv": -0.01, "dis": 0.01, "fsorp": -0.15})
    lib = BASIC.subset(("adv", "dis"))
    ev = PredictionErrorEvaluator(split_train_test(pts, 0.6), lib)
    m1 = sorption_params(0.3, 40.0)
    m2 = sorption_params(0.7, 140.0)
    first = ev.evaluate(m1)
    second = ev.evaluate(m2)
    assert first.eps > 0.0 and first.eps == second.eps == ev.evaluate(m1).eps
    for attr in ("alpha_norm", "alpha_phys"):
        np.testing.assert_array_equal(getattr(first, attr).values,
                                      getattr(second, attr).values)
    assert len(calls) == 1


def test_evaluator_rejects_non_finite_sorption_column(capfd):
    """A zero concentration makes C^(a-1) infinite: the evaluator must say
    which term failed, as evaluate_terms does, before LAPACK sees it."""
    split = zero_conc_split()
    lib = BASIC.subset(("adv", "dis", "fsorp"))
    m = sorption_params(0.6, 90.0)
    ev = PredictionErrorEvaluator(split, lib)
    with pytest.raises(TermEvaluationError) as err:
        ev.evaluate(m)
    with pytest.raises(TermEvaluationError) as direct:
        evaluate_terms(split.train, m, lib)
    assert str(err.value) == str(direct.value)
    assert "'fsorp'" in str(err.value)
    assert "DLASCL" not in capfd.readouterr().err


def test_freundlich_column_at_zero_concentration_follows_power():
    """The column is exp((a-1) ln C) C_t, and at C = 0 it is what
    np.power's C^(a-1) C_t is: infinite for a < 1, C_t at a = 1, where
    exp(0 * ln 0) would be NaN, and 0 above.  So at a = 1 the evaluator
    fits the split that it rejects at a < 1."""
    split = zero_conc_split()
    assert split.train.c[0] == 0.0
    fsorp = BASIC.terms[2]
    for a in (0.3, 0.6, 1.0, 1.2):
        m = sorption_params(a, 90.0)
        for points in (split.train, split.test):
            with np.errstate(divide="ignore", invalid="ignore"):
                want = np.power(points.c, a - 1.0) * points.c_t
            np.testing.assert_allclose(fsorp.fresh_column(points, m), want,
                                       rtol=1e-14)
        assert np.isfinite(fsorp.fresh_column(split.train, m)[0]) == (a >= 1)
    fit = PredictionErrorEvaluator(split, ADF).evaluate(
        sorption_params(1.0, 90.0))
    assert fit.eps < 1e-20


def test_evaluator_rejects_non_finite_static_column():
    split = split_train_test(
        manufactured_field({"adv": -0.01, "dis": 0.01}), 0.6)
    split.train.c_x[3] = np.nan
    with pytest.raises(TermEvaluationError, match="term 'adv'"):
        PredictionErrorEvaluator(split, BASIC)


def test_wrong_exponent_scores_worse_on_real_data(pipeline):
    """The held-out error must prefer the true Freundlich exponent."""
    data = pipeline.dataset("s2")
    lib = BASIC.subset(("adv", "dis", "fsorp"))
    ev = PredictionErrorEvaluator(data.split, lib)
    a_true = true_parameters("s2")["a"]
    good = ev.evaluate(sorption_params(a_true, 90.0)).eps
    bad = ev.evaluate(sorption_params(0.4, 90.0)).eps
    assert good < bad / 50.0


# ------------------------------------------- evaluator against the plain path

def assert_same_fit(fast, plain, rtol=1e-9):
    assert fast.eps == pytest.approx(plain.eps, rel=rtol, abs=1e-20)
    for attr in ("alpha_norm", "alpha_phys"):
        assert getattr(fast, attr).term_ids == getattr(plain, attr).term_ids
        np.testing.assert_allclose(getattr(fast, attr).values,
                                   getattr(plain, attr).values, rtol=rtol)


ORACLE_SPLIT = split_train_test(manufactured_field(
    {"adv": -0.01, "dis": 0.01, "fsorp": -0.15, "lsorp": -1.2}), 0.6)
# q = 0, 1 and 2 parameter-dependent terms, k = 0 static ones, and
# static terms after a sorption term in library order.
ORACLE_LIBRARIES = (("adv", "dis"), ("adv", "dis", "fsorp"),
                    ("dis", "lsorp"), ("adv", "dis", "fsorp", "lsorp"),
                    ("fsorp",), ("fsorp", "lsorp"), ("adv", "fsorp", "conc"),
                    ("dis", "lsorp", "conc", "d3"))
BOUNDS = ParamBounds.default()
M_MID = sorption_params(0.5, 90.0)
ADF = BASIC.subset(("adv", "dis", "fsorp"))


@settings(max_examples=80, deadline=None)
@given(ids=st.sampled_from(ORACLE_LIBRARIES),
       a=st.floats(BOUNDS.lower[0], BOUNDS.upper[0]),
       k_l=st.floats(BOUNDS.lower[1], BOUNDS.upper[1]))
def test_evaluator_matches_plain_path(ids, a, k_l):
    lib = EXTENDED.subset(ids)
    m = sorption_params(a, k_l)
    ev = PredictionErrorEvaluator(ORACLE_SPLIT, lib)
    assert_same_fit(ev.evaluate(m), plain_fit(ORACLE_SPLIT, lib, m))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(("s1", "s2")),
       ids=st.sampled_from((("adv", "dis", "fsorp"), ("adv", "dis", "lsorp"),
                            ("adv", "dis", "fsorp", "lsorp"))),
       a=st.floats(BOUNDS.lower[0], BOUNDS.upper[0]),
       k_l=st.floats(BOUNDS.lower[1], BOUNDS.upper[1]))
def test_evaluator_matches_plain_path_over_m(pipeline, name, ids, a, k_l):
    """Anywhere in the prior box, at q = 1 and at q = 2 (the full basic
    library), on the real splits."""
    split = pipeline.dataset(name).split
    lib = BASIC.subset(ids)
    m = sorption_params(a, k_l)
    assert_same_fit(PredictionErrorEvaluator(split, lib).evaluate(m),
                    plain_fit(split, lib, m))


def test_evaluator_matches_plain_path_on_real_data(pipeline):
    """s1's 83,102 training points and s2's, at q = 0, 1 and 2."""
    for name in ("s1", "s2"):
        split = pipeline.dataset(name).split
        for ids in (("adv", "dis"), ("adv", "dis", "fsorp"),
                    ("adv", "dis", "lsorp"), ("adv", "dis", "fsorp", "lsorp")):
            lib = BASIC.subset(ids)
            ev = PredictionErrorEvaluator(split, lib)
            for a, k_l in ((0.3, 40.0), (0.6, 90.0), (0.74, 149.0)):
                m = sorption_params(a, k_l)
                assert_same_fit(ev.evaluate(m), plain_fit(split, lib, m))


def test_evaluate_forms_no_qr(monkeypatch):
    """Only construction factors the static block; each evaluation extends
    that factor by projection alone, at q = 1 and at q = 2."""
    def no_qr(*args, **kwargs):
        raise AssertionError("evaluate called numpy.linalg.qr")

    for ids in (("adv", "dis", "fsorp"), ("adv", "dis", "fsorp", "lsorp")):
        lib = BASIC.subset(ids)
        ev = PredictionErrorEvaluator(ORACLE_SPLIT, lib)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "qr", no_qr)
            fit = ev.evaluate(M_MID)
        assert_same_fit(fit, plain_fit(ORACLE_SPLIT, lib, M_MID))


def near_adv_library(offset, grid=manufactured_grid()):
    """adv, dis and an a-dependent column ``offset`` stds away from adv, on
    points of a manufactured field on ``grid``."""
    def near_adv(d, m):
        x, t = point_coordinates(d, grid)
        wiggle = np.sin(40.0 * x + 3.0 * t)
        return d.c_x + offset * np.std(d.c_x) * m["a"] * wiggle

    near = TermSpec("near", "AUX", near_adv, ("a",))
    return LibrarySpec("near", BASIC.terms[:2] + (near,))


def test_evaluator_matches_plain_path_near_collinearity():
    """A parameter-dependent column within 1e-4 of a static one: its
    projection off the static factor must stay orthogonal to it."""
    lib = near_adv_library(1e-4)
    split = split_train_test(
        manufactured_field({"adv": -0.01, "dis": 0.01, "fsorp": -0.15}), 0.6)
    ev = PredictionErrorEvaluator(split, lib)
    assert_same_fit(ev.evaluate(M_MID), plain_fit(split, lib, M_MID))


def test_condition_limit_holds_on_tall_designs():
    """With 12,000 training points lstsq's default rank cut-off would
    reject conditions above about 3.8e11; the plain path and the evaluator
    both follow the documented 1e12 limit instead."""
    split = split_train_test(manufactured_field(
        {"adv": -0.01, "dis": 0.01}, n_x=100, n_t=200), 0.6)
    default_limit = 1.0 / (np.finfo(float).eps * split.train.n_points)
    grid = manufactured_grid(n_x=100, n_t=200)
    for offset in (6e-12, 1e-11):
        lib = near_adv_library(offset, grid)
        dm, _ = normalize_design(evaluate_terms(split.train, M_MID, lib))
        sv = np.linalg.svd(dm.phi, compute_uv=False)
        assert default_limit < sv[0] / sv[-1] < 1e12
        least_squares_fit(dm)
        PredictionErrorEvaluator(split, lib).evaluate(M_MID)
    for msg in raised_by_both(split, near_adv_library(1e-12, grid), M_MID,
                              CollinearityError):
        assert "'near'" in msg


def raised_by_both(split, lib, m, exc_type):
    """Run the plain path and the evaluator, each expected to raise."""
    with pytest.raises(exc_type) as plain:
        plain_fit(split, lib, m)
    with pytest.raises(exc_type) as fast:
        PredictionErrorEvaluator(split, lib).evaluate(m)
    assert type(fast.value) is type(plain.value) is exc_type
    return str(plain.value), str(fast.value)


def test_evaluator_error_parity_duplicate_static_columns():
    pts = manufactured_field({"adv": -0.01, "dis": 0.01, "fsorp": -0.15})
    split = split_train_test(replace(pts, c_xx=2.0 * pts.c_x), 0.6)
    for msg in raised_by_both(split, ADF, M_MID, CollinearityError):
        assert "'adv'" in msg and "'dis'" in msg


def test_evaluator_error_parity_sorption_collinear_with_static():
    """At a = 1 the Freundlich column is C_t itself; with C_t = -0.4 C_x
    it duplicates the advection column."""
    pts = manufactured_field({"adv": -0.01, "dis": 0.01})
    split = split_train_test(replace(pts, c_t=-0.4 * pts.c_x), 0.6)
    m = sorption_params(1.0, 90.0)
    for msg in raised_by_both(split, ADF, m, CollinearityError):
        assert "'adv'" in msg or "'fsorp'" in msg


def test_evaluator_error_parity_zero_remainder():
    """On two training points a parameter-dependent twin of the advection
    column projects to a remainder of zero or rounding size; at points 9
    and 10 of the manufactured field it is exactly zero.  That must end in
    CollinearityError, not in a division by the remainder's norm.  The
    twin returns the data's own array, which the evaluator must not
    modify."""
    twin = TermSpec("twin", "AUX", lambda d, m: d.c_x, ("a",))
    lib = LibrarySpec("twin", (BASIC.terms[0], twin))
    pts = manufactured_field({"adv": -0.01, "dis": 0.01})
    order = np.arange(pts.n_points)
    split = DataSplit(train=pts.select((order >= 9) & (order < 11)),
                      test=pts.select(order >= 11))
    c_x = split.train.c_x.copy()
    for msg in raised_by_both(split, lib, M_MID, CollinearityError):
        assert "'adv'" in msg and "'twin'" in msg
    np.testing.assert_array_equal(split.train.c_x, c_x)


def test_evaluator_error_parity_zero_variance_sorption_column():
    flat = TermSpec("flat", "AUX", lambda d, m: np.full(d.c.shape, m["a"]),
                    ("a",))
    lib = LibrarySpec("flat", BASIC.terms[:2] + (flat,))
    split = split_train_test(
        manufactured_field({"adv": -0.01, "dis": 0.01}), 0.6)
    plain, fast = raised_by_both(split, lib, M_MID, DegenerateColumnError)
    assert plain == fast == "zero-variance columns: ['flat']"


@settings(max_examples=30, deadline=None)
@given(a=st.floats(BOUNDS.lower[0], BOUNDS.upper[0]))
@example(a=0.3)
def test_evaluator_error_parity_rounding_level_variance(a):
    """A constant sorption column whose mean is inexact: numpy's std of
    it, and the evaluator's, come out at rounding level, not 0 (at
    a = 0.3 among others).  Both paths still call it zero-variance."""
    flat = TermSpec("flat", "F-SORP",
                    lambda d, m: np.full(d.c.shape, m["a"]), ("a",))
    lib = LibrarySpec("flat", BASIC.terms[:2] + (flat,))
    split = split_train_test(
        manufactured_field({"adv": -0.01, "dis": 0.01}), 0.6)
    plain, fast = raised_by_both(split, lib, sorption_params(a, 90.0),
                                 DegenerateColumnError)
    assert plain == fast == "zero-variance columns: ['flat']"


def test_evaluator_error_parity_too_few_points_and_empty_test():
    pts = manufactured_field({"adv": -0.01, "dis": 0.01, "fsorp": -0.15})
    lib = BASIC
    order = np.arange(pts.n_points)
    few = DataSplit(train=pts.select(order < 3), test=pts.select(order >= 3))
    assert raised_by_both(few, lib, M_MID, ValidationError) == (
        "fewer points than candidate terms",) * 2
    empty = DataSplit(train=pts, test=pts.select(order < 0))
    assert raised_by_both(empty, lib, M_MID, ValidationError) == (
        "empty test set",) * 2


# ------------------------------------------------------ shared static block

def test_candidate_evaluators_share_one_static_block():
    """The candidate models on one split share their static block, built
    once; other static terms get their own, and a block lives no longer
    than its split."""
    split = split_train_test(
        manufactured_field({"adv": -0.01, "dis": 0.01, "fsorp": -0.15}), 0.6)
    evaluators = [PredictionErrorEvaluator(split, BASIC.subset(ids))
                  for ids in (("adv", "dis"), ("adv", "dis", "fsorp"),
                              ("adv", "dis", "lsorp"))]
    blocks = {id(ev._block) for ev in evaluators}
    assert len(blocks) == 1
    other = PredictionErrorEvaluator(split, BASIC.subset(("adv", "fsorp")))
    assert id(other._block) not in blocks
    block = weakref.ref(evaluators[0]._block)
    del evaluators, other, split
    gc.collect()
    assert block() is None
