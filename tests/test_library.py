"""Candidate term catalogue, design-matrix evaluation and normalization."""

import numpy as np
import pytest

from conftest import manufactured_field, sorption_params
from reference_regression import evaluate_terms
from transportid.errors import (DegenerateColumnError, TermEvaluationError,
                                ValidationError)
from transportid.library import (CoefficientVector, DesignMatrix, LibrarySpec,
                                 denormalize_coefficients, normalize_design,
                                 term_by_id)
from transportid.preprocess import DerivativeField


def points_from(c, c_t, c_x=None, c_xx=None, c_xxx=None):
    c = np.asarray(c, dtype=float)
    zero = np.zeros_like(c)
    pick = lambda v: zero if v is None else np.asarray(v, dtype=float)
    idx = np.arange(c.size)
    return DerivativeField(x_index=idx, t_index=np.zeros_like(idx),
                           c=c, c_t=np.asarray(c_t, dtype=float),
                           c_x=pick(c_x), c_xx=pick(c_xx), c_xxx=pick(c_xxx),
                           c2_x=2.0 * c * pick(c_x), c2_xx=zero, c2_xxx=zero)


M = sorption_params(0.7, 100.0)


def test_basic_library_layout():
    lib = LibrarySpec.from_name("basic")
    assert lib.term_ids == ("adv", "dis", "fsorp", "lsorp")
    assert [t.process for t in lib.terms] == ["ADV", "DIS", "F-SORP", "L-SORP"]
    assert [t.is_sorption for t in lib.terms] == [False, False, True, True]
    assert lib.terms[2].parameter_deps == ("a",)
    assert lib.terms[3].parameter_deps == ("K_l",)


def test_extended_library_layout():
    lib = LibrarySpec.from_name("extended")
    assert lib.term_ids == ("adv", "dis", "fsorp", "lsorp", "conc",
                            "conc_sq", "d3", "sq_dx", "sq_dxx", "sq_dxxx")
    assert all(t.process == "AUX" for t in lib.terms[4:])
    assert not any(t.is_sorption for t in lib.terms[4:])


def test_library_lookup_and_subset():
    assert LibrarySpec.from_name("basic").name == "basic"
    assert LibrarySpec.from_name("extended").name == "extended"
    with pytest.raises(ValidationError):
        LibrarySpec.from_name("huge")
    sub = LibrarySpec.from_name("extended").subset(("dis", "adv", "conc"))
    # Subsets keep the catalogue order, not the request order.
    assert sub.term_ids == ("adv", "dis", "conc")
    with pytest.raises(ValidationError):
        LibrarySpec.from_name("basic").subset(("adv", "bogus"))
    assert term_by_id("lsorp").process == "L-SORP"
    with pytest.raises(ValidationError):
        term_by_id("bogus")


def test_term_columns_match_hand_values():
    pts = points_from(c=[0.01, 0.02], c_t=[2.0, 1.0], c_x=[3.0, 0.5],
                      c_xx=[4.0, -1.0], c_xxx=[5.0, 0.25])
    dm = evaluate_terms(pts, M, LibrarySpec.from_name("basic"))
    assert dm.term_ids == ("adv", "dis", "fsorp", "lsorp")
    np.testing.assert_allclose(dm.phi[:, 0], [3.0, 0.5], rtol=1e-15)
    np.testing.assert_allclose(dm.phi[:, 1], [4.0, -1.0], rtol=1e-15)
    # Freundlich column C**(a-1) * dC/dt at a=0.7: 0.01**-0.3 = 10**0.6.
    np.testing.assert_allclose(dm.phi[0, 2], 2.0 * 10.0 ** 0.6, rtol=1e-12)
    # Langmuir column dC/dt / (1 + K_l C)**2 at K_l=100, C=0.01: /4.
    np.testing.assert_allclose(dm.phi[0, 3], 0.5, rtol=1e-14)
    np.testing.assert_allclose(dm.y, [2.0, 1.0], rtol=1e-15)


def test_extended_columns_pull_from_the_right_fields():
    rng = np.random.default_rng(2)
    n = 15
    pts = DerivativeField(
        x_index=np.arange(n), t_index=np.zeros(n, dtype=int),
        c=rng.uniform(0.01, 1.0, n), c_t=rng.normal(size=n),
        c_x=rng.normal(size=n), c_xx=rng.normal(size=n),
        c_xxx=rng.normal(size=n), c2_x=rng.normal(size=n),
        c2_xx=rng.normal(size=n), c2_xxx=rng.normal(size=n))
    dm = evaluate_terms(pts, M, LibrarySpec.from_name("extended"))
    by = dict(zip(dm.term_ids, dm.phi.T))
    np.testing.assert_array_equal(by["conc"], pts.c)
    np.testing.assert_allclose(by["conc_sq"], pts.c ** 2, rtol=1e-14)
    np.testing.assert_array_equal(by["d3"], pts.c_xxx)
    np.testing.assert_array_equal(by["sq_dx"], pts.c2_x)
    np.testing.assert_array_equal(by["sq_dxx"], pts.c2_xx)
    np.testing.assert_array_equal(by["sq_dxxx"], pts.c2_xxx)


def test_only_matching_sorption_column_reacts_to_parameters():
    pts = manufactured_field({"adv": -0.01, "dis": 0.01, "fsorp": -0.15,
                              "lsorp": -1.2})
    lib = LibrarySpec.from_name("basic")
    base = evaluate_terms(pts, sorption_params(0.6, 90.0), lib)
    bump_a = evaluate_terms(pts, sorption_params(0.65, 90.0), lib)
    bump_k = evaluate_terms(pts, sorption_params(0.6, 95.0), lib)
    for j, tid in enumerate(lib.term_ids):
        same_a = np.array_equal(base.phi[:, j], bump_a.phi[:, j])
        same_k = np.array_equal(base.phi[:, j], bump_k.phi[:, j])
        assert same_a == (tid != "fsorp")
        assert same_k == (tid != "lsorp")


def test_nonfinite_column_is_reported():
    pts = points_from(c=[0.01, 0.0], c_t=[1.0, 1.0], c_x=[1.0, 1.0])
    with np.errstate(divide="ignore"):
        with pytest.raises(TermEvaluationError, match="fsorp"):
            evaluate_terms(pts, M, LibrarySpec.from_name("basic"))


def test_normalization_is_a_population_z_score():
    phi = np.array([[1.0, 5.0], [2.0, 5.5], [3.0, 9.0]])
    y = np.array([2.0, 4.0, 9.0])
    dm = DesignMatrix(phi, y, ("adv", "dis"))
    norm, stats = normalize_design(dm)
    root = np.sqrt(1.5)
    np.testing.assert_allclose(norm.phi[:, 0], [-root, 0.0, root], rtol=1e-14)
    for j in range(2):
        assert norm.phi[:, j].mean() == pytest.approx(0.0, abs=1e-14)
        assert norm.phi[:, j].std() == pytest.approx(1.0, rel=1e-14)
    assert norm.y.mean() == pytest.approx(0.0, abs=1e-14)
    assert norm.y.std() == pytest.approx(1.0, rel=1e-14)
    np.testing.assert_allclose(stats.col_mean, [2.0, 6.5], rtol=1e-14)
    assert stats.y_mean == pytest.approx(5.0)


def test_degenerate_columns_are_named():
    phi = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
    dm = DesignMatrix(phi, np.array([1.0, 2.0, 4.0]), ("adv", "conc"))
    with pytest.raises(DegenerateColumnError, match="conc"):
        normalize_design(dm)
    flat_y = DesignMatrix(phi[:, :1], np.full(3, 2.0), ("adv",))
    with pytest.raises(DegenerateColumnError, match="dC/dt"):
        normalize_design(flat_y)


def test_denormalization_inverts_the_scaling():
    rng = np.random.default_rng(9)
    phi = rng.normal(size=(200, 3)) * np.array([1.0, 10.0, 0.1])
    truth = np.array([-0.4, 0.03, 2.5])
    intercept_true = 0.7
    y = phi @ truth + intercept_true
    dm = DesignMatrix(phi, y, ("adv", "dis", "d3"))
    _, stats = normalize_design(dm)
    alpha_norm = CoefficientVector(truth * stats.col_std / stats.y_std,
                                   "normalized", dm.term_ids)
    phys = denormalize_coefficients(alpha_norm, stats.col_std, stats.y_std)
    assert phys.scale == "physical"
    np.testing.assert_allclose(phys.values, truth, rtol=1e-12)
    with pytest.raises(ValidationError):
        denormalize_coefficients(phys, stats.col_std, stats.y_std)


def test_coefficient_vector_contracts():
    with pytest.raises(ValidationError):
        CoefficientVector(np.array([1.0]), "weird", ("adv",))
    with pytest.raises(ValidationError):
        CoefficientVector(np.array([1.0, 2.0]), "physical", ("adv",))
    with pytest.raises(ValidationError):
        CoefficientVector(np.array([np.nan]), "physical", ("adv",))
