"""Least-squares coefficient fits and held-out prediction error.

The regression subproblem is linear once the embedded parameters m are
fixed: z-score the candidate columns and the dC/dt target on the training
window, solve for the normalized coefficients, and score the fit by the
sum of squared normalized residuals on the test window (using training
statistics for the transform, so the error is comparable across m).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CollinearityError, ValidationError
from .library import (CoefficientVector, DesignMatrix, LibrarySpec,
                      NormalizationStats, denormalize_coefficients,
                      evaluate_terms, normalize_design)
from .params import ModelParams
from .preprocess import DataSplit, DerivativeField

__all__ = [
    "FitResult",
    "least_squares_fit",
    "prediction_error",
    "PredictionErrorEvaluator",
]

_COND_LIMIT = 1e12


@dataclass
class FitResult:
    """Coefficients and prediction error for one parameter vector."""

    m: ModelParams
    alpha_norm: CoefficientVector
    alpha_phys: CoefficientVector
    intercept: float
    stats: NormalizationStats
    eps: float


def least_squares_fit(dm_norm: DesignMatrix) -> CoefficientVector:
    """Solve min ||y - Phi alpha|| on a normalized design matrix."""
    if dm_norm.n_points < dm_norm.n_terms:
        raise ValidationError("fewer points than candidate terms")
    coef, _, rank, sv = np.linalg.lstsq(dm_norm.phi, dm_norm.y, rcond=None)
    if rank < dm_norm.n_terms or sv[0] > _COND_LIMIT * sv[-1]:
        # Identify the terms dominating the near-null direction.
        _, _, vt = np.linalg.svd(dm_norm.phi, full_matrices=False)
        null = np.abs(vt[-1])
        names = [dm_norm.term_ids[int(j)]
                 for j in np.argsort(null)[::-1][:3]]
        raise CollinearityError(
            f"ill-conditioned candidate matrix (terms {names}, "
            f"condition {sv[0] / max(sv[-1], 1e-300):.3e})")
    return CoefficientVector(coef, "normalized", dm_norm.term_ids)


def prediction_error(test_dm: DesignMatrix, alpha_norm: CoefficientVector,
                     stats: NormalizationStats) -> float:
    """Sum of squared normalized residuals of a fit on held-out points.

    ``test_dm`` holds raw (unnormalized) columns; they are transformed
    with the training statistics before the residual is formed.
    """
    if test_dm.n_points == 0:
        raise ValidationError("empty test set")
    if test_dm.term_ids != alpha_norm.term_ids:
        raise ValidationError("test matrix does not match coefficients")
    phi_n = (test_dm.phi - stats.col_mean) / stats.col_std
    y_n = (test_dm.y - stats.y_mean) / stats.y_std
    r = y_n - phi_n @ alpha_norm.values
    return float(np.dot(r, r))


class PredictionErrorEvaluator:
    """Maps m to a full fit (coefficients plus test error) on one split.

    Columns of parameter-independent terms are evaluated and checked once;
    only the sorption columns are recomputed when m changes, which is what
    makes the finite-difference gradient of eps(m) affordable.  A library
    without parameter-dependent terms is fitted once, and every later call
    returns that fit with ``m`` replaced.
    """

    def __init__(self, split: DataSplit, library: LibrarySpec) -> None:
        self._split = split
        self._library = library
        self._static_train = self._static_columns(split.train)
        self._static_test = self._static_columns(split.test)
        self._fixed_fit: FitResult | None = None

    @property
    def library(self) -> LibrarySpec:
        return self._library

    @property
    def split(self) -> DataSplit:
        return self._split

    def _static_columns(self, deriv: DerivativeField) -> dict:
        return {t.id: t.column(deriv, None)
                for t in self._library.terms if not t.parameter_deps}

    def _design(self, deriv: DerivativeField, cache: dict,
                m: ModelParams) -> DesignMatrix:
        cols = [cache[t.id] if t.id in cache else t.column(deriv, m)
                for t in self._library.terms]
        return DesignMatrix(np.column_stack(cols), deriv.c_t,
                            self._library.term_ids)

    def evaluate(self, m: ModelParams) -> FitResult:
        if self._fixed_fit is not None:
            return replace(self._fixed_fit, m=m)
        train_dm = self._design(self._split.train, self._static_train, m)
        dm_norm, stats = normalize_design(train_dm)
        alpha_norm = least_squares_fit(dm_norm)
        alpha_phys, intercept = denormalize_coefficients(alpha_norm, stats)
        test_dm = self._design(self._split.test, self._static_test, m)
        eps = prediction_error(test_dm, alpha_norm, stats)
        fit = FitResult(m=m, alpha_norm=alpha_norm, alpha_phys=alpha_phys,
                        intercept=intercept, stats=stats, eps=eps)
        if not self._library.parameter_deps:
            self._fixed_fit = fit
        return fit

    def eps(self, m: ModelParams) -> float:
        return self.evaluate(m).eps


def fit_design(deriv: DerivativeField, m: ModelParams,
               library: LibrarySpec) -> FitResult:
    """One-shot fit on a single point set (no held-out error).

    Convenience for diagnostics; eps is the training residual here.
    """
    dm = evaluate_terms(deriv, m, library)
    dm_norm, stats = normalize_design(dm)
    alpha_norm = least_squares_fit(dm_norm)
    alpha_phys, intercept = denormalize_coefficients(alpha_norm, stats)
    r = dm_norm.y - dm_norm.phi @ alpha_norm.values
    return FitResult(m=m, alpha_norm=alpha_norm, alpha_phys=alpha_phys,
                     intercept=intercept, stats=stats, eps=float(np.dot(r, r)))
