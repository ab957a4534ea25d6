"""Least-squares coefficient fits and held-out prediction error.

The regression subproblem is linear once the embedded parameters m are
fixed: z-score the candidate columns and the dC/dt target on the training
window, solve for the normalized coefficients, and score the fit by the
sum of squared normalized residuals on the test window (using training
statistics for the transform, so the error is comparable across m).

``normalize_design``, ``least_squares_fit`` and ``prediction_error`` do
this for one evaluated design matrix, and ``fit_design`` composes them on
a single point set; together they are the plain reference path.
``PredictionErrorEvaluator`` computes the same fit for many m on one
split by variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10:413,
1973): the parameter-independent block is z-scored and QR-factored once,
and each evaluation adds only the columns that depend on m.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CollinearityError, ValidationError
from .library import (CoefficientVector, DesignMatrix, LibrarySpec,
                      NormalizationStats, denormalize_coefficients,
                      evaluate_terms, normalize_design, term_columns,
                      zscore_columns)
from .params import ModelParams
from .preprocess import DataSplit, DerivativeField

__all__ = [
    "FitResult",
    "least_squares_fit",
    "prediction_error",
    "PredictionErrorEvaluator",
    "fit_design",
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

    Only the parameter-dependent columns D change with m, so the work on
    the k static columns S is done once, at construction: they are
    evaluated, checked, z-scored and QR-factored, S_n = Q_s R_s, and the
    normalized static test block, both normalized targets and Q_s' y are
    kept.  Each evaluation z-scores the q columns of D, projects them off
    Q_s (twice, so the remainder stays orthogonal to Q_s) and factors the
    remainder as Q_d R_d.  With Q = [Q_s Q_d] that gives

        [S_n D_n] = Q R,   R = [[R_s, Q_s' D_n], [0, R_d]],

    a (k+q)-square triangle with the singular values and right singular
    vectors of the normalized design.  ``least_squares_fit`` on R and Q'y
    therefore returns the same coefficients, and its condition limit and
    ``CollinearityError`` name the same terms, as on the full design.  (On
    the full design of N points, lstsq's default rank cut-off also treats
    a condition above 1/(machine eps * N) as rank deficient; on R only
    the 1e12 limit applies.)  The test window is scored from the cached
    static block plus the new columns.

    A library without parameter-dependent terms takes the same path once;
    every later call returns that fit with ``m`` replaced.
    """

    def __init__(self, split: DataSplit, library: LibrarySpec) -> None:
        if split.train.n_points < library.n_terms:
            raise ValidationError("fewer points than candidate terms")
        if split.test.n_points == 0:
            raise ValidationError("empty test set")
        self._split = split
        self._library = library
        static = [j for j, t in enumerate(library.terms)
                  if not t.parameter_deps]
        dep = [j for j, t in enumerate(library.terms) if t.parameter_deps]
        self._static = np.array(static, dtype=int)
        self._dep = np.array(dep, dtype=int)
        self._dep_terms = tuple(library.terms[j] for j in dep)
        self._dep_ids = tuple(t.id for t in self._dep_terms)
        # Columns of [S D] back to library order.
        self._order = np.argsort(static + dep)
        static_terms = tuple(library.terms[j] for j in static)
        train_dm, self._static_stats = normalize_design(DesignMatrix(
            term_columns(static_terms, split.train, None), split.train.c_t,
            tuple(t.id for t in static_terms)))
        self._y_train = train_dm.y
        self._q_s, self._r_s = np.linalg.qr(train_dm.phi)
        self._qty_s = self._q_s.T @ self._y_train
        st = self._static_stats
        self._static_test = ((term_columns(static_terms, split.test, None)
                              - st.col_mean) / st.col_std)
        self._y_test = (split.test.c_t - st.y_mean) / st.y_std
        self._fixed_fit: FitResult | None = None

    @property
    def library(self) -> LibrarySpec:
        return self._library

    @property
    def split(self) -> DataSplit:
        return self._split

    @property
    def parameter_deps(self) -> tuple:
        """The embedded parameters eps(m) depends on."""
        return self._library.parameter_deps

    def evaluate(self, m: ModelParams) -> FitResult:
        if self._fixed_fit is not None:
            return replace(self._fixed_fit, m=m)
        d_n, d_mean, d_std = zscore_columns(
            term_columns(self._dep_terms, self._split.train, m),
            self._dep_ids)
        q_s = self._q_s
        coupling = q_s.T @ d_n
        rest = d_n - q_s @ coupling
        again = q_s.T @ rest
        rest -= q_s @ again
        coupling += again
        q_d, r_d = np.linalg.qr(rest)
        r = np.block([[self._r_s, coupling],
                      [np.zeros((r_d.shape[0], self._r_s.shape[1])), r_d]])
        rhs = np.concatenate([self._qty_s, q_d.T @ self._y_train])
        alpha_norm = least_squares_fit(DesignMatrix(
            r[:, self._order], rhs, self._library.term_ids))

        st = self._static_stats
        stats = NormalizationStats(
            col_mean=np.concatenate([st.col_mean, d_mean])[self._order],
            col_std=np.concatenate([st.col_std, d_std])[self._order],
            y_mean=st.y_mean, y_std=st.y_std)
        alpha_phys, intercept = denormalize_coefficients(alpha_norm, stats)

        a = alpha_norm.values
        d_test = (term_columns(self._dep_terms, self._split.test, m)
                  - d_mean) / d_std
        resid = self._y_test - self._static_test @ a[self._static]
        resid -= d_test @ a[self._dep]
        fit = FitResult(m=m, alpha_norm=alpha_norm, alpha_phys=alpha_phys,
                        intercept=intercept, stats=stats,
                        eps=float(np.dot(resid, resid)))
        if not self._dep_terms:
            self._fixed_fit = fit
        return fit

    def eps(self, m: ModelParams) -> float:
        return self.evaluate(m).eps


def fit_design(deriv: DerivativeField, m: ModelParams,
               library: LibrarySpec) -> FitResult:
    """One-shot fit on a single point set (no held-out error).

    The plain path on one point set; eps is the training residual here.
    """
    dm = evaluate_terms(deriv, m, library)
    dm_norm, stats = normalize_design(dm)
    alpha_norm = least_squares_fit(dm_norm)
    alpha_phys, intercept = denormalize_coefficients(alpha_norm, stats)
    r = dm_norm.y - dm_norm.phi @ alpha_norm.values
    return FitResult(m=m, alpha_norm=alpha_norm, alpha_phys=alpha_phys,
                     intercept=intercept, stats=stats, eps=float(np.dot(r, r)))
