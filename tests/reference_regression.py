"""Plain reference path of the regression, kept as the oracle for
``PredictionErrorEvaluator``.

The evaluator z-scores and QR-factors the parameter-independent columns
once and, per m, extends that factor in closed form by projecting each
parameter-dependent column off it, with no QR and no z-scored copy.  This
path evaluates every column on each point set and composes the package's
steps directly: ``normalize_design`` → ``least_squares_fit`` →
``denormalize_coefficients`` → ``prediction_error``.
"""

from dataclasses import dataclass

import numpy as np

from transportid.library import (CoefficientVector, DesignMatrix,
                                 denormalize_coefficients, normalize_design,
                                 term_columns)
from transportid.regression import least_squares_fit, prediction_error


def evaluate_terms(deriv, m, spec):
    """Evaluate Phi(U, m) and the dC/dt target on the given points."""
    return DesignMatrix(term_columns(spec.terms, deriv, m), deriv.c_t.copy(),
                        spec.term_ids)


@dataclass
class PlainFit:
    """A ``FitResult``'s members, and the intercept: the constant that
    mean-centring leaves over, negligible for a PDE with no source term."""

    alpha_norm: CoefficientVector
    alpha_phys: CoefficientVector
    intercept: float
    eps: float


def plain_fit(split, lib, m):
    """The reference composition the evaluator must reproduce."""
    dm_norm, stats = normalize_design(evaluate_terms(split.train, m, lib))
    alpha_norm = least_squares_fit(dm_norm)
    alpha_phys = denormalize_coefficients(alpha_norm, stats.col_std,
                                          stats.y_std)
    intercept = stats.y_mean - float(np.dot(alpha_phys.values, stats.col_mean))
    eps = prediction_error(evaluate_terms(split.test, m, lib), alpha_norm,
                           stats)
    return PlainFit(alpha_norm=alpha_norm, alpha_phys=alpha_phys,
                    intercept=intercept, eps=eps)
