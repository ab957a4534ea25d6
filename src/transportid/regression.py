"""Least-squares coefficient fits and held-out prediction error.

The regression subproblem is linear once the embedded parameters m are
fixed: z-score the candidate columns and the dC/dt target on the training
window, solve for the normalized coefficients, and score the fit by the
sum of squared normalized residuals on the test window (using training
statistics for the transform, so the error is comparable across m).

``PredictionErrorEvaluator`` is the one fit path: it computes that fit for
many m on one split by variable projection (Golub & Pereyra, SIAM J.
Numer. Anal. 10:413, 1973).  The parameter-independent block is z-scored
and QR-factored once; each evaluation extends that factor in closed form
by the columns that depend on m, with no QR and no z-scored copy of the
design.  ``prediction_error`` scores a fit on a held-out design matrix;
the tests' plain reference path composes it with the other steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (CollinearityError, DegenerateColumnError,
                     ValidationError)
from .library import (CoefficientVector, DesignMatrix, LibrarySpec,
                      NormalizationStats, denormalize_coefficients,
                      normalize_design, term_columns)
from .params import ModelParams
from .preprocess import DataSplit

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

    alpha_norm: CoefficientVector
    alpha_phys: CoefficientVector
    eps: float


def least_squares_fit(dm_norm: DesignMatrix) -> CoefficientVector:
    """Solve min ||y - Phi alpha|| on a normalized design matrix."""
    if dm_norm.n_points < dm_norm.n_terms:
        raise ValidationError("fewer points than candidate terms")
    coef, _, rank, sv = np.linalg.lstsq(dm_norm.phi, dm_norm.y,
                                        rcond=1.0 / _COND_LIMIT)
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
    kept.  Each evaluation extends the factor one column of D at a time,
    as Gram-Schmidt does: the column d is centred and scaled to d_n, and
    projected off Q_s and off the directions of the earlier columns of D,
    twice, so the remainder stays orthogonal to working precision while
    the condition number times the unit roundoff is far below one (Giraud,
    Langou, Rozloznik & van den Eshof, Numer. Math. 101:87, 2005); the
    1e12 condition limit keeps that product at most 1e-4.  The
    remainder's norm is the new diagonal entry of R, and the remainder
    over its norm the new column of Q.  Its entry of Q'y is taken against
    the static fit's residual y - Q_s Q_s' y, kept from construction, not
    against y: the remainder is orthogonal to Q_s only to working
    precision, so against y it would pick up that error times |Q_s' y|,
    which on real data is most of y.  A dependent term that explains little
    then loses digits: on s1 at (a, K_l) = (0.3, 40), fsorp's normalized
    coefficient of -5.9e-6 was off by 1.1e-9 relative, and against the
    residual it is off by 2e-11.  With Q = [Q_s Q_d] that gives

        [S_n D_n] = Q R,   R = [[R_s, Q_s' D_n], [0, R_d]],

    a (k+q)-square triangle with the singular values and right singular
    vectors of the normalized design.  ``least_squares_fit`` on R and Q'y
    therefore returns the same coefficients, and its condition limit and
    ``CollinearityError`` name the same terms, as on the full design.  The
    test window is scored from the cached static block plus the raw test
    columns of D, with each column's scale and shift folded into scalars.
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
        self._y_resid = self._y_train - self._q_s @ self._qty_s
        st = self._static_stats
        self._static_test = ((term_columns(static_terms, split.test, None)
                              - st.col_mean) / st.col_std)
        self._y_test = (split.test.c_t - st.y_mean) / st.y_std

    @property
    def library(self) -> LibrarySpec:
        return self._library

    def evaluate(self, m: ModelParams) -> FitResult:
        """The fit at m: normalized and physical coefficients and ``eps``.

        The per-m work on n points is evaluating, checking and scoring
        the columns of D and projecting each of them twice.
        """
        train = self._split.train
        n = train.n_points
        q_s = self._q_s
        k, q = q_s.shape[1], len(self._dep_terms)
        r = np.zeros((k + q, k + q))
        r[:k, :k] = self._r_s
        rhs = np.empty(k + q)
        rhs[:k] = self._qty_s
        d_mean = np.empty(q)
        d_std = np.empty(q)
        # Centre each column into a fresh array (a term may return the
        # data itself), and check every scale before projecting any.
        q_d = []
        for j, term in enumerate(self._dep_terms):
            col = term.column(train, m)
            d_mean[j] = col.mean()
            d = col - d_mean[j]
            d_std[j] = np.sqrt(np.dot(d, d) / n)
            q_d.append(d)
        dead = np.flatnonzero(d_std <= 0.0)
        if dead.size:
            names = [self._dep_ids[int(j)] for j in dead]
            raise DegenerateColumnError(f"zero-variance columns: {names}")
        # Turn each column, in place, into its direction in Q: project it
        # off Q_s and off the earlier directions twice, since the second
        # pass removes what rounding left of the first.
        for j, d in enumerate(q_d):
            d /= d_std[j]
            coupling = r[:k + j, k + j]  # a view: R above the new diagonal
            for _ in range(2):
                c = q_s.T @ d
                d -= q_s @ c
                coupling[:k] += c
                for i, e in enumerate(q_d[:j]):
                    c = np.dot(e, d)
                    d -= c * e
                    coupling[k + i] += c
            norm = np.sqrt(np.dot(d, d))
            r[k + j, k + j] = norm
            # A zero remainder leaves R singular, which least_squares_fit
            # reports as collinear; dividing by it would only warn.
            if norm > 0.0:
                d /= norm
            rhs[k + j] = np.dot(d, self._y_resid)
        alpha_norm = least_squares_fit(DesignMatrix(
            r[:, self._order], rhs, self._library.term_ids))

        st = self._static_stats
        alpha_phys = denormalize_coefficients(
            alpha_norm, np.concatenate([st.col_std, d_std])[self._order], st.y_std)

        a = alpha_norm.values
        scale = a[self._dep] / d_std
        resid = self._y_test - self._static_test @ a[self._static]
        resid += np.dot(scale, d_mean)
        for term, s in zip(self._dep_terms, scale):
            resid -= s * term.column(self._split.test, m)
        return FitResult(alpha_norm=alpha_norm, alpha_phys=alpha_phys,
                         eps=float(np.dot(resid, resid)))
