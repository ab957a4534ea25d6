"""Least-squares coefficient fits and held-out prediction error.

The regression subproblem is linear once the embedded parameters m are
fixed: z-score the candidate columns and the dC/dt target on the training
window, solve for the normalized coefficients, and score the fit by the
sum of squared normalized residuals on the test window (using training
statistics for the transform, so the error is comparable across m).

``PredictionErrorEvaluator`` is the one fit path: it computes that fit for
many m on one split by variable projection (Golub & Pereyra, SIAM J.
Numer. Anal. 10:413, 1973).  The parameter-independent block is z-scored
and QR-factored once per split and set of static terms, and shared by
every evaluator on them; each evaluation extends that factor in closed
form by the columns that depend on m, centring and scaling each within
one projection, with no QR and no z-scored copy of the design.
``prediction_error`` scores a fit on a held-out design matrix; the tests'
plain reference path composes it with the other steps.
"""

from __future__ import annotations

import weakref
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


@dataclass(frozen=True, eq=False)
class _StaticBlock:
    """What an evaluator needs of its static columns S on one split.

    ``basis`` is B = [1/sqrt(n), Q_s], with S_n = Q_s R_s the z-scored
    training columns; Q_s is kept only there, as its last k columns.  ``qty``
    is Q_s' y and ``y_resid`` the static fit's residual y - Q_s Q_s' y, on
    the normalized training target y.  ``test`` and ``y_test`` are the
    static test columns and the test target, normalized with the training
    statistics ``stats``.
    """

    basis: np.ndarray
    r_s: np.ndarray
    qty: np.ndarray
    y_resid: np.ndarray
    test: np.ndarray
    y_test: np.ndarray
    stats: NormalizationStats


def _build_static_block(split: DataSplit, terms: tuple) -> _StaticBlock:
    train_dm, stats = normalize_design(DesignMatrix(
        term_columns(terms, split.train, None), split.train.c_t,
        tuple(t.id for t in terms)))
    n, k = train_dm.phi.shape
    basis = np.empty((n, k + 1))
    basis[:, 0] = 1.0 / np.sqrt(n)
    basis[:, 1:], r_s = np.linalg.qr(train_dm.phi)
    y = train_dm.y
    qty = basis[:, 1:].T @ y
    y_resid = y - basis[:, 1:] @ qty
    test = ((term_columns(terms, split.test, None) - stats.col_mean)
            / stats.col_std)
    y_test = (split.test.c_t - stats.y_mean) / stats.y_std
    return _StaticBlock(basis, r_s, qty, y_resid, test, y_test, stats)


# Static blocks by split, then by static terms.  Weak keys: a block lives
# as long as its split and never keeps one alive.
_STATIC_BLOCKS: "weakref.WeakKeyDictionary[DataSplit, dict]" = (
    weakref.WeakKeyDictionary())


def _static_block(split: DataSplit, terms: tuple) -> _StaticBlock:
    """The block of ``terms`` on ``split``, built on first use."""
    blocks = _STATIC_BLOCKS.setdefault(split, {})
    if terms not in blocks:
        blocks[terms] = _build_static_block(split, terms)
    return blocks[terms]


class PredictionErrorEvaluator:
    """Maps m to a full fit (coefficients plus test error) on one split.

    Only the parameter-dependent columns D change with m, so the work on
    the k static columns S is done once per split and static-term set,
    and shared by every evaluator on them (the candidate models, and a
    pruning round that keeps their static terms): S is evaluated, checked,
    z-scored and QR-factored, S_n = Q_s R_s, and the normalized static
    test block, both normalized targets and Q_s' y are kept.

    Each evaluation extends the factor one column of D at a time, as
    Gram-Schmidt does.  The raw column d is projected off
    B = [1/sqrt(n), Q_s] and off the directions of the earlier columns of
    D, twice, so the remainder stays orthogonal to working precision while
    the condition number times the unit roundoff is far below one (Giraud,
    Langou, Rozloznik & van den Eshof, Numer. Math. 101:87, 2005); the
    1e12 condition limit keeps that product at most 1e-4.  Projecting off
    1/sqrt(n) centres d: its mean is that coefficient over sqrt(n), and
    since the pieces are orthogonal its standard deviation is
    sqrt((|remainder|^2 + |coefficients on Q_s and Q_d|^2) / n), a sum with
    no cancellation.  Dividing by that std z-scores d without forming
    d_n: the coefficients over the std are d_n's column of R above the
    diagonal, the remainder's norm over the std the new diagonal entry,
    and the remainder over its norm the new column of Q.

    Its entry of Q'y is taken against the static fit's residual
    y - Q_s Q_s' y, not against y: the remainder is orthogonal to Q_s only
    to working precision, so against y it would pick up that error times
    |Q_s' y|, which on real data is most of y.  A dependent term that
    explains little then loses digits: on s1 at (a, K_l) = (0.3, 40),
    fsorp's normalized coefficient of -5.9e-6 was off by 1.1e-9 relative,
    and against the residual by 2e-11 (measured in 0.16.0).  With
    Q = [Q_s Q_d] that gives

        [S_n D_n] = Q R,   R = [[R_s, Q_s' D_n], [0, R_d]],

    a (k+q)-square triangle with the singular values and right singular
    vectors of the normalized design.  ``least_squares_fit`` on R and Q'y
    therefore returns the same coefficients, and its condition limit and
    ``CollinearityError`` name the same terms, as on the full design.  The
    test window is scored from the cached static block plus the raw test
    columns of D, with each column's scale and shift folded into scalars.

    Checks are those of the plain path, with its exceptions and messages:
    a non-finite column shows as a non-finite first coefficient, or test
    residual, and ``TermSpec.column`` then names its first bad point; a
    constant column raises ``DegenerateColumnError`` (its computed std is
    rounding noise, so one at most 1e-12 of the mean is tested for exact
    constancy); a zero remainder leaves R singular, which
    ``least_squares_fit`` reports as collinear.
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
        # Columns of [S D] back to library order.
        self._order = np.argsort(static + dep)
        self._block = _static_block(
            split, tuple(library.terms[j] for j in static))

    @property
    def library(self) -> LibrarySpec:
        return self._library

    def evaluate(self, m: ModelParams) -> FitResult:
        """The fit at m: normalized and physical coefficients and ``eps``.

        The per-m work on n points is evaluating each column of D on both
        windows, projecting it twice and scoring it.
        """
        block = self._block
        train = self._split.train
        n = train.n_points
        basis = block.basis
        k, q = basis.shape[1] - 1, len(self._dep_terms)
        r = np.zeros((k + q, k + q))
        r[:k, :k] = block.r_s
        rhs = np.zeros(k + q)
        rhs[:k] = block.qty
        d_mean = np.empty(q)
        d_std = np.empty(q)
        dead = []
        q_d = []  # the directions of D's columns in Q
        work = np.empty(n)
        for j, term in enumerate(self._dep_terms):
            # In place, d becomes the remainder; coef sums its coefficients
            # on B and on the earlier directions over both passes.
            d = term.fresh_column(train, m)
            coef = np.zeros(k + 1 + j)
            for sweep in range(2):
                c = basis.T @ d
                if sweep == 0 and not np.isfinite(c[0]):
                    # c[0] sums the column, so it is non-finite when any
                    # entry is; TermSpec.column names the first.
                    term.column(train, m)
                d -= np.matmul(basis, c, out=work)
                coef[:k + 1] += c
                for i, e in enumerate(q_d):
                    c = np.dot(e, d)
                    d -= c * e
                    coef[k + 1 + i] += c
            rem2 = np.dot(d, d)
            d_mean[j] = coef[0] / np.sqrt(n)
            d_std[j] = np.sqrt((rem2 + np.dot(coef[1:], coef[1:])) / n)
            if d_std[j] <= 1e-12 * abs(d_mean[j]):
                raw = term.fresh_column(train, m)
                if np.all(raw == raw[0]):
                    dead.append(term.id)
                    continue
            r[:k + j, k + j] = coef[1:] / d_std[j]
            norm = np.sqrt(rem2)
            r[k + j, k + j] = norm / d_std[j]
            # A zero remainder leaves R singular, which least_squares_fit
            # reports as collinear; dividing by it would only warn.
            if norm > 0.0:
                rhs[k + j] = np.dot(d, block.y_resid) / norm
                if j + 1 < q:  # a later column projects off this direction
                    d /= norm
            q_d.append(d)
        if dead:
            raise DegenerateColumnError(f"zero-variance columns: {dead}")
        alpha_norm = least_squares_fit(DesignMatrix(
            r[:, self._order], rhs, self._library.term_ids))

        st = block.stats
        alpha_phys = denormalize_coefficients(
            alpha_norm, np.concatenate([st.col_std, d_std])[self._order],
            st.y_std)

        a = alpha_norm.values
        scale = a[self._dep] / d_std
        resid = block.test @ -a[self._static]
        resid += block.y_test
        resid += np.dot(scale, d_mean)
        test = self._split.test
        for term, s in zip(self._dep_terms, scale):
            col = term.fresh_column(test, m)
            col *= s
            resid -= col
        eps = float(np.dot(resid, resid))
        if not np.isfinite(eps):
            for term in self._dep_terms:
                term.column(test, m)
        return FitResult(alpha_norm=alpha_norm, alpha_phys=alpha_phys,
                         eps=eps)
