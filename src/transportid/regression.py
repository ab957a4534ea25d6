"""Least-squares coefficient fits and held-out prediction error.

The regression subproblem is linear once the embedded parameters m are
fixed: z-score the candidate columns and the dC/dt target on the training
window, solve for the normalized coefficients, and score the fit by the
sum of squared normalized residuals on the test window (using training
statistics for the transform, so the error is comparable across m).

``PredictionErrorEvaluator`` is the one fit path: it computes that fit for
batches of m on one split by variable projection (Golub & Pereyra, SIAM
J. Numer. Anal. 10:413, 1973).  The parameter-independent block is
z-scored and QR-factored once per split and set of static terms, and
shared by every evaluator on them; each fit extends that factor in closed
form by the columns that depend on m, centring and scaling each within
one projection, with no QR and no z-scored copy of the design.

Each column is projected off the factor twice, as classical Gram-Schmidt
with reorthogonalization does, which keeps the remainder orthogonal while
the condition number is far below the inverse unit roundoff.  A batch
makes the first projection in one pass over the points and materializes
its remainder in a second; the second projection is applied to that
remainder by Pythagoras, which loses only the square of a
rounding-sized ratio.  No remainder norm is taken as a Gram entry minus a
large projection: that loses digits as the square of the condition
number.  The class docstring gives the argument in full.
``prediction_error`` scores a fit on a held-out design matrix; the tests'
plain reference path composes it with the other steps.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (CollinearityError, DegenerateColumnError,
                     TransportIdError, ValidationError)
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


# One batch holds at most _BATCH_COLUMNS parameter-dependent columns (m's
# times columns per m), and a pass visits the points in blocks of as many
# rows as fit in the evaluator's one working buffer of _BUFFER doubles: a
# batch of M m's with q columns each keeps M (q + 1) rows of doubles per
# point of a block, 8,192 points for 8 m's and one column; one m keeps
# one row, its columns being the terms' own arrays, so up to 131,072
# points.  The buffer keeps that size whatever the point count and the
# number of m's asked for, and is reused by every batch.
_BUFFER = 2 ** 17
_BATCH_COLUMNS = 8


@dataclass(frozen=True, eq=False)
class _StaticBlock:
    """What an evaluator needs of its static columns S on one split, in
    the layout its passes read: column-major, so that a block of rows is
    one contiguous run per column.

    ``train`` is [B, y_resid], n by k + 2: B = [1/sqrt(n), Q_s], with
    S_n = Q_s R_s the z-scored training columns, and y_resid the static
    fit's residual y - Q_s Q_s' y on the normalized training target y.
    ``qty`` is Q_s' y and ``basis_y`` is B' y_resid.  ``test`` is the
    static test columns and the test target, normalized with the training
    statistics ``stats``, as one array of k + 1 columns.
    """

    train: np.ndarray
    r_s: np.ndarray
    qty: np.ndarray
    basis_y: np.ndarray
    test: np.ndarray
    stats: NormalizationStats


def _build_static_block(split: DataSplit, terms: tuple) -> _StaticBlock:
    train_dm, stats = normalize_design(DesignMatrix(
        term_columns(terms, split.train, None), split.train.c_t,
        tuple(t.id for t in terms)))
    n, k = train_dm.phi.shape
    train = np.empty((n, k + 2), order="F")
    train[:, 0] = 1.0 / np.sqrt(n)
    q_s = train[:, 1:k + 1]
    q_s[:], r_s = np.linalg.qr(train_dm.phi)
    qty = q_s.T @ train_dm.y
    train[:, k + 1] = train_dm.y - q_s @ qty
    test = np.empty((split.test.n_points, k + 1), order="F")
    test[:, :k] = term_columns(terms, split.test, None)
    test[:, :k] -= stats.col_mean
    test[:, :k] /= stats.col_std
    test[:, k] = (split.test.c_t - stats.y_mean) / stats.y_std
    return _StaticBlock(train, r_s, qty, train[:, :k + 1].T @ train[:, k + 1],
                        test, stats)


# Static blocks by split, then by static terms, and row blocks by split,
# then by block length.  Weak keys: they live as long as their split and
# never keep one alive.
_STATIC_BLOCKS: "weakref.WeakKeyDictionary[DataSplit, dict]" = (
    weakref.WeakKeyDictionary())
_ROW_BLOCKS: "weakref.WeakKeyDictionary[DataSplit, dict]" = (
    weakref.WeakKeyDictionary())


def _static_block(split: DataSplit, terms: tuple) -> _StaticBlock:
    """The block of ``terms`` on ``split``, built on first use."""
    blocks = _STATIC_BLOCKS.setdefault(split, {})
    if terms not in blocks:
        blocks[terms] = _build_static_block(split, terms)
    return blocks[terms]


def _row_blocks(split: DataSplit, length: int) -> tuple:
    """(train, test): each a tuple of (first row, view of the points) per
    block of ``length`` rows, built on first use."""
    blocks = _ROW_BLOCKS.setdefault(split, {})
    if length not in blocks:
        blocks[length] = tuple(
            tuple((i, points.rows(i, i + length))
                  for i in range(0, points.n_points, length))
            for points in (split.train, split.test))
    return blocks[length]


def _columns(buf: np.ndarray, terms: tuple, points, ms: list) -> list:
    """Per term, its column at every m of ``ms`` on ``points``, a row
    block, as a (len(ms), n_points) array the caller may overwrite: rows
    of ``buf``, or for one m the term's own column.  A row block's arrays
    are views, so a column that owns its memory is the term's own."""
    if len(ms) == 1:
        cols = [t.values(points, ms[0]) for t in terms]
        return [(c if c.base is None else c.copy())[None, :] for c in cols]
    out = buf[:, :len(ms), :points.n_points]
    for j, term in enumerate(terms):
        for i, m in enumerate(ms):
            out[j, i] = term.values(points, m)
    return list(out)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of a with the same row of b."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


class PredictionErrorEvaluator:
    """Maps m to a full fit (coefficients plus test error) on one split.

    Only the parameter-dependent columns D change with m, so the work on
    the k static columns S is done once per split and static-term set,
    and shared by every evaluator on them (the candidate models, and a
    pruning round that keeps their static terms): S is evaluated, checked,
    z-scored and QR-factored, S_n = Q_s R_s, and the normalized static
    test block, both normalized targets and Q_s' y are kept.

    ``evaluate_many`` fits a batch of m's, and ``evaluate(m)`` is a batch
    of one.  Each fit extends the factor one column of D at a time, as
    Gram-Schmidt does: the raw column d is projected off
    P = [B, e_1, ..., e_j], with B = [1/sqrt(n), Q_s] and e_i the unit
    directions of D's earlier columns, twice.  The remainder then stays
    orthogonal to working precision while the condition number times the
    unit roundoff is far below one (Giraud, Langou, Rozloznik & van den
    Eshof, Numer. Math. 101:87, 2005); the 1e12 condition limit keeps that
    product at most 1e-4.

    The batch makes the two projections in passes over row blocks of the
    training points, so that each block of B is read once per pass for
    every m of the batch, from cache.  Pass 1 evaluates the block's
    columns for every m and adds up P'd.  The next pass evaluates them
    again and subtracts that projection, so the once-projected remainder
    r = d - P P'd is formed, block by block, from d itself; it adds up
    c = P'r, |r|^2 and r'y_resid.  The second projection is then applied
    by Pythagoras: the twice-projected remainder r - P c has squared norm
    |r|^2 - |c|^2 and residual product r'y_resid - c'P'y_resid.  That is
    sound only because r was materialized: c is of the order of the unit
    roundoff times |d|, so the subtraction loses about (|c| / |r|)^2 of
    |r|^2, the square of the error bound above.  Taking |r|^2 itself as
    |d|^2 - |P'd|^2, a large projection subtracted from a Gram entry,
    would lose digits as the square of the condition number, and is never
    done.  A later column j is projected off the earlier directions e_i
    in a pass of its own, which rebuilds each e_i in the block from its
    column and the coefficients found so far.

    Projecting off 1/sqrt(n) centres d: its mean is that coefficient over
    sqrt(n), and since the pieces are orthogonal its standard deviation
    is sqrt((|remainder|^2 + |coefficients on Q_s and the e_i|^2) / n), a
    sum with no cancellation.  Dividing by that std z-scores d without
    forming d_n: the coefficients over the std are d_n's column of R above
    the diagonal, and the remainder's norm over the std the new diagonal
    entry.

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
    vectors of the normalized design.  The batch's triangles are checked
    against the 1e12 condition limit and solved in one stacked call; one
    that fails the limit goes to ``least_squares_fit``, whose
    ``CollinearityError`` names the same terms as on the full design.  The
    test window is scored in one blocked pass, from the cached static
    block plus the raw test columns of D, with each column's scale and
    shift folded into scalars.

    Checks are those of the plain path, with its exceptions and messages,
    and each fails only its own m: a non-finite column shows as a
    non-finite first coefficient, or test residual, and ``TermSpec.column``
    then names its first bad point; a constant column raises
    ``DegenerateColumnError`` (its computed std is rounding noise, so one
    at most 1e-12 of the mean is tested for exact constancy); a zero
    remainder leaves R singular, which ``least_squares_fit`` reports as
    collinear.
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
        self._buffer = None

    @property
    def library(self) -> LibrarySpec:
        return self._library

    def evaluate(self, m: ModelParams) -> FitResult:
        """The fit at m: normalized and physical coefficients and ``eps``."""
        (fit,) = self.evaluate_many([m])
        if isinstance(fit, TransportIdError):
            raise fit
        return fit

    def evaluate_many(self, ms) -> list:
        """The fit at each m, in order: a ``FitResult``, or the
        ``TransportIdError`` that ``evaluate(m)`` raises, which fails that
        m alone.

        The m's are fitted in batches of at most ``_BATCH_COLUMNS``
        dependent columns.  Per batch the work on n points is 1 + q
        passes over the training points for q columns of D, each
        evaluating the batch's columns, and one pass over the test points.
        """
        ms = list(ms)
        if not ms:
            return []
        per = _BATCH_COLUMNS // max(len(self._dep_terms), 1) or 1
        count = -(-len(ms) // per)
        cuts = [len(ms) * i // count for i in range(count + 1)]
        out = []
        for lo, hi in zip(cuts, cuts[1:]):
            out.extend(self._fit_batch(ms[lo:hi]))
        return out

    def _fit_batch(self, ms: list) -> list:
        try:
            return self._fit(ms)
        except TransportIdError as exc:
            # A failure the checks do not trace to one m, such as a term
            # of the wrong shape: fit each m alone, so that it is its own.
            if len(ms) == 1:
                return [exc]
            return [self._fit_batch([m])[0] for m in ms]

    def _fit(self, ms: list) -> list:
        out: list = [None] * len(ms)
        q = len(self._dep_terms)
        length = _BUFFER // (len(ms) * (q + 1) if len(ms) > 1 else 1)
        train, test = _row_blocks(self._split, length)
        # A non-finite or huge column must not warn; its m is caught by
        # the checks.
        with np.errstate(over="ignore", invalid="ignore"):
            r, rhs, mean, std = self._extend(ms, out, train)
            alpha = self._solve(r, rhs, out)
            todo = [i for i, fit in enumerate(out) if fit is None]
            eps = self._score([ms[i] for i in todo], alpha[todo],
                              mean[todo], std[todo], test)
        st = self._block.stats
        ids = self._library.term_ids
        for i, e in zip(todo, eps):
            if not np.isfinite(e):
                try:
                    for term in self._dep_terms:
                        term.column(self._split.test, ms[i])
                except TransportIdError as exc:
                    out[i] = exc
                    continue
            try:
                alpha_norm = CoefficientVector(alpha[i], "normalized", ids)
            except TransportIdError as exc:
                out[i] = exc
                continue
            alpha_phys = denormalize_coefficients(
                alpha_norm,
                np.concatenate([st.col_std, std[i]])[self._order], st.y_std)
            out[i] = FitResult(alpha_norm=alpha_norm, alpha_phys=alpha_phys,
                               eps=float(e))
        return out

    def _buffers(self, size: int, rows: tuple) -> tuple:
        """(cols, work), views of the evaluator's one buffer, allocated on
        first use, for a batch of ``size`` m's on blocks ``rows``: cols
        holds every dependent column at every m (nothing for one m, whose
        columns are the terms' own arrays), and work one row per m."""
        if self._buffer is None:
            self._buffer = np.empty(_BUFFER)
        q = len(self._dep_terms)
        width = rows[0][1].n_points
        per = size if size > 1 else 0
        held = q * per * width
        cols = self._buffer[:held].reshape(q, per, width)
        work = self._buffer[held:held + size * width].reshape(size, width)
        return cols, work

    def _extend(self, ms: list, out: list, rows: tuple) -> tuple:
        """Per m, the triangle R and Q'y of [S_n D_n] in [S D] column
        order, and the mean and std of each column of D, in passes over
        the training blocks ``rows``.  An m whose column fails a check
        gets its exception in ``out``."""
        block = self._block
        n, k1 = block.train.shape[0], block.train.shape[1] - 1
        k = k1 - 1
        terms = self._dep_terms
        q = len(terms)
        size = len(ms)
        r = np.zeros((size, k + q, k + q))
        r[:, :k, :k] = block.r_s
        rhs = np.zeros((size, k + q))
        rhs[:, :k] = block.qty
        mean = np.zeros((size, q))
        std = np.zeros((size, q))
        if q == 0:
            return r, rhs, mean, std
        train = self._split.train
        cols, work = self._buffers(size, rows)
        # first[j, i]: column j's coefficients at ms[i] on P = [B, e_0,
        # e_1, ...] in the first projection, each e_l's entered once e_l
        # is known; total: the same summed over both projections; inv:
        # 1 / |column j's twice-projected remainder|, or 0.  Only the
        # columns before the last need total and inv, to rebuild e_j.
        first = np.zeros((q, size, k1 + q))
        total = np.zeros((q, size, k1 + q))
        inv = np.zeros((q, size))
        proj_y = np.zeros((size, k1 + q))  # P' y_resid
        proj_y[:, :k1] = block.basis_y

        # Pass 1: every column's coefficients on B.
        for start, points in rows:
            d = _columns(cols, terms, points, ms)
            b = block.train[start:start + points.n_points, :k1]
            for j in range(q):
                first[j, :, :k1] += d[j] @ b
        # first[j, i, 0] sums column j at ms[i], so it is non-finite when
        # any entry is; TermSpec.column names the first.
        finite = np.isfinite(first[:, :, 0])
        for i in np.flatnonzero(~finite.all(0)):
            try:
                terms[np.flatnonzero(~finite[:, i])[0]].column(train, ms[i])
            except TransportIdError as exc:
                out[i] = exc
        live = [i for i, fit in enumerate(out) if fit is None]

        dead: dict = {}
        count = len(live)
        # Basic slices, not index arrays, while every m is live.
        sel = slice(None) if count == size else np.array(live, dtype=int)
        ml = [ms[i] for i in live]
        for j in range(q):
            c2 = np.zeros((count, k1 + j))  # r . P
            r_y = np.zeros(count)  # r . y_resid
            norm2 = np.zeros(count)
            later = np.zeros((q, count))  # r . d_l for l > j
            # The first of these passes runs backwards: its first block
            # is the one pass 1 left in the buffer, unless an m dropped.
            for start, points in (rows[::-1] if j == 0 else rows):
                h = points.n_points
                if j > 0 or start != rows[-1][0] or count < size:
                    d = _columns(cols, terms, points, ml)
                by = block.train[start:start + h]
                b = by[:, :k1]
                w = work[:count, :h]
                for l in range(j):  # d[l] becomes e_l
                    d[l] -= np.matmul(total[l, sel, :k1], b.T, out=w)
                    for p in range(l):
                        d[l] -= total[l, sel, k1 + p, None] * d[p]
                    d[l] *= inv[l, sel, None]
                rem = d[j]  # becomes the once-projected remainder
                rem -= np.matmul(first[j, sel, :k1], b.T, out=w)
                for p in range(j):
                    rem -= first[j, sel, k1 + p, None] * d[p]
                t = rem @ by
                c2[:, :k1] += t[:, :k1]
                r_y += t[:, k1]
                for p in range(j):
                    c2[:, k1 + p] += _rowdot(rem, d[p])
                norm2 += _rowdot(rem, rem)
                for l in range(j + 1, q):
                    later[l] += _rowdot(rem, d[l])
            # The second projection, by Pythagoras.
            nu2 = np.maximum(norm2 - _rowdot(c2, c2), 0.0)
            nu = np.sqrt(nu2)
            tot = first[j, sel, :k1 + j] + c2
            mean_j = tot[:, 0] / math.sqrt(n)
            std_j = np.sqrt((nu2 + _rowdot(tot[:, 1:], tot[:, 1:])) / n)
            # A flat column, or a zero remainder, adds no direction: a
            # zero remainder leaves R singular, which least_squares_fit
            # reports as collinear; dividing by it would only warn.
            inv_j = np.divide(1.0, nu, out=np.zeros(count), where=nu > 0.0)
            scale = std_j.copy()
            suspect = std_j <= 1e-12 * np.abs(mean_j)
            for s in np.flatnonzero(suspect):
                raw = terms[j].values(train, ml[s])
                if np.all(raw == raw[0]):
                    dead.setdefault(live[s], []).append(terms[j].id)
                    scale[s] = 1.0
                    inv_j[s] = 0.0
            r[sel, :k + j, k + j] = tot[:, 1:] / scale[:, None]
            r[sel, k + j, k + j] = nu / scale
            rhs[sel, k + j] = inv_j * (r_y - _rowdot(c2, proj_y[sel, :k1 + j]))
            mean[sel, j] = mean_j
            std[sel, j] = std_j
            if j + 1 < q:
                total[j, sel, :k1 + j] = tot
                inv[j, sel] = inv_j
                proj_y[sel, k1 + j] = rhs[sel, k + j]
            for l in range(j + 1, q):
                # e_j . d_l, from r . d_l and d_l's coefficients on P.
                first[l, sel, k1 + j] = inv_j * (
                    later[l] - _rowdot(c2, first[l, sel, :k1 + j]))
        for i, ids in dead.items():
            out[i] = DegenerateColumnError(f"zero-variance columns: {ids}")
        return r, rhs, mean, std

    def _solve(self, r: np.ndarray, rhs: np.ndarray, out: list) -> np.ndarray:
        """Normalized coefficients, in library order, of each m not yet
        failed: the triangles' singular values in one stacked call, those
        within the condition limit solved in another, and
        ``least_squares_fit`` for the rest."""
        alpha = np.zeros((len(out), r.shape[1]))
        todo = np.array([i for i, fit in enumerate(out) if fit is None],
                        dtype=int)
        try:
            sv = np.linalg.svd(r[todo], compute_uv=False)
            good = sv[:, 0] < _COND_LIMIT * sv[:, -1]
        except np.linalg.LinAlgError:  # a non-finite triangle
            good = np.zeros(todo.size, dtype=bool)
        if good.any():
            # LU of a triangle pivots nowhere: this is back-substitution.
            ok = todo[good]
            alpha[ok] = np.linalg.solve(r[ok], rhs[ok, :, None])[
                :, self._order, 0]
        for i in todo[~good]:
            try:
                alpha[i] = least_squares_fit(DesignMatrix(
                    r[i][:, self._order], rhs[i],
                    self._library.term_ids)).values
            except TransportIdError as exc:
                out[i] = exc
        return alpha

    def _score(self, ms: list, alpha: np.ndarray, mean: np.ndarray,
               std: np.ndarray, rows: tuple) -> np.ndarray:
        """Each m's sum of squared normalized test residuals, in one pass
        over the test blocks ``rows``."""
        block = self._block
        terms = self._dep_terms
        # The static residual y - S a_s, as [S, y] times [-a_s, 1].
        coef = np.empty((len(ms), len(self._static) + 1))
        coef[:, :-1] = -alpha[:, self._static]
        coef[:, -1] = 1.0
        scale = alpha[:, self._dep] / std
        shift = _rowdot(scale, mean)
        cols, work = self._buffers(len(ms), rows)
        eps = np.zeros(len(ms))
        for start, points in rows:
            h = points.n_points
            resid = np.matmul(coef, block.test[start:start + h].T,
                              out=work[:, :h])
            resid += shift[:, None]
            d = _columns(cols, terms, points, ms)
            for j in range(len(terms)):
                d[j] *= scale[:, j, None]
                resid -= d[j]
            eps += _rowdot(resid, resid)
        return eps
