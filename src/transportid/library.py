"""Candidate-term libraries and the normalized regression system.

A library is an ordered list of candidate right-hand-side terms for

    dC/dt = sum_j alpha_j * term_j(C, m)

where some terms depend nonlinearly on embedded model parameters m
(the Freundlich exponent ``a`` and the Langmuir constant ``K_l``).
Columns are evaluated pointwise on a :class:`~transportid.preprocess.
DerivativeField`, z-scored for regression, and the fitted coefficients
are mapped back to physical scale for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumnError, TermEvaluationError, ValidationError
from .params import ModelParams
from .preprocess import DerivativeField

__all__ = [
    "TermSpec",
    "LibrarySpec",
    "library_names",
    "DesignMatrix",
    "NormalizationStats",
    "CoefficientVector",
    "term_columns",
    "normalize_design",
    "denormalize_coefficients",
]


def _eval_advection(d: DerivativeField, m: ModelParams) -> np.ndarray:
    return d.c_x


def _eval_dispersion(d: DerivativeField, m: ModelParams) -> np.ndarray:
    return d.c_xx


def _eval_freundlich(d: DerivativeField, m: ModelParams) -> np.ndarray:
    # C^(a-1) as exp((a-1) ln C), with ln C taken once per point set: a
    # third of np.power's time, and its value at C = 0 too, except at
    # a = 1, where exp(0 * ln 0) is NaN and 0^0 is 1.  The detection
    # floor keeps C > 0; at C = 0 and a < 1 the column is non-finite and
    # TermSpec.column rejects it, so numpy need not warn about it.
    exponent = m["a"] - 1.0
    if exponent == 0.0:
        return d.c_t.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        col = np.multiply(d.ln_c, exponent)
        np.exp(col, out=col)
        col *= d.c_t
    return col


def _eval_langmuir(d: DerivativeField, m: ModelParams) -> np.ndarray:
    col = np.multiply(d.c, m["K_l"])
    col += 1.0
    np.square(col, out=col)
    return np.divide(d.c_t, col, out=col)


def _eval_conc(d: DerivativeField, m: ModelParams) -> np.ndarray:
    return d.c


def _eval_conc_sq(d: DerivativeField, m: ModelParams) -> np.ndarray:
    return d.c * d.c


def _eval_d3(d: DerivativeField, m: ModelParams) -> np.ndarray:
    return d.c_xxx


def _eval_sq_dx(d: DerivativeField, m: ModelParams) -> np.ndarray:
    return d.c2_x


def _eval_sq_dxx(d: DerivativeField, m: ModelParams) -> np.ndarray:
    return d.c2_xx


def _eval_sq_dxxx(d: DerivativeField, m: ModelParams) -> np.ndarray:
    return d.c2_xxx


@dataclass(frozen=True)
class TermSpec:
    """One candidate term.

    ``process`` tags the transport process the term models (ADV, DIS,
    F-SORP, L-SORP) or AUX for structure-search extras.  ``parameter_deps``
    lists the embedded parameters the evaluator reads; terms with an empty
    tuple can be cached across parameter updates.  ``label`` is the display
    form, with each parameter as a ``str.format`` field.
    """

    id: str
    process: str
    evaluator: object
    parameter_deps: tuple = ()
    label: str = ""

    @property
    def is_sorption(self) -> bool:
        return self.process in ("F-SORP", "L-SORP")

    def fresh_column(self, deriv: DerivativeField,
                     m: ModelParams) -> np.ndarray:
        """The term at every point, in an array the caller may overwrite:
        a copy where the evaluator returned an array of ``deriv``'s own.
        Its values are not checked; ``column`` checks them."""
        col = np.asarray(self.evaluator(deriv, m), dtype=float)
        if col.shape != deriv.c.shape:
            raise TermEvaluationError(f"term {self.id!r} returned wrong shape")
        if any(np.may_share_memory(col, v) for v in vars(deriv).values()):
            col = col.copy()
        return col

    def column(self, deriv: DerivativeField, m: ModelParams) -> np.ndarray:
        """Evaluate the term at every point, rejecting non-finite values."""
        col = self.fresh_column(deriv, m)
        if not np.all(np.isfinite(col)):
            bad = int(np.flatnonzero(~np.isfinite(col))[0])
            raise TermEvaluationError(
                f"term {self.id!r} evaluated non-finite at point {bad}")
        return col


_TERMS = {
    t.id: t
    for t in (
        TermSpec("adv", "ADV", _eval_advection, (), "dC/dx"),
        TermSpec("dis", "DIS", _eval_dispersion, (), "d2C/dx2"),
        TermSpec("fsorp", "F-SORP", _eval_freundlich, ("a",),
                 "C^({a}-1) dC/dt"),
        TermSpec("lsorp", "L-SORP", _eval_langmuir, ("K_l",),
                 "(1+{K_l} C)^-2 dC/dt"),
        TermSpec("conc", "AUX", _eval_conc, (), "C"),
        TermSpec("conc_sq", "AUX", _eval_conc_sq, (), "C^2"),
        TermSpec("d3", "AUX", _eval_d3, (), "d3C/dx3"),
        TermSpec("sq_dx", "AUX", _eval_sq_dx, (), "dC^2/dx"),
        TermSpec("sq_dxx", "AUX", _eval_sq_dxx, (), "d2C^2/dx2"),
        TermSpec("sq_dxxx", "AUX", _eval_sq_dxxx, (), "d3C^2/dx3"),
    )
}

_BASIC_IDS = ("adv", "dis", "fsorp", "lsorp")
_LIBRARIES = {
    "basic": _BASIC_IDS,
    "extended": _BASIC_IDS + ("conc", "conc_sq", "d3", "sq_dx", "sq_dxx",
                              "sq_dxxx"),
}


def library_names() -> tuple:
    return tuple(_LIBRARIES)


def term_by_id(term_id: str) -> TermSpec:
    try:
        return _TERMS[term_id]
    except KeyError:
        raise ValidationError(f"unknown candidate term {term_id!r}") from None


@dataclass(frozen=True)
class LibrarySpec:
    """Ordered collection of candidate terms."""

    name: str
    terms: tuple

    def __post_init__(self) -> None:
        ids = [t.id for t in self.terms]
        if len(ids) != len(set(ids)):
            raise ValidationError("duplicate term ids in library")
        if not self.terms:
            raise ValidationError("library needs at least one term")

    @classmethod
    def from_name(cls, name: str) -> "LibrarySpec":
        if name not in library_names():
            raise ValidationError(f"unknown library name {name!r}")
        return cls(name, tuple(_TERMS[i] for i in _LIBRARIES[name]))

    def subset(self, term_ids, name: str | None = None) -> "LibrarySpec":
        """Restrict to ``term_ids``, preserving this library's order."""
        wanted = set(term_ids)
        missing = wanted - {t.id for t in self.terms}
        if missing:
            raise ValidationError(f"terms not in library: {sorted(missing)}")
        kept = tuple(t for t in self.terms if t.id in wanted)
        return LibrarySpec(name or f"{self.name}-pruned", kept)

    @property
    def term_ids(self) -> tuple:
        return tuple(t.id for t in self.terms)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def parameter_deps(self) -> tuple:
        deps = []
        for t in self.terms:
            for p in t.parameter_deps:
                if p not in deps:
                    deps.append(p)
        return tuple(deps)


@dataclass
class DesignMatrix:
    """Evaluated candidate matrix and target vector."""

    phi: np.ndarray
    y: np.ndarray
    term_ids: tuple

    def __post_init__(self) -> None:
        self.phi = np.asarray(self.phi, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.phi.ndim != 2 or self.y.ndim != 1:
            raise ValidationError("design matrix must be 2-D with 1-D target")
        if self.phi.shape[0] != self.y.shape[0]:
            raise ValidationError("row count mismatch between phi and y")
        if self.phi.shape[1] != len(self.term_ids):
            raise ValidationError("column count does not match term ids")

    @property
    def n_points(self) -> int:
        return self.phi.shape[0]

    @property
    def n_terms(self) -> int:
        return self.phi.shape[1]


@dataclass(frozen=True)
class NormalizationStats:
    """Per-column and target z-score statistics (population std)."""

    col_mean: np.ndarray
    col_std: np.ndarray
    y_mean: float
    y_std: float


@dataclass
class CoefficientVector:
    """Fitted coefficients in a declared scale ('normalized' or 'physical')."""

    values: np.ndarray
    scale: str
    term_ids: tuple

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.scale not in ("normalized", "physical"):
            raise ValidationError(f"bad coefficient scale {self.scale!r}")
        if self.values.shape != (len(self.term_ids),):
            raise ValidationError("coefficient length does not match term ids")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("non-finite coefficient")


def term_columns(terms: tuple, deriv: DerivativeField,
                 m: ModelParams | None) -> np.ndarray:
    """The checked columns of ``terms`` as an (n_points, len(terms)) array."""
    out = np.empty((deriv.n_points, len(terms)))
    for j, term in enumerate(terms):
        out[:, j] = term.column(deriv, m)
    return out


def normalize_design(dm: DesignMatrix):
    """Z-score every column and the target (population std); returns
    (normalized, stats).  A zero-variance column raises
    :class:`DegenerateColumnError` naming its term."""
    col_mean = dm.phi.mean(axis=0)
    col_std = dm.phi.std(axis=0)
    # Tested exactly: a constant column whose mean is inexact has a std
    # of rounding size, not 0.
    dead = np.flatnonzero(np.all(dm.phi == dm.phi[:1], axis=0))
    if dead.size:
        names = [dm.term_ids[int(j)] for j in dead]
        raise DegenerateColumnError(f"zero-variance columns: {names}")
    phi_n = (dm.phi - col_mean) / col_std
    y_mean = float(dm.y.mean())
    y_std = float(dm.y.std())
    if y_std <= 0.0:
        raise DegenerateColumnError("target dC/dt has zero variance")
    y_n = (dm.y - y_mean) / y_std
    stats = NormalizationStats(col_mean=col_mean, col_std=col_std,
                               y_mean=y_mean, y_std=y_std)
    return DesignMatrix(phi_n, y_n, dm.term_ids), stats


def denormalize_coefficients(alpha_norm: CoefficientVector, col_std: np.ndarray,
                             y_std: float) -> CoefficientVector:
    """Map z-scored coefficients to physical scale, given the population
    stds of their columns and of the target."""
    if alpha_norm.scale != "normalized":
        raise ValidationError("expected normalized coefficients")
    return CoefficientVector(alpha_norm.values * y_std / col_std, "physical",
                             alpha_norm.term_ids)
