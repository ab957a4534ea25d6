"""Embedded model parameters and their prior bounds.

The candidate terms for nonlinear sorption carry parameters that cannot be
absorbed into the linear coefficients: the Freundlich exponent ``a`` and the
Langmuir constant ``K_l``.  They are kept as a named, ordered vector so the
assimilation loop can treat them generically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

DEFAULT_PARAM_NAMES = ("a", "K_l")


@dataclass(frozen=True)
class ModelParams:
    """Named, ordered vector of embedded parameters."""

    names: tuple[str, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.values):
            raise ValidationError("parameter names and values differ in length")
        if len(set(self.names)) != len(self.names):
            raise ValidationError("duplicate parameter names")
        if not all(np.isfinite(v) for v in self.values):
            raise ValidationError("non-finite parameter value")

    @classmethod
    def of_sorption(cls, a: float, k_l: float) -> "ModelParams":
        return cls(names=DEFAULT_PARAM_NAMES, values=(float(a), float(k_l)))

    @classmethod
    def from_array(cls, values: np.ndarray, names: tuple[str, ...] = DEFAULT_PARAM_NAMES) -> "ModelParams":
        return cls(names=names, values=tuple(float(v) for v in np.asarray(values, dtype=float)))

    def __getitem__(self, name: str) -> float:
        try:
            return self.values[self.names.index(name)]
        except ValueError:
            raise KeyError(f"unknown parameter {name!r}") from None

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)

    @property
    def n(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class ParamBounds:
    """Box bounds for the embedded parameters, aligned with a name tuple."""

    names: tuple[str, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.names) == len(self.lower) == len(self.upper)):
            raise ValidationError("bounds and names differ in length")
        for name, lo, hi in zip(self.names, self.lower, self.upper):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValidationError(f"invalid bounds for {name!r}: [{lo}, {hi}]")

    @classmethod
    def default(cls) -> "ParamBounds":
        return cls(names=DEFAULT_PARAM_NAMES, lower=(0.25, 30.0), upper=(0.75, 150.0))

    def restrict(self, names) -> "ParamBounds":
        """The bounds of ``names`` alone, in this box's order."""
        missing = [n for n in names if n not in self.names]
        if missing:
            raise ValidationError(f"no bounds for parameters {missing}")
        keep = [i for i, n in enumerate(self.names) if n in names]
        return ParamBounds(names=tuple(self.names[i] for i in keep),
                           lower=tuple(self.lower[i] for i in keep),
                           upper=tuple(self.upper[i] for i in keep))

    def lower_array(self) -> np.ndarray:
        return np.array(self.lower, dtype=float)

    def upper_array(self) -> np.ndarray:
        return np.array(self.upper, dtype=float)

    def span(self) -> np.ndarray:
        return self.upper_array() - self.lower_array()

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower_array() + self.upper_array())

    def prior_covariance(self) -> np.ndarray:
        """Diagonal covariance of a uniform prior over the box."""
        return np.diag(self.span() ** 2 / 12.0)
