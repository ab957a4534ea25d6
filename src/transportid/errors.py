"""Exception types shared across the package, and the number check that
every config dataclass runs on its fields."""

from __future__ import annotations

import dataclasses
import math
import numbers


class TransportIdError(Exception):
    """Base class for package-specific failures."""


class ValidationError(TransportIdError):
    """A configuration or input record violates its documented contract."""


class SolverError(TransportIdError):
    """The transport solver failed to converge or produced invalid state."""


class TermEvaluationError(TransportIdError):
    """A candidate term produced non-finite values."""


class DegenerateColumnError(TransportIdError):
    """A design-matrix column has zero variance and cannot be normalized."""


class CollinearityError(TransportIdError):
    """The normalized design matrix is numerically rank deficient."""


def check_numbers(config) -> None:
    """Reject a non-finite ``float`` field or a non-integral ``int`` field.

    JSON configs can carry ``NaN``, ``Infinity`` and ``2.5`` where the
    dataclass declares a float or an int; each such field is named in one
    ``ValidationError``.
    """
    bad = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type in ("int", int):
            ok = isinstance(value, numbers.Integral)
        elif f.type in ("float", float):
            ok = isinstance(value, numbers.Real) and math.isfinite(value)
        else:
            continue
        if not ok:
            bad.append(f"{f.name}={value!r}")
    if bad:
        raise ValidationError(f"{type(config).__name__} needs finite "
                              f"numbers and whole counts: {', '.join(bad)}")
