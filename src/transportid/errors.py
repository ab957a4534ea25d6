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


def is_real(value) -> bool:
    """A real number, not a bool (which Python counts as an int)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_numbers(config) -> None:
    """Reject a non-finite ``float`` field, a non-integral ``int`` field and
    a bool in either.

    JSON configs can carry ``NaN``, ``Infinity``, ``2.5`` and ``true`` where
    the dataclass declares a float or an int; each such field is named in
    one ``ValidationError``.
    """
    bad = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type in ("int", int):
            ok = is_real(value) and isinstance(value, numbers.Integral)
        elif f.type in ("float", float):
            ok = is_real(value) and math.isfinite(value)
        else:
            continue
        if not ok:
            bad.append(f"{f.name}={value!r}")
    if bad:
        raise ValidationError(f"{type(config).__name__} needs finite "
                              f"numbers and whole counts: {', '.join(bad)}")
