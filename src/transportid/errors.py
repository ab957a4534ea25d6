"""Exception types shared across the package, the type check that every
config dataclass runs on its fields, and the builder that turns a JSON
record into a config dataclass."""

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
    """Reject a non-finite ``float`` field, a non-integral ``int`` field, a
    bool in either and a ``str`` field that holds no string, as a JSON
    ``NaN``, ``Infinity``, ``2.5``, ``true`` or ``null`` can; each such
    field is named in one ``ValidationError``."""
    bad = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type in ("int", int):
            ok = is_real(value) and isinstance(value, numbers.Integral)
        elif f.type in ("float", float):
            ok = is_real(value) and math.isfinite(value)
        elif f.type in ("str", str):
            ok = isinstance(value, str)
        else:
            continue
        if not ok:
            bad.append(f"{f.name}={value!r}")
    if bad:
        raise ValidationError(f"{type(config).__name__} needs finite numbers, "
                              f"whole counts and strings: {', '.join(bad)}")


def from_record(cls, record, what: str):
    """Build the config dataclass ``cls`` from a JSON object that holds
    every key ``cls`` requires and no other; arrays become the tuples the
    frozen configs hold.  ``what`` names the record in each error."""
    if not isinstance(record, dict):
        raise ValidationError(f"{what} must be a JSON object, got {record!r}")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(record) - {f.name for f in fields})
    if unknown:
        raise ValidationError(f"unknown {what} keys: {', '.join(unknown)}")
    missing = [f.name for f in fields if f.name not in record
               and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValidationError(f"{what} block missing {', '.join(missing)}")
    try:
        return cls(**{key: tuple(value) if isinstance(value, list) else value
                      for key, value in record.items()})
    except TypeError as exc:
        raise ValidationError(f"bad {what} record: {exc}") from None
