"""The package's public names."""

import dataclasses
import importlib
import pkgutil

import transportid
from transportid import transport
from transportid.preprocess import DerivativeField
from transportid.regression import FitResult
from transportid.transport import Field

# Removed in 0.8.0: the second fit path and the second solve entry point.
# The tests keep the plain fit path in reference_regression.py.
REMOVED = {"fit_design": "regression", "evaluate_terms": "library",
           "solve_factored": "transport"}


def test_public_names_resolve():
    """Every name in the package's and each module's ``__all__`` resolves,
    and no removed function is exported or left in its module."""
    modules = [transportid] + [
        importlib.import_module(f"transportid.{info.name}")
        for info in pkgutil.iter_modules(transportid.__path__)]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    assert not set(REMOVED) & set(transportid.__all__)
    for name, module in REMOVED.items():
        assert not hasattr(transportid, name)
        assert not hasattr(importlib.import_module(f"transportid.{module}"),
                           name)


def test_removed_members_are_gone():
    """0.9.0 keeps only what a reader reads: a point's coordinates, a fit's
    m, normalization statistics and intercept, ``Field.copy`` and the
    separate gttrf factors are gone."""
    assert {"x", "t"}.isdisjoint(f.name for f in dataclasses.fields(DerivativeField))
    assert {f.name for f in dataclasses.fields(FitResult)} == {
        "alpha_norm", "alpha_phys", "eps"}
    assert not hasattr(Field, "copy")
    assert not hasattr(transport, "factor_banded")
    assert not hasattr(transport, "_Factors")
