"""Toolkit for identifying 1-D solute transport processes from data."""

from __future__ import annotations

from .assimilation import AssimilationTrace, run_assimilation
from .errors import (CollinearityError, DegenerateColumnError, SolverError,
                     TermEvaluationError, TransportIdError, ValidationError)
from .identification import (EnsembleSummary, IdentificationReport,
                             IdentifyConfig, ModelCandidate, PreparedData,
                             RunResult, identify, learned_equation,
                             prepare_dataset, run_ensemble, run_single)
from .library import (CoefficientVector, DesignMatrix, LibrarySpec,
                      NormalizationStats, TermSpec, denormalize_coefficients,
                      normalize_design, term_by_id)
from .params import ModelParams, ParamBounds
from .preprocess import (DataSplit, DerivativeField, NoiseSpec,
                         SmoothingConfig, add_noise, compute_derivatives,
                         smooth_field, split_train_test)
from .regression import (FitResult, PredictionErrorEvaluator,
                         least_squares_fit, prediction_error)
from .scenarios import (get_scenario, scenario_names, true_coefficients,
                        true_parameters)
from .transport import (Field, ScenarioConfig, SorptionModel, isotherm_value,
                        sample_measurements, simulate)

__version__ = "0.20.0"

__all__ = [
    "AssimilationTrace", "run_assimilation",
    "CollinearityError", "DegenerateColumnError", "SolverError",
    "TermEvaluationError", "TransportIdError", "ValidationError",
    "EnsembleSummary", "IdentificationReport", "IdentifyConfig",
    "ModelCandidate", "PreparedData", "RunResult", "identify",
    "learned_equation", "prepare_dataset", "run_ensemble", "run_single",
    "CoefficientVector", "DesignMatrix", "LibrarySpec", "NormalizationStats",
    "TermSpec", "denormalize_coefficients", "normalize_design",
    "term_by_id",
    "ModelParams", "ParamBounds",
    "DataSplit", "DerivativeField", "NoiseSpec", "SmoothingConfig",
    "add_noise", "compute_derivatives", "smooth_field", "split_train_test",
    "FitResult", "PredictionErrorEvaluator", "least_squares_fit",
    "prediction_error",
    "get_scenario", "scenario_names", "true_coefficients", "true_parameters",
    "Field", "ScenarioConfig", "SorptionModel", "isotherm_value",
    "sample_measurements", "simulate",
]
