"""Versioned JSON persistence for fitted models.

Documents are serialized canonically (sorted keys, compact separators), so
serialize -> parse -> serialize is byte-identical and equal fits yield
equal files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .engine import FitResult
from .errors import DimensionMismatchError, ParseError, reading

FORMAT_VERSION = 1


@dataclass(frozen=True)
class ModelFile:
    """Parsed on-disk model."""

    format_version: int
    prior_kind: str
    prior_params: dict
    coefficients: np.ndarray
    intercept: float
    sigma2: float
    sigma02: float
    elbo_trace: list[float]
    config: dict
    columns: list[int] | None = None

    @property
    def p(self) -> int:
        return self.coefficients.size


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def model_document(result: FitResult, columns=None) -> dict:
    config = result.config
    return {
        "format_version": FORMAT_VERSION,
        "prior": {"kind": result.prior_kind, "params": result.prior_params},
        "coefficients": result.coefficients.tolist(),
        "intercept": result.intercept,
        "sigma2": result.state.sigma2,
        "sigma02": result.state.sigma02,
        "elbo_trace": result.elbo_trace,
        "config": {
            "max_sweeps": config.max_sweeps,
            "elbo_tol": config.elbo_tol,
            "init_mode": "provided" if config.init_beta is not None else "zero",
        },
        "columns": list(map(int, columns)) if columns is not None else None,
    }


def save_model(result: FitResult, path: str, columns=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(model_document(result, columns)))


def load_model(path: str) -> ModelFile:
    try:
        with reading(path), open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed model file: {exc.msg}", line=exc.lineno) from None
    try:
        model = ModelFile(
            format_version=doc["format_version"],
            prior_kind=doc["prior"]["kind"],
            prior_params=doc["prior"]["params"],
            coefficients=np.asarray(doc["coefficients"], dtype=float),
            intercept=float(doc["intercept"]),
            sigma2=float(doc["sigma2"]),
            sigma02=float(doc["sigma02"]),
            elbo_trace=[float(v) for v in doc["elbo_trace"]],
            config=doc.get("config", {}),
            columns=doc.get("columns"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"model file is missing or corrupts field: {exc}") from None
    # reject what predict_from_model would misread (`type is int` keeps bools out)
    if type(model.format_version) is not int or model.format_version != FORMAT_VERSION:
        raise ParseError(f"unsupported model format_version {model.format_version!r}")
    beta, columns = model.coefficients, model.columns
    if beta.ndim != 1 or beta.size == 0 or not np.isfinite(beta).all() or not math.isfinite(model.intercept):
        raise ParseError("model coefficients must be a non-empty list of finite numbers, the intercept finite")
    if columns is not None and not (isinstance(columns, list) and all(type(c) is int and c >= 0 for c in columns)
                                    and len(columns) == len(set(columns)) == beta.size):
        raise ParseError("model columns must be null or one distinct non-negative integer per coefficient")
    return model


def predict_from_model(model: ModelFile, X_new: np.ndarray) -> np.ndarray:
    """Predictions for raw predictors, honoring any stored column subset."""
    X_new = np.asarray(X_new, dtype=float)
    if X_new.ndim != 2:
        raise DimensionMismatchError("prediction input must be a matrix")
    if model.columns is not None:
        if X_new.shape[1] <= max(model.columns):
            raise DimensionMismatchError(
                f"model keeps column {max(model.columns)} but input has {X_new.shape[1]} columns"
            )
        X_new = X_new[:, model.columns]
    if X_new.shape[1] != model.p:
        raise DimensionMismatchError(f"model expects {model.p} columns, got {X_new.shape[1]}")
    return X_new @ model.coefficients + model.intercept
