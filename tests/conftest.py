"""Shared test helpers."""

import hashlib
import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from nash.model_io import dumps_canonical, model_document


def piecewise_image(seed: int, size: int = 28, background=(0.0, 0.15), levels=(0.3, 1.0)) -> np.ndarray:
    """Random piecewise-constant image: a background level drawn from ``background``
    with 2-4 rectangles at levels drawn from ``levels`` (by default dim and bright)."""
    rng = np.random.default_rng(seed)
    img = np.full((size, size), rng.uniform(*background))
    for _ in range(rng.integers(2, 5)):
        r0, c0 = rng.integers(0, size - 6, 2)
        h, w = rng.integers(5, 14, 2)
        img[r0:r0 + h, c0:c0 + w] = rng.uniform(*levels)
    return img


def random_regression(seed: int, n: int = 40, p: int = 8, s: int = 3, noise_sd: float = 0.5):
    """Small dense-signal regression draw for engine tests."""
    rng = np.random.default_rng(seed)
    s = min(s, p)
    X = rng.standard_normal((n, p))
    b = np.zeros(p)
    b[rng.choice(p, size=s, replace=False)] = rng.standard_normal(s) * 2.0
    y = X @ b + noise_sd * rng.standard_normal(n)
    return X, y, b


def simplex_grid_best(log_lik: np.ndarray, step: float = 0.01) -> float:
    """Brute-force maximum of the mixture marginal likelihood over a gridded simplex.

    Enumerates every composition of 1/step into M parts and evaluates the
    objective in likelihood space, sum_j log(sum_m pi_m exp(L_jm - max_m L_jm))
    plus the row maxima, in vectorized chunks.
    """
    m = log_lik.shape[1]
    k = round(1.0 / step)
    cuts = np.fromiter(
        itertools.combinations(range(k + m - 1), m - 1), dtype=np.dtype((int, m - 1))
    )
    bounds = np.column_stack([np.full(cuts.shape[0], -1), cuts, np.full(cuts.shape[0], k + m - 1)])
    grid = (np.diff(bounds, axis=1) - 1) / k
    rowmax = log_lik.max(axis=1)
    lik = np.exp(log_lik - rowmax[:, None])
    best = -np.inf
    with np.errstate(divide="ignore"):
        for lo in range(0, grid.shape[0], 4096):
            block = grid[lo:lo + 4096]
            values = np.log(block @ lik.T).sum(axis=1) + rowmax.sum()
            best = max(best, float(values.max()))
    return best


def fit_digest(result) -> str:
    """SHA-256 over everything a fit returns: coefficients, intercept, ELBO trace, the four
    summary arrays, fitted values, sigma², sigma0², sweeps, null mass and the model document.

    Compare digests computed in one process; they follow the CPU's BLAS kernels, so they
    are no golden values.
    """
    digest = hashlib.sha256()
    summaries, state = result.summaries, result.state
    for values in (result.coefficients, [result.intercept], result.elbo_trace, summaries.mean,
                   summaries.variance, summaries.null_prob, summaries.log_marginal, result.fitted_values,
                   [state.sigma2, state.sigma02, result.sweeps, result.prior_null_mass]):
        digest.update(np.asarray(values, dtype=float).tobytes())
    digest.update(dumps_canonical(model_document(result)).encode())
    return digest.hexdigest()


def finite_difference_gradient(f, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        bumped = theta.copy()
        bumped[i] = theta[i] + h
        hi = f(bumped)
        bumped[i] = theta[i] - h
        lo = f(bumped)
        grad[i] = (hi - lo) / (2.0 * h)
    return grad


def gradient_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst component error measured against the gradient's own scale."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)


@pytest.fixture(scope="session")
def spans():
    """The benchmark's tracer module, ``perfbench/spans.py``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while defined
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
