"""Split variational empirical-Bayes coordinate ascent for sparse regression.

The model is a Gaussian likelihood with per-coefficient latent means:
the observed-scale coefficient beta_j is normal around a latent b_j with
shared variance sigma0^2, and b_j carries an adaptive prior supplied by a
``PriorModel``.  A sweep cycles three exact ascent steps on the evidence
lower bound: a conjugate coordinate update of every beta_j against partial
residuals, a delegated empirical-Bayes refit of the prior plus latent
posterior refresh (the normal-means step), and closed-form variance updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .ash import PosteriorStats, PosteriorSummary
from .data import Dataset, SideInfo, StandardizedDesign, standardize, unstandardize
from .errors import (
    ConfigError,
    DimensionMismatchError,
    NonPositiveVarianceError,
    StaleStateError,
)

LOG_2PI = float(np.log(2.0 * np.pi))
VARIANCE_FLOOR = 1e-12


class PriorModel(Protocol):
    """Prior families the engine can delegate the normal-means step to."""

    kind: str
    side_kind: str

    def update(self, beta_bar: np.ndarray, sigma02: float) -> PosteriorStats:
        """Refit prior parameters and return fresh per-coordinate posteriors."""
        ...

    def prior_null_mass(self) -> np.ndarray | None:
        """Prior point-mass-at-zero weight per coordinate (None if undefined)."""
        ...

    def params_dict(self) -> dict:
        """Serializable prior parameters."""
        ...


@dataclass
class FitConfig:
    max_sweeps: int = 200
    elbo_tol: float = 1e-6
    init_beta: np.ndarray | None = None
    init_sigma2: float | None = None
    init_sigma02: float | None = None

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ConfigError("max_sweeps must be at least 1")
        if not 0 < self.elbo_tol < math.inf:
            raise ConfigError(f"elbo_tol must be positive and finite, got {self.elbo_tol}")
        for name in ("init_sigma2", "init_sigma02"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.init_beta is not None and not np.isfinite(self.init_beta).all():
            raise ConfigError("init_beta must be finite")


@dataclass
class FitState:
    """Mutable state of one fit, in standardized coordinates."""

    beta_bar: np.ndarray
    b_bar: np.ndarray
    b_var: np.ndarray
    r_bar: np.ndarray
    sigma2: float
    sigma02: float
    s_j2: float
    beta_mle: np.ndarray
    log_marginal: np.ndarray
    null_prob: np.ndarray
    elbo_trace: list[float] = field(default_factory=list)
    sweep_count: int = 0
    posterior_fresh: bool = False


@dataclass
class FitResult:
    """Everything a finished fit exposes."""

    state: FitState
    coefficients: np.ndarray
    intercept: float
    summaries: PosteriorStats
    converged: bool
    sweeps: int
    prior_kind: str
    prior_params: dict
    prior_null_mass: float
    config: FitConfig
    fitted_values: np.ndarray

    @property
    def elbo_trace(self) -> list[float]:
        return self.state.elbo_trace

    def summary(self, j: int) -> PosteriorSummary:
        return self.summaries.summary(j)


def dampening_weight(c: float, sigma2: float, sigma02: float) -> float:
    """Data-driven dampening weight omega = c sigma0^2 / (sigma^2 + c sigma0^2), column norm ``c``."""
    if c <= 0:
        raise ConfigError(f"column norm must be positive, got {c}")
    if sigma2 <= 0 or sigma02 <= 0:
        raise NonPositiveVarianceError("variances must be strictly positive")
    m = float(c)
    return m * sigma02 / (sigma2 + m * sigma02)


def coefficient_variance(c: float, sigma2: float, sigma02: float) -> float:
    """Shared conjugate posterior variance of each beta_j: (c/s2 + 1/s02)^-1, column norm ``c``."""
    return 1.0 / (c / sigma2 + 1.0 / sigma02)


def init_state(design: StandardizedDesign, config: FitConfig) -> FitState:
    n, p = design.Xs.shape
    if config.init_beta is not None:
        beta = np.asarray(config.init_beta, dtype=float).copy()
        if beta.shape != (p,):
            raise DimensionMismatchError("init_beta has the wrong length")
    else:
        beta = np.zeros(p)
    sigma2 = config.init_sigma2 if config.init_sigma2 is not None else float(np.var(design.ys, ddof=1))
    sigma2 = max(sigma2, VARIANCE_FLOOR)
    sigma02 = config.init_sigma02 if config.init_sigma02 is not None else sigma2 / p
    sigma02 = max(sigma02, VARIANCE_FLOOR)
    return FitState(
        beta_bar=beta,
        b_bar=np.zeros(p),
        b_var=np.zeros(p),
        r_bar=design.ys - design.Xs @ beta,
        sigma2=sigma2,
        sigma02=sigma02,
        s_j2=coefficient_variance(n - 1, sigma2, sigma02),
        beta_mle=np.zeros(p),
        log_marginal=np.zeros(p),
        null_prob=np.zeros(p),
    )


def elbo_terms(state: FitState, n: int, c: float, rss: float) -> tuple[float, float, float]:
    """The three ELBO terms; requires latent posteriors fresh from the prior step.

    ``n`` counts observations, ``c`` is the column norm x_j^T x_j and ``rss``
    the residual sum of squares at ``state.beta_bar``.  Term 1 is the expected
    Gaussian log likelihood plus the entropy of the coefficient posteriors;
    term 2 is the expected coefficient-given-latent log density; term 3 is the
    expected prior-over-posterior log ratio of the latents, evaluated through
    the exact-subposterior identity, which is why freshness matters.
    """
    if not state.posterior_fresh:
        raise StaleStateError("latent posteriors are stale; ELBO undefined at this point in the sweep")
    p = state.beta_bar.size
    sigma2, sigma02, s_j2 = state.sigma2, state.sigma02, state.s_j2
    t1 = (
        -0.5 * n * (LOG_2PI + math.log(sigma2))
        - (rss + c * p * s_j2) / (2.0 * sigma2)
        + 0.5 * p * (LOG_2PI + 1.0 + math.log(s_j2))
    )
    gap2 = float(np.sum(state.b_var + (state.beta_bar - state.b_bar) ** 2))
    t2 = -0.5 * p * (LOG_2PI + math.log(sigma02)) - (p * s_j2 + gap2) / (2.0 * sigma02)
    t3 = float(state.log_marginal.sum()) + 0.5 * p * (LOG_2PI + math.log(sigma02)) + gap2 / (2.0 * sigma02)
    return t1, t2, t3


def compute_elbo(state: FitState, n: int, c: float, rss: float) -> float:
    """Evidence lower bound at the fresh point of the sweep."""
    t1, t2, t3 = elbo_terms(state, n, c, rss)
    return t1 + t2 + t3


def update_sigma2(state: FitState, n: int, c: float, rss: float) -> float:
    """Closed-form residual-variance update (floored at 1e-12)."""
    value = (rss + c * state.beta_bar.size * state.s_j2) / n
    return max(value, VARIANCE_FLOOR)


def update_sigma02(state: FitState) -> float:
    """Closed-form latent-gap variance update (floored at 1e-12)."""
    value = float(np.mean(state.s_j2 + state.b_var + (state.beta_bar - state.b_bar) ** 2))
    return max(value, VARIANCE_FLOOR)


def _coordinate_pass(state: FitState, design: StandardizedDesign, omega: float) -> None:
    """One cycle of conjugate coefficient updates over all columns.

    Each beta_j becomes the convex blend ``omega * ols + (1 - omega) * b_bar_j``
    of its least-squares estimate and its latent prior mean.

    Works on one copy of the residual per sweep, so an ``r_bar`` array the
    caller still holds is left alone, and updates it in place with BLAS
    ``ddot``/``daxpy`` on the Fortran-ordered columns of ``Xs``.  Because
    ``standardize`` scales every column to x_j^T x_j = n-1, the least-squares
    estimate against the partial residual r + x_j beta_j is
    x_j^T r / (n-1) + beta_j, so the partial residual is never formed.
    """
    # imported once per sweep, here to keep scipy out of `import nash`
    from scipy.linalg.blas import daxpy, ddot

    Xs = np.asfortranarray(design.Xs, dtype=float)
    n, p = Xs.shape
    columns = Xs.ravel(order="F")
    scale = n - 1
    beta = state.beta_bar.tolist()
    b_bar = state.b_bar.tolist()
    mle = [0.0] * p
    r = np.array(state.r_bar, dtype=float)
    for j in range(p):
        offset = j * n
        old = beta[j]
        ols = ddot(columns, r, n, offset) / scale + old
        mle[j] = ols
        new = omega * ols + (1.0 - omega) * b_bar[j]
        if new != old:
            r = daxpy(columns, r, n, old - new, offset)
            beta[j] = new
    state.beta_bar[:] = beta
    state.beta_mle[:] = mle
    state.r_bar = r
    state.posterior_fresh = False


def split_step(state: FitState, prior: PriorModel, n: int, c: float, rss: float) -> None:
    """Everything of a sweep after the coefficient pass, recording the ELBO at its fresh point.

    Order of operations: prior refit plus latent posterior refresh, ELBO
    evaluation (the only point in the sweep where the subposterior identity
    holds), then the variance updates.  ``n`` counts observations, ``c`` is
    the column norm x_j^T x_j (n-1 for a standardized design, 1 for the
    identity design of a denoised image) and ``rss`` the residual sum of
    squares after the pass, computed by the caller.
    """
    stats = prior.update(state.beta_bar, state.sigma02)
    state.b_bar = np.asarray(stats.mean, dtype=float)
    state.b_var = np.asarray(stats.variance, dtype=float)
    state.null_prob = np.asarray(stats.null_prob, dtype=float)
    state.log_marginal = np.asarray(stats.log_marginal, dtype=float)
    state.posterior_fresh = True
    state.elbo_trace.append(compute_elbo(state, n, c, rss))
    state.sigma2 = update_sigma2(state, n, c, rss)
    state.sigma02 = update_sigma02(state)
    # the subposterior identity behind term 3 is tied to the sigma02 the
    # normal-means step ran with, so new variances invalidate the ELBO point
    state.posterior_fresh = False
    state.sweep_count += 1


def sweep(state: FitState, design: StandardizedDesign, prior: PriorModel) -> FitState:
    """One full coordinate-ascent sweep: the pass over standardized columns (norm n-1), then ``split_step``."""
    n = design.Xs.shape[0]
    state.s_j2 = coefficient_variance(n - 1, state.sigma2, state.sigma02)
    _coordinate_pass(state, design, dampening_weight(n - 1, state.sigma2, state.sigma02))
    split_step(state, prior, n, n - 1, float(state.r_bar @ state.r_bar))
    return state


def fit(dataset: Dataset, side_info: SideInfo, prior: PriorModel, config: FitConfig | None = None) -> FitResult:
    """Fit the model by coordinate ascent until the ELBO stabilizes.

    Runs sweeps until the relative ELBO change drops below ``config.elbo_tol``
    or ``config.max_sweeps`` is reached; failure to converge is reported via
    the flag on the result, not an exception.  Identical inputs (and, for
    network priors, identical training seeds) give bit-identical results.
    """
    if config is None:
        config = FitConfig()
    if prior.side_kind != side_info.kind:
        raise ConfigError(
            f"{prior.kind!r} prior requires side information of kind {prior.side_kind!r}, got {side_info.kind!r}"
        )
    design = standardize(dataset)
    side_info.check_p(design.p)
    state = init_state(design, config)
    converged = False
    for _ in range(config.max_sweeps):
        sweep(state, design, prior)
        if len(state.elbo_trace) >= 2:
            cur, prev = state.elbo_trace[-1], state.elbo_trace[-2]
            if abs(cur - prev) <= config.elbo_tol * (1.0 + abs(cur)):
                converged = True
                break
    coefficients, intercept = unstandardize(state.beta_bar, design)
    summaries = PosteriorStats(
        mean=state.b_bar.copy(),
        variance=state.b_var.copy(),
        null_prob=state.null_prob.copy(),
        log_marginal=state.log_marginal.copy(),
    )
    fitted = design.y_mean + design.Xs @ state.beta_bar
    null_mass = prior.prior_null_mass()
    return FitResult(
        state=state,
        coefficients=coefficients,
        intercept=intercept,
        summaries=summaries,
        converged=converged,
        sweeps=state.sweep_count,
        prior_kind=prior.kind,
        prior_params=prior.params_dict(),
        prior_null_mass=float(np.mean(null_mass)) if null_mass is not None else 0.0,
        config=config,
        fitted_values=fitted,
    )


def predict(result: FitResult, X_new: np.ndarray) -> np.ndarray:
    """Predict responses for raw-unit predictors."""
    X_new = np.asarray(X_new, dtype=float)
    if X_new.ndim != 2 or X_new.shape[1] != result.coefficients.size:
        raise DimensionMismatchError(
            f"expected {result.coefficients.size} columns, got {X_new.shape}"
        )
    return X_new @ result.coefficients + result.intercept
