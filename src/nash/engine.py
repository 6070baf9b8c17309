"""Split variational empirical-Bayes coordinate ascent for sparse regression.

The model is a Gaussian likelihood with per-coefficient latent means:
the observed-scale coefficient beta_j is normal around a latent b_j with
shared variance sigma0^2, and b_j carries an adaptive prior supplied by a
``PriorModel``.  A sweep cycles three exact ascent steps on the evidence
lower bound: a conjugate coordinate update of every beta_j against partial
residuals, a delegated empirical-Bayes refit of the prior plus latent
posterior refresh (the normal-means step), and closed-form variance updates.

The coordinate pass runs on one of two forms of the standardized design,
chosen by shape alone.  When n < p it keeps the residual r = ys - Xs beta
(n numbers) and streams the n x p ``Xs``.  When n >= p it keeps z = Xs^T r
(p numbers) and reads the p x p Gram matrix G = Xs^T Xs, built once per fit
from row blocks of the raw X, so a coordinate costs O(p) and ``Xs`` is never
made.  Both forms give the same fit up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .ash import LOG_2PI, PosteriorStats
from .data import Dataset, GramDesign, SideInfo, StandardizedDesign, standardize, unstandardize
from .errors import (
    ConfigError,
    DimensionMismatchError,
    NonPositiveVarianceError,
    StaleStateError,
)

VARIANCE_FLOOR = 1e-12


class PriorModel(Protocol):
    """Prior families the engine can delegate the normal-means step to: ``fit`` rejects side
    information other than ``side_info``, the one the prior was built on, and an ``updated`` prior."""

    kind: str
    side_info: SideInfo
    updated: bool

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
    """Mutable state of one fit, in standardized coordinates; ``posterior`` is the last prior step's.

    ``r_bar`` is the residual the coordinate pass keeps in the design's form:
    ys - Xs beta_bar on the column form, z = Xs^T (ys - Xs beta_bar) on the Gram form.
    """

    beta_bar: np.ndarray
    r_bar: np.ndarray
    sigma2: float
    sigma02: float
    s_j2: float
    beta_mle: np.ndarray
    posterior: PosteriorStats
    elbo_trace: list[float] = field(default_factory=list)
    posterior_fresh: bool = False


@dataclass
class FitResult:
    """Everything a finished fit exposes; ``summaries`` is ``state.posterior``."""

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


def dampening_weight(c: float, sigma2: float, sigma02: float) -> float:
    """Data-driven dampening weight omega = c sigma0^2 / (sigma^2 + c sigma0^2), column norm ``c``."""
    if c <= 0:
        raise ConfigError(f"column norm must be positive, got {c}")
    if sigma2 <= 0 or sigma02 <= 0:
        raise NonPositiveVarianceError("variances must be strictly positive")
    return c * sigma02 / (sigma2 + c * sigma02)


def coefficient_variance(c: float, sigma2: float, sigma02: float) -> float:
    """Shared conjugate posterior variance of each beta_j: (c/s2 + 1/s02)^-1, column norm ``c``."""
    return 1.0 / (c / sigma2 + 1.0 / sigma02)


def init_state(design: StandardizedDesign | GramDesign, config: FitConfig) -> FitState:
    n, p = design.n, design.p
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
        r_bar=design.residual(beta),
        sigma2=sigma2,
        sigma02=sigma02,
        s_j2=coefficient_variance(n - 1, sigma2, sigma02),
        beta_mle=np.zeros(p),
        posterior=PosteriorStats(np.zeros(p), np.zeros(p), np.zeros(p), np.zeros(p)),
    )


def elbo_terms(state: FitState, n: int, rss: float) -> tuple[float, float, float]:
    """The three ELBO terms; requires latent posteriors fresh from the prior step.

    ``n`` counts observations (standardized columns have norm n-1) and ``rss``
    is the residual sum of squares at ``state.beta_bar``.  Term 1 is the
    expected Gaussian log likelihood plus the entropy of the coefficient
    posteriors; term 2 is the expected coefficient-given-latent log density;
    term 3 is the expected prior-over-posterior log ratio of the latents, via
    the exact-subposterior identity, which is why freshness matters.
    """
    if not state.posterior_fresh:
        raise StaleStateError("latent posteriors are stale; ELBO undefined at this point in the sweep")
    p = state.beta_bar.size
    sigma2, sigma02, s_j2 = state.sigma2, state.sigma02, state.s_j2
    t1 = (
        -0.5 * n * (LOG_2PI + math.log(sigma2))
        - (rss + (n - 1) * p * s_j2) / (2.0 * sigma2)
        + 0.5 * p * (LOG_2PI + 1.0 + math.log(s_j2))
    )
    post = state.posterior
    gap2 = float(np.sum(post.variance + (state.beta_bar - post.mean) ** 2))
    t2 = -0.5 * p * (LOG_2PI + math.log(sigma02)) - (p * s_j2 + gap2) / (2.0 * sigma02)
    t3 = float(post.log_marginal.sum()) + 0.5 * p * (LOG_2PI + math.log(sigma02)) + gap2 / (2.0 * sigma02)
    return t1, t2, t3


def compute_elbo(state: FitState, n: int, rss: float) -> float:
    """Evidence lower bound at the fresh point of the sweep."""
    t1, t2, t3 = elbo_terms(state, n, rss)
    return t1 + t2 + t3


def update_sigma2(state: FitState, n: int, rss: float) -> float:
    """Closed-form residual-variance update (floored at 1e-12)."""
    value = (rss + (n - 1) * state.beta_bar.size * state.s_j2) / n
    return max(value, VARIANCE_FLOOR)


def update_sigma02(state: FitState) -> float:
    """Closed-form latent-gap variance update (floored at 1e-12)."""
    post = state.posterior
    value = float(np.mean(state.s_j2 + post.variance + (state.beta_bar - post.mean) ** 2))
    return max(value, VARIANCE_FLOOR)


def _coordinate_pass(state: FitState, design: StandardizedDesign | GramDesign, omega: float) -> None:
    """One cycle of conjugate coefficient updates over all columns.

    Each beta_j becomes the convex blend ``omega * ols + (1 - omega) * b_bar_j``
    of its least-squares estimate and its latent prior mean.  Because
    ``standardize`` scales every column to x_j^T x_j = n-1, the least-squares
    estimate against the partial residual r + x_j beta_j is
    x_j^T r / (n-1) + beta_j, so the partial residual is never formed.

    Works on one copy of the kept residual per sweep, so an ``r_bar`` array
    the caller still holds is left alone, and updates it in place with BLAS
    ``daxpy`` on the Fortran-ordered columns of a matrix.  The two forms
    differ only there: on the column form x_j^T r is a ``ddot`` with column j
    of ``Xs`` and a change d in beta_j is ``r -= x_j d``; on the Gram form
    x_j^T r is z_j and the change is ``z -= G[:, j] d``.
    """
    # imported once per sweep, here to keep scipy out of `import nash`
    from scipy.linalg.blas import daxpy, ddot

    gram = isinstance(design, GramDesign)
    matrix = np.asfortranarray(design.G if gram else design.Xs, dtype=float)
    m, p = matrix.shape
    columns = matrix.ravel(order="F")
    scale = design.n - 1
    beta = state.beta_bar.tolist()
    b_bar = state.posterior.mean.tolist()
    mle = [0.0] * p
    r = np.array(state.r_bar, dtype=float)
    for j in range(p):
        offset = j * m
        old = beta[j]
        ols = (r[j] if gram else ddot(columns, r, m, offset)) / scale + old
        mle[j] = ols
        new = omega * ols + (1.0 - omega) * b_bar[j]
        if new != old:
            r = daxpy(columns, r, m, old - new, offset)
            beta[j] = new
    state.beta_bar[:] = beta
    state.beta_mle[:] = mle
    state.r_bar = r
    state.posterior_fresh = False


def sweep(state: FitState, design: StandardizedDesign | GramDesign, prior: PriorModel) -> FitState:
    """One full coordinate-ascent sweep, recording the ELBO at its fresh point.

    Order of operations: coefficient pass over the standardized columns
    (norm n-1), prior refit plus latent posterior refresh, ELBO evaluation
    (the only point in the sweep where the subposterior identity holds), then
    the variance updates.
    """
    n = design.n
    state.s_j2 = coefficient_variance(n - 1, state.sigma2, state.sigma02)
    _coordinate_pass(state, design, dampening_weight(n - 1, state.sigma2, state.sigma02))
    rss = design.rss(state.beta_bar, state.r_bar)
    state.posterior = prior.update(state.beta_bar, state.sigma02)
    state.posterior_fresh = True
    state.elbo_trace.append(compute_elbo(state, n, rss))
    state.sigma2 = update_sigma2(state, n, rss)
    state.sigma02 = update_sigma02(state)
    # the subposterior identity behind term 3 is tied to the sigma02 the
    # normal-means step ran with, so new variances invalidate the ELBO point
    state.posterior_fresh = False
    return state


def fit(dataset: Dataset, side_info: SideInfo, prior: PriorModel, config: FitConfig | None = None) -> FitResult:
    """Fit the model by coordinate ascent until the ELBO stabilizes.

    Runs sweeps until the relative ELBO change drops below ``config.elbo_tol``
    or ``config.max_sweeps`` is reached; failure to converge is reported via
    the flag on the result, not an exception.  Identical inputs (and, for
    network priors, identical training seeds) give bit-identical results.  A
    prior object serves one fit: one whose ``updated`` reads True is rejected,
    and so is a ``side_info`` other than the ``prior.side_info`` it was built on.
    The coordinate pass runs on the Gram form when n >= p and on the columns
    of the standardized design otherwise.
    """
    if config is None:
        config = FitConfig()
    prior.side_info.check_given(side_info, prior.kind)
    if prior.updated:
        raise ConfigError(f"this {prior.kind!r} prior has already been fitted; give each fit a new prior object")
    design = standardize(dataset, gram=dataset.n >= dataset.p)
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
    fitted = design.fitted(state.beta_bar)
    null_mass = prior.prior_null_mass()
    return FitResult(
        state=state,
        coefficients=coefficients,
        intercept=intercept,
        summaries=state.posterior,
        converged=converged,
        sweeps=len(state.elbo_trace),
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
