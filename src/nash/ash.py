"""Adaptive-shrinkage mixture prior: a point mass at zero plus zero-mean normals.

This is the covariate-free prior family.  Component variances live on a fixed
ascending grid whose first entry is exactly zero; only the mixture weights are
estimated, by expectation-maximization on the marginal likelihood of the
noisy coefficient estimates.  Posteriors are conjugate and available in
closed form per component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SideInfo
from .errors import ConfigError

LOG_2PI = float(np.log(2.0 * np.pi))
GAUSSIAN_MAD = 0.6744897501960817  # third quartile of the standard normal
N_COMPONENTS = 20  # default size of the variance grid, point mass included


@dataclass(frozen=True)
class MixtureGrid:
    """Ascending component variances; the first entry is the point mass at zero."""

    variances: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.variances, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("variance grid must be a non-empty vector")
        if v[0] != 0.0:
            raise ValueError("first grid entry must be exactly 0 (point mass)")
        if not np.isfinite(v).all():
            raise ValueError("grid variances must be finite")
        if v.size > 1 and not np.all(np.diff(v) > 0):
            raise ValueError("grid variances must be strictly ascending")
        object.__setattr__(self, "variances", v)

    @property
    def n_components(self) -> int:
        return self.variances.size


@dataclass(frozen=True)
class MixtureWeights:
    """Simplex vector of mixture proportions."""

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        if pi.ndim != 1 or not np.isfinite(pi).all() or np.any(pi < 0):
            raise ValueError("weights must be a finite non-negative vector")
        if abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {pi.sum()}, not 1")
        object.__setattr__(self, "pi", pi)

    @classmethod
    def uniform(cls, m: int) -> "MixtureWeights":
        return cls(np.full(m, 1.0 / m))


@dataclass(frozen=True)
class PosteriorStats:
    """Posterior summaries of every coordinate, one array entry per coordinate."""

    mean: np.ndarray
    variance: np.ndarray
    null_prob: np.ndarray
    log_marginal: np.ndarray


def default_grid(beta_bar: np.ndarray, sigma02: float, n_components: int) -> MixtureGrid:
    """Build the default variance grid: zero plus a geometric ladder.

    The ladder runs from sigma02/100 up to max(4*(max beta^2 - sigma02), sigma02),
    so it always spans at least two decades and covers the observed spread.
    """
    if n_components < 2:
        raise ValueError("need at least two mixture components")
    beta_bar = np.asarray(beta_bar, dtype=float)
    lower = sigma02 / 100.0
    upper = max(4.0 * (float(np.max(beta_bar**2, initial=0.0)) - sigma02), sigma02)
    if n_components == 2:
        ladder = np.array([upper])
    else:
        ladder = np.geomspace(lower, upper, n_components - 1)
    return MixtureGrid(np.concatenate(([0.0], ladder)))


def marginal_loglik_matrix(beta_bar: np.ndarray, sigma02: float, variances: np.ndarray | float,
                           means: np.ndarray | None = None) -> np.ndarray:
    """log N(beta_j; m_jk, sigma02 + v_jk) for every coordinate j and component k.

    ``variances`` (and ``means``) are one row shared by every coordinate or one
    row per coordinate; ``means`` None is zero-mean components.  Every mixture
    prior's likelihood matrix is built here, once per update.
    """
    if sigma02 <= 0:
        raise ValueError("sigma02 must be positive")
    beta_bar = np.asarray(beta_bar, dtype=float)
    total_var = sigma02 + np.asarray(variances, dtype=float)
    d = beta_bar[:, None] if means is None else beta_bar[:, None] - means
    return -0.5 * (LOG_2PI + np.log(total_var) + d**2 / total_var)


def _log_weights(pi: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(pi > 0, np.log(np.maximum(pi, 1e-300)), -np.inf)


def mixture_objective(log_lik: np.ndarray, pi: np.ndarray) -> float:
    """Marginal log likelihood sum_j log sum_m pi_m exp(L_jm)."""
    # imported here to keep scipy out of `import nash`
    from scipy.special import logsumexp

    return float(logsumexp(log_lik + _log_weights(pi)[None, :], axis=1).sum())


def fit_weights_em(
    log_lik: np.ndarray,
    init: MixtureWeights,
    max_iter: int = 1000,
    tol: float = 1e-8,
) -> MixtureWeights:
    """Estimate mixture weights by EM on the marginal likelihood.

    The loop runs in likelihood space on ``lik = exp(log_lik - rowmax)``,
    built once per call, where ``rowmax`` is each row's largest entry over the
    components that ``init`` gives positive weight (the only ones EM can ever
    weight).  With ``s = lik @ pi`` an EM step is ``pi *= lik.T @ (1/s) / p``
    followed by renormalisation, and the objective is
    ``log(s).sum() + rowmax.sum()`` from the same ``s``: two mat-vecs per
    iteration and no ``logsumexp``.  Every row keeps an entry of 1 under a
    positively weighted component, so ``s`` never underflows to zero.  The
    objective is non-decreasing and the loop stops once its relative change
    drops below ``tol``.
    """
    log_lik = np.asarray(log_lik, dtype=float)
    if not np.isfinite(log_lik).all():
        raise ValueError("log-likelihood matrix must be finite")
    p, m = log_lik.shape
    if init.pi.size != m:
        raise ValueError("weight length does not match the likelihood matrix")
    if m == 1:
        return MixtureWeights(np.array([1.0]))
    support = np.flatnonzero(init.pi > 0)
    if support.size < m:
        log_lik = log_lik[:, support]
    rowmax = log_lik.max(axis=1)
    offset = float(rowmax.sum())
    lik = np.exp(log_lik - rowmax[:, None])
    pi = init.pi[support]
    s = lik @ pi
    prev = float(np.log(s).sum()) + offset
    for _ in range(max_iter):
        pi = pi * (lik.T @ (1.0 / s)) / p
        pi /= pi.sum()
        s = lik @ pi
        cur = float(np.log(s).sum()) + offset
        if abs(cur - prev) <= tol * (1.0 + abs(prev)):
            break
        prev = cur
    out = np.zeros(m)
    out[support] = pi
    return MixtureWeights(out)


def _responsibilities(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row log normalisers and responsibilities of ``a`` = log-likelihood + log-weights.

    One ``exp`` per entry: with ``rowmax`` each row's largest entry,
    ``e = exp(a - rowmax)`` and ``s = e.sum(1)``, the responsibilities are
    ``e / s`` and the log normalisers ``log s + rowmax``.  ``-inf`` entries
    (zero weights) get responsibility 0; every row needs one finite entry.
    Applied to logits it is the softmax and its log normaliser.
    """
    rowmax = a.max(axis=1, keepdims=True)
    e = a - rowmax
    np.exp(e, out=e)
    s = e.sum(axis=1, keepdims=True)
    e /= s
    return np.log(s[:, 0]) + rowmax[:, 0], e


def mixture_posterior_stats(beta_bar: np.ndarray, sigma02: float, log_lik: np.ndarray, weights: np.ndarray,
                            variances: np.ndarray, means: np.ndarray | None = None) -> PosteriorStats:
    """Posterior summaries of every coordinate under a mixture whose column 0 is the point mass.

    The one posterior of all three mixture priors.  ``log_lik`` is
    ``marginal_loglik_matrix(beta_bar, sigma02, variances, means)``, which the
    caller has already built for EM or training; ``weights`` is one simplex or
    a p x M matrix of them.  Component k's conjugate posterior has variance
    v sigma02 / (v + sigma02) and mean beta_bar v / (v + sigma02), or
    (beta_bar v + m sigma02) / (v + sigma02) with means (it rounds differently).
    """
    beta_bar = np.asarray(beta_bar, dtype=float)
    log_marginal, gamma = _responsibilities(log_lik + _log_weights(np.asarray(weights, dtype=float)))
    variances = np.asarray(variances, dtype=float)
    if means is None:
        shrink = variances / (variances + sigma02)
        comp_mean, comp_var = beta_bar[:, None] * shrink, sigma02 * shrink
    else:
        total_var = sigma02 + variances
        comp_mean = (beta_bar[:, None] * variances + means * sigma02) / total_var
        comp_var = variances * sigma02 / total_var
    mean = (gamma * comp_mean).sum(axis=1)
    second = (gamma * (comp_var + comp_mean**2)).sum(axis=1)
    return PosteriorStats(
        mean=mean,
        variance=np.maximum(second - mean**2, 0.0),
        null_prob=gamma[:, 0],
        log_marginal=log_marginal,
    )


class AshPrior:
    """Shared adaptive-shrinkage prior for the coordinate-ascent engine.

    The variance grid is built from the first batch of coefficient estimates
    it sees and then kept fixed; EM weights warm-start from the previous sweep
    so every refit can only improve the marginal likelihood.
    """

    kind = "ash"
    side_info = SideInfo.none()

    def __init__(self, n_components: int = N_COMPONENTS, grid: MixtureGrid | None = None):
        if grid is None and n_components < 2:
            raise ConfigError(f"need at least two mixture components, got {n_components}")
        self.n_components = n_components if grid is None else grid.n_components
        self.grid = grid
        self.weights: MixtureWeights | None = None

    def update(self, beta_bar: np.ndarray, sigma02: float) -> PosteriorStats:
        if self.grid is None:
            self.grid = default_grid(beta_bar, sigma02, self.n_components)
        log_lik = marginal_loglik_matrix(beta_bar, sigma02, self.grid.variances)
        init = self.weights if self.weights is not None else MixtureWeights.uniform(self.grid.n_components)
        self.weights = fit_weights_em(log_lik, init)
        return mixture_posterior_stats(beta_bar, sigma02, log_lik, self.weights.pi, self.grid.variances)

    @property
    def updated(self) -> bool:
        return self.weights is not None

    def prior_null_mass(self) -> np.ndarray | None:
        return np.array([self.weights.pi[0]]) if self.updated else None

    def params_dict(self) -> dict:
        if not self.updated:
            return {}
        return {
            "variances": self.grid.variances.tolist(),
            "weights": self.weights.pi.tolist(),
        }
