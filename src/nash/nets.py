"""Side-information priors backed by small dense networks.

Two families: a softmax network mapping per-covariate features to mixture
weights over a fixed variance grid, and a mixture-density network whose
heads emit component weights (including the point mass at zero), means and
log variances.  Both are trained by ascending the marginal likelihood of
the noisy coefficient estimates with hand-written reverse-mode gradients
and Adam; no external ML runtime is involved, the networks are tiny.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ash import (
    LOG_2PI,
    MixtureGrid,
    PosteriorStats,
    _log_weights,
    _mixture_stats,
    _responsibilities,
    default_grid,
    marginal_loglik_matrix,
    mixture_posterior_stats,
)
from .errors import ConfigError, DimensionMismatchError, NonFiniteGradientError


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    steps: int = 500
    later_steps: int = 50
    batch_size: int | None = None  # None: full batch up to 4096 rows
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.steps < 1 or self.later_steps < 1:
            raise ConfigError("training hyperparameters must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ConfigError("Adam moment decays must lie in (0, 1)")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")


class Adam:
    """Adam ascent on a list of parameter arrays (updates in place)."""

    def __init__(self, params: list[np.ndarray], lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p += self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    return z - _responsibilities(z)[0][:, None]


def _softmax(z: np.ndarray) -> np.ndarray:
    return _responsibilities(z)[1]


class _DenseNet:
    """Shared plumbing: parameter lists, flattening, input checks."""

    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        raise NotImplementedError

    def parameters(self) -> list[np.ndarray]:
        return [p for _, p in self.named_parameters()]

    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.parameters()])

    def set_flat(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float)
        offset = 0
        for p in self.parameters():
            p[...] = theta[offset:offset + p.size].reshape(p.shape)
            offset += p.size
        if offset != theta.size:
            raise DimensionMismatchError("flat parameter vector has the wrong length")

    def _check_input(self, D: np.ndarray) -> np.ndarray:
        """Feature rows as a 2-d array; a single feature vector becomes one row."""
        D = np.asarray(D, dtype=float)
        if D.ndim == 1:
            D = D[None, :]
        if D.shape[1] != self.n_features:
            raise DimensionMismatchError(f"expected {self.n_features} features, got {D.shape[1]}")
        return D


class SoftmaxPriorNet(_DenseNet):
    """Features -> simplex of mixture weights; depth 0 or one hidden layer."""

    def __init__(self, n_features: int, n_components: int, hidden: int = 0, seed: int = 0):
        self.n_features = n_features
        self.n_components = n_components
        self.hidden = hidden
        rng = np.random.default_rng(seed)
        if hidden:
            self.w1 = rng.normal(0.0, 1.0 / np.sqrt(n_features), size=(n_features, hidden))
            self.b1 = np.zeros(hidden)
            self.w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(hidden, n_components))
            self.b2 = np.zeros(n_components)
        else:
            self.w = rng.normal(0.0, 1.0 / np.sqrt(n_features), size=(n_features, n_components))
            self.b = np.zeros(n_components)

    def named_parameters(self):
        if self.hidden:
            return [("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2)]
        return [("w", self.w), ("b", self.b)]

    def _logits(self, D: np.ndarray):
        if self.hidden:
            pre = D @ self.w1 + self.b1
            h = _relu(pre)
            return h @ self.w2 + self.b2, (pre, h)
        return D @ self.w + self.b, None

    def forward(self, D: np.ndarray) -> np.ndarray:
        """Mixture weights for one feature vector or a stack of them."""
        batch = self._check_input(D)
        z, _ = self._logits(batch)
        probs = _softmax(z)
        return probs[0] if np.asarray(D).ndim == 1 else probs

    def objective(self, D: np.ndarray, log_lik: np.ndarray) -> float:
        """Marginal log likelihood sum_j log sum_m pi_m(d_j) exp(L_jm)."""
        z, _ = self._logits(self._check_input(D))
        return float(_responsibilities(_log_softmax(z) + log_lik)[0].sum())

    def objective_and_gradients(self, D: np.ndarray, log_lik: np.ndarray):
        D = self._check_input(D)
        z, cache = self._logits(D)
        log_norm, pi = _responsibilities(z)
        log_marginal, gamma = _responsibilities(z - log_norm[:, None] + log_lik)
        obj = float(log_marginal.sum())
        g_z = gamma - pi
        if self.hidden:
            pre, h = cache
            g_w2 = h.T @ g_z
            g_b2 = g_z.sum(axis=0)
            g_h = (g_z @ self.w2.T) * (pre > 0)
            g_w1 = D.T @ g_h
            g_b1 = g_h.sum(axis=0)
            return obj, [g_w1, g_b1, g_w2, g_b2]
        return obj, [D.T @ g_z, g_z.sum(axis=0)]


def _mdn_logdens(beta_bar, sigma02: float, means, variances):
    """Per-component log densities of beta_bar under the MDN mixture, and sigma02 + variances.

    Column 0 is the point mass at zero, N(beta_j; 0, sigma02); column k is
    N(beta_j; mean_jk, sigma02 + variance_jk).
    """
    beta_bar = np.asarray(beta_bar, dtype=float)
    c0 = -0.5 * (LOG_2PI + np.log(sigma02) + beta_bar**2 / sigma02)
    v = sigma02 + variances
    ck = -0.5 * (LOG_2PI + np.log(v) + (beta_bar[:, None] - means) ** 2 / v)
    return np.column_stack([c0, ck]), v


class MdnPriorNet(_DenseNet):
    """Mixture-density network: weights (with null mass), means and log variances.

    Zero parameters give the documented neutral output: uniform weights,
    zero means, unit variances.
    """

    def __init__(self, n_features: int, n_components: int = 5, hidden: int = 16, seed: int = 0):
        self.n_features = n_features
        self.n_components = n_components
        self.hidden = hidden
        rng = np.random.default_rng(seed)
        width = hidden if hidden else n_features
        if hidden:
            self.w1 = rng.normal(0.0, 1.0 / np.sqrt(n_features), size=(n_features, hidden))
            self.b1 = np.zeros(hidden)
        self.w_pi = rng.normal(0.0, 0.1 / np.sqrt(width), size=(width, n_components + 1))
        self.b_pi = np.zeros(n_components + 1)
        self.w_mu = rng.normal(0.0, 0.1 / np.sqrt(width), size=(width, n_components))
        self.b_mu = np.zeros(n_components)
        self.w_var = rng.normal(0.0, 0.1 / np.sqrt(width), size=(width, n_components))
        self.b_var = np.zeros(n_components)

    def named_parameters(self):
        heads = [("w_pi", self.w_pi), ("b_pi", self.b_pi), ("w_mu", self.w_mu),
                 ("b_mu", self.b_mu), ("w_var", self.w_var), ("b_var", self.b_var)]
        if self.hidden:
            return [("w1", self.w1), ("b1", self.b1)] + heads
        return heads

    def _trunk(self, D: np.ndarray):
        if self.hidden:
            pre = D @ self.w1 + self.b1
            return _relu(pre), pre
        return D, None

    def forward(self, D: np.ndarray):
        """Per-row (weights incl. null, means, variances)."""
        single = np.asarray(D).ndim == 1
        h, _ = self._trunk(self._check_input(D))
        weights = _softmax(h @ self.w_pi + self.b_pi)
        means = h @ self.w_mu + self.b_mu
        variances = np.exp(h @ self.w_var + self.b_var)
        if single:
            return weights[0], means[0], variances[0]
        return weights, means, variances

    def _log_joint(self, h: np.ndarray, beta_bar: np.ndarray, sigma02: float):
        """Log weight plus log density per row and component, from trunk outputs ``h``.

        Also returns the weights, means, variances and ``sigma02 + variances``.
        """
        z_pi = h @ self.w_pi + self.b_pi
        log_norm, pi = _responsibilities(z_pi)
        means = h @ self.w_mu + self.b_mu
        variances = np.exp(h @ self.w_var + self.b_var)
        c, v = _mdn_logdens(beta_bar, sigma02, means, variances)
        c += z_pi - log_norm[:, None]
        return c, pi, means, variances, v

    def objective(self, D: np.ndarray, beta_bar: np.ndarray, sigma02: float) -> float:
        h, _ = self._trunk(self._check_input(D))
        a = self._log_joint(h, np.asarray(beta_bar, dtype=float), sigma02)[0]
        return float(_responsibilities(a)[0].sum())

    def objective_and_gradients(self, D: np.ndarray, beta_bar: np.ndarray, sigma02: float):
        D = self._check_input(D)
        beta_bar = np.asarray(beta_bar, dtype=float)
        h, pre = self._trunk(D)
        a, pi, means, variances, v = self._log_joint(h, beta_bar, sigma02)
        log_marginal, gamma = _responsibilities(a)
        obj = float(log_marginal.sum())
        g_zpi = gamma - pi
        gk = gamma[:, 1:]
        diff = beta_bar[:, None] - means
        g_mu = gk * diff / v
        g_lv = gk * (-0.5 / v + 0.5 * diff**2 / v**2) * variances
        g_wpi = h.T @ g_zpi
        g_bpi = g_zpi.sum(axis=0)
        g_wmu = h.T @ g_mu
        g_bmu = g_mu.sum(axis=0)
        g_wvar = h.T @ g_lv
        g_bvar = g_lv.sum(axis=0)
        head_grads = [g_wpi, g_bpi, g_wmu, g_bmu, g_wvar, g_bvar]
        if not self.hidden:
            return obj, head_grads
        g_h = g_zpi @ self.w_pi.T + g_mu @ self.w_mu.T + g_lv @ self.w_var.T
        g_h *= pre > 0
        return obj, [D.T @ g_h, g_h.sum(axis=0)] + head_grads


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _train(net: _DenseNet, eval_obj, eval_grads, n_rows: int, config: TrainConfig,
           steps: int | None = None) -> np.ndarray:
    """Adam ascent with best-parameter tracking; returns the objective trace.

    ``eval_obj()`` scores the full objective; ``eval_grads(idx)`` returns the
    objective and gradient lists for a row subset (None for the full batch).
    A full-batch step costs one forward pass: the objective that comes with
    the gradients scores the parameters the step starts from, so the trace
    and the best parameters run one step behind, and ``eval_obj()`` is
    called once, after the last step.  Minibatch objectives cover only their
    rows, so that path scores with ``eval_obj()`` once per epoch.  The trace
    holds the initial objective and one entry per step (full batch) or per
    epoch; the best parameter vector scored is restored at the end, so the
    final objective can never fall below the initial one.
    """
    n_steps = steps if steps is not None else config.steps
    full_batch = config.batch_size is None and n_rows <= 4096
    batch_size = config.batch_size if config.batch_size is not None else 1024
    opt = Adam(net.parameters(), config.learning_rate, config.beta1, config.beta2, config.eps)
    rng = np.random.default_rng(config.seed)
    history: list[float] = []
    best_obj = -np.inf
    best_theta = net.get_flat()

    def record(obj: float) -> None:
        nonlocal best_obj, best_theta
        history.append(obj)
        if obj > best_obj:
            best_obj = obj
            best_theta = net.get_flat()

    step = 0
    while step < n_steps:
        if full_batch:
            obj, grads = eval_grads(None)
            record(obj)
            _check_grads(grads, step)
            opt.step(net.parameters(), grads)
            step += 1
        else:
            record(eval_obj())
            perm = rng.permutation(n_rows)
            for lo in range(0, n_rows, batch_size):
                if step >= n_steps:
                    break
                idx = perm[lo:lo + batch_size]
                _, grads = eval_grads(idx)
                _check_grads(grads, step)
                opt.step(net.parameters(), grads)
                step += 1
    record(eval_obj())
    net.set_flat(best_theta)
    return np.array(history)


def _check_grads(grads: list[np.ndarray], step: int) -> None:
    for g in grads:
        if not np.isfinite(g).all():
            raise NonFiniteGradientError(step, f"gradient norm {np.linalg.norm(g)!r}")


def train_softmax(net: SoftmaxPriorNet, D: np.ndarray, log_lik: np.ndarray,
                  config: TrainConfig | None = None, steps: int | None = None) -> np.ndarray:
    """Fit the softmax prior net by marginal-likelihood ascent; returns the objective trace."""
    if config is None:
        config = TrainConfig()
    D = np.asarray(D, dtype=float)
    log_lik = np.asarray(log_lik, dtype=float)
    if not (np.isfinite(D).all() and np.isfinite(log_lik).all()):
        raise ConfigError("training inputs must be finite")

    def eval_obj():
        return net.objective(D, log_lik)

    def eval_grads(idx):
        if idx is None:
            return net.objective_and_gradients(D, log_lik)
        return net.objective_and_gradients(D[idx], log_lik[idx])

    return _train(net, eval_obj, eval_grads, D.shape[0], config, steps)


def train_mdn(net: MdnPriorNet, D: np.ndarray, beta_bar: np.ndarray, sigma02: float,
              config: TrainConfig | None = None, steps: int | None = None) -> np.ndarray:
    """Fit the MDN prior net by marginal-likelihood ascent; returns the objective trace."""
    if config is None:
        config = TrainConfig()
    D = np.asarray(D, dtype=float)
    beta_bar = np.asarray(beta_bar, dtype=float)
    if not (np.isfinite(D).all() and np.isfinite(beta_bar).all()):
        raise ConfigError("training inputs must be finite")

    def eval_obj():
        return net.objective(D, beta_bar, sigma02)

    def eval_grads(idx):
        if idx is None:
            return net.objective_and_gradients(D, beta_bar, sigma02)
        return net.objective_and_gradients(D[idx], beta_bar[idx], sigma02)

    return _train(net, eval_obj, eval_grads, D.shape[0], config, steps)


# ---------------------------------------------------------------------------
# Posterior summaries under MDN components
# ---------------------------------------------------------------------------


def mdn_posterior_stats(beta_bar: np.ndarray, sigma02: float, weights: np.ndarray,
                        means: np.ndarray, variances: np.ndarray) -> PosteriorStats:
    """Posterior summaries when each coordinate has its own mixture components.

    ``weights`` is p x (K+1) including the null mass in column 0; ``means``
    and ``variances`` are p x K for the Gaussian components.
    """
    beta_bar = np.asarray(beta_bar, dtype=float)
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    means = np.atleast_2d(np.asarray(means, dtype=float))
    variances = np.atleast_2d(np.asarray(variances, dtype=float))
    c, v = _mdn_logdens(beta_bar, sigma02, means, variances)
    # conjugate posterior of each Gaussian component; the point mass stays at zero
    zero = np.zeros_like(beta_bar)
    post_mean_k = (beta_bar[:, None] * variances + means * sigma02) / v
    post_var_k = variances * sigma02 / v
    return _mixture_stats(_log_weights(weights) + c, np.column_stack([zero, post_mean_k]),
                          np.column_stack([zero, post_var_k]))


# ---------------------------------------------------------------------------
# Engine adapters
# ---------------------------------------------------------------------------


def _serialize_net(net: _DenseNet, architecture: dict) -> dict:
    arrays = {
        name: {"shape": list(p.shape), "data": p.ravel().tolist()}
        for name, p in net.named_parameters()
    }
    return {"architecture": architecture, "arrays": arrays}


class SoftmaxPrior:
    """Covariate-moderated mixture prior: weights are a network of the side info.

    The first engine sweep trains the network from scratch (``steps``); later
    sweeps warm-start from the previous parameters and take ``later_steps``
    refinement steps, one training invocation per sweep.
    """

    kind = "softmax"
    side_kind = "features"

    def __init__(self, D: np.ndarray, n_components: int = 20, hidden: int = 0,
                 train_config: TrainConfig | None = None, grid: MixtureGrid | None = None):
        if grid is None and n_components < 2:
            raise ConfigError(f"need at least two mixture components, got {n_components}")
        if hidden < 0:
            raise ConfigError(f"hidden width must be non-negative, got {hidden}")
        self.D = np.asarray(D, dtype=float)
        self.train_config = train_config if train_config is not None else TrainConfig()
        self.n_components = n_components if grid is None else grid.n_components
        self.grid = grid
        self.hidden = hidden
        self.net = SoftmaxPriorNet(self.D.shape[1], self.n_components, hidden,
                                   seed=self.train_config.seed)
        self._trained = False
        self._last_weights: np.ndarray | None = None

    def update(self, beta_bar: np.ndarray, sigma02: float) -> PosteriorStats:
        if self.grid is None:
            self.grid = default_grid(beta_bar, sigma02, self.n_components)
        log_lik = marginal_loglik_matrix(beta_bar, sigma02, self.grid)
        steps = self.train_config.steps if not self._trained else self.train_config.later_steps
        train_softmax(self.net, self.D, log_lik, self.train_config, steps=steps)
        self._trained = True
        self._last_weights = self.net.forward(self.D)
        return mixture_posterior_stats(beta_bar, sigma02, self.grid, self._last_weights)

    def prior_null_mass(self) -> np.ndarray | None:
        if self._last_weights is None:
            return None
        return self._last_weights[:, 0]

    def params_dict(self) -> dict:
        doc = _serialize_net(self.net, {
            "type": "softmax",
            "n_features": self.D.shape[1],
            "n_components": self.n_components,
            "hidden": self.hidden,
        })
        if self.grid is not None:
            doc["variances"] = self.grid.variances.tolist()
        return doc


class MdnPrior:
    """Mixture-density-network prior with covariate-dependent component locations."""

    kind = "mdn"
    side_kind = "features"

    def __init__(self, D: np.ndarray, n_components: int = 5, hidden: int = 16,
                 train_config: TrainConfig | None = None):
        if n_components < 1:
            raise ConfigError(f"need at least one Gaussian component, got {n_components}")
        if hidden < 0:
            raise ConfigError(f"hidden width must be non-negative, got {hidden}")
        self.D = np.asarray(D, dtype=float)
        self.train_config = train_config if train_config is not None else TrainConfig()
        self.n_components = n_components
        self.hidden = hidden
        self.net = MdnPriorNet(self.D.shape[1], n_components, hidden, seed=self.train_config.seed)
        self._trained = False
        self._last_weights: np.ndarray | None = None

    def update(self, beta_bar: np.ndarray, sigma02: float) -> PosteriorStats:
        steps = self.train_config.steps if not self._trained else self.train_config.later_steps
        train_mdn(self.net, self.D, beta_bar, sigma02, self.train_config, steps=steps)
        self._trained = True
        weights, means, variances = self.net.forward(self.D)
        self._last_weights = weights
        return mdn_posterior_stats(beta_bar, sigma02, weights, means, variances)

    def prior_null_mass(self) -> np.ndarray | None:
        if self._last_weights is None:
            return None
        return self._last_weights[:, 0]

    def params_dict(self) -> dict:
        return _serialize_net(self.net, {
            "type": "mdn",
            "n_features": self.D.shape[1],
            "n_components": self.n_components,
            "hidden": self.hidden,
        })
