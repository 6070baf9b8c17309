"""Side-information priors backed by small dense networks.

Two families: a softmax network mapping per-covariate features to mixture
weights over a fixed variance grid, and a mixture-density network whose
heads emit component weights (including the point mass at zero), means and
log variances.  Both are trained by ascending the marginal likelihood of
the noisy coefficient estimates with hand-written reverse-mode gradients
and Adam; no external ML runtime is involved, the networks are tiny.
"""

from __future__ import annotations

import math
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

# Adam moment decays and denominator offset
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# up to FULL_BATCH_ROWS rows every step sees all of them; above, shuffled minibatches
FULL_BATCH_ROWS, MINIBATCH = 4096, 1024


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    steps: int = 500
    later_steps: int = 50
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.steps < 1 or self.later_steps < 1:
            raise ConfigError("training steps must be positive")


class Adam:
    """Adam ascent on a list of parameter arrays (updates in place)."""

    def __init__(self, params: list[np.ndarray], lr: float):
        self.lr = lr
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - BETA1**self.t
        b2c = 1.0 - BETA2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p += self.lr * (m / b1c) / (np.sqrt(v / b2c) + EPS)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    return z - _responsibilities(z)[0][:, None]


class _DenseNet:
    """Optional ReLU trunk feeding linear output heads.

    With ``hidden > 0`` the trunk is one layer ``w1``/``b1``, drawn before any
    head so seeded draws keep their order; at depth 0 the heads read the
    features directly.  Subclasses define ``_heads()``, the names and arrays
    of each head's weight then bias (applied to the trunk output), and get
    parameter lists, flattening, input checks and the trunk's share of the
    gradients from here.
    """

    def __init__(self, n_features: int, hidden: int, rng: np.random.Generator):
        self.n_features = n_features
        self.hidden = hidden
        self.width = hidden if hidden else n_features
        self.layer = "2" if hidden else ""  # model files number the layer behind the trunk
        if hidden:
            self.w1 = rng.normal(0.0, 1.0 / np.sqrt(n_features), size=(n_features, hidden))
            self.b1 = np.zeros(hidden)

    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        trunk = [("w1", self.w1), ("b1", self.b1)] if self.hidden else []
        return trunk + self._heads()

    def parameters(self) -> list[np.ndarray]:
        return [p for _, p in self.named_parameters()]

    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.parameters()])

    def set_flat(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float)
        params = self.parameters()
        sizes = [p.size for p in params]
        if theta.size != sum(sizes):
            raise DimensionMismatchError("flat parameter vector has the wrong length")
        for p, chunk in zip(params, np.split(theta, np.cumsum(sizes)[:-1])):
            p[...] = chunk.reshape(p.shape)

    def _trunk(self, D: np.ndarray):
        """Checked feature rows, the trunk output and its pre-activation (None at depth 0).

        A single feature vector becomes one row.
        """
        D = np.asarray(D, dtype=float)
        if D.ndim == 1:
            D = D[None, :]
        if D.shape[1] != self.n_features:
            raise DimensionMismatchError(f"expected {self.n_features} features, got {D.shape[1]}")
        if not self.hidden:
            return D, D, None
        pre = D @ self.w1 + self.b1
        return D, np.maximum(pre, 0.0), pre

    def _gradients(self, D: np.ndarray, h: np.ndarray, pre: np.ndarray | None,
                   g_out: list[np.ndarray]) -> list[np.ndarray]:
        """Parameter gradients in ``named_parameters`` order.

        ``g_out`` holds the objective's gradient with respect to each head's
        output, in ``_heads()`` order; the trunk gets their sum pulled back
        through the head weights and the ReLU.
        """
        grads = [g for g_z in g_out for g in (h.T @ g_z, g_z.sum(axis=0))]
        if pre is None:
            return grads
        weights = [w for _, w in self._heads()[0::2]]
        g_h = g_out[0] @ weights[0].T
        for g_z, w in zip(g_out[1:], weights[1:]):
            g_h += g_z @ w.T
        g_h *= pre > 0
        return [D.T @ g_h, g_h.sum(axis=0)] + grads


class SoftmaxPriorNet(_DenseNet):
    """Features -> simplex of mixture weights; depth 0 or one hidden layer."""

    def __init__(self, n_features: int, n_components: int, hidden: int = 0, seed: int = 0):
        rng = np.random.default_rng(seed)
        super().__init__(n_features, hidden, rng)
        self.n_components = n_components
        self.w = rng.normal(0.0, 1.0 / np.sqrt(self.width), size=(self.width, n_components))
        self.b = np.zeros(n_components)

    def _heads(self):
        return [("w" + self.layer, self.w), ("b" + self.layer, self.b)]

    def forward(self, D: np.ndarray) -> np.ndarray:
        """Mixture weights for one feature vector or a stack of them."""
        _, h, _ = self._trunk(D)
        probs = _responsibilities(h @ self.w + self.b)[1]
        return probs[0] if np.asarray(D).ndim == 1 else probs

    def objective(self, D: np.ndarray, log_lik: np.ndarray) -> float:
        """Marginal log likelihood sum_j log sum_m pi_m(d_j) exp(L_jm)."""
        _, h, _ = self._trunk(D)
        return float(_responsibilities(_log_softmax(h @ self.w + self.b) + log_lik)[0].sum())

    def objective_and_gradients(self, D: np.ndarray, log_lik: np.ndarray):
        D, h, pre = self._trunk(D)
        z = h @ self.w + self.b
        log_norm, pi = _responsibilities(z)
        log_marginal, gamma = _responsibilities(z - log_norm[:, None] + log_lik)
        return float(log_marginal.sum()), self._gradients(D, h, pre, [gamma - pi])


def _mdn_logdens(beta_bar, sigma02: float, means, variances):
    """Per-component log densities of beta_bar under the MDN mixture, and sigma02 + variances.

    Column 0 is the point mass at zero, N(beta_j; 0, sigma02); column k is
    N(beta_j; mean_jk, sigma02 + variance_jk); ``beta_bar`` is a float array.
    """
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
        rng = np.random.default_rng(seed)
        super().__init__(n_features, hidden, rng)
        self.n_components = n_components
        scale = 0.1 / np.sqrt(self.width)
        self.w_pi = rng.normal(0.0, scale, size=(self.width, n_components + 1))
        self.b_pi = np.zeros(n_components + 1)
        self.w_mu = rng.normal(0.0, scale, size=(self.width, n_components))
        self.b_mu = np.zeros(n_components)
        self.w_var = rng.normal(0.0, scale, size=(self.width, n_components))
        self.b_var = np.zeros(n_components)

    def _heads(self):
        return [("w_pi", self.w_pi), ("b_pi", self.b_pi), ("w_mu", self.w_mu),
                ("b_mu", self.b_mu), ("w_var", self.w_var), ("b_var", self.b_var)]

    def forward(self, D: np.ndarray):
        """Per-row (weights incl. null, means, variances)."""
        _, h, _ = self._trunk(D)
        weights = _responsibilities(h @ self.w_pi + self.b_pi)[1]
        means = h @ self.w_mu + self.b_mu
        variances = np.exp(h @ self.w_var + self.b_var)
        if np.asarray(D).ndim == 1:
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
        _, h, _ = self._trunk(D)
        a = self._log_joint(h, np.asarray(beta_bar, dtype=float), sigma02)[0]
        return float(_responsibilities(a)[0].sum())

    def objective_and_gradients(self, D: np.ndarray, beta_bar: np.ndarray, sigma02: float):
        D, h, pre = self._trunk(D)
        beta_bar = np.asarray(beta_bar, dtype=float)
        a, pi, means, variances, v = self._log_joint(h, beta_bar, sigma02)
        log_marginal, gamma = _responsibilities(a)
        gk = gamma[:, 1:]
        diff = beta_bar[:, None] - means
        g_mu = gk * diff / v
        g_lv = gk * (-0.5 / v + 0.5 * diff**2 / v**2) * variances
        return float(log_marginal.sum()), self._gradients(D, h, pre, [gamma - pi, g_mu, g_lv])


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _train(net: _DenseNet, rows: tuple, extra: tuple, config: TrainConfig | None,
           steps: int | None) -> np.ndarray:
    """Adam ascent of ``net.objective(*rows, *extra)``; returns the objective trace.

    ``rows`` are the objective's row-aligned arrays (features first), which
    must be finite; ``extra`` are its remaining arguments, passed unchanged.
    Up to ``FULL_BATCH_ROWS`` rows every step uses the full batch and costs
    one forward pass: the objective that comes with the gradients scores the
    parameters the step starts from, so the trace and the best parameters
    run one step behind, and the full objective is scored once more after
    the last step.  Above that, each epoch shuffles the rows into minibatches
    of ``MINIBATCH``; their objectives cover only their rows, so that path
    scores the full objective once per epoch.  The trace holds the initial
    objective and one entry per step (full batch) or per epoch; the best
    parameter vector scored is restored at the end, so the final objective
    can never fall below the initial one.
    """
    config = config or TrainConfig()
    rows = tuple(np.asarray(a, dtype=float) for a in rows)
    if not all(np.isfinite(a).all() for a in rows):
        raise ConfigError("training inputs must be finite")
    n_rows = rows[0].shape[0]
    n_steps = steps if steps is not None else config.steps
    opt = Adam(net.parameters(), config.learning_rate)
    rng = np.random.default_rng(config.seed)
    history: list[float] = []
    best = [-np.inf, net.get_flat()]  # best objective scored and its parameters

    def record(obj: float) -> None:
        history.append(obj)
        if obj > best[0]:
            best[:] = obj, net.get_flat()

    batches = -(-n_rows // MINIBATCH)  # minibatches per epoch
    for step in range(n_steps):
        if n_rows <= FULL_BATCH_ROWS:
            obj, grads = net.objective_and_gradients(*rows, *extra)
            record(obj)
        else:
            if step % batches == 0:
                record(net.objective(*rows, *extra))
                perm = rng.permutation(n_rows)
            lo = (step % batches) * MINIBATCH
            idx = perm[lo:lo + MINIBATCH]
            grads = net.objective_and_gradients(*(a[idx] for a in rows), *extra)[1]
        for g in grads:
            if not np.isfinite(g).all():
                raise NonFiniteGradientError(step, f"gradient norm {np.linalg.norm(g)!r}")
        opt.step(net.parameters(), grads)
    record(net.objective(*rows, *extra))
    net.set_flat(best[1])
    return np.array(history)


def train_softmax(net: SoftmaxPriorNet, D: np.ndarray, log_lik: np.ndarray,
                  config: TrainConfig | None = None, steps: int | None = None) -> np.ndarray:
    """Fit the softmax prior net by marginal-likelihood ascent; returns the objective trace."""
    return _train(net, (D, log_lik), (), config, steps)


def train_mdn(net: MdnPriorNet, D: np.ndarray, beta_bar: np.ndarray, sigma02: float,
              config: TrainConfig | None = None, steps: int | None = None) -> np.ndarray:
    """Fit the MDN prior net by marginal-likelihood ascent; returns the objective trace."""
    return _train(net, (D, beta_bar), (sigma02,), config, steps)


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


class _NetPrior:
    """Engine adapter around a network prior on per-covariate features.

    The first engine sweep trains the network from scratch
    (``train_config.steps``); later sweeps warm-start from the previous
    parameters and take ``later_steps`` refinement steps, one training
    invocation per sweep.  Subclasses set ``kind`` and the network class
    ``net_type``, and define ``update``, which stores the fitted weights
    (null mass in column 0) in ``_last_weights``.  ``params_dict`` writes
    the architecture and every named parameter array.
    """

    kind: str
    net_type: type[_DenseNet]
    side_kind = "features"

    def __init__(self, D: np.ndarray, n_components: int, hidden: int,
                 train_config: TrainConfig | None):
        if hidden < 0:
            raise ConfigError(f"hidden width must be non-negative, got {hidden}")
        self.D = np.asarray(D, dtype=float)
        self.train_config = train_config if train_config is not None else TrainConfig()
        self.n_components = n_components
        self.hidden = hidden
        self.net = self.net_type(self.D.shape[1], n_components, hidden, seed=self.train_config.seed)
        self._last_weights: np.ndarray | None = None

    def _steps(self) -> int:
        config = self.train_config
        return config.steps if self._last_weights is None else config.later_steps

    def prior_null_mass(self) -> np.ndarray | None:
        return None if self._last_weights is None else self._last_weights[:, 0]

    def params_dict(self) -> dict:
        architecture = {
            "type": self.kind,
            "n_features": self.D.shape[1],
            "n_components": self.n_components,
            "hidden": self.hidden,
        }
        arrays = {
            name: {"shape": list(p.shape), "data": p.ravel().tolist()}
            for name, p in self.net.named_parameters()
        }
        return {"architecture": architecture, "arrays": arrays}


class SoftmaxPrior(_NetPrior):
    """Covariate-moderated mixture prior: weights are a network of the side info."""

    kind = "softmax"
    net_type = SoftmaxPriorNet

    def __init__(self, D: np.ndarray, n_components: int = 20, hidden: int = 0,
                 train_config: TrainConfig | None = None, grid: MixtureGrid | None = None):
        if grid is None and n_components < 2:
            raise ConfigError(f"need at least two mixture components, got {n_components}")
        super().__init__(D, n_components if grid is None else grid.n_components, hidden,
                         train_config)
        self.grid = grid

    def update(self, beta_bar: np.ndarray, sigma02: float) -> PosteriorStats:
        if self.grid is None:
            self.grid = default_grid(beta_bar, sigma02, self.n_components)
        log_lik = marginal_loglik_matrix(beta_bar, sigma02, self.grid)
        train_softmax(self.net, self.D, log_lik, self.train_config, steps=self._steps())
        self._last_weights = self.net.forward(self.D)
        return mixture_posterior_stats(beta_bar, sigma02, self.grid, self._last_weights)

    def params_dict(self) -> dict:
        doc = super().params_dict()
        if self.grid is not None:
            doc["variances"] = self.grid.variances.tolist()
        return doc


class MdnPrior(_NetPrior):
    """Mixture-density-network prior with covariate-dependent component locations."""

    kind = "mdn"
    net_type = MdnPriorNet

    def __init__(self, D: np.ndarray, n_components: int = 5, hidden: int = 16,
                 train_config: TrainConfig | None = None):
        if n_components < 1:
            raise ConfigError(f"need at least one Gaussian component, got {n_components}")
        super().__init__(D, n_components, hidden, train_config)

    def update(self, beta_bar: np.ndarray, sigma02: float) -> PosteriorStats:
        train_mdn(self.net, self.D, beta_bar, sigma02, self.train_config, steps=self._steps())
        self._last_weights, means, variances = self.net.forward(self.D)
        return mdn_posterior_stats(beta_bar, sigma02, self._last_weights, means, variances)
