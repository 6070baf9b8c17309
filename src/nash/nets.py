"""Side-information priors backed by small dense networks.

Two families: a softmax network mapping per-covariate features to mixture
weights over a fixed variance grid, and a mixture-density network whose
heads emit component weights (including the point mass at zero), means and
log variances.  Both are trained by ascending the marginal likelihood of
the noisy coefficient estimates with hand-written reverse-mode gradients
and Adam; no external ML runtime is involved, the networks are tiny.  The
objectives run the networks on the distinct feature rows, which a prior
groups once (``_Groups``), the softmax one in likelihood space.  Their per-row
arrays are component-major, (K, rows) (``_Rows``), so sums across components
are passes over rows, and Adam steps one flat parameter vector in place.
Every number is the one the row-major layout gave, bit for bit.  Both
priors' posteriors come from ``ash.mixture_posterior_stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ash import (
    LOG_2PI,
    MixtureGrid,
    PosteriorStats,
    _responsibilities,
    default_grid,
    marginal_loglik_matrix,
    mixture_posterior_stats,
)
from .data import SideInfo
from .errors import ConfigError, DimensionMismatchError, NonFiniteGradientError

# Adam moment decays and denominator offset
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# up to FULL_BATCH_ROWS rows every step sees all of them; above, shuffled minibatches
FULL_BATCH_ROWS, MINIBATCH = 4096, 1024
# below this a row's likelihood sum may hold subnormal terms: it is redone in log space
UNDERFLOW = 1e-290
# numpy adds a row of up to this many entries in order, as a pass over component-major rows
# does; longer rows it adds pairwise
IN_ORDER = 7


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
    """Adam ascent on one flat parameter vector (updated in place)."""

    def __init__(self, theta: np.ndarray, lr: float):
        self.lr, self.t = lr, 0
        self.m, self.v = np.zeros_like(theta), np.zeros_like(theta)

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        b1c = 1.0 - BETA1**self.t
        b2c = 1.0 - BETA2**self.t
        self.m *= BETA1
        self.m += (1.0 - BETA1) * grad
        self.v *= BETA2
        self.v += (1.0 - BETA2) * grad * grad
        theta += self.lr * (self.m / b1c) / (np.sqrt(self.v / b2c) + EPS)


class _Groups:
    """Feature rows grouped by ``np.unique(D, axis=0)`` (``of``), or a subset of them.

    ``order`` sorts the rows into groups, ``features`` holds one row per group,
    ``group`` is each sorted row's group, ``starts`` each group's first sorted row
    and ``counts`` its size.  When every row is distinct ``order`` and ``starts``
    are None: the rows stay in place, each its own group.
    """

    def __init__(self, unique: np.ndarray, inverse: np.ndarray):
        self.unique, self.inverse = unique, inverse
        order = np.argsort(inverse, kind="stable")
        labels = inverse[order]
        first = np.r_[True, labels[1:] != labels[:-1]]
        if first.all():
            self.order = self.starts = None
            self.features = unique[inverse]
            self.group, self.counts = np.arange(len(inverse)), np.ones(len(inverse))
        else:
            self.order, self.starts = order, np.flatnonzero(first)
            self.features = unique[labels[self.starts]]
            self.group = np.cumsum(first) - 1
            self.counts = np.diff(np.r_[self.starts, len(labels)])

    @classmethod
    def of(cls, D: np.ndarray) -> _Groups:
        return cls(*np.unique(D, axis=0, return_inverse=True))


class _Rows:
    """Objective inputs on grouped feature rows: ``source`` and the component-major
    (K, rows) ``major_source`` sorted into ``groups`` as ``data`` and ``major``, and
    ``const``, the other arguments.

    ``spread`` gathers a per-group (groups, K) array onto rows component-major, as
    (K, rows); ``total`` adds a (K, rows) array up per group into a C-ordered
    (groups, K) one, in the order the row-major group sums took.
    """

    def __init__(self, groups: _Groups, source: list, major_source: list = (), const: tuple = ()):
        self.groups, self.source, self.major_source, self.const = groups, source, major_source, const
        order = groups.order
        self.data = source if order is None else [a[order] for a in source]
        self.major = [np.ascontiguousarray(a) if order is None else np.take(a, order, axis=1)
                      for a in major_source]

    def take(self, idx: np.ndarray) -> _Rows:
        """The rows ``idx`` of ``source``, grouped without another ``np.unique``."""
        return _Rows(_Groups(self.groups.unique, self.groups.inverse[idx]), [a[idx] for a in self.source],
                     [np.take(a, idx, axis=1) for a in self.major_source], self.const)

    @cached_property
    def offset(self) -> float:
        """The last data array's sum, taken once: the softmax objective's row maxima."""
        return self.data[-1].sum()

    def spread(self, a: np.ndarray) -> np.ndarray:
        return np.take(a.T, self.groups.group, axis=1)

    def total(self, a: np.ndarray) -> np.ndarray:
        starts = self.groups.starts
        return np.ascontiguousarray((a if starts is None else np.add.reduceat(a, starts, axis=1)).T)


class _DenseNet:
    """Optional ReLU trunk (``w1``/``b1`` when ``hidden > 0``) feeding linear output heads.

    Weights are drawn N(0, 1/n_features) in the trunk, then N(0, scale²/width) in each head,
    biases 0; every array is a view into one flat vector, in ``named_parameters`` order.
    """

    def __init__(self, n_features: int, hidden: int, heads: list[tuple[str, str, int]],
                 scale: float, rng: np.random.Generator):
        self.n_features, self.hidden = n_features, hidden
        self.width = hidden if hidden else n_features
        layers = [("w1", "b1", n_features, hidden, 1.0 / np.sqrt(n_features))] if hidden else []
        layers += [(w, b, self.width, n_out, scale / np.sqrt(self.width)) for w, b, n_out in heads]
        self.flat = np.zeros(sum((n_in + 1) * n_out for _, _, n_in, n_out, _ in layers))
        self._names, at = [], 0
        for w, b, n_in, n_out, sd in layers:
            end = at + n_in * n_out
            setattr(self, w, self.flat[at:end].reshape(n_in, n_out))
            setattr(self, b, self.flat[end:end + n_out])
            getattr(self, w)[...] = rng.normal(0.0, sd, size=(n_in, n_out))
            at, self._names = end + n_out, self._names + [w, b]
        self._head_weights = [getattr(self, w) for w, _, _ in heads]

    def parameters(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self._names]

    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        return list(zip(self._names, self.parameters()))

    def get_flat(self) -> np.ndarray:
        return self.flat.copy()

    def set_flat(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float)
        if theta.size != self.flat.size:
            raise DimensionMismatchError("flat parameter vector has the wrong length")
        self.flat[:] = theta.ravel()

    def _features(self, D: np.ndarray) -> np.ndarray:
        """Checked feature rows; a single feature vector becomes one row."""
        D = np.atleast_2d(np.asarray(D, dtype=float))
        if D.shape[1] != self.n_features:
            raise DimensionMismatchError(f"expected {self.n_features} features, got {D.shape[1]}")
        return D

    def _trunk(self, D: np.ndarray):
        """The trunk output for checked rows and its pre-activation (None at depth 0)."""
        if not self.hidden:
            return D, None
        pre = D @ self.w1 + self.b1
        return np.maximum(pre, 0.0), pre

    def _group(self, D, data: list, major: list = (), const: tuple = ()) -> _Rows:
        """The row-aligned ``data`` and (K, rows) ``major`` on the feature rows ``D``, grouped
        once here unless ``D`` is already their ``_Groups``."""
        groups = D if isinstance(D, _Groups) else _Groups.of(self._features(D))
        n_rows = len(groups.inverse)
        if any(len(a) != n_rows for a in data):
            raise DimensionMismatchError(f"{n_rows} feature rows, row data of {[len(a) for a in data]}")
        return _Rows(groups, data, major, const)

    def _as_rows(self, D, *args) -> _Rows:
        return D if isinstance(D, _Rows) else self._rows(D, *args)

    def _gradients(self, D: np.ndarray, h: np.ndarray, pre: np.ndarray | None,
                   g_out: list[np.ndarray]) -> np.ndarray:
        """Flat gradient from each head's output gradient ``g_out``, pulled back through the trunk."""
        grads = [g for g_z in g_out for g in (h.T @ g_z, g_z.sum(axis=0))]
        if pre is not None:
            g_h = g_out[0] @ self._head_weights[0].T
            for g_z, w in zip(g_out[1:], self._head_weights[1:]):
                g_h += g_z @ w.T
            g_h *= pre > 0
            grads = [D.T @ g_h, g_h.sum(axis=0)] + grads
        return np.concatenate([g.ravel() for g in grads])


class SoftmaxPriorNet(_DenseNet):
    """Features -> simplex of mixture weights; depth 0 or one hidden layer."""

    def __init__(self, n_features: int, n_components: int, hidden: int = 0, seed: int = 0):
        super().__init__(n_features, hidden, [("w", "b", n_components)], 1.0, np.random.default_rng(seed))
        self.n_components = n_components

    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        # model files name the output layer w2/b2 behind a hidden layer
        names = ["w1", "b1", "w2", "b2"] if self.hidden else ["w", "b"]
        return list(zip(names, self.parameters()))

    def forward(self, D: np.ndarray) -> np.ndarray:
        """Mixture weights for one feature vector or a stack of them."""
        h, _ = self._trunk(self._features(D))
        probs = _responsibilities(h @ self.w + self.b)[1]
        return probs[0] if np.asarray(D).ndim == 1 else probs

    def _rows(self, D: np.ndarray, log_lik: np.ndarray) -> _Rows:
        log_lik = np.atleast_2d(np.asarray(log_lik, dtype=float))
        rowmax = log_lik.max(axis=1)
        lik = np.exp(log_lik - rowmax[:, None])
        return self._group(D, [lik, log_lik, rowmax], [lik.T])

    def objective(self, D, log_lik=None) -> float:
        """Marginal log likelihood sum_j log sum_m pi_m(d_j) exp(L_jm); ``D`` may be ``_Rows``."""
        return self._evaluate(self._as_rows(D, log_lik), False)[0]

    def objective_and_gradients(self, D, log_lik=None):
        return self._evaluate(self._as_rows(D, log_lik), True)

    def _evaluate(self, rows: _Rows, gradients: bool):
        """With s_j = sum_m lik_jm pi_m(group of j): the objective sum_j log s_j +
        rowmax_j, the logit gradient pi_g * sum_{j in g} lik_j / s_j - n_g pi_g.
        s is a row-major ``einsum`` (it adds the M terms in its own order); the group
        sums of lik / s run on the component-major copy of lik.  Rows whose s
        underflows take the exact log-space sum and responsibilities.
        """
        groups = rows.groups
        h, pre = self._trunk(groups.features)
        z = h @ self.w + self.b
        log_norm, pi = _responsibilities(z)
        lik, log_lik, rowmax = rows.data
        s = np.einsum("jm,jm->j", lik, np.take(pi, groups.group, axis=0))
        low = np.flatnonzero(s < UNDERFLOW)
        s[low] = np.inf  # their lik / s is 0; their log s and responsibilities come below
        log_s = np.log(s)
        g_z = -groups.counts[:, None] * pi
        if low.size:
            g_low = groups.group[low]
            log_marginal, gamma_low = _responsibilities((z - log_norm[:, None])[g_low] + log_lik[low])
            log_s[low] = log_marginal - rowmax[low]
            np.add.at(g_z, g_low, gamma_low)
        objective = float(log_s.sum() + rows.offset)
        if not gradients:
            return objective, None
        g_z += pi * rows.total(rows.major[0] / s)
        return objective, self._gradients(groups.features, h, pre, [g_z])


class MdnPriorNet(_DenseNet):
    """Mixture-density network: weights (with null mass), means and log variances.

    Zero parameters give the documented neutral output: uniform weights,
    zero means, unit variances.  The objective's log densities are (K+1, rows);
    numpy adds their K+1 entries per row in order, as the row-major sums did,
    up to ``IN_ORDER`` entries (``n_components`` <= 6, the default is 5).
    Longer rows it adds pairwise, so those are copied row-major first, and
    every ``n_components`` gives the row-major numbers bit for bit.
    """

    def __init__(self, n_features: int, n_components: int = 5, hidden: int = 16, seed: int = 0):
        heads = [("w_pi", "b_pi", n_components + 1), ("w_mu", "b_mu", n_components),
                 ("w_var", "b_var", n_components)]
        super().__init__(n_features, hidden, heads, 0.1, np.random.default_rng(seed))
        self.n_components = n_components

    def forward(self, D: np.ndarray):
        """Per-row (weights incl. null, means, variances)."""
        h, _ = self._trunk(self._features(D))
        weights = _responsibilities(h @ self.w_pi + self.b_pi)[1]
        means = h @ self.w_mu + self.b_mu
        variances = np.exp(h @ self.w_var + self.b_var)
        if np.asarray(D).ndim == 1:
            return weights[0], means[0], variances[0]
        return weights, means, variances

    def _rows(self, D: np.ndarray, beta_bar: np.ndarray, sigma02: float) -> _Rows:
        beta_bar = np.asarray(beta_bar, dtype=float)
        null_logdens = marginal_loglik_matrix(beta_bar, sigma02, 0.0)[:, 0]
        return self._group(D, [beta_bar, null_logdens], const=(sigma02,))

    def objective(self, D, beta_bar=None, sigma02=None) -> float:
        """Marginal log likelihood of ``beta_bar`` under each row's mixture; ``D`` may be ``_Rows``."""
        return self._evaluate(self._as_rows(D, beta_bar, sigma02), False)[0]

    def objective_and_gradients(self, D, beta_bar=None, sigma02=None):
        return self._evaluate(self._as_rows(D, beta_bar, sigma02), True)

    def _evaluate(self, rows: _Rows, gradients: bool):
        """Heads per group, densities per row, component-major: (K+1, rows) and (K, rows).
        With d = beta_bar - mean, v = sigma02 + variance, group g's head gradients are
        sum gamma - n_g pi, sum gamma_k d / v, variance / (2 v) (sum gamma_k d²/v - sum gamma_k)."""
        groups = rows.groups
        h, pre = self._trunk(groups.features)
        z_pi = h @ self.w_pi + self.b_pi
        log_norm, pi = _responsibilities(z_pi)
        means = h @ self.w_mu + self.b_mu
        variances = np.exp(h @ self.w_var + self.b_var)
        beta_bar, null_logdens = rows.data
        v = rows.const[0] + variances
        inv_v = 1.0 / v
        log_w = z_pi - log_norm[:, None]
        log_w[:, 1:] -= 0.5 * (LOG_2PI + np.log(v))
        a = rows.spread(log_w)
        d = beta_bar - rows.spread(means)
        q = d * d * rows.spread(inv_v)
        a[0] += null_logdens
        a[1:] -= 0.5 * q
        log_marginal, gamma = _responsibilities(a.T if len(a) <= IN_ORDER else np.ascontiguousarray(a.T))
        objective = float(log_marginal.sum())
        if not gradients:
            return objective, None
        gamma = gamma.T
        gk = gamma[1:]
        g_gamma = rows.total(gamma)
        g_pi = g_gamma - groups.counts[:, None] * pi
        g_mu = rows.total(gk * d) * inv_v
        g_lv = 0.5 * variances * inv_v * (rows.total(gk * q) - g_gamma[:, 1:])
        return objective, self._gradients(groups.features, h, pre, [g_pi, g_mu, g_lv])


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _train(net: _DenseNet, D, data: tuple, extra: tuple, config: TrainConfig | None,
           steps: int | None) -> np.ndarray:
    """Adam ascent of ``net.objective(D, *data, *extra)``; returns the objective trace.

    ``D`` is the feature rows or their ``_Groups``; ``data`` (finite, one entry
    per row) and ``extra`` are the objective's other arguments, put on the
    groups once as the ``_Rows`` every call takes.  Up to
    ``FULL_BATCH_ROWS`` rows a step costs one full-batch forward pass: the
    objective that comes with the gradients scores the step's starting
    point, so the trace and the best parameters run one step behind, and the
    objective is scored once more after the last step.  Above that, each
    epoch shuffles the rows into minibatches of ``MINIBATCH`` (``_Rows.take``)
    and scores the full objective once.  The trace holds the initial
    objective and one entry per step (full batch) or per epoch; the best flat
    parameter vector scored is restored, so the objective never ends lower.
    """
    config = config or TrainConfig()
    data = tuple(np.asarray(a, dtype=float) for a in data)
    checked = data if isinstance(D, _Groups) else (np.asarray(D, dtype=float), *data)
    if not all(np.isfinite(a).all() for a in checked):
        raise ConfigError("training inputs must be finite")
    grouped = net._rows(D, *data, *extra)
    n_rows = len(grouped.source[0])
    n_steps = steps if steps is not None else config.steps
    opt = Adam(net.flat, config.learning_rate)
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
            obj, grad = net.objective_and_gradients(grouped)
            record(obj)
        else:
            if step % batches == 0:
                record(net.objective(grouped))
                perm = rng.permutation(n_rows)
            lo = (step % batches) * MINIBATCH
            grad = net.objective_and_gradients(grouped.take(perm[lo:lo + MINIBATCH]))[1]
        if not np.isfinite(grad).all():
            raise NonFiniteGradientError(step, f"gradient norm {np.linalg.norm(grad)!r}")
        opt.step(net.flat, grad)
    record(net.objective(grouped))
    net.set_flat(best[1])
    return np.array(history)


def train_softmax(net: SoftmaxPriorNet, D: np.ndarray, log_lik: np.ndarray,
                  config: TrainConfig | None = None, steps: int | None = None) -> np.ndarray:
    """Fit the softmax prior net by marginal-likelihood ascent; returns the objective trace.

    ``D`` is the feature rows or their ``_Groups``, as a prior passes them."""
    return _train(net, D, (log_lik,), (), config, steps)


def train_mdn(net: MdnPriorNet, D: np.ndarray, beta_bar: np.ndarray, sigma02: float,
              config: TrainConfig | None = None, steps: int | None = None) -> np.ndarray:
    """Fit the MDN prior net by marginal-likelihood ascent; returns the objective trace.

    ``D`` is the feature rows or their ``_Groups``, as a prior passes them."""
    return _train(net, D, (beta_bar,), (sigma02,), config, steps)


# ---------------------------------------------------------------------------
# Posterior summaries under MDN components
# ---------------------------------------------------------------------------


def mdn_posterior_stats(beta_bar: np.ndarray, sigma02: float, weights: np.ndarray,
                        means: np.ndarray, variances: np.ndarray) -> PosteriorStats:
    """Posterior summaries when each coordinate has its own mixture components.

    ``weights`` is p x (K+1) including the null mass in column 0; ``means``
    and ``variances`` are p x K for the Gaussian components, to which the point
    mass is prepended as variance 0 and mean 0 for ``mixture_posterior_stats``.
    """
    means, variances = (np.hstack([np.zeros((len(a), 1)), a]) for a in map(np.atleast_2d, (means, variances)))
    log_lik = marginal_loglik_matrix(beta_bar, sigma02, variances, means)
    return mixture_posterior_stats(beta_bar, sigma02, log_lik, weights, variances, means)


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

    def __init__(self, D: np.ndarray, n_components: int, hidden: int,
                 train_config: TrainConfig | None):
        if hidden < 0:
            raise ConfigError(f"hidden width must be non-negative, got {hidden}")
        self.side_info = SideInfo.from_features(D)  # a 2-d, finite matrix with columns
        self.D = self.side_info.D
        # grouped once per prior; the fitted weights still come from a forward pass over all
        # rows: for some shapes BLAS rounds a product over the few distinct rows differently
        self._groups = _Groups.of(self.D)
        self.train_config = train_config if train_config is not None else TrainConfig()
        self.n_components = n_components
        self.hidden = hidden
        self.net = self.net_type(self.D.shape[1], n_components, hidden, seed=self.train_config.seed)
        self._last_weights: np.ndarray | None = None

    def _steps(self) -> int:
        return self.train_config.later_steps if self.updated else self.train_config.steps

    @property
    def updated(self) -> bool:
        return self._last_weights is not None

    def prior_null_mass(self) -> np.ndarray | None:
        return self._last_weights[:, 0] if self.updated else None

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
                 train_config: TrainConfig | None = None):
        if n_components < 2:
            raise ConfigError(f"need at least two mixture components, got {n_components}")
        super().__init__(D, n_components, hidden, train_config)
        self.grid: MixtureGrid | None = None

    def update(self, beta_bar: np.ndarray, sigma02: float) -> PosteriorStats:
        if self.grid is None:
            self.grid = default_grid(beta_bar, sigma02, self.n_components)
        log_lik = marginal_loglik_matrix(beta_bar, sigma02, self.grid.variances)
        train_softmax(self.net, self._groups, log_lik, self.train_config, steps=self._steps())
        self._last_weights = self.net.forward(self.D)
        return mixture_posterior_stats(beta_bar, sigma02, log_lik, self._last_weights, self.grid.variances)

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
        train_mdn(self.net, self._groups, beta_bar, sigma02, self.train_config, steps=self._steps())
        self._last_weights, means, variances = self.net.forward(self.D)
        return mdn_posterior_stats(beta_bar, sigma02, self._last_weights, means, variances)
