"""Graph-fused Laplace priors with exact piecewise posteriors, and image denoising.

Each coordinate's prior is a product of Laplace factors: one centered at zero
(sparsity) and one per available neighbor summary (smoothness).  On chain
graphs both neighbors contribute their own factor; on arbitrary graphs a
single factor is tied to the mean of the neighbor values.

The log prior is piecewise linear, so the posterior against a Gaussian
observation splits at the factor centers into segments whose masses and
moments are exact Gaussian tail expressions; the prior's normalizing
constant is a sum of exact exponential integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .ash import PosteriorStats, _responsibilities
from .errors import ConfigError, DimensionMismatchError, ParseError, QuadratureUnderflowError

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class FusedScales:
    """Laplace scales: ``s1`` for the sparsity factor, ``s2`` for smoothness."""

    s1: float
    s2: float

    def __post_init__(self):
        if not (self.s1 > 0 and math.isfinite(self.s1) and self.s2 > 0 and math.isfinite(self.s2)):
            raise ConfigError(f"Laplace scales must be positive and finite, got {self.s1}, {self.s2}")


class Graph:
    """Undirected graph over ``p`` covariates, stored as sorted edge arrays.

    ``src`` and ``dst`` hold both directions of every edge, sorted by
    (src, dst) -- CSR order -- and ``degrees`` counts each node's neighbors.
    Every builder goes through the one validating constructor, which takes an
    (E, 2) array of node pairs in either direction, duplicates allowed.
    """

    def __init__(self, p: int, edges, kind: str = "general"):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        outside = ((edges < 0) | (edges >= p)).any(axis=1)
        if outside.any():
            raise DimensionMismatchError(f"edge {tuple(edges[outside][0].tolist())} outside 0..{p - 1}")
        i, j = edges.T
        if np.any(i == j):
            raise ConfigError(f"self-loop on node {i[i == j][0]}")
        self.p = p
        self.kind = kind
        self.src, self.dst = np.divmod(np.unique(np.concatenate([i * p + j, j * p + i])), p)
        if kind == "chain" and np.any(np.abs(self.src - self.dst) != 1):
            raise ConfigError("chain nodes may only link to the next and previous node")
        self.degrees = np.bincount(self.src, minlength=p)
        if kind == "grid4" and np.any(self.degrees > 4):
            raise ConfigError("grid4 nodes may have at most 4 neighbors")

    @classmethod
    def chain(cls, p: int) -> "Graph":
        if p < 1:
            raise ConfigError(f"a chain needs at least one node, got {p}")
        return cls(p, np.column_stack([np.arange(p - 1), np.arange(1, p)]), kind="chain")

    @classmethod
    def grid4(cls, height: int, width: int) -> "Graph":
        if height < 1 or width < 1:
            raise ConfigError(f"a grid needs at least one row and column, got {height}x{width}")
        index = np.arange(height * width).reshape(height, width)
        edges = np.concatenate([
            np.column_stack([index[:, :-1].ravel(), index[:, 1:].ravel()]),
            np.column_stack([index[:-1].ravel(), index[1:].ravel()]),
        ])
        return cls(height * width, edges, kind="grid4")

    @classmethod
    def from_edges(cls, p: int, edges, kind: str = "general") -> "Graph":
        return cls(p, list(edges), kind=kind)

    def subgraph(self, nodes) -> "Graph":
        """The graph induced on ``nodes`` (ascending), renumbered 0..len(nodes)-1.

        Only edges between two kept nodes survive, so no edge links across a
        removed node.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.ndim != 1 or np.any(np.diff(nodes) <= 0):
            raise ConfigError("subgraph nodes must be ascending")
        if nodes.size and (nodes[0] < 0 or nodes[-1] >= self.p):
            raise DimensionMismatchError(f"subgraph nodes must lie in 0..{self.p - 1}")
        index = np.full(self.p, -1)
        index[nodes] = np.arange(nodes.size)
        src, dst = index[self.src], index[self.dst]
        keep = (src >= 0) & (dst >= 0)
        return Graph(nodes.size, np.column_stack([src[keep], dst[keep]]), kind=self.kind)

    def neighbor_mean(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean of each node's neighbor values plus an isolated-node mask."""
        values = np.asarray(values, dtype=float)
        sums = np.bincount(self.src, weights=values[self.dst], minlength=self.p)
        isolated = self.degrees == 0
        means = np.divide(sums, self.degrees, out=np.zeros(self.p), where=~isolated)
        return means, isolated


def load_graph_edges_csv(path: str, p: int, kind: str = "general") -> Graph:
    """Read an edge list (two integer columns per row) into a graph on p nodes."""
    edges = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                raw = raw.strip()
                if not raw or raw.startswith("#"):
                    continue
                parts = raw.replace(",", " ").split()
                if len(parts) != 2:
                    raise ParseError("expected two node indices", line=lineno)
                try:
                    edges.append((int(parts[0]), int(parts[1])))
                except ValueError:
                    raise ParseError(f"cannot parse edge {raw!r}", line=lineno) from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    return Graph.from_edges(p, edges, kind=kind)


# ---------------------------------------------------------------------------
# Prior density and exact segment posteriors
# ---------------------------------------------------------------------------


def fused_log_density(b, left_mean: float | None, right_mean: float | None,
                      scales: FusedScales):
    """Unnormalized log prior: sparsity factor plus one factor per neighbor.

    Passing ``None`` for a neighbor drops that factor (chain endpoints).
    """
    b = np.asarray(b, dtype=float)
    out = -np.abs(b) / scales.s1
    if left_mean is not None:
        out = out - np.abs(b - left_mean) / scales.s2
    if right_mean is not None:
        out = out - np.abs(b - right_mean) / scales.s2
    return float(out) if out.ndim == 0 else out


def _segments(mus: np.ndarray, inv_scales: np.ndarray):
    """Split each row's piecewise-linear log prior at its factor centers.

    ``mus`` and ``inv_scales`` are (p, F); a factor with inverse scale zero is
    inert (it contributes no slope change, so its breakpoint is harmless).
    Returns per-segment bounds, slopes and intercepts, all (p, F+1), with the
    leftmost/rightmost bounds at -/+ infinity.
    """
    p, f = mus.shape
    order = np.argsort(mus, axis=1)
    bps = np.take_along_axis(mus, order, axis=1)
    inv_sorted = np.take_along_axis(inv_scales, order, axis=1)
    total = inv_sorted.sum(axis=1, keepdims=True)
    prefix = np.concatenate([np.zeros((p, 1)), np.cumsum(inv_sorted, axis=1)], axis=1)
    slopes = total - 2.0 * prefix
    lo = np.concatenate([np.full((p, 1), -np.inf), bps], axis=1)
    hi = np.concatenate([bps, np.full((p, 1), np.inf)], axis=1)
    ref = np.where(
        np.isfinite(lo) & np.isfinite(hi),
        0.5 * (lo + hi),
        np.where(np.isfinite(hi), hi - 1.0, lo + 1.0),
    )
    log_u_ref = -(np.abs(ref[:, :, None] - mus[:, None, :]) * inv_scales[:, None, :]).sum(axis=2)
    intercepts = log_u_ref - slopes * ref
    return lo, hi, slopes, intercepts


def _log_exp_integrals(lo, hi, slopes, intercepts) -> np.ndarray:
    """log integral of exp(intercept + slope*u) over each segment, summed per row."""
    width = hi - lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pos = intercepts + slopes * np.where(np.isfinite(hi), hi, 0.0) - np.log(np.abs(slopes)) \
            + np.where(np.isfinite(lo), np.log1p(-np.exp(-np.abs(slopes) * width)), 0.0)
        neg = intercepts + slopes * np.where(np.isfinite(lo), lo, 0.0) - np.log(np.abs(slopes)) \
            + np.where(np.isfinite(hi), np.log1p(-np.exp(-np.abs(slopes) * width)), 0.0)
        flat = intercepts + np.log(width)
        log_segment = np.where(slopes > 0, pos, np.where(slopes < 0, neg, flat))
    log_segment = np.where(width > 0, log_segment, -np.inf)
    return _responsibilities(log_segment)[0]


def _log_norm_diff(a_std: np.ndarray, c_std: np.ndarray) -> np.ndarray:
    """log(Phi(c) - Phi(a)) elementwise, stable in both tails.

    Segments right of the mean use the survival form Phi(-a) - Phi(-c),
    otherwise the difference of two quantities near one loses every digit.
    Each entry's pair of arguments is chosen first, so ``log_ndtr`` runs once
    per bound.
    """
    right = a_std + c_std > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        upper = log_ndtr(np.where(right, -a_std, c_std))
        lower = log_ndtr(np.where(right, -c_std, a_std))
        out = upper + np.log1p(-np.exp(np.minimum(lower - upper, 0.0)))
    return np.where(c_std > a_std, out, -np.inf)


def _segment_moments(sigma02: float, lo, hi, slopes, intercepts):
    """Exact moments of N(u; 0, sigma02) exp(intercept + slope*u) over segments.

    All arrays are (p, S) in observation-centered coordinates.  Each segment's
    integrand is a Gaussian with mean slope*sigma02, so masses are normal tail
    differences and moments are truncated-normal moments.  Returns the
    centered mean, the variance and the per-row log integral.
    """
    sigma0 = math.sqrt(sigma02)
    mu_star = slopes * sigma02
    a_std = (lo - mu_star) / sigma0
    c_std = (hi - mu_star) / sigma0
    log_diff = _log_norm_diff(a_std, c_std)
    log_mass = intercepts + 0.5 * slopes**2 * sigma02 + log_diff
    with np.errstate(invalid="ignore"):
        log_total, weights = _responsibilities(log_mass)
    if not np.isfinite(log_total).all():
        raise QuadratureUnderflowError("posterior mass vanished in every segment")
    with np.errstate(invalid="ignore", over="ignore"):
        log_phi_a = -0.5 * a_std**2 - HALF_LOG_2PI
        log_phi_c = -0.5 * c_std**2 - HALF_LOG_2PI
        hazard_a = np.where(log_diff > -np.inf, np.exp(log_phi_a - log_diff), 0.0)
        hazard_c = np.where(log_diff > -np.inf, np.exp(log_phi_c - log_diff), 0.0)
        hazard_a = np.where(np.isfinite(lo), hazard_a, 0.0)
        hazard_c = np.where(np.isfinite(hi), hazard_c, 0.0)
        seg_mean = mu_star + sigma0 * (hazard_a - hazard_c)
        term_a = np.where(np.isfinite(lo), (mu_star + lo) * hazard_a, 0.0)
        term_c = np.where(np.isfinite(hi), (mu_star + hi) * hazard_c, 0.0)
        seg_second = mu_star**2 + sigma02 + sigma0 * (term_a - term_c)
        mean_u = (weights * np.where(weights > 0, seg_mean, 0.0)).sum(axis=1)
        second_u = (weights * np.where(weights > 0, seg_second, 0.0)).sum(axis=1)
    variance = np.maximum(second_u - mean_u**2, 0.0)
    return mean_u, variance, log_total


def _factor_arrays(nbr: np.ndarray, scales: FusedScales):
    """Center and inverse-scale matrices for the sparsity + neighbor factors.

    Missing neighbors become inert factors (inverse scale zero at center 0);
    a node with no neighbor at all gets a second factor at 0 with scale s1.
    """
    nbr = np.asarray(nbr, dtype=float)
    if nbr.ndim == 1:
        nbr = nbr[:, None]
    p, width = nbr.shape
    finite = np.isfinite(nbr)
    mus = np.zeros((p, width + 1))
    inv = np.zeros((p, width + 1))
    inv[:, 0] = 1.0 / scales.s1
    mus[:, 1:] = np.where(finite, nbr, 0.0)
    inv[:, 1:] = np.where(finite, 1.0 / scales.s2, 0.0)
    inv[~finite.any(axis=1), 1] = 1.0 / scales.s1
    return mus, inv


def fused_posterior_stats(beta_bar: np.ndarray, sigma02: float, neighbor_means: np.ndarray,
                          scales: FusedScales) -> PosteriorStats:
    """Posteriors under the fused prior for all coordinates at once.

    Computed by exact segment-wise Gaussian integration (the log prior is
    piecewise linear).  The prior's segments, built once in
    observation-centered coordinates, serve both integrals: the posterior
    moments and log integral against the Gaussian observation, and the
    prior's own normalizing constant.  ``log_marginal`` is normalized by that
    constant, so marginal likelihoods are comparable across scale settings.
    """
    beta_bar = np.asarray(beta_bar, dtype=float)
    mus, inv = _factor_arrays(neighbor_means, scales)
    segments = _segments(mus - beta_bar[:, None], inv)
    mean_u, variance, log_integral = _segment_moments(sigma02, *segments)
    return PosteriorStats(
        mean=beta_bar + mean_u,
        variance=variance,
        null_prob=np.zeros_like(mean_u),
        log_marginal=log_integral - _log_exp_integrals(*segments),
    )


def fused_log_marginal(beta_bar: np.ndarray, sigma02: float, neighbor_means: np.ndarray,
                       scales: FusedScales) -> np.ndarray:
    """Normalized per-coordinate marginal log likelihood under the fused prior."""
    return fused_posterior_stats(beta_bar, sigma02, neighbor_means, scales).log_marginal


def learn_scales(beta_bar: np.ndarray, sigma02: float, neighbor_means: np.ndarray,
                 grid_size: int = 12, bounds: tuple[float, float] = (1e-3, 10.0)) -> FusedScales:
    """Maximize the summed marginal log likelihood over the two Laplace scales.

    A logarithmic grid search locates the basin; ``refine_scales`` polishes
    its best point.  Deterministic by construction.
    """
    beta_bar = np.asarray(beta_bar, dtype=float)
    values = [float(v) for v in np.geomspace(bounds[0], bounds[1], grid_size)]
    best_value, best = -np.inf, FusedScales(values[0], values[0])
    for s1 in values:
        for s2 in values:
            scales = FusedScales(s1, s2)
            value = float(fused_log_marginal(beta_bar, sigma02, neighbor_means, scales).sum())
            if value > best_value:
                best_value, best = value, scales
    return refine_scales(beta_bar, sigma02, neighbor_means, best, bounds)


def refine_scales(beta_bar: np.ndarray, sigma02: float, neighbor_means: np.ndarray,
                  start: FusedScales, bounds: tuple[float, float] = (1e-3, 10.0)) -> FusedScales:
    """Local marginal-likelihood polish of the scales, warm-started at ``start``.

    One Nelder-Mead run in log-scale coordinates.  Used on re-learns inside
    iterative drivers: a fresh global grid search can jump to a degenerate
    near-delta corner once the latent means echo the neighbor anchors, whereas
    a local refinement keeps hyperparameters on the path they converged along.
    Never returns a worse point than ``start``.
    """
    # imported here, the one place that needs it, to keep it out of `import nash`
    from scipy.optimize import minimize

    beta_bar = np.asarray(beta_bar, dtype=float)
    lo, hi = math.log(bounds[0]), math.log(bounds[1])

    def neg_log_objective(x):
        s1, s2 = np.exp(np.clip(x, lo, hi))
        return -float(fused_log_marginal(beta_bar, sigma02, neighbor_means,
                                         FusedScales(float(s1), float(s2))).sum())

    start_value = -neg_log_objective(np.log([start.s1, start.s2]))
    polish = minimize(
        neg_log_objective,
        x0=np.log([start.s1, start.s2]),
        method="Nelder-Mead",
        options={"xatol": 1e-3, "fatol": 1e-8, "maxiter": 120},
    )
    if -polish.fun > start_value:
        s1, s2 = np.exp(np.clip(polish.x, lo, hi))
        return FusedScales(float(s1), float(s2))
    return start


# ---------------------------------------------------------------------------
# Neighbor summaries
# ---------------------------------------------------------------------------


def _neighbor_matrix(graph: Graph, b_bar: np.ndarray) -> np.ndarray:
    """Batch neighbor summaries: (p, 2) for chains, (p, 1) otherwise; missing factors are NaN."""
    b_bar = np.asarray(b_bar, dtype=float)
    if graph.kind == "chain":
        nbr = np.full((graph.p, 2), np.nan)
        left = graph.dst < graph.src
        nbr[graph.src[left], 0] = b_bar[graph.dst[left]]
        nbr[graph.src[~left], 1] = b_bar[graph.dst[~left]]
        return nbr
    means, isolated = graph.neighbor_mean(b_bar)
    nbr = means[:, None].copy()
    nbr[isolated, 0] = np.nan
    return nbr


# ---------------------------------------------------------------------------
# Engine adapter
# ---------------------------------------------------------------------------


class FusedPrior:
    """Graph-fused prior for the regression engine.

    Neighbor anchors are read from the previous sweep's latent means
    (Jacobi style), so all per-node posteriors within a sweep are
    independent and the sweep is order-free.  The two global scales are
    learned on the first update and then held: re-learning against anchors
    the fit itself produced collapses the smoothness scale (see
    ``DenoiseConfig``).
    """

    kind = "fused"
    side_kind = "graph"

    def __init__(self, graph: Graph):
        self.graph = graph
        self.scales: FusedScales | None = None
        self.b_prev = np.zeros(graph.p)

    def update(self, beta_bar: np.ndarray, sigma02: float) -> PosteriorStats:
        nbr = _neighbor_matrix(self.graph, self.b_prev)
        if self.scales is None:
            self.scales = learn_scales(beta_bar, sigma02, nbr)
        stats = fused_posterior_stats(beta_bar, sigma02, nbr, self.scales)
        self.b_prev = stats.mean
        return stats

    def prior_null_mass(self) -> np.ndarray | None:
        return None

    def params_dict(self) -> dict:
        params = {"graph_kind": self.graph.kind}
        if self.scales is not None:
            params.update(s1=self.scales.s1, s2=self.scales.s2)
        return params


# ---------------------------------------------------------------------------
# Image denoising
# ---------------------------------------------------------------------------


LEARN_EVERY = 5  # sweeps between scale learns in ``denoise_image``


@dataclass
class DenoiseConfig:
    """Settings for ``denoise_image``.

    The Laplace ``scales`` are used as given unless ``learn_scales`` is set,
    which needs at least ``LEARN_EVERY`` sweeps.  Learning is opt-in: against
    anchors the sweep itself produced, the exact marginal-likelihood optimum
    collapses the smoothness scale and the denoiser then tracks the prior
    instead of the data.
    """

    sweeps: int = 30
    scales: FusedScales = FusedScales(0.45, 0.15)
    learn_scales: bool = False
    noise_sd: float | None = None

    def __post_init__(self):
        if self.sweeps < 1:
            raise ConfigError(f"need at least one sweep, got {self.sweeps}")
        if self.learn_scales and self.sweeps < LEARN_EVERY:
            raise ConfigError(f"learning the scales needs at least {LEARN_EVERY} sweeps, got {self.sweeps}")
        if self.noise_sd is not None and not (self.noise_sd > 0 and math.isfinite(self.noise_sd)):
            raise ConfigError(f"noise sd must be positive and finite, got {self.noise_sd}")


def estimate_noise_sd(image: np.ndarray) -> float:
    """Robust noise estimate from first differences (median absolute deviation)."""
    diffs = np.concatenate([np.diff(image, axis=0).ravel(), np.diff(image, axis=1).ravel()])
    if diffs.size == 0:
        raise ConfigError("a 1x1 image has no pixel differences to estimate the noise from; "
                          "pass a noise sd (noise_sd, or --sigma)")
    return float(np.median(np.abs(diffs)) / (math.sqrt(2.0) * 0.6744897501960817))


def rmse(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean((np.asarray(a, float) - np.asarray(b, float)) ** 2)))


def denoise_image(noisy: np.ndarray, config: DenoiseConfig | None = None, *,
                  with_info: bool = False):
    """Denoise a single image under the fused prior on its 4-neighbor pixel grid.

    The image is treated as a normal-means problem: each pixel observes its
    own coefficient, so the dampening weight reduces to
    sigma0^2 / (sigma^2 + sigma0^2).  With ``learn_scales`` enabled the Laplace
    scales are re-fit every ``LEARN_EVERY`` sweeps (first a global search, then
    warm-started refinements).  The returned matrix holds the final latent means.
    """
    if config is None:
        config = DenoiseConfig()
    noisy = np.asarray(noisy, dtype=float)
    if noisy.ndim != 2:
        raise DimensionMismatchError("image must be a 2-d matrix")
    if not np.isfinite(noisy).all():
        raise ParseError("image contains non-finite pixels")
    height, width = noisy.shape
    graph = Graph.grid4(height, width)
    y = noisy.ravel()
    n = y.size

    sd = config.noise_sd if config.noise_sd is not None else estimate_noise_sd(noisy)
    sigma2_init = max(sd**2, 1e-12)
    sigma2 = sigma2_init
    sigma02 = max(float(np.var(y)) - sigma2, sigma2)
    scales = config.scales
    b_bar = np.zeros(n)
    elbo_trace: list[float] = []
    data_term: list[float] = []

    for t in range(1, config.sweeps + 1):
        omega = sigma02 / (sigma2 + sigma02)
        s_2 = 1.0 / (1.0 / sigma2 + 1.0 / sigma02)
        beta_bar = omega * y + (1.0 - omega) * b_bar
        stats = fused_posterior_stats(beta_bar, sigma02, _neighbor_matrix(graph, b_bar), scales)
        b_bar = stats.mean
        gap2 = float(np.sum(stats.variance + (beta_bar - b_bar) ** 2))
        t1 = (
            -0.5 * n * math.log(2.0 * math.pi * sigma2)
            - (float(np.sum((y - beta_bar) ** 2)) + n * s_2) / (2.0 * sigma2)
            + 0.5 * n * (math.log(2.0 * math.pi * s_2) + 1.0)
        )
        t2 = -0.5 * n * math.log(2.0 * math.pi * sigma02) - (n * s_2 + gap2) / (2.0 * sigma02)
        t3 = float(stats.log_marginal.sum()) + 0.5 * n * math.log(2.0 * math.pi * sigma02) + gap2 / (2.0 * sigma02)
        elbo_trace.append(t1 + t2 + t3)
        data_term.append(float(np.sum((y - b_bar) ** 2)))
        if config.learn_scales and t % LEARN_EVERY == 0:
            nbr = _neighbor_matrix(graph, b_bar)
            if t == LEARN_EVERY:
                scales = learn_scales(beta_bar, sigma02, nbr)
            else:
                scales = refine_scales(beta_bar, sigma02, nbr, scales)
        # observation-variance refinement is confined to a trust band around
        # the known/estimated level: letting it absorb the cold-start misfit
        # collapses the split variance and freezes the iteration
        sigma2 = float(np.clip(np.mean((y - beta_bar) ** 2) + s_2,
                               sigma2_init / 4.0, sigma2_init * 4.0))
        sigma02 = max(float(np.mean(s_2 + stats.variance + (beta_bar - b_bar) ** 2)), 1e-12)

    denoised = b_bar.reshape(height, width)
    if with_info:
        info = {
            "elbo_trace": elbo_trace,
            "data_term": data_term,
            "scales": scales,
            "sigma2": sigma2,
            "sigma02": sigma02,
        }
        return denoised, info
    return denoised
