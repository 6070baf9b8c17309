"""Graph-fused Laplace priors with exact piecewise posteriors, and image denoising.

Each coordinate's prior is a product of Laplace factors: one centered at zero
(sparsity) and one per available neighbor summary (smoothness).  On chain
graphs both neighbors contribute their own factor; on arbitrary graphs a
single factor is tied to the mean of the neighbor values.

The log prior is piecewise linear, so the posterior against a Gaussian
observation splits at the factor centers into segments whose masses and
moments are exact Gaussian tail expressions; the prior's normalizing
constant is a sum of exact exponential integrals.

The arrays are factor-major: a node's F factors and S = F+1 segments are rows
of (F, p) and (S, p) arrays, so reductions across segments are elementwise ops
on contiguous rows.  A compare-swap network sorts the breakpoints, and each
segment's intercept has a closed form over the factors to its left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ash import PosteriorStats, _responsibilities
from .data import CSV_ENCODING
from .engine import VARIANCE_FLOOR, FitState, coefficient_variance, dampening_weight, split_step
from .errors import ConfigError, DimensionMismatchError, NonFiniteError, ParseError, QuadratureUnderflowError

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
        with open(path, encoding=CSV_ENCODING) as fh:
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
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not UTF-8 text") from None
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
    """Split each node's piecewise-linear log prior at its factor centers.

    ``mus`` and ``inv_scales`` are (F, p); a factor with inverse scale zero is
    inert.  F(F-1)/2 compare-swaps sort the rows (ties never swap).  With sums
    over the factors left of segment k, its slope is ``total - 2*prefix`` and
    its intercept ``2*cumsum(inv*mu) - sum(inv*mu)``.  Returns the sorted
    breakpoints (F, p) and the slopes and intercepts (S, p).
    """
    bps, inv = list(mus), list(inv_scales)
    for top in range(len(bps) - 1, 0, -1):
        for k in range(top):
            swap = bps[k] > bps[k + 1]
            bps[k], bps[k + 1] = np.minimum(bps[k], bps[k + 1]), np.maximum(bps[k], bps[k + 1])
            inv[k], inv[k + 1] = np.where(swap, inv[k + 1], inv[k]), np.where(swap, inv[k], inv[k + 1])
    bps, inv = np.array(bps), np.array(inv)
    zero = np.zeros_like(bps[:1])
    prefix = np.cumsum(np.vstack([zero, inv]), axis=0)
    weighted = np.cumsum(np.vstack([zero, inv * bps]), axis=0)
    return bps, prefix[-1] - 2.0 * prefix, 2.0 * weighted - weighted[-1]


def _log_exp_integrals(bps, slopes, intercepts) -> np.ndarray:
    """log integral of exp(intercept + slope*u) over all of a node's segments.

    The outer slopes are ``total`` > 0 (the sparsity factor always has
    1/s1 > 0) on the left and ``-total`` on the right, so the outer segments
    take their one-sided closed forms unmasked; only interior rows need the
    general form, with its flat and empty cases.
    """
    total, slope, width = slopes[:1], slopes[1:-1], bps[1:] - bps[:-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tilted = intercepts[1:-1] + slope * np.where(slope > 0, bps[1:], bps[:-1]) \
            - np.log(np.abs(slope)) + np.log1p(-np.exp(-np.abs(slope) * width))
        inner = np.where(slope != 0, tilted, intercepts[1:-1] + np.log(width))
    log_segment = np.vstack([intercepts[:1] + total * bps[:1] - np.log(total),
                             np.where(width > 0, inner, -np.inf),
                             intercepts[-1:] - total * bps[-1:] - np.log(total)])
    return _responsibilities(log_segment.T)[0]


def _log_norm_diff(a_std: np.ndarray, c_std: np.ndarray) -> np.ndarray:
    """log(Phi(c) - Phi(a)) elementwise, stable in both tails.

    Segments right of the mean use the survival form Phi(-a) - Phi(-c),
    otherwise the difference of two quantities near one loses every digit.
    Each entry's pair of arguments is chosen first, so ``log_ndtr`` runs once
    per bound.
    """
    # imported here to keep scipy out of `import nash`
    from scipy.special import log_ndtr

    right = a_std + c_std > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        upper = log_ndtr(np.where(right, -a_std, c_std))
        lower = log_ndtr(np.where(right, -c_std, a_std))
        out = upper + np.log1p(-np.exp(np.minimum(lower - upper, 0.0)))
    return np.where(c_std > a_std, out, -np.inf)


def _segment_moments(sigma02: float, bps, slopes, intercepts):
    """Exact moments of N(u; 0, sigma02) exp(intercept + slope*u) over segments.

    Arrays as from ``_segments``, observation-centered.  Each segment's
    integrand is a Gaussian with mean slope*sigma02: masses are normal tail
    differences (one ``log_ndtr`` per outer segment), moments truncated-normal
    moments.  Returns the centered mean, the variance and the log integral.
    """
    # imported here to keep scipy out of `import nash`
    from scipy.special import log_ndtr

    sigma0 = math.sqrt(sigma02)
    mu_star = slopes * sigma02
    a_std = (bps - mu_star[1:]) / sigma0  # lower bounds of segments 1..F
    c_std = (bps - mu_star[:-1]) / sigma0  # upper bounds of segments 0..F-1
    log_diff = np.vstack([log_ndtr(c_std[:1]), _log_norm_diff(a_std[:-1], c_std[1:]), log_ndtr(-a_std[-1:])])
    log_mass = intercepts + 0.5 * slopes**2 * sigma02 + log_diff
    with np.errstate(invalid="ignore"):
        log_total, shares = _responsibilities(log_mass.T)  # (p, S) views of (S, p) arrays
    weights = shares.T
    if not np.isfinite(log_total).all():
        raise QuadratureUnderflowError("posterior mass vanished in every segment")
    with np.errstate(invalid="ignore", over="ignore"):
        hazard_a = np.where(log_diff[1:] > -np.inf, np.exp(-0.5 * a_std**2 - HALF_LOG_2PI - log_diff[1:]), 0.0)
        hazard_c = np.where(log_diff[:-1] > -np.inf, np.exp(-0.5 * c_std**2 - HALF_LOG_2PI - log_diff[:-1]), 0.0)
        term_a, term_c = (mu_star[1:] + bps) * hazard_a, (mu_star[:-1] + bps) * hazard_c
        # per segment: lower-bound term minus upper-bound term, none at an open end
        seg_mean = mu_star + sigma0 * np.vstack([-hazard_c[:1], hazard_a[:-1] - hazard_c[1:], hazard_a[-1:]])
        seg_second = mu_star**2 + sigma02 + sigma0 * np.vstack([-term_c[:1], term_a[:-1] - term_c[1:], term_a[-1:]])
        mean_u = (weights * np.where(weights > 0, seg_mean, 0.0)).sum(axis=0)
        second_u = (weights * np.where(weights > 0, seg_second, 0.0)).sum(axis=0)
    variance = np.maximum(second_u - mean_u**2, 0.0)
    return mean_u, variance, log_total


def _factor_arrays(nbr: np.ndarray, scales: FusedScales):
    """Center and inverse-scale rows, (F, p): sparsity, then ``nbr`` transposed.

    Missing neighbors become inert factors (inverse scale zero at center 0);
    a node with no neighbor at all gets a second factor at 0 with scale s1.
    """
    rows = np.atleast_2d(nbr.T)
    finite = np.isfinite(rows)
    mus = np.vstack([np.zeros_like(rows[:1]), np.where(finite, rows, 0.0)])
    inv = np.vstack([np.full_like(rows[:1], 1.0 / scales.s1), np.where(finite, 1.0 / scales.s2, 0.0)])
    inv[1, ~finite.any(axis=0)] = 1.0 / scales.s1
    return mus, inv


def fused_posterior_stats(beta_bar: np.ndarray, sigma02: float, neighbor_means: np.ndarray,
                          scales: FusedScales) -> PosteriorStats:
    """Posteriors under the fused prior for all coordinates at once.

    ``neighbor_means`` is (p,) or (p, W), NaN where a neighbor is missing.
    Computed by exact segment-wise Gaussian integration (the log prior is
    piecewise linear).  The prior's segments, built once in
    observation-centered coordinates, serve both integrals: the posterior
    moments and log integral against the Gaussian observation, and the
    prior's own normalizing constant.  ``log_marginal`` is normalized by that
    constant, so marginal likelihoods are comparable across scale settings.
    """
    beta_bar = np.asarray(beta_bar, dtype=float)
    nbr = np.asarray(neighbor_means, dtype=float)
    if nbr.shape[:1] != beta_bar.shape or not 1 <= nbr.ndim <= 2 or 0 in nbr.shape[1:]:
        raise DimensionMismatchError(
            f"neighbor summaries of shape {nbr.shape} do not match {beta_bar.shape} coefficients")
    if not np.isfinite(beta_bar).all():
        raise NonFiniteError("coefficient estimates must be finite")
    mus, inv = _factor_arrays(nbr, scales)
    segments = _segments(mus - beta_bar, inv)
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

    One Nelder-Mead run in log-scale coordinates; ``learn_scales`` polishes
    its best grid point with it.  No iterative driver warm-starts it any
    more: both the engine and the denoiser hold their scales once set.
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
    """Neighbor summaries, (p, 2) for chains and (p, 1) otherwise, NaN where missing; views of (W, p) rows."""
    b_bar = np.asarray(b_bar, dtype=float)
    if graph.kind == "chain":
        nbr = np.full((2, graph.p), np.nan)
        left = graph.dst < graph.src
        nbr[0, graph.src[left]] = b_bar[graph.dst[left]]
        nbr[1, graph.src[~left]] = b_bar[graph.dst[~left]]
        return nbr.T
    means, isolated = graph.neighbor_mean(b_bar)
    return np.where(isolated, np.nan, means)[:, None]


# ---------------------------------------------------------------------------
# Engine adapter
# ---------------------------------------------------------------------------


class FusedPrior:
    """Graph-fused prior for the regression engine.

    Neighbor anchors are read from the previous sweep's latent means
    (Jacobi style), so all per-node posteriors within a sweep are
    independent and the sweep is order-free.  The two global scales are
    learned on the first update and then held; scales set before the first
    update are held from the start, as the denoiser does.  Re-learning
    against anchors the fit itself produced collapses the smoothness scale
    (see ``DenoiseConfig``).
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


@dataclass
class DenoiseConfig:
    """Settings for ``denoise_image``.

    The Laplace ``scales`` are held for the whole run.  They are not learned:
    against anchors the sweep itself produced, the exact marginal-likelihood
    optimum collapses the smoothness scale and the denoiser then tracks the
    prior instead of the data (see the README caveat on fused scale learning).
    """

    sweeps: int = 30
    scales: FusedScales = FusedScales(0.45, 0.15)
    noise_sd: float | None = None

    def __post_init__(self):
        if self.sweeps < 1:
            raise ConfigError(f"need at least one sweep, got {self.sweeps}")
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

    The image is the regression model on the identity design: n = p pixels,
    each observing its own coefficient, so every column has norm x_j^T x_j = 1
    and the coefficient pass is the blend ``omega * y + (1 - omega) * b_bar``.
    The rest of each sweep is the engine's ``split_step``; only the
    residual-variance update is then held in a trust band.  The returned
    matrix holds the final latent means.
    """
    if config is None:
        config = DenoiseConfig()
    noisy = np.asarray(noisy, dtype=float)
    if noisy.ndim != 2:
        raise DimensionMismatchError("image must be a 2-d matrix")
    if not np.isfinite(noisy).all():
        raise ParseError("image contains non-finite pixels")
    height, width = noisy.shape
    prior = FusedPrior(Graph.grid4(height, width))
    prior.scales = config.scales
    y = noisy.ravel()
    n = y.size

    sd = config.noise_sd if config.noise_sd is not None else estimate_noise_sd(noisy)
    sigma2_init = max(sd**2, VARIANCE_FLOOR)
    # b_bar starts as the prior's zero anchors; r_bar stays the residual at
    # beta_bar = 0, since only its sum of squares is needed after that
    state = FitState(
        beta_bar=np.zeros(n),
        b_bar=prior.b_prev,
        b_var=np.zeros(n),
        r_bar=y,
        sigma2=sigma2_init,
        sigma02=max(float(np.var(y)) - sigma2_init, sigma2_init),
        s_j2=0.0,
        beta_mle=y,
        log_marginal=np.zeros(n),
        null_prob=np.zeros(n),
    )
    data_term: list[float] = []

    for _ in range(config.sweeps):
        state.s_j2 = coefficient_variance(1, state.sigma2, state.sigma02)
        omega = dampening_weight(1, state.sigma2, state.sigma02)
        state.beta_bar = omega * y + (1.0 - omega) * state.b_bar
        # a transient residual summed by np.sum: a BLAS dot leaves OpenBLAS threads
        # spinning, and a held residual would add a pixel array to the peak memory
        split_step(state, prior, n, 1, float(np.sum((y - state.beta_bar) ** 2)))
        data_term.append(float(np.sum((y - state.b_bar) ** 2)))
        # observation-variance refinement is confined to a trust band around
        # the known/estimated level: letting it absorb the cold-start misfit
        # collapses the split variance and freezes the iteration
        state.sigma2 = float(np.clip(state.sigma2, sigma2_init / 4.0, sigma2_init * 4.0))

    denoised = state.b_bar.reshape(height, width)
    if with_info:
        info = {
            "elbo_trace": state.elbo_trace,
            "data_term": data_term,
            "scales": prior.scales,
            "sigma2": state.sigma2,
            "sigma02": state.sigma02,
        }
        return denoised, info
    return denoised
