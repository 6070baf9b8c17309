"""Tests for graph priors, exact segment posteriors, scale learning, denoising."""

import math

import numpy as np
import pytest
from scipy.special import log_ndtr

import nash
from conftest import piecewise_image, random_regression
from nash import fused
from nash.ash import _responsibilities
from nash.errors import ConfigError, DimensionMismatchError, NonFiniteError, QuadratureUnderflowError
from nash.fused import (
    DenoiseConfig,
    HALF_LOG_2PI,
    FusedPrior,
    FusedScales,
    Graph,
    _factor_arrays,
    _log_exp_integrals,
    _log_norm_diff,
    _neighbor_matrix,
    _segment_moments,
    _segments,
    denoise_image,
    estimate_noise_sd,
    fused_log_density,
    fused_log_marginal,
    fused_posterior_stats,
    learn_scales,
    refine_scales,
    rmse,
)


def normal_pdf(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var)


def oracle_moments(beta_bar, sigma02, log_prior, points=100_000, width=10.0, centers=(0.0,)):
    """Dense-grid trapezoid posterior moments for an arbitrary log prior.

    The window spans the observation and any prior centers by ``width``
    combined standard deviations, so off-center prior mass is not clipped.
    """
    half = width * np.sqrt(sigma02)
    lo = min(beta_bar, *centers) - half
    hi = max(beta_bar, *centers) + half
    grid = np.linspace(lo, hi, points)
    joint = normal_pdf(beta_bar, grid, sigma02) * np.exp(log_prior(grid))
    mass = np.trapezoid(joint, grid)
    mean = np.trapezoid(grid * joint, grid) / mass
    second = np.trapezoid(grid**2 * joint, grid) / mass
    return mean, second - mean**2, np.log(mass)


def reference_log_norm_diff(a_std, c_std):
    """log(Phi(c) - Phi(a)) from both CDF and both survival terms, keeping one pair per entry."""
    with np.errstate(invalid="ignore", divide="ignore"):
        lower_cdf = log_ndtr(a_std)
        upper_cdf = log_ndtr(c_std)
        left = upper_cdf + np.log1p(-np.exp(np.minimum(lower_cdf - upper_cdf, 0.0)))
        upper_sf = log_ndtr(-a_std)
        lower_sf = log_ndtr(-c_std)
        right = upper_sf + np.log1p(-np.exp(np.minimum(lower_sf - upper_sf, 0.0)))
        out = np.where(a_std + c_std > 0, right, left)
    return np.where(c_std > a_std, out, -np.inf)


def reference_fused_posterior_stats(beta_bar, sigma02, nbr, scales):
    """The row-major segment posterior: (p, F) factors sorted by ``argsort``.

    Intercepts come from evaluating the log prior at a reference point inside
    each segment; masses and moments from a (p, S) pass with every bound
    masked for infinity.  Returns mean, variance and normalized log marginal.
    """
    beta_bar = np.asarray(beta_bar, dtype=float)
    nbr = np.asarray(nbr, dtype=float)
    nbr = nbr[:, None] if nbr.ndim == 1 else nbr
    p, width = nbr.shape
    finite = np.isfinite(nbr)
    mus, inv = np.zeros((p, width + 1)), np.zeros((p, width + 1))
    inv[:, 0] = 1.0 / scales.s1
    mus[:, 1:] = np.where(finite, nbr, 0.0)
    inv[:, 1:] = np.where(finite, 1.0 / scales.s2, 0.0)
    inv[~finite.any(axis=1), 1] = 1.0 / scales.s1
    mus = mus - beta_bar[:, None]

    order = np.argsort(mus, axis=1)
    bps = np.take_along_axis(mus, order, axis=1)
    inv_sorted = np.take_along_axis(inv, order, axis=1)
    total = inv_sorted.sum(axis=1, keepdims=True)
    slopes = total - 2.0 * np.concatenate([np.zeros((p, 1)), np.cumsum(inv_sorted, axis=1)], axis=1)
    lo = np.concatenate([np.full((p, 1), -np.inf), bps], axis=1)
    hi = np.concatenate([bps, np.full((p, 1), np.inf)], axis=1)
    ref = np.where(np.isfinite(lo) & np.isfinite(hi), 0.5 * (lo + hi),
                   np.where(np.isfinite(hi), hi - 1.0, lo + 1.0))
    log_u_ref = -(np.abs(ref[:, :, None] - mus[:, None, :]) * inv[:, None, :]).sum(axis=2)
    intercepts = log_u_ref - slopes * ref

    width = hi - lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pos = intercepts + slopes * np.where(np.isfinite(hi), hi, 0.0) - np.log(np.abs(slopes)) \
            + np.where(np.isfinite(lo), np.log1p(-np.exp(-np.abs(slopes) * width)), 0.0)
        neg = intercepts + slopes * np.where(np.isfinite(lo), lo, 0.0) - np.log(np.abs(slopes)) \
            + np.where(np.isfinite(hi), np.log1p(-np.exp(-np.abs(slopes) * width)), 0.0)
        flat = intercepts + np.log(width)
        log_segment = np.where(slopes > 0, pos, np.where(slopes < 0, neg, flat))
    log_prior_mass = _responsibilities(np.where(width > 0, log_segment, -np.inf))[0]

    sigma0 = np.sqrt(sigma02)
    mu_star = slopes * sigma02
    a_std = (lo - mu_star) / sigma0
    c_std = (hi - mu_star) / sigma0
    log_diff = _log_norm_diff(a_std, c_std)
    with np.errstate(invalid="ignore"):
        log_total, weights = _responsibilities(intercepts + 0.5 * slopes**2 * sigma02 + log_diff)
    with np.errstate(invalid="ignore", over="ignore"):
        hazard_a = np.where(log_diff > -np.inf, np.exp(-0.5 * a_std**2 - HALF_LOG_2PI - log_diff), 0.0)
        hazard_c = np.where(log_diff > -np.inf, np.exp(-0.5 * c_std**2 - HALF_LOG_2PI - log_diff), 0.0)
        hazard_a = np.where(np.isfinite(lo), hazard_a, 0.0)
        hazard_c = np.where(np.isfinite(hi), hazard_c, 0.0)
        seg_mean = mu_star + sigma0 * (hazard_a - hazard_c)
        term_a = np.where(np.isfinite(lo), (mu_star + lo) * hazard_a, 0.0)
        term_c = np.where(np.isfinite(hi), (mu_star + hi) * hazard_c, 0.0)
        seg_second = mu_star**2 + sigma02 + sigma0 * (term_a - term_c)
        mean_u = (weights * np.where(weights > 0, seg_mean, 0.0)).sum(axis=1)
        second_u = (weights * np.where(weights > 0, seg_second, 0.0)).sum(axis=1)
    return beta_bar + mean_u, np.maximum(second_u - mean_u**2, 0.0), log_total - log_prior_mass


def reference_segments(mus, inv_scales):
    """The segment builder before running sums: ``cumsum`` over ``vstack``-built stacks."""
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


def reference_log_exp_integrals(bps, slopes, intercepts):
    """The prior normalizer before preallocated rows: a ``vstack`` of the three row kinds."""
    total, slope, width = slopes[:1], slopes[1:-1], bps[1:] - bps[:-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tilted = intercepts[1:-1] + slope * np.where(slope > 0, bps[1:], bps[:-1]) \
            - np.log(np.abs(slope)) + np.log1p(-np.exp(-np.abs(slope) * width))
        inner = np.where(slope != 0, tilted, intercepts[1:-1] + np.log(width))
    log_segment = np.vstack([intercepts[:1] + total * bps[:1] - np.log(total),
                             np.where(width > 0, inner, -np.inf),
                             intercepts[-1:] - total * bps[-1:] - np.log(total)])
    return _responsibilities(log_segment.T)[0]


def reference_segment_moments(sigma02, bps, slopes, intercepts):
    """The segment moments before preallocated rows: ``vstack``-built (S, p) stacks."""
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


def reference_posterior(beta_bar, sigma02, nbr, scales):
    """One unblocked pass over the reference kernels: mean, variance, normalized log marginal."""
    mus, inv = _factor_arrays(np.asarray(nbr, dtype=float), scales)
    segments = reference_segments(mus - beta_bar, inv)
    mean_u, variance, log_integral = reference_segment_moments(sigma02, *segments)
    return beta_bar + mean_u, variance, log_integral - reference_log_exp_integrals(*segments)


def reference_denoise(noisy, config):
    """``denoise_image`` as a loop over the reference kernels: image, trace and data term."""
    height, width = noisy.shape
    graph, y = Graph.grid4(height, width), noisy.ravel()
    sd = config.noise_sd if config.noise_sd is not None else estimate_noise_sd(noisy)
    sigma2 = max(sd**2, 1e-12)
    means, trace, data_term = np.zeros(y.size), [], []
    for _ in range(config.sweeps):
        means, _, log_marginal = reference_posterior(y, sigma2, _neighbor_matrix(graph, means), config.scales)
        trace.append(float(log_marginal.sum()))
        data_term.append(float(np.sum((y - means) ** 2)))
    return means.reshape(height, width), trace, data_term


def reference_chain(p):
    return [np.array([j for j in (i - 1, i + 1) if 0 <= j < p], dtype=int) for i in range(p)]


def reference_grid4(height, width):
    neighbors = []
    for r in range(height):
        for c in range(width):
            nb = []
            if r > 0:
                nb.append((r - 1) * width + c)
            if r < height - 1:
                nb.append((r + 1) * width + c)
            if c > 0:
                nb.append(r * width + c - 1)
            if c < width - 1:
                nb.append(r * width + c + 1)
            neighbors.append(np.array(sorted(nb), dtype=int))
    return neighbors


def reference_from_edges(p, edges):
    adj = [set() for _ in range(p)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return [np.array(sorted(s), dtype=int) for s in adj]


def reference_subgraph(neighbors, nodes):
    index = np.full(len(neighbors), -1)
    index[nodes] = np.arange(len(nodes))
    return [nb[nb >= 0] for nb in (index[neighbors[j]] for j in nodes)]


def reference_neighbor_matrix(neighbors, kind, b):
    """Neighbor summaries as the per-node list builder produced them."""
    p = len(neighbors)
    src = np.repeat(np.arange(p), [nb.size for nb in neighbors])
    dst = np.concatenate(neighbors) if src.size else np.empty(0, dtype=int)
    degrees = np.array([nb.size for nb in neighbors], dtype=int)
    sums = np.bincount(src, weights=b[dst], minlength=p) if src.size else np.zeros(p)
    means = np.divide(sums, degrees, out=np.zeros(p), where=degrees > 0)
    if kind == "chain":
        linked = np.zeros(max(p - 1, 0), dtype=bool)
        linked[src[dst == src + 1]] = True
        cuts = np.flatnonzero(~linked)
        nbr = np.full((p, 2), np.nan)
        nbr[1:, 0] = b[:-1]
        nbr[:-1, 1] = b[1:]
        nbr[cuts + 1, 0] = np.nan
        nbr[cuts, 1] = np.nan
    else:
        nbr = means[:, None].copy()
        nbr[degrees == 0, 0] = np.nan
    return src, dst, degrees, means, nbr


def _random_edges(seed, p=15, count=40):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, p, size=(count, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    # repeat some pairs, some of them reversed
    return p, [tuple(e) for e in np.concatenate([edges, edges[:10], edges[5:15, ::-1]])]


def _graph_cases():
    cases = {
        "chain1": (Graph.chain(1), reference_chain(1)),
        "chain7": (Graph.chain(7), reference_chain(7)),
        "grid1x6": (Graph.grid4(1, 6), reference_grid4(1, 6)),
        "grid6x1": (Graph.grid4(6, 1), reference_grid4(6, 1)),
        "grid5x7": (Graph.grid4(5, 7), reference_grid4(5, 7)),
        "chain_subgraph": (Graph.chain(9).subgraph([0, 1, 3, 4, 5, 8]),
                           reference_subgraph(reference_chain(9), [0, 1, 3, 4, 5, 8])),
        "grid_subgraph": (Graph.grid4(5, 7).subgraph([0, 2, 3, 7, 8, 9, 10, 17, 30, 34]),
                          reference_subgraph(reference_grid4(5, 7), [0, 2, 3, 7, 8, 9, 10, 17, 30, 34])),
    }
    for seed in (0, 1, 2):
        p, edges = _random_edges(seed)
        cases[f"random{seed}"] = (Graph.from_edges(p, edges), reference_from_edges(p, edges))
    # no keys, or one key repeated, for the sorted-neighbour dedupe
    repeated = [(1, 2), (2, 1), (1, 2), (2, 1)]
    cases["no_edges"] = (Graph.from_edges(3, []), reference_from_edges(3, []))
    cases["one_pair_repeated"] = (Graph.from_edges(4, repeated), reference_from_edges(4, repeated))
    cases["grid1x1"] = (Graph.grid4(1, 1), reference_grid4(1, 1))
    return cases


class TestGraph:
    def test_chain_structure(self):
        graph = Graph.chain(4)
        assert graph.kind == "chain"
        assert graph.src.tolist() == [0, 1, 1, 2, 2, 3]
        assert graph.dst.tolist() == [1, 0, 2, 1, 3, 2]

    def test_grid4_degrees(self):
        graph = Graph.grid4(3, 4)
        assert graph.p == 12
        assert graph.degrees.max() == 4
        assert graph.degrees.min() == 2  # corners

    @pytest.mark.parametrize("name", sorted(_graph_cases()))
    def test_matches_list_reference(self, name):
        graph, neighbors = _graph_cases()[name]
        b = np.random.default_rng(3).standard_normal(graph.p)
        src, dst, degrees, means, nbr = reference_neighbor_matrix(neighbors, graph.kind, b)
        np.testing.assert_array_equal(graph.src, src)
        np.testing.assert_array_equal(graph.dst, dst)
        np.testing.assert_array_equal(graph.degrees, degrees)
        np.testing.assert_array_equal(graph.neighbor_mean(b)[0], means)
        np.testing.assert_array_equal(graph.neighbor_mean(b)[1], degrees == 0)
        np.testing.assert_array_equal(_neighbor_matrix(graph, b), nbr)

    def test_rejects_self_loop(self):
        with pytest.raises(ConfigError):
            Graph.from_edges(3, [(0, 0)])

    def test_rejects_edge_outside_the_nodes(self):
        with pytest.raises(DimensionMismatchError):
            Graph.from_edges(3, [(0, 3)])

    def test_rejects_chain_link_to_a_non_adjacent_node(self):
        with pytest.raises(ConfigError):
            Graph.from_edges(3, [(0, 2)], kind="chain")

    def test_rejects_grid4_node_with_five_neighbors(self):
        with pytest.raises(ConfigError):
            Graph.from_edges(6, [(0, k) for k in range(1, 6)], kind="grid4")

    @pytest.mark.parametrize("build", [lambda: Graph.chain(0), lambda: Graph.chain(-3),
                                       lambda: Graph.grid4(0, 4), lambda: Graph.grid4(-2, -3)])
    def test_rejects_sizes_below_one(self, build):
        with pytest.raises(ConfigError):
            build()

    def test_subgraph_keeps_only_edges_between_kept_nodes(self):
        graph = Graph.grid4(3, 3).subgraph([0, 1, 2, 3, 5, 6, 7, 8])  # drop the center
        assert graph.kind == "grid4"
        assert list(zip(graph.src.tolist(), graph.dst.tolist())) == [
            (0, 1), (0, 3), (1, 0), (1, 2), (2, 1), (2, 4), (3, 0), (3, 5),
            (4, 2), (4, 7), (5, 3), (5, 6), (6, 5), (6, 7), (7, 4), (7, 6),
        ]
        with pytest.raises(ConfigError):
            Graph.chain(4).subgraph([2, 1])
        with pytest.raises(DimensionMismatchError):
            Graph.chain(4).subgraph([2, 4])

    def test_chain_subgraph_breaks_at_the_removed_node(self):
        graph = Graph.chain(5).subgraph([0, 1, 3, 4])
        nbr = _neighbor_matrix(graph, np.array([1.0, 2.0, 4.0, 5.0]))
        np.testing.assert_array_equal(nbr, [[np.nan, 2.0], [1.0, np.nan], [np.nan, 5.0], [4.0, np.nan]])

    def test_neighbor_mean_and_isolated_mask(self):
        graph = Graph.from_edges(4, [(0, 1), (1, 2)])
        means, isolated = graph.neighbor_mean(np.array([1.0, 2.0, 5.0, 9.0]))
        np.testing.assert_allclose(means[:3], [2.0, 3.0, 2.0])
        assert isolated.tolist() == [False, False, False, True]


class TestFusedLogDensity:
    def test_zero_at_joint_mode(self):
        assert fused_log_density(0.0, 0.0, 0.0, FusedScales(1.0, 2.0)) == 0.0

    def test_neighbor_swap_symmetry(self, rng):
        scales = FusedScales(0.7, 0.3)
        b = rng.standard_normal(20)
        np.testing.assert_allclose(
            fused_log_density(b, 1.2, -0.4, scales),
            fused_log_density(b, -0.4, 1.2, scales),
            atol=1e-12,
        )

    def test_arithmetic_example(self):
        assert fused_log_density(1.0, 0.0, 2.0, FusedScales(1.0, 1.0)) == pytest.approx(-3.0)

    def test_none_drops_factor(self):
        scales = FusedScales(1.0, 1.0)
        assert fused_log_density(1.0, None, 2.0, scales) == pytest.approx(-2.0)
        assert fused_log_density(1.0, None, None, scales) == pytest.approx(-1.0)

    def test_scale_equivariance(self, rng):
        # doubling values, neighbor means and scales leaves every factor ratio fixed
        b = rng.standard_normal(10)
        scales = FusedScales(0.6, 0.25)
        doubled = FusedScales(1.2, 0.5)
        np.testing.assert_allclose(
            fused_log_density(2 * b, 1.6, -0.8, doubled),
            fused_log_density(b, 0.8, -0.4, scales),
            atol=1e-12,
        )


class TestFusedPosteriorStats:
    def test_matches_dense_oracle_random_configs(self, rng):
        for _ in range(40):
            beta = float(rng.normal(0, 2))
            sigma02 = float(rng.uniform(0.01, 2.0))
            scales = FusedScales(float(rng.uniform(0.05, 3)), float(rng.uniform(0.05, 3)))
            left, right = rng.normal(0, 2, 2)
            stats = fused_posterior_stats(np.array([beta]), sigma02,
                                          np.array([[left, right]]), scales)
            mean, variance, _ = oracle_moments(
                beta, sigma02, lambda b: fused_log_density(b, left, right, scales),
                centers=(0.0, left, right),
            )
            assert stats.mean[0] == pytest.approx(mean, rel=1e-4, abs=1e-9)
            assert stats.variance[0] == pytest.approx(variance, rel=1e-4)
            # the denoiser's rows: one aggregated neighbor factor, and an isolated
            # node, whose prior falls back to a second sparsity factor
            stats = fused_posterior_stats(np.array([beta, beta]), sigma02,
                                          np.array([[left], [np.nan]]), scales)
            one = oracle_moments(beta, sigma02, lambda b: fused_log_density(b, left, None, scales),
                                 centers=(0.0, left))
            isolated = oracle_moments(
                beta, sigma02, lambda b: fused_log_density(b, 0.0, None, FusedScales(scales.s1, scales.s1)))
            for row, (mean, variance, _) in enumerate((one, isolated)):
                assert stats.mean[row] == pytest.approx(mean, rel=1e-4, abs=1e-9)
                assert stats.variance[row] == pytest.approx(variance, rel=1e-4)

    def test_normalized_log_marginal(self):
        scales = FusedScales(0.6, 0.4)
        beta, sigma02, left, right = 0.5, 0.3, 0.2, 0.9
        log_prior = lambda b: fused_log_density(b, left, right, scales)
        _, _, log_joint_mass = oracle_moments(beta, sigma02, log_prior)
        wide = np.linspace(-40, 40, 4_000_001)
        log_z = np.log(np.trapezoid(np.exp(log_prior(wide)), wide))
        stats = fused_posterior_stats(np.array([beta]), sigma02,
                                      np.array([[left, right]]), scales)
        assert stats.log_marginal[0] == pytest.approx(log_joint_mass - log_z, abs=1e-6)

    def test_tight_smoothness_pins_to_neighbors(self):
        stats = fused_posterior_stats(np.array([0.2]), 0.5, np.array([[1.5, 1.5]]),
                                      FusedScales(5.0, 1e-3))
        assert stats.mean[0] == pytest.approx(1.5, abs=5e-3)

    @pytest.mark.parametrize("bad", [-np.inf, np.nan])
    def test_vanished_row_mass_raises(self, bad):
        # two nodes, one breakpoint at 0 each: segments (-inf, 0] and [0, inf)
        bps = np.array([[0.0, 0.0]])
        slopes = np.array([[1.0, 1.0], [-1.0, -1.0]])
        intercepts = np.array([[0.0, bad], [0.0, bad]])
        with pytest.raises(QuadratureUnderflowError):
            _segment_moments(0.5, bps, slopes, intercepts)

    @pytest.mark.parametrize("shape", [(4,), (6,), (4, 2), (6, 1), (5, 0), (5, 2, 1)])
    def test_wrong_neighbor_shape_rejected(self, shape):
        with pytest.raises(DimensionMismatchError):
            fused_posterior_stats(np.zeros(5), 0.3, np.zeros(shape), FusedScales(0.5, 0.5))

    @pytest.mark.parametrize("call", [fused_posterior_stats, fused.fused_log_marginal,
                                      fused.learn_scales])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_beta_bar_rejected(self, call, bad):
        # blamed on the input, not on the integration
        beta_bar = np.array([0.4, bad, -0.3])
        nbr = np.array([[np.nan, 0.1], [0.4, -0.3], [0.1, np.nan]])
        with pytest.raises(NonFiniteError):
            if call is fused.learn_scales:
                call(beta_bar, 0.3, nbr)
            else:
                call(beta_bar, 0.3, nbr, FusedScales(0.5, 0.5))

    def test_log_norm_diff_matches_four_call_form(self, rng):
        # infinite bounds, empty and reversed segments, both tails and the centre
        a = rng.normal(0, 6, (4000, 3))
        c = a + np.abs(rng.normal(0, 3, a.shape))
        a[:, 0] = -np.inf
        c[:, 2] = np.inf
        a[1::4, 1], c[1::4, 1] = 30.0, 40.0
        a[2::4, 1], c[2::4, 1] = -40.0, -30.0
        c[::7, 1] = a[::7, 1]
        c[::11, 1] = a[::11, 1] - 1.0
        a[5, 2], c[5, 2] = np.inf, np.inf
        a[6, 0], c[6, 0] = -np.inf, -np.inf
        out = _log_norm_diff(a, c)
        expected = reference_log_norm_diff(a, c)
        assert out.tobytes() == expected.tobytes()
        empty = (np.arange(4000) % 7 == 0) | (np.arange(4000) % 11 == 0)
        assert np.isneginf(out[empty, 1]).all() and np.isneginf(out[5, 2]) and np.isneginf(out[6, 0])
        assert np.isfinite(out[~empty, 1]).all()

    @pytest.mark.parametrize("s2", [0.05, 0.2, 1.0, 10.0])
    @pytest.mark.parametrize("s1", [0.05, 0.2, 1.0, 10.0])
    def test_matches_row_major_reference(self, s1, s2):
        scales = FusedScales(s1, s2)
        rng = np.random.default_rng(5)
        factor_counts = set()
        cases = [(graph, values) for graph, _ in _graph_cases().values()
                 for values in (rng.normal(0, 1, graph.p), np.full(graph.p, 0.6))]
        # tied breakpoints: neighbors at the sparsity center, equal left and
        # right means, observations on a breakpoint; then isolated rows
        ties = np.array([[0.0, 0.0], [0.0, 1.3], [1.3, 1.3], [-0.4, -0.4], [0.0, np.nan],
                         [np.nan, 0.7], [np.nan, np.nan]])
        for sigma02 in (0.05, 0.5, 2.0):
            inputs = [(values + rng.normal(0, 0.3, graph.p), _neighbor_matrix(graph, values))
                      for graph, values in cases]
            inputs += [(np.zeros(7), ties), (np.nan_to_num(ties[:, 0]), ties), (np.full(7, 1.3), ties),
                       (np.array([0.0, 2.0, -1.0]), np.array([[0.0], [2.0], [np.nan]]))]
            for beta_bar, nbr in inputs:
                stats = fused_posterior_stats(beta_bar, sigma02, nbr, scales)
                expected = reference_fused_posterior_stats(beta_bar, sigma02, nbr, scales)
                for got, want in zip((stats.mean, stats.variance, stats.log_marginal), expected):
                    np.testing.assert_array_less(np.abs(got - want), 1e-12 * (1.0 + np.abs(want)))
                factor_counts.update(np.isfinite(np.asarray(nbr).reshape(len(beta_bar), -1)).sum(axis=1))
        assert factor_counts == {0, 1, 2}

    def test_null_probability_is_zero(self, rng):
        stats = fused_posterior_stats(rng.normal(0, 1, 6), 0.2,
                                      rng.normal(0, 1, (6, 1)), FusedScales(0.5, 0.5))
        np.testing.assert_array_equal(stats.null_prob, np.zeros(6))


def _kernel_cases():
    """Random factor rows, (F, p) for F = 1, 2, 3, with what the network and sums must keep.

    Half the centers and a fifth of the observations come from a three-value
    set, so factors tie and observations sit on breakpoints; a quarter of the
    neighbor factors are inert, as NaN neighbors make them.  Scales span
    1e-3..10 and sigma0^2 1e-4..3.
    """
    rng = np.random.default_rng(19)
    for trial in range(150):
        factors, p = 1 + trial % 3, int(rng.integers(1, 40))
        s1, s2 = np.exp(rng.uniform(math.log(1e-3), math.log(10.0), 2))
        sigma02 = float(np.exp(rng.uniform(math.log(1e-4), math.log(3.0))))
        shared = lambda shape: rng.choice([0.0, 0.5, -1.3], shape)
        centers = np.where(rng.random((factors, p)) < 0.5, shared((factors, p)), rng.normal(0, 2, (factors, p)))
        beta_bar = np.where(rng.random(p) < 0.2, shared(p), rng.normal(0, 2, p))
        inv = np.full((factors, p), 1.0 / s2)
        inert = rng.random((factors, p)) < 0.25
        centers[0], inv[0], inert[0] = 0.0, 1.0 / s1, False
        centers[inert], inv[inert] = 0.0, 0.0
        yield sigma02, centers - beta_bar, inv


def _moments_outcome(moments, sigma02, segments):
    """The moments, or None when the posterior mass underflows."""
    try:
        return moments(sigma02, *segments)
    except QuadratureUnderflowError:
        return None


class TestKernelParity:
    """The running-sum, preallocated-row and blocked kernels give the old kernels' bits."""

    def test_kernels_match_reference_bit_for_bit(self):
        factor_counts, raised = set(), 0
        for sigma02, mus, inv in _kernel_cases():
            segments = _segments(mus, inv)
            expected = reference_segments(mus, inv)
            assert all(np.array_equal(got, want) for got, want in zip(segments, expected))
            assert np.array_equal(_log_exp_integrals(*segments), reference_log_exp_integrals(*segments))
            bps, slopes, intercepts = segments
            # a node whose every segment has vanished mass (-inf or NaN intercepts) must raise in both
            for bad in (None, -np.inf, np.nan):
                if bad is not None:
                    intercepts = segments[2].copy()
                    intercepts[:, -1] = bad
                got = _moments_outcome(_segment_moments, sigma02, (bps, slopes, intercepts))
                want = _moments_outcome(reference_segment_moments, sigma02, (bps, slopes, intercepts))
                assert (got is None) == (want is None)
                if got is None:
                    raised += 1
                else:
                    assert all(np.array_equal(g, w) for g, w in zip(got, want))
            factor_counts.add(len(mus))
        assert factor_counts == {1, 2, 3} and raised == 300

    @pytest.mark.parametrize("width", [1, 2])
    def test_blocked_posterior_matches_reference(self, monkeypatch, width):
        # blocks of 7 nodes split all but the smallest inputs below
        monkeypatch.setattr(fused, "POSTERIOR_BLOCK", 7)
        rng = np.random.default_rng(width)
        for _ in range(30):
            p = int(rng.integers(1, 60))
            scales = FusedScales(*np.exp(rng.uniform(math.log(1e-3), math.log(10.0), 2)))
            sigma02 = float(np.exp(rng.uniform(math.log(1e-4), math.log(3.0))))
            nbr = np.where(rng.random((p, width)) < 0.5, rng.choice([0.0, 0.5], (p, width)),
                           rng.normal(0, 1, (p, width)))
            nbr[rng.random((p, width)) < 0.2] = np.nan
            beta_bar = np.where(rng.random(p) < 0.2, 0.5, rng.normal(0, 1, p))
            stats = fused_posterior_stats(beta_bar, sigma02, nbr, scales)
            expected = reference_posterior(beta_bar, sigma02, nbr, scales)
            for got, want in zip((stats.mean, stats.variance, stats.log_marginal), expected):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("block", [None, 1000])
    def test_denoise_matches_reference_loop(self, monkeypatch, block):
        if block is not None:  # 64 x 64 pixels in one block by default, in five here
            monkeypatch.setattr(fused, "POSTERIOR_BLOCK", block)
        image = piecewise_image(9, size=64)
        noisy = image + np.random.default_rng(9).normal(0, 0.2, image.shape)
        config = DenoiseConfig(sweeps=8, noise_sd=0.2)
        out, info = denoise_image(noisy, config, with_info=True)
        image, trace, data_term = reference_denoise(noisy, config)
        assert np.array_equal(out, image)
        assert info["elbo_trace"] == trace and info["data_term"] == data_term


class TestLearnScales:
    def test_piecewise_constant_wants_tight_smoothness(self, rng):
        p = 60
        b = np.concatenate([np.zeros(30), np.full(30, 3.0)]) + rng.normal(0, 0.05, p)
        nbr = np.full((p, 2), np.nan)
        nbr[1:, 0] = b[:-1]
        nbr[:-1, 1] = b[1:]
        beta_bar = b + rng.normal(0, 0.1, p)
        learned = learn_scales(beta_bar, 0.01, nbr)
        assert learned.s2 < learned.s1

    def test_isolated_nodes_reduce_to_one_dimensional_problem(self, rng):
        beta_bar = rng.standard_t(2, 40) * 0.5
        nbr = np.full((40, 1), np.nan)
        learned = learn_scales(beta_bar, 0.05, nbr)
        values = np.geomspace(1e-3, 10.0, 12)
        # the objective cannot depend on s2 when every node is isolated
        for s2 in (0.01, 1.0):
            obj_a = fused_log_marginal(beta_bar, 0.05, nbr, FusedScales(0.7, s2)).sum()
            obj_b = fused_log_marginal(beta_bar, 0.05, nbr, FusedScales(0.7, 5.0)).sum()
            assert obj_a == pytest.approx(obj_b, abs=1e-12)
        scan = [fused_log_marginal(beta_bar, 0.05, nbr, FusedScales(float(s1), 1.0)).sum()
                for s1 in values]
        best_scan = float(values[int(np.argmax(scan))])
        learned_obj = fused_log_marginal(beta_bar, 0.05, nbr,
                                         FusedScales(learned.s1, 1.0)).sum()
        assert learned_obj >= max(scan) - 1e-9
        assert abs(np.log(learned.s1) - np.log(best_scan)) <= np.log(values[1] / values[0]) + 1e-9

    def test_deterministic(self, rng):
        p = 20
        b = rng.normal(0, 1, p)
        nbr = np.full((p, 2), np.nan)
        nbr[1:, 0] = b[:-1]
        nbr[:-1, 1] = b[1:]
        first = learn_scales(b, 0.1, nbr)
        second = learn_scales(b, 0.1, nbr)
        assert (first.s1, first.s2) == (second.s1, second.s2)
        assert type(first.s1) is float and type(first.s2) is float

    def test_never_below_best_grid_point(self, rng):
        p = 30
        b = np.repeat([0.0, 2.0, -1.0], 10) + rng.normal(0, 0.1, p)
        beta_bar = b + rng.normal(0, 0.3, p)
        nbr = np.full((p, 2), np.nan)
        nbr[1:, 0] = b[:-1]
        nbr[:-1, 1] = b[1:]
        learned = learn_scales(beta_bar, 0.09, nbr)
        obj = lambda s: fused_log_marginal(beta_bar, 0.09, nbr, s).sum()
        values = np.geomspace(*fused.SCALE_BOUNDS, fused.SCALE_GRID_SIZE)
        best_grid = max(obj(FusedScales(float(s1), float(s2))) for s1 in values for s2 in values)
        assert obj(learned) >= best_grid - 1e-9

    @pytest.mark.parametrize("s1, s2", [(0.0, 1.0), (1.0, -1.0), (np.nan, 1.0), (1.0, np.inf)])
    def test_scales_must_be_positive_and_finite(self, s1, s2):
        with pytest.raises(ConfigError):
            FusedScales(s1, s2)

    def test_refine_never_worse_than_start(self, rng):
        p = 20
        b = rng.normal(0, 1, p)
        nbr = np.full((p, 2), np.nan)
        nbr[1:, 0] = b[:-1]
        nbr[:-1, 1] = b[1:]
        start = FusedScales(0.5, 0.5)
        refined = refine_scales(b, 0.1, nbr, start)
        obj = lambda s: fused_log_marginal(b, 0.1, nbr, s).sum()
        assert obj(refined) >= obj(start) - 1e-9


class TestNeighborSummary:
    def test_chain_interior_mean(self):
        # a chain keeps each neighbor as its own factor
        graph = Graph.chain(3)
        b = np.array([1.0, 9.0, 3.0])
        nbr = _neighbor_matrix(graph, b)
        np.testing.assert_array_equal(nbr[1], [1.0, 3.0])
        np.testing.assert_array_equal(np.isnan(nbr[[0, 2]]), [[True, False], [False, True]])

    def test_isolated_fallback(self):
        # an isolated node has no neighbor factor; the prior falls back to (0, s1)
        graph = Graph.from_edges(2, [])
        nbr = _neighbor_matrix(graph, np.array([1.0, 2.0]))
        assert nbr.shape == (2, 1) and np.isnan(nbr).all()
        scales = FusedScales(0.5, 0.2)
        stats = fused_posterior_stats(np.array([0.7, 0.7]), 0.3, nbr, scales)
        fallback = fused_posterior_stats(np.array([0.7]), 0.3, np.array([[0.0]]), FusedScales(0.5, 0.5))
        np.testing.assert_array_equal(stats.mean, np.repeat(fallback.mean, 2))

    def test_grid_corner_uses_exactly_two_neighbors(self):
        graph = Graph.grid4(3, 3)
        b = np.arange(9.0)
        nbr = _neighbor_matrix(graph, b)
        assert nbr[0, 0] == pytest.approx((b[1] + b[3]) / 2.0)


class TestFusedPrior:
    def test_engine_fit_on_chain_signal(self, rng):
        n, p = 60, 12
        X = rng.standard_normal((n, p))
        b_true = np.concatenate([np.zeros(4), np.full(4, 1.5), np.zeros(4)])
        y = X @ b_true + 0.3 * rng.standard_normal(n)
        from nash.data import Dataset, SideInfo
        from nash.engine import FitConfig, fit

        graph = Graph.chain(p)
        prior = FusedPrior(graph)
        result = fit(Dataset(y=y, X=X), SideInfo.from_graph(graph), prior,
                     FitConfig(max_sweeps=40))
        assert np.isfinite(result.elbo_trace).all()
        assert result.elbo_trace[-1] >= result.elbo_trace[0]
        assert result.prior_null_mass == 0.0
        # middle block should dominate the recovered signal
        assert np.mean(np.abs(result.coefficients[4:8])) > np.mean(np.abs(result.coefficients[:4]))

    def test_learns_scales_once_by_default(self, rng):
        graph = Graph.chain(8)
        prior = FusedPrior(graph)
        assert prior.scales is None and prior.params_dict() == {"graph_kind": "chain"}
        prior.update(rng.normal(0, 1, 8), 0.2)
        first = prior.scales
        prior.update(rng.normal(0, 1, 8), 0.2)
        assert prior.scales is first


def oracle_denoise(noisy, config):
    """The direct denoising sweep, pixel by pixel, on the dense quadrature oracle.

    Each sweep takes every pixel's posterior mean against its own observation
    with noise variance sd^2 and a prior anchored at the mean of its grid
    neighbors' previous means (zero before the first sweep); a pixel with no
    neighbor gets a second sparsity factor instead.  The log marginal is the
    oracle's joint mass over the prior's own normalizer, both on dense grids.
    Returns the final means and, per sweep, the summed log marginals and the
    sum of squares of the noisy image minus the means.
    """
    height, width = noisy.shape
    sd = config.noise_sd if config.noise_sd is not None else estimate_noise_sd(noisy)
    sigma2 = sd**2
    s1, s2 = config.scales.s1, config.scales.s2
    means = np.zeros((height, width))
    trace, data_term = [], []
    for _ in range(config.sweeps):
        new, total = np.empty_like(means), 0.0
        for r in range(height):
            for c in range(width):
                nbrs = [means[i, j] for i, j in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                        if 0 <= i < height and 0 <= j < width]
                anchor = float(np.mean(nbrs)) if nbrs else 0.0
                scales = config.scales if nbrs else FusedScales(s1, s1)
                log_prior = lambda b: fused_log_density(b, anchor, None, scales)
                mean, _, log_joint = oracle_moments(noisy[r, c], sigma2, log_prior,
                                                    points=20_000, centers=(0.0, anchor))
                grid = np.linspace(min(0.0, anchor) - 40.0 * max(s1, s2),
                                   max(0.0, anchor) + 40.0 * max(s1, s2), 40_001)
                new[r, c] = mean
                total += log_joint - np.log(np.trapezoid(np.exp(log_prior(grid)), grid))
        means = new
        trace.append(total)
        data_term.append(float(np.sum((noisy - means) ** 2)))
    return means, trace, data_term


def _oracle_cases():
    image = piecewise_image(4, size=28)[8:13, 8:14]
    noisy = image + np.random.default_rng(4).normal(0, 0.2, image.shape)
    strip = piecewise_image(6, size=40)[12:13, :12] + np.random.default_rng(6).normal(0, 0.1, (1, 12))
    return {
        "piecewise5x6": (noisy, DenoiseConfig(sweeps=4, noise_sd=0.2)),
        "piecewise5x6-estimated-sd": (noisy, DenoiseConfig(sweeps=4)),
        "strip1xN": (strip, DenoiseConfig(sweeps=4, noise_sd=0.1)),
        "strip1xN-estimated-sd": (strip, DenoiseConfig(sweeps=4)),
        "pixel1x1": (np.full((1, 1), 0.7), DenoiseConfig(sweeps=3, noise_sd=0.3)),
    }


class TestDenoise:
    @pytest.mark.parametrize("case", list(_oracle_cases()))
    def test_matches_quadrature_oracle_sweep(self, case):
        noisy, config = _oracle_cases()[case]
        image, trace, data_term = oracle_denoise(noisy, config)
        out, info = denoise_image(noisy, config, with_info=True)
        # A2's fused tolerance, relative to the posterior's own scale
        sd = config.noise_sd if config.noise_sd is not None else estimate_noise_sd(noisy)
        assert np.max(np.abs(out - image) / np.maximum(np.abs(image), sd)) < 1e-4
        np.testing.assert_allclose(info["elbo_trace"], trace, rtol=1e-4, atol=0)
        np.testing.assert_allclose(info["data_term"], data_term, rtol=1e-4, atol=0)
        assert info["scales"] == config.scales

    def test_sigma2_floored(self):
        # an all-zero image estimates an sd of zero; sigma2 stops at the floor
        image = np.zeros((6, 7))
        out, info = denoise_image(image, DenoiseConfig(sweeps=5), with_info=True)
        np.testing.assert_array_equal(out, np.zeros((6, 7)))
        assert info["sigma2"] == 1e-12

    def test_constant_image_is_fixed_point(self):
        image = np.full((12, 15), 0.6)
        out = denoise_image(image, DenoiseConfig())
        np.testing.assert_allclose(out, image, atol=1e-6)

    def test_noise_estimate_close_to_truth(self):
        noise = np.random.default_rng(0).normal(0.0, 0.2, (60, 60))
        assert estimate_noise_sd(noise) == pytest.approx(0.2, rel=0.1)

    def test_improves_noisy_piecewise_image(self):
        image = piecewise_image(7)
        noisy = image + np.random.default_rng(7).normal(0, 0.2, image.shape)
        out = denoise_image(noisy, DenoiseConfig(noise_sd=0.2))
        assert rmse(out, image) < rmse(noisy, image)

    @pytest.mark.parametrize("seed", range(6))
    def test_improves_bright_background(self, seed):
        image = piecewise_image(seed, background=(0.85, 0.85), levels=(0.0, 0.5))
        noisy = image + np.random.default_rng(seed).normal(0, 0.2, image.shape)
        out, info = denoise_image(noisy, DenoiseConfig(noise_sd=0.2), with_info=True)
        assert rmse(out, image) < rmse(noisy, image)
        elbo = info["elbo_trace"]
        assert all(b >= a - 1e-8 * (1.0 + abs(b)) for a, b in zip(elbo, elbo[1:]))

    def test_grid_isomorphism_invariance(self):
        image = piecewise_image(3, size=20)
        noisy = image + np.random.default_rng(11).normal(0, 0.2, image.shape)
        config = DenoiseConfig(noise_sd=0.2)
        base = denoise_image(noisy, config)
        transposed = denoise_image(noisy.T, config).T
        flipped = np.flipud(denoise_image(np.flipud(noisy), config))
        np.testing.assert_allclose(transposed, base, atol=1e-12)
        np.testing.assert_allclose(flipped, base, atol=1e-12)

    def test_monotone_under_frozen_hyperparameters(self):
        image = piecewise_image(5)
        noisy = image + np.random.default_rng(5).normal(0, 0.2, image.shape)
        _, info = denoise_image(noisy, DenoiseConfig(noise_sd=0.2), with_info=True)
        elbo = info["elbo_trace"]
        data_term = info["data_term"]
        assert all(b >= a - 1e-8 for a, b in zip(elbo, elbo[1:]))
        assert all(b <= a + 1e-8 for a, b in zip(data_term, data_term[1:]))

    @pytest.mark.parametrize("field", ["sweeps"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_config_counts_below_one_rejected(self, field, value):
        with pytest.raises(ConfigError):
            DenoiseConfig(**{field: value})

    @pytest.mark.parametrize("noise_sd", [0.0, -0.2, np.nan, np.inf])
    def test_config_noise_sd_must_be_positive_and_finite(self, noise_sd):
        with pytest.raises(ConfigError):
            DenoiseConfig(noise_sd=noise_sd)

    def test_rejects_non_matrix(self):
        with pytest.raises(DimensionMismatchError):
            denoise_image(np.zeros(5), DenoiseConfig())


class TestTracerContract:
    """The benchmark tracer patches fused by name; moving a patched name must fail here."""

    @staticmethod
    def check_traced(spans, tracer, sweeps, learns):
        posteriors = spans._outermost(tracer.spans, "fused.posterior", "fused.learn")
        assert len(posteriors) == sweeps
        assert len(spans._outermost(tracer.spans, "fused.learn")) == learns
        assert (tracer.counts.get("fused.learn_evals", 0) > 0) == (learns > 0)
        assert any(s.name == "fused.graph_build" for s in tracer.spans)
        # originals restored
        for func in (fused.fused_posterior_stats, fused.learn_scales, fused.refine_scales,
                     fused.fused_log_marginal, fused.Graph.__init__, fused.Graph.grid4.__func__):
            assert not hasattr(func, "__wrapped__")

    def test_fit_is_traced(self, spans):
        X, y, _ = random_regression(4, n=30, p=8)
        with spans.instrument(spans.Tracer()) as tracer:
            graph = nash.Graph.chain(8)
            nash.fit(nash.Dataset(y=y, X=X), nash.SideInfo.from_graph(graph), nash.FusedPrior(graph),
                     nash.FitConfig(max_sweeps=3))
        self.check_traced(spans, tracer, tracer.counts["engine.sweeps"], learns=1)

    def test_denoiser_is_traced(self, spans):
        noisy = piecewise_image(2, size=16) + np.random.default_rng(2).normal(0, 0.2, (16, 16))
        with spans.instrument(spans.Tracer()) as tracer:
            denoise_image(noisy, DenoiseConfig(sweeps=10))
        # one posterior per sweep, no scale learning, and no engine sweep
        self.check_traced(spans, tracer, 10, learns=0)
        assert "engine.sweeps" not in tracer.counts
