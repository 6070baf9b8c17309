"""Tests for the mixture-prior module against brute-force oracles."""

import numpy as np
import pytest
from scipy.special import logsumexp

from conftest import simplex_grid_best
from nash.ash import (
    LOG_2PI,
    AshPrior,
    _log_weights,
    _responsibilities,
    MixtureGrid,
    MixtureWeights,
    PosteriorStats,
    default_grid,
    fit_weights_em,
    marginal_loglik_matrix,
    mixture_objective,
    mixture_posterior_stats,
)
from nash.errors import ConfigError
from nash.nets import MdnPrior, SoftmaxPrior, SoftmaxPriorNet, TrainConfig, mdn_posterior_stats, train_softmax


def normal_pdf(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var)


def oracle_posterior(beta_bar, sigma02, variances, weights, points=100_000):
    """Dense-grid trapezoid posterior for a zero-centered mixture with a point mass.

    The continuous components are integrated numerically over +-10 combined
    standard deviations; the point mass is handled exactly (its posterior
    moment contributions are zero).
    """
    variances = np.asarray(variances, dtype=float)
    weights = np.asarray(weights, dtype=float)
    width = 10.0 * np.sqrt(sigma02 + variances.max()) + abs(beta_bar)
    grid = np.linspace(-width, width, points)
    density = np.zeros_like(grid)
    for var, weight in zip(variances[1:], weights[1:]):
        if weight > 0:
            density += weight * normal_pdf(grid, 0.0, var)
    joint = normal_pdf(beta_bar, grid, sigma02) * density
    cont_mass = np.trapezoid(joint, grid)
    point_mass = weights[0] * normal_pdf(beta_bar, 0.0, sigma02)
    total = point_mass + cont_mass
    mean = np.trapezoid(grid * joint, grid) / total
    second = np.trapezoid(grid**2 * joint, grid) / total
    return {
        "mean": mean,
        "variance": second - mean**2,
        "null_prob": point_mass / total,
        "log_marginal": np.log(total),
    }


class TestDefaultGrid:
    def test_minimal_grid(self):
        grid = default_grid(np.array([3.0]), 1.0, 2)
        assert grid.n_components == 2
        assert grid.variances[0] == 0.0
        assert grid.variances[1] == pytest.approx(4.0 * (9.0 - 1.0))

    def test_zero_estimates_use_lower_branch(self):
        grid = default_grid(np.zeros(5), 1.0, 4)
        np.testing.assert_allclose(grid.variances, [0.0, 0.01, 0.1, 1.0])

    def test_always_strictly_ascending(self, rng):
        for _ in range(50):
            beta = rng.standard_normal(rng.integers(1, 30)) * rng.uniform(0.1, 20)
            sigma02 = float(rng.uniform(1e-6, 5.0))
            m = int(rng.integers(2, 25))
            grid = default_grid(beta, sigma02, m)
            assert grid.variances[0] == 0.0
            assert np.all(np.diff(grid.variances) > 0)


class TestMarginalLoglik:
    def test_standard_normal_at_zero(self):
        grid = MixtureGrid(np.array([0.0, 1.0]))
        log_lik = marginal_loglik_matrix(np.array([0.0]), 1.0, grid.variances)
        assert np.exp(log_lik[0, 0]) == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=1e-12)

    def test_unit_total_variance_at_one(self):
        grid = MixtureGrid(np.array([0.0, 0.5]))
        log_lik = marginal_loglik_matrix(np.array([1.0]), 0.5, grid.variances)
        expected = np.exp(-0.5) / np.sqrt(2.0 * np.pi)
        assert np.exp(log_lik[0, 1]) == pytest.approx(expected, rel=1e-12)

    def test_matches_numeric_convolution(self, rng):
        # oracle: trapezoid integral of N(beta; b, s02) N(b; 0, sm2) db
        for _ in range(20):
            beta = float(rng.normal(0, 3))
            sigma02 = float(rng.uniform(0.05, 2.0))
            sm2 = float(rng.uniform(0.01, 4.0))
            width = 12.0 * np.sqrt(sigma02 + sm2) + abs(beta)
            b = np.linspace(-width, width, 200_001)
            integral = np.trapezoid(normal_pdf(beta, b, sigma02) * normal_pdf(b, 0.0, sm2), b)
            grid = MixtureGrid(np.array([0.0, sm2]))
            log_lik = marginal_loglik_matrix(np.array([beta]), sigma02, grid.variances)
            np.testing.assert_allclose(np.exp(log_lik[0, 1]), integral, atol=1e-8)


def em_log_space_oracle(log_lik, init, max_iter=1000, tol=1e-8):
    """Reference EM that renormalises every iteration in log space with ``logsumexp``.

    Same iterates and stopping rule as ``fit_weights_em``; returns the weights
    and the number of iterations run.
    """
    if log_lik.shape[1] == 1:
        return np.array([1.0]), 0
    pi = np.asarray(init, dtype=float).copy()
    prev = mixture_objective(log_lik, pi)
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        with np.errstate(divide="ignore"):
            a = log_lik + np.log(pi)[None, :]
        a -= logsumexp(a, axis=1)[:, None]
        pi = np.exp(a).mean(axis=0)
        pi /= pi.sum()
        cur = mixture_objective(log_lik, pi)
        if abs(cur - prev) <= tol * (1.0 + abs(prev)):
            break
        prev = cur
    return pi, iterations


def assert_matches_oracle(log_lik, init, tol=1e-8):
    """Weights within 1e-12 of the oracle after the same number of iterations."""
    expected, iterations = em_log_space_oracle(log_lik, init, tol=tol)
    got = fit_weights_em(log_lik, MixtureWeights(init), tol=tol).pi
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(got[init == 0], 0.0)
    if iterations:
        # stopped at the oracle's iteration: one fewer gives another iterate,
        # a larger budget gives the same one
        capped = fit_weights_em(log_lik, MixtureWeights(init), max_iter=iterations, tol=tol).pi
        np.testing.assert_array_equal(capped, got)
        if iterations > 1:
            short = fit_weights_em(log_lik, MixtureWeights(init), max_iter=iterations - 1, tol=tol).pi
            assert np.any(short != got)


class TestEmWeights:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_log_space_oracle(self, seed):
        rng = np.random.default_rng(seed)
        p, m = int(rng.integers(20, 400)), int(rng.integers(2, 21))
        beta = rng.standard_normal(p) * np.where(rng.uniform(size=p) < 0.1, 3.0, 0.2)
        sigma02 = float(rng.uniform(0.01, 0.5))
        log_lik = marginal_loglik_matrix(beta, sigma02, default_grid(beta, sigma02, m).variances)
        init = rng.dirichlet(np.ones(m))
        assert_matches_oracle(log_lik, init)
        pi = MixtureWeights(init)
        values = [mixture_objective(log_lik, pi.pi)]
        for _ in range(30):
            pi = fit_weights_em(log_lik, pi, max_iter=1)
            values.append(mixture_objective(log_lik, pi.pi))
        assert np.all(np.diff(values) >= -1e-10 * (1.0 + abs(values[0])))

    def test_init_with_zero_entries(self, rng):
        log_lik = rng.normal(0, 2, size=(60, 5))
        assert_matches_oracle(log_lik, np.array([0.0, 0.5, 0.0, 0.25, 0.25]))
        assert_matches_oracle(log_lik, np.array([0.0, 0.0, 1.0, 0.0, 0.0]))

    def test_best_component_unweighted_and_others_underflow(self, rng):
        # row 0 peaks on component 0, which has no weight; every other
        # component sits more than 745 nats lower, so exp underflows to 0
        log_lik = rng.normal(0, 1, size=(30, 4))
        log_lik[0] = [0.0, -800.0, -900.0, -760.0]
        init = np.array([0.0, 0.2, 0.3, 0.5])
        assert_matches_oracle(log_lik, init)
        assert np.isfinite(fit_weights_em(log_lik, MixtureWeights(init)).pi).all()

    def test_single_component_trivial(self, rng):
        weights = fit_weights_em(np.zeros((5, 1)), MixtureWeights(np.array([1.0])))
        np.testing.assert_array_equal(weights.pi, [1.0])
        assert_matches_oracle(rng.normal(0, 3, size=(12, 1)), np.array([1.0]))

    def test_symmetry_preserved(self, rng):
        column = rng.standard_normal(30)
        log_lik = np.column_stack([column, column])
        weights = fit_weights_em(log_lik, MixtureWeights.uniform(2))
        np.testing.assert_allclose(weights.pi, [0.5, 0.5], atol=1e-12)

    def test_monotone_objective(self, rng):
        log_lik = rng.normal(0, 2, size=(40, 5))
        pi = MixtureWeights.uniform(5)
        values = [mixture_objective(log_lik, pi.pi)]
        for _ in range(25):
            pi = fit_weights_em(log_lik, pi, max_iter=1)
            values.append(mixture_objective(log_lik, pi.pi))
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-10)

    def test_matches_simplex_grid_search(self, rng):
        log_lik = rng.normal(0, 1.5, size=(50, 4))
        weights = fit_weights_em(log_lik, MixtureWeights.uniform(4), max_iter=5000, tol=1e-12)
        em_value = mixture_objective(log_lik, weights.pi)
        grid_value = simplex_grid_best(log_lik, step=0.01)
        assert abs(em_value - grid_value) < 1e-3
        assert em_value >= grid_value - 1e-3


class TestPosteriorSummary:
    def test_pure_point_mass(self):
        grid = MixtureGrid(np.array([0.0, 1.0]))
        weights = MixtureWeights(np.array([1.0, 0.0]))
        stats = mixture_posterior_stats(np.array([2.0]), 1.0, marginal_loglik_matrix(np.array([2.0]), 1.0, grid.variances),
                                        weights.pi, grid.variances)
        assert stats.mean[0] == 0.0
        assert stats.variance[0] == 0.0
        assert stats.null_prob[0] == 1.0

    def test_balanced_conjugate_case(self):
        sigma02 = 0.7
        grid = MixtureGrid(np.array([0.0, sigma02]))
        weights = MixtureWeights(np.array([0.0, 1.0]))
        stats = mixture_posterior_stats(np.array([2.0]), sigma02,
                                        marginal_loglik_matrix(np.array([2.0]), sigma02, grid.variances),
                                        weights.pi, grid.variances)
        assert stats.mean[0] == pytest.approx(1.0, rel=1e-12)
        assert stats.variance[0] == pytest.approx(sigma02 / 2.0, rel=1e-12)

    def test_half_null_half_normal(self):
        # frozen from the dense-grid oracle: prior 0.5 delta0 + 0.5 N(0,1),
        # observation 2.0 at noise variance 1
        grid = MixtureGrid(np.array([0.0, 1.0]))
        weights = MixtureWeights(np.array([0.5, 0.5]))
        stats = mixture_posterior_stats(np.array([2.0]), 1.0, marginal_loglik_matrix(np.array([2.0]), 1.0, grid.variances),
                                        weights.pi, grid.variances)
        oracle = oracle_posterior(2.0, 1.0, [0.0, 1.0], [0.5, 0.5])
        assert stats.mean[0] == pytest.approx(0.658, abs=5e-4)
        assert stats.null_prob[0] == pytest.approx(0.342, abs=5e-4)
        assert stats.mean[0] == pytest.approx(oracle["mean"], rel=1e-6)
        assert stats.null_prob[0] == pytest.approx(oracle["null_prob"], rel=1e-6)

    def test_matches_oracle_on_random_cases(self, rng):
        for _ in range(100):
            m = int(rng.integers(2, 6))
            variances = np.concatenate(([0.0], np.sort(rng.uniform(0.01, 4.0, m - 1))))
            if np.any(np.diff(variances) <= 0):
                continue
            pi = rng.dirichlet(np.ones(m))
            beta = float(rng.normal(0, 2))
            sigma02 = float(rng.uniform(0.05, 2.0))
            grid = MixtureGrid(variances)
            stats = mixture_posterior_stats(np.array([beta]), sigma02,
                                            marginal_loglik_matrix(np.array([beta]), sigma02, grid.variances),
                                            MixtureWeights(pi).pi, grid.variances)
            oracle = oracle_posterior(beta, sigma02, variances, pi)
            np.testing.assert_allclose(stats.mean[0], oracle["mean"], rtol=1e-6, atol=1e-9)
            np.testing.assert_allclose(stats.variance[0], oracle["variance"], rtol=1e-6, atol=1e-9)
            np.testing.assert_allclose(stats.null_prob[0], oracle["null_prob"], rtol=1e-6)
            np.testing.assert_allclose(stats.log_marginal[0], oracle["log_marginal"], rtol=1e-6)

    def test_shrinkage_never_expands(self, rng):
        for _ in range(200):
            m = int(rng.integers(2, 8))
            variances = np.concatenate(([0.0], np.sort(rng.uniform(0.001, 9.0, m - 1))))
            if np.any(np.diff(variances) <= 0):
                continue
            pi = rng.dirichlet(np.ones(m))
            beta = float(rng.normal(0, 4))
            sigma02, grid = float(rng.uniform(0.05, 3.0)), MixtureGrid(variances)
            stats = mixture_posterior_stats(np.array([beta]), sigma02,
                                            marginal_loglik_matrix(np.array([beta]), sigma02, grid.variances),
                                            MixtureWeights(pi).pi, grid.variances)
            assert abs(stats.mean[0]) <= abs(beta) + 1e-12

    def test_per_row_weight_matrix(self, rng):
        grid = MixtureGrid(np.array([0.0, 0.5, 2.0]))
        beta = rng.normal(0, 1, size=4)
        weight_rows = rng.dirichlet(np.ones(3), size=4)
        stats = mixture_posterior_stats(beta, 0.3, marginal_loglik_matrix(beta, 0.3, grid.variances),
                                        weight_rows, grid.variances)
        for j in range(4):
            single = mixture_posterior_stats(np.array([float(beta[j])]), 0.3,
                                             marginal_loglik_matrix(np.array([float(beta[j])]), 0.3, grid.variances),
                                             MixtureWeights(weight_rows[j]).pi, grid.variances)
            assert stats.mean[j] == pytest.approx(single.mean[0], rel=1e-12, abs=1e-15)
            assert stats.null_prob[j] == pytest.approx(single.null_prob[0], rel=1e-12)


class TestCebnmSolve:
    """The normal-means solve of the shared prior, run end to end by ``AshPrior.update``."""

    def test_null_data_concentrates_on_null(self):
        stats = AshPrior(n_components=6).update(np.zeros(30), 1.0)
        assert np.all(stats.null_prob >= 0.5)
        np.testing.assert_allclose(stats.mean, 0.0, atol=1e-12)

    def test_huge_estimate_barely_shrunk(self):
        beta = np.zeros(20)
        beta[7] = 100.0
        stats = AshPrior(n_components=10).update(beta, 1.0)
        assert stats.mean[7] > 90.0

    def test_permutation_equivariance(self, rng):
        beta = rng.normal(0, 2, size=12)
        grid = default_grid(beta, 0.5, 8)
        prior = AshPrior(grid=grid)
        stats = prior.update(beta, 0.5)
        perm = rng.permutation(12)
        prior_p = AshPrior(grid=grid)
        stats_p = prior_p.update(beta[perm], 0.5)
        np.testing.assert_allclose(prior_p.weights.pi, prior.weights.pi, atol=1e-12)
        np.testing.assert_allclose(stats_p.mean, stats.mean[perm], rtol=1e-10, atol=1e-14)

    def test_log_marginal_sums_to_em_objective(self, rng):
        beta = rng.normal(0, 1, size=25)
        prior = AshPrior(n_components=5)
        stats = prior.update(beta, 0.4)
        log_lik = marginal_loglik_matrix(beta, 0.4, prior.grid.variances)
        objective = mixture_objective(log_lik, prior.weights.pi)
        assert float(stats.log_marginal.sum()) == pytest.approx(objective, rel=1e-12)


class TestAshPrior:
    def test_grid_frozen_after_first_update(self, rng):
        prior = AshPrior(n_components=6)
        prior.update(rng.normal(0, 1, 10), 0.5)
        frozen = prior.grid.variances.copy()
        prior.update(rng.normal(0, 5, 10), 0.1)
        np.testing.assert_array_equal(prior.grid.variances, frozen)

    def test_warm_start_never_decreases_objective(self, rng):
        prior = AshPrior(n_components=5)
        beta = rng.normal(0, 1, 40)
        prior.update(beta, 0.5)
        log_lik = marginal_loglik_matrix(beta, 0.5, prior.grid.variances)
        before = mixture_objective(log_lik, prior.weights.pi)
        prior.update(beta, 0.5)
        after = mixture_objective(log_lik, prior.weights.pi)
        assert after >= before - 1e-10

    def test_fewer_than_two_components_rejected(self):
        with pytest.raises(ConfigError):
            AshPrior(n_components=1)


def kernel_cases():
    """Log-weight matrices that stress a max-shift kernel."""
    rng = np.random.default_rng(5)
    a = rng.normal(0, 3, size=(40, 7))
    with_zero_weights = a.copy()
    with_zero_weights[:, [0, 4]] = -np.inf  # log of a zero weight
    with_zero_weights[3, [1, 3, 5, 6]] = -np.inf  # a row with one finite entry
    return {
        "plain": a,
        "minus_inf": with_zero_weights,
        "offset_plus_1e3": a + 1e3,
        "offset_minus_1e3": a - 1e3,
        "row_offsets_1e3": a + rng.choice([-1e3, 1e3], size=(40, 1)),
        "single_column": a[:, :1],
    }


class TestResponsibilitiesKernel:
    """``_responsibilities`` and the softmax net's objective against ``scipy.special.logsumexp``."""

    @pytest.mark.parametrize("case", sorted(kernel_cases()))
    def test_matches_logsumexp_oracle(self, case):
        a = kernel_cases()[case]
        expected_norm = logsumexp(a, axis=1)
        log_marginal, gamma = _responsibilities(a)
        np.testing.assert_allclose(log_marginal, expected_norm, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gamma, np.exp(a - expected_norm[:, None]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(gamma[np.isneginf(a)] == 0.0)

    @pytest.mark.parametrize("case", sorted(kernel_cases()))
    def test_softmax_objective_matches_logsumexp_oracle(self, case):
        # the cases as a log-likelihood matrix (-inf entries, offsets of +-1e3)
        # under a depth-0 softmax net on three one-hot groups
        log_lik = kernel_cases()[case]
        p, m = log_lik.shape
        D = np.eye(3)[np.arange(p) % 3]
        net = SoftmaxPriorNet(3, m, hidden=0, seed=3)
        z = D @ net.w + net.b
        log_pi = z - logsumexp(z, axis=1)[:, None]
        expected_norm = logsumexp(log_pi + log_lik, axis=1)
        g_z = np.exp(log_pi + log_lik - expected_norm[:, None]) - np.exp(log_pi)
        expected_grad = np.concatenate([(D.T @ g_z).ravel(), g_z.sum(axis=0)])
        objective, grad = net.objective_and_gradients(D, log_lik)
        assert objective == pytest.approx(expected_norm.sum(), rel=1e-12)
        np.testing.assert_allclose(grad, expected_grad, rtol=1e-12, atol=1e-12)

    def test_input_not_modified(self):
        a = kernel_cases()["minus_inf"]
        before = a.copy()
        _responsibilities(a)
        np.testing.assert_array_equal(a, before)


class TestMixtureWeights:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_non_finite_or_negative_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="weights must be a finite non-negative vector"):
            MixtureWeights(np.array([bad, 0.5, 0.5]))


# ---------------------------------------------------------------------------
# Reference: the mixture posteriors as they were built before the ash, softmax
# and MDN priors shared one (bodies verbatim), for bit-for-bit comparison
# ---------------------------------------------------------------------------


def reference_marginal_loglik_matrix(beta_bar, sigma02, grid):
    """log N(beta_j; 0, sigma02 + sigma_m^2) for every coordinate and component."""
    if sigma02 <= 0:
        raise ValueError("sigma02 must be positive")
    beta_bar = np.asarray(beta_bar, dtype=float)
    total_var = sigma02 + grid.variances[None, :]
    return -0.5 * (LOG_2PI + np.log(total_var) + beta_bar[:, None] ** 2 / total_var)


def reference_mixture_stats(a, comp_mean, comp_var):
    """Posterior summaries of a mixture whose column 0 is the point mass at zero."""
    log_marginal, gamma = _responsibilities(a)
    mean = (gamma * comp_mean).sum(axis=1)
    second = (gamma * (comp_var + comp_mean**2)).sum(axis=1)
    return PosteriorStats(
        mean=mean,
        variance=np.maximum(second - mean**2, 0.0),
        null_prob=gamma[:, 0],
        log_marginal=log_marginal,
    )


def reference_mixture_posterior_stats(beta_bar, sigma02, grid, weights):
    """The grid posterior, which built its own log-likelihood matrix."""
    beta_bar = np.asarray(beta_bar, dtype=float)
    pi = weights.pi if isinstance(weights, MixtureWeights) else np.asarray(weights, dtype=float)
    a = reference_marginal_loglik_matrix(beta_bar, sigma02, grid) + _log_weights(pi)
    # conjugate posterior of each zero-mean component
    shrink = grid.variances[None, :] / (grid.variances[None, :] + sigma02)
    return reference_mixture_stats(a, beta_bar[:, None] * shrink, sigma02 * shrink)


def reference_mdn_posterior_stats(beta_bar, sigma02, weights, means, variances):
    """The MDN posterior, with its own point-mass and component densities."""
    beta_bar = np.asarray(beta_bar, dtype=float)
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    means = np.atleast_2d(np.asarray(means, dtype=float))
    variances = np.atleast_2d(np.asarray(variances, dtype=float))
    # log densities: N(beta_j; 0, sigma02) for the point mass, N(beta_j; mean_jk, v_jk)
    v = sigma02 + variances
    c0 = -0.5 * (LOG_2PI + np.log(sigma02) + beta_bar**2 / sigma02)
    ck = -0.5 * (LOG_2PI + np.log(v) + (beta_bar[:, None] - means) ** 2 / v)
    # conjugate posterior of each Gaussian component; the point mass stays at zero
    zero = np.zeros_like(beta_bar)
    post_mean_k = (beta_bar[:, None] * variances + means * sigma02) / v
    post_var_k = variances * sigma02 / v
    return reference_mixture_stats(_log_weights(weights) + np.column_stack([c0, ck]),
                                   np.column_stack([zero, post_mean_k]), np.column_stack([zero, post_var_k]))


def assert_stats_equal(got, expected):
    for name in ("mean", "variance", "null_prob", "log_marginal"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name


def grid_cases():
    """(beta_bar, sigma02, grid, weights) for the grid posterior: shared and per-row weights."""
    rng = np.random.default_rng(11)
    p, m = 60, 8
    beta = rng.normal(0, 2, p)
    large = np.where(rng.uniform(size=p) < 0.3, rng.choice([-1e3, 1e3], size=p), beta)
    grid = default_grid(beta, 0.4, m)
    shared, rows = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m), size=p)
    zero_shared, zero_rows = shared.copy(), rows.copy()
    zero_shared[[0, 3, 5]] = 0.0  # -inf log weights
    zero_rows[:, [2, 7]] = 0.0
    zero_rows[5, 1:] = 0.0  # a row that is all point mass
    zero_shared /= zero_shared.sum()
    zero_rows /= zero_rows.sum(axis=1, keepdims=True)
    return {
        "shared": (beta, 0.4, grid, shared),
        "rows": (beta, 0.4, grid, rows),
        "zero_shared": (beta, 0.4, grid, zero_shared),
        "zero_rows": (beta, 0.4, grid, zero_rows),
        "point_mass": (beta, 0.4, grid, np.eye(m)[0]),
        "single": (beta[:1], 0.4, grid, shared),
        "single_row": (beta[:1], 0.4, grid, rows[:1]),
        "large": (large, 0.4, default_grid(large, 0.4, m), shared),
        "tiny_sigma02_large": (large, 1e-12, default_grid(large, 1e-12, m), zero_rows),
    }


def mdn_cases():
    """(beta_bar, sigma02, weights, means, variances) for the MDN posterior."""
    rng = np.random.default_rng(12)
    p = 40
    beta = rng.normal(0, 2, p)
    large = np.where(rng.uniform(size=p) < 0.3, rng.choice([-1e3, 1e3], size=p), beta)
    cases = {}
    for k in (1, 3):
        weights = rng.dirichlet(np.ones(k + 1), size=p)
        means, variances = rng.normal(0, 2, (p, k)), np.exp(rng.normal(-1, 1.5, (p, k)))
        zero = weights.copy()
        zero[:, -1] = 0.0
        zero[7] = np.eye(k + 1)[0]
        zero /= zero.sum(axis=1, keepdims=True)
        cases[f"K{k}"] = (beta, 0.4, weights, means, variances)
        cases[f"K{k}_zero_weights"] = (beta, 0.4, zero, means, variances)
        cases[f"K{k}_single"] = (beta[:1], 0.4, weights[0], means[0], variances[0])
        cases[f"K{k}_tiny_sigma02_large"] = (large, 1e-12, zero, 1e3 * means, variances)
    return cases


class TestPosteriorParity:
    """The one mixture posterior against the per-prior posteriors it replaced, bit for bit."""

    @pytest.mark.parametrize("case", sorted(grid_cases()))
    def test_grid_posterior_matches_reference(self, case):
        beta, sigma02, grid, weights = grid_cases()[case]
        log_lik = marginal_loglik_matrix(beta, sigma02, grid.variances)
        assert np.array_equal(log_lik, reference_marginal_loglik_matrix(beta, sigma02, grid))
        assert_stats_equal(mixture_posterior_stats(beta, sigma02, log_lik, weights, grid.variances),
                           reference_mixture_posterior_stats(beta, sigma02, grid, weights))

    @pytest.mark.parametrize("case", sorted(mdn_cases()))
    def test_mdn_posterior_matches_reference(self, case):
        args = mdn_cases()[case]
        assert_stats_equal(mdn_posterior_stats(*args), reference_mdn_posterior_stats(*args))

    @pytest.mark.parametrize("sigma02", [1e-12, 0.4, 7.0])
    def test_null_column_matches_reference(self, sigma02):
        # the MDN's training objective takes its point-mass density from this column
        beta = np.concatenate([np.random.default_rng(13).normal(0, 2, 30), [0.0, -1e3, 1e3]])
        expected = -0.5 * (LOG_2PI + np.log(sigma02) + beta**2 / sigma02)
        assert np.array_equal(marginal_loglik_matrix(beta, sigma02, 0.0)[:, 0], expected)

    def test_ash_update_matches_two_build_path(self):
        rng = np.random.default_rng(14)
        prior, weights = AshPrior(n_components=10), MixtureWeights.uniform(10)
        for sigma02 in (0.5, 0.3, 0.3):  # later updates warm-start EM
            beta = rng.normal(0, 1, 80) * np.where(rng.uniform(size=80) < 0.2, 4.0, 0.3)
            stats = prior.update(beta, sigma02)
            weights = fit_weights_em(reference_marginal_loglik_matrix(beta, sigma02, prior.grid), weights)
            assert np.array_equal(prior.weights.pi, weights.pi)
            assert_stats_equal(stats, reference_mixture_posterior_stats(beta, sigma02, prior.grid, weights))

    @pytest.mark.parametrize("hidden", [0, 3])
    def test_softmax_update_matches_two_build_path(self, hidden):
        rng = np.random.default_rng(15)
        D = np.column_stack([np.arange(60) % 3, rng.normal(size=60)])
        config = TrainConfig(steps=20, later_steps=4)
        prior = SoftmaxPrior(D, n_components=6, hidden=hidden, train_config=config)
        net = SoftmaxPriorNet(2, 6, hidden, seed=config.seed)
        for steps in (config.steps, config.later_steps):
            beta = rng.normal(0, 1, 60)
            stats = prior.update(beta, 0.4)
            train_softmax(net, D, reference_marginal_loglik_matrix(beta, 0.4, prior.grid), config, steps=steps)
            weights = net.forward(D)
            assert np.array_equal(prior._last_weights, weights)
            assert_stats_equal(stats, reference_mixture_posterior_stats(beta, 0.4, prior.grid, weights))

    def test_mdn_update_matches_reference(self):
        rng = np.random.default_rng(16)
        D = np.column_stack([np.arange(50) % 2, rng.normal(size=50)])
        prior = MdnPrior(D, n_components=3, hidden=4, train_config=TrainConfig(steps=20, later_steps=4))
        for _ in range(2):
            beta = rng.normal(0, 1, 50)
            stats = prior.update(beta, 0.4)
            assert_stats_equal(stats, reference_mdn_posterior_stats(beta, 0.4, *prior.net.forward(D)))
