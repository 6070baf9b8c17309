"""Engine tests: coordinate updates, ELBO bookkeeping, convergence, prediction."""

import copy
import dataclasses
import math

import numpy as np
import pytest

import nash
from conftest import random_regression
from nash import ash, engine
from nash.ash import (AshPrior, MixtureGrid, MixtureWeights, PosteriorStats, marginal_loglik_matrix,
                      mixture_posterior_stats)
from nash.data import Dataset, GramDesign, SideInfo, StandardizedDesign, standardize
from nash.engine import (
    FitConfig,
    _coordinate_pass,
    compute_elbo,
    coefficient_variance,
    dampening_weight,
    elbo_terms,
    fit,
    init_state,
    predict,
    sweep,
    update_sigma02,
    update_sigma2,
)
from nash.errors import (
    ConfigError,
    DimensionMismatchError,
    NonPositiveVarianceError,
    StaleStateError,
)


class FixedMixturePrior:
    """Mixture prior with frozen weights: the normal-means step is pure posterior."""

    kind = "fixed-mixture"
    side_info = SideInfo.none()
    updated = False  # frozen weights: a second fit starts where the first did

    def __init__(self, grid: MixtureGrid, weights: MixtureWeights):
        self.grid = grid
        self.weights = weights

    def update(self, beta_bar, sigma02) -> PosteriorStats:
        log_lik = marginal_loglik_matrix(beta_bar, sigma02, self.grid.variances)
        return mixture_posterior_stats(beta_bar, sigma02, log_lik, self.weights.pi, self.grid.variances)

    def prior_null_mass(self):
        return np.array([self.weights.pi[0]])

    def params_dict(self):
        return {"variances": self.grid.variances.tolist(), "weights": self.weights.pi.tolist()}


def make_design(seed=0, n=30, p=6):
    X, y, _ = random_regression(seed, n=n, p=p)
    return standardize(Dataset(y=y, X=X))


def split_args(state, design):
    """Observation count and residual sum of squares of a standardized fit."""
    return design.n, float(state.r_bar @ state.r_bar)


def with_posterior(state, **arrays):
    """Replace arrays of the state's latent posterior (the record itself is frozen)."""
    state.posterior = dataclasses.replace(state.posterior, **arrays)


class TestScalarOps:
    def test_dampening_weight_arithmetic(self):
        assert dampening_weight(100, 1.0, 0.01) == pytest.approx(0.5, rel=1e-12)

    def test_dampening_weight_vanishing_prior_variance(self):
        assert dampening_weight(49, 1.0, 1e-14) == pytest.approx(0.0, abs=1e-10)

    def test_dampening_weight_symmetry_point(self):
        n, sigma2 = 40, 2.7
        assert dampening_weight(n - 1, sigma2, sigma2 / (n - 1)) == pytest.approx(0.5, rel=1e-12)

    def test_dampening_weight_monotone_in_sigma02(self):
        values = [dampening_weight(19, 1.0, v) for v in (0.01, 0.1, 1.0, 10.0)]
        assert np.all(np.diff(values) > 0)

    def test_unit_column_norm_is_the_normal_means_case(self):
        # the identity design: omega and s^2 lose the n-1
        sigma2, sigma02 = 0.37, 0.011
        assert dampening_weight(1, sigma2, sigma02) == sigma02 / (sigma2 + sigma02)
        assert coefficient_variance(1, sigma2, sigma02) == 1.0 / (1.0 / sigma2 + 1.0 / sigma02)

    def test_dampening_weight_rejects_bad_variance(self):
        with pytest.raises(NonPositiveVarianceError):
            dampening_weight(9, 0.0, 1.0)


class TestPartialResidual:
    """The pass regresses each column on its partial residual r + x_j beta_j.

    With omega = 0 and b_bar = beta_bar no coefficient moves, so every
    ``beta_mle[j]`` is that regression at the starting coefficients.
    """

    @staticmethod
    def _held_pass(design, beta):
        state = init_state(design, FitConfig())
        state.beta_bar = np.array(beta, dtype=float)
        with_posterior(state, mean=state.beta_bar.copy())
        state.r_bar = design.ys - design.Xs @ state.beta_bar
        _coordinate_pass(state, design, 0.0)
        np.testing.assert_array_equal(state.beta_bar, beta)
        return state

    def test_zero_effect_returns_residual(self):
        design = make_design()
        beta = np.zeros(design.p)
        beta[[0, 4]] = [0.8, -0.3]
        state = self._held_pass(design, beta)
        r = design.ys - design.Xs @ beta
        assert state.beta_mle[2] == pytest.approx(float(design.Xs[:, 2] @ r) / (design.n - 1), abs=1e-12)

    def test_single_predictor_recovers_response(self):
        design = make_design(p=1)
        state = self._held_pass(design, [0.7])
        expected = float(design.Xs[:, 0] @ design.ys) / (design.n - 1)
        assert state.beta_mle[0] == pytest.approx(expected, abs=1e-12)

    def test_matches_direct_summation(self, rng):
        # oracle: regress x_j on ys - sum_{j' != j} x_j' beta_j'
        design = make_design(seed=5, n=25, p=7)
        beta = rng.standard_normal(7)
        state = self._held_pass(design, beta)
        for j in range(7):
            direct = design.ys.copy()
            for k in range(7):
                if k != j:
                    direct -= design.Xs[:, k] * beta[k]
            x_j = design.Xs[:, j]
            assert state.beta_mle[j] == pytest.approx(float(x_j @ direct) / float(x_j @ x_j), abs=1e-10)


def textbook_coordinate_pass(state, design, omega):
    """Reference pass: form each partial residual, regress on it, blend, subtract the new effect."""
    r = state.r_bar
    for j in range(design.p):
        x_j = design.Xs[:, j]
        r_j = r + x_j * state.beta_bar[j]
        ols = float(x_j @ r_j) / (design.n - 1)
        state.beta_mle[j] = ols
        state.beta_bar[j] = omega * ols + (1.0 - omega) * state.posterior.mean[j]
        r = r_j - x_j * state.beta_bar[j]
    state.r_bar = r


class TestCoordinatePass:
    def _state(self, design, rng):
        state = init_state(design, FitConfig())
        state.beta_bar = rng.standard_normal(design.p)
        with_posterior(state, mean=rng.standard_normal(design.p))
        state.r_bar = design.ys - design.Xs @ state.beta_bar
        return state

    @pytest.mark.parametrize("order", ["C", "F", "gram"])
    def test_matches_textbook_loop(self, rng, order):
        design = make_design(seed=21, n=40, p=12)
        if order == "gram":
            X, y, _ = random_regression(21, n=40, p=12)
            passed = standardize(Dataset(y=y, X=X), gram=True)
        else:
            passed = design = dataclasses.replace(design, Xs=np.asarray(design.Xs, order=order))
        state = self._state(design, rng)
        expected = copy.deepcopy(state)
        state.r_bar = passed.residual(state.beta_bar)
        omega = dampening_weight(design.n - 1, state.sigma2, state.sigma02)
        for _ in range(3):
            _coordinate_pass(state, passed, omega)
            textbook_coordinate_pass(expected, design, omega)
        np.testing.assert_allclose(state.beta_bar, expected.beta_bar, rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.beta_mle, expected.beta_mle, rtol=0, atol=1e-12)
        if order == "gram":  # the Gram form keeps z = Xs^T r, a sum of n terms, in place of r
            np.testing.assert_allclose(state.r_bar, design.Xs.T @ expected.r_bar, rtol=0, atol=1e-11)
        else:
            np.testing.assert_allclose(state.r_bar, expected.r_bar, rtol=0, atol=1e-12)
        assert state.posterior_fresh is False

    def test_leaves_held_residual_alone(self, rng):
        design = make_design(seed=22)
        state = self._state(design, rng)
        held = state.r_bar
        before = held.copy()
        _coordinate_pass(state, design, dampening_weight(design.n - 1, state.sigma2, state.sigma02))
        np.testing.assert_array_equal(held, before)
        assert state.r_bar is not held
        np.testing.assert_allclose(state.r_bar, design.ys - design.Xs @ state.beta_bar, atol=1e-12)


def held_variance_sweep(state, design, prior):
    """A sweep that keeps sigma2 and sigma02, so its ELBO point stays fresh."""
    sigma2, sigma02 = state.sigma2, state.sigma02
    sweep(state, design, prior)
    state.sigma2, state.sigma02 = sigma2, sigma02
    state.posterior_fresh = True


def run_sweeps(design, prior, config, sweeps, step=sweep):
    state = init_state(design, config)
    for _ in range(sweeps):
        step(state, design, prior)
    return state


class TestSweep:
    def test_single_coordinate_reduces_to_ols(self):
        # near-degenerate dampening (omega ~ 1) recovers the least-squares slope
        design = make_design(p=1)
        config = FitConfig(init_sigma2=1e-8, init_sigma02=10.0)
        state = run_sweeps(design, FixedMixturePrior(
            MixtureGrid(np.array([0.0, 1.0])), MixtureWeights(np.array([0.0, 1.0]))), config, 1,
            step=held_variance_sweep)
        slope = float(design.Xs[:, 0] @ design.ys) / (design.n - 1)
        assert state.beta_bar[0] == pytest.approx(slope, rel=1e-6)

    def test_null_response_is_fixed_point(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((20, 4))
        design = standardize(Dataset(y=np.zeros(20) + 5.0, X=X))  # ys is exactly zero
        state = run_sweeps(design, AshPrior(n_components=4), FitConfig(), 3)
        np.testing.assert_array_equal(state.beta_bar, np.zeros(4))
        np.testing.assert_array_equal(state.r_bar, np.zeros(20))

    def test_elbo_non_decreasing_random_instance(self):
        design = make_design(seed=11, n=20, p=5)
        prior = AshPrior(n_components=6)
        state = init_state(design, FitConfig())
        for _ in range(8):
            sweep(state, design, prior)
        diffs = np.diff(state.elbo_trace)
        assert np.all(diffs >= -1e-8)

    def test_residual_consistency_after_every_sweep(self):
        design = make_design(seed=2, n=40, p=10)
        prior = AshPrior(n_components=8)
        state = init_state(design, FitConfig())
        for _ in range(10):
            sweep(state, design, prior)
            drift = np.max(np.abs(state.r_bar - (design.ys - design.Xs @ state.beta_bar)))
            assert drift < 1e-8

    def test_gram_residual_consistency_after_every_sweep(self):
        X, y, _ = random_regression(2, n=40, p=10)
        design = standardize(Dataset(y=y, X=X), gram=True)
        Xs, ys = make_design(seed=2, n=40, p=10).Xs, design.ys
        prior = AshPrior(n_components=8)
        state = init_state(design, FitConfig())
        for _ in range(10):
            sweep(state, design, prior)
            drift = np.max(np.abs(state.r_bar - Xs.T @ (ys - Xs @ state.beta_bar)))
            assert drift < 1e-10

    def test_autoregressive_reconstruction(self):
        design = make_design(seed=7, n=30, p=6)
        prior = AshPrior(n_components=5)
        state = init_state(design, FitConfig())
        sweep(state, design, prior)
        for _ in range(3):
            b_prev = state.posterior.mean.copy()
            omega_before = dampening_weight(design.n - 1, state.sigma2, state.sigma02)
            beta_inputs = None

            class Recorder:
                kind = prior.kind
                side_info = SideInfo.none()
                updated = False

                def update(self, beta_bar, sigma02):
                    nonlocal beta_inputs
                    beta_inputs = beta_bar.copy()
                    return prior.update(beta_bar, sigma02)

                def prior_null_mass(self):
                    return prior.prior_null_mass()

                def params_dict(self):
                    return prior.params_dict()

            sweep(state, design, Recorder())
            reconstructed = omega_before * state.beta_mle + (1.0 - omega_before) * b_prev
            np.testing.assert_array_equal(beta_inputs, reconstructed)

    def test_coefficient_variance_identity(self):
        design = make_design(seed=9)
        state = init_state(design, FitConfig())
        sigma2, sigma02 = state.sigma2, state.sigma02
        sweep(state, design, AshPrior(n_components=4))
        expected = 1.0 / ((design.n - 1) / sigma2 + 1.0 / sigma02)
        assert state.s_j2 == pytest.approx(expected, rel=1e-15)


class TestVarianceUpdates:
    def _fresh_state(self, seed=13):
        design = make_design(seed=seed, n=35, p=6)
        prior = AshPrior(n_components=6)
        state = run_sweeps(design, prior, FitConfig(), 2, step=held_variance_sweep)
        return design, state

    def test_perfect_fit_clamps_to_floor(self):
        design, state = self._fresh_state()
        state.r_bar = np.zeros(design.n)
        state.s_j2 = 0.0
        assert update_sigma2(state, *split_args(state, design)) == 1e-12

    def test_sigma02_direct_formula(self):
        design, state = self._fresh_state()
        with_posterior(state, mean=state.beta_bar.copy(), variance=np.zeros(design.p))
        state.s_j2 = 0.37
        assert update_sigma02(state) == pytest.approx(0.37, rel=1e-12)

    def test_exact_cavi_maximizes_elbo_in_sigma2(self):
        design, state = self._fresh_state()
        optimum = update_sigma2(state, *split_args(state, design))
        def elbo_at(sigma2):
            probe = copy.deepcopy(state)
            probe.sigma2 = sigma2
            return compute_elbo(probe, *split_args(probe, design))
        assert elbo_at(optimum) > elbo_at(optimum * 1.1)
        assert elbo_at(optimum) > elbo_at(optimum * 0.9)

    def test_exact_cavi_maximizes_elbo_in_sigma02(self):
        # with q and g held fixed only term 2 varies in sigma02 (term 3 is
        # E log g/q_b, a constant of the posteriors), so that is the
        # functional the coordinate update must maximize
        design, state = self._fresh_state(seed=21)
        optimum = update_sigma02(state)
        def t2_at(sigma02):
            probe = copy.deepcopy(state)
            probe.sigma02 = sigma02
            return elbo_terms(probe, *split_args(probe, design))[1]
        assert t2_at(optimum) > t2_at(optimum * 1.1)
        assert t2_at(optimum) > t2_at(optimum * 0.9)

    def test_doubling_sigma2_away_from_optimum_decreases_t1(self):
        design, state = self._fresh_state(seed=4)
        state.sigma2 = update_sigma2(state, *split_args(state, design))
        t1_at_opt = elbo_terms(state, *split_args(state, design))[0]
        probe = copy.deepcopy(state)
        probe.sigma2 = state.sigma2 * 2.0
        assert elbo_terms(probe, *split_args(probe, design))[0] < t1_at_opt


class TestElbo:
    def test_stale_state_detected(self):
        design = make_design()
        state = init_state(design, FitConfig())
        with pytest.raises(StaleStateError):
            compute_elbo(state, *split_args(state, design))

    def test_invariant_to_covariate_reordering(self, rng):
        # the ELBO is symmetric in the coordinates: permuting the state and
        # design consistently must leave its value unchanged
        X, y, _ = random_regression(31, n=30, p=6)
        design = standardize(Dataset(y=y, X=X))
        prior = FixedMixturePrior(MixtureGrid(np.array([0.0, 0.2, 1.0])),
                                  MixtureWeights(np.array([0.4, 0.3, 0.3])))
        state = run_sweeps(design, prior, FitConfig(), 4, step=held_variance_sweep)
        baseline = compute_elbo(state, *split_args(state, design))
        perm = rng.permutation(6)
        permuted_design = type(design)(
            Xs=design.Xs[:, perm],
            ys=design.ys,
            y_mean=design.y_mean,
            col_means=design.col_means[perm],
            col_scales=design.col_scales[perm],
        )
        permuted = copy.deepcopy(state)
        permuted.beta_bar = state.beta_bar[perm]
        permuted.beta_mle = state.beta_mle[perm]
        post = state.posterior
        with_posterior(permuted, mean=post.mean[perm], variance=post.variance[perm],
                       null_prob=post.null_prob[perm], log_marginal=post.log_marginal[perm])
        assert compute_elbo(permuted, *split_args(permuted, permuted_design)) == pytest.approx(baseline, abs=1e-8)

    def test_matches_two_dimensional_quadrature(self):
        # independent oracle: integrate E_q[log joint - log q] on a dense
        # (beta, b) grid for a single-predictor, one-component-prior fit
        X, y, _ = random_regression(17, n=25, p=1)
        design = standardize(Dataset(y=y, X=X))
        sigma12 = 0.8
        sigma2, sigma02 = 0.5, 0.3
        prior = FixedMixturePrior(MixtureGrid(np.array([0.0, sigma12])),
                                  MixtureWeights(np.array([0.0, 1.0])))
        config = FitConfig(init_sigma2=sigma2, init_sigma02=sigma02)
        state = run_sweeps(design, prior, config, 6, step=held_variance_sweep)
        analytic = compute_elbo(state, *split_args(state, design))

        n = design.n
        beta_bar = state.beta_bar[0]
        s2 = state.s_j2
        prec_b = 1.0 / sigma02 + 1.0 / sigma12
        b_mean = (beta_bar / sigma02) / prec_b
        b_var = 1.0 / prec_b

        betas = np.linspace(beta_bar - 9 * math.sqrt(s2), beta_bar + 9 * math.sqrt(s2), 1201)
        bs = np.linspace(b_mean - 9 * math.sqrt(b_var), b_mean + 9 * math.sqrt(b_var), 1201)
        B, L = np.meshgrid(betas, bs, indexing="ij")

        def log_normal(x, mean, var):
            return -0.5 * (math.log(2 * math.pi * var) + (x - mean) ** 2 / var)

        x = design.Xs[:, 0]
        rss = (design.ys[:, None, None] - x[:, None, None] * B[None, :, :]) ** 2
        log_lik = -0.5 * n * math.log(2 * math.pi * sigma2) - rss.sum(axis=0) / (2 * sigma2)
        integrand = (
            log_lik
            + log_normal(B, L, sigma02)
            + log_normal(L, 0.0, sigma12)
            - log_normal(B, beta_bar, s2)
            - log_normal(L, b_mean, b_var)
        )
        q_joint = np.exp(log_normal(B, beta_bar, s2) + log_normal(L, b_mean, b_var))
        numeric = np.trapezoid(np.trapezoid(q_joint * integrand, bs, axis=1), betas)
        assert analytic == pytest.approx(numeric, abs=1e-6)


class TestFit:
    def test_null_data_concentrates_prior_on_zero(self):
        # pure-noise responses: the fitted point-mass weight should dominate
        null_masses = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            X = rng.standard_normal((50, 20))
            y = rng.standard_normal(50)
            result = fit(Dataset(y=y, X=X), SideInfo.none(), AshPrior(n_components=10), FitConfig())
            null_masses.append(result.prior_null_mass)
        assert float(np.median(null_masses)) >= 0.8

    def test_matches_closed_form_ridge_posterior_mean(self):
        # joint prior N(0, sigma02 + sigma12) makes the exact posterior Gaussian;
        # mean-field coordinate ascent must recover its mean
        X, y, _ = random_regression(23, n=30, p=1)
        design = standardize(Dataset(y=y, X=X))
        sigma2, sigma02, sigma12 = 0.4, 0.25, 1.5
        prior = FixedMixturePrior(MixtureGrid(np.array([0.0, sigma12])),
                                  MixtureWeights(np.array([0.0, 1.0])))
        config = FitConfig(init_sigma2=sigma2, init_sigma02=sigma02, max_sweeps=400, elbo_tol=1e-14)
        state = run_sweeps(design, prior, config, 300, step=held_variance_sweep)
        prior_var = sigma02 + sigma12
        n = design.n
        xty = float(design.Xs[:, 0] @ design.ys)
        ridge_mean = (xty / sigma2) / ((n - 1) / sigma2 + 1.0 / prior_var)
        assert state.beta_bar[0] == pytest.approx(ridge_mean, abs=1e-6)

    def test_zero_response_gives_null_model(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((15, 3))
        y = np.full(15, 2.5)
        result = fit(Dataset(y=y, X=X), SideInfo.none(), AshPrior(n_components=4), FitConfig())
        np.testing.assert_array_equal(result.coefficients, np.zeros(3))
        assert result.intercept == pytest.approx(2.5)

    def test_deterministic_given_seed(self):
        X, y, _ = random_regression(41, n=40, p=12)
        results = [
            fit(Dataset(y=y, X=X), SideInfo.none(), AshPrior(n_components=8), FitConfig())
            for _ in range(2)
        ]
        np.testing.assert_array_equal(results[0].coefficients, results[1].coefficients)
        assert results[0].elbo_trace == results[1].elbo_trace
        assert results[0].prior_params == results[1].prior_params

    def test_convergence_flag_semantics(self):
        X, y, _ = random_regression(2, n=30, p=5)
        done = fit(Dataset(y=y, X=X), SideInfo.none(), AshPrior(4), FitConfig(max_sweeps=200))
        assert done.converged and done.sweeps < 200
        capped = fit(Dataset(y=y, X=X), SideInfo.none(), AshPrior(4), FitConfig(max_sweeps=2))
        assert not capped.converged and capped.sweeps == 2

    def test_incompatible_side_info_rejected(self):
        X, y, _ = random_regression(3)
        with pytest.raises(ConfigError):
            fit(Dataset(y=y, X=X), SideInfo.from_features(np.ones((8, 1))), AshPrior(4), FitConfig())


class RecordingPrior(AshPrior):
    """Ash prior that keeps every posterior record its ``update`` returns."""

    def __init__(self, n_components):
        super().__init__(n_components)
        self.returned = []

    def update(self, beta_bar, sigma02):
        self.returned.append(super().update(beta_bar, sigma02))
        return self.returned[-1]


class TestPosteriorRecord:
    def test_summaries_are_the_last_prior_record(self):
        X, y, _ = random_regression(5, n=30, p=6)
        prior = RecordingPrior(5)
        result = fit(Dataset(y=y, X=X), SideInfo.none(), prior, FitConfig(max_sweeps=4))
        assert result.summaries is prior.returned[-1]
        assert result.state.posterior is prior.returned[-1]

    @pytest.mark.parametrize("max_sweeps, converged", [(200, True), (3, False)])
    def test_sweeps_count_the_elbo_trace(self, max_sweeps, converged):
        X, y, _ = random_regression(2, n=30, p=5)
        prior = RecordingPrior(4)
        result = fit(Dataset(y=y, X=X), SideInfo.none(), prior, FitConfig(max_sweeps=max_sweeps))
        assert result.converged is converged
        assert result.sweeps == len(result.elbo_trace) == len(prior.returned)

    def test_no_per_coordinate_summary_method(self):
        X, y, _ = random_regression(2, n=30, p=5)
        result = fit(Dataset(y=y, X=X), SideInfo.none(), AshPrior(4), FitConfig(max_sweeps=2))
        assert not hasattr(result, "summary")


def fresh_priors(p):
    """One maker per prior family, with the side information it needs."""
    D, graph = np.eye(2)[np.arange(p) % 2], nash.Graph.chain(p)
    quick = nash.TrainConfig(steps=5, later_steps=2)
    return {
        "ash": (lambda: AshPrior(5), SideInfo.none()),
        "softmax": (lambda: nash.SoftmaxPrior(D, n_components=4, train_config=quick), SideInfo.from_features(D)),
        "mdn": (lambda: nash.MdnPrior(D, n_components=2, hidden=2, train_config=quick),
                SideInfo.from_features(D)),
        "fused": (lambda: nash.FusedPrior(graph), SideInfo.from_graph(graph)),
    }


class TestSideInfoMatchesPrior:
    """``fit`` rejects side information other than the features or graph the prior holds."""

    def test_other_features_rejected_before_the_first_sweep(self):
        # the prior trains on its own features: one-hot groups given here would be ignored
        X, y, _ = random_regression(0, n=30, p=8)
        prior = nash.SoftmaxPrior(np.zeros((8, 2)), n_components=3, train_config=nash.TrainConfig(steps=5))
        with pytest.raises(ConfigError, match="side_info's features differ from the ones the 'softmax' prior"):
            fit(Dataset(y=y, X=X), SideInfo.from_features(np.eye(2)[np.arange(8) % 2]), prior,
                FitConfig(max_sweeps=2))
        assert not prior.updated

    @pytest.mark.parametrize("family", ["softmax", "mdn", "fused"])
    def test_prior_built_for_other_size_rejected(self, family):
        X, y, _ = random_regression(1, n=30, p=8)
        prior = fresh_priors(10)[family][0]()
        side = fresh_priors(8)[family][1]
        expected = "10 nodes, side_info one of 8" if family == "fused" else r"\(10, 2\), side_info of shape \(8, 2\)"
        with pytest.raises(DimensionMismatchError, match=expected):
            fit(Dataset(y=y, X=X), side, prior, FitConfig(max_sweeps=2))
        assert not prior.updated

    def test_other_graph_rejected(self):
        X, y, _ = random_regression(2, n=30, p=8)
        prior = nash.FusedPrior(nash.Graph.chain(8))
        side = SideInfo.from_graph(nash.Graph(8, [[0, 2], [2, 4], [1, 3]]))
        with pytest.raises(ConfigError, match="side_info's graph differs from the one the 'fused' prior"):
            fit(Dataset(y=y, X=X), side, prior, FitConfig(max_sweeps=2))
        assert not prior.updated

    @pytest.mark.parametrize("family", ["softmax", "mdn", "fused"])
    def test_equal_copies_accepted(self, family):
        X, y, _ = random_regression(3, n=30, p=8)
        make, side = fresh_priors(8)[family]
        if family == "fused":
            copied = SideInfo.from_graph(nash.Graph.chain(8))
        else:
            copied = SideInfo.from_features(side.D.copy())
        data, config = Dataset(y=y, X=X), FitConfig(max_sweeps=3)
        np.testing.assert_array_equal(fit(data, copied, make(), config).coefficients,
                                      fit(data, side, make(), config).coefficients)


class FeaturePrior(FixedMixturePrior):
    """A user-written prior on features it keeps only in ``side_info``: no ``D`` attribute."""

    def __init__(self, D):
        super().__init__(MixtureGrid(np.array([0.0, 1.0])), MixtureWeights(np.array([0.5, 0.5])))
        self.side_info = SideInfo.from_features(D)


class TestPriorSideInfo:
    """Every prior holds its side information as ``side_info``, and ``fit`` checks the given one
    against it: a user-written prior gets the check a built-in one gets."""

    def test_priors_hold_the_side_info_they_were_built_on(self):
        priors = {family: make() for family, (make, _) in fresh_priors(8).items()}
        assert priors["ash"].side_info == SideInfo.none()
        for family in ("softmax", "mdn"):
            assert priors[family].side_info.D is priors[family].D
        assert priors["fused"].side_info.graph is priors["fused"].graph

    @pytest.mark.parametrize("family, held, given", [("ash", "none", "features"), ("softmax", "features", "none"),
                                                     ("mdn", "features", "graph"), ("fused", "graph", "features")])
    def test_other_kind_rejected(self, family, held, given):
        X, y, _ = random_regression(5, n=30, p=8)
        sides = {"none": SideInfo.none(), "features": SideInfo.from_features(np.ones((8, 1))),
                 "graph": SideInfo.from_graph(nash.Graph.chain(8))}
        prior = fresh_priors(8)[family][0]()
        with pytest.raises(ConfigError, match=f"^'{family}' prior requires side information of kind "
                                              f"'{held}', got '{given}'$"):
            fit(Dataset(y=y, X=X), sides[given], prior, FitConfig(max_sweeps=2))
        assert not prior.updated

    def test_other_features_rejected(self):
        X, y, _ = random_regression(4, n=30, p=8)
        prior = FeaturePrior(np.zeros((8, 2)))
        with pytest.raises(ConfigError, match="side_info's features differ from the ones the 'fixed-mixture'"):
            fit(Dataset(y=y, X=X), SideInfo.from_features(np.eye(2)[np.arange(8) % 2]), prior,
                FitConfig(max_sweeps=2))

    def test_other_shape_rejected(self):
        X, y, _ = random_regression(4, n=30, p=8)
        expected = r"'fixed-mixture' prior holds features of shape \(8, 2\), side_info of shape \(8, 3\)"
        with pytest.raises(DimensionMismatchError, match=expected):
            fit(Dataset(y=y, X=X), SideInfo.from_features(np.ones((8, 3))), FeaturePrior(np.ones((8, 2))),
                FitConfig(max_sweeps=2))

    def test_own_side_info_accepted(self):
        X, y, _ = random_regression(4, n=30, p=8)
        prior = FeaturePrior(np.ones((8, 2)))
        result = fit(Dataset(y=y, X=X), SideInfo.from_features(np.ones((8, 2))), prior, FitConfig(max_sweeps=2))
        assert result.sweeps == 2


class TestPriorReuse:
    """A prior object serves one fit: a second fit would warm-start from the first."""

    @pytest.mark.parametrize("family", ["ash", "softmax", "mdn", "fused"])
    def test_fitted_prior_rejected(self, family):
        X, y, _ = random_regression(0, n=40, p=8)
        make, side = fresh_priors(8)[family]
        data, config = Dataset(y=y, X=X), FitConfig(max_sweeps=3)
        prior = make()
        first = fit(data, side, prior, config)
        with pytest.raises(ConfigError, match="already been fitted"):
            fit(data, side, prior, config)
        np.testing.assert_array_equal(fit(data, side, make(), config).coefficients, first.coefficients)

    def test_fused_prior_rejected_after_all_zero_means(self):
        # a constant response leaves every latent mean at exactly 0
        X, _, _ = random_regression(2, n=30, p=5)
        data, graph = Dataset(y=np.ones(30), X=X), nash.Graph.chain(5)
        prior = nash.FusedPrior(graph)
        first = fit(data, SideInfo.from_graph(graph), prior, FitConfig(max_sweeps=2))
        np.testing.assert_array_equal(first.summaries.mean, 0.0)
        with pytest.raises(ConfigError, match="already been fitted"):
            fit(data, SideInfo.from_graph(graph), prior, FitConfig(max_sweeps=2))

    def test_fused_prior_with_hand_set_scales_accepted(self):
        X, y, _ = random_regression(1, n=40, p=8)
        prior = nash.FusedPrior(nash.Graph.chain(8))
        prior.scales = nash.FusedScales(0.45, 0.15)
        result = fit(Dataset(y=y, X=X), SideInfo.from_graph(prior.graph), prior, FitConfig(max_sweeps=3))
        assert (result.prior_params["s1"], result.prior_params["s2"]) == (0.45, 0.15)


class TestTracerContract:
    """The benchmark tracer patches the regression path by name; moving a patched name must fail here."""

    def test_ash_fit_is_traced(self, spans):
        for n, p in ((40, 10), (10, 40)):  # the Gram path, then the column path
            X, y, _ = random_regression(6, n=n, p=p)
            with spans.instrument(spans.Tracer()) as tracer:
                result = nash.fit(nash.Dataset(y=y, X=X), nash.SideInfo.none(), nash.AshPrior(n_components=5),
                                  nash.FitConfig(max_sweeps=4))
            sweeps = tracer.counts["engine.sweeps"]
            assert sweeps == result.sweeps == len(result.elbo_trace) > 0
            per_fit = {"ash.em": sweeps, "ash.posterior": sweeps, "prior.update": sweeps,
                       "engine.fit": 1, "data.standardize": 1}
            for name, count in per_fit.items():
                assert sum(s.name == name for s in tracer.spans) == count, name
        # originals restored
        for func in (nash.fit, engine.fit, engine.sweep, engine.standardize, ash.fit_weights_em,
                     ash.mixture_posterior_stats, ash.mixture_objective):
            assert not hasattr(func, "__wrapped__")


def fit_in_form(monkeypatch, gram, dataset, config):
    """``fit`` with its design built in the Gram form or the column form, whatever the shape."""
    with monkeypatch.context() as patch:
        patch.setattr(engine, "standardize", lambda data, **_: standardize(data, gram=gram))
        return fit(dataset, SideInfo.none(), AshPrior(), config)


def tall_regression(seed, n, p, rho, pve):
    """AR(1)-correlated Gaussian columns, 10 effects, noise at proportion of variance explained ``pve``."""
    rng = np.random.default_rng([seed, 26])
    X = rng.standard_normal((n, p))
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + math.sqrt(1.0 - rho * rho) * X[:, j]
    b = np.zeros(p)
    b[rng.choice(p, 10, replace=False)] = rng.standard_normal(10)
    signal = X @ b
    return X, signal + rng.normal(0.0, math.sqrt(np.var(signal) * (1.0 - pve) / pve), n)


class TestGramPath:
    """When n >= p the fit runs on G = Xs^T Xs; it must give the column path's fit up to rounding."""

    @pytest.mark.parametrize("n, p, form", [(40, 10, GramDesign), (10, 10, GramDesign), (9, 10, StandardizedDesign)])
    def test_path_follows_shape(self, monkeypatch, n, p, form):
        built = []

        def recorded(data, **kw):
            built.append(standardize(data, **kw))
            return built[-1]

        monkeypatch.setattr(engine, "standardize", recorded)
        X, y, _ = random_regression(1, n=n, p=p)
        fit(Dataset(y=y, X=X), SideInfo.none(), AshPrior(4), FitConfig(max_sweeps=2))
        assert [type(d) for d in built] == [form]

    @pytest.mark.parametrize("seed", [2, 5])
    @pytest.mark.parametrize("rho", [0.0, 0.9])
    @pytest.mark.parametrize("pve", [0.5, 0.99, 0.99999])
    @pytest.mark.parametrize("init", [False, True])
    @pytest.mark.parametrize("n, p", [(200, 50), (60, 60)])
    def test_matches_column_path(self, monkeypatch, seed, rho, pve, init, n, p):
        X, y = tall_regression(seed, n, p, rho, pve)
        init_beta = np.random.default_rng(seed).normal(0.0, 0.1, p) if init else None
        data, config = Dataset(y=y, X=X), FitConfig(init_beta=init_beta)
        columns = fit_in_form(monkeypatch, False, data, config)
        gram = fit(data, SideInfo.none(), AshPrior(), config)
        assert gram.sweeps == columns.sweeps
        scale = np.max(np.abs(columns.coefficients))
        np.testing.assert_allclose(gram.coefficients, columns.coefficients, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(gram.elbo_trace, columns.elbo_trace, rtol=1e-9)
        assert gram.intercept == pytest.approx(columns.intercept, rel=1e-12, abs=1e-12)
        # the Gram path's fitted values are the raw X's
        np.testing.assert_array_equal(gram.fitted_values, predict(gram, X))

    def test_noise_free_response_floors_sigma2(self, monkeypatch):
        rss, original = [], GramDesign.rss

        def recorded(design, beta, z):
            rss.append(original(design, beta, z))
            return rss[-1]

        monkeypatch.setattr(GramDesign, "rss", recorded)
        rng = np.random.default_rng(26)
        X = rng.standard_normal((60, 12))
        y = X[:, :4] @ rng.standard_normal(4)
        result = fit(Dataset(y=y, X=X), SideInfo.none(), AshPrior(n_components=8), FitConfig())
        assert result.state.sigma2 == engine.VARIANCE_FLOOR
        assert len(rss) == result.sweeps and min(rss) >= 0.0

    def test_rss_where_the_quadratic_form_cancels(self):
        # at the least-squares solution of a noise-free response the quadratic form is all rounding
        rng = np.random.default_rng(27)
        X = rng.standard_normal((80, 15))
        data = Dataset(y=X @ rng.standard_normal(15), X=X)
        design, columns = standardize(data, gram=True), standardize(data)
        beta = np.linalg.lstsq(columns.Xs, columns.ys, rcond=None)[0]
        r = columns.residual(beta)
        assert 0.0 <= design.rss(beta, design.residual(beta)) == pytest.approx(float(r @ r), rel=1e-6, abs=1e-24)


class TestPredict:
    def _fitted(self):
        X, y, _ = random_regression(29, n=30, p=5)
        result = fit(Dataset(y=y, X=X), SideInfo.none(), AshPrior(n_components=6), FitConfig())
        return X, y, result

    def test_zero_coefficients_predict_mean(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((15, 3))
        y = np.full(15, -1.25)
        result = fit(Dataset(y=y, X=X), SideInfo.none(), AshPrior(4), FitConfig())
        np.testing.assert_allclose(predict(result, X), np.full(15, -1.25), atol=1e-12)

    def test_training_rows_reproduce_fitted_values(self):
        X, _, result = self._fitted()
        np.testing.assert_allclose(predict(result, X), result.fitted_values, atol=1e-10)

    def test_duplicated_row_gets_identical_predictions(self):
        X, _, result = self._fitted()
        row = X[3:4]
        out = predict(result, np.vstack([row, row]))
        assert out[0] == out[1]

    def test_dimension_mismatch(self):
        _, _, result = self._fitted()
        with pytest.raises(DimensionMismatchError):
            predict(result, np.ones((4, 99)))


class TestInitModes:
    def test_provided_coefficients_change_first_residual(self):
        X, y, _ = random_regression(51, n=25, p=4)
        design = standardize(Dataset(y=y, X=X))
        init = np.array([0.5, -0.25, 0.0, 1.0])
        state = init_state(design, FitConfig(init_beta=init))
        np.testing.assert_array_equal(state.beta_bar, init)
        np.testing.assert_allclose(state.r_bar, design.ys - design.Xs @ init, atol=1e-12)

    def test_fit_starts_from_init_beta(self):
        # init_beta alone is enough: the first sweep starts from it, not from zeros
        X, y, _ = random_regression(53, n=20, p=4)
        init = np.array([2.0, -1.0, 0.5, 3.0])
        started = fit(Dataset(y=y, X=X), SideInfo.none(), AshPrior(n_components=5),
                      FitConfig(init_beta=init, max_sweeps=1))
        zero = fit(Dataset(y=y, X=X), SideInfo.none(), AshPrior(n_components=5),
                   FitConfig(max_sweeps=1))
        assert not np.array_equal(started.coefficients, zero.coefficients)
        assert started.elbo_trace != zero.elbo_trace

    def test_provided_length_checked(self):
        X, y, _ = random_regression(52, n=25, p=4)
        design = standardize(Dataset(y=y, X=X))
        with pytest.raises(DimensionMismatchError):
            init_state(design, FitConfig(init_beta=np.zeros(9)))

    def test_bad_config_values_rejected(self):
        with pytest.raises(ConfigError):
            FitConfig(max_sweeps=0)
        with pytest.raises(ConfigError):
            FitConfig(elbo_tol=0.0)
        for tol in (np.nan, np.inf, -1e-6):
            with pytest.raises(ConfigError, match="elbo_tol"):
                FitConfig(elbo_tol=tol)
        for name in ("init_sigma2", "init_sigma02"):
            for value in (0.0, -1.0, np.nan, np.inf):
                with pytest.raises(ConfigError, match=name):
                    FitConfig(**{name: value})
        for beta in (np.array([0.0, np.nan]), np.array([np.inf, 1.0])):
            with pytest.raises(ConfigError, match="init_beta"):
                FitConfig(init_beta=beta)


class TestNetworkPriorElbo:
    def test_final_elbo_at_least_initial(self):
        # stochastic-gradient priors are not sweep-monotone, but a full fit
        # must still end at or above its starting bound
        from nash.nets import MdnPrior, SoftmaxPrior, TrainConfig

        rng = np.random.default_rng(77)
        n, p = 50, 16
        X = rng.standard_normal((n, p))
        b = np.zeros(p)
        b[:4] = rng.standard_normal(4) * 1.5
        y = X @ b + 0.5 * rng.standard_normal(n)
        D = np.zeros((p, 2))
        D[:8, 0] = 1.0
        D[8:, 1] = 1.0
        for prior in (
            SoftmaxPrior(D, n_components=6, train_config=TrainConfig(steps=60, later_steps=15, seed=0)),
            MdnPrior(D, n_components=2, hidden=4, train_config=TrainConfig(steps=60, later_steps=15, seed=0)),
        ):
            result = fit(Dataset(y=y, X=X), SideInfo.from_features(D), prior,
                         FitConfig(max_sweeps=25))
            assert result.elbo_trace[-1] >= result.elbo_trace[0]
