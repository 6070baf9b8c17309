"""Engine tests: coordinate updates, ELBO bookkeeping, convergence, prediction."""

import copy
import dataclasses
import math

import numpy as np
import pytest

from conftest import random_regression
from nash.ash import AshPrior, MixtureGrid, MixtureWeights, PosteriorStats, mixture_posterior_stats
from nash.data import Dataset, SideInfo, standardize
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
    side_kind = "none"

    def __init__(self, grid: MixtureGrid, weights: MixtureWeights):
        self.grid = grid
        self.weights = weights

    def update(self, beta_bar, sigma02) -> PosteriorStats:
        return mixture_posterior_stats(beta_bar, sigma02, self.grid, self.weights)

    def prior_null_mass(self):
        return np.array([self.weights.pi[0]])

    def params_dict(self):
        return {"variances": self.grid.variances.tolist(), "weights": self.weights.pi.tolist()}


def make_design(seed=0, n=30, p=6):
    X, y, _ = random_regression(seed, n=n, p=p)
    return standardize(Dataset(y=y, X=X))


class TestScalarOps:
    def test_dampening_weight_arithmetic(self):
        assert dampening_weight(101, 1.0, 0.01) == pytest.approx(0.5, rel=1e-12)

    def test_dampening_weight_vanishing_prior_variance(self):
        assert dampening_weight(50, 1.0, 1e-14) == pytest.approx(0.0, abs=1e-10)

    def test_dampening_weight_symmetry_point(self):
        n, sigma2 = 40, 2.7
        assert dampening_weight(n, sigma2, sigma2 / (n - 1)) == pytest.approx(0.5, rel=1e-12)

    def test_dampening_weight_monotone_in_sigma02(self):
        values = [dampening_weight(20, 1.0, v) for v in (0.01, 0.1, 1.0, 10.0)]
        assert np.all(np.diff(values) > 0)

    def test_dampening_weight_rejects_bad_variance(self):
        with pytest.raises(NonPositiveVarianceError):
            dampening_weight(10, 0.0, 1.0)


class TestPartialResidual:
    """The pass regresses each column on its partial residual r + x_j beta_j.

    With omega = 0 and b_bar = beta_bar no coefficient moves, so every
    ``beta_mle[j]`` is that regression at the starting coefficients.
    """

    @staticmethod
    def _held_pass(design, beta):
        state = init_state(design, FitConfig())
        state.beta_bar = np.array(beta, dtype=float)
        state.b_bar = state.beta_bar.copy()
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
        state.beta_bar[j] = omega * ols + (1.0 - omega) * state.b_bar[j]
        r = r_j - x_j * state.beta_bar[j]
    state.r_bar = r


class TestCoordinatePass:
    def _state(self, design, rng):
        state = init_state(design, FitConfig())
        state.beta_bar = rng.standard_normal(design.p)
        state.b_bar = rng.standard_normal(design.p)
        state.r_bar = design.ys - design.Xs @ state.beta_bar
        return state

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_textbook_loop(self, rng, order):
        design = make_design(seed=21, n=40, p=12)
        design = dataclasses.replace(design, Xs=np.asarray(design.Xs, order=order))
        state = self._state(design, rng)
        expected = copy.deepcopy(state)
        omega = dampening_weight(design.n, state.sigma2, state.sigma02)
        for _ in range(3):
            _coordinate_pass(state, design, omega)
            textbook_coordinate_pass(expected, design, omega)
        np.testing.assert_allclose(state.beta_bar, expected.beta_bar, rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.beta_mle, expected.beta_mle, rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.r_bar, expected.r_bar, rtol=0, atol=1e-12)
        assert state.posterior_fresh is False

    def test_leaves_held_residual_alone(self, rng):
        design = make_design(seed=22)
        state = self._state(design, rng)
        held = state.r_bar
        before = held.copy()
        _coordinate_pass(state, design, dampening_weight(design.n, state.sigma2, state.sigma02))
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

    def test_autoregressive_reconstruction(self):
        design = make_design(seed=7, n=30, p=6)
        prior = AshPrior(n_components=5)
        state = init_state(design, FitConfig())
        sweep(state, design, prior)
        for _ in range(3):
            b_prev = state.b_bar.copy()
            omega_before = dampening_weight(design.n, state.sigma2, state.sigma02)
            beta_inputs = None

            class Recorder:
                kind = prior.kind
                side_kind = "none"

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
        assert update_sigma2(state, design) == 1e-12

    def test_sigma02_direct_formula(self):
        design, state = self._fresh_state()
        state.b_bar = state.beta_bar.copy()
        state.b_var = np.zeros(design.p)
        state.s_j2 = 0.37
        assert update_sigma02(state) == pytest.approx(0.37, rel=1e-12)

    def test_exact_cavi_maximizes_elbo_in_sigma2(self):
        design, state = self._fresh_state()
        optimum = update_sigma2(state, design)
        def elbo_at(sigma2):
            probe = copy.deepcopy(state)
            probe.sigma2 = sigma2
            return compute_elbo(probe, design)
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
            return elbo_terms(probe, design)[1]
        assert t2_at(optimum) > t2_at(optimum * 1.1)
        assert t2_at(optimum) > t2_at(optimum * 0.9)

    def test_doubling_sigma2_away_from_optimum_decreases_t1(self):
        design, state = self._fresh_state(seed=4)
        state.sigma2 = update_sigma2(state, design)
        t1_at_opt = elbo_terms(state, design)[0]
        probe = copy.deepcopy(state)
        probe.sigma2 = state.sigma2 * 2.0
        assert elbo_terms(probe, design)[0] < t1_at_opt


class TestElbo:
    def test_stale_state_detected(self):
        design = make_design()
        state = init_state(design, FitConfig())
        with pytest.raises(StaleStateError):
            compute_elbo(state, design)

    def test_invariant_to_covariate_reordering(self, rng):
        # the ELBO is symmetric in the coordinates: permuting the state and
        # design consistently must leave its value unchanged
        X, y, _ = random_regression(31, n=30, p=6)
        design = standardize(Dataset(y=y, X=X))
        prior = FixedMixturePrior(MixtureGrid(np.array([0.0, 0.2, 1.0])),
                                  MixtureWeights(np.array([0.4, 0.3, 0.3])))
        state = run_sweeps(design, prior, FitConfig(), 4, step=held_variance_sweep)
        baseline = compute_elbo(state, design)
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
        permuted.b_bar = state.b_bar[perm]
        permuted.b_var = state.b_var[perm]
        permuted.beta_mle = state.beta_mle[perm]
        permuted.log_marginal = state.log_marginal[perm]
        permuted.null_prob = state.null_prob[perm]
        assert compute_elbo(permuted, permuted_design) == pytest.approx(baseline, abs=1e-8)

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
        analytic = compute_elbo(state, design)

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
