"""Tests for the network priors: forward contracts, gradients, training behavior."""

import warnings

import numpy as np
import pytest

import nash
from conftest import finite_difference_gradient, fit_digest, gradient_relative_error, random_regression
from nash import nets
from nash.ash import (
    LOG_2PI,
    MixtureWeights,
    _responsibilities,
    fit_weights_em,
    marginal_loglik_matrix,
    mixture_objective,
)
from nash.errors import ConfigError, DimensionMismatchError, NonFiniteError
from nash.nets import (
    Adam,
    MdnPrior,
    MdnPriorNet,
    SoftmaxPrior,
    SoftmaxPriorNet,
    TrainConfig,
    mdn_posterior_stats,
    train_mdn,
    train_softmax,
)


def normal_pdf(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var)


def two_pass_reference(net, eval_obj, eval_grads, config):
    """Full-batch Adam that scores the parameters again after every step.

    The loop ``nets._train`` ran before it reused the objective returned with
    the gradients; returns the objective trace and restores the best
    parameters scored, as ``_train`` does.
    """
    opt = Adam(net.flat, config.learning_rate)
    history = [eval_obj()]
    best_obj, best_theta = history[0], net.get_flat()
    for _ in range(config.steps):
        _, grad = eval_grads()
        opt.step(net.flat, grad)
        history.append(eval_obj())
        if history[-1] > best_obj:
            best_obj, best_theta = history[-1], net.get_flat()
    net.set_flat(best_theta)
    return np.array(history)


# ---------------------------------------------------------------------------
# Row-wise reference: the nets' objectives as they were before rows were
# grouped, in log space on every row (kept here, independent of nash.nets)
# ---------------------------------------------------------------------------


def _reference_trunk(net, D):
    D = np.asarray(D, dtype=float)
    if not net.hidden:
        return D, D, None
    pre = D @ net.w1 + net.b1
    return D, np.maximum(pre, 0.0), pre


def _reference_gradients(D, h, pre, g_out, head_weights):
    grads = [g for g_z in g_out for g in (h.T @ g_z, g_z.sum(axis=0))]
    if pre is None:
        return grads
    g_h = g_out[0] @ head_weights[0].T
    for g_z, w in zip(g_out[1:], head_weights[1:]):
        g_h += g_z @ w.T
    g_h *= pre > 0
    return [D.T @ g_h, g_h.sum(axis=0)] + grads


def reference_softmax(net, D, log_lik):
    """Softmax objective and gradient list, row by row in log space."""
    D, h, pre = _reference_trunk(net, D)
    z = h @ net.w + net.b
    log_norm, pi = _responsibilities(z)
    log_marginal, gamma = _responsibilities(z - log_norm[:, None] + log_lik)
    return float(log_marginal.sum()), _reference_gradients(D, h, pre, [gamma - pi], [net.w])


def reference_mdn(net, D, beta_bar, sigma02):
    """MDN objective and gradient list, row by row in log space."""
    D, h, pre = _reference_trunk(net, D)
    z_pi = h @ net.w_pi + net.b_pi
    log_norm, pi = _responsibilities(z_pi)
    means = h @ net.w_mu + net.b_mu
    variances = np.exp(h @ net.w_var + net.b_var)
    c0 = -0.5 * (LOG_2PI + np.log(sigma02) + beta_bar**2 / sigma02)
    v = sigma02 + variances
    ck = -0.5 * (LOG_2PI + np.log(v) + (beta_bar[:, None] - means) ** 2 / v)
    log_marginal, gamma = _responsibilities(np.column_stack([c0, ck]) + z_pi - log_norm[:, None])
    gk = gamma[:, 1:]
    diff = beta_bar[:, None] - means
    g_mu = gk * diff / v
    g_lv = gk * (-0.5 / v + 0.5 * diff**2 / v**2) * variances
    return float(log_marginal.sum()), _reference_gradients(
        D, h, pre, [gamma - pi, g_mu, g_lv], [net.w_pi, net.w_mu, net.w_var])


def assert_matches_reference(got, expected, tol=1e-12):
    """Objective and every gradient entry within tol * (1 + |reference|)."""
    objective, grad = got
    ref_objective, ref_grads = expected
    ref_grad = np.concatenate([g.ravel() for g in ref_grads])
    assert abs(objective - ref_objective) <= tol * (1.0 + abs(ref_objective))
    assert grad.shape == ref_grad.shape
    assert np.all(np.abs(grad - ref_grad) <= tol * (1.0 + np.abs(ref_grad)))


def count_forward_calls(net):
    """Wrap the net's two objective methods; returns the dict of call counts."""
    counts = {"objective": 0, "objective_and_gradients": 0}
    for name in counts:
        method = getattr(net, name)

        def counted(*args, _name=name, _method=method):
            counts[_name] += 1
            return _method(*args)

        setattr(net, name, counted)
    return counts


class TestSoftmaxForward:
    def test_zero_parameters_give_uniform(self):
        net = SoftmaxPriorNet(3, 5, hidden=0, seed=0)
        net.set_flat(np.zeros(net.get_flat().size))
        out = net.forward(np.array([0.3, -1.0, 2.0]))
        np.testing.assert_allclose(out, np.full(5, 0.2), atol=1e-15)

    def test_bias_shift_invariance(self, rng):
        net = SoftmaxPriorNet(2, 4, hidden=0, seed=1)
        d = rng.standard_normal(2)
        before = net.forward(d)
        net.b += 3.7
        np.testing.assert_allclose(net.forward(d), before, atol=1e-12)

    def test_one_hot_rows_read_off_columns(self, rng):
        # depth-0 net on one-hot input: output is softmax of that group's
        # weight row plus bias, checked by direct matrix evaluation
        net = SoftmaxPriorNet(3, 4, hidden=0, seed=2)
        for g in range(3):
            d = np.zeros(3)
            d[g] = 1.0
            logits = net.w[g] + net.b
            expected = np.exp(logits - logits.max())
            expected /= expected.sum()
            np.testing.assert_allclose(net.forward(d), expected, rtol=1e-12)

    def test_simplex_for_arbitrary_parameters(self, rng):
        for hidden in (0, 6):
            net = SoftmaxPriorNet(4, 7, hidden=hidden, seed=3)
            net.set_flat(rng.normal(0, 5, size=net.get_flat().size))
            out = net.forward(rng.standard_normal((50, 4)))
            np.testing.assert_allclose(out.sum(axis=1), np.ones(50), atol=1e-12)
            assert np.all(out >= 0)

    def test_input_length_checked(self):
        net = SoftmaxPriorNet(3, 4)
        with pytest.raises(DimensionMismatchError):
            net.forward(np.ones(5))

    def test_parameter_names_keep_model_file_names(self):
        # model files name the output layer w/b alone and w2/b2 behind a hidden layer
        names = [name for name, _ in SoftmaxPriorNet(3, 4, hidden=0).named_parameters()]
        assert names == ["w", "b"]
        net = SoftmaxPriorNet(3, 4, hidden=5)
        assert [name for name, _ in net.named_parameters()] == ["w1", "b1", "w2", "b2"]
        assert [p.shape for p in net.parameters()] == [(3, 5), (5,), (5, 4), (4,)]


class TestSoftmaxGradients:
    @pytest.mark.parametrize("hidden", [0, 5])
    def test_matches_finite_differences(self, hidden):
        rng = np.random.default_rng(100 + hidden)
        p, k, m = 12, 3, 4
        D = rng.standard_normal((p, k))
        log_lik = rng.normal(0, 1.5, size=(p, m))
        net = SoftmaxPriorNet(k, m, hidden=hidden, seed=5)
        theta = net.get_flat()
        _, analytic = net.objective_and_gradients(D, log_lik)

        def objective(flat):
            net.set_flat(flat)
            value = net.objective(D, log_lik)
            net.set_flat(theta)
            return value

        numeric = finite_difference_gradient(objective, theta, h=1e-5)
        assert gradient_relative_error(analytic, numeric) < 1e-5


class TestSoftmaxTraining:
    def test_constant_side_info_matches_global_em(self):
        rng = np.random.default_rng(11)
        p, m = 60, 5
        log_lik = rng.normal(0, 1.5, size=(p, m))
        em = fit_weights_em(log_lik, MixtureWeights.uniform(m), max_iter=5000, tol=1e-13)
        em_objective = mixture_objective(log_lik, em.pi)
        net = SoftmaxPriorNet(1, m, hidden=0, seed=11)
        train_softmax(net, np.ones((p, 1)), log_lik,
                      TrainConfig(learning_rate=0.1, steps=2000, seed=11))
        assert abs(net.objective(np.ones((p, 1)), log_lik) - em_objective) < 1e-3

    def test_final_objective_never_below_initial(self, rng):
        p, m = 30, 4
        D = rng.standard_normal((p, 2))
        log_lik = rng.normal(0, 1, size=(p, m))
        net = SoftmaxPriorNet(2, m, hidden=4, seed=0)
        initial = net.objective(D, log_lik)
        history = train_softmax(net, D, log_lik, TrainConfig(steps=40, seed=0))
        assert history[0] == pytest.approx(initial)
        assert net.objective(D, log_lik) >= initial

    def test_dominant_column_attracts_group_weights(self):
        # group A rows strongly favor component 2; the fitted per-group
        # simplex should concentrate there
        rng = np.random.default_rng(21)
        p, m = 80, 4
        D = np.zeros((p, 2))
        D[:40, 0] = 1.0
        D[40:, 1] = 1.0
        log_lik = rng.normal(0, 0.1, size=(p, m))
        log_lik[:40, 2] += 4.0
        net = SoftmaxPriorNet(2, m, hidden=0, seed=21)
        train_softmax(net, D, log_lik, TrainConfig(learning_rate=0.1, steps=1500, seed=21))
        weights_a = net.forward(np.array([1.0, 0.0]))
        assert weights_a[2] > 0.9

    def test_per_group_weights_match_per_group_em(self):
        # one-hot groups with a depth-0 net behave like independent
        # per-group mixture fits, up to optimization tolerance
        rng = np.random.default_rng(31)
        p, m = 120, 4
        groups = np.repeat([0, 1, 2], 40)
        D = np.eye(3)[groups]
        log_lik = rng.normal(0, 1.0, size=(p, m))
        log_lik[groups == 0, 0] += 2.0
        log_lik[groups == 1, 3] += 1.0
        net = SoftmaxPriorNet(3, m, hidden=0, seed=31)
        train_softmax(net, D, log_lik, TrainConfig(learning_rate=0.1, steps=3000, seed=31))
        for g in range(3):
            em = fit_weights_em(log_lik[groups == g], MixtureWeights.uniform(m),
                                max_iter=5000, tol=1e-13)
            fitted = net.forward(np.eye(3)[g])
            tv_distance = 0.5 * np.abs(fitted - em.pi).sum()
            assert tv_distance < 1e-2


class TestTrainLoop:
    """``_train``: one forward pass per full-batch step, best parameters one step behind."""

    def _softmax_problem(self):
        rng = np.random.default_rng(41)
        p, m = 60, 6
        D = np.eye(3)[rng.integers(0, 3, p)]
        log_lik = rng.normal(0, 1.5, size=(p, m))
        return D, log_lik

    def test_softmax_history_matches_two_pass_reference(self):
        D, log_lik = self._softmax_problem()
        config = TrainConfig(learning_rate=0.05, steps=120, seed=0)
        net = SoftmaxPriorNet(3, 6, hidden=4, seed=1)
        reference = SoftmaxPriorNet(3, 6, hidden=4, seed=1)
        history = train_softmax(net, D, log_lik, config)
        expected = two_pass_reference(reference, lambda: reference.objective(D, log_lik),
                                      lambda: reference.objective_and_gradients(D, log_lik), config)
        assert history.shape == (config.steps + 1,)
        np.testing.assert_allclose(history, expected, rtol=0, atol=1e-10)
        np.testing.assert_allclose(net.get_flat(), reference.get_flat(), rtol=0, atol=1e-10)

    def test_mdn_history_matches_two_pass_reference(self):
        rng = np.random.default_rng(43)
        D = rng.standard_normal((40, 2))
        beta_bar = rng.normal(0, 1.5, 40)
        config = TrainConfig(learning_rate=0.05, steps=80, seed=0)
        net = MdnPriorNet(2, n_components=3, hidden=5, seed=2)
        reference = MdnPriorNet(2, n_components=3, hidden=5, seed=2)
        history = train_mdn(net, D, beta_bar, 0.3, config)
        expected = two_pass_reference(reference, lambda: reference.objective(D, beta_bar, 0.3),
                                      lambda: reference.objective_and_gradients(D, beta_bar, 0.3),
                                      config)
        np.testing.assert_allclose(history, expected, rtol=0, atol=1e-10)
        np.testing.assert_allclose(net.get_flat(), reference.get_flat(), rtol=0, atol=1e-10)

    def test_full_batch_runs_one_forward_per_step(self):
        D, log_lik = self._softmax_problem()
        net = SoftmaxPriorNet(3, 6, seed=0)
        counts = count_forward_calls(net)
        train_softmax(net, D, log_lik, TrainConfig(steps=25, seed=0))
        assert counts == {"objective": 1, "objective_and_gradients": 25}
        assert sum(counts.values()) == 25 + 1

    def test_mdn_full_batch_runs_one_forward_per_step(self, rng):
        net = MdnPriorNet(2, n_components=2, hidden=3, seed=0)
        counts = count_forward_calls(net)
        train_mdn(net, rng.standard_normal((20, 2)), rng.normal(0, 1, 20), 0.2,
                  TrainConfig(steps=15, seed=0))
        assert counts == {"objective": 1, "objective_and_gradients": 15}

    def test_minibatch_scores_once_per_epoch(self):
        # 5,000 rows, above the full-batch limit: minibatches of 1,024 give 5 steps per epoch
        rng = np.random.default_rng(42)
        D = np.eye(3)[rng.integers(0, 3, 5000)]
        log_lik = rng.normal(0, 1.5, size=(5000, 6))
        net = SoftmaxPriorNet(3, 6, seed=0)
        counts = count_forward_calls(net)
        history = train_softmax(net, D, log_lik, TrainConfig(steps=7, seed=0))
        epochs = 2  # 5 + 2 steps
        assert counts == {"objective": epochs + 1, "objective_and_gradients": 7}
        assert history.shape == (epochs + 1,)

    @pytest.mark.parametrize("learning_rate,steps,best_step", [(2.0, 2, 0), (1.0, 60, 58)])
    def test_restores_best_parameters_scored(self, learning_rate, steps, best_step):
        # learning rates large enough to overshoot: the kept parameters are
        # the best the trace saw (the start, or one before the last step),
        # never worse than the start
        D, log_lik = self._softmax_problem()
        net = SoftmaxPriorNet(3, 6, hidden=4, seed=3)
        initial = net.objective(D, log_lik)
        history = train_softmax(net, D, log_lik,
                                TrainConfig(learning_rate=learning_rate, steps=steps, seed=0))
        assert history[0] == initial
        assert int(np.argmax(history)) == best_step
        assert net.objective(D, log_lik) == history[best_step] >= initial


def feature_case(name):
    """Feature rows and coefficient estimates for the grouped-objective parity tests."""
    rng = np.random.default_rng(sorted(FEATURE_CASES).index(name))
    D = FEATURE_CASES[name](rng)
    return D, rng.normal(0.0, 1.5, len(D))


FEATURE_CASES = {
    # side-info shape: 500 rows, two one-hot groups, interleaved
    "one_hot_groups": lambda rng: np.eye(2)[rng.integers(0, 2, 500)],
    "duplicated_continuous": lambda rng: rng.standard_normal((40, 3))[rng.integers(0, 40, 200)],
    "distinct_continuous": lambda rng: rng.standard_normal((60, 3)),
    "single_row": lambda rng: rng.standard_normal((1, 3)),
    "above_full_batch": lambda rng: np.eye(3)[rng.integers(0, 3, nets.FULL_BATCH_ROWS + 904)],
}


def randomized(net, seed):
    """The seeded net (seed 0) or one with N(0, 1) parameters."""
    if seed:
        net.set_flat(np.random.default_rng(seed).normal(0.0, 1.0, net.flat.size))
    return net


class TestGroupedRows:
    """Objectives on distinct feature rows (softmax in likelihood space) against the row-wise reference."""

    @pytest.mark.parametrize("case", sorted(FEATURE_CASES))
    @pytest.mark.parametrize("hidden", [0, 8])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_softmax_matches_row_wise_reference(self, case, hidden, seed):
        D, beta_bar = feature_case(case)
        log_lik = marginal_loglik_matrix(beta_bar, 0.3, nash.ash.default_grid(beta_bar, 0.3, 20).variances)
        net = randomized(SoftmaxPriorNet(D.shape[1], 20, hidden=hidden, seed=3), seed)
        expected = reference_softmax(net, D, log_lik)
        assert_matches_reference(net.objective_and_gradients(D, log_lik), expected)
        assert abs(net.objective(D, log_lik) - expected[0]) <= 1e-12 * (1.0 + abs(expected[0]))

    @pytest.mark.parametrize("case", sorted(FEATURE_CASES))
    @pytest.mark.parametrize("hidden", [0, 16])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mdn_matches_row_wise_reference(self, case, hidden, seed):
        D, beta_bar = feature_case(case)
        net = randomized(MdnPriorNet(D.shape[1], n_components=5, hidden=hidden, seed=3), seed)
        expected = reference_mdn(net, D, beta_bar, 0.3)
        assert_matches_reference(net.objective_and_gradients(D, beta_bar, 0.3), expected)
        assert abs(net.objective(D, beta_bar, 0.3) - expected[0]) <= 1e-12 * (1.0 + abs(expected[0]))

    def test_single_feature_vector_is_one_row(self, rng):
        d, log_lik = rng.standard_normal(3), rng.normal(0.0, 1.0, 4)
        net = randomized(SoftmaxPriorNet(3, 4, hidden=2), 1)
        assert net.objective(d, log_lik) == net.objective(d[None], log_lik[None])
        mdn = randomized(MdnPriorNet(3, n_components=2, hidden=2), 1)
        assert mdn.objective(d, np.array([0.7]), 0.3) == mdn.objective(d[None], np.array([0.7]), 0.3)

    @pytest.mark.parametrize("kind", ["softmax", "mdn"])
    def test_minibatch_training_matches_row_wise_reference(self, kind):
        # the minibatch loop on the row-wise objective, minibatches drawn as _train draws them
        D, beta_bar = feature_case("above_full_batch")
        config = TrainConfig(learning_rate=0.05, steps=7, seed=4)
        if kind == "softmax":
            log_lik = marginal_loglik_matrix(beta_bar, 0.3, nash.ash.default_grid(beta_bar, 0.3, 6).variances)
            net, ref = (SoftmaxPriorNet(3, 6, hidden=4, seed=1) for _ in range(2))
            history = train_softmax(net, D, log_lik, config)
            evaluate = lambda idx: reference_softmax(ref, D[idx], log_lik[idx])
        else:
            net, ref = (MdnPriorNet(3, n_components=2, hidden=4, seed=1) for _ in range(2))
            history = train_mdn(net, D, beta_bar, 0.3, config)
            evaluate = lambda idx: reference_mdn(ref, D[idx], beta_bar[idx], 0.3)
        opt = Adam(ref.flat, config.learning_rate)
        rng = np.random.default_rng(config.seed)
        batches = -(-len(D) // nets.MINIBATCH)
        expected, thetas = [], []
        for step in range(config.steps):
            if step % batches == 0:
                expected.append(evaluate(slice(None))[0])
                thetas.append(ref.get_flat())
                perm = rng.permutation(len(D))
            lo = (step % batches) * nets.MINIBATCH
            opt.step(ref.flat, np.concatenate([g.ravel() for g in evaluate(perm[lo:lo + nets.MINIBATCH])[1]]))
        expected.append(evaluate(slice(None))[0])
        thetas.append(ref.get_flat())
        np.testing.assert_allclose(history, expected, rtol=1e-12, atol=0)
        np.testing.assert_allclose(net.get_flat(), thetas[int(np.argmax(expected))], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shifted", ["every_row", "group_0"])
    def test_underflowing_rows_match_log_space(self, shifted):
        # column 0 dominates the likelihood by e^800 while its weight is e^-900:
        # lik * pi underflows to 0 on the shifted rows, which take the log-space path
        rng = np.random.default_rng(13)
        D = np.eye(2)[np.arange(20) % 2]
        log_lik = rng.normal(0.0, 1.0, (20, 4))
        log_lik[slice(None) if shifted == "every_row" else slice(0, None, 2), 0] += 800.0
        net = SoftmaxPriorNet(2, 4, hidden=0, seed=0)
        net.b[:] = [-900.0, 0.0, 0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            objective, grad = net.objective_and_gradients(D, log_lik)
            alone = net.objective(D, log_lik)
        ref_objective, ref_grads = reference_softmax(net, D, log_lik)
        assert np.isfinite(objective) and np.isfinite(grad).all()
        assert objective == alone == pytest.approx(ref_objective, rel=1e-12, abs=0)
        np.testing.assert_allclose(grad, np.concatenate([g.ravel() for g in ref_grads]), rtol=1e-12, atol=0)

    def test_grouping_runs_once_per_training_call(self, monkeypatch):
        calls = {"unique": 0, "rows": 0}
        unique = np.unique

        def counted_unique(*args, **kwargs):
            calls["unique"] += 1
            return unique(*args, **kwargs)

        class CountedRows(nets._Rows):
            def __init__(self, *args):
                calls["rows"] += 1
                super().__init__(*args)

        monkeypatch.setattr(np, "unique", counted_unique)
        monkeypatch.setattr(nets, "_Rows", CountedRows)
        D, beta_bar = feature_case("one_hot_groups")
        log_lik = marginal_loglik_matrix(beta_bar, 0.3, nash.ash.default_grid(beta_bar, 0.3, 6).variances)
        train_softmax(SoftmaxPriorNet(2, 6, seed=0), D, log_lik, TrainConfig(steps=25, seed=0))
        assert calls == {"unique": 1, "rows": 1}
        calls.update(unique=0, rows=0)
        train_mdn(MdnPriorNet(2, n_components=2, hidden=3, seed=0), D, beta_bar, 0.3,
                  TrainConfig(steps=15, seed=0))
        assert calls == {"unique": 1, "rows": 1}


class TestRowCounts:
    """Feature rows and row data that disagree in length are rejected before grouping."""

    def test_train_softmax_rejects_mismatched_log_lik(self, rng):
        with pytest.raises(DimensionMismatchError):
            train_softmax(SoftmaxPriorNet(2, 3), np.eye(2)[np.arange(10) % 2],
                          rng.normal(0, 1, (12, 3)), TrainConfig(steps=2))

    def test_train_mdn_rejects_mismatched_beta_bar(self, rng):
        with pytest.raises(DimensionMismatchError):
            train_mdn(MdnPriorNet(2, n_components=2, hidden=3), np.eye(2)[np.arange(10) % 2],
                      rng.normal(0, 1, 12), 0.3, TrainConfig(steps=2))

    def test_fit_rejects_softmax_features_with_too_few_rows(self):
        X, y, _ = random_regression(4, n=30, p=6)
        prior = SoftmaxPrior(np.eye(2)[np.arange(5) % 2], n_components=3,
                             train_config=TrainConfig(steps=2, seed=0))
        with pytest.raises(DimensionMismatchError):
            nash.fit(nash.Dataset(y=y, X=X), nash.SideInfo.from_features(np.eye(2)[np.arange(6) % 2]),
                     prior, nash.FitConfig(max_sweeps=2))


class TestTrainConfig:
    @pytest.mark.parametrize("learning_rate", [0.0, -1e-3, np.nan, np.inf])
    def test_learning_rate_not_positive_and_finite_rejected(self, learning_rate):
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(learning_rate=learning_rate)

    @pytest.mark.parametrize("field", ["steps", "later_steps"])
    def test_step_counts_below_one_rejected(self, field):
        with pytest.raises(ConfigError):
            TrainConfig(**{field: 0})

    def test_fewer_than_two_softmax_components_rejected(self, rng):
        with pytest.raises(ConfigError):
            SoftmaxPrior(rng.standard_normal((5, 2)), n_components=1)

    def test_negative_hidden_width_rejected(self, rng):
        with pytest.raises(ConfigError):
            SoftmaxPrior(rng.standard_normal((5, 2)), hidden=-1)
        with pytest.raises(ConfigError):
            MdnPrior(rng.standard_normal((5, 2)), hidden=-1)

    def test_mdn_without_gaussian_component_rejected(self, rng):
        with pytest.raises(ConfigError):
            MdnPrior(rng.standard_normal((5, 2)), n_components=0)


class TestMdnForward:
    def test_zero_parameters_give_neutral_heads(self):
        net = MdnPriorNet(3, n_components=4, hidden=6, seed=0)
        net.set_flat(np.zeros(net.get_flat().size))
        weights, means, variances = net.forward(np.array([1.0, -2.0, 0.5]))
        np.testing.assert_allclose(weights, np.full(5, 0.2), atol=1e-15)
        np.testing.assert_array_equal(means, np.zeros(4))
        np.testing.assert_array_equal(variances, np.ones(4))

    def test_deterministic(self, rng):
        net = MdnPriorNet(2, n_components=3, hidden=4, seed=9)
        d = rng.standard_normal(2)
        first = net.forward(d)
        second = net.forward(d)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_simplex_under_random_inputs(self, rng):
        net = MdnPriorNet(3, n_components=5, hidden=8, seed=2)
        net.set_flat(rng.normal(0, 3, size=net.get_flat().size))
        weights, _, variances = net.forward(rng.standard_normal((1000, 3)))
        np.testing.assert_allclose(weights.sum(axis=1), np.ones(1000), atol=1e-12)
        assert np.all(variances > 0)

    def test_input_length_checked(self):
        net = MdnPriorNet(3, n_components=2, hidden=4)
        with pytest.raises(DimensionMismatchError):
            net.forward(np.ones((2, 5)))

    def test_zero_hidden_round_trips_through_flat_vector(self, rng):
        net = MdnPriorNet(3, n_components=2, hidden=0, seed=4)
        assert [name for name, _ in net.named_parameters()] == [
            "w_pi", "b_pi", "w_mu", "b_mu", "w_var", "b_var"]
        theta = rng.standard_normal(net.get_flat().size)
        assert theta.size == (3 + 1) * (3 + 2 + 2)
        net.set_flat(theta)
        np.testing.assert_array_equal(net.get_flat(), theta)
        np.testing.assert_array_equal(net.w_pi, theta[:9].reshape(3, 3))
        for wrong in (theta[:-1], np.append(theta, 1.0)):
            with pytest.raises(DimensionMismatchError):
                net.set_flat(wrong)
        np.testing.assert_array_equal(net.get_flat(), theta)  # untouched by a rejected vector


class TestMdnPosterior:
    def test_vanishing_component_variance_pins_mean(self):
        stats = mdn_posterior_stats(np.array([0.3]), 1.0, np.array([0.0, 1.0]), np.array([2.0]),
                                    np.array([0.0]))
        assert stats.mean[0] == pytest.approx(2.0)
        assert stats.variance[0] == pytest.approx(0.0, abs=1e-15)

    def test_observation_at_component_mean_is_fixed(self):
        stats = mdn_posterior_stats(np.array([2.0]), 0.7, np.array([0.0, 1.0]), np.array([2.0]),
                                    np.array([0.5]))
        assert stats.mean[0] == pytest.approx(2.0, rel=1e-12)

    def test_matches_dense_grid_oracle(self):
        # two off-center components; oracle integrates the exact posterior
        beta, sigma02 = 0.5, 1.0
        weights = np.array([0.0, 0.5, 0.5])
        means = np.array([-1.0, 2.0])
        variances = np.array([0.5, 0.5])
        grid = np.linspace(-12, 12, 400_001)
        prior = 0.5 * normal_pdf(grid, -1.0, 0.5) + 0.5 * normal_pdf(grid, 2.0, 0.5)
        joint = normal_pdf(beta, grid, sigma02) * prior
        total = np.trapezoid(joint, grid)
        oracle_mean = np.trapezoid(grid * joint, grid) / total
        oracle_second = np.trapezoid(grid**2 * joint, grid) / total
        stats = mdn_posterior_stats(np.array([beta]), sigma02, weights, means, variances)
        assert stats.mean[0] == pytest.approx(oracle_mean, abs=1e-6)
        assert stats.variance[0] == pytest.approx(oracle_second - oracle_mean**2, abs=1e-6)
        assert stats.log_marginal[0] == pytest.approx(np.log(total), abs=1e-6)

    def test_null_probability_from_point_mass(self):
        stats = mdn_posterior_stats(np.array([0.0]), 1.0, np.array([0.5, 0.5]), np.array([3.0]),
                                    np.array([0.25]))
        w0 = 0.5 * normal_pdf(0.0, 0.0, 1.0)
        w1 = 0.5 * normal_pdf(0.0, 3.0, 1.25)
        assert stats.null_prob[0] == pytest.approx(w0 / (w0 + w1), rel=1e-10)


class TestMdnGradients:
    @pytest.mark.parametrize("hidden", [0, 6])
    def test_matches_finite_differences(self, hidden):
        rng = np.random.default_rng(200 + hidden)
        p, k = 10, 3
        D = rng.standard_normal((p, k))
        beta_bar = rng.normal(0, 1.5, size=p)
        sigma02 = 0.4
        net = MdnPriorNet(k, n_components=3, hidden=hidden, seed=7)
        theta = net.get_flat()
        _, analytic = net.objective_and_gradients(D, beta_bar, sigma02)

        def objective(flat):
            net.set_flat(flat)
            value = net.objective(D, beta_bar, sigma02)
            net.set_flat(theta)
            return value

        numeric = finite_difference_gradient(objective, theta, h=1e-5)
        assert gradient_relative_error(analytic, numeric) < 1e-5


class TestMdnTraining:
    def _grouped_problem(self, seed):
        rng = np.random.default_rng(seed)
        p = 120
        D = np.zeros((p, 2))
        D[:60, 0] = 1.0
        D[60:, 1] = 1.0
        b_true = np.where(np.arange(p) < 60, rng.normal(2.0, 0.3, p), rng.normal(-1.0, 0.3, p))
        sigma02 = 0.05
        beta_bar = b_true + rng.normal(0.0, np.sqrt(sigma02), p)
        return D, beta_bar, sigma02

    def test_group_dependent_means_recovered(self):
        D, beta_bar, sigma02 = self._grouped_problem(0)
        net = MdnPriorNet(2, n_components=2, hidden=8, seed=0)
        train_mdn(net, D, beta_bar, sigma02, TrainConfig(learning_rate=5e-3, steps=2500, seed=0))
        weights, means, _ = net.forward(D)
        prior_mean = (weights[:, 1:] * means).sum(axis=1)
        gap = prior_mean[:60].mean() - prior_mean[60:].mean()
        assert abs(gap - 3.0) / 3.0 < 0.2

    def test_objective_windows_non_decreasing_at_default_rate(self):
        D, beta_bar, sigma02 = self._grouped_problem(1)
        net = MdnPriorNet(2, n_components=2, hidden=8, seed=1)
        history = train_mdn(net, D, beta_bar, sigma02, TrainConfig(steps=800, seed=1))
        last = len(history) - 1
        for t in range(last):
            assert history[min(t + 50, last)] >= history[t] - 1e-9

    def test_final_objective_never_below_initial(self, rng):
        D = rng.standard_normal((25, 2))
        beta_bar = rng.normal(0, 1, 25)
        net = MdnPriorNet(2, n_components=3, hidden=4, seed=3)
        initial = net.objective(D, beta_bar, 0.3)
        train_mdn(net, D, beta_bar, 0.3, TrainConfig(steps=30, seed=3))
        assert net.objective(D, beta_bar, 0.3) >= initial


class TestEngineAdapters:
    def test_softmax_prior_tracks_last_weights(self, rng):
        D = rng.standard_normal((15, 2))
        prior = SoftmaxPrior(D, n_components=5, train_config=TrainConfig(steps=20, seed=0))
        assert prior.prior_null_mass() is None
        stats = prior.update(rng.normal(0, 1, 15), 0.5)
        assert stats.mean.shape == (15,)
        assert prior.prior_null_mass().shape == (15,)
        doc = prior.params_dict()
        assert doc["architecture"]["type"] == "softmax"
        assert "variances" in doc

    def test_mdn_prior_update_shapes(self, rng):
        D = rng.standard_normal((12, 3))
        prior = MdnPrior(D, n_components=2, hidden=4,
                         train_config=TrainConfig(steps=20, seed=1))
        stats = prior.update(rng.normal(0, 1, 12), 0.4)
        assert stats.mean.shape == (12,)
        assert np.all(stats.null_prob >= 0) and np.all(stats.null_prob <= 1)
        arrays = prior.params_dict()["arrays"]
        assert set(arrays) == {"w1", "b1", "w_pi", "b_pi", "w_mu", "b_mu", "w_var", "b_var"}


class TestTracerContract:
    """The benchmark tracer patches nets by name; moving a patched name must fail here."""

    @pytest.mark.parametrize("prior_cls", [SoftmaxPrior, MdnPrior])
    def test_training_is_traced(self, spans, prior_cls):
        X, y, _ = random_regression(3, n=30, p=6)
        D = np.eye(2)[np.arange(6) % 2]
        prior = prior_cls(D, n_components=3, hidden=2,
                          train_config=TrainConfig(steps=5, later_steps=2, seed=0))
        with spans.instrument(spans.Tracer()) as tracer:
            nash.fit(nash.Dataset(y=y, X=X), nash.SideInfo.from_features(D), prior,
                     nash.FitConfig(max_sweeps=3))
        sweeps = tracer.counts["engine.sweeps"]
        assert tracer.counts["nets.adam_steps"] == 5 + 2 * (sweeps - 1)
        assert tracer.counts["nets.forward"] == tracer.counts["nets.adam_steps"] + sweeps
        assert sum(s.name == "nets.train" for s in tracer.spans) == sweeps
        # all three mixture priors share ash's posterior; the MDN's runs inside its own span
        ash_spans = [s for s in tracer.spans if s.name == "ash.posterior"]
        nets_ids = sorted(s.id for s in tracer.spans if s.name == "nets.posterior")
        assert len(ash_spans) == sweeps
        if prior_cls is SoftmaxPrior:
            assert nets_ids == []
        else:
            assert len(nets_ids) == sweeps
            assert sorted(s.parent for s in ash_spans) == nets_ids
        assert nets.train_softmax.__name__ == "train_softmax"  # originals restored
        assert "__wrapped__" not in vars(nets.Adam.step)


# ---------------------------------------------------------------------------
# Row-major reference: the grouped rows, objectives and Adam step as they were
# before the objectives went component-major (verbatim but for the class names)
# ---------------------------------------------------------------------------


class ParentRows:
    """Objective inputs grouped by feature row, from ``np.unique(D, axis=0)``.

    ``data`` is ``source`` in group order, ``features`` one row per group, ``const`` the other
    arguments.  ``spread`` gathers per-group arrays onto rows and ``sum`` adds rows per group;
    when every row is distinct nothing is reordered and both are the identity.
    """

    def __init__(self, unique: np.ndarray, inverse: np.ndarray, source: list, const: tuple = ()):
        self.unique, self.inverse, self.source, self.const = unique, inverse, source, const
        order = np.argsort(inverse, kind="stable")
        labels = inverse[order]
        first = np.r_[True, labels[1:] != labels[:-1]]
        if first.all():
            self.features, self.data, self.starts = unique[inverse], source, None
            self.group, self.counts = np.arange(len(inverse)), np.ones(len(inverse))
        else:
            self.starts = np.flatnonzero(first)
            self.features = unique[labels[self.starts]]
            self.data = [a[order] for a in source]
            self.group = np.cumsum(first) - 1
            self.counts = np.diff(np.r_[self.starts, len(labels)])

    def take(self, idx: np.ndarray) -> "ParentRows":
        """The rows ``idx`` of ``source``, grouped without another ``np.unique``."""
        return ParentRows(self.unique, self.inverse[idx], [a[idx] for a in self.source], self.const)

    def spread(self, a: np.ndarray) -> np.ndarray:
        return a if self.starts is None else a[self.group]

    def sum(self, a: np.ndarray) -> np.ndarray:
        return a if self.starts is None else np.add.reduceat(a, self.starts, axis=0)


class ParentGrouping:
    """The grouping half of the reference nets: a ``ParentRows`` per training call."""

    def _group(self, D: np.ndarray, data: list, const: tuple = ()) -> ParentRows:
        """Group the row-aligned ``data`` by the feature rows ``D``, once."""
        D = self._features(D)
        if any(len(a) != len(D) for a in data):
            raise DimensionMismatchError(f"{len(D)} feature rows, row data of {[len(a) for a in data]}")
        return ParentRows(*np.unique(D, axis=0, return_inverse=True), data, const)

    def _as_rows(self, D, *args) -> ParentRows:
        return D if isinstance(D, ParentRows) else self._rows(D, *args)


class ParentSoftmaxNet(ParentGrouping, SoftmaxPriorNet):
    def _rows(self, D: np.ndarray, log_lik: np.ndarray) -> ParentRows:
        log_lik = np.atleast_2d(np.asarray(log_lik, dtype=float))
        rowmax = log_lik.max(axis=1)
        return self._group(D, [np.exp(log_lik - rowmax[:, None]), log_lik, rowmax])

    def _evaluate(self, rows: ParentRows, gradients: bool):
        h, pre = self._trunk(rows.features)
        z = h @ self.w + self.b
        log_norm, pi = _responsibilities(z)
        lik, log_lik, rowmax = rows.data
        s = np.einsum("jm,jm->j", lik, rows.spread(pi))
        low = np.flatnonzero(s < nets.UNDERFLOW)
        s[low] = np.inf  # their lik / s is 0; their log s and responsibilities come below
        log_s = np.log(s)
        g_z = -rows.counts[:, None] * pi
        if low.size:
            g_low = rows.group[low]
            log_marginal, gamma_low = _responsibilities((z - log_norm[:, None])[g_low] + log_lik[low])
            log_s[low] = log_marginal - rowmax[low]
            np.add.at(g_z, g_low, gamma_low)
        objective = float(log_s.sum() + rowmax.sum())
        if not gradients:
            return objective, None
        g_z += pi * rows.sum(lik / s[:, None])
        return objective, self._gradients(rows.features, h, pre, [g_z])


class ParentMdnNet(ParentGrouping, MdnPriorNet):
    def _rows(self, D: np.ndarray, beta_bar: np.ndarray, sigma02: float) -> ParentRows:
        beta_bar = np.asarray(beta_bar, dtype=float)
        null_logdens = marginal_loglik_matrix(beta_bar, sigma02, 0.0)[:, 0]
        return self._group(D, [beta_bar, null_logdens], (sigma02,))

    def _evaluate(self, rows: ParentRows, gradients: bool):
        h, pre = self._trunk(rows.features)
        z_pi = h @ self.w_pi + self.b_pi
        log_norm, pi = _responsibilities(z_pi)
        means = h @ self.w_mu + self.b_mu
        variances = np.exp(h @ self.w_var + self.b_var)
        beta_bar, null_logdens = rows.data
        v = rows.const[0] + variances
        inv_v = 1.0 / v
        log_w = z_pi - log_norm[:, None]
        log_w[:, 1:] -= 0.5 * (LOG_2PI + np.log(v))
        a = rows.spread(log_w)  # log_w itself when every row is its own group
        d = beta_bar[:, None] - rows.spread(means)
        q = d * d * rows.spread(inv_v)
        a[:, 0] += null_logdens
        a[:, 1:] -= 0.5 * q
        log_marginal, gamma = _responsibilities(a)
        objective = float(log_marginal.sum())
        if not gradients:
            return objective, None
        gk = gamma[:, 1:]
        g_gamma = rows.sum(gamma)
        g_pi = g_gamma - rows.counts[:, None] * pi
        g_mu = rows.sum(gk * d) * inv_v
        g_lv = 0.5 * variances * inv_v * (rows.sum(gk * q) - g_gamma[:, 1:])
        return objective, self._gradients(rows.features, h, pre, [g_pi, g_mu, g_lv])


class ParentAdam:
    """Adam ascent on one flat parameter vector (updated in place)."""

    def __init__(self, theta: np.ndarray, lr: float):
        self.lr, self.t = lr, 0
        self.m, self.v = np.zeros_like(theta), np.zeros_like(theta)

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        b1c = 1.0 - nets.BETA1**self.t
        b2c = 1.0 - nets.BETA2**self.t
        self.m *= nets.BETA1
        self.m += (1.0 - nets.BETA1) * grad
        self.v *= nets.BETA2
        self.v += (1.0 - nets.BETA2) * grad * grad
        theta += self.lr * (self.m / b1c) / (np.sqrt(self.v / b2c) + nets.EPS)


class ParentSoftmaxPrior(SoftmaxPrior):
    net_type = ParentSoftmaxNet

    def update(self, beta_bar: np.ndarray, sigma02: float):
        if self.grid is None:
            self.grid = nash.ash.default_grid(beta_bar, sigma02, self.n_components)
        log_lik = marginal_loglik_matrix(beta_bar, sigma02, self.grid.variances)
        train_softmax(self.net, self.D, log_lik, self.train_config, steps=self._steps())
        self._last_weights = self.net.forward(self.D)
        return nash.ash.mixture_posterior_stats(beta_bar, sigma02, log_lik, self._last_weights,
                                                self.grid.variances)


class ParentMdnPrior(MdnPrior):
    net_type = ParentMdnNet

    def update(self, beta_bar: np.ndarray, sigma02: float):
        train_mdn(self.net, self.D, beta_bar, sigma02, self.train_config, steps=self._steps())
        self._last_weights, means, variances = self.net.forward(self.D)
        return mdn_posterior_stats(beta_bar, sigma02, self._last_weights, means, variances)


def assert_bit_identical(got, expected):
    assert got[0] == expected[0]
    np.testing.assert_array_equal(got[1], expected[1])


def softmax_pair(n_features, hidden, seed, n_components=20):
    """A seeded (or randomized) net and its row-major reference with the same parameters."""
    net = randomized(SoftmaxPriorNet(n_features, n_components, hidden=hidden, seed=3), seed)
    ref = ParentSoftmaxNet(n_features, n_components, hidden=hidden, seed=3)
    ref.set_flat(net.flat)
    return net, ref


def mdn_pair(n_features, n_components, hidden, seed):
    net = randomized(MdnPriorNet(n_features, n_components=n_components, hidden=hidden, seed=3), seed)
    ref = ParentMdnNet(n_features, n_components=n_components, hidden=hidden, seed=3)
    ref.set_flat(net.flat)
    return net, ref


class TestRowMajorParity:
    """Component-major objectives, the in-place Adam step and the per-prior grouping give
    the row-major reference's numbers bit for bit."""

    @pytest.mark.parametrize("case", sorted(FEATURE_CASES))
    @pytest.mark.parametrize("hidden", [0, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_softmax_objective_and_gradient(self, case, hidden, seed):
        D, beta_bar = feature_case(case)
        log_lik = marginal_loglik_matrix(beta_bar, 0.3, nash.ash.default_grid(beta_bar, 0.3, 20).variances)
        net, ref = softmax_pair(D.shape[1], hidden, seed)
        assert_bit_identical(net.objective_and_gradients(D, log_lik), ref.objective_and_gradients(D, log_lik))
        assert net.objective(D, log_lik) == ref.objective(D, log_lik)

    @pytest.mark.parametrize("case", sorted(FEATURE_CASES))
    @pytest.mark.parametrize("n_components", [5, 7])  # 6 and 8 entries per row: numpy adds 8 pairwise
    @pytest.mark.parametrize("hidden", [0, 16])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mdn_objective_and_gradient(self, case, n_components, hidden, seed):
        D, beta_bar = feature_case(case)
        net, ref = mdn_pair(D.shape[1], n_components, hidden, seed)
        assert_bit_identical(net.objective_and_gradients(D, beta_bar, 0.3),
                             ref.objective_and_gradients(D, beta_bar, 0.3))
        assert net.objective(D, beta_bar, 0.3) == ref.objective(D, beta_bar, 0.3)

    @pytest.mark.parametrize("shifted", ["every_row", "group_0"])
    def test_underflowing_rows(self, shifted):
        rng = np.random.default_rng(13)
        D = np.eye(2)[np.arange(20) % 2]
        log_lik = rng.normal(0.0, 1.0, (20, 4))
        log_lik[slice(None) if shifted == "every_row" else slice(0, None, 2), 0] += 800.0
        net, ref = softmax_pair(2, 0, 0, n_components=4)
        for each in (net, ref):
            each.b[:] = [-900.0, 0.0, 0.0, 0.0]
        assert_bit_identical(net.objective_and_gradients(D, log_lik), ref.objective_and_gradients(D, log_lik))

    def test_adam_step(self):
        rng = np.random.default_rng(7)
        theta = rng.normal(0.0, 1.0, 40)
        ref_theta = theta.copy()
        opt, ref = Adam(theta, 0.01), ParentAdam(ref_theta, 0.01)
        for _ in range(300):
            grad = rng.normal(0.0, 10.0, 40) * rng.choice([0.0, 1e-9, 1.0, 1e6], 40)
            kept = grad.copy()
            opt.step(theta, grad)
            ref.step(ref_theta, grad)
            np.testing.assert_array_equal(grad, kept)
        for got, expected in ((theta, ref_theta), (opt.m, ref.m), (opt.v, ref.v)):
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("case", ["one_hot_groups", "duplicated_continuous", "distinct_continuous",
                                      "above_full_batch"])
    @pytest.mark.parametrize("kind", ["softmax", "mdn5", "mdn7"])
    def test_training(self, case, kind, monkeypatch):
        # above_full_batch takes the minibatch path
        D, beta_bar = feature_case(case)
        config = TrainConfig(learning_rate=0.05, steps=12, seed=4)
        if kind == "softmax":
            log_lik = marginal_loglik_matrix(beta_bar, 0.3, nash.ash.default_grid(beta_bar, 0.3, 20).variances)
            net, ref = softmax_pair(D.shape[1], 3, 0)
            train = lambda each: train_softmax(each, D, log_lik, config)
        else:
            net, ref = mdn_pair(D.shape[1], int(kind[3:]), 16, 0)
            train = lambda each: train_mdn(each, D, beta_bar, 0.3, config)
        history = train(net)
        monkeypatch.setattr(nets, "Adam", ParentAdam)
        np.testing.assert_array_equal(history, train(ref))
        np.testing.assert_array_equal(net.flat, ref.flat)

    @pytest.mark.parametrize("features", ["one_hot", "duplicated_continuous"])
    @pytest.mark.parametrize("family", ["softmax_depth_0", "softmax_hidden_3", "mdn"])
    def test_fit_digest(self, features, family, monkeypatch):
        X, y, _ = random_regression(5, n=60, p=40)
        rng = np.random.default_rng(6)
        if features == "one_hot":
            D = np.eye(2)[np.arange(40) % 2]
        else:
            D = rng.standard_normal((7, 3))[rng.integers(0, 7, 40)]
        config = TrainConfig(learning_rate=0.01, steps=40, later_steps=5, seed=1)
        make = {
            "softmax_depth_0": lambda cls: cls(D, n_components=6, train_config=config),
            "softmax_hidden_3": lambda cls: cls(D, n_components=6, hidden=3, train_config=config),
            "mdn": lambda cls: cls(D, train_config=config),
        }[family]
        softmax = family.startswith("softmax")
        new_cls, ref_cls = (SoftmaxPrior, ParentSoftmaxPrior) if softmax else (MdnPrior, ParentMdnPrior)
        data, fit_config = nash.Dataset(y=y, X=X), nash.FitConfig(max_sweeps=15, elbo_tol=1e-300)
        result = nash.fit(data, nash.SideInfo.from_features(D), make(new_cls), fit_config)
        monkeypatch.setattr(nets, "Adam", ParentAdam)
        expected = nash.fit(data, nash.SideInfo.from_features(D), make(ref_cls), fit_config)
        assert result.sweeps == 15
        assert fit_digest(result) == fit_digest(expected)

    @pytest.mark.parametrize("prior_cls", [SoftmaxPrior, MdnPrior])
    def test_grouping_runs_once_per_network_fit(self, prior_cls, monkeypatch):
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *args, **kwargs: calls.append(1) or unique(*args, **kwargs))
        X, y, _ = random_regression(4, n=30, p=12)
        D = np.eye(3)[np.arange(12) % 3]
        prior = prior_cls(D, n_components=3, train_config=TrainConfig(steps=5, later_steps=2, seed=0))
        result = nash.fit(nash.Dataset(y=y, X=X), nash.SideInfo.from_features(D), prior,
                          nash.FitConfig(max_sweeps=4, elbo_tol=1e-300))
        assert result.sweeps == 4
        assert len(calls) == 1


class TestPriorFeatures:
    """Network priors take the features side information takes: a finite 2-d matrix."""

    @pytest.mark.parametrize("prior_cls", [SoftmaxPrior, MdnPrior])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, prior_cls, value, rng):
        D = rng.standard_normal((6, 2))
        D[3, 1] = value
        with pytest.raises(NonFiniteError, match="non-finite side-information entries"):
            prior_cls(D)

    @pytest.mark.parametrize("prior_cls", [SoftmaxPrior, MdnPrior])
    @pytest.mark.parametrize("shape", [(6,), (6, 2, 1)])
    def test_features_not_a_matrix_rejected(self, prior_cls, shape, rng):
        with pytest.raises(DimensionMismatchError, match="must form a 2-d matrix"):
            prior_cls(rng.standard_normal(shape))

    @pytest.mark.parametrize("prior_cls", [SoftmaxPrior, MdnPrior])
    def test_zero_column_features_rejected(self, prior_cls):
        # a network without inputs would draw its first weights with sd 1/sqrt(0)
        with pytest.raises(DimensionMismatchError, match="need at least one column"):
            prior_cls(np.zeros((6, 0)))
