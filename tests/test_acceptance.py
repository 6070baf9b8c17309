"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``
to see them live); the assertions carry the same thresholds.
"""

import time

import numpy as np
import pytest

from conftest import (
    finite_difference_gradient,
    gradient_relative_error,
    piecewise_image,
    simplex_grid_best,
)
from nash.ash import (
    AshPrior,
    MixtureGrid,
    MixtureWeights,
    fit_weights_em,
    marginal_loglik_matrix,
    mixture_objective,
    mixture_posterior_stats,
)
from nash.cli import main
from nash.data import Dataset, SideInfo
from nash.engine import FitConfig, fit, predict
from nash.fused import DenoiseConfig, FusedScales, denoise_image, fused_posterior_stats, fused_log_density, rmse
from nash.nets import MdnPriorNet, SoftmaxPrior, SoftmaxPriorNet, TrainConfig, train_softmax
from nash.simulate import SimulationConfig, ash_fitter, scaled_pred_perf, simulate_dataset


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{criterion} {'PASS' if ok else 'FAIL'}: {detail}")


def normal_pdf(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var)


def test_a1_elbo_monotonicity():
    started = time.monotonic()
    rng = np.random.default_rng(20240801)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(30, 101))
        p = int(rng.integers(5, 51))
        s = int(rng.integers(1, max(2, p // 2)))
        X = rng.standard_normal((n, p))
        b = np.zeros(p)
        b[rng.choice(p, size=s, replace=False)] = rng.standard_normal(s)
        y = X @ b + rng.standard_normal(n)
        result = fit(Dataset(y=y, X=X), SideInfo.none(), AshPrior(n_components=10), FitConfig())
        drops = -np.diff(result.elbo_trace)
        if drops.size:
            worst = max(worst, float(drops.max()))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-8 and elapsed < 30.0
    report("A1", ok, f"worst per-sweep ELBO decrease {worst:.2e} (limit 1e-8), "
                     f"50 instances in {elapsed:.1f}s (limit 30s)")
    assert worst <= 1e-8
    assert elapsed < 30.0


def _mixture_oracle(beta_bar, sigma02, variances, weights, points=100_000):
    width = 10.0 * np.sqrt(sigma02 + variances.max()) + abs(beta_bar)
    grid = np.linspace(-width, width, points)
    density = np.zeros_like(grid)
    for var, weight in zip(variances[1:], weights[1:]):
        if weight > 0:
            density += weight * normal_pdf(grid, 0.0, var)
    joint = normal_pdf(beta_bar, grid, sigma02) * density
    cont = np.trapezoid(joint, grid)
    point = weights[0] * normal_pdf(beta_bar, 0.0, sigma02)
    total = point + cont
    mean = np.trapezoid(grid * joint, grid) / total
    second = np.trapezoid(grid**2 * joint, grid) / total
    return mean, second - mean**2, point / total


def test_a2_posterior_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(20240802)
    worst_mixture = 0.0
    cases = 0
    while cases < 100:
        m = int(rng.integers(2, 7))
        variances = np.concatenate(([0.0], np.sort(rng.uniform(0.01, 4.0, m - 1))))
        if np.any(np.diff(variances) <= 0):
            continue
        cases += 1
        pi = rng.dirichlet(np.ones(m))
        beta = float(rng.normal(0, 2))
        sigma02 = float(rng.uniform(0.05, 2.0))
        grid = MixtureGrid(variances)
        stats = mixture_posterior_stats(np.array([beta]), sigma02,
                                        marginal_loglik_matrix(np.array([beta]), sigma02, grid.variances),
                                        MixtureWeights(pi).pi, grid.variances)
        mean, variance, null_prob = _mixture_oracle(beta, sigma02, variances, pi)
        scale = max(abs(mean), np.sqrt(variance))
        worst_mixture = max(
            worst_mixture,
            abs(stats.mean[0] - mean) / scale,
            abs(stats.variance[0] - variance) / variance,
            abs(stats.null_prob[0] - null_prob) / max(null_prob, 1e-12),
        )

    worst_fused = 0.0
    for _ in range(200):
        beta = float(rng.normal(0, 2))
        sigma02 = float(rng.uniform(0.01, 2.0))
        scales = FusedScales(float(rng.uniform(0.05, 3.0)), float(rng.uniform(0.05, 3.0)))
        left, right = rng.normal(0, 2, 2)
        stats = fused_posterior_stats(np.array([beta]), sigma02,
                                      np.array([[left, right]]), scales)
        # the window spans observation and prior centers by ten combined sds
        spread = 10.0 * (np.sqrt(sigma02) + scales.s1 + scales.s2)
        lo = min(beta, left, right, 0.0) - spread
        hi = max(beta, left, right, 0.0) + spread
        grid = np.linspace(lo, hi, 100_000)
        joint = normal_pdf(beta, grid, sigma02) * np.exp(fused_log_density(grid, left, right, scales))
        mass = np.trapezoid(joint, grid)
        mean = np.trapezoid(grid * joint, grid) / mass
        second = np.trapezoid(grid**2 * joint, grid) / mass
        variance = second - mean**2
        scale = max(abs(mean), np.sqrt(variance))
        worst_fused = max(worst_fused,
                          abs(stats.mean[0] - mean) / scale,
                          abs(stats.variance[0] - variance) / variance)
    elapsed = time.monotonic() - started
    ok = worst_mixture < 1e-6 and worst_fused < 1e-4 and elapsed < 60.0
    report("A2", ok, f"mixture worst rel err {worst_mixture:.2e} (limit 1e-6), "
                     f"fused worst rel err {worst_fused:.2e} (limit 1e-4), {elapsed:.1f}s (limit 60s)")
    assert worst_mixture < 1e-6
    assert worst_fused < 1e-4
    assert elapsed < 60.0


def test_a3_gradient_checks():
    rng = np.random.default_rng(20240803)
    worst = 0.0
    for case in range(20):
        p = int(rng.integers(6, 15))
        k = int(rng.integers(1, 4))
        hidden = int(rng.integers(0, 2)) * int(rng.integers(3, 7))
        D = rng.standard_normal((p, k))
        if case % 2 == 0:
            m = int(rng.integers(2, 6))
            log_lik = rng.normal(0, 1.5, size=(p, m))
            net = SoftmaxPriorNet(k, m, hidden=hidden, seed=case)
            theta = net.get_flat()
            _, analytic = net.objective_and_gradients(D, log_lik)

            def objective(flat, net=net, D=D, log_lik=log_lik, theta=theta):
                net.set_flat(flat)
                value = net.objective(D, log_lik)
                net.set_flat(theta)
                return value
        else:
            beta_bar = rng.normal(0, 1.5, size=p)
            sigma02 = float(rng.uniform(0.1, 1.0))
            net = MdnPriorNet(k, n_components=int(rng.integers(2, 4)), hidden=hidden, seed=case)
            theta = net.get_flat()
            _, analytic = net.objective_and_gradients(D, beta_bar, sigma02)

            def objective(flat, net=net, D=D, beta_bar=beta_bar, sigma02=sigma02, theta=theta):
                net.set_flat(flat)
                value = net.objective(D, beta_bar, sigma02)
                net.set_flat(theta)
                return value
        numeric = finite_difference_gradient(objective, theta, h=1e-5)
        worst = max(worst, gradient_relative_error(analytic, numeric))
    ok = worst < 1e-5
    report("A3", ok, f"worst gradient relative error {worst:.2e} over 20 nets (limit 1e-5)")
    assert worst < 1e-5


def test_a4_em_correctness():
    rng = np.random.default_rng(20240804)
    worst_drop = 0.0
    worst_gap = 0.0
    for case in range(3):
        log_lik = rng.normal(0, 1.5, size=(50, 4))
        pi = MixtureWeights.uniform(4)
        values = [mixture_objective(log_lik, pi.pi)]
        for _ in range(60):
            pi = fit_weights_em(log_lik, pi, max_iter=1)
            values.append(mixture_objective(log_lik, pi.pi))
        worst_drop = max(worst_drop, float(-np.diff(values).min()))
        converged = fit_weights_em(log_lik, MixtureWeights.uniform(4), max_iter=5000, tol=1e-13)
        em_value = mixture_objective(log_lik, converged.pi)
        grid_value = simplex_grid_best(log_lik, step=0.005)
        worst_gap = max(worst_gap, abs(em_value - grid_value))
    ok = worst_drop <= 1e-10 and worst_gap < 1e-3
    report("A4", ok, f"worst per-iteration objective drop {worst_drop:.2e}, "
                     f"worst |EM - simplex grid| {worst_gap:.2e} (limit 1e-3)")
    assert worst_drop <= 1e-10
    assert worst_gap < 1e-3


def test_a5_constant_side_info_matches_em():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        p, m = 60, 5
        log_lik = rng.normal(0, 1.5, size=(p, m))
        em = fit_weights_em(log_lik, MixtureWeights.uniform(m), max_iter=5000, tol=1e-13)
        em_objective = mixture_objective(log_lik, em.pi)
        net = SoftmaxPriorNet(1, m, hidden=0, seed=seed)
        D = np.ones((p, 1))
        train_softmax(net, D, log_lik, TrainConfig(learning_rate=0.1, steps=2000, seed=seed))
        worst = max(worst, abs(net.objective(D, log_lik) - em_objective))
    ok = worst < 1e-3
    report("A5", ok, f"worst |softmax objective - EM objective| {worst:.2e} over 10 cases (limit 1e-3)")
    assert worst < 1e-3


def test_a6_desk_scale_recovery():
    started = time.monotonic()
    config = SimulationConfig(n=500, p=1000, s=5, pve=0.9, replicates=20)
    fitter = ash_fitter()
    ratios = []
    perfs, oracles = [], []
    for rep in range(20):
        seed = int(np.random.SeedSequence([606, rep]).generate_state(1)[0])
        X_tr, y_tr, X_te, y_te, b_true, sigma2_true = simulate_dataset(config, seed)
        out = fitter(X_tr, y_tr, X_te, seed=seed)
        perfs.append(scaled_pred_perf(y_te, out["test"], sigma2_true))
        oracles.append(scaled_pred_perf(y_te, X_te @ b_true, sigma2_true))
    mean_perf = float(np.mean(perfs))
    mean_oracle = float(np.mean(oracles))

    plain_rmse, grouped_rmse = [], []
    for rep in range(20):
        rng = np.random.default_rng(700 + rep)
        n, p, s = 200, 200, 10
        X = rng.standard_normal((n + 100, p))
        b = np.zeros(p)
        b[rng.choice(100, size=s, replace=False)] = rng.standard_normal(s)
        sigma = float(np.sqrt(np.var(X[:n] @ b)))
        y = X @ b + sigma * rng.standard_normal(n + 100)
        X_tr, y_tr, X_te, y_te = X[:n], y[:n], X[n:], y[n:]
        D = np.zeros((p, 2))
        D[:100, 0] = 1.0
        D[100:, 1] = 1.0
        plain = fit(Dataset(y=y_tr, X=X_tr), SideInfo.none(), AshPrior(10), FitConfig())
        plain_rmse.append(rmse(y_te, predict(plain, X_te)))
        prior = SoftmaxPrior(D, n_components=10,
                             train_config=TrainConfig(steps=300, later_steps=30, seed=rep))
        grouped = fit(Dataset(y=y_tr, X=X_tr), SideInfo.from_features(D), prior, FitConfig())
        grouped_rmse.append(rmse(y_te, predict(grouped, X_te)))
    mean_plain = float(np.mean(plain_rmse))
    mean_grouped = float(np.mean(grouped_rmse))
    elapsed = time.monotonic() - started
    ok = mean_perf <= 1.3 * mean_oracle and mean_grouped <= mean_plain and elapsed < 300.0
    report("A6", ok, f"mean scaled perf {mean_perf:.3f} vs 1.3x oracle {1.3 * mean_oracle:.3f}; "
                     f"group-prior RMSE {mean_grouped:.3f} <= plain {mean_plain:.3f}; "
                     f"{elapsed:.0f}s (limit 300s)")
    assert mean_perf <= 1.3 * mean_oracle
    assert mean_grouped <= mean_plain
    assert elapsed < 300.0


def test_a7_denoising():
    started = time.monotonic()
    wins = 0
    improvements = []
    for seed in range(20):
        image = piecewise_image(seed)
        noisy = image + np.random.default_rng(1000 + seed).normal(0.0, 0.2, image.shape)
        denoised = denoise_image(noisy, DenoiseConfig(noise_sd=0.2))
        noisy_rmse = rmse(noisy, image)
        denoised_rmse = rmse(denoised, image)
        wins += denoised_rmse < noisy_rmse
        improvements.append((noisy_rmse - denoised_rmse) / noisy_rmse)
    median_improvement = float(np.median(improvements))
    elapsed = time.monotonic() - started
    ok = wins >= 19 and median_improvement >= 0.20 and elapsed < 120.0
    report("A7", ok, f"improved {wins}/20 images (need >= 19), median relative improvement "
                     f"{median_improvement:.1%} (need >= 20%), {elapsed:.1f}s (limit 120s)")
    assert wins >= 19
    assert median_improvement >= 0.20
    assert elapsed < 120.0


def test_a8_null_calibration():
    config = SimulationConfig(n=500, p=1000, s=20, pve=0.0, replicates=20)
    fitter = ash_fitter()
    null_masses, perfs = [], []
    for rep in range(20):
        seed = int(np.random.SeedSequence([808, rep]).generate_state(1)[0])
        X_tr, y_tr, X_te, y_te, _, sigma2_true = simulate_dataset(config, seed)
        out = fitter(X_tr, y_tr, X_te, seed=seed)
        null_masses.append(out["pi0"])
        perfs.append(scaled_pred_perf(y_te, out["test"], sigma2_true))
    median_mass = float(np.median(null_masses))
    median_perf = float(np.median(perfs))
    ok = median_mass >= 0.8 and 0.95 <= median_perf <= 1.10
    report("A8", ok, f"median fitted null mass {median_mass:.3f} (need >= 0.8), "
                     f"median scaled perf {median_perf:.3f} (need within [0.95, 1.10])")
    assert median_mass >= 0.8
    assert 0.95 <= median_perf <= 1.10


def test_a9_determinism(tmp_path):
    rng = np.random.default_rng(909)
    X = rng.standard_normal((40, 6))
    y = X[:, 0] - 2.0 * X[:, 3] + 0.5 * rng.standard_normal(40)
    x_path = tmp_path / "x.csv"
    y_path = tmp_path / "y.csv"
    with open(x_path, "w") as fh:
        for row in X:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    with open(y_path, "w") as fh:
        for v in y:
            fh.write(repr(float(v)) + "\n")

    model_bytes = []
    for run in range(2):
        out = tmp_path / f"model{run}.json"
        assert main(["fit", "--x", str(x_path), "--y", str(y_path),
                     "--out", str(out), "--seed", "11"]) == 0
        model_bytes.append(out.read_bytes())

    csv_bytes = []
    for run in range(2):
        out = tmp_path / f"results{run}.csv"
        assert main(["simulate", "--experiment", "3", "--replicates", "2", "--n", "40",
                     "--p", "8", "--seed", "11", "--out", str(out)]) == 0
        csv_bytes.append(out.read_bytes())

    models_equal = model_bytes[0] == model_bytes[1]
    csvs_equal = csv_bytes[0] == csv_bytes[1]
    ok = models_equal and csvs_equal
    report("A9", ok, f"model files byte-identical: {models_equal}; "
                     f"results CSVs byte-identical: {csvs_equal}")
    assert models_equal
    assert csvs_equal
