"""Tests for the benchmark generators, the scaled metric and the experiment runner."""

import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_regression
import nash
from nash.cli import main
from nash.errors import ConfigError, LengthMismatchError
from nash.simulate import (
    GAUSSIAN_MAD,
    SimulationConfig,
    _noise,
    experiment_grid,
    gen_coefficients,
    gen_design,
    gen_response,
    run_experiment,
    scaled_pred_perf,
    simulate_dataset,
    write_results_csv,
)


def mean_fitter():
    """Trivial benchmark method: predict the training mean."""

    def run(X_train, y_train, X_test, seed):
        mean = float(y_train.mean())
        return {
            "test": np.full(X_test.shape[0], mean),
            "train": np.full(X_train.shape[0], mean),
            "pi0": 1.0,
            "method": "mean",
        }

    return run


class TestGenDesign:
    def test_zero_correlation_is_plain_normal_draw(self):
        X = gen_design(20, 5, 0.0, seed=42)
        expected = np.random.default_rng(42).standard_normal((20, 5))
        np.testing.assert_array_equal(X, expected)

    def test_independent_columns_have_small_correlations(self):
        X = gen_design(10_000, 8, 0.0, seed=1)
        corr = np.corrcoef(X, rowvar=False)
        off_diag = corr[~np.eye(8, dtype=bool)]
        assert np.mean(np.abs(off_diag) < 4.0 / np.sqrt(10_000)) >= 0.95

    def test_adjacent_correlation_tracks_rho(self):
        X = gen_design(10_000, 6, 0.95, seed=2)
        for j in range(5):
            r = np.corrcoef(X[:, j], X[:, j + 1])[0, 1]
            assert abs(r - 0.95) < 0.03

    def test_unit_marginal_variance_under_correlation(self):
        X = gen_design(20_000, 5, 0.9, seed=3)
        np.testing.assert_allclose(X.var(axis=0), np.ones(5), atol=0.05)


class TestGenCoefficients:
    def test_no_signal(self):
        np.testing.assert_array_equal(gen_coefficients(7, 0, "gaussian", 0), np.zeros(7))

    def test_fully_dense(self):
        b = gen_coefficients(7, 7, "gaussian", 0)
        assert np.all(b != 0)

    def test_support_positions_uniform(self):
        counts = np.zeros(10)
        for draw in range(10_000):
            b = gen_coefficients(10, 1, "gaussian", draw)
            counts[np.flatnonzero(b)[0]] += 1
        np.testing.assert_allclose(counts / 10_000, np.full(10, 0.1), atol=0.02)

    def test_laplace_and_t_draws(self):
        for dist in ("laplace", "t(4)"):
            b = gen_coefficients(50, 50, dist, 3)
            assert np.all(np.isfinite(b)) and np.all(b != 0)

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ConfigError):
            gen_coefficients(5, 2, "cauchyish", 0)


class TestGenResponse:
    def test_zero_pve_is_pure_unit_noise(self):
        X = gen_design(10_000, 3, 0.0, seed=4)
        b = np.array([1.0, 2.0, 3.0])
        y, sigma2_true = gen_response(X, b, 0.0, "gaussian", 5)
        assert sigma2_true == 1.0
        assert abs(np.var(y) - 1.0) < 0.05

    def test_variance_explained_near_target(self):
        X = gen_design(10_000, 5, 0.0, seed=6)
        b = gen_coefficients(5, 5, "gaussian", 7)
        y, sigma2_true = gen_response(X, b, 0.5, "gaussian", 8)
        signal = X @ b
        ratio = np.var(signal) / np.var(y)
        assert abs(ratio - 0.5) < 0.05

    def test_gaussian_noise_variance_matches(self):
        X = gen_design(10_000, 2, 0.0, seed=9)
        b = np.array([1.0, -1.0])
        y, sigma2_true = gen_response(X, b, 0.3, "gaussian", 10)
        noise = y - X @ b
        assert abs(np.var(noise) / sigma2_true - 1.0) < 0.05

    @pytest.mark.parametrize("dist", ["uniform", "laplace", "t(4)", "t(8)"])
    def test_finite_variance_noise_standardized(self, dist):
        X = gen_design(20_000, 1, 0.0, seed=11)
        b = np.array([2.0])
        y, sigma2_true = gen_response(X, b, 0.5, dist, 12)
        noise = y - X @ b
        assert abs(np.var(noise) / sigma2_true - 1.0) < 0.06

    @pytest.mark.parametrize("dist", ["t(1)", "t(2)"])
    def test_heavy_tails_match_gaussian_mad(self, dist):
        # no variance exists, so the scale is pinned through the median
        # absolute deviation of the matching Gaussian
        X = gen_design(200_000, 1, 0.0, seed=13)
        b = np.array([2.0])
        y, sigma2_true = gen_response(X, b, 0.5, dist, 14)
        noise = y - X @ b
        target_mad = 0.6744897501960817 * np.sqrt(sigma2_true)
        assert abs(np.median(np.abs(noise)) / target_mad - 1.0) < 0.03

    @pytest.mark.parametrize("df, quartile", [(1, 1.0), (2, np.sqrt(2.0 / 3.0))])
    def test_heavy_tail_scale_is_the_t_quartile(self, df, quartile):
        # the t(1) and t(2) upper quartiles in closed form: tan(pi/4) and sqrt(2/3)
        draws = np.random.default_rng(3).standard_t(df, size=5)
        noise = _noise(np.random.default_rng(3), "t", df, 0.7, 5)
        np.testing.assert_allclose(noise, draws * 0.7 * GAUSSIAN_MAD / quartile, rtol=1e-15)


def _loaded_by_import_nash(module: str) -> str:
    code = f"import sys, nash; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nash.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=120)
    return out.stdout.strip()


def test_import_leaves_scipy_stats_unloaded():
    assert _loaded_by_import_nash("scipy.stats") == "False"


def test_import_leaves_scipy_optimize_unloaded():
    assert _loaded_by_import_nash("scipy.optimize") == "False"


def _scipy_modules_after(code: str) -> str:
    probe = f"{code}\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nash.__file__)))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                         check=True, timeout=120)
    return out.stdout.strip().splitlines()[-1]


def test_import_leaves_scipy_unloaded():
    assert _scipy_modules_after("import nash") == "[]"


def test_predict_leaves_scipy_unloaded(tmp_path):
    X, y, _ = random_regression(5, n=20, p=4)
    for name, rows in (("x.csv", X), ("y.csv", y[:, None])):
        np.savetxt(tmp_path / name, rows, delimiter=",")
    model, out = tmp_path / "m.json", tmp_path / "pred.csv"
    assert main(["fit", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                 "--out", str(model)]) == 0
    argv = ["predict", "--model", str(model), "--x", str(tmp_path / "x.csv"), "--out", str(out)]
    assert _scipy_modules_after(f"import nash.cli\nassert nash.cli.main({argv!r}) == 0") == "[]"
    assert len(out.read_text().splitlines()) == 20


class TestScaledPredPerf:
    def test_perfect_prediction(self):
        y = np.arange(5.0)
        assert scaled_pred_perf(y, y, 2.0) == 0.0

    def test_unit_offset(self):
        y = np.zeros(10)
        assert scaled_pred_perf(y, y + 1.0, 1.0) == pytest.approx(1.0)

    def test_mean_predictor_on_pure_noise(self):
        rng = np.random.default_rng(15)
        y = rng.standard_normal(10_000)
        assert scaled_pred_perf(y, np.full(10_000, y.mean()), 1.0) == pytest.approx(1.0, abs=0.05)

    def test_oracle_prediction_approaches_inverse_sd(self):
        config = SimulationConfig(n=200, p=5, s=5, pve=0.5, test_fraction=0.98, seed=0)
        # large test split so the empirical RMSE concentrates
        X_tr, y_tr, X_te, y_te, b, sigma2_true = simulate_dataset(config, 123)
        perf = scaled_pred_perf(y_te, X_te @ b, sigma2_true)
        assert perf == pytest.approx(1.0 / np.sqrt(sigma2_true), rel=0.05)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            scaled_pred_perf(np.zeros(3), np.zeros(4), 1.0)


class TestExperimentGrids:
    def test_experiment_one_sparsity_ladder(self):
        grid = experiment_grid(1, SimulationConfig(p=1000))
        labels = [label for label, _ in grid]
        assert labels == ["s=1", "s=10", "s=100", "s=500", "s=1000"]

    def test_experiment_five_caps_sparsity(self):
        grid = experiment_grid(5, SimulationConfig())
        assert [(c.p, c.s, c.n) for _, c in grid] == [(20, 20, 500), (200, 20, 500), (2000, 20, 500)]

    def test_experiment_three_includes_null(self):
        grid = experiment_grid(3, SimulationConfig())
        assert grid[0][1].pve == 0.0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            experiment_grid(9, SimulationConfig())


class TestRunExperiment:
    def test_row_count_is_settings_times_replicates(self):
        rows = run_experiment(3, overrides={"n": 30, "p": 5, "replicates": 2},
                              seed=0, fitter=mean_fitter())
        assert len(rows) == 6 * 2

    def test_sparsity_endpoints_run(self):
        rows = run_experiment(1, overrides={"n": 40, "p": 200, "replicates": 1},
                              seed=0, fitter=mean_fitter())
        settings = {row.setting for row in rows}
        assert "s=1" in settings and "s=200" in settings

    def test_deterministic_rows(self):
        kwargs = dict(overrides={"n": 25, "p": 4, "replicates": 3}, seed=5, fitter=mean_fitter())
        a = run_experiment(3, **kwargs)
        b = run_experiment(3, **kwargs)
        assert [(r.seed, r.scaled_perf, r.train_perf) for r in a] == \
               [(r.seed, r.scaled_perf, r.train_perf) for r in b]

    def test_csv_layout_and_default_determinism(self, tmp_path):
        rows = run_experiment(3, overrides={"n": 25, "p": 4, "replicates": 2},
                              seed=1, fitter=mean_fitter())
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_results_csv(rows, str(path_a))
        write_results_csv(rows, str(path_b))
        content = path_a.read_text()
        assert content.splitlines()[0] == "experiment,setting,replicate,seed,method,scaled_perf,seconds"
        assert content == path_b.read_text()
        assert all(line.endswith(",0.0") for line in content.splitlines()[1:])


class TestConfigValidation:
    def test_sparsity_bounds(self):
        with pytest.raises(ConfigError):
            SimulationConfig(p=10, s=11)

    def test_pve_range(self):
        with pytest.raises(ConfigError):
            SimulationConfig(pve=1.0)

    @pytest.mark.parametrize("replicates", [0, -2])
    def test_replicates_at_least_one(self, replicates):
        with pytest.raises(ConfigError):
            SimulationConfig(replicates=replicates)
        with pytest.raises(ConfigError):
            run_experiment(3, overrides={"replicates": replicates}, fitter=mean_fitter())
