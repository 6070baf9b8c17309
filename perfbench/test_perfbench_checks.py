"""Each output check of the benchmark accepts a correct output and rejects a corrupted one.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import numpy as np
import pytest

import checks
import nash


@pytest.fixture(scope="module")
def small_fit():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((60, 12))
    b = np.zeros(12)
    b[:3] = [1.5, -2.0, 1.0]
    y = X @ b + 0.5 * rng.standard_normal(60)
    result = nash.fit(nash.Dataset(y=y, X=X), nash.SideInfo.none(), nash.AshPrior())
    return X, y, result


def test_elbo_check_rejects_reversed_trace(small_fit):
    _, _, result = small_fit
    trace = result.elbo_trace
    assert trace[-1] > trace[0]
    checks.elbo_nondecreasing(trace)
    with pytest.raises(checks.CheckFailed):
        checks.elbo_nondecreasing(trace[::-1])


def test_fitted_values_check_rejects_wrong_intercept(small_fit):
    X, _, result = small_fit
    checks.fitted_match_raw(result.fitted_values, X, result.coefficients, result.intercept)
    with pytest.raises(checks.CheckFailed):
        checks.fitted_match_raw(result.fitted_values, X, result.coefficients, result.intercept + 0.1)


def test_null_mass_check_rejects_values_outside_unit_interval():
    checks.null_mass_in_unit_interval([0.0, 0.5, 1.0])
    for bad in ([1.0 + 1e-9], [-1e-12], [np.nan]):
        with pytest.raises(checks.CheckFailed):
            checks.null_mass_in_unit_interval(bad)


def test_mean_predictor_check_rejects_shifted_predictions(small_fit):
    X, y, result = small_fit
    y_hat = nash.predict(result, X)
    checks.beats_mean_predictor(y, y_hat, float(np.mean(y)))
    with pytest.raises(checks.CheckFailed):
        checks.beats_mean_predictor(y, y_hat + 10.0, float(np.mean(y)))


def test_group_check_rejects_dense_group_with_more_null_mass():
    null_mass = np.r_[np.full(5, 0.2), np.full(45, 0.9)]
    dense, sparse = np.arange(5), np.arange(5, 50)
    checks.dense_group_less_null(null_mass, dense, sparse)
    with pytest.raises(checks.CheckFailed):
        checks.dense_group_less_null(null_mass, sparse, dense)


def test_denoise_check_rejects_noisy_image_returned_as_denoised():
    rng = np.random.default_rng(1)
    clean = np.zeros((16, 16))
    clean[4:12, 4:12] = 0.8
    noisy = clean + rng.normal(0.0, 0.2, clean.shape)
    assert checks.denoised_improves(clean + 0.01, noisy, clean) < 1.0
    with pytest.raises(checks.CheckFailed):
        checks.denoised_improves(noisy, noisy, clean)


def _write_lines(path, values):
    path.write_text("".join(repr(float(v)) + "\n" for v in values), encoding="utf-8")


def test_predictions_check_rejects_shifted_and_truncated_files(tmp_path):
    expected = np.linspace(-3.0, 3.0, 40)
    good = tmp_path / "pred.csv"
    _write_lines(good, expected)
    np.testing.assert_array_equal(checks.predictions_file(str(good), expected), expected)

    shifted = tmp_path / "shifted.csv"
    _write_lines(shifted, expected + 1e-3)
    with pytest.raises(checks.CheckFailed):
        checks.predictions_file(str(shifted), expected)

    truncated = tmp_path / "truncated.csv"
    truncated.write_text(good.read_text(encoding="utf-8")[:-30], encoding="utf-8")
    with pytest.raises(checks.CheckFailed):
        checks.predictions_file(str(truncated), expected)


def test_printed_rmse_check_rejects_a_wrong_figure():
    checks.printed_rmse_matches("rmse_noisy=0.2 rmse_denoised=0.1001", 0.1)
    with pytest.raises(checks.CheckFailed):
        checks.printed_rmse_matches("rmse_noisy=0.2 rmse_denoised=0.12", 0.1)
    with pytest.raises(checks.CheckFailed):
        checks.printed_rmse_matches("wrote out.pgm", 0.1)


def test_simulate_check_rejects_outputs_that_differ_between_thread_counts():
    header = b"experiment,setting,replicate,seed,method,scaled_perf,seconds\n"
    rows = b"".join(b"4,coef=x,0,%d,nash-ash,0.5,0.0\n" % k for k in range(3))
    checks.simulate_outputs_agree(header + rows, header + rows, 3)
    with pytest.raises(checks.CheckFailed):
        checks.simulate_outputs_agree(header + rows, header + rows.replace(b"0.5", b"0.6", 1), 3)
    with pytest.raises(checks.CheckFailed):
        checks.simulate_outputs_agree(header + rows, header + rows, 4)


def test_pgm_round_trip_and_truncation(tmp_path):
    image = np.arange(12, dtype=float).reshape(3, 4) / 11.0
    path = tmp_path / "img.pgm"
    checks.write_pgm(str(path), image)
    assert np.max(np.abs(checks.read_pgm(str(path)) - image)) <= 0.5 / 255
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(checks.CheckFailed):
        checks.read_pgm(str(path))
