"""Output checks.  Each compares a program output with a computation made
here, apart from the program, or with a property the method must have.
None compares against a stored copy of an earlier output.

Every check raises ``CheckFailed`` with a one-line reason.
"""

from __future__ import annotations

import math
import re

import numpy as np


class CheckFailed(Exception):
    """An output of the program is wrong."""


def rmse(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def elbo_nondecreasing(trace, what: str = "ELBO") -> None:
    """Coordinate ascent may never lower its bound (1e-8 relative slack)."""
    t = np.asarray(trace, dtype=float)
    if t.size == 0 or not np.isfinite(t).all():
        raise CheckFailed(f"{what} trace is empty or not finite")
    drops = t[:-1] - t[1:]
    slack = 1e-8 * (1.0 + np.abs(t[1:]))
    if np.any(drops > slack):
        k = int(np.argmax(drops - slack))
        raise CheckFailed(f"{what} fell by {drops[k]:.3g} at step {k + 1}")


def fitted_match_raw(fitted, X, coefficients, intercept) -> None:
    """Standardised-space fitted values equal raw ``X @ coefficients + intercept``."""
    raw = np.asarray(X, dtype=float) @ np.asarray(coefficients, dtype=float) + float(intercept)
    fitted = np.asarray(fitted, dtype=float)
    tol = 1e-8 * (1.0 + float(np.max(np.abs(raw))))
    gap = float(np.max(np.abs(fitted - raw)))
    if gap > tol:
        raise CheckFailed(f"fitted values differ from X @ coefficients + intercept by {gap:.3g}")


def null_mass_in_unit_interval(values, what: str = "null mass") -> None:
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if not np.isfinite(v).all() or v.min() < 0.0 or v.max() > 1.0:
        raise CheckFailed(f"{what} outside [0, 1]: range {v.min():.6g}..{v.max():.6g}")


def beats_mean_predictor(y_test, y_hat, y_train_mean: float) -> None:
    """Test RMSE is no worse than predicting the training mean for every row."""
    y_test = np.asarray(y_test, dtype=float)
    ours = rmse(y_hat, y_test)
    base = rmse(np.full_like(y_test, y_train_mean), y_test)
    if not ours <= base:
        raise CheckFailed(f"test RMSE {ours:.6g} is worse than the mean predictor's {base:.6g}")


def dense_group_less_null(null_mass, dense, sparse) -> None:
    """A prior driven by group features gives the dense group lower null mass."""
    null_mass = np.asarray(null_mass, dtype=float)
    d = float(np.mean(null_mass[dense]))
    s = float(np.mean(null_mass[sparse]))
    if not d < s:
        raise CheckFailed(f"dense group null mass {d:.6g} is not below the sparse group's {s:.6g}")


def denoised_improves(denoised, noisy, clean) -> float:
    """Denoised RMSE is below noisy RMSE; returns their ratio."""
    den = rmse(denoised, clean)
    noi = rmse(noisy, clean)
    if not den < noi:
        raise CheckFailed(f"denoised RMSE {den:.6g} is not below noisy RMSE {noi:.6g}")
    return den / noi


def predictions_file(path: str, expected) -> np.ndarray:
    """The written predictions equal ``expected`` row for row."""
    expected = np.asarray(expected, dtype=float)
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if len(lines) != expected.size:
        raise CheckFailed(f"{path} holds {len(lines)} predictions, expected {expected.size}")
    try:
        got = np.array([float(v) for v in lines])
    except ValueError:
        raise CheckFailed(f"{path} holds a non-numeric prediction") from None
    tol = 1e-9 * (1.0 + float(np.max(np.abs(expected))))
    gap = float(np.max(np.abs(got - expected)))
    if gap > tol:
        raise CheckFailed(f"predictions differ from X_new @ coefficients + intercept by {gap:.3g}")
    return got


def printed_rmse_matches(stdout: str, computed: float, key: str = "rmse_denoised") -> None:
    """A printed ``key=value`` agrees with the RMSE computed from the written image.

    The written image is quantised to 8 bits, so the two may differ by up to
    half a grey level.
    """
    fields = dict(tok.split("=", 1) for tok in stdout.split() if "=" in tok)
    if key not in fields:
        raise CheckFailed(f"{key} not printed")
    printed = float(fields[key])
    if not math.isfinite(printed) or abs(printed - computed) > 0.5 / 255 + 1e-12:
        raise CheckFailed(f"printed {key}={printed:.6g} but the written image gives {computed:.6g}")


def simulate_outputs_agree(single: bytes, pooled: bytes, rows: int) -> None:
    """Thread count leaves ``simulate`` output byte-identical, one row per setting x replicate."""
    if single != pooled:
        raise CheckFailed("simulate output differs between --threads 1 and --threads 2")
    lines = single.decode("utf-8").splitlines()
    if len(lines) != rows + 1:
        raise CheckFailed(f"simulate wrote {len(lines) - 1} rows, expected {rows}")


def read_pgm(path: str) -> np.ndarray:
    """Binary (P5, 8-bit) PGM as floats in [0, 1], read without nash."""
    with open(path, "rb") as fh:
        raw = fh.read()
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", raw)
    if m is None:
        raise CheckFailed(f"{path} is not an 8-bit P5 image")
    width, height = int(m.group(1)), int(m.group(2))
    body = raw[m.end():]
    if len(body) != width * height:
        raise CheckFailed(f"{path} holds {len(body)} pixels, expected {width * height}")
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width) / 255.0


def write_pgm(path: str, image) -> None:
    """Clip to [0, 1] and write an 8-bit P5 PGM, without nash."""
    image = np.asarray(image, dtype=float)
    height, width = image.shape
    pixels = np.rint(np.clip(image, 0.0, 1.0) * 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
