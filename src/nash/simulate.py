"""Synthetic regression benchmarks: data generators, the scaled metric, experiment grids.

Seven canned experiments each vary one generative knob (sparsity, sample
size, signal fraction, coefficient law, dimension, noise law, predictor
correlation) around a common default setting, at desk scale.  Every draw is
a pure function of an integer seed, so replicates are reproducible.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace

import numpy as np

from .ash import GAUSSIAN_MAD, N_COMPONENTS, AshPrior
from .data import Dataset, SideInfo
from .engine import FitConfig, fit, predict
from .errors import ConfigError, LengthMismatchError


@dataclass(frozen=True)
class SimulationConfig:
    n: int = 500
    p: int = 1000
    s: int = 20
    rho: float = 0.0
    pve: float = 0.5
    coef_dist: str = "gaussian"
    noise_dist: str = "gaussian"
    replicates: int = 20
    test_fraction: float = 0.2

    def __post_init__(self):
        if self.replicates < 1:
            raise ConfigError(f"need at least one replicate, got {self.replicates}")
        if self.n < 2 or self.p < 1:
            raise ConfigError(f"need n >= 2 and p >= 1, got n={self.n}, p={self.p}")
        if not 0 <= self.s <= self.p:
            raise ConfigError(f"need 0 <= s <= p, got s={self.s}, p={self.p}")
        if not 0.0 <= self.pve < 1.0:
            raise ConfigError(f"pve must lie in [0, 1), got {self.pve}")
        if not 0.0 <= self.rho < 1.0:
            raise ConfigError(f"rho must lie in [0, 1), got {self.rho}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must lie in (0, 1)")

    @property
    def n_test(self) -> int:
        return max(1, round(self.n * self.test_fraction))


@dataclass(frozen=True)
class SimRow:
    experiment: int
    setting: str
    replicate: int
    seed: int
    method: str
    scaled_perf: float
    seconds: float


def _parse_dist(name: str):
    name = name.strip().lower()
    if name in ("gaussian", "normal"):
        return ("gaussian", None)
    if name == "laplace":
        return ("laplace", None)
    if name == "uniform":
        return ("uniform", None)
    if name.startswith("t(") and name.endswith(")"):
        df = name[2:-1]
    elif name.startswith("t") and name[1:].isdigit():
        df = name[1:]
    else:
        raise ConfigError(f"unknown distribution {name!r}")
    if not df.strip().isdecimal() or int(df) < 1:
        raise ConfigError(f"t degrees of freedom must be a positive integer, got {df!r}")
    return ("t", int(df))


def gen_design(n: int, p: int, rho: float, seed) -> np.ndarray:
    """Predictor matrix: i.i.d. standard normal, or column-AR(1) at level rho.

    The correlated branch keeps unit marginal variance per column; at rho=0
    it reduces bitwise to the independent branch.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, p))
    if rho == 0.0:
        return z
    x = np.empty_like(z)
    x[:, 0] = z[:, 0]
    w = np.sqrt(1.0 - rho**2)
    for j in range(1, p):
        x[:, j] = rho * x[:, j - 1] + w * z[:, j]
    return x


def gen_coefficients(p: int, s: int, dist: str, seed) -> np.ndarray:
    """s nonzero coefficients at uniformly chosen positions, the rest exactly zero."""
    rng = np.random.default_rng(seed)
    b = np.zeros(p)
    if s == 0:
        return b
    positions = rng.choice(p, size=s, replace=False)
    family, df = _parse_dist(dist)
    if family == "gaussian":
        values = rng.standard_normal(s)
    elif family == "laplace":
        values = rng.laplace(0.0, 1.0, size=s)
    elif family == "t":
        values = rng.standard_t(df, size=s)
    else:
        raise ConfigError(f"{dist!r} is not a coefficient distribution")
    b[positions] = values
    return b


def _noise(rng, family, df, sd, size):
    """Noise standardized so its spread matches a Gaussian with deviation sd.

    Distributions with a variance are scaled to variance sd^2; t(1) and t(2)
    have none, so their scale matches the Gaussian median absolute deviation.
    """
    if family == "gaussian":
        return rng.normal(0.0, sd, size=size)
    if family == "uniform":
        half = sd * np.sqrt(3.0)
        return rng.uniform(-half, half, size=size)
    if family == "laplace":
        return rng.laplace(0.0, sd / np.sqrt(2.0), size=size)
    if family == "t":
        draws = rng.standard_t(df, size=size)
        if df > 2:
            return draws * sd * np.sqrt((df - 2.0) / df)
        # imported here to keep scipy out of `import nash`
        from scipy.special import stdtrit

        scale = sd * GAUSSIAN_MAD / float(stdtrit(df, 0.75))
        return draws * scale
    raise ConfigError(f"{family!r} is not a noise distribution")


def gen_response(X: np.ndarray, b: np.ndarray, pve: float, noise_dist: str, seed) -> tuple[np.ndarray, float]:
    """Responses at the requested proportion of variance explained.

    With pve = 0 or an all-zero coefficient vector the signal is discarded
    and the response is unit-variance pure noise.
    """
    rng = np.random.default_rng(seed)
    family, df = _parse_dist(noise_dist)
    signal = X @ b
    if pve > 0.0 and np.any(b != 0.0):
        sigma2_true = float(np.var(signal)) * (1.0 - pve) / pve
        y = signal + _noise(rng, family, df, np.sqrt(sigma2_true), signal.shape[0])
    else:
        sigma2_true = 1.0
        y = _noise(rng, family, df, 1.0, X.shape[0])
    return y, sigma2_true


def scaled_pred_perf(y_test: np.ndarray, y_hat: np.ndarray, sigma2_true: float) -> float:
    """Root mean squared prediction error divided by the true noise variance."""
    y_test = np.asarray(y_test, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y_test.shape != y_hat.shape:
        raise LengthMismatchError(f"shapes {y_test.shape} and {y_hat.shape} disagree")
    if sigma2_true <= 0:
        raise ConfigError("sigma2_true must be positive")
    return float(np.linalg.norm(y_test - y_hat) / np.sqrt(y_test.size)) / sigma2_true


def simulate_dataset(config: SimulationConfig, seed):
    """One train/test draw: (X_train, y_train, X_test, y_test, b, sigma2_true)."""
    rng = np.random.SeedSequence(seed).generate_state(3)
    total = config.n + config.n_test
    X = gen_design(total, config.p, config.rho, int(rng[0]))
    b = gen_coefficients(config.p, config.s, config.coef_dist, int(rng[1]))
    y, sigma2_true = gen_response(X, b, config.pve, config.noise_dist, int(rng[2]))
    n = config.n
    return X[:n], y[:n], X[n:], y[n:], b, sigma2_true


def ash_fitter(n_components: int = N_COMPONENTS, max_sweeps: int = FitConfig.max_sweeps):
    """Default benchmark method: the engine with the shared mixture prior (deterministic, seed unused)."""

    def run(X_train, y_train, X_test, seed: int) -> dict:
        result = fit(
            Dataset(y=y_train, X=X_train),
            SideInfo.none(),
            AshPrior(n_components=n_components),
            FitConfig(max_sweeps=max_sweeps),
        )
        return {
            "test": predict(result, X_test),
            "pi0": result.prior_null_mass,
            "method": "nash-ash",
        }

    return run


# experiment id -> (the SimulationConfig field it varies, its label in the
# `setting` column, its values or a function of the base dimension giving them)
EXPERIMENTS = {
    1: ("s", "s", lambda p: [max(1, s) for s in (1, p // 100, p // 10, p // 2, p)]),
    2: ("n", "n", (200, 500, 2000)),
    3: ("pve", "pve", (0.0, 0.1, 0.3, 0.5, 0.7, 0.9)),
    4: ("coef_dist", "coef", ("gaussian", "laplace", "t(4)")),
    5: ("p", "p", (20, 200, 2000)),
    6: ("noise_dist", "noise", ("gaussian", "uniform", "laplace", "t(1)", "t(2)", "t(4)", "t(8)")),
    7: ("rho", "rho", (0.0, 0.5, 0.9, 0.95, 0.99)),
}


def _experiment(experiment: int) -> tuple:
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment}; valid ids are 1..{len(EXPERIMENTS)}")
    return EXPERIMENTS[experiment]


def experiment_grid(experiment: int, base: SimulationConfig) -> list[tuple[str, SimulationConfig]]:
    """Setting list for one experiment: (label, config) pairs, each value once, s capped at each p."""
    field, label, values = _experiment(experiment)
    if callable(values):
        values = values(base.p)
    grid = []
    for value in dict.fromkeys(values):
        fields = {"p": base.p, "s": base.s, field: value}
        fields["s"] = min(fields["s"], fields["p"])
        grid.append((f"{label}={value}", replace(base, **fields)))
    return grid


def _replicate_seed(seed: int, experiment: int, setting_index: int, replicate: int) -> int:
    return int(np.random.SeedSequence([seed, experiment, setting_index, replicate]).generate_state(1)[0])


def run_replicate(experiment: int, setting: str, replicate: int, config: SimulationConfig,
                  fitter, seed: int) -> SimRow:
    """One draw-fit-score cycle, as its result row."""
    X_train, y_train, X_test, y_test, _, sigma2_true = simulate_dataset(config, seed)
    started = time.perf_counter()
    out = fitter(X_train, y_train, X_test, seed)
    seconds = time.perf_counter() - started
    return SimRow(experiment, setting, replicate, seed, out.get("method", "nash"),
                  scaled_pred_perf(y_test, out["test"], sigma2_true), seconds)


def run_experiment(experiment: int, overrides: dict | None = None, seed: int = 0,
                   fitter=None) -> list[SimRow]:
    """Run every setting of one experiment for the configured replicate count.

    The experiment sets the field it varies, so an override of that field is
    dropped.  Replicates carry independent derived seeds; rows come back in
    (setting, replicate) order.
    """
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    field, _, _ = _experiment(experiment)
    overrides = {name: value for name, value in (overrides or {}).items() if name != field}
    if "s" not in overrides and "p" in overrides:
        # keep the default sparsity level feasible under a smaller dimension
        overrides["s"] = min(SimulationConfig.s, overrides["p"])
    base = SimulationConfig(**overrides)
    if fitter is None:
        fitter = ash_fitter()
    rows = []
    for si, (label, config) in enumerate(experiment_grid(experiment, base)):
        for rep in range(config.replicates):
            rows.append(run_replicate(experiment, label, rep, config, fitter,
                                      _replicate_seed(seed, experiment, si, rep)))
    return rows


def write_results_csv(rows: list[SimRow], path: str, timing: bool = False) -> None:
    """Write the benchmark rows; timing is opt-in so default output is reproducible."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "setting", "replicate", "seed", "method", "scaled_perf", "seconds"])
        for row in rows:
            seconds = repr(round(row.seconds, 6)) if timing else "0.0"
            writer.writerow([
                row.experiment,
                row.setting,
                row.replicate,
                row.seed,
                row.method,
                repr(row.scaled_perf),
                seconds,
            ])
