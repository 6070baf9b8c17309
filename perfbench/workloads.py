"""The four workloads: their seeded inputs, operations and output checks.

Every input comes from the generator here, seeded by ``--seed``; nash
receives only the generated data.  A workload is a fixed list of operations
(one "round"); a run repeats whole rounds.  ``Op.run`` is the timed call into
the program, ``Op.check`` inspects its output afterwards, untimed, and
returns the operation's error ratio against a reference computed here, or
``None`` for an operation that estimates nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy.special import ndtri

import checks

PVE = 0.5
NOISE_SD = 0.2
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], float | None]
    spawns: Callable[[], bool] = lambda: False  # whether the work runs in a child process


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def gaussian_design(rng, n: int, p: int, rho: float) -> np.ndarray:
    """Standard normal columns, AR(1)-correlated across columns at level ``rho``."""
    x = rng.standard_normal((n, p))
    if rho:
        w = np.sqrt(1.0 - rho * rho)
        for j in range(1, p):
            x[:, j] = rho * x[:, j - 1] + w * x[:, j]
    return x


@dataclass
class Regression:
    """A training set, held-out rows and the true coefficients."""

    X: np.ndarray
    y: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    b: np.ndarray


def regression(rng, n: int, n_test: int, b: np.ndarray, rho: float = 0.0, pve: float = PVE) -> Regression:
    """Responses at proportion of variance explained ``pve``, Gaussian noise."""
    X = gaussian_design(rng, n + n_test, b.size, rho)
    signal = X @ b
    y = signal + rng.normal(0.0, np.sqrt(np.var(signal) * (1.0 - pve) / pve), signal.size)
    return Regression(X[:n], y[:n], X[n:], y[n:], b)


def normal_scores(rng, m: int) -> np.ndarray:
    """The quantiles of N(0, 1) at levels (k + 1/2) / m, in random order.

    Effects of these fixed sizes keep a fit's difficulty, and so its run time,
    from swinging with the seed as much as m normal draws would.  For odd m
    the middle score is exactly 0.
    """
    return rng.permutation(ndtri((np.arange(m) + 0.5) / m))


def sparse_coefficients(rng, p: int, s: int) -> np.ndarray:
    """s effects at the normal scores, at uniformly drawn positions."""
    b = np.zeros(p)
    b[rng.choice(p, size=s, replace=False)] = normal_scores(rng, s)
    return b


def piecewise_image(rng, size: int) -> np.ndarray:
    """A dim background (grey level below 0.15) plus sixteen brighter rectangles (0.3 to 0.9)."""
    img = np.full((size, size), rng.uniform(0.0, 0.15))
    for _ in range(16):
        h, w = rng.integers(max(2, size // 16), size // 4, size=2)
        r, c = rng.integers(0, size - h), rng.integers(0, size - w)
        img[r:r + h, c:c + w] = rng.uniform(0.3, 0.9)
    return img


# ---------------------------------------------------------------------------
# Checks shared by every regression fit
# ---------------------------------------------------------------------------


def check_fit(result, data: Regression, y_hat, prior=None) -> float:
    """Checks every regression fit must pass; returns test RMSE over the oracle's."""
    checks.elbo_nondecreasing(result.elbo_trace)
    checks.fitted_match_raw(result.fitted_values, data.X, result.coefficients, result.intercept)
    checks.null_mass_in_unit_interval(result.prior_null_mass, "prior null mass")
    checks.null_mass_in_unit_interval(result.summaries.null_prob, "posterior null probability")
    if prior is not None and prior.prior_null_mass() is not None:
        checks.null_mass_in_unit_interval(prior.prior_null_mass(), "per-covariate prior null mass")
    checks.beats_mean_predictor(data.y_test, y_hat, float(np.mean(data.y)))
    return checks.rmse(y_hat, data.y_test) / checks.rmse(data.X_test @ data.b, data.y_test)


def _fit_and_predict(nash, data: Regression, prior, side, config=None):
    result = nash.fit(nash.Dataset(y=data.y, X=data.X), side, prior, config)
    return result, nash.predict(result, data.X_test)


# ---------------------------------------------------------------------------
# ash-desk
# ---------------------------------------------------------------------------

ASH_SHAPES = [(500, 1000, s, rho) for s in (5, 20, 100) for rho in (0.0, 0.9)] + [(20000, 500, 20, 0.0)]


def ash_desk(nash, seed: int, workdir: str, cli: CliRunner) -> tuple[list[Op], Op]:
    ops = []
    for k, (n, p, s, rho) in enumerate(ASH_SHAPES):
        rng = _rng(seed, 1, k)
        data = regression(rng, n, max(1000, n // 10), sparse_coefficients(rng, p, s), rho)
        ops.append(_ash_op(nash, f"ash n={n} p={p} s={s} rho={rho}", data))
    rng = _rng(seed, 1, 99)
    warm = regression(rng, 100, 100, sparse_coefficients(rng, 200, 5))
    return ops, _ash_op(nash, "warm-up", warm)


def _ash_op(nash, name: str, data: Regression) -> Op:
    return Op(
        name,
        lambda: _fit_and_predict(nash, data, nash.AshPrior(), nash.SideInfo.none()),
        lambda out: check_fit(out[0], data, out[1]),
    )


# ---------------------------------------------------------------------------
# side-info
# ---------------------------------------------------------------------------

SIDE_N, SIDE_P, SIDE_TEST = 400, 500, 1000
DENSE, DENSE_NONZERO, SPARSE_NONZERO = 50, 25, 5
# The group check needs a signal the groups can be told apart by: at PVE 0.5
# the softmax prior collapses to null mass ~1 in both groups on some seeds.
GROUP_PVE = 0.72
# Sweep budgets that bind on every seed tried (uncapped, the softmax fit stops
# after 82-94 sweeps and the MDN fit after 23-44), so the work of a network
# fit does not swing with the seed.
SOFTMAX_SWEEPS, MDN_SWEEPS = 60, 20
SIDE_DRAWS = 2


def side_info(nash, seed: int, workdir: str, cli: CliRunner) -> tuple[list[Op], Op]:
    ops = []
    for d in range(SIDE_DRAWS):
        ops += _side_info_draw(nash, seed, d)
    rng = _rng(seed, 2, 99)
    warm = regression(rng, 60, 60, sparse_coefficients(rng, 40, 4))
    warm_d = np.eye(2)[np.arange(40) % 2]
    warm_op = Op(
        "warm-up",
        lambda: _fit_and_predict(nash, warm, nash.SoftmaxPrior(warm_d), nash.SideInfo.from_features(warm_d)),
        lambda out: None,
    )
    return ops, warm_op


def _side_info_draw(nash, seed: int, draw: int) -> list[Op]:
    rng = _rng(seed, 2, 0, draw)
    order = rng.permutation(SIDE_P)
    dense, sparse = np.sort(order[:DENSE]), np.sort(order[DENSE:])
    b = np.zeros(SIDE_P)
    b[rng.choice(dense, DENSE_NONZERO, replace=False)] = normal_scores(rng, DENSE_NONZERO)
    b[rng.choice(sparse, SPARSE_NONZERO, replace=False)] = normal_scores(rng, SPARSE_NONZERO)
    groups = regression(rng, SIDE_N, SIDE_TEST, b, pve=GROUP_PVE)
    D = np.zeros((SIDE_P, 2))
    D[dense, 0] = 1.0
    D[sparse, 1] = 1.0

    rng = _rng(seed, 2, 1, draw)
    chain_b = np.zeros(SIDE_P)
    cuts = np.sort(rng.choice(np.arange(1, SIDE_P), size=9, replace=False))
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, SIDE_P]):
        if rng.random() < 0.4:
            chain_b[lo:hi] = rng.normal(0.0, 1.0)
    chain = regression(rng, SIDE_N, SIDE_TEST, chain_b)

    def grouped(name, make_prior, sweeps) -> Op:
        def run():
            prior = make_prior()
            config = nash.FitConfig(max_sweeps=sweeps)
            return (*_fit_and_predict(nash, groups, prior, nash.SideInfo.from_features(D), config), prior)

        def check(out):
            result, y_hat, prior = out
            rel = check_fit(result, groups, y_hat, prior)
            checks.dense_group_less_null(prior.prior_null_mass(), dense, sparse)
            return rel

        return Op(f"{name} (draw {draw})", run, check)

    def fused_run():
        graph = nash.Graph.chain(SIDE_P)
        return _fit_and_predict(nash, chain, nash.FusedPrior(graph), nash.SideInfo.from_graph(graph))

    return [
        grouped("softmax", lambda: nash.SoftmaxPrior(D), SOFTMAX_SWEEPS),
        grouped("mdn", lambda: nash.MdnPrior(D), MDN_SWEEPS),
        Op(f"fused chain (draw {draw})", fused_run, lambda out: check_fit(out[0], chain, out[1])),
    ]


# ---------------------------------------------------------------------------
# denoise
# ---------------------------------------------------------------------------

# several images of the smaller sizes steady the mean error ratio of a round,
# and put a 128 x 128 image at its median
IMAGE_SIZES = (64, 64, 128, 128, 128, 128, 256)


def denoise(nash, seed: int, workdir: str, cli: CliRunner) -> tuple[list[Op], Op]:
    ops = []
    for k, size in enumerate((*IMAGE_SIZES, 24)):
        rng = _rng(seed, 3, k)
        clean = piecewise_image(rng, size)
        noisy = clean + rng.normal(0.0, NOISE_SD, clean.shape)
        ops.append(_denoise_op(nash, f"denoise {size}x{size}", clean, noisy))
    return ops[:-1], ops[-1]


def _denoise_op(nash, name: str, clean, noisy) -> Op:
    def run():
        return nash.denoise_image(noisy, nash.DenoiseConfig(noise_sd=NOISE_SD), with_info=True)

    def check(out):
        denoised, info = out
        checks.elbo_nondecreasing(info["elbo_trace"], "denoising ELBO")
        return checks.denoised_improves(denoised, noisy, clean)

    return Op(name, run, check)


# ---------------------------------------------------------------------------
# cli-files
# ---------------------------------------------------------------------------

# predict reads the first CLI_PREDICT held-out rows from a CSV; the fit's error
# ratio is measured on all CLI_TEST of them, from the written model
CLI_N, CLI_P, CLI_S, CLI_RHO, CLI_TEST, CLI_PREDICT = 500, 1000, 20, 0.9, 4000, 200
# a sweep budget that binds on every seed tried (left to converge, these fits
# stop after 35-60 sweeps), so the fit, the median command, does fixed work
CLI_SWEEPS = 30
CLI_IMAGE = 128
# experiment 4 varies the coefficient law over three settings; two replicates
# make each simulate command outlast the fit command, so the median operation
# of a round is the fit rather than whichever simulate run is faster
SIM_ARGS = ["--experiment", "4", "--replicates", "2", "--n", "100", "--p", "50"]
SIM_ROWS = 3 * 2


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    report: dict | None = None  # the child's kernel samples, see child.py


class CliRunner:
    """Runs ``nash`` commands in a child interpreter (child.py), or in-process
    through ``nash.cli.main``."""

    def __init__(self, src_dir: str, report_path: str):
        self.in_process = False
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        self.report_path = report_path

    def __call__(self, argv: list[str]) -> CliResult:
        if self.in_process:
            import nash.cli

            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = nash.cli.main(argv)
            return CliResult(code, out.getvalue(), err.getvalue())
        if os.path.exists(self.report_path):
            os.remove(self.report_path)
        proc = subprocess.run(
            [sys.executable, CHILD, self.report_path, *argv],
            env=self.env, capture_output=True, text=True, check=False,
        )
        report = None
        if proc.returncode == 0:
            with open(self.report_path, encoding="utf-8") as fh:
                report = json.load(fh)
        return CliResult(proc.returncode, proc.stdout, proc.stderr, report)


def _write_csv(path: str, rows: np.ndarray) -> None:
    rows = np.atleast_2d(rows)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def cli_files(nash, seed: int, workdir: str, cli: CliRunner) -> tuple[list[Op], Op]:
    rng = _rng(seed, 4, 0)
    data = regression(rng, CLI_N, CLI_TEST, sparse_coefficients(rng, CLI_P, CLI_S), rho=CLI_RHO)
    f = {name: os.path.join(workdir, name) for name in (
        "X.csv", "y.csv", "X_new.csv", "model.json", "pred.csv",
        "noisy.pgm", "clean.pgm", "denoised.pgm", "sim1.csv", "sim2.csv", "warm.pgm", "warm_out.pgm",
    )}
    _write_csv(f["X.csv"], data.X)
    _write_csv(f["y.csv"], data.y[:, None])
    X_new = data.X_test[:CLI_PREDICT]
    _write_csv(f["X_new.csv"], X_new)
    rng = _rng(seed, 4, 1)
    clean = piecewise_image(rng, CLI_IMAGE)
    checks.write_pgm(f["clean.pgm"], clean)
    checks.write_pgm(f["noisy.pgm"], clean + rng.normal(0.0, NOISE_SD, clean.shape))
    checks.write_pgm(f["warm.pgm"], piecewise_image(rng, 16))

    def command(argv):
        def run():
            res = cli(argv)
            if res.code != 0:
                raise RuntimeError(f"nash {argv[0]} exited {res.code}: {res.stderr.strip()}")
            return res
        return run

    def op(name, argv, check):
        return Op(name, command(argv), check, spawns=lambda: not cli.in_process)

    def load_model():
        with open(f["model.json"], encoding="utf-8") as fh:
            model = json.load(fh)
        return model, np.asarray(model["coefficients"], dtype=float), float(model["intercept"])

    def check_fit_cmd(res):
        model, coefficients, intercept = load_model()
        checks.elbo_nondecreasing(model["elbo_trace"])
        pi0 = dict(tok.split("=", 1) for tok in res.stdout.split() if "=" in tok).get("pi0")
        if pi0 is None:
            raise checks.CheckFailed("nash fit printed no pi0")
        checks.null_mass_in_unit_interval(float(pi0), "printed pi0")
        y_hat = data.X_test @ coefficients + intercept
        checks.beats_mean_predictor(data.y_test, y_hat, float(np.mean(data.y)))
        return checks.rmse(y_hat, data.y_test) / checks.rmse(data.X_test @ data.b, data.y_test)

    def check_predict(res):
        _, coefficients, intercept = load_model()
        checks.predictions_file(f["pred.csv"], X_new @ coefficients + intercept)
        return None

    def check_denoise(res):
        truth = checks.read_pgm(f["clean.pgm"])
        denoised = checks.read_pgm(f["denoised.pgm"])
        checks.printed_rmse_matches(res.stdout, checks.rmse(denoised, truth))
        return checks.denoised_improves(denoised, checks.read_pgm(f["noisy.pgm"]), truth)

    def check_simulate(res):
        with open(f["sim1.csv"], "rb") as a, open(f["sim2.csv"], "rb") as b:
            checks.simulate_outputs_agree(a.read(), b.read(), SIM_ROWS)
        return None

    sim = [*SIM_ARGS, "--seed", str(seed)]
    ops = [
        op("fit", ["fit", "--x", f["X.csv"], "--y", f["y.csv"], "--out", f["model.json"],
                   "--seed", str(seed), "--max-sweeps", str(CLI_SWEEPS)], check_fit_cmd),
        op("predict", ["predict", "--model", f["model.json"], "--x", f["X_new.csv"],
                       "--out", f["pred.csv"]], check_predict),
        op("denoise", ["denoise", "--image", f["noisy.pgm"], "--out", f["denoised.pgm"],
                       "--truth", f["clean.pgm"], "--sigma", str(NOISE_SD)], check_denoise),
        op("simulate --threads 1", ["simulate", *sim, "--threads", "1", "--out", f["sim1.csv"]],
           lambda res: None),
        op("simulate --threads 2", ["simulate", *sim, "--threads", "2", "--out", f["sim2.csv"]],
           check_simulate),
    ]
    warm_op = op("warm-up", ["denoise", "--image", f["warm.pgm"], "--out", f["warm_out.pgm"]],
                 lambda res: None)
    return ops, warm_op


WORKLOADS = {
    "ash-desk": ash_desk,
    "side-info": side_info,
    "denoise": denoise,
    "cli-files": cli_files,
}
