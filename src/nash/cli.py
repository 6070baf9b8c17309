"""Command-line interface: fit, predict, simulate, denoise.

Exit codes: 0 on success, 2 for usage, input or output problems, 3 for numeric
failures.  Every error path emits a single diagnostic line prefixed with
``error:`` on stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .ash import AshPrior
from .data import (
    Dataset,
    SideInfo,
    drop_constant_columns,
    load_matrix_csv,
    load_response_csv,
    load_side_csv,
)
from .engine import FitConfig, fit
from .errors import (
    ConfigError,
    DimensionMismatchError,
    NashError,
    NonFiniteGradientError,
    NonPositiveVarianceError,
    QuadratureUnderflowError,
    StaleStateError,
)
from .fused import (
    DenoiseConfig,
    FusedPrior,
    FusedScales,
    Graph,
    denoise_image,
    load_graph_edges_csv,
    rmse,
)
from .model_io import load_model, predict_from_model, save_model
from .nets import MdnPrior, SoftmaxPrior, TrainConfig
from .pgm import read_pgm, write_pgm
from .simulate import ash_fitter, run_experiment, write_results_csv

USAGE_ERROR = 2
NUMERIC_ERROR = 3

_NUMERIC_ERRORS = (
    NonFiniteGradientError,
    QuadratureUnderflowError,
    NonPositiveVarianceError,
    StaleStateError,
    FloatingPointError,
)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose failures match the one-line diagnostic contract."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nash", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model from CSV inputs")
    p_fit.add_argument("--x", required=True, help="predictor matrix CSV")
    p_fit.add_argument("--y", required=True, help="response CSV (first column)")
    p_fit.add_argument("--side", help="side info: feature CSV, or for --prior fused one of "
                                      "'chain', 'grid:HxW', an edge-list file")
    p_fit.add_argument("--prior", choices=("ash", "softmax", "mdn", "fused"), default="ash")
    p_fit.add_argument("--out", required=True, help="output model JSON")
    p_fit.add_argument("--seed", type=int, default=0,
                       help="seed for network-prior (softmax, mdn) training; ash and fused fits "
                            "are deterministic without it")
    p_fit.add_argument("--max-sweeps", type=int, default=200)
    p_fit.add_argument("--elbo-tol", type=float, default=1e-6)
    p_fit.add_argument("--grid-size", type=int, default=20,
                       help="mixture components for ash/softmax priors")
    p_fit.add_argument("--hidden", type=int, default=None,
                       help="hidden units for network priors (default: softmax 0, mdn 16)")
    p_fit.add_argument("--mdn-components", type=int, default=5)
    p_fit.add_argument("--steps", type=int, default=500, help="network steps on the first sweep")
    p_fit.add_argument("--later-steps", type=int, default=50)
    p_fit.add_argument("--learning-rate", type=float, default=1e-3)
    p_fit.add_argument("--drop-constant", action="store_true",
                       help="drop zero-variance columns instead of failing")

    p_pred = sub.add_parser("predict", help="predict from a saved model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--x", required=True)
    p_pred.add_argument("--out", required=True)

    p_sim = sub.add_parser("simulate", help="run one of the canned experiments")
    p_sim.add_argument("--experiment", type=int, required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--replicates", type=int, default=None)
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--p", type=int, default=None)
    p_sim.add_argument("--s", type=int, default=None)
    p_sim.add_argument("--pve", type=float, default=None)
    p_sim.add_argument("--rho", type=float, default=None)
    p_sim.add_argument("--coef-dist", default=None)
    p_sim.add_argument("--noise-dist", default=None)
    p_sim.add_argument("--grid-size", type=int, default=20)
    p_sim.add_argument("--max-sweeps", type=int, default=200)
    p_sim.add_argument("--timing", action="store_true",
                       help="record wall time in the CSV (output no longer reproducible)")
    p_sim.add_argument("--threads", type=int, default=None,
                       help="ignored: replicates run one after another")

    p_den = sub.add_parser("denoise", help="denoise a grayscale PGM image")
    p_den.add_argument("--image", required=True)
    p_den.add_argument("--out", required=True)
    p_den.add_argument("--truth", help="clean image for RMSE reporting")
    p_den.add_argument("--sigma", type=float, default=None, help="noise standard deviation")
    p_den.add_argument("--sweeps", type=int, default=30)
    p_den.add_argument("--s1", type=float, default=0.45)
    p_den.add_argument("--s2", type=float, default=0.15)

    return parser


def _build_prior(args, p: int, kept: np.ndarray | None, seed: int):
    """The prior and the side information it holds for a design with ``p`` original columns.

    Side information always describes the original columns.  When
    ``--drop-constant`` kept only the columns ``kept``, feature rows are taken
    for those columns alone and graphs are built on all ``p`` columns, then
    restricted to the kept ones, so no edge links across a dropped column.
    """
    train_config = TrainConfig(
        learning_rate=args.learning_rate,
        steps=args.steps,
        later_steps=args.later_steps,
        seed=seed,
    )
    if args.prior == "ash":
        prior = AshPrior(n_components=args.grid_size)
        return prior, prior.side_info
    if args.prior in ("softmax", "mdn"):
        if not args.side:
            raise ConfigError(f"{args.prior} prior requires side information (--side)")
        D, _ = load_side_csv(args.side)
        SideInfo.from_features(D).check_p(p)
        if kept is not None:
            D = D[kept]
        net_args = {"train_config": train_config}
        if args.hidden is not None:
            net_args["hidden"] = args.hidden
        if args.prior == "softmax":
            prior = SoftmaxPrior(D, n_components=args.grid_size, **net_args)
        else:
            prior = MdnPrior(D, n_components=args.mdn_components, **net_args)
        return prior, prior.side_info
    if not args.side:
        raise ConfigError("fused prior requires a graph (--side chain | grid:HxW | edge file)")
    side_arg = args.side
    if side_arg == "chain":
        graph = Graph.chain(p)
    elif side_arg.startswith("grid:"):
        try:
            h, w = (int(v) for v in side_arg[5:].lower().split("x"))
        except ValueError:
            raise ConfigError(f"cannot parse grid size from {side_arg!r}") from None
        if h * w != p:
            raise DimensionMismatchError(f"grid {h}x{w} has {h * w} nodes but the design has {p} columns")
        graph = Graph.grid4(h, w)
    else:
        graph = load_graph_edges_csv(side_arg, p)
    if kept is not None:
        graph = graph.subgraph(kept)
    prior = FusedPrior(graph)
    return prior, prior.side_info


def cmd_fit(args) -> int:
    X, _ = load_matrix_csv(args.x)
    y = load_response_csv(args.y)
    dataset = Dataset(y=y, X=X)
    p = dataset.p
    columns = None
    if args.drop_constant:
        reduced, kept = drop_constant_columns(dataset)
        if kept.size < p:
            print(f"warning: dropped {p - kept.size} constant column(s)", file=sys.stderr)
            columns = kept
        dataset = reduced
    prior, side = _build_prior(args, p, columns, args.seed)
    config = FitConfig(max_sweeps=args.max_sweeps, elbo_tol=args.elbo_tol)
    result = fit(dataset, side, prior, config)
    save_model(result, args.out, columns=columns)
    print(
        f"final_elbo={result.elbo_trace[-1]!r} sweeps={result.sweeps} "
        f"converged={str(result.converged).lower()} pi0={result.prior_null_mass!r}"
    )
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    X, _ = load_matrix_csv(args.x)
    predictions = predict_from_model(model, X)
    with open(args.out, "w", encoding="utf-8") as fh:
        for value in predictions:
            fh.write(repr(float(value)) + "\n")
    print(f"wrote {predictions.size} prediction(s) to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    overrides = {}
    for key in ("replicates", "n", "p", "s", "pve", "rho"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    if args.coef_dist is not None:
        overrides["coef_dist"] = args.coef_dist
    if args.noise_dist is not None:
        overrides["noise_dist"] = args.noise_dist
    fitter = ash_fitter(n_components=args.grid_size, max_sweeps=args.max_sweeps)
    rows = run_experiment(args.experiment, overrides=overrides, seed=args.seed, fitter=fitter)
    write_results_csv(rows, args.out, timing=args.timing)
    mean_perf = float(np.mean([row.scaled_perf for row in rows]))
    print(f"rows={len(rows)} mean_scaled_perf={mean_perf!r}")
    return 0


def cmd_denoise(args) -> int:
    noisy = read_pgm(args.image)
    # the truth is checked before any work, so a bad one leaves no --out behind
    truth = read_pgm(args.truth) if args.truth else None
    if truth is not None and truth.shape != noisy.shape:
        raise DimensionMismatchError(f"truth shape {truth.shape} differs from image {noisy.shape}")
    config = DenoiseConfig(
        sweeps=args.sweeps,
        scales=FusedScales(args.s1, args.s2),
        noise_sd=args.sigma,
    )
    denoised = denoise_image(noisy, config)
    write_pgm(args.out, denoised)
    if truth is not None:
        print(f"rmse_noisy={rmse(noisy, truth)!r} rmse_denoised={rmse(denoised, truth)!r}")
    else:
        print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "fit": cmd_fit,
    "predict": cmd_predict,
    "simulate": cmd_simulate,
    "denoise": cmd_denoise,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit:
        raise
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except NashError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:  # an output file; the readers turn theirs into ParseError
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
