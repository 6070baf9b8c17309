"""Sparse high-dimensional regression with covariate-adaptive shrinkage priors."""

__version__ = "0.1.0"

from .ash import AshPrior, MixtureGrid, MixtureWeights, PosteriorStats
from .data import Dataset, SideInfo, StandardizedDesign, standardize, unstandardize
from .engine import FitConfig, FitResult, FitState, fit, predict
from .fused import DenoiseConfig, FusedPrior, FusedScales, Graph, denoise_image
from .nets import MdnPrior, MdnPriorNet, SoftmaxPrior, SoftmaxPriorNet, TrainConfig
from .simulate import SimulationConfig, run_experiment, scaled_pred_perf

__all__ = [
    "AshPrior",
    "Dataset",
    "DenoiseConfig",
    "FitConfig",
    "FitResult",
    "FitState",
    "FusedPrior",
    "FusedScales",
    "Graph",
    "MdnPrior",
    "MdnPriorNet",
    "MixtureGrid",
    "MixtureWeights",
    "PosteriorStats",
    "SideInfo",
    "SimulationConfig",
    "SoftmaxPrior",
    "SoftmaxPriorNet",
    "StandardizedDesign",
    "TrainConfig",
    "denoise_image",
    "fit",
    "predict",
    "run_experiment",
    "scaled_pred_perf",
    "standardize",
    "unstandardize",
]
