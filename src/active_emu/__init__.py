"""Active construction of multi-output Gaussian-process emulators.

Sequentially queries an expensive black-box function at the maximizer of an
acquisition function combining predictive variance and predicted gradient
norm, producing a compact lookup table plus a fitted emulator.
"""

from .acquisition import AcquisitionSpec, InputPrior, TemperingSchedule
from .gp import Dataset, IllConditionedError
from .kernels import KernelParams
from .loop import EmulationResult, LoopConfig, baseline_run, run
from .multi_output import MultiGpModel, fit_all
from .optimize import AnnealingConfig, AscentConfig, OptimizerConfig, maximize
from .simulators import Simulator, SimulatorError, make_simulator

__version__ = "0.1.0"

__all__ = [
    "AcquisitionSpec",
    "AnnealingConfig",
    "AscentConfig",
    "Dataset",
    "EmulationResult",
    "IllConditionedError",
    "InputPrior",
    "KernelParams",
    "LoopConfig",
    "MultiGpModel",
    "OptimizerConfig",
    "Simulator",
    "SimulatorError",
    "TemperingSchedule",
    "baseline_run",
    "fit_all",
    "make_simulator",
    "maximize",
    "run",
    "__version__",
]
