"""ANN-based inverse kinematics for a 3-DOF arm, with Lipschitz error bounds
and a sample-count sweep that measures how tracking accuracy scales with the
size of the training grid."""

from .bound import compute_bound_report
from .harness import HarnessConfig, run_sweep
from .neuralnet import TrainingConfig, train, train_lockstep
from .sampler import DEFAULT_BOX, generate_grid
from .trajectory import evaluate_tracking, make_rectangle_path

__all__ = [
    "DEFAULT_BOX", "HarnessConfig", "TrainingConfig", "compute_bound_report",
    "evaluate_tracking", "generate_grid", "make_rectangle_path",
    "run_sweep", "train", "train_lockstep",
]

__version__ = "0.1.0"
