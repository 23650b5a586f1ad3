"""ANN-based inverse kinematics for a 3-DOF arm, with Lipschitz error bounds
and a sample-count sweep that measures how tracking accuracy scales with the
size of the training grid."""

from .bound import (BoundReport, compute_bound_report, error_bound_at,
                    jacobian_at, jacobian_inf_norm_bound, lipschitz_gamma,
                    mean_abs_output_weight, rescale_to_mm, sample_bound)
from .errors import (DegenerateAxis, IkannError, InsufficientData, NonFiniteLoss,
                     NotACube, UnreachableGridPoint, UnreachableTarget)
from .harness import (HarnessConfig, SweepRow, SweepSummary, emit_report,
                      export_dataset, fit_convergence_rate, import_dataset,
                      load_model, load_report, run_experiment, run_sweep,
                      save_model)
from .kinematics import (DEFAULT_GEOMETRY, RobotGeometry, forward_kinematics,
                         forward_kinematics_batch, inverse_kinematics,
                         is_reachable)
from .neuralnet import (AdamState, Gradients, NetworkParams, TrainingConfig,
                        TrainingTrace, adam_step, backward, forward,
                        init_adam_state, init_params, loss, predict,
                        split_dataset, train, train_many)
from .sampler import (DEFAULT_BOX, TrainingSet, WorkspaceBox, denormalize_input,
                      generate_grid, half_spacing_normalized, normalize_input,
                      spacing_mm)
from .trajectory import (EvalReport, TrajectorySpec, evaluate_tracking,
                         error_to_spacing, exact_ik_model, make_heart_path,
                         make_rectangle_path)

__version__ = "0.1.0"
