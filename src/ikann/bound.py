"""Error-bound machinery for the trained network: global bounds on its
Jacobian, the Lipschitz constant, and the sample-count error estimate. Every
quantity comes from the weights alone; nothing here evaluates the network at
a point.

Two derivative bounds are kept side by side:

* ``jacobian_inf_norm_bound`` is the sound all-active relaxation
  max_k sum_ij |w2[k,j]| |w1[j,i]|, an upper bound on the true infinity norm
  of the network Jacobian anywhere.
* ``mean_abs_output_weight`` (w_bar) is the cruder output-layer average used
  by the sample-count estimate, which bounds each partial derivative by w_bar
  alone and the row sum by 3*w_bar.

The Lipschitz constant is sqrt(3) times the infinity-norm bound (3 input
dimensions). The sample-count estimate for a k^3 grid normalized to [0, 1]^3
evaluates (27*w_bar^2 + 1) / (4*(cuberoot(n) - 1)^2); rescaling to mm
multiplies by the mean box span, a calibration constant.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NotACube, warn_caller
from .neuralnet import NetworkParams
from .sampler import WorkspaceBox, exact_cube_root, half_spacing_normalized

# Trained weights are expected to settle within this magnitude; larger values
# make w_bar-based estimates very loose.
WEIGHT_RANGE_LIMIT = 5.0


class WeightRangeWarning(UserWarning):
    pass


@dataclass(frozen=True)
class BoundReport:
    gamma: float
    w_bar: float
    n: int
    half_spacing: float
    bound_normalized: float
    e_est_mm: float
    rescale_factor_mm: float

    def as_dict(self) -> dict:
        return asdict(self)


def jacobian_inf_norm_bound(p: NetworkParams) -> float:
    """Global upper bound on ||J(x)||_inf: all-active weight-product row sums."""
    return float(np.max(np.sum(np.abs(p.w2) @ np.abs(p.w1), axis=1)))


def lipschitz_gamma(p: NetworkParams) -> float:
    return math.sqrt(3.0) * jacobian_inf_norm_bound(p)


def mean_abs_output_weight(p: NetworkParams) -> float:
    """w_bar: mean absolute hidden-to-output weight."""
    return float(np.mean(np.abs(p.w2)))


def sample_bound(n: int, w_bar: float) -> float:
    """Worst-case normalized squared-error estimate for a k^3 training grid:
    (27*w_bar^2 + 1) / (4*(k - 1)^2). Raises NotACube for non-cube n."""
    k = exact_cube_root(n)
    if k < 2:
        raise NotACube("sample count must be a cube of k >= 2")
    return (27.0 * w_bar * w_bar + 1.0) / (4.0 * (k - 1) ** 2)


def rescale_to_mm(bound_normalized: float, box: WorkspaceBox) -> float:
    """Linear rescale of the normalized estimate into mm. The factor is the
    mean per-axis span of the box; it is a calibration constant, not a
    derived quantity."""
    return bound_normalized * float(np.mean(box.span))


def check_weight_range(p: NetworkParams):
    """Warn (WeightRangeWarning) when any weight magnitude leaves the expected
    range."""
    biggest = max(float(np.max(np.abs(p.w1))), float(np.max(np.abs(p.w2))))
    if biggest > WEIGHT_RANGE_LIMIT:
        warn_caller(f"trained weight magnitude {biggest:.3g} exceeds the expected "
                    f"[-{WEIGHT_RANGE_LIMIT:g}, {WEIGHT_RANGE_LIMIT:g}] range; "
                    "w_bar-based estimates may be loose", WeightRangeWarning)


def compute_bound_report(p: NetworkParams, n: int, box: WorkspaceBox) -> BoundReport:
    """Assemble every bound quantity for a trained model and sample count."""
    w_bar = mean_abs_output_weight(p)
    normalized = sample_bound(n, w_bar)   # a bad n raises before any warning
    check_weight_range(p)
    return BoundReport(
        gamma=lipschitz_gamma(p),
        w_bar=w_bar,
        n=n,
        half_spacing=half_spacing_normalized(n),
        bound_normalized=normalized,
        e_est_mm=rescale_to_mm(normalized, box),
        rescale_factor_mm=rescale_to_mm(1.0, box),
    )
