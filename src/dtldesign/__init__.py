"""Design engine for multi-stage drop-the-loser trials with early stopping.

The package calibrates superiority stopping boundaries to control the
pairwise type I error rate, searches for the per-stage sample size that
powers the trial under the least favorable configuration, evaluates
operating characteristics analytically through multivariate-normal rectangle
probabilities, and cross-checks every analytic number with an independent
Monte Carlo simulator.

Typical use goes through four layers: `mvn` integrates one rectangle,
`covariance` + `events` turn a design and effect vector into rectangle
problems, `calibrate` + `characteristics` search and report on top of them,
and `simulate` reproduces everything by brute force.  `cli.main` is the
command-line entry point.
"""

from .calibrate import (
    BoundaryShape,
    BracketError,
    CalibrationConfig,
    ConvergenceError,
    SearchLimitError,
    calibrate_boundaries,
    find_sample_size,
)
from .characteristics import full_report
from .covariance import EffectConfig, TrialDesign
from .endpoint import BinaryEndpointSpec, binary_to_normal
from .events import CapacityError
from .mvn import (
    NotPositiveSemiDefiniteError,
    OrthantProblem,
    ProbabilityEstimate,
    mvn_rectangle_prob,
)
from .simulate import estimate_characteristics

# The pipeline of the README example, the integrator, and the public
# exceptions; everything else is imported from its module.
__all__ = [
    "BinaryEndpointSpec",
    "BoundaryShape",
    "BracketError",
    "CalibrationConfig",
    "CapacityError",
    "ConvergenceError",
    "EffectConfig",
    "NotPositiveSemiDefiniteError",
    "OrthantProblem",
    "ProbabilityEstimate",
    "SearchLimitError",
    "TrialDesign",
    "binary_to_normal",
    "calibrate_boundaries",
    "estimate_characteristics",
    "find_sample_size",
    "full_report",
    "mvn_rectangle_prob",
]

__version__ = "0.1.0"
