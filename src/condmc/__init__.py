"""condmc: kernel-free conditional Monte Carlo for diffusions.

Estimates E[loss(X) | constraint(X) = 0] for Euler-discretized SDE paths by
rewriting the conditioning as a quotient of Skorohod-integral expectations
(no kernel bandwidth), and differentiates such losses in the drift parameter
with a measure-splitting (weak-derivative) branch estimator whose variance
stays bounded in the horizon.  Ships kernel-smoothing and score-function
baselines, a projected SGD driver, and a benchmark CLI.
"""

from .errors import (
    CoefficientShapeError,
    CondMcError,
    ConfigError,
    DegenerateConstraint,
    DegenerateDenominator,
    EmptyKernelMass,
    NonAdaptedWithoutFactorization,
    NonDiagonalDiffusion,
    NonFiniteEstimate,
    NonFiniteState,
    SingularDiffusion,
    SingularJacobian,
    ZeroSensitivity,
)
from .functionals import (
    PathFunctional,
    constant_functional,
    derivative_profile,
    integral_functional,
    malliavin_derivative_state,
    marginal_power,
    shift_functional,
    terminal_power,
)
from .malliavin import (
    WeightProcess,
    conditional_loss_estimate,
    kernel_loss_estimate,
    make_weight_canonical,
    skorohod_integral,
)
from .reports import ConditionalLossReport, EstimatorReport, GradientReport
from .runconfig import RunConfig, parse_config_file, resolve_config
from .tableio import ResultTable
from .optimizer import (
    IterationRecord,
    OptimizationTrace,
    OptimizerConfig,
    counterfactual_gradient,
    quotient_gradient,
    run_sgd,
)
from .weakderiv import (
    HjComponent,
    HjDecomposition,
    branch_densities,
    hj_decompose,
    hj_gradient,
    hj_single_branch,
    sample_branch_pair,
    score_function_gradient,
    signed_density,
)
from .sde import (
    JacobianPath,
    NoisePath,
    PathBatch,
    SdeModel,
    TimeGrid,
    fsum,
    generate_noise,
    mean_reverting_model,
    ou_conditional_second_moment,
    ou_model,
    ou_terminal_variance,
    resume_path,
    simulate_path,
    simulate_paths,
    validate_drift_gradient,
)
from .streams import child_seed, stream

__version__ = "0.1.0"
