"""Desk-scale numerical laboratory for regularity loss in semilinear
heat, Schroedinger and Ginzburg-Landau equations."""

__version__ = "0.1.0"

from .errors import (
    BlowUpError,
    ConfigError,
    DegenerateInput,
    DomainError,
    FormatError,
    InsufficientSnapshots,
    IoError,
    NonConvergence,
    RegLabError,
    ResolutionError,
    SizeMismatch,
    StepSizeError,
    VersionError,
)
from .grids import (
    Grid1D,
    GridFunction,
    TrigInterpolant,
    forward_transform,
    odd_part,
    reflect_y,
    spectral_derivative,
)
from .numerics import (
    RegressionFit,
    gaussian_moment,
    loglog_fit,
)
from .ode import (
    NonlinearityParams,
    OdeProblem,
    OdeRun,
    exact_first_derivative,
    exact_flow,
    exact_second_derivative,
    exact_solution,
    holder_defect,
    integrate_family,
    integrate_perturbed,
    integrating_factor,
    representation_check,
)
from .kernels import (
    KernelProbe,
    c_alpha,
    fifth_derivative_at_zero,
    odd_power_probe,
)
from .evolution import (
    InitialData,
    Trajectory,
    make_odd_bump,
    remainder_decomposition,
    sample_initial_data,
    solve,
)
from .diagnostics import (
    DuhamelProbe,
    ScalingParams,
    SobolevIndex,
    appendix_inequality_checks,
    duhamel_fifth_derivative_rate,
    hs_norm,
    illposedness_exponent_report,
    scaling_transform,
    synthetic_slice_check,
    third_derivative_holder_scan,
)
from .trajio import load_trajectory, save_trajectory, validate_report, write_report
