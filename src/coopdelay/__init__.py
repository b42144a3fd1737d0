"""coopdelay: simulation and global-asymptotics analysis of two-component
cooperative systems with distributed, possibly time-varying delays."""

from .analysis import (
    BoundSequences,
    CertificationReport,
    Classification,
    PermanenceBox,
    RelationClass,
    certify_run,
    classify,
    contraction_iteration,
    find_equilibrium,
    monotone_iteration,
    permanence_bounds,
    scan_relation,
)
from .config import ConfigError, Numerics, RunConfig, load_config, system_from_mapping
from .dynamics import InitialFunction, SystemSpec, check_rate_divergence, rhs, validate_system
from .expr import EvalDomainError, Expression, ParseError, parse
from .functions import (
    InverseRangeError,
    ProductionFunction,
    inverse,
    verify_increasing,
)
from .integrator import (
    RunOutcome,
    Trajectory,
    detect_nonoscillation_violation,
    integrate,
)
from .kernels import (
    DelayKernel,
    GeneralMixtureKernel,
    HistoryUnderflowError,
    PointMassKernel,
    TriangularDensityKernel,
    UniformDensityKernel,
    validate_kernel,
)
from .presets import PRESETS, preset_system_mapping

__version__ = "0.1.0"
