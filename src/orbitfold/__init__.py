"""Orbit folding and smoothing for finite reflection groups."""

from .calculus import (
    GrowthReport,
    ProbeReport,
    growth_bound_check,
    origin_line_probe,
)
from .chamber import (
    Chamber,
    Face,
    FoldResult,
    Stratification,
    StratumDescriptor,
    chamber_from_group,
    classify,
    fold,
    strata_levels,
)
from .config import ConfigError, RunConfig, parse_config, serialize_config
from .groups import (
    GroupClosureError,
    GroupElement,
    Hyperplane,
    ReflectionGroup,
    essential_split,
    generate_group,
    preset_group,
)
from .polar import (
    PolarModel,
    eigen_crossing_curve,
    equidistance_probe,
    jacobi_eigensystem,
    model_H,
    radial_model,
    sym_eig_model,
)
from .smoothing import (
    SmoothChain,
    TubeConfigError,
    TubeSpec,
    apply_G,
    apply_H,
    build_chain,
    default_tubes,
    eval_h,
    eval_l,
)
from .verify import CheckResult, run_verification, validate_tubes

__version__ = "0.1.0"

__all__ = [
    "Chamber",
    "CheckResult",
    "ConfigError",
    "Face",
    "FoldResult",
    "GroupClosureError",
    "GroupElement",
    "GrowthReport",
    "Hyperplane",
    "PolarModel",
    "ProbeReport",
    "ReflectionGroup",
    "RunConfig",
    "SmoothChain",
    "Stratification",
    "StratumDescriptor",
    "TubeConfigError",
    "TubeSpec",
    "apply_G",
    "apply_H",
    "build_chain",
    "chamber_from_group",
    "classify",
    "default_tubes",
    "eigen_crossing_curve",
    "equidistance_probe",
    "essential_split",
    "eval_h",
    "eval_l",
    "fold",
    "generate_group",
    "growth_bound_check",
    "jacobi_eigensystem",
    "model_H",
    "origin_line_probe",
    "parse_config",
    "preset_group",
    "radial_model",
    "run_verification",
    "serialize_config",
    "strata_levels",
    "sym_eig_model",
    "validate_tubes",
]
