"""Simulation and fractal analysis of rough differential equations driven by
fractional Brownian motion.

Layers: exact fBm synthesis (fbm), the truncated signature algebra
(roughpath), increment schemes for the driven state equation (fields,
solver), fractal and distributional estimators (dimension, density), and a
declarative experiment harness with a CLI (config, harness, cli).
"""

__version__ = "0.1.0"

from .config import ExperimentSpec, parse_spec, parse_spec_file
from .fbm import (
    CovarianceGrid,
    HurstParam,
    SamplePath,
    TimeGrid,
    build_covariance_grid,
    covariance,
    generate_cholesky,
    generate_circulant,
    kernel_kh,
    read_path,
    write_path,
)
from .fields import VectorFieldSet, resolve_fields
from .roughpath import (
    SignaturePath,
    TruncatedTensor,
    chen_concat,
    lift_path,
    segment_signature,
)
from .solver import EllipticityReport, SolverScheme, check_ellipticity, solve

__all__ = [
    "CovarianceGrid",
    "EllipticityReport",
    "ExperimentSpec",
    "HurstParam",
    "SamplePath",
    "SignaturePath",
    "SolverScheme",
    "TimeGrid",
    "TruncatedTensor",
    "VectorFieldSet",
    "build_covariance_grid",
    "chen_concat",
    "check_ellipticity",
    "covariance",
    "generate_cholesky",
    "generate_circulant",
    "kernel_kh",
    "lift_path",
    "parse_spec",
    "parse_spec_file",
    "read_path",
    "resolve_fields",
    "segment_signature",
    "solve",
    "write_path",
]
