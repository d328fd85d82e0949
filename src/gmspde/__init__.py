"""Spectral-Galerkin simulator for a stochastic activator-inhibitor system.

Modules:
    spectral     Neumann eigenbasis, transforms, quadrature
    rng          counter-based (Philox) standard normals, one box per call
    noise        Q-Wiener increment sources (reproducible, coupled, drawn ahead)
    dynamics     Ito/Stratonovich exponential time stepping, positivity floor
    functionals  xi = 1/v, Lyapunov functionals, growth monitors
    experiments  Picard fixed point, uniqueness study, ensembles
    acceptance   the executable acceptance criteria behind ``selftest``
    config/io/cli  run configuration, file formats, command line
"""

__version__ = "0.1.0"

from .dynamics import ModelParams, SchemeConfig, steady_state
from .functionals import FunctionalConfig
from .noise import NoiseSpec
from .spectral import DomainSpec, SpectralBasis, build_basis

__all__ = [
    "DomainSpec",
    "SpectralBasis",
    "build_basis",
    "NoiseSpec",
    "ModelParams",
    "SchemeConfig",
    "steady_state",
    "FunctionalConfig",
    "__version__",
]
