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

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` unless
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is
already set, so a user's choice wins.  OpenBLAS reads it when numpy
loads: a process that imported numpy before ``gmspde`` keeps its BLAS
threads.  Outputs do not depend on the thread count.
"""

import os

# One BLAS thread: the products here are small (K <= 256 modes, at most
# 129 nodes an axis), and past OpenBLAS's threading threshold its
# workers spin beside the stepper.  On 2 cores, the first command of a
# fresh process used 71-106 ms of CPU for 34-52 ms of wall time on
# sim_2d's simulate (9-22 involuntary context switches) and 74-102 ms
# for 37-50 ms on picard_1d's fixedpoint; on one thread, CPU time is
# wall time.  Medians of alternating perfbench pairs: picard_1d wall_s
# 0.0548 -> 0.0371 s (lower in 10 of 10), sim_2d 0.0403 -> 0.0319 s,
# ens_1d 0.0449 -> 0.0444 s; every output is byte-identical.
if not any(name in os.environ for name in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
