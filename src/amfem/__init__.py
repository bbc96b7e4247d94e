"""Adaptive mixed finite elements for the 2D Poisson problem.

Lowest-order Raviart-Thomas flux discretization on conforming triangle
meshes, newest-vertex bisection refinement, a residual edge estimator with
data oscillation, Doerfler marking, and the adaptive loop plus a two-stage
variant that preprocesses the data oscillation.
"""

__version__ = "0.1.0"

from .mesh import (Mesh, MeshFormatError, NotNestedError, load_mesh,
                   save_mesh, refine_edges, uniform_refine)
from .sources import FunctionSource, P0Source, as_source
from .fespace import RTSpace, DofVector, interpolate_rt, prolongate
from .assembly import (ProblemSpec, MixedSolution, SolverError, assemble,
                       solve, solve_poisson, error_sigma)
from .estimator import EstimatorReport, oscillation, estimate
from .adapt import (AdaptParams, ConvergenceHistory, dorfler_mark, osc_mark,
                    amfem, approx, two_stage)

__all__ = [name for name in dir() if not name.startswith("_")]
