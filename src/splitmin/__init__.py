"""Direction-split residual-minimization solver for 2D advection-diffusion.

Building blocks: 1D B-spline spaces and Gauss-quadrature assembly, banded
linear algebra with operation counting, Kronecker-structured saddle solves
for per-direction substeps, four split time integrators, a general 2D
sparse path for direction-coupling winds, benchmark problems, and a
reporting CLI.
"""

from .assembly import advection, block, mass, stiffness
from .banded import BandedMatrix
from .exceptions import (DomainError, NonFiniteStateError, ParameterError,
                         SingularMatrixError)
from .full2d import RotatingFlowStepper, Space2D, assemble_2d_saddle, sparse_lu
from .kron import BandedLU, OpCounter, SaddleFactor, kron_matvec
from .problems import (ProblemDefinition, circular_wind, get_problem,
                       manufactured, pollution)
from .reporting import (ErrorEvaluator, convergence_study, export_field, run,
                        sample_field, solution_norms, timing_study)
from .resmin import (SolutionState, build_directional, residual_norms,
                     substep)
from .splines import SplineSpace, eval_matrix, make_space
from .stepping import RunConfig, SchemeKind, Stepper, project_initial

__version__ = "0.1.0"

__all__ = [
    "BandedLU", "BandedMatrix", "DomainError", "ErrorEvaluator",
    "NonFiniteStateError", "OpCounter", "ParameterError",
    "ProblemDefinition", "RotatingFlowStepper", "RunConfig", "SaddleFactor",
    "SchemeKind", "SingularMatrixError", "SolutionState", "Space2D",
    "SplineSpace", "Stepper", "advection", "assemble_2d_saddle", "block",
    "build_directional", "circular_wind",
    "convergence_study", "eval_matrix", "export_field",
    "get_problem", "kron_matvec", "make_space",
    "manufactured", "mass", "pollution", "project_initial", "residual_norms",
    "run", "sample_field", "solution_norms", "sparse_lu", "stiffness",
    "substep", "timing_study",
]
