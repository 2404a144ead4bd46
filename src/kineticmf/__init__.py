"""Interacting-particle and mean-field toolkit: kinetic SDE simulation,
exact empirical optimal transport, Picard solvers for measure flows,
leader-follower control, and the convergence experiments built on them.

The package exports what the library modules' __all__ lists declare; the
command line lives in kineticmf.cli."""

__version__ = "0.1.0"

from .phase_space import *
from .wasserstein import *
from .drift import *
from .sde import *
from .meanfield import *
from .pdeode import *
from .control_opt import *
from .experiments import *
from . import (control_opt, drift, experiments, meanfield, pdeode,
               phase_space, sde, wasserstein)

__all__ = [name for module in (phase_space, wasserstein, drift, sde, meanfield,
                               pdeode, control_opt, experiments)
           for name in module.__all__]
