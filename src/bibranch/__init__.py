"""Two-type continuous-state branching in varying environments.

Analytic construction (backward cumulant system, first moments, extinction
limits, weighted integral functionals) and a stochastic construction
(vectorized jump-diffusion path engine with exact atom branching), plus a
cross-validation harness that gates the two against each other and against
closed forms.
"""

from .densities import Density, SignedMeasure1D
from .environment import (
    EnvSpec,
    JumpKernel,
    ValidationReport,
    atom_schedule,
    bar_b,
    delta,
    validate,
)
from .measures import CappedExpProduct, CappedStableAxis, Dirac, ExpProduct, StableAxis
from .cumulant import (
    CumulantSolution,
    LadderNotConverged,
    SolverError,
    SolverOptions,
    atom_step,
    extinction_prob,
    laplace_transform,
    semigroup_check,
    solve_backward,
    v_infinity,
)
from .moments import MomentCurve, first_moment, moment_bound
from .noise import NoiseStream
from .simulate import (
    EnsembleStats,
    SimOptions,
    SimulationError,
    Trajectory,
    coupled_pair,
    coupled_order_violations,
    extinction_frequency,
    simulate_atom,
    simulate_ensemble,
    simulate_path,
    truncate_large_jumps,
)
from .functionals import WeightMeasure, mc_functional, solve_functional, solve_w

__version__ = "0.1.0"
