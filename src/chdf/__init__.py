"""Energy-stable spectral solver for two-phase porous-medium flow with a
soluble surfactant.

Subpackage layout:
- grid: spectral grids, transforms, and exact discrete calculus
- model: potentials, coupling terms, and energies
- darcy: the velocity/pressure subproblem with nonlinear drag
- step: the implicit-explicit coupled time step
- diagnostics: ledgers, equilibrium detection, stationary solves
- driver, cli: configuration, IO formats, and the command-line front end
"""

from .darcy import VelocitySolveReport, velocity_solve
from .diagnostics import (EquilibriumSolution, LedgerRow, classify_good_times,
                          equilibrium_residual, mass_closed_form,
                          separation_margin, stationary_solve)
from .errors import (BoundViolation, ChdfError, MeanNotZero, NewtonDivergence,
                     NonConvergence, OutOfDomain, ParseError, PicardStall,
                     SnapshotFormatError, StepTooLarge, UnknownPreset,
                     ValidationError)
from .driver import read_ledger
from .grid import Grid2D, ScalarField, VectorField
from .model import ModelParams, coupling_g, f_phi, f_psi, total_energy
from .step import (ChemicalPotentials, State, StepReport, coupled_time_step,
                   mean_targets)

__version__ = "0.1.0"
