"""chemoflow: 2D chemotaxis-fluid simulator with regularized degenerate
diffusion and singular sensitivity, plus invariant monitors and standalone
functional-inequality verification."""

from .grid import Grid, ScalarField, State, VectorField, integrate, make_grid
from .model import (
    ModelSpec,
    PorousMedium,
    TabulatedDiffusion,
    TruncationTable,
    build_truncations,
    eval_D,
    eval_D_eps,
    eval_D2_eps,
    kappa_of,
    threshold_s0,
)
from .operators import (
    PoissonSolver,
    advect_scalar,
    div,
    project,
    taxis_flux_div,
)
from .solver import SolverError, TimeControls, run
from .diagnostics import (
    DiagnosticsRecord,
    functional_envelope,
    record,
    select_functional,
)
from .config import ConfigError, RunConfig, parse_config, reference_config_text, validate_config
from .io import emit_snapshot, emit_timeseries, parse_timeseries, read_snapshot
from .sweeps import eps_sweep, refinement_sweep

__version__ = "0.1.0"
