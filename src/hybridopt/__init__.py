"""Controlled regime-switching diffusions with measure-valued feedback.

Simulation, Monte Carlo cost estimation, a backward-induction value solver
whose stored policy replays as a table control, and an oracle verification
battery, plus the small expression language the model configs are written in.
"""

from .errors import (
    BoundViolationError,
    CapacityError,
    DomainError,
    ExprError,
    HybridOptError,
    ModelError,
    NumericalError,
    SimulationError,
    StepSizeError,
    UsageError,
    ValidationError,
)
from .measure_space import (
    ActionSet,
    DiscreteMeasure,
    dirac,
    euclidean,
    mixture,
    w1_distance,
    w1_sorted_cdf,
    w1_transport_lp,
)
from .expr import parse, to_source, variables
from .switching import RateSpec
from .control import (
    CandidateMap,
    ConstantControl,
    FeedbackControl,
    MarkovControl,
    MeasureBatch,
    PathDependentControl,
    TableControl,
    candidate_set,
)
from .dynamics import (
    HybridModel,
    PathBatch,
    simulate_chunks,
    validate_model,
)
from .cost import CostEstimate, monte_carlo_cost
from .dpp_solver import (
    GridSpec,
    ValueGrid,
    dpp_residual,
    gauss_hermite,
    solve,
)
from .oracle_verify import (
    BATTERY,
    CheckReport,
    LatticeProblem,
    enumerate_value,
    gronwall_sup_moment_bound,
    run_battery,
    tol_disc,
    transition_matrix,
)
from .config import load_control, load_model

__version__ = "0.1.0"
