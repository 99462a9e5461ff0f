"""fiberwalk: policy-driven sampling of design-matrix fibers.

Builds design matrices for log-linear model families, computes exact
integer kernel bases, trains an actor-critic policy to pick feasible
basis combinations, and uses the trained policy to sample the fiber
from the model's conditional null law for exact conditional
goodness-of-fit tests.
"""

__version__ = "0.1.0"

from .agent import (
    ActorCritic,
    TrainConfig,
    compute_gae,
    critic_value,
    make_actor_critic,
    policy_sample,
    train,
)
from .fibermdp import DiscoveredSet, FiberEnv, MdpConfig, StepOutcome
from .lattice import (
    LatticeBasis,
    Move,
    SubProblem,
    combine_moves,
    compute_lattice_basis,
    decompose_initial_point,
    enumerate_fiber,
)
from .models import (
    DesignMatrix,
    ModelSpec,
    ObservedData,
    all_two_way,
    beta_model,
    build_design_matrix,
    chi_square_statistic,
    fit_expected_counts,
    independence,
    observe_graph,
    observe_table,
)
from .sampling import (
    FiberSample,
    GofTestResult,
    besag_clifford_pvalues,
    explore,
    mh_uniform,
)

__all__ = [
    "ActorCritic",
    "DesignMatrix",
    "DiscoveredSet",
    "FiberEnv",
    "FiberSample",
    "GofTestResult",
    "LatticeBasis",
    "MdpConfig",
    "ModelSpec",
    "Move",
    "ObservedData",
    "StepOutcome",
    "SubProblem",
    "TrainConfig",
    "all_two_way",
    "besag_clifford_pvalues",
    "beta_model",
    "build_design_matrix",
    "chi_square_statistic",
    "combine_moves",
    "compute_gae",
    "compute_lattice_basis",
    "critic_value",
    "decompose_initial_point",
    "enumerate_fiber",
    "explore",
    "fit_expected_counts",
    "independence",
    "make_actor_critic",
    "mh_uniform",
    "observe_graph",
    "observe_table",
    "policy_sample",
    "train",
]
