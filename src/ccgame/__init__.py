"""Chance-constrained LQG dynamic games.

Feedback generalized Nash equilibrium policies for linear time-varying
stochastic games with joint chance constraints: constraints are tightened
into affine rows on the expected trajectory, the multiplier-parameterized
game is solved by coupled Riccati recursions, and the shared multiplier by
Lemke's pivot, with projected dual ascent as its fallback.  Seeded Monte Carlo
rollouts validate safety against a receding-horizon central-MPC baseline.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    BoxSpec,
    CollisionSpec,
    CostSpec,
    GameProblem,
    LtvGameDynamics,
    Scenario,
    UnicycleDynamicsSpec,
    ValidatedScenario,
    assemble_problem,
    load_scenario,
    save_scenario,
    validate_scenario,
)
from .dualascent import (  # noqa: F401
    DualAscentOptions,
    DualSolveReport,
    PreparedGame,
    prepare_game,
    run_dual_ascent,
    solve_scenario,
)
from .lqnash import FeedbackPolicy, backward_recursion, integrate_expected  # noqa: F401
from .simulate import RolloutBatch, SafetyStats, central_mpc, evaluate_safety, rollout  # noqa: F401
