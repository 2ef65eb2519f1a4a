"""coopdyn: cooperation machinery for repeated games.

Three cores and a harness: a two-player iterated prisoner's dilemma engine
with a turn-taking strategy and its discount analysis (`ipd`), a discrete
mean-field game for a threshold intersection whose equilibrium is solved by
backward induction and verified by a damped sweep (`mfg`), role rotation with
delayed group-reward crediting (`roles`), round-based environments (`envs`),
and a config-driven experiment runner with a CLI (`harness`, `cli`).
"""

__version__ = "0.1.0"

from .errors import ConfigError, NumericalIntegrityError, ValidationError
from .ipd import (
    ActionPD,
    Alternator,
    CriticalDiscount,
    MatchConfig,
    MatchResult,
    PayoffMatrix,
    Regime,
    Strategy,
    critical_discount,
    deviate_payoff,
    make_strategy,
    play_match,
    stick_payoff,
    tournament,
)
from .mfg import (
    ActionValueTable,
    EmpiricalStats,
    EquilibriumResult,
    MfgParams,
    RewardTable,
    bellman_backward,
    best_response_gap,
    default_params,
    exploitability,
    forward_flow,
    simulate_population,
    softmax_policy,
    solve_equilibrium,
    transition_distribution,
    uniform_policy,
)
from .roles import (
    FairnessStats,
    RoleAssignment,
    RotationLedger,
    SwitchPolicy,
    delayed_credit,
    deterministic_assign,
    fairness_report,
    sigmoid_switch_probability,
    stochastic_assign,
)
from .envs import (
    DungeonConfig,
    EpisodeResult,
    IntersectionConfig,
    intersection_episode,
    run_dungeon,
)
from .harness import RunArtifacts, load_config, run, run_from_manifest
