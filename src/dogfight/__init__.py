"""Deterministic 1-v-1 air combat laboratory.

A 3-DOF flight and missile simulation, a from-scratch MLP policy and
value network, clipped-surrogate policy optimization, action sampling
guided by tree search, and a league harness that trains and evaluates
agents against their own past snapshots.  Everything is seeded and
reproducible bit for bit.
"""

from .dynamics import AircraftState, ControlInput, clamp_controls, rk4_step
from .environment import (
    BLUE,
    RED,
    EngagementState,
    Outcome,
    ScenarioConfig,
    env_step,
    flatten,
    observe,
    reset,
    unflatten,
)
from .harness import (
    CheckpointError,
    ConfigError,
    load_checkpoint,
    load_config,
    parse_config,
    save_checkpoint,
    serialize_config,
)
from .mcts import SearchConfig, SearchResult, run_search
from .missile import MissileState, MissileStatus, missile_step
from .mlp import MlpParams, forward, init_params, sample_and_logprob
from .ppo import RolloutBuffer, TrainConfig, TrainMetrics, Transition, \
    compute_advantages, train_iteration
from .selfplay import (
    AgentCheckpoint,
    IterationMetrics,
    LeagueConfig,
    MatchRecord,
    evaluate_vs_past,
    play_match,
    train_loop,
)

__version__ = "0.1.0"

__all__ = [
    "AircraftState", "ControlInput", "clamp_controls", "rk4_step",
    "BLUE", "RED", "EngagementState", "Outcome", "ScenarioConfig",
    "env_step", "flatten", "observe", "reset", "unflatten",
    "CheckpointError", "ConfigError", "load_checkpoint",
    "load_config", "parse_config", "save_checkpoint", "serialize_config",
    "SearchConfig", "SearchResult", "run_search",
    "MissileState", "MissileStatus", "missile_step",
    "MlpParams", "forward", "init_params", "sample_and_logprob",
    "RolloutBuffer", "TrainConfig", "TrainMetrics", "Transition",
    "compute_advantages", "train_iteration",
    "AgentCheckpoint", "IterationMetrics", "LeagueConfig", "MatchRecord",
    "evaluate_vs_past", "play_match", "train_loop",
    "__version__",
]
