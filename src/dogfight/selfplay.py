"""Self-play league: play matches, evaluate against past agents, train.

The loop alternates collection (current agent vs the most recent past
checkpoint), a PPO update, checkpointing, and evaluation against a random
sample of earlier checkpoints.  Everything is driven by spawned seed
sequences so a master seed reproduces the whole run bit-exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .environment import (
    BLUE,
    DEFAULT_MISSILE_PARAMS,
    DEFAULT_SCENARIO,
    OBS_DIM,
    RED,
    EngagementState,
    Outcome,
    ScenarioConfig,
    env_step,
    observe,
    reset,
)
from .mcts import SearchConfig, run_search
from .missile import MissileParams
from .mlp import MlpParams, adam_state_for, forward, init_params, log_density, \
    sample_and_logprob
from .ppo import RolloutBuffer, TrainConfig, TrainMetrics, Transition, \
    compute_advantages, train_iteration

WIN, LOSS, DRAW = "Win", "Loss", "Draw"
_OUTCOME_FOR_BLUE = {Outcome.BLUE_WIN: WIN, Outcome.RED_WIN: LOSS,
                     Outcome.DRAW: DRAW}


@dataclass(frozen=True, slots=True)
class AgentCheckpoint:
    """Snapshot of an agent's parameters plus creation metadata."""

    iteration: int
    actor: MlpParams
    critic: MlpParams
    seed: int
    config_hash: str


@dataclass(frozen=True, slots=True)
class MatchRecord:
    """One engagement's result from the first (current) agent's viewpoint."""

    iteration: int
    opponent_iteration: int
    game_index: int
    outcome: str
    episode_length: int  # decision steps
    sim_time: float  # simulated seconds at termination
    seed: int

    def __post_init__(self):
        if self.outcome not in (WIN, LOSS, DRAW):
            raise ValueError(f"bad outcome {self.outcome!r}")


@dataclass(frozen=True, slots=True)
class IterationMetrics:
    iteration: int
    wins: int
    losses: int
    draws: int
    games: int
    train: Optional[TrainMetrics]
    seconds: float  # simulated seconds processed this iteration
    wall_clock: float = 0.0  # not serialized; reruns must match byte-wise

    def __post_init__(self):
        if self.wins + self.losses + self.draws != self.games:
            raise ValueError("wins + losses + draws must equal games played")


@dataclass(frozen=True, slots=True)
class LeagueConfig:
    """Everything the training loop needs besides the master seed."""

    iterations: int = 50
    train: TrainConfig = TrainConfig()
    search: SearchConfig = SearchConfig()
    scenario: ScenarioConfig = DEFAULT_SCENARIO
    missile: MissileParams = DEFAULT_MISSILE_PARAMS
    use_mcts: bool = True
    eval_opponents: int = 36
    eval_games: int = 3
    layer_sizes: tuple[int, ...] = (13, 256, 256, 4)
    config_hash: str = ""

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.eval_opponents < 1 or self.eval_games < 1:
            raise ValueError("evaluation needs at least one opponent and one game")
        if len(self.layer_sizes) < 2 or self.layer_sizes[0] != OBS_DIM \
                or self.layer_sizes[-1] != 4:
            raise ValueError(f"layer sizes must map {OBS_DIM} features to 4 "
                             f"outputs, got {self.layer_sizes}")


MetricsSink = Callable[[IterationMetrics], None]
MatchSink = Callable[[MatchRecord], None]
CheckpointSink = Callable[[AgentCheckpoint], None]


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, np.uint64)[0])


def _act(agent: AgentCheckpoint, side: str, state: EngagementState,
         use_mcts: bool, rng: np.random.Generator, opponent: MlpParams,
         search_config: SearchConfig, missile_params: MissileParams):
    """One side's decision: search when flagged, raw policy sample otherwise.

    Returns (obs, action, log-probability of the action under the actor,
    critic output at obs), the last taken from the search root and None
    when the action was sampled without search.
    """
    obs = observe(state, side)
    if use_mcts:
        def model(s, a_blue, a_red):
            return env_step(s, a_blue, a_red, params=missile_params)

        found = run_search(state, side, agent.actor, agent.critic, opponent,
                           model, search_config, rng)
        action = found.action
        logp = log_density(found.root_mean, agent.actor.log_std, action)
        return obs, action, float(logp), found.root_critic
    action, logp = sample_and_logprob(agent.actor, obs, rng)
    return obs, action, float(logp), None


def play_match(agent_a: AgentCheckpoint, agent_b: AgentCheckpoint,
               use_mcts_a: bool, use_mcts_b: bool, seed: int, *,
               search_config: SearchConfig = SearchConfig(),
               scenario: ScenarioConfig = DEFAULT_SCENARIO,
               missile_params: MissileParams = DEFAULT_MISSILE_PARAMS,
               game_index: int = 0,
               record_side: Optional[str] = None,
               buffer: Optional[RolloutBuffer] = None,
               recorder=None,
               initial_state: Optional[EngagementState] = None,
               seed_a: Optional[int] = None,
               seed_b: Optional[int] = None) -> MatchRecord:
    """Run one engagement to termination; agent_a flies blue, agent_b red.

    The seed spawns the reset and both sides' sampling streams, so a match
    is reproducible bit-exactly.  seed_a/seed_b override the per-side
    streams (used by symmetry tests); initial_state skips the seeded reset.
    When record_side and buffer are given, that side's transitions are
    appended to the buffer, which backfills the outcome on episode close.
    """
    if record_side is not None and record_side != BLUE:
        raise ValueError("collection records the blue side only")
    ss_reset, ss_a, ss_b = np.random.SeedSequence(seed).spawn(3)
    rng_a = np.random.default_rng(ss_a if seed_a is None else seed_a)
    rng_b = np.random.default_rng(ss_b if seed_b is None else seed_b)
    state = reset(_seed_int(ss_reset), scenario) if initial_state is None \
        else initial_state
    if state.outcome is not Outcome.ONGOING:
        raise ValueError("initial state is already terminal")

    steps = 0
    while True:
        obs_a, act_a, logp_a, value_a = _act(agent_a, BLUE, state, use_mcts_a,
                                             rng_a, agent_b.actor, search_config,
                                             missile_params)
        _, act_b, _, _ = _act(agent_b, RED, state, use_mcts_b, rng_b,
                              agent_a.actor, search_config, missile_params)
        res = env_step(state, act_a, act_b, params=missile_params,
                       recorder=recorder)
        steps += 1
        if buffer is not None and record_side == BLUE:
            value = value_a if value_a is not None \
                else float(forward(agent_a.critic, obs_a)[0])
            buffer.add(Transition(obs=obs_a, action=np.asarray(act_a, float),
                                  logp=logp_a, reward=res.reward_blue,
                                  value=value, done=res.done))
        state = res.state
        if res.done:
            break

    return MatchRecord(iteration=agent_a.iteration,
                       opponent_iteration=agent_b.iteration,
                       game_index=game_index,
                       outcome=_OUTCOME_FOR_BLUE[state.outcome],
                       episode_length=steps,
                       sim_time=state.t,
                       seed=seed)


def evaluate_vs_past(current: AgentCheckpoint, pool: list[AgentCheckpoint],
                     rng: np.random.Generator, *,
                     opponents: int = 36, games: int = 3,
                     use_mcts: bool = True,
                     search_config: SearchConfig = SearchConfig(),
                     scenario: ScenarioConfig = DEFAULT_SCENARIO,
                     missile_params: MissileParams = DEFAULT_MISSILE_PARAMS,
                     match_sink: Optional[MatchSink] = None) -> IterationMetrics:
    """Play the current agent against sampled past checkpoints.

    With a pool of at least `opponents` entries, that many are drawn with
    replacement; a smaller pool is used in full.  Three games (by default)
    per opponent, fresh seeds from rng, search on both sides when the
    training configuration uses it.
    """
    if not pool:
        raise ValueError("checkpoint pool is empty")
    if len(pool) >= opponents:
        chosen = [pool[int(i)] for i in rng.integers(0, len(pool), size=opponents)]
    else:
        chosen = list(pool)

    wins = losses = draws = 0
    seconds = 0.0
    for opp in chosen:
        for g in range(games):
            record = play_match(current, opp, use_mcts, use_mcts,
                                int(rng.integers(0, 2 ** 63)),
                                search_config=search_config, scenario=scenario,
                                missile_params=missile_params, game_index=g)
            wins += record.outcome == WIN
            losses += record.outcome == LOSS
            draws += record.outcome == DRAW
            seconds += record.sim_time
            if match_sink is not None:
                match_sink(record)

    return IterationMetrics(iteration=current.iteration, wins=wins,
                            losses=losses, draws=draws,
                            games=len(chosen) * games, train=None,
                            seconds=seconds)


def train_loop(config: LeagueConfig, rng: int, *,
               checkpoint_sink: Optional[CheckpointSink] = None,
               metrics_sink: Optional[MetricsSink] = None,
               match_sink: Optional[MatchSink] = None
               ) -> tuple[list[AgentCheckpoint], list[IterationMetrics]]:
    """Iterate collect, train, checkpoint, evaluate; rng is the master seed.

    Collection plays the live agent (blue, search when configured) against
    the latest pool entry sampling raw actions, until the buffer holds a
    full batch.  The pool starts with the untrained agent as iteration 0,
    which is not written to the checkpoint sink; each later iteration's
    snapshot is evaluated against the pool before joining it.
    """
    t_start = time.monotonic()
    master = np.random.SeedSequence(rng)
    ss_actor, ss_critic = master.spawn(2)
    actor = init_params(_seed_int(ss_actor), config.layer_sizes,
                        with_log_std=True)
    critic = init_params(_seed_int(ss_critic), config.layer_sizes[:-1] + (1,))
    actor_opt = adam_state_for(actor)
    critic_opt = adam_state_for(critic)

    pool = [AgentCheckpoint(0, actor.copy(), critic.copy(), rng,
                            config.config_hash)]
    history: list[IterationMetrics] = []
    for iteration in range(1, config.iterations + 1):
        ss_collect, ss_train, ss_eval = master.spawn(3)
        collect_rng = np.random.default_rng(ss_collect)
        live = AgentCheckpoint(iteration, actor, critic, rng, config.config_hash)
        buffer = RolloutBuffer()
        collect_seconds = 0.0
        while len(buffer) < config.train.batch_size:
            record = play_match(live, pool[-1], config.use_mcts, False,
                                int(collect_rng.integers(0, 2 ** 63)),
                                search_config=config.search,
                                scenario=config.scenario,
                                missile_params=config.missile,
                                record_side=BLUE, buffer=buffer)
            collect_seconds += record.sim_time

        compute_advantages(buffer, config.train)
        train_metrics = train_iteration(actor, critic, buffer, config.train,
                                        np.random.default_rng(ss_train),
                                        actor_opt, critic_opt)

        snapshot = AgentCheckpoint(iteration, actor.copy(), critic.copy(),
                                   rng, config.config_hash)
        if checkpoint_sink is not None:
            checkpoint_sink(snapshot)
        evaluated = evaluate_vs_past(snapshot, pool,
                                     np.random.default_rng(ss_eval),
                                     opponents=config.eval_opponents,
                                     games=config.eval_games,
                                     use_mcts=config.use_mcts,
                                     search_config=config.search,
                                     scenario=config.scenario,
                                     missile_params=config.missile,
                                     match_sink=match_sink)
        now = time.monotonic()
        row = replace(evaluated, train=train_metrics,
                      seconds=evaluated.seconds + collect_seconds,
                      wall_clock=now - t_start)
        t_start = now
        history.append(row)
        if metrics_sink is not None:
            metrics_sink(row)
        pool.append(snapshot)

    return pool, history
