"""Self-play league: play matches, evaluate against past agents, train.

The loop alternates collection (current agent vs the most recent past
checkpoint), a PPO update, checkpointing, and evaluation against a random
sample of earlier checkpoints.  Everything is driven by spawned seed
sequences so a master seed reproduces the whole run bit-exactly.  A
LeagueConfig is the whole run: that seed, the league's settings and the
output directory; harness reads and writes it as the run's config.ini.

Matches share nothing but read-only agents, so both match loops run on
forked worker processes, one per usable CPU (the affinity mask, cut to the
cgroup CPU quota).  The parent draws every seed, consumes the results in
seed order and alone touches the tallies, the sinks and the rollout
buffer; the CPU count therefore cannot move a byte of any artifact.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import closing
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional

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
    """A training run: the master seed, the league, its output directory.

    The fields up to scenario are the run's INI file, in file order (see
    harness); missile, layer_sizes and config_hash are set in code only.
    """

    seed: int = 0
    iterations: int = 50
    out_dir: str = "out"
    use_mcts: bool = True
    eval_opponents: int = 36
    eval_games: int = 3
    train: TrainConfig = TrainConfig()
    search: SearchConfig = SearchConfig()
    scenario: ScenarioConfig = DEFAULT_SCENARIO
    missile: MissileParams = DEFAULT_MISSILE_PARAMS
    layer_sizes: tuple[int, ...] = (13, 256, 256, 4)
    config_hash: str = ""

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be at least 1, got {self.iterations}")
        if self.eval_opponents < 1 or self.eval_games < 1:
            raise ValueError("evaluation needs at least one opponent and one game")
        if not self.out_dir:
            raise ValueError("out_dir must be non-empty")
        if len(self.layer_sizes) < 2 or self.layer_sizes[0] != OBS_DIM \
                or self.layer_sizes[-1] != 4:
            raise ValueError(f"layer sizes must map {OBS_DIM} features to 4 "
                             f"outputs, got {self.layer_sizes}")


MetricsSink = Callable[[IterationMetrics], None]
MatchSink = Callable[[MatchRecord], None]
CheckpointSink = Callable[[AgentCheckpoint], None]


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, np.uint64)[0])


# The cgroup file system.  Under a cgroup namespace, a container's default,
# the process's own cgroup is its root.
_CGROUP = Path("/sys/fs/cgroup")


def _cpu_quota() -> Optional[int]:
    """Whole CPUs the cgroup CPU quota grants (at least 1); None without one.

    Reads cgroup v2's cpu.max ("quota period", quota "max" when unlimited),
    else cgroup v1's cpu.cfs_quota_us and cpu.cfs_period_us (quota -1 when
    unlimited).
    """
    try:
        quota, period = (_CGROUP / "cpu.max").read_text().split()
    except (OSError, ValueError):
        try:
            quota = (_CGROUP / "cpu" / "cpu.cfs_quota_us").read_text()
            period = (_CGROUP / "cpu" / "cpu.cfs_period_us").read_text()
        except OSError:
            return None
    try:
        quota_us, period_us = int(quota), int(period)
    except ValueError:  # "max"
        return None
    if quota_us <= 0 or period_us <= 0:
        return None
    return max(1, quota_us // period_us)


def _usable_cpus() -> int:
    """CPUs to run matches on: the affinity mask, cut to the cgroup quota.

    1 where the platform cannot report the mask, which also keeps such
    platforms off fork.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None:
        return 1
    quota = _cpu_quota()
    cpus = len(affinity(0))
    return cpus if quota is None else min(cpus, quota)


def _serve(fn: Callable[[Any], Any], conn, parent_end) -> None:
    """A worker's loop: answer each task with (True, fn(task)), or with
    (False, exception) when fn raises, until the parent is gone."""
    parent_end.close()  # the fork copied it; held, EOF would never come
    while True:
        try:
            task = conn.recv()
        except (EOFError, ConnectionResetError):
            return
        try:
            answer = (True, fn(task))
        except Exception as exc:
            answer = (False, exc)
        try:
            conn.send(answer)
        except (BrokenPipeError, ConnectionResetError):
            return


_NO_TASK = object()


def _in_order(fn: Callable[[Any], Any], tasks: Iterable,
              workers: int) -> Iterator:
    """Yield fn(task) for each task, in task order.

    With one worker the calls run here, one by one, as tasks yields them.
    With more, they run on that many forked processes, one task each at a
    time over the worker's own pipe, and at most 2 * workers tasks are
    drawn ahead of the next one to yield, so tasks may be endless.  The
    workers inherit fn by fork: only tasks and answers are pickled, and fn
    is released with the generator.  A worker's exception reaches the
    caller with its type; a worker that dies (killed by a signal, say)
    raises ChildProcessError.  The workers are killed and reaped however
    the generator ends: exhausted, closed early, or raising.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers == 1:
        for task in tasks:
            yield fn(task)
        return
    import multiprocessing  # only when forking: keeps `import dogfight` lean
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for _ in range(workers):
            mine, theirs = context.Pipe()
            proc = context.Process(target=_serve, args=(fn, theirs, mine),
                                   daemon=True)
            proc.start()
            theirs.close()  # the worker alone holds it: EOF when it dies
            procs.append(proc)
            conns.append(mine)

        tasks = iter(tasks)
        idle = list(range(workers))
        running: dict[int, int] = {}  # worker -> number of its task
        answers: dict[int, tuple[bool, Any]] = {}  # by task number
        drawn = yielded = 0
        while True:
            while idle and drawn < yielded + 2 * workers:
                task = next(tasks, _NO_TASK)
                if task is _NO_TASK:
                    break
                worker = idle.pop()
                conns[worker].send(task)
                running[worker] = drawn
                drawn += 1
            if yielded in answers:
                ok, value = answers.pop(yielded)
                yielded += 1
                if not ok:
                    raise value
                yield value
                continue
            if not running:
                return
            ready = wait([conns[w] for w in running])
            for worker in list(running):
                if conns[worker] not in ready:
                    continue
                try:
                    answers[running.pop(worker)] = conns[worker].recv()
                except (EOFError, OSError):
                    procs[worker].join()
                    raise ChildProcessError(
                        f"match worker {procs[worker].pid} died "
                        f"(exit code {procs[worker].exitcode})") from None
                idle.append(worker)
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.join()
            proc.close()
        for conn in conns:
            conn.close()


def _act(agent: AgentCheckpoint, side: str, state: EngagementState,
         obs: tuple[np.ndarray, np.ndarray], use_mcts: bool,
         rng: np.random.Generator, opponent: MlpParams,
         search_config: SearchConfig, missile_params: MissileParams):
    """One side's decision: search when flagged, raw policy sample otherwise.

    obs is the (own, opponent) observation pair of state.  Returns (action,
    log-probability of the action under the actor, critic output at the
    own observation), the last taken from the search root and None when the
    action was sampled without search.
    """
    if use_mcts:
        def model(s, a_blue, a_red):
            return env_step(s, a_blue, a_red, params=missile_params)

        found = run_search(state, side, agent.actor, agent.critic, opponent,
                           model, search_config, rng, root_obs=obs)
        action = found.action
        logp = log_density(found.root_mean, agent.actor.log_std, action)
        return action, float(logp), found.root_critic
    action, logp = sample_and_logprob(agent.actor, obs[0], rng)
    return action, float(logp), None


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

    # Each later pair comes from the env_step that made the state.
    obs_a, obs_b = observe(state, BLUE), observe(state, RED)
    steps = 0
    while True:
        act_a, logp_a, value_a = _act(agent_a, BLUE, state, (obs_a, obs_b),
                                      use_mcts_a, rng_a, agent_b.actor,
                                      search_config, missile_params)
        act_b, _, _ = _act(agent_b, RED, state, (obs_b, obs_a), use_mcts_b,
                           rng_b, agent_a.actor, search_config, missile_params)
        res = env_step(state, act_a, act_b, params=missile_params,
                       recorder=recorder)
        steps += 1
        if buffer is not None and record_side == BLUE:
            value = value_a if value_a is not None \
                else float(forward(agent_a.critic, obs_a)[0])
            buffer.add(Transition(obs=obs_a, action=np.asarray(act_a, float),
                                  logp=logp_a, reward=res.reward_blue,
                                  value=value, done=res.done))
        state, obs_a, obs_b = res.state, res.obs_blue, res.obs_red
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
    training configuration uses it.  Every (opponent, game, seed) triple is
    drawn from rng before the first game starts; the games run on every
    usable CPU (never more workers than games), and the tallies and
    match_sink see them in the order drawn, whatever the CPU count.
    """
    if not pool:
        raise ValueError("checkpoint pool is empty")
    if len(pool) >= opponents:
        picks = [int(i) for i in rng.integers(0, len(pool), size=opponents)]
    else:
        picks = list(range(len(pool)))
    drawn = [(i, g, int(rng.integers(0, 2 ** 63)))
             for i in picks for g in range(games)]

    def play(game):
        opp, g, seed = game
        return play_match(current, pool[opp], use_mcts, use_mcts, seed,
                          search_config=search_config, scenario=scenario,
                          missile_params=missile_params, game_index=g)

    wins = losses = draws = 0
    seconds = 0.0
    workers = min(_usable_cpus(), max(len(drawn), 1))
    with closing(_in_order(play, drawn, workers)) as records:
        for record in records:
            wins += record.outcome == WIN
            losses += record.outcome == LOSS
            draws += record.outcome == DRAW
            seconds += record.sim_time
            if match_sink is not None:
                match_sink(record)

    return IterationMetrics(iteration=current.iteration, wins=wins,
                            losses=losses, draws=draws,
                            games=len(drawn), train=None,
                            seconds=seconds)


def train_loop(config: LeagueConfig, *,
               checkpoint_sink: Optional[CheckpointSink] = None,
               metrics_sink: Optional[MetricsSink] = None,
               match_sink: Optional[MatchSink] = None
               ) -> tuple[list[AgentCheckpoint], list[IterationMetrics]]:
    """Iterate collect, train, checkpoint, evaluate from config.seed.

    Collection plays the live agent (blue, search when configured) against
    the latest pool entry sampling raw actions, until the buffer holds a
    full batch.  The pool starts with the untrained agent as iteration 0,
    which is not written to the checkpoint sink; each later iteration's
    snapshot is evaluated against the pool before joining it.

    Matches run on every usable CPU.  Collection plays one match per seed
    drawn from the iteration's own collection stream, and with more than
    one CPU it plays ahead on the next seeds speculatively; whole episodes
    join the buffer in seed order until it is full, and the matches still
    running are dropped.  That stream feeds nothing else, so the extra
    draws move no byte: every artifact is the same for any CPU count.
    """
    t_start = time.monotonic()
    master = np.random.SeedSequence(config.seed)
    ss_actor, ss_critic = master.spawn(2)
    actor = init_params(_seed_int(ss_actor), config.layer_sizes,
                        with_log_std=True)
    critic = init_params(_seed_int(ss_critic), config.layer_sizes[:-1] + (1,))
    actor_opt = adam_state_for(actor)
    critic_opt = adam_state_for(critic)

    pool = [AgentCheckpoint(0, actor.copy(), critic.copy(), config.seed,
                            config.config_hash)]
    history: list[IterationMetrics] = []
    for iteration in range(1, config.iterations + 1):
        ss_collect, ss_train, ss_eval = master.spawn(3)
        collect_rng = np.random.default_rng(ss_collect)
        live = AgentCheckpoint(iteration, actor, critic, config.seed,
                               config.config_hash)

        def collect(seed):
            own = RolloutBuffer()
            record = play_match(live, pool[-1], config.use_mcts, False, seed,
                                search_config=config.search,
                                scenario=config.scenario,
                                missile_params=config.missile,
                                record_side=BLUE, buffer=own)
            return record.sim_time, own.episodes

        seeds = (int(collect_rng.integers(0, 2 ** 63)) for _ in itertools.count())
        buffer = RolloutBuffer()
        collect_seconds = 0.0
        with closing(_in_order(collect, seeds, _usable_cpus())) as matches:
            for sim_time, episodes in matches:
                buffer.episodes.extend(episodes)
                collect_seconds += sim_time
                if len(buffer) >= config.train.batch_size:
                    break

        compute_advantages(buffer, config.train)
        train_metrics = train_iteration(actor, critic, buffer, config.train,
                                        np.random.default_rng(ss_train),
                                        actor_opt, critic_opt)

        snapshot = AgentCheckpoint(iteration, actor.copy(), critic.copy(),
                                   config.seed, config.config_hash)
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
