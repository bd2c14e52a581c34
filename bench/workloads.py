"""The three workloads: a league with search, a league without, a PPO update.

Each workload has `setup()` (returns its wall time), `repeat(index, tracer)`
(runs one timed operation and returns a Sample) and `check(samples)` (runs
after the timed region and returns one failure message or None per sample).
Every repeat of a run does the same work on the same seeded inputs, so its
outputs must match the first repeat's byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dogfight import cli, ppo, selfplay
from dogfight.environment import BLUE
from dogfight.harness import load_checkpoint, load_config
from dogfight.mlp import init_params
from dogfight.ppo import RolloutBuffer, TrainConfig

import checks

EPOCHS = TrainConfig().epochs
LAYERS = (13, 256, 256, 4)


@dataclass
class Sample:
    """One timed operation: its wall time, the work it did and its outputs."""

    wall: float
    iterations: int
    sim_seconds: float
    train_samples: float  # transitions x epochs
    digests: dict
    error: str | None = None
    extra: dict = field(default_factory=dict)


def import_seconds(src: Path) -> float:
    """Wall time of importing the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    # No timeout: with one, subprocess polls the child in sleeps of up to
    # 50 ms, which would quantize this time.
    subprocess.run([sys.executable, "-c", "import dogfight.cli"], env=env,
                   check=True)
    return time.perf_counter() - t0


def _failure() -> str:
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


class _BufferCount:
    """Counts the transitions each iteration hands to the PPO update.

    One wrapped call per league iteration, so it costs nothing measurable.
    """

    def __enter__(self):
        self.transitions = 0
        self._original = original = selfplay.compute_advantages

        def counted(buffer, *args, **kwargs):
            self.transitions += len(buffer)
            return original(buffer, *args, **kwargs)

        selfplay.compute_advantages = counted
        return self

    def __exit__(self, *exc):
        selfplay.compute_advantages = self._original
        return False


def _initial_agent(seed: int) -> selfplay.AgentCheckpoint:
    """Iteration 0 of a league, which is never saved: the untrained agent
    that train_loop derives from the master seed."""
    ss_actor, ss_critic = np.random.SeedSequence(seed).spawn(2)
    actor = init_params(selfplay._seed_int(ss_actor), LAYERS, with_log_std=True)
    critic = init_params(selfplay._seed_int(ss_critic), LAYERS[:-1] + (1,))
    return selfplay.AgentCheckpoint(0, actor, critic, seed, "")


@dataclass(frozen=True)
class LeagueSpec:
    leagues: int  # seeded train commands per operation
    iterations: int
    use_mcts: bool
    batch_size: int
    opponents: int
    games: int = 3


LEAGUES = {
    # The paper's method at the smoke profile's settings.  How long the
    # evaluation games run depends on the agents a seed draws: one-iteration
    # leagues took 8 to 15 s by seed, two-iteration ones 17 to 54 s.  So one
    # operation trains three seeded one-iteration leagues.
    "league_search": LeagueSpec(leagues=3, iterations=1, use_mcts=True,
                                batch_size=256, opponents=4),
    # The same command with --no-mcts at the default batch and opponents.
    "league_raw": LeagueSpec(leagues=1, iterations=3, use_mcts=False,
                             batch_size=1024, opponents=36),
}


class League:
    """`dogfight train`, in-process through dogfight.cli.main."""

    SETUP_REPEATS = 5

    def __init__(self, name: str, seed: int, work: Path, src: Path):
        self.spec = LEAGUES[name]
        self.seeds = [int(s) for s in
                      np.random.SeedSequence(seed).generate_state(self.spec.leagues)]
        self.work = work
        self.src = src

    def setup(self) -> float:
        t0 = time.perf_counter()
        spec = self.spec
        for j, seed in enumerate(self.seeds):
            (self.work / f"league{j}.ini").write_text(
                "[run]\n"
                f"seed = {seed}\n"
                f"iterations = {spec.iterations}\n\n"
                "[evaluate]\n"
                f"opponents = {spec.opponents}\n"
                f"games = {spec.games}\n\n"
                "[train]\n"
                f"batch_size = {spec.batch_size}\n", encoding="utf-8")
        return import_seconds(self.src) + time.perf_counter() - t0

    def _train(self, j: int, tracer) -> str | None:
        """One train command; returns why it failed, or None."""
        # A relative path: out_dir goes into config.ini and from there into
        # every checkpoint's config_hash, so it must not depend on the checkout.
        argv = ["train", "--config", str(self.work / f"league{j}.ini"),
                "--out", str(self.work / f"train{j}")]
        if not self.spec.use_mcts:
            argv.append("--no-mcts")
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            try:
                code = (tracer.call("cli.train", cli.main, argv) if tracer
                        else cli.main(argv))
            except Exception:  # a crash fails this repeat, not the run
                return _failure()
        return None if code == 0 else f"train exited {code}: {log.getvalue()[-300:]}"

    def repeat(self, index: int, tracer=None) -> Sample:
        leagues = range(len(self.seeds))
        for j in leagues:
            shutil.rmtree(self.work / f"train{j}", ignore_errors=True)
        with _BufferCount() as count:
            t0 = time.perf_counter()
            errors = [self._train(j, tracer) for j in leagues]
            wall = time.perf_counter() - t0
        rep = self.work / f"rep{index}"
        rep.mkdir()
        digests, sim = {}, 0.0
        for j in leagues:
            out = rep / f"league{j}"
            if (self.work / f"train{j}").exists():
                (self.work / f"train{j}").rename(out)
                digests.update({f"league{j}/{name}": d
                                for name, d in checks.dir_digests(out).items()})
            if errors[j] is None:
                sim += sum(row["seconds"]
                           for row in checks.read_jsonl(out / "metrics.jsonl"))
        error = next((e for e in errors if e is not None), None)
        return Sample(wall=wall, iterations=len(self.seeds) * self.spec.iterations,
                      sim_seconds=sim, train_samples=count.transitions * EPOCHS,
                      digests=digests, error=error, extra={"dir": rep})

    def _check_outputs(self, rep: Path) -> None:
        spec = self.spec
        for j in range(len(self.seeds)):
            checks.check_league_run(rep / f"league{j}", spec.iterations, spec.games,
                                    spec.opponents, load_checkpoint)
        self._check_refly(rep / "league0")

    def _check_refly(self, run_dir: Path) -> None:
        row = checks.refly_choice(run_dir)
        cfg = load_config(run_dir / "config.ini")
        if row["opponent_iter"]:
            opponent = load_checkpoint(
                run_dir / f"checkpoint_{row['opponent_iter']:04d}.ckpt")
        else:
            opponent = _initial_agent(cfg.seed)
        trajectory: list = []
        record = selfplay.play_match(
            load_checkpoint(run_dir / f"checkpoint_{row['iter']:04d}.ckpt"),
            opponent, cfg.use_mcts, cfg.use_mcts, row["seed"], search_config=cfg.search,
            scenario=cfg.scenario, game_index=row["game"],
            recorder=trajectory.append)
        worst = checks.check_refly(row, record, trajectory)
        print(f"# re-flown match iter {row['iter']} vs {row['opponent_iter']} "
              f"game {row['game']}: {row['outcome']} after {row['steps']} "
              f"decisions; {len(trajectory)} trajectory rows within "
              f"{worst:.2g} m of the kinematics")

    def check(self, samples: list) -> list:
        return _check_all(samples, lambda s: self._check_outputs(s.extra["dir"]))

    def checkpoint_bytes(self) -> float:
        sizes = [p.stat().st_size for p in (self.work / "rep0").glob("*/*.ckpt")]
        return float(np.mean(sizes)) if sizes else 0.0


class PpoUpdate:
    """compute_advantages + train_iteration on a recorded buffer."""

    BUFFER = 4 * TrainConfig().batch_size
    SETUP_REPEATS = 3

    def __init__(self, name: str, seed: int, work: Path, src: Path):
        self.seed = seed
        self.src = src
        self.config = TrainConfig()

    def setup(self) -> float:
        """Record at least BUFFER transitions from raw-sampling matches."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(self.seed)
        agents = []
        for _ in range(2):
            actor = init_params(int(rng.integers(2 ** 32)), LAYERS, with_log_std=True)
            critic = init_params(int(rng.integers(2 ** 32)), LAYERS[:-1] + (1,))
            agents.append(selfplay.AgentCheckpoint(0, actor, critic, self.seed, ""))
        buffer = RolloutBuffer()
        sim = 0.0
        while len(buffer) < self.BUFFER:
            record = selfplay.play_match(agents[0], agents[1], False, False,
                                         int(rng.integers(2 ** 63)),
                                         record_side=BLUE, buffer=buffer)
            sim += record.sim_time
        self.actor, self.critic = agents[0].actor, agents[0].critic
        self.buffer, self.sim_seconds = buffer, sim
        self.train_seed = int(rng.integers(2 ** 63))
        return import_seconds(self.src) + time.perf_counter() - t0

    def repeat(self, index: int, tracer=None) -> Sample:
        actor, critic = self.actor.copy(), self.critic.copy()
        rng = np.random.default_rng(self.train_seed)
        error, metrics = None, None
        t0 = time.perf_counter()
        try:
            ppo.compute_advantages(self.buffer, self.config)
            metrics = ppo.train_iteration(actor, critic, self.buffer, self.config, rng)
        except Exception:  # a crash fails this repeat, not the run
            error = _failure()
        wall = time.perf_counter() - t0
        digests = {}
        if error is None:
            h = hashlib.sha256()
            for t in actor.tensors() + critic.tensors():
                h.update(np.ascontiguousarray(t, "<f8").tobytes())
            text = json.dumps(vars(metrics)).encode()
            digests = {"parameters": h.hexdigest(),
                       "train_metrics": hashlib.sha256(text).hexdigest()}
        n = len(self.buffer)
        # Only the first repeat's outputs are checked; the rest must equal them.
        extra = {"critic": critic, "metrics": metrics} if index == 0 else {}
        return Sample(wall=wall, iterations=1, sim_seconds=self.sim_seconds,
                      train_samples=n * self.config.epochs, digests=digests,
                      error=error, extra=extra)

    def _check_outputs(self, sample: Sample) -> None:
        before, after = checks.check_ppo_update(
            self.buffer.episodes, self.config.gamma, self.critic,
            sample.extra["critic"], sample.extra["metrics"])
        print(f"# buffer {len(self.buffer)} transitions in "
              f"{len(self.buffer.episodes)} episodes, "
              f"{self.sim_seconds:.2f} simulated seconds; critic MSE "
              f"{before:.6g} before the update, {after:.6g} after")

    def check(self, samples: list) -> list:
        return _check_all(samples, self._check_outputs)

    def checkpoint_bytes(self) -> float:
        return 0.0


def _check_all(samples: list, check_first) -> list:
    """Check the first sample's outputs; every sample must equal it byte for byte."""
    first = samples[0]
    verdict = first.error
    if verdict is None:
        try:
            check_first(first)
        except Exception:  # report the failed check, keep the run going
            verdict = _failure()
    out = []
    for s in samples:
        if s.error is not None:
            out.append(s.error)
        elif verdict is not None:
            out.append(verdict)
        elif s.digests != first.digests:
            diff = sorted(k for k in first.digests
                          if first.digests[k] != s.digests.get(k))
            out.append(f"outputs differ from the first repeat: {diff}")
        else:
            out.append(None)
    return out


WORKLOADS = {"league_search": League, "league_raw": League, "ppo_update": PpoUpdate}
