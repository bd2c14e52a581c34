"""League tests.

The mirror test replays one match with the sides' labels swapped and
asserts the two trajectory streams are bit-identical with roles
exchanged, which pins the whole match loop (sampling streams, stepping,
outcome mapping) to the environment's side symmetry.

The worker tests run the match loops on two forked processes and require
the same results, in the same order, as in-process, and no child process
left behind however the loop ends, a worker's death included.
"""

import gc
import itertools
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import weakref
from contextlib import closing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dogfight import selfplay
from dogfight.dynamics import AircraftState, DegenerateStateError
from dogfight.environment import BLUE, RED, EngagementState, Outcome, reset
from dogfight.mcts import SearchConfig
from dogfight.mlp import init_params
from dogfight.ppo import RolloutBuffer, TrainConfig
from dogfight.selfplay import (
    AgentCheckpoint,
    IterationMetrics,
    LeagueConfig,
    MatchRecord,
    _in_order,
    evaluate_vs_past,
    play_match,
    train_loop,
)

SMALL = (13, 8, 8, 4)
FAST_SEARCH = SearchConfig(num_simulations=4, max_depth=2)


def make_agent(seed, iteration=0):
    return AgentCheckpoint(iteration,
                           init_params(seed, SMALL, with_log_std=True),
                           init_params(seed + 1000, SMALL[:-1] + (1,)),
                           seed, "")


def test_match_record_outcome_validation():
    with pytest.raises(ValueError):
        MatchRecord(0, 0, 0, "Victory", 10, 5.0, 0)


def test_iteration_metrics_partition():
    IterationMetrics(1, 1, 1, 1, 3, None, 0.0)
    with pytest.raises(ValueError):
        IterationMetrics(1, 1, 1, 1, 4, None, 0.0)


def test_league_config_validation():
    LeagueConfig(layer_sizes=SMALL)
    with pytest.raises(ValueError):
        LeagueConfig(iterations=0)
    with pytest.raises(ValueError, match="seed"):
        LeagueConfig(seed=-1)
    with pytest.raises(ValueError, match="out_dir"):
        LeagueConfig(out_dir="")
    with pytest.raises(ValueError):
        LeagueConfig(eval_games=0)
    with pytest.raises(ValueError):
        LeagueConfig(layer_sizes=(13, 8, 3))
    with pytest.raises(ValueError):
        LeagueConfig(layer_sizes=(12, 8, 4))


def test_play_match_deterministic():
    a, b = make_agent(0), make_agent(1)
    r1 = play_match(a, b, False, False, 42)
    r2 = play_match(a, b, False, False, 42)
    assert r1 == r2
    assert r1.outcome in ("Win", "Loss", "Draw")
    assert r1.episode_length >= 1 and r1.sim_time > 0.0


def test_play_match_mcts_deterministic():
    a, b = make_agent(2), make_agent(3)
    r1 = play_match(a, b, True, True, 7, search_config=FAST_SEARCH)
    r2 = play_match(a, b, True, True, 7, search_config=FAST_SEARCH)
    assert r1 == r2


def test_play_match_records_blue_transitions():
    a, b = make_agent(4), make_agent(5)
    buffer = RolloutBuffer()
    record = play_match(a, b, False, False, 11, record_side=BLUE, buffer=buffer)
    assert len(buffer) == record.episode_length
    assert buffer.open_count == 0
    episode = buffer.episodes[0]
    z = episode[-1].reward
    assert z in (-1.0, 0.0, 1.0)
    for tr in episode:
        assert tr.obs.shape == (13,)
        assert tr.action.shape == (4,)
        assert np.isfinite(tr.logp) and np.isfinite(tr.value)
        assert tr.z == z
    assert all(not tr.done for tr in episode[:-1]) and episode[-1].done


def test_play_match_rejects_red_recording():
    with pytest.raises(ValueError):
        play_match(make_agent(0), make_agent(1), False, False, 0,
                   record_side=RED, buffer=RolloutBuffer())


def test_play_match_rejects_terminal_initial_state():
    done = replace(reset(0), outcome=Outcome.DRAW)
    with pytest.raises(ValueError):
        play_match(make_agent(0), make_agent(1), False, False, 0,
                   initial_state=done)


def _close_head_on():
    blue = AircraftState(0.0, 0.0, 5000.0, 300.0, 0.0, 0.0)
    red = AircraftState(6000.0, 0.0, 5000.0, 300.0, 0.0, np.pi)
    return EngagementState(blue, red, None, None, False, False, 0.0,
                           Outcome.ONGOING)


def test_play_match_side_swap_mirrors_bitwise():
    # Same agents, same per-side streams, swapped roles and a swapped
    # start state: every trajectory row must transpose exactly.
    a, b = make_agent(6), make_agent(7)
    s = _close_head_on()
    swapped = replace(s, blue=s.red, red=s.blue)
    rows1, rows2 = [], []
    r1 = play_match(a, b, False, False, 0, initial_state=s,
                    seed_a=101, seed_b=202, recorder=rows1.append)
    r2 = play_match(b, a, False, False, 0, initial_state=swapped,
                    seed_a=202, seed_b=101, recorder=rows2.append)
    flip = {"Win": "Loss", "Loss": "Win", "Draw": "Draw"}
    assert r2.outcome == flip[r1.outcome]
    assert r2.episode_length == r1.episode_length
    assert r2.sim_time == r1.sim_time
    assert len(rows1) == len(rows2)
    flip_out = {"BlueWin": "RedWin", "RedWin": "BlueWin",
                "Draw": "Draw", "Ongoing": "Ongoing"}
    # Rows alternate blue, red within each sub-step; the partner of
    # rows1[2k] (blue) is rows2[2k+1] (red) and vice versa.
    paired = [rows2[i + 1] if i % 2 == 0 else rows2[i - 1]
              for i in range(len(rows2))]
    for one, two in zip(rows1, paired):
        assert one[0] == two[0]  # t
        assert one[1] != two[1]  # side label transposed
        assert one[2:11] == two[2:11]  # aircraft and missile coordinates
        assert flip_out[one[11]] == two[11]


def test_evaluate_vs_past_degenerate_pool():
    current = make_agent(8, iteration=5)
    pool = [make_agent(9, iteration=0)]
    records = []
    metrics = evaluate_vs_past(current, pool, np.random.default_rng(0),
                               match_sink=records.append)
    assert metrics.games == 3
    assert metrics.wins + metrics.losses + metrics.draws == 3
    assert len(records) == 3
    assert all(r.opponent_iteration == 0 for r in records)
    assert [r.game_index for r in records] == [0, 1, 2]
    assert metrics.iteration == 5
    assert metrics.seconds > 0.0


def test_evaluate_vs_past_large_pool_resamples():
    current = make_agent(10, iteration=40)
    pool = [make_agent(20 + i, iteration=i) for i in range(40)]
    records = []
    metrics = evaluate_vs_past(current, pool, np.random.default_rng(1),
                               games=1, use_mcts=False,
                               match_sink=records.append)
    assert metrics.games == 36 and len(records) == 36
    opponents = [r.opponent_iteration for r in records]
    assert len(set(opponents)) < 36  # replacement makes collisions overwhelming
    assert all(0 <= i < 40 for i in opponents)


def test_evaluate_vs_past_empty_pool():
    with pytest.raises(ValueError):
        evaluate_vs_past(make_agent(0), [], np.random.default_rng(0))


def _tiny_league(seed, iterations=2, use_mcts=True):
    return LeagueConfig(seed=seed, iterations=iterations,
                        train=TrainConfig(batch_size=64, epochs=2),
                        search=FAST_SEARCH,
                        use_mcts=use_mcts,
                        eval_opponents=2,
                        eval_games=1,
                        layer_sizes=SMALL,
                        config_hash="tiny")


def test_train_loop_two_iterations():
    saved, rows = [], []
    pool, history = train_loop(_tiny_league(0),
                               checkpoint_sink=saved.append,
                               metrics_sink=rows.append)
    assert [c.iteration for c in pool] == [0, 1, 2]
    assert [c.iteration for c in saved] == [1, 2]  # no iteration-0 file
    assert len(history) == 2 and rows == history
    for row in history:
        assert row.train is not None
        for v in (row.train.surrogate, row.train.value_loss,
                  row.train.entropy, row.train.clip_fraction, row.train.kl):
            assert np.isfinite(v)
        assert row.wins + row.losses + row.draws == row.games
        assert row.seconds > 0.0 and row.wall_clock > 0.0
    assert all(c.config_hash == "tiny" for c in pool)
    # Training moved the live parameters; snapshots must be distinct copies.
    assert not np.array_equal(pool[0].actor.weights[0], pool[2].actor.weights[0])
    assert pool[1].actor.weights[0] is not pool[2].actor.weights[0]


def test_train_loop_deterministic_history():
    def run():
        _, history = train_loop(_tiny_league(3, use_mcts=False))
        return history

    h1, h2 = run(), run()
    assert len(h1) == len(h2) == 2
    for a, b in zip(h1, h2):
        assert (a.wins, a.losses, a.draws, a.games) == (b.wins, b.losses, b.draws, b.games)
        assert a.seconds == b.seconds
        assert a.train == b.train  # bitwise equal diagnostics


def _slow_echo(task):
    time.sleep(0.02 * (task % 3))  # later tasks often finish first
    return task


def test_in_order_keeps_task_order_and_stops_early():
    with closing(_in_order(_slow_echo, itertools.count(), 2)) as out:
        got = list(itertools.islice(out, 7))
    assert got == list(range(7))
    assert multiprocessing.active_children() == []
    assert list(_in_order(_slow_echo, range(3), 1)) == [0, 1, 2]
    assert list(_in_order(_slow_echo, [], 2)) == []
    with pytest.raises(ValueError):
        next(_in_order(_slow_echo, range(3), 0))


def test_in_order_releases_fn_without_the_cyclic_collector():
    class Echo:
        def __call__(self, task):
            return task

    echo = Echo()
    ref = weakref.ref(echo)
    gc.disable()
    try:
        assert list(_in_order(echo, range(5), 2)) == list(range(5))
        del echo
        assert ref() is None
    finally:
        gc.enable()


def test_dead_worker_fails_the_caller(monkeypatch):
    """A worker killed mid-match (as by the OOM killer) fails the run."""
    parent = os.getpid()
    real = selfplay.play_match

    def killed_in_second_game(*args, game_index=0, **kwargs):
        if game_index == 1 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args, game_index=game_index, **kwargs)

    def hung(signum, frame):
        raise AssertionError("a dead worker left the caller waiting")

    monkeypatch.setattr(selfplay, "play_match", killed_in_second_game)
    monkeypatch.setattr(selfplay, "_usable_cpus", lambda: 2)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(ChildProcessError, match="exit code -9"):
            evaluate_vs_past(make_agent(40, iteration=1), [make_agent(41)],
                             np.random.default_rng(2), use_mcts=False)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


_ORPHANING_PARENT = """
import multiprocessing, time
from dogfight.selfplay import _in_order

def slow(task):
    time.sleep(0.2)
    return task

for i, _ in enumerate(_in_order(slow, range(1000), 2)):
    if i == 1:
        print(*(p.pid for p in multiprocessing.active_children()), flush=True)
"""


def _running(pid):
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"  # zombies wait for init


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_workers_exit_when_the_parent_dies():
    src = str(Path(selfplay.__file__).parents[1])
    parent = subprocess.Popen([sys.executable, "-c", _ORPHANING_PARENT],
                              stdout=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": src})
    pids = [int(pid) for pid in parent.stdout.readline().split()]
    parent.kill()
    parent.wait()
    parent.stdout.close()
    deadline = time.monotonic() + 20
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in pids if _running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert len(pids) == 2 and left == []


@pytest.mark.parametrize("quota, cpus", [
    ({"cpu.max": "max 100000\n"}, 8),
    ({"cpu.max": "250000 100000\n"}, 2),
    ({"cpu.max": "50000 100000\n"}, 1),
    ({"cpu.max": "1600000 100000\n"}, 8),
    ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, 8),
    ({"cpu/cpu.cfs_quota_us": "300000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
    ({}, 8),
])
def test_usable_cpus_honours_the_cgroup_quota(tmp_path, monkeypatch, quota, cpus):
    for name, text in quota.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(selfplay, "_CGROUP", tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    assert selfplay._usable_cpus() == cpus


def test_evaluate_vs_past_worker_invariant(monkeypatch):
    current = make_agent(30, iteration=3)
    pool = [make_agent(31 + i, iteration=i) for i in range(3)]

    def run(workers):
        monkeypatch.setattr(selfplay, "_usable_cpus", lambda: workers)
        records = []
        metrics = evaluate_vs_past(current, pool, np.random.default_rng(5),
                                   opponents=2, games=2,
                                   search_config=FAST_SEARCH,
                                   match_sink=records.append)
        return metrics, records

    one, two = run(1), run(2)
    assert one == two
    assert len(one[1]) == 4 and one[0].games == 4
    assert evaluate_vs_past(current, pool, np.random.default_rng(5),
                            games=0).games == 0
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("use_mcts", [True, False])
def test_train_loop_worker_invariant(monkeypatch, use_mcts):
    def run(workers):
        monkeypatch.setattr(selfplay, "_usable_cpus", lambda: workers)
        saved, matches = [], []
        pool, history = train_loop(_tiny_league(4, use_mcts=use_mcts),
                                   checkpoint_sink=saved.append,
                                   match_sink=matches.append)
        return pool, [replace(row, wall_clock=0.0) for row in history], \
            [c.iteration for c in saved], matches

    pool1, *rest1 = run(1)
    pool2, *rest2 = run(2)
    assert multiprocessing.active_children() == []
    assert rest1 == rest2
    assert len(pool1) == len(pool2) == 3
    for a, b in zip(pool1, pool2):
        assert (a.iteration, a.seed, a.config_hash) == \
            (b.iteration, b.seed, b.config_hash)
        for x, y in zip(a.actor.tensors() + a.critic.tensors(),
                        b.actor.tensors() + b.critic.tensors()):
            assert x.tobytes() == y.tobytes()


def test_worker_exception_reaches_caller(monkeypatch):
    real = selfplay.play_match

    def fails_second_game(*args, game_index=0, **kwargs):
        if game_index == 1:
            raise DegenerateStateError("airspeed below the floor")
        return real(*args, game_index=game_index, **kwargs)

    monkeypatch.setattr(selfplay, "play_match", fails_second_game)
    monkeypatch.setattr(selfplay, "_usable_cpus", lambda: 2)
    records = []
    with pytest.raises(DegenerateStateError, match="airspeed"):
        evaluate_vs_past(make_agent(40, iteration=1), [make_agent(41)],
                         np.random.default_rng(2), use_mcts=False,
                         match_sink=records.append)
    assert [r.game_index for r in records] == [0]  # fed in order up to the fault
    assert multiprocessing.active_children() == []
