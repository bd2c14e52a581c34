"""Acceptance gate: one numbered requirement per test, one verdict line each.

Run `pytest tests/test_acceptance.py -s` to see the lines; each test prints
`criterion N PASS/FAIL  <detail>` and asserts the same condition.  The
multi-hour ablation study (criterion 7, full protocol) is behind the
`full_protocol` marker and deselected by default; the smoke profile stands
in as the default liveness gate.  Set DOGFIGHT_PROTOCOL_DIR to a directory of
completed protocol runs to let the marked test verify them instead of
retraining (runs are bit-reproducible, so the artifacts are equivalent).
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from dogfight import mcts, mlp, selfcheck, workers
from dogfight.cli import main
from dogfight.environment import BLUE, RED, env_step, flatten, observe, reset
from dogfight.harness import load_config
from dogfight.mcts import SearchConfig, run_search
from dogfight.missile import drag_of, mass_at, thrust_at
from dogfight.ppo import (
    RolloutBuffer,
    TrainConfig,
    Transition,
    compute_advantages,
    train_iteration,
)
from dogfight.selfplay import DRAW, AgentCheckpoint, play_match

SMALL = (13, 8, 8, 4)
FULL = (13, 256, 256, 4)


def _verdict(num, ok, detail):
    word = "PASS" if ok else "FAIL"
    line = f"criterion {num} {word}  {detail}"
    print(line)
    assert ok, line


def _timed(check):
    """Run one check of the selfcheck suite: (passed, detail, seconds)."""
    t0 = time.perf_counter()
    try:
        ok, detail = True, check()
    except AssertionError as exc:
        ok, detail = False, str(exc)
    return ok, detail, time.perf_counter() - t0


# --- 1: dynamics invariants --------------------------------------------------

def test_criterion_1_dynamics_invariants():
    t0 = time.perf_counter()
    trim_ok, trim, _ = _timed(selfcheck.check_trim_drift)
    order_ok, order, _ = _timed(selfcheck.check_rk4_order)
    elapsed = time.perf_counter() - t0
    ok = trim_ok and order_ok and elapsed < 1.0
    _verdict(1, ok, f"trim drift {trim}, {order}, {elapsed:.2f} s")


# --- 2: missile constants ----------------------------------------------------

def test_criterion_2_missile_constants():
    hand = 7168.5486  # 0.5 * 0.607 * 900^2 * 0.0324 * 0.9
    rel = abs(drag_of(900.0) - hand) / hand
    just_after = math.nextafter(12.0, math.inf)
    cutoff = (thrust_at(12.0) == 2000.0 and thrust_at(just_after) == 0.0)
    mass = (mass_at(12.0) == 86.0 and mass_at(60.0) == 86.0
            and mass_at(6.0) == 128.0)
    ok = rel < 1e-9 and cutoff and mass
    _verdict(2, ok, f"drag(900)={drag_of(900.0):.4f} rel err {rel:.1e}, "
                    f"thrust cutoff at 12.0 s: {cutoff}, mass schedule: {mass}")


# --- 3: guidance closes ------------------------------------------------------

def test_criterion_3_guidance_closes():
    head_ok, head_on, t_head = _timed(selfcheck.check_pn_head_on)
    cross_ok, crossing, t_cross = _timed(selfcheck.check_pn_crossing)
    ok = head_ok and cross_ok and t_head < 1.0 and t_cross < 1.0
    _verdict(3, ok, f"head-on {head_on} ({t_head:.2f} s), "
                    f"crossing {crossing} ({t_cross:.2f} s)")


# --- 4: gradient correctness -------------------------------------------------

def test_criterion_4_gradients_match_finite_differences():
    ok, detail, _ = _timed(selfcheck.check_gradients)
    _verdict(4, ok, "central differences over every parameter of the "
                    f"surrogate, entropy and value losses: {detail}")


# --- 5: optimization sanity --------------------------------------------------

def _sampled_buffer(seed, n=64):
    rng = np.random.default_rng(seed)
    actor = mlp.init_params(seed, SMALL, with_log_std=True)
    buf = RolloutBuffer()
    for i in range(n):
        obs = rng.uniform(0.0, 1.0, 13)
        action, logp = mlp.sample_and_logprob(actor, obs, rng)
        done = (i % 8) == 7
        z = float(rng.choice([-1.0, 0.0, 1.0])) if done else 0.0
        buf.add(Transition(obs, action, logp, z, float(rng.normal()), done))
    return buf, actor


def test_criterion_5_optimizer_sanity():
    iters_needed = []
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        actor = mlp.init_params(seed, SMALL, with_log_std=True)
        critic = mlp.init_params(1000 + seed, SMALL[:-1] + (1,))
        a_opt, c_opt = mlp.adam_state_for(actor), mlp.adam_state_for(critic)
        cfg = TrainConfig(batch_size=256)
        obs = np.zeros(13)
        solved = None
        for it in range(1, 51):
            buf = RolloutBuffer()
            for _ in range(256):
                action, logp = mlp.sample_and_logprob(actor, obs, rng)
                reward = 1.0 if action[0] > 0 else -1.0
                value = float(mlp.forward(critic, obs)[0])
                buf.add(Transition(obs, action, logp, reward, value, True))
            compute_advantages(buf, cfg)
            train_iteration(actor, critic, buf, cfg, rng, a_opt, c_opt)
            if float(mlp.forward(actor, obs)[0]) > 0.5:
                solved = it
                break
        iters_needed.append(solved)

    buf, actor = _sampled_buffer(7)
    critic = mlp.init_params(52, SMALL[:-1] + (1,))
    compute_advantages(buf, TrainConfig(batch_size=32))
    for t in buf.transitions():
        t.advantage = 0.0
    before = [t.copy() for t in actor.tensors()]
    train_iteration(actor, critic, buf,
                    TrainConfig(batch_size=32, entropy_coeff=0.0),
                    np.random.default_rng(0))
    unchanged = all(np.array_equal(t, orig)
                    for t, orig in zip(actor.tensors(), before))

    ok = all(s is not None for s in iters_needed) and unchanged
    _verdict(5, ok, f"bandit mean > 0.5 after {iters_needed} iterations "
                    f"(3/3 seeds within 50), "
                    f"zero-advantage actor bit-unchanged: {unchanged}")


# --- 6: search properties ----------------------------------------------------

class _EqualNormRng:
    """Stub rng drawing distinct rows of equal norm (uniform priors)."""

    def standard_normal(self, shape):
        k, d = shape
        rows = []
        for i in range(k):
            row = np.zeros(d)
            if i < 2 * d:
                row[i % d] = 1.0 if i < d else -1.0
            else:
                row[:] = 1.0 / math.sqrt(d)
            rows.append(row)
        return np.stack(rows)


def test_criterion_6_search_properties(monkeypatch):
    actor = mlp.init_params(0, SMALL, with_log_std=True)
    critic = mlp.init_params(1, SMALL[:-1] + (1,))
    opponent = mlp.init_params(2, SMALL, with_log_std=True)

    res = run_search(flatten(reset(3)), BLUE, actor, critic, opponent,
                     SearchConfig(), np.random.default_rng(5))
    visits_ok = int(res.visit_counts.sum()) == 20
    priors_ok = abs(float(res.priors.sum()) - 1.0) < 1e-12

    # Rigged oracle: value +1 only behind one known child; the search must
    # pick that child in every seeded trial.  The oracle knows the child by
    # the identity of blue's observation that the step returned for it, so
    # it runs on the Python walk (mcts._walk, stepping children with
    # mcts.env_step) only: the kernel's walk hands the critic new tuples.
    # An oracle keyed on the value of the child's observation would not do:
    # _EqualNormRng's rows 3 and 7 differ only in the fire logit, and where
    # the gate refuses a launch they step to the same state, so it rewards
    # child 3 as well as child 7 (such an oracle dominated 95 of 100 trials).
    cfg = SearchConfig(max_depth=1)
    dominated = 0
    for trial in range(100):
        k = trial % 9
        state = flatten(reset(trial))
        own = observe(state, BLUE)
        mean = mlp.forward(actor, own)
        expected = mean + np.exp(actor.log_std) \
            * _EqualNormRng().standard_normal((9, 4))
        best = set()

        def tagging_step(s, ab, ar, _k=k, _e=expected, _ids=best):
            out = env_step(s, ab, ar)
            if np.array_equal(ab, _e[_k]):
                _ids.add(id(out[1]))
            return out

        monkeypatch.setattr(mcts, "env_step", tagging_step)
        expand, _, build = mcts._callbacks(actor, critic, opponent, 9,
                                           _EqualNormRng())
        visits, _, _ = mcts._walk(
            state, False, own, observe(state, RED), 9, cfg.num_simulations,
            cfg.c_puct, cfg.max_depth, expand,
            lambda o, _ids=best: 1.0 if id(o) in _ids else 0.0, build)
        dominated += visits.index(max(visits)) == k

    state = flatten(reset(33))
    single = run_search(state, BLUE, actor, critic, opponent,
                        SearchConfig(num_actions=1), np.random.default_rng(77))
    raw, _ = mlp.sample_and_logprob(actor, observe(state, BLUE),
                                    np.random.default_rng(77))
    degenerate_ok = np.array_equal(single.action, raw)

    ok = visits_ok and priors_ok and dominated == 100 and degenerate_ok
    _verdict(6, ok, f"root visits sum {int(res.visit_counts.sum())}/20, "
                    f"priors sum {float(res.priors.sum()):.12f}, "
                    f"rigged dominance {dominated}/100, "
                    f"single-action equals raw sample: {degenerate_ok}")


# --- 7 and 8: training pipeline ----------------------------------------------

@pytest.fixture(scope="session")
def smoke_runs(tmp_path_factory):
    """Two smoke trainings with the same seed; returns (dir_a, dir_b, wall_a).

    The first runs matches and the PPO update on every usable CPU, the
    second on one.  Each writes to the same relative --out from its own
    directory, because out_dir goes into config.ini and from there into
    every checkpoint.
    """
    root = tmp_path_factory.mktemp("smoke")
    argv = ["train", "--seed", "7", "--smoke", "--out", "run"]
    with pytest.MonkeyPatch.context() as mp:
        (root / "a").mkdir()
        mp.chdir(root / "a")
        t0 = time.perf_counter()
        assert main(argv) == 0
        wall_a = time.perf_counter() - t0
        (root / "b").mkdir()
        mp.chdir(root / "b")
        mp.setattr(workers, "_usable_cpus", lambda: 1)
        assert main(argv) == 0
    return root / "a" / "run", root / "b" / "run", wall_a


def test_criterion_7_smoke_gate(smoke_runs):
    dir_a, _, wall_a = smoke_runs
    lines = (dir_a / "metrics.jsonl").read_text().splitlines()
    ckpts = sorted(dir_a.glob("checkpoint_*.ckpt"))
    ok = wall_a < 900.0 and len(lines) == 10 and len(ckpts) == 10
    _verdict("7 (smoke gate)", ok,
             f"10-iteration profile finished in {wall_a:.0f} s (< 900 s), "
             f"{len(lines)} metrics lines, {len(ckpts)} checkpoints")


PROTOCOL_CONFIG = """\
[run]
iterations = 50

[evaluate]
opponents = 12

[train]
batch_size = 1024
"""


def _window_wins(metrics_path):
    """Win counts and game counts for iterations 1-10 and 41-50."""
    rows = [json.loads(line) for line in
            Path(metrics_path).read_text().splitlines()]
    assert len(rows) == 50, f"{metrics_path}: expected 50 iterations"
    out = []
    for lo, hi in ((1, 10), (41, 50)):
        window = [r for r in rows if lo <= r["iter"] <= hi]
        wins = sum(r["wins"] for r in window)
        games = sum(r["wins"] + r["losses"] + r["draws"] for r in window)
        out.append((wins, games))
    return out[0], out[1]


def _verify_protocol_dir(run_dir, seed, use_mcts):
    cfg = load_config(Path(run_dir) / "config.ini")
    assert cfg.iterations == 50 and cfg.eval_opponents == 12 \
        and cfg.eval_games == 3 and cfg.train.batch_size == 1024 \
        and cfg.seed == seed and cfg.use_mcts is use_mcts, \
        f"{run_dir} was not produced by the stated protocol"


@pytest.mark.full_protocol
def test_criterion_7_full_protocol(tmp_path_factory):
    reuse = os.environ.get("DOGFIGHT_PROTOCOL_DIR")
    if reuse:
        root = Path(reuse)
    else:
        root = tmp_path_factory.mktemp("protocol")
        cfg_path = root / "protocol.ini"
        cfg_path.write_text(PROTOCOL_CONFIG, encoding="utf-8")
        for seed in (1, 2, 3):
            for arm, extra in (("mcts", []), ("raw", ["--no-mcts"])):
                assert main(["train", "--config", str(cfg_path),
                             "--seed", str(seed),
                             "--out", str(root / f"{arm}_s{seed}")] + extra) == 0

    # "Total wins across 3 master seeds": windows are pooled over the seeds,
    # with the per-seed splits printed for inspection.
    tot = {"em": 0, "lm": 0, "er": 0, "lr": 0}
    games = {"em": 0, "lm": 0, "er": 0, "lr": 0}
    per_seed = []
    for seed in (1, 2, 3):
        _verify_protocol_dir(root / f"mcts_s{seed}", seed, True)
        _verify_protocol_dir(root / f"raw_s{seed}", seed, False)
        (em, gem), (lm, glm) = _window_wins(root / f"mcts_s{seed}" / "metrics.jsonl")
        (er, ger), (lr, glr) = _window_wins(root / f"raw_s{seed}" / "metrics.jsonl")
        for key, wins, n in (("em", em, gem), ("lm", lm, glm),
                             ("er", er, ger), ("lr", lr, glr)):
            tot[key] += wins
            games[key] += n
        per_seed.append(f"seed {seed}: search {em}->{lm}, ablation {er}->{lr}")

    rising = tot["lm"] > tot["em"]
    flat = tot["lr"] <= tot["er"] + 2
    detail = (
        f"search wins {tot['em']}->{tot['lm']} "
        f"[rates {tot['em'] / games['em']:.3f}->{tot['lm'] / games['lm']:.3f}] "
        f"({'rise' if rising else 'DO NOT rise'}); "
        f"ablation wins {tot['er']}->{tot['lr']} "
        f"[rates {tot['er'] / games['er']:.3f}->{tot['lr'] / games['lr']:.3f}] "
        f"({'flat' if flat else 'NOT flat by count'}; windows hold "
        f"{games['er']} vs {games['lr']} games); " + "; ".join(per_seed))
    _verdict("7 (full protocol)", rising and flat, detail)


def test_criterion_8_deterministic_metrics(smoke_runs):
    dir_a, dir_b, _ = smoke_runs
    names = sorted(p.name for p in dir_a.iterdir())
    differ = [name for name in names
              if (dir_a / name).read_bytes() != (dir_b / name).read_bytes()]
    size = len((dir_a / "metrics.jsonl").read_bytes())
    ok = (not differ and size > 0
          and names == sorted(p.name for p in dir_b.iterdir())
          and {"metrics.jsonl", "matches.jsonl", "config.ini",
               "checkpoint_0010.ckpt"} <= set(names))
    _verdict(8, ok, f"two seed-7 smoke runs, on every usable CPU and on one, "
                    f"wrote byte-identical files ({len(names)} files, "
                    f"metrics.jsonl {size} bytes; differing: {differ or 'none'})")


# --- 9: untrained agents -----------------------------------------------------

def _random_agent(seed):
    actor = mlp.init_params(seed, FULL, with_log_std=True)
    critic = mlp.init_params(seed + 100000, FULL[:-1] + (1,))
    return AgentCheckpoint(0, actor, critic, seed, "")


def test_criterion_9_untrained_agents_mostly_draw():
    draws = 0
    for i in range(100):
        record = play_match(_random_agent(2 * i), _random_agent(2 * i + 1),
                            False, False, 5000 + i)
        draws += record.outcome == DRAW
    _verdict(9, draws > 90, f"{draws}/100 random-weight matches drawn")
