"""Training-loop tests: buffers, advantages, the clipped loss and updates."""

import math
import multiprocessing
from dataclasses import astuple

import numpy as np
import pytest

from dogfight import mlp, workers
from dogfight.mlp import NonFiniteError, adam_state_for, adam_step, backprop
from dogfight.ppo import (
    RolloutBuffer,
    TrainConfig,
    Transition,
    _actor_loss,
    _critic_loss,
    clip_surrogate,
    compute_advantages,
    train_iteration,
)
from dogfight.selfcheck import max_fd_error

SMALL = (13, 8, 8, 4)
CFG = TrainConfig(batch_size=32)


def make_transition(reward=0.0, value=0.0, done=False, rng=None, actor=None):
    if rng is None:
        return Transition(np.zeros(13), np.zeros(4), -1.0, reward, value, done)
    obs = rng.uniform(0.0, 1.0, 13)
    action, logp = mlp.sample_and_logprob(actor, obs, rng)
    return Transition(obs, action, logp, reward, value, done)


def random_buffer(seed, episodes=8, length=6, z_choices=(-1.0, 0.0, 1.0)):
    rng = np.random.default_rng(seed)
    actor = mlp.init_params(seed, SMALL, with_log_std=True)
    buf = RolloutBuffer()
    for _ in range(episodes):
        z = float(rng.choice(z_choices))
        for i in range(length):
            last = i == length - 1
            buf.add(make_transition(z if last else 0.0,
                                    float(rng.normal(scale=0.3)), last, rng, actor))
    return buf, actor


def test_config_validation():
    TrainConfig()
    with pytest.raises(ValueError):
        TrainConfig(gamma=-0.5)
    with pytest.raises(ValueError):
        TrainConfig(clip_epsilon=1.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    TrainConfig(entropy_coeff=0.0)  # explicitly allowed
    with pytest.raises(ValueError):
        TrainConfig(entropy_coeff=-0.1)


def test_buffer_closes_episodes_and_backfills_z():
    buf = RolloutBuffer()
    buf.add(make_transition(0.0, 0.1, False))
    buf.add(make_transition(0.0, 0.2, False))
    assert buf.open_count == 2 and len(buf) == 0
    buf.add(make_transition(-1.0, 0.3, True))
    assert buf.open_count == 0 and len(buf) == 3


def test_compute_advantages_rejects_open_episode():
    buf = RolloutBuffer()
    buf.add(make_transition(0.0, 0.0, False))
    with pytest.raises(ValueError):
        compute_advantages(buf, CFG)


def test_single_step_episode_delta():
    buf = RolloutBuffer()
    buf.add(make_transition(1.0, 0.3, True))
    compute_advantages(buf, CFG, normalize=False)
    assert buf.transitions()[0].advantage == pytest.approx(0.7)
    assert buf.transitions()[0].value_target == 1.0


def test_all_draw_buffer_has_zero_targets():
    buf, _ = random_buffer(0, z_choices=(0.0,))
    compute_advantages(buf, CFG)
    assert all(t.value_target == 0.0 for t in buf.transitions())


def test_three_step_geometric_targets():
    buf = RolloutBuffer()
    buf.add(make_transition(0.0, 0.0, False))
    buf.add(make_transition(0.0, 0.0, False))
    buf.add(make_transition(1.0, 0.0, True))
    compute_advantages(buf, CFG)
    targets = [t.value_target for t in buf.transitions()]
    assert targets == [0.99 * 0.99, 0.99, 1.0]


def test_value_target_chain_identity_exact():
    buf, _ = random_buffer(3, episodes=5, length=9)
    compute_advantages(buf, CFG)
    for ep in buf.episodes:
        assert ep[-1].value_target == ep[-1].reward
        for a, b in zip(ep, ep[1:]):
            assert a.value_target == CFG.gamma * b.value_target


def test_advantage_normalization():
    buf, _ = random_buffer(4, episodes=10, length=8)
    compute_advantages(buf, CFG)
    adv = np.array([t.advantage for t in buf.transitions()])
    assert abs(adv.mean()) < 1e-10
    assert abs(adv.var() - 1.0) < 1e-8


def test_clip_surrogate_arithmetic():
    term, active = clip_surrogate(np.array([1.5]), np.array([1.0]), 0.2)
    assert term[0] == pytest.approx(1.2)
    assert not active[0]
    term, active = clip_surrogate(np.array([0.5]), np.array([-1.0]), 0.2)
    assert term[0] == pytest.approx(-0.8)
    assert not active[0]
    term, active = clip_surrogate(np.array([1.0]), np.array([0.7]), 0.2)
    assert term[0] == pytest.approx(0.7)
    assert active[0]  # identity policy keeps the unclipped branch


def test_clip_surrogate_upper_bound():
    # The clipped objective can never credit more than (1 + eps) * |A|;
    # the pessimistic branch may go arbitrarily negative by design.
    rng = np.random.default_rng(9)
    ratio = rng.uniform(0.0, 3.0, 1000)
    adv = rng.normal(size=1000)
    term, _ = clip_surrogate(ratio, adv, 0.2)
    assert np.all(term <= 1.2 * np.abs(adv) + 1e-12)


def test_clipped_loss_identity_policy_value():
    # Zero-weight actor: mean = 0.  Using the mean as the action with the
    # matching stored log-probability makes every ratio exactly 1, so the
    # loss is -mean(A) - entropy_coeff * entropy.
    actor = mlp.init_params(0, SMALL, with_log_std=True)
    for w in actor.weights:
        w[:] = 0.0
    n = 16
    logp_mean = -2.0 * math.log(2.0 * math.pi)
    adv = np.linspace(-1.0, 1.0, n)
    cfg = TrainConfig(batch_size=n)
    fn = _actor_loss(np.zeros((n, 4)), np.full(n, logp_mean), adv, cfg, {})
    loss, _ = backprop(actor, np.zeros((n, 13)), fn)
    expected = -float(np.mean(adv)) - cfg.entropy_coeff * mlp.entropy(actor.log_std)
    assert loss == pytest.approx(expected, rel=1e-12)


def test_non_finite_ratio_identifies_sample():
    actor = mlp.init_params(0, SMALL, with_log_std=True)
    n = 4
    old_logp = np.array([-3.7, -2000.0, -3.7, -3.7])  # sample 1 overflows
    fn = _actor_loss(np.zeros((n, 4)), old_logp, np.ones(n),
                     TrainConfig(batch_size=n), {})
    with pytest.raises(NonFiniteError, match="sample 1"):
        backprop(actor, np.zeros((n, 13)), fn)


def test_train_iteration_requires_full_batch():
    buf, actor = random_buffer(5, episodes=2, length=3)
    critic = mlp.init_params(50, SMALL[:-1] + (1,))
    compute_advantages(buf, CFG)
    with pytest.raises(ValueError):
        train_iteration(actor, critic, buf, CFG, np.random.default_rng(0))


def test_train_iteration_requires_advantages():
    buf, actor = random_buffer(6, episodes=8, length=6)
    critic = mlp.init_params(51, SMALL[:-1] + (1,))
    with pytest.raises(ValueError):
        train_iteration(actor, critic, buf, CFG, np.random.default_rng(0))


def test_zero_advantage_zero_entropy_leaves_actor_unchanged():
    buf, actor = random_buffer(7, episodes=8, length=6)
    critic = mlp.init_params(52, SMALL[:-1] + (1,))
    compute_advantages(buf, CFG)
    for t in buf.transitions():
        t.advantage = 0.0
    cfg = TrainConfig(batch_size=32, entropy_coeff=0.0)
    before = [t.copy() for t in actor.tensors()]
    critic_before = [t.copy() for t in critic.tensors()]
    train_iteration(actor, critic, buf, cfg, np.random.default_rng(0))
    for t, orig in zip(actor.tensors(), before):
        np.testing.assert_array_equal(t, orig)
    # The critic still learns the value targets.
    assert any(not np.array_equal(t, orig)
               for t, orig in zip(critic.tensors(), critic_before))


def test_train_iteration_metrics_sane():
    buf, actor = random_buffer(8, episodes=12, length=6)
    critic = mlp.init_params(53, SMALL[:-1] + (1,))
    compute_advantages(buf, CFG)
    metrics = train_iteration(actor, critic, buf, CFG, np.random.default_rng(1))
    assert 0.0 <= metrics.clip_fraction <= 1.0
    for v in (metrics.surrogate, metrics.value_loss, metrics.entropy, metrics.kl):
        assert math.isfinite(v)
    assert metrics.value_loss >= 0.0


def test_positive_advantages_increase_action_logprob():
    rng = np.random.default_rng(11)
    actor = mlp.init_params(11, SMALL, with_log_std=True)
    critic = mlp.init_params(111, SMALL[:-1] + (1,))
    buf = RolloutBuffer()
    obs = np.zeros(13)
    for _ in range(64):
        action, logp = mlp.sample_and_logprob(actor, obs, rng)
        tr = Transition(obs, action, logp, 1.0, 0.0, True)
        buf.add(tr)
    for t in buf.transitions():
        t.advantage = 1.0
        t.value_target = 1.0
    actions = np.stack([t.action for t in buf.transitions()])

    def mean_logp():
        mean = mlp.forward(actor, obs)
        return float(np.mean(mlp.log_density(mean, actor.log_std, actions)))

    before = mean_logp()
    train_iteration(actor, critic, buf, TrainConfig(batch_size=64),
                    np.random.default_rng(0))
    assert mean_logp() > before


def _update_state(actor, critic, actor_opt, critic_opt):
    """Every byte an update may change: tensors, Adam moments and steps."""
    arrays = (actor.tensors() + critic.tensors() + actor_opt.m + actor_opt.v
              + critic_opt.m + critic_opt.v)
    return [a.tobytes() for a in arrays], actor_opt.step, critic_opt.step


def _interleaved_update(actor, critic, buf, cfg, rng, actor_opt, critic_opt):
    """The update as one loop: per minibatch, the actor's step, then the
    critic's.  train_iteration splits the two; the bytes must not move."""
    trs = buf.transitions()
    obs = np.stack([t.obs for t in trs])
    actions = np.stack([t.action for t in trs])
    old_logp = np.array([t.logp for t in trs])
    adv = np.array([t.advantage for t in trs])
    targets = np.array([t.value_target for t in trs])
    for _ in range(cfg.epochs):
        perm = rng.permutation(len(trs))
        for start in range(0, len(trs), cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            fn = _actor_loss(actions[idx], old_logp[idx], adv[idx], cfg, {})
            adam_step(actor, actor_opt, backprop(actor, obs[idx], fn)[1],
                      cfg.actor_lr)
            _, grads = backprop(critic, obs[idx], _critic_loss(targets[idx]))
            adam_step(critic, critic_opt, grads, cfg.critic_lr)


def test_train_iteration_worker_invariant(monkeypatch):
    # 72 transitions: three minibatches of at most 32 per epoch.
    def run(update):
        buf, actor = random_buffer(9, episodes=12, length=6)
        critic = mlp.init_params(54, SMALL[:-1] + (1,))
        actor_opt, critic_opt = adam_state_for(actor), adam_state_for(critic)
        compute_advantages(buf, CFG)
        rng = np.random.default_rng(3)
        calls = []
        for _ in range(2):  # the Adam states carry over, as in a league
            metrics = update(actor, critic, buf, CFG, rng, actor_opt, critic_opt)
            calls.append((_update_state(actor, critic, actor_opt, critic_opt),
                          metrics, rng.bit_generator.state))
        return calls

    def on(count):
        monkeypatch.setattr(workers, "_usable_cpus", lambda: count)
        calls = run(train_iteration)
        return [(state, [x.hex() for x in astuple(metrics)], rng_state)
                for state, metrics, rng_state in calls]

    one, two = on(1), on(2)
    assert multiprocessing.active_children() == []
    assert one == two
    reference = run(_interleaved_update)
    assert [call[0] for call in one] == [call[0] for call in reference]
    assert [call[2] for call in one] == [call[2] for call in reference]
    assert one[1][0][1:] == (2 * 6 * 3, 2 * 6 * 3)


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("fault, message", [
    ("ratio", "non-finite policy ratio at sample"),
    ("target", "non-finite loss inf"),
])
def test_failed_update_changes_nothing(monkeypatch, count, fault, message):
    monkeypatch.setattr(workers, "_usable_cpus", lambda: count)
    buf, actor = random_buffer(10, episodes=12, length=6)
    critic = mlp.init_params(55, SMALL[:-1] + (1,))
    actor_opt, critic_opt = adam_state_for(actor), adam_state_for(critic)
    compute_advantages(buf, CFG)
    train_iteration(actor, critic, buf, CFG, np.random.default_rng(4),
                    actor_opt, critic_opt)  # nonzero moments to keep
    # The bad sample sits in the last minibatch of the first epoch, so two
    # minibatches have been stepped when it is reached.
    bad = buf.transitions()[int(np.random.default_rng(5).permutation(72)[-1])]
    if fault == "ratio":
        bad.logp = -2000.0  # exp(new - old) overflows
    else:
        bad.value_target = math.inf
    before = _update_state(actor, critic, actor_opt, critic_opt)
    with pytest.raises(NonFiniteError, match=message):
        train_iteration(actor, critic, buf, CFG, np.random.default_rng(5),
                        actor_opt, critic_opt)
    assert _update_state(actor, critic, actor_opt, critic_opt) == before
    assert multiprocessing.active_children() == []


def test_bandit_toy_policy_improvement():
    # One state, reward +1 when action dimension 0 is positive: the policy
    # mean for that dimension must move decisively positive.
    rng = np.random.default_rng(0)
    actor = mlp.init_params(0, SMALL, with_log_std=True)
    critic = mlp.init_params(1000, SMALL[:-1] + (1,))
    a_opt, c_opt = adam_state_for(actor), adam_state_for(critic)
    cfg = TrainConfig(batch_size=256)
    obs = np.zeros(13)
    for _ in range(50):
        buf = RolloutBuffer()
        for _ in range(256):
            action, logp = mlp.sample_and_logprob(actor, obs, rng)
            reward = 1.0 if action[0] > 0 else -1.0
            value = float(mlp.forward(critic, obs)[0])
            buf.add(Transition(obs, action, logp, reward, value, True))
        compute_advantages(buf, cfg)
        train_iteration(actor, critic, buf, cfg, rng, a_opt, c_opt)
    assert float(mlp.forward(actor, obs)[0]) > 0.5


def test_ppo_losses_match_finite_differences():
    # The gradient contract for both production losses on a reduced net.
    actor = mlp.init_params(21, SMALL, with_log_std=True)
    critic = mlp.init_params(22, SMALL[:-1] + (1,))
    buf, _ = random_buffer(23, episodes=4, length=4)
    compute_advantages(buf, CFG)
    trs = buf.transitions()
    obs = np.stack([t.obs for t in trs])
    actions = np.stack([t.action for t in trs])
    old_logp = np.array([t.logp for t in trs])
    adv = np.array([t.advantage for t in trs])
    targets = np.array([t.value_target for t in trs])

    actor_fn = _actor_loss(actions, old_logp, adv, TrainConfig(batch_size=16), {})
    assert max_fd_error(actor, obs, actor_fn) < 1e-4
    assert max_fd_error(critic, obs, _critic_loss(targets)) < 1e-4
