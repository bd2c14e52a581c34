"""Network, backprop and Adam tests.

Gradient correctness is established against the selfcheck suite's central
finite-difference oracle on a reduced 13-8-8-4 network.  The seed-0 forward vector is a
frozen regression value.  `_reference_backprop` keeps the batched pass with
a fresh array per operation; backprop, which reuses its layer buffers, must
match it byte for byte.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from dogfight.mlp import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    AdamState,
    MlpParams,
    NonFiniteError,
    adam_state_for,
    adam_step,
    backprop,
    entropy,
    forward,
    init_params,
    log_density,
    sample_and_logprob,
)
from dogfight.ppo import TrainConfig, _actor_loss, _critic_loss
from dogfight.selfcheck import max_fd_error

SMALL = (13, 8, 8, 4)


def quadratic_loss(target):
    """Mean squared deviation from a fixed target, with analytic gradients."""

    def fn(out, log_std):
        n = out.shape[0]
        diff = out - target
        loss = float(np.mean(np.sum(diff * diff, axis=1)))
        d_out = 2.0 * diff / n
        d_ls = None if log_std is None else np.zeros_like(log_std)
        return loss, d_out, d_ls

    return fn


def test_init_deterministic_and_shaped():
    a = init_params(3, with_log_std=True)
    b = init_params(3, with_log_std=True)
    assert all(np.array_equal(x, y) for x, y in zip(a.tensors(), b.tensors()))
    assert a.layer_sizes == (13, 256, 256, 4)
    assert [w.shape for w in a.weights] == [(13, 256), (256, 256), (256, 4)]
    assert all(np.all(bias == 0.0) for bias in a.biases)
    assert np.all(a.log_std == 0.0)
    lim = math.sqrt(6.0 / (256 + 256))
    assert np.all(np.abs(a.weights[1]) <= lim)
    assert np.std(a.weights[1]) > 0.0
    c = init_params(4, with_log_std=True)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_critic_has_no_log_std():
    critic = init_params(0, (13, 256, 256, 1))
    assert critic.log_std is None
    assert critic.out_dim == 1


def test_zero_weights_forward_is_bias():
    p = init_params(0, SMALL)
    for w in p.weights:
        w[:] = 0.0
    p.biases[-1][:] = [1.0, -2.0, 3.0, 0.5]
    out = forward(p, np.zeros(13))
    np.testing.assert_array_equal(out, [1.0, -2.0, 3.0, 0.5])


def test_identical_rows_identical_outputs():
    p = init_params(1, SMALL, with_log_std=True)
    x = np.linspace(0.0, 1.0, 13)
    out = forward(p, np.tile(x, (6, 1)))
    for row in out:
        np.testing.assert_array_equal(row, out[0])


def test_batch_equals_per_row_exactly():
    p = init_params(2, (13, 256, 256, 4), with_log_std=True)
    rng = np.random.default_rng(5)
    batch = rng.uniform(0.0, 1.0, (32, 13))
    out = forward(p, batch)
    assert out.shape == (32, 4) and out.dtype == np.float64
    for i in range(32):
        np.testing.assert_array_equal(out[i], forward(p, batch[i]))
    # Memory layout must not change the result.
    np.testing.assert_array_equal(forward(p, np.asfortranarray(batch)), out)


def test_seed0_forward_regression():
    p = init_params(0, (13, 256, 256, 4), with_log_std=True)
    out = forward(p, np.full(13, 0.5))
    np.testing.assert_allclose(out, [-0.07846591184770801, 0.31307731334140476,
                                     -0.044644534486887884, -0.029443842258552854],
                               rtol=0, atol=1e-15)


def test_forward_dimension_mismatch():
    p = init_params(0, SMALL)
    with pytest.raises(ValueError):
        forward(p, np.zeros(12))
    with pytest.raises(ValueError):
        forward(p, np.zeros((4, 12)))


def test_backprop_matches_finite_differences():
    p = init_params(7, SMALL, with_log_std=True)
    rng = np.random.default_rng(11)
    batch = rng.uniform(0.0, 1.0, (5, 13))
    target = rng.normal(size=(5, 4))

    def loss_with_log_std(out, log_std):
        loss, d_out, _ = quadratic_loss(target)(out, log_std)
        # Add a log-std term so its gradient path is exercised too.
        loss += float(np.sum(log_std ** 2))
        return loss, d_out, 2.0 * log_std

    loss0, _ = backprop(p, batch, loss_with_log_std)
    assert math.isfinite(loss0)
    assert max_fd_error(p, batch, loss_with_log_std) < 1e-4


def test_constant_loss_gives_zero_gradients():
    p = init_params(1, SMALL, with_log_std=True)

    def const(out, log_std):
        return 1.0, np.zeros_like(out), np.zeros_like(log_std)

    _, grads = backprop(p, np.zeros((3, 13)), const)
    for g in grads.tensors():
        assert np.all(g == 0.0)


def test_duplicated_sample_doubles_sum_gradient():
    p = init_params(2, SMALL)
    x = np.linspace(-1.0, 1.0, 13)

    def sum_loss(out, log_std):
        return float(np.sum(out)), np.ones_like(out), None

    _, g1 = backprop(p, x[None, :], sum_loss)
    _, g2 = backprop(p, np.tile(x, (2, 1)), sum_loss)
    for a, b in zip(g1.tensors(), g2.tensors()):
        # Doubling is exact linear algebra; the batched products of the two
        # runs may round their final bit differently, nothing more.
        np.testing.assert_allclose(2.0 * a, b, rtol=0, atol=1e-13)


def _reference_backprop(params, inputs, loss_fn):
    """backprop with a fresh array for every operation of the batched pass."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    last = len(params.weights) - 1
    acts = [x]
    h = x
    for j, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if j < last:
            h = np.tanh(h)
        acts.append(h)
    loss, d_out, d_log_std = loss_fn(h, params.log_std)
    d_weights = [None] * (last + 1)
    d_biases = [None] * (last + 1)
    delta = np.asarray(d_out, dtype=np.float64)
    for j in range(last, -1, -1):
        d_weights[j] = acts[j].T @ delta
        d_biases[j] = delta.sum(axis=0)
        if j > 0:
            delta = (delta @ params.weights[j].T) * (1.0 - acts[j] * acts[j])
    if params.log_std is not None and d_log_std is None:
        d_log_std = np.zeros_like(params.log_std)
    return float(loss), MlpParams(
        d_weights, d_biases,
        None if params.log_std is None else np.asarray(d_log_std, dtype=np.float64))


def test_backprop_matches_fresh_array_reference_bytes():
    # The update's two networks, calls interleaved as in one process, over
    # row counts that take prefix views of grown buffers and grow them.
    actor = init_params(31, (13, 256, 256, 4), with_log_std=True)
    actor.log_std[:] = [-0.3, 0.1, 0.0, 0.4]
    critic = init_params(32, (13, 256, 256, 1))
    cfg = TrainConfig()
    rng = np.random.default_rng(33)
    previous = None
    for rows in (1024, 7, 1, 2048, 1024):
        x = rng.uniform(-1.0, 1.0, (rows, 13))
        kept = x.copy()
        actions = rng.normal(size=(rows, 4))
        old_logp = rng.normal(-5.5, 0.5, rows)
        advantages = rng.normal(size=rows)
        targets = rng.normal(size=rows)
        calls = [(actor, lambda stats: _actor_loss(actions, old_logp, advantages,
                                                   cfg, stats)),
                 (critic, lambda stats: _critic_loss(targets))]
        for params, make_loss in calls:
            stats, ref_stats = {}, {}
            loss, grads = backprop(params, x, make_loss(stats))
            ref_loss, ref_grads = _reference_backprop(params, x, make_loss(ref_stats))
            assert loss.hex() == ref_loss.hex()
            assert stats == ref_stats
            for got, want in zip(grads.tensors(), ref_grads.tensors(), strict=True):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            assert x.tobytes() == kept.tobytes()
            if previous is not None:
                assert not any(np.shares_memory(a, b)
                               for a in grads.tensors() for b in previous.tensors())
            previous = grads


def test_backprop_reuses_its_layer_buffers():
    # A 1024-row minibatch's (1024, 256) temporaries are 2 MiB each; once
    # the buffers exist, a call allocates little beyond its gradients.
    p = init_params(34, (13, 256, 256, 4), with_log_std=True)
    rng = np.random.default_rng(35)
    x = rng.uniform(-1.0, 1.0, (1024, 13))
    fn = quadratic_loss(rng.normal(size=(1024, 4)))
    backprop(p, x, fn)
    gc.collect()
    tracemalloc.start()
    try:
        backprop(p, x, fn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_non_finite_loss_raises():
    p = init_params(0, SMALL)

    def bad(out, log_std):
        return math.nan, np.zeros_like(out), None

    with pytest.raises(NonFiniteError):
        backprop(p, np.zeros((1, 13)), bad)


def test_adam_zero_gradient_leaves_params_untouched():
    p = init_params(4, SMALL, with_log_std=True)
    before = [t.copy() for t in p.tensors()]
    state = adam_state_for(p)
    zero = MlpParams([np.zeros_like(w) for w in p.weights],
                     [np.zeros_like(b) for b in p.biases],
                     np.zeros_like(p.log_std))
    adam_step(p, state, zero, lr=0.002)
    for t, orig in zip(p.tensors(), before):
        np.testing.assert_array_equal(t, orig)
    assert state.step == 1


def test_adam_first_step_magnitude():
    p = init_params(4, SMALL)
    state = adam_state_for(p)
    grads = MlpParams([np.full_like(w, 0.5) for w in p.weights],
                      [np.full_like(b, -0.25) for b in p.biases])
    before = [t.copy() for t in p.tensors()]
    adam_step(p, state, grads, lr=0.002)
    for t, orig, g in zip(p.tensors(), before, grads.tensors()):
        step = orig - t
        np.testing.assert_allclose(step, 0.002 * np.sign(g), rtol=1e-6)


def test_adam_quadratic_bowl_converges():
    p = init_params(0, SMALL)
    for w in p.weights:
        w[:] = 0.0
    p.biases[-1][:] = 0.25
    state = adam_state_for(p)

    def bowl(out, log_std):
        return float(np.sum(out * out)), 2.0 * out, None

    x = np.zeros((1, 13))
    for _ in range(500):
        _, grads = backprop(p, x, bowl)
        adam_step(p, state, grads, lr=0.002)
    assert np.all(np.abs(p.biases[-1]) < 1e-3)


def test_log_std_clamped_after_updates():
    p = init_params(0, SMALL, with_log_std=True)
    state = adam_state_for(p)
    push_up = MlpParams([np.zeros_like(w) for w in p.weights],
                        [np.zeros_like(b) for b in p.biases],
                        np.full(4, -1000.0))
    for _ in range(1500):
        adam_step(p, state, push_up, lr=0.002)
    assert np.all(p.log_std <= LOG_STD_MAX)
    assert np.all(p.log_std == LOG_STD_MAX)
    state = adam_state_for(p)
    push_down = MlpParams([np.zeros_like(w) for w in p.weights],
                          [np.zeros_like(b) for b in p.biases],
                          np.full(4, 1000.0))
    for _ in range(4000):
        adam_step(p, state, push_down, lr=0.002)
    assert np.all(p.log_std == LOG_STD_MIN)


def test_adam_shape_mismatch_raises():
    p = init_params(0, SMALL)
    other = init_params(0, (13, 4, 4, 4))
    state = adam_state_for(p)
    grads = MlpParams([np.zeros_like(w) for w in other.weights],
                      [np.zeros_like(b) for b in other.biases])
    with pytest.raises(ValueError):
        adam_step(p, state, grads, lr=0.002)


def test_sample_tight_at_log_std_floor():
    p = init_params(6, SMALL, with_log_std=True)
    p.log_std[:] = LOG_STD_MIN
    rng = np.random.default_rng(0)
    obs = np.full(13, 0.5)
    mean = forward(p, obs)
    for _ in range(100):
        action, logp = sample_and_logprob(p, obs, rng)
        assert np.all(np.abs(action - mean) < 5.0 * math.exp(LOG_STD_MIN) * 1.5)
        assert math.isfinite(logp)


def test_logprob_of_mean_action():
    p = init_params(6, SMALL, with_log_std=True)
    p.log_std[:] = [-0.5, 0.0, 0.3, 1.0]
    obs = np.full(13, 0.25)
    mean = forward(p, obs)
    logp = float(log_density(mean, p.log_std, mean))
    expected = -float(np.sum(p.log_std)) - 2.0 * math.log(2.0 * math.pi)
    assert logp == pytest.approx(expected, rel=1e-12)


def test_sampling_statistics():
    p = init_params(8, SMALL, with_log_std=True)
    p.log_std[:] = 0.2
    rng = np.random.default_rng(123)
    obs = np.full(13, 0.7)
    mean = forward(p, obs)
    n = 100_000
    draws = mean + np.exp(p.log_std) * rng.standard_normal((n, 4))
    sigma = math.exp(0.2)
    assert abs(float(np.mean(draws[:, 0])) - mean[0]) < 3.0 * sigma / math.sqrt(n)


def test_sampling_requires_actor():
    critic = init_params(0, (13, 8, 8, 1))
    with pytest.raises(ValueError):
        sample_and_logprob(critic, np.zeros(13), np.random.default_rng(0))


def test_log_density_batched():
    log_std = np.zeros(4)
    mean = np.zeros(4)
    acts = np.zeros((3, 4))
    out = log_density(mean, log_std, acts)
    assert out.shape == (3,)
    assert np.allclose(out, -2.0 * math.log(2.0 * math.pi))


def test_entropy_value():
    assert entropy(np.zeros(4)) == pytest.approx(2.0 * (1.0 + math.log(2.0 * math.pi)))
    # Entropy grows with log-std.
    assert entropy(np.full(4, 1.0)) > entropy(np.zeros(4))


def test_copy_is_deep():
    p = init_params(0, SMALL, with_log_std=True)
    q = p.copy()
    q.weights[0][0, 0] += 1.0
    q.log_std[0] += 1.0
    assert p.weights[0][0, 0] != q.weights[0][0, 0]
    assert p.log_std[0] != q.log_std[0]
