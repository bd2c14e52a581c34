"""Search tests.

The dominance test rigs the search with a stub rng that draws equal-norm
actions (priors exactly 1/9) and a callable value oracle worth +1 only for
one root child; the resulting visit counts follow a hand-derived recurrence
(round-robin until the good child is found, then all remaining visits on
it), which the test asserts exactly.
"""

import math

import numpy as np
import pytest

from dogfight import mlp
from dogfight.environment import BLUE, RED, Outcome, env_step, observe, reset
from dogfight.mcts import (
    SearchConfig,
    SearchNode,
    backup,
    expand_node,
    puct_select,
    run_search,
)

SMALL = (13, 8, 8, 4)


def make_actor(seed):
    return mlp.init_params(seed, SMALL, with_log_std=True)


def make_critic(seed):
    return mlp.init_params(seed, SMALL[:-1] + (1,))


def env_model(s, a_blue, a_red):
    return env_step(s, a_blue, a_red)


def manual_node(priors, visits=None, values=None):
    node = SearchNode(None, 0)
    k = len(priors)
    node.expanded = True
    node.priors = np.asarray(priors, dtype=float)
    node.visit_counts = np.zeros(k, dtype=np.int64) if visits is None \
        else np.asarray(visits, dtype=np.int64)
    node.total_values = np.zeros(k) if values is None else np.asarray(values, float)
    node.actions = np.zeros((k, 4))
    node.children = [None] * k
    return node


class EqualNormRng:
    """Stub rng drawing distinct rows of equal norm (so priors are uniform)."""

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


def test_search_config_validation():
    SearchConfig()
    with pytest.raises(ValueError):
        SearchConfig(num_actions=0)
    with pytest.raises(ValueError):
        SearchConfig(num_simulations=0)
    with pytest.raises(ValueError):
        SearchConfig(c_puct=0.0)


def test_puct_tie_break_lowest_index():
    node = manual_node(np.full(9, 1.0 / 9.0))
    assert puct_select(node, 1.25) == 0


def test_puct_prior_dominates_before_visits():
    priors = np.full(9, 0.1 / 8.0)
    priors[4] = 0.9
    node = manual_node(priors)
    assert puct_select(node, 1.25) == 4


def test_puct_explores_away_from_heavily_visited_child():
    visits = np.zeros(9, dtype=np.int64)
    visits[3] = 19
    node = manual_node(np.full(9, 1.0 / 9.0), visits=visits)
    assert puct_select(node, 1.25) != 3


def test_puct_requires_expanded_node():
    with pytest.raises(ValueError):
        puct_select(SearchNode(None, 0), 1.25)


def test_backup_running_mean():
    node = manual_node(np.full(9, 1.0 / 9.0))
    backup([(node, 1)], 0.5)
    assert node.visit_counts[1] == 1
    assert node.total_values[1] == 0.5
    assert node.q_values()[1] == 0.5
    backup([(node, 1)], -0.5)
    assert node.visit_counts[1] == 2
    assert node.total_values[1] == 0.0
    assert node.q_values()[1] == 0.0
    assert node.q_values()[0] == 0.0  # unvisited children report 0


def test_expand_node_populates_children():
    state = reset(1)
    node = SearchNode(state, 0)
    cfg = SearchConfig()
    value = expand_node(node, BLUE, make_actor(0), make_critic(1), make_actor(2),
                        cfg, np.random.default_rng(0))
    assert node.expanded
    assert node.actions.shape == (9, 4)
    assert abs(node.priors.sum() - 1.0) < 1e-9
    assert np.all(node.visit_counts == 0) and np.all(node.total_values == 0.0)
    assert -1.0 <= value <= 1.0
    with pytest.raises(ValueError):
        expand_node(node, BLUE, make_actor(0), make_critic(1), make_actor(2),
                    cfg, np.random.default_rng(0))


def test_expand_equal_log_densities_uniform_priors():
    state = reset(2)
    node = SearchNode(state, 0)
    expand_node(node, BLUE, make_actor(0), make_critic(1), make_actor(2),
                SearchConfig(), EqualNormRng())
    np.testing.assert_array_equal(node.priors, np.full(9, 1.0 / 9.0))


def test_expand_terminal_node_returns_outcome():
    node = SearchNode(reset(0), 1)
    node.terminal = True
    node.terminal_value = -1.0
    value = expand_node(node, BLUE, make_actor(0), make_critic(1), make_actor(2),
                        SearchConfig(), np.random.default_rng(0))
    assert value == -1.0
    assert not node.expanded


def test_critic_value_clamped():
    state = reset(3)
    node = SearchNode(state, 0)
    value = expand_node(node, BLUE, make_actor(0), lambda s: 5.0, make_actor(2),
                        SearchConfig(), np.random.default_rng(0))
    assert value == 1.0


def test_run_search_root_visit_sum():
    res = run_search(reset(4), BLUE, make_actor(0), make_critic(1), make_actor(2),
                     env_model, SearchConfig(), np.random.default_rng(7))
    assert int(res.visit_counts.sum()) == 20
    assert res.action.shape == (4,)
    assert abs(res.priors.sum() - 1.0) < 1e-9
    assert res.chosen_index == int(np.argmax(res.visit_counts))


def test_run_search_returns_root_forwards():
    # The root's actor mean and unclamped critic output come back with the
    # result, equal to fresh forwards on the root observation.
    state = reset(4)
    actor, critic = make_actor(0), make_critic(1)
    res = run_search(state, BLUE, actor, critic, make_actor(2), env_model,
                     SearchConfig(), np.random.default_rng(7))
    obs = observe(state, BLUE)
    np.testing.assert_array_equal(res.root_mean, mlp.forward(actor, obs))
    assert res.root_critic == float(mlp.forward(critic, obs)[0])
    assert res.root_value == min(max(res.root_critic, -1.0), 1.0)


def test_run_search_rejects_terminal_root():
    state = reset(0)
    from dataclasses import replace
    done = replace(state, outcome=Outcome.DRAW)
    with pytest.raises(ValueError):
        run_search(done, BLUE, make_actor(0), make_critic(1), make_actor(2),
                   env_model, SearchConfig(), np.random.default_rng(0))


def test_run_search_deterministic():
    def once():
        return run_search(reset(9), RED, make_actor(3), make_critic(4),
                          make_actor(5), env_model, SearchConfig(),
                          np.random.default_rng(11))

    a, b = once(), once()
    np.testing.assert_array_equal(a.action, b.action)
    np.testing.assert_array_equal(a.visit_counts, b.visit_counts)
    assert a.chosen_index == b.chosen_index


def _walk(node):
    yield node
    if node.children:
        for child in node.children:
            if child is not None:
                yield from _walk(child)


def test_tree_invariants_after_search():
    # Re-run the search loop manually so the tree stays inspectable.
    from dogfight import mcts as m

    state = reset(12)
    cfg = SearchConfig()
    actor, critic, opponent = make_actor(0), make_critic(1), make_actor(2)
    rng = np.random.default_rng(5)
    root = SearchNode(state, 0)
    expand_node(root, BLUE, actor, critic, opponent, cfg, rng)
    for _ in range(cfg.num_simulations):
        node, path = root, []
        while True:
            if node.terminal:
                value = node.terminal_value
                break
            if node.depth >= cfg.max_depth:
                value = m._evaluate_state(node, BLUE, critic)
                break
            if not node.expanded:
                value = expand_node(node, BLUE, actor, critic, opponent, cfg, rng)
                break
            idx = puct_select(node, cfg.c_puct)
            if node.children[idx] is None:
                node.children[idx] = m._make_child(node, idx, BLUE, env_model)
            path.append((node, idx))
            node = node.children[idx]
        backup(path, value)

    assert int(root.visit_counts.sum()) == cfg.num_simulations
    for node in _walk(root):
        # Each node's observations are the env model's, equal to observe's.
        own, opp = node.obs
        np.testing.assert_array_equal(own, observe(node.state, BLUE))
        np.testing.assert_array_equal(opp, observe(node.state, RED))
        if not node.expanded:
            continue
        assert abs(node.priors.sum() - 1.0) < 1e-9
        q = node.q_values()
        assert np.all(q >= -1.0 - 1e-12) and np.all(q <= 1.0 + 1e-12)
        # Visits entering an expanded interior node: one expanded it, the
        # rest descended to its children.
        for i, child in enumerate(node.children):
            if child is not None and child.expanded:
                assert int(child.visit_counts.sum()) == int(node.visit_counts[i]) - 1


def test_opponent_plays_policy_mean():
    state = reset(14)
    opponent = make_actor(6)
    expected = mlp.forward(opponent, observe(state, RED))
    seen = []

    def recording_model(s, ab, ar):
        if s is state:
            seen.append(ar)
        return env_step(s, ab, ar)

    run_search(state, BLUE, make_actor(0), make_critic(1), opponent,
               recording_model, SearchConfig(), np.random.default_rng(3))
    assert seen
    for ar in seen:
        np.testing.assert_array_equal(ar, expected)


def test_rigged_dominance_visit_recurrence():
    # Uniform priors (stub rng), depth-1 search, value +1 only behind child
    # k: selection round-robins indices 0..k, then locks onto k.  Expected
    # counts: one visit for each child below k, 20-k for k, none above.
    cfg = SearchConfig(max_depth=1)
    actor, opponent = make_actor(0), make_actor(2)
    for k in range(9):
        state = reset(20 + k)
        stub = EqualNormRng()
        obs = observe(state, BLUE)
        mean = mlp.forward(actor, obs)
        expected_actions = mean + np.exp(actor.log_std) * stub.standard_normal((9, 4))
        best_ids = set()

        def model(s, ab, ar, _k=k):
            res = env_step(s, ab, ar)
            if np.array_equal(ab, expected_actions[_k]):
                best_ids.add(id(res.state))
            return res

        res = run_search(state, BLUE, actor,
                         lambda st: 1.0 if id(st) in best_ids else 0.0,
                         opponent, model, cfg, EqualNormRng())
        assert res.chosen_index == k
        expected_counts = np.zeros(9, dtype=np.int64)
        expected_counts[:k] = 1
        expected_counts[k] = 20 - k
        np.testing.assert_array_equal(res.visit_counts, expected_counts)


def test_single_action_degenerates_to_raw_sample():
    state = reset(33)
    actor = make_actor(7)
    cfg = SearchConfig(num_actions=1)
    res = run_search(state, BLUE, actor, make_critic(1), make_actor(2),
                     env_model, cfg, np.random.default_rng(77))
    expected, _ = mlp.sample_and_logprob(actor, observe(state, BLUE),
                                         np.random.default_rng(77))
    np.testing.assert_array_equal(res.action, expected)
    assert res.chosen_index == 0
