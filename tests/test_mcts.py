"""Search tests.

The dominance test rigs the search with a stub rng that draws equal-norm
actions (priors exactly 1/9) and a callable value oracle worth +1 only for
one root child; the resulting visit counts follow a hand-derived recurrence
(round-robin until the good child is found, then all remaining visits on
it), which the test asserts exactly.
"""

import hashlib
import math

import numpy as np
import pytest

from dogfight import environment, mcts, mlp, selfcheck
from dogfight.environment import (
    BLUE,
    RED,
    Outcome,
    env_step,
    flat_model,
    flatten,
    observe,
    reset,
    unflatten,
)
from dogfight.mcts import (
    SearchConfig,
    SearchNode,
    SearchResult,
    backup,
    build_candidates,
    expand_node,
    puct_select,
    run_search,
)

SMALL = (13, 8, 8, 4)


def make_actor(seed):
    return mlp.init_params(seed, SMALL, with_log_std=True)


def make_critic(seed):
    return mlp.init_params(seed, SMALL[:-1] + (1,))


env_model = flat_model()


def manual_node(priors, visits=None, values=None):
    node = SearchNode(None, 0)
    k = len(priors)
    node.expanded = True
    node.priors = [float(p) for p in priors]
    node.visit_counts = [0] * k if visits is None else [int(n) for n in visits]
    node.total_values = [0.0] * k if values is None else [float(w) for w in values]
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


def test_half_built_node_never_reaches_selection():
    # Expanded but not yet descended through: there are no candidates to
    # select among or to step, and both say so rather than fail on None.
    node = SearchNode(flatten(reset(1)), 0)
    expand_node(node, BLUE, make_actor(0), make_critic(1), make_actor(2),
                SearchConfig(), np.random.default_rng(0))
    with pytest.raises(ValueError, match="candidates"):
        puct_select(node, 1.25)
    with pytest.raises(ValueError, match="candidates"):
        mcts._make_child(node, 0, BLUE, env_model)
    build_candidates(node, BLUE, make_actor(0), make_actor(2))
    assert puct_select(node, 1.25) in range(9)


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
    node = SearchNode(flatten(state), 0)
    cfg = SearchConfig()
    value = expand_node(node, BLUE, make_actor(0), make_critic(1), make_actor(2),
                        cfg, np.random.default_rng(0))
    assert node.expanded
    assert node.draws.shape == (9, 4) and node.actions is None
    build_candidates(node, BLUE, make_actor(0), make_actor(2))
    assert np.shape(node.actions) == (9, 4)
    assert abs(sum(node.priors) - 1.0) < 1e-9
    assert node.visit_counts == [0] * 9 and node.total_values == [0.0] * 9
    assert -1.0 <= value <= 1.0
    with pytest.raises(ValueError):
        expand_node(node, BLUE, make_actor(0), make_critic(1), make_actor(2),
                    cfg, np.random.default_rng(0))


def test_expand_equal_log_densities_uniform_priors():
    state = reset(2)
    node = SearchNode(flatten(state), 0)
    expand_node(node, BLUE, make_actor(0), make_critic(1), make_actor(2),
                SearchConfig(), EqualNormRng())
    build_candidates(node, BLUE, make_actor(0), make_actor(2))
    np.testing.assert_array_equal(node.priors, np.full(9, 1.0 / 9.0))


def test_expand_terminal_node_returns_outcome():
    node = SearchNode(flatten(reset(0)), 1)
    node.terminal = True
    node.terminal_value = -1.0
    value = expand_node(node, BLUE, make_actor(0), make_critic(1), make_actor(2),
                        SearchConfig(), np.random.default_rng(0))
    assert value == -1.0
    assert not node.expanded


def test_critic_value_clamped():
    state = reset(3)
    node = SearchNode(flatten(state), 0)
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
    root = SearchNode(flatten(state), 0)
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
            if node.actions is None:
                build_candidates(node, BLUE, actor, opponent)
            idx = puct_select(node, cfg.c_puct)
            if node.children[idx] is None:
                node.children[idx] = m._make_child(node, idx, BLUE, env_model)
            path.append((node, idx))
            node = node.children[idx]
        backup(path, value)

    assert sum(root.visit_counts) == cfg.num_simulations
    for node in _walk(root):
        # Each node's observations are the env model's, equal to observe's.
        own, opp = node.obs
        np.testing.assert_array_equal(own, observe(unflatten(node.state), BLUE))
        np.testing.assert_array_equal(opp, observe(unflatten(node.state), RED))
        if not node.expanded:
            continue
        q = np.asarray(node.q_values())
        assert np.all(q >= -1.0 - 1e-12) and np.all(q <= 1.0 + 1e-12)
        if node.actions is None:
            # A leaf: expanded, never descended through, so no candidates.
            assert node.priors is None and sum(node.visit_counts) == 0
            continue
        assert abs(sum(node.priors) - 1.0) < 1e-9
        # Visits entering an expanded interior node: one expanded it, the
        # rest descended to its children.
        for i, child in enumerate(node.children):
            if child is not None and child.expanded:
                assert sum(child.visit_counts) == node.visit_counts[i] - 1


def test_opponent_plays_policy_mean():
    state = reset(14)
    opponent = make_actor(6)
    expected = mlp.forward(opponent, observe(state, RED))
    seen = []

    def recording_model(s, ab, ar):
        if s == flatten(state):
            seen.append(ar)
        return env_model(s, ab, ar)

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
            res = env_model(s, ab, ar)
            if np.array_equal(ab, expected_actions[_k]):
                best_ids.add(id(res[0]))
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


SEARCH_SHA256 = "4de0bfb8347d42c2b64fe597ff3182c7da603dff81f22690e6954b528799ba65"


def test_seeded_searches_are_pinned():
    # 200 searches from states along seeded random-action engagements, both
    # sides, fire enabled so that many roots and children carry missiles in
    # flight, and some configurations beyond the default.  Every field of
    # every SearchResult goes into the digest.
    rng = np.random.default_rng(77)
    nets = [(make_actor(3 * i), make_critic(3 * i + 1), make_actor(3 * i + 2))
            for i in range(3)]
    configs = (SearchConfig(), SearchConfig(num_actions=4, c_puct=2.0),
               SearchConfig(num_simulations=30, max_depth=3))
    seen = {"missile_roots": 0, "terminal_children": 0}

    def model(s, a_blue, a_red):
        res = env_model(s, a_blue, a_red)
        seen["terminal_children"] += res[3] != 0
        return res

    digest = hashlib.sha256()
    state = None
    for i in range(200):
        while state is None or state.outcome is not Outcome.ONGOING:
            state = reset(int(rng.integers(0, 2 ** 31)))
            for _ in range(int(rng.integers(0, 60))):
                acts = rng.uniform((-1.0, -3.0, -4.0, -1.0), (9.0, 3.0, 4.0, 1.0),
                                   size=(2, 4))
                res = env_step(state, acts[0], acts[1])
                if res.done:
                    break
                state = res.state
        seen["missile_roots"] += (state.blue_missile is not None
                                  or state.red_missile is not None)
        actor, critic, opponent = nets[i % 3]
        res = run_search(state, (BLUE, RED)[i % 2], actor, critic, opponent,
                         model, configs[i % 3], np.random.default_rng(i))
        digest.update(res.action.tobytes())
        digest.update(np.asarray(res.visit_counts, dtype=np.int64).tobytes())
        digest.update(res.priors.tobytes())
        digest.update(res.root_mean.tobytes())
        digest.update(repr((res.chosen_index, res.root_value,
                            res.root_critic)).encode())
        step = env_step(state, res.action, res.action[::-1])
        state = None if step.done else step.state
    assert seen["missile_roots"] > 50 and seen["terminal_children"] > 100
    assert digest.hexdigest() == SEARCH_SHA256


DEFAULT_ACTOR, DEFAULT_CRITIC = (13, 256, 256, 4), (13, 256, 256, 1)


def _prefix_root(seed_rng):
    """The end of a seeded random-action engagement prefix that has not
    ended; about half of these carry a missile."""
    state = None
    while state is None or state.outcome is not Outcome.ONGOING:
        state = reset(int(seed_rng.integers(0, 2 ** 31)))
        for _ in range(int(seed_rng.integers(0, 60))):
            acts = seed_rng.uniform((-1.0, -3.0, -4.0, -1.0),
                                    (9.0, 3.0, 4.0, 1.0), size=(2, 4))
            res = env_step(state, acts[0], acts[1])
            if res.done:
                break
            state = res.state
    return state


def _default_nets(count):
    return [(mlp.init_params(3 * i, DEFAULT_ACTOR, with_log_std=True),
             mlp.init_params(3 * i + 1, DEFAULT_CRITIC),
             mlp.init_params(3 * i + 2, DEFAULT_ACTOR, with_log_std=True))
            for i in range(count)]


def _eager_expand(node, side, actor, critic, opponent, config, rng):
    """The reference expansion: candidates, priors and the opponent's reply
    built at once, for every expanded node."""
    k = config.num_actions
    own_obs, opp_obs = mcts._observations(node, side)
    mean = mlp.forward(actor, own_obs)
    draws = rng.standard_normal((k, actor.out_dim))
    actions = mean + np.exp(actor.log_std) * draws
    logps = mlp.log_density(mean, actor.log_std, actions)
    stable = np.exp(logps - logps.max())
    node.priors = (stable / stable.sum()).tolist()
    node.actions = actions.tolist()
    node.visit_counts = [0] * k
    node.total_values = [0.0] * k
    node.children = [None] * k
    node.mean = mean
    node.opp_action = mlp.forward(opponent, opp_obs).tolist()
    node.expanded = True
    return mcts._evaluate_state(node, side, critic)


def _eager_search(root_state, side, actor, critic, opponent, model, config, rng):
    """run_search's loop driven by the eager expansion."""
    root = SearchNode(flatten(root_state), 0)
    root_value = _eager_expand(root, side, actor, critic, opponent, config, rng)
    for _ in range(config.num_simulations):
        node, path = root, []
        while True:
            if node.terminal:
                value = node.terminal_value
                break
            if node.depth >= config.max_depth:
                value = mcts._evaluate_state(node, side, critic)
                break
            if not node.expanded:
                value = _eager_expand(node, side, actor, critic, opponent, config,
                                      rng)
                break
            idx = puct_select(node, config.c_puct)
            if node.children[idx] is None:
                node.children[idx] = mcts._make_child(node, idx, side, model)
            path.append((node, idx))
            node = node.children[idx]
        backup(path, value)
    visits = root.visit_counts
    chosen = visits.index(max(visits))
    return SearchResult(np.array(root.actions[chosen]), root_value,
                        np.array(visits, dtype=np.int64), np.array(root.priors),
                        chosen, root.mean, root.eval_value)


def test_deferred_candidates_match_eager_expansion(monkeypatch):
    # 50 searches on default-size networks, both sides, each from the end of
    # a seeded random-action prefix (about half the roots carry a missile).
    # The deferred build must give every SearchResult field to the bit, consume
    # the search rng as one (k, 4) draw per expansion, and run the actor and
    # opponent forwards only at nodes the tree descended through.
    seed_rng = np.random.default_rng(2104)
    nets = _default_nets(2)
    configs = (SearchConfig(), SearchConfig(num_simulations=30, max_depth=3))
    expanded, forwards = [], [0]
    real_expand, real_forward = mcts.expand_node, mcts.forward

    def spy_expand(node, *args):
        expanded.append(node)
        return real_expand(node, *args)

    def spy_forward(params, x):
        forwards[0] += 1
        return real_forward(params, x)

    monkeypatch.setattr(mcts, "expand_node", spy_expand)
    monkeypatch.setattr(mcts, "forward", spy_forward)
    missile_roots = leaves = 0
    for i in range(50):
        state = _prefix_root(seed_rng)
        missile_roots += (state.blue_missile is not None
                          or state.red_missile is not None)
        side = (BLUE, RED)[i % 2]
        actor, critic, opponent = nets[i % 2]
        cfg = configs[i // 2 % 2]
        expanded.clear()
        forwards[0] = 0
        rng = np.random.default_rng(i)
        got = run_search(state, side, actor, critic, opponent, env_model, cfg, rng)
        n_forwards = forwards[0]
        want = _eager_search(state, side, actor, critic, opponent, env_model, cfg,
                             np.random.default_rng(i))
        for field in ("action", "visit_counts", "priors", "root_mean"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
        assert (got.root_value, got.chosen_index, got.root_critic) == \
            (want.root_value, want.chosen_index, want.root_critic)

        twin = np.random.default_rng(i)
        for _ in expanded:
            twin.standard_normal((cfg.num_actions, 4))
        assert rng.bit_generator.state == twin.bit_generator.state

        descended = [n for n in expanded if n.actions is not None]
        capped = [n for n in _walk(expanded[0])
                  if not n.expanded and n.eval_value is not None]
        assert n_forwards == len(expanded) + len(capped) + 2 * len(descended)
        for node in expanded:
            if node.actions is None:
                leaves += 1
                assert node.priors is None and node.mean is None
                assert node.opp_action is None and sum(node.visit_counts) == 0
    assert missile_roots > 15 and leaves > 200


def model_call_identity(searches, seed):
    """Run seeded default-size searches, both sides, from `_prefix_root`
    roots, with every model call checked against env_step's Python loop on
    the rebuilt state, byte for byte (environment.flat_result and
    selfcheck.step_bytes).  Returns (model calls, calls the kernel handed
    back, terminal calls, calls with a missile in flight)."""
    seed_rng = np.random.default_rng(seed)
    nets = _default_nets(2)
    configs = (SearchConfig(), SearchConfig(num_simulations=30, max_depth=3))
    counts = [0, 0, 0, 0]
    spy = None if environment._kernel is None \
        else selfcheck.KernelSpy(environment._kernel)

    def checked(flat, a_blue, a_red):
        saved, environment._kernel = environment._kernel, spy
        try:
            out = env_model(flat, a_blue, a_red)
            environment._kernel = None
            ref = env_step(unflatten(flat), a_blue, a_red)
        finally:
            environment._kernel = saved
        assert selfcheck.step_bytes(environment.flat_result(out)) == \
            selfcheck.step_bytes(ref), (flat, a_blue, a_red)
        counts[0] += 1
        counts[2] += ref.done
        counts[3] += 1 in (flat[4], flat[5])
        return out

    for i in range(searches):
        actor, critic, opponent = nets[i % 2]
        run_search(_prefix_root(seed_rng), (BLUE, RED)[i % 2], actor, critic,
                   opponent, checked, configs[i // 2 % 2],
                   np.random.default_rng(i))
    counts[1] = -1 if spy is None else spy.handed_back
    return tuple(counts)


def test_search_model_calls_match_env_step():
    calls, handed_back, ended, in_flight = model_call_identity(50, 1896)
    assert calls > 800 and ended > 50 and in_flight > 200
    assert handed_back == (-1 if environment._kernel is None else 0)
