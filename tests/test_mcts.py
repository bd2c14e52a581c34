"""Search tests.

run_search walks the tree in the compiled kernel wherever it is loaded, and
in `mcts._walk` otherwise.  PYTHON_WALK stands in for the kernel: it keeps
the kernel's `step` and hands every search back, which pins a search to the
Python walk.  Tests that look inside the tree call `_walk` (see `walk`) or
run under that stand-in, rigged steps replace `mcts.env_step`, which the
Python walk steps children with, and the kernel's walk is held to the
Python walk byte for byte.

The dominance test rigs the search with a stub rng that draws equal-norm
actions (priors exactly 1/9) and a value oracle worth +1 only for one root
child; the resulting visit counts follow a hand-derived recurrence
(round-robin until the good child is found, then all remaining visits on
it), which the test asserts exactly.
"""

import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from dogfight import environment, mcts, mlp, selfcheck
from dogfight.environment import (
    BLUE,
    RED,
    Outcome,
    env_step,
    flatten,
    observe,
    other_side,
    reset,
    unflatten,
)
from dogfight.mcts import (
    SearchConfig,
    SearchNode,
    SearchResult,
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


PYTHON_WALK = SimpleNamespace(
    step=(lambda *args: None) if environment._kernel is None
    else environment._kernel.step,
    search=lambda *args: None)


def root_obs(flat, side):
    return observe(flat, side), observe(flat, other_side(side))


def walk(monkeypatch, flat, side, actor, critic, opponent, config, rng):
    """mcts._walk on run_search's arguments, with a spy on expand_node.
    Returns (_walk's result, the nodes it expanded, the root first)."""
    expanded = []
    real_expand = mcts.expand_node

    def spy_expand(node, expand):
        expanded.append(node)
        return real_expand(node, expand)

    with monkeypatch.context() as m:
        m.setattr(mcts, "expand_node", spy_expand)
        out = mcts._walk(flat, side != BLUE, *root_obs(flat, side),
                         config.num_actions, config.num_simulations,
                         config.c_puct, config.max_depth,
                         *mcts._callbacks(actor, critic, opponent,
                                          config.num_actions, rng))
    return out, expanded


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
    for c_puct in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            SearchConfig(c_puct=c_puct)


def test_puct_tie_break_lowest_index():
    assert puct_select([1.0 / 9.0] * 9, [0] * 9, [0.0] * 9, 1.25) == 0


def test_puct_prior_dominates_before_visits():
    priors = [0.1 / 8.0] * 9
    priors[4] = 0.9
    assert puct_select(priors, [0] * 9, [0.0] * 9, 1.25) == 4


def test_puct_explores_away_from_heavily_visited_child():
    visits = [0] * 9
    visits[3] = 19
    assert puct_select([1.0 / 9.0] * 9, visits, [0.0] * 9, 1.25) != 3


def test_backup_running_mean():
    # With no prior term, PUCT picks the highest mean backed-up value; an
    # unvisited child counts 0 and a tie goes to the lower index.
    node = SearchNode(None, 1, None)
    node.visit_counts, node.total_values = [0] * 9, [0.0] * 9
    backup([(node, 1)], 0.5)
    assert (node.visit_counts[1], node.total_values[1]) == (1, 0.5)
    assert puct_select([0.0] * 9, node.visit_counts, node.total_values, 1.25) == 1
    backup([(node, 1)], -0.5)
    assert (node.visit_counts[1], node.total_values[1]) == (2, 0.0)
    assert puct_select([0.0] * 9, node.visit_counts, node.total_values, 1.25) == 0
    assert sum(node.visit_counts) == 2 and sum(node.total_values) == 0.0


def test_expand_node_populates_children():
    # Expansion keeps the critic's output and expand's handle (the own
    # observation and the node's draws), nothing more; the first descent
    # builds the candidates, priors, reply and edges.
    flat = flatten(reset(1))
    critic = make_critic(1)
    node = SearchNode(flat, 0, root_obs(flat, BLUE))
    expand, _, build = mcts._callbacks(make_actor(0), critic, make_actor(2), 9,
                                       np.random.default_rng(0))
    value = expand_node(node, expand)
    own, draws = node.handle
    assert draws.shape == (9, 4) and node.actions is None
    assert node.visit_counts is None and node.children is None
    assert node.value == float(mlp.forward(critic, own)[0])
    assert value == min(max(node.value, -1.0), 1.0)
    actions, priors, mean, reply = build(node.handle, node.obs[1])
    assert actions.shape == (9, 4) and mean.shape == reply.shape == (4,)
    assert abs(priors.sum() - 1.0) < 1e-9


def test_expand_equal_log_densities_uniform_priors(monkeypatch):
    (visits, _, built), nodes = walk(monkeypatch, flatten(reset(2)), BLUE,
                                     make_actor(0), make_critic(1),
                                     make_actor(2), SearchConfig(),
                                     EqualNormRng())
    np.testing.assert_array_equal(built[1], np.full(9, 1.0 / 9.0))
    assert nodes[0].priors == [1.0 / 9.0] * 9 and sum(visits) == 20


def test_expand_terminal_node_returns_outcome(monkeypatch):
    # A step that ends the engagement every time with red's win: each
    # child is terminal, so it is never expanded or evaluated, and its
    # reward, -1 to blue, is what every simulation backs up.
    forwards = [0]
    real_forward = mcts.forward

    def counted(params, x):
        forwards[0] += 1
        return real_forward(params, x)

    def red_wins(flat, a_blue, a_red):
        return env_step(flat, a_blue, a_red)[:3] + (2,)

    monkeypatch.setattr(mcts, "forward", counted)
    monkeypatch.setattr(mcts, "env_step", red_wins)
    (visits, _, _), nodes = walk(monkeypatch, flatten(reset(0)), BLUE,
                                 make_actor(0), make_critic(1), make_actor(2),
                                 SearchConfig(), np.random.default_rng(0))
    root = nodes[0]
    assert nodes == [root] and sum(visits) == 20
    assert forwards[0] == 3  # the root's critic, actor and opponent
    children = [c for c in root.children if c is not None]
    assert children and all(c.terminal_value == -1.0 and c.handle is None
                            and c.value is None for c in children)
    assert sum(root.total_values) == -20.0


def test_critic_value_clamped(monkeypatch):
    # A critic that outputs 5.0 everywhere: the root value is clamped to the
    # outcome scale, and the unclamped output comes back too, on both walks.
    critic = make_critic(1)
    critic.weights[-1][:] = 0.0
    critic.biases[-1][:] = 5.0
    for kernel in (environment._kernel, PYTHON_WALK):
        monkeypatch.setattr(environment, "_kernel", kernel)
        res = run_search(flatten(reset(3)), BLUE, make_actor(0), critic,
                         make_actor(2), SearchConfig(),
                         np.random.default_rng(0))
        assert (res.root_value, res.root_critic) == (1.0, 5.0)


def test_run_search_root_visit_sum():
    res = run_search(flatten(reset(4)), BLUE, make_actor(0), make_critic(1),
                     make_actor(2), SearchConfig(), np.random.default_rng(7))
    assert int(res.visit_counts.sum()) == 20
    assert res.action.shape == (4,)
    assert abs(res.priors.sum() - 1.0) < 1e-9
    assert res.chosen_index == int(np.argmax(res.visit_counts))


def test_run_search_returns_root_forwards():
    # The root's actor mean and unclamped critic output come back with the
    # result, equal to fresh forwards on the root observation.
    state = reset(4)
    actor, critic = make_actor(0), make_critic(1)
    res = run_search(flatten(state), BLUE, actor, critic, make_actor(2),
                     SearchConfig(), np.random.default_rng(7))
    obs = observe(flatten(state), BLUE)
    np.testing.assert_array_equal(res.root_mean, mlp.forward(actor, obs))
    assert res.root_critic == float(mlp.forward(critic, obs)[0])
    assert res.root_value == min(max(res.root_critic, -1.0), 1.0)


def test_run_search_rejects_terminal_root():
    state = reset(0)
    from dataclasses import replace
    done = replace(state, outcome=Outcome.DRAW)
    with pytest.raises(ValueError):
        run_search(flatten(done), BLUE, make_actor(0), make_critic(1),
                   make_actor(2), SearchConfig(), np.random.default_rng(0))


def test_run_search_deterministic():
    def once():
        return run_search(flatten(reset(9)), RED, make_actor(3),
                          make_critic(4), make_actor(5), SearchConfig(),
                          np.random.default_rng(11))

    a, b = once(), once()
    np.testing.assert_array_equal(a.action, b.action)
    np.testing.assert_array_equal(a.visit_counts, b.visit_counts)
    assert a.chosen_index == b.chosen_index


def _nodes(node):
    yield node
    if node.children:
        for child in node.children:
            if child is not None:
                yield from _nodes(child)


def test_tree_invariants_after_search(monkeypatch):
    cfg = SearchConfig()
    (visits, _, _), expanded = walk(monkeypatch, flatten(reset(12)), BLUE,
                                    make_actor(0), make_critic(1),
                                    make_actor(2), cfg,
                                    np.random.default_rng(5))
    root = expanded[0]
    assert visits is root.visit_counts
    assert sum(visits) == cfg.num_simulations
    for node in _nodes(root):
        # Each node's observations are env_step's, equal to observe's.
        own, opp = node.obs
        np.testing.assert_array_equal(own, observe(node.state, BLUE))
        np.testing.assert_array_equal(opp, observe(node.state, RED))
        if node.handle is None:
            continue
        if node.actions is None:
            # A leaf: expanded, never descended through, so no candidates.
            assert node.priors is None and node.visit_counts is None
            continue
        q = [w / n if n else 0.0
             for w, n in zip(node.total_values, node.visit_counts)]
        assert all(-1.0 - 1e-12 <= v <= 1.0 + 1e-12 for v in q)
        assert abs(sum(node.priors) - 1.0) < 1e-9
        # Visits entering an expanded interior node: one expanded it, the
        # rest descended to its children.
        for i, child in enumerate(node.children):
            if child is not None and child.handle is not None:
                assert sum(child.visit_counts or [0]) == node.visit_counts[i] - 1


def test_opponent_plays_policy_mean(monkeypatch):
    state = reset(14)
    opponent = make_actor(6)
    expected = mlp.forward(opponent, observe(flatten(state), RED))
    seen = []

    def recording_step(s, ab, ar):
        if s == flatten(state):
            seen.append(ar)
        return env_step(s, ab, ar)

    monkeypatch.setattr(environment, "_kernel", PYTHON_WALK)
    monkeypatch.setattr(mcts, "env_step", recording_step)
    run_search(flatten(state), BLUE, make_actor(0), make_critic(1), opponent,
               SearchConfig(), np.random.default_rng(3))
    assert seen
    for ar in seen:
        np.testing.assert_array_equal(ar, expected)


def test_rigged_dominance_visit_recurrence(monkeypatch):
    # Uniform priors (stub rng), depth-1 search, value +1 only behind child
    # k: selection round-robins indices 0..k, then locks onto k.  Expected
    # counts: one visit for each child below k, 20-k for k, none above.
    # The oracle knows child k by the identity of the observation that the
    # step returned for it, so it runs on the Python walk only (the
    # kernel's walk hands evaluate new tuples).  Its value would not do:
    # EqualNormRng's rows 3 and 7 differ only in the fire logit, and where
    # the gate refuses a launch they step to the same state, so an oracle
    # keyed on the value rewards child 3 as well as child 7.
    cfg = SearchConfig(max_depth=1)
    actor, critic, opponent = make_actor(0), make_critic(1), make_actor(2)
    for k in range(9):
        flat = flatten(reset(20 + k))
        mean = mlp.forward(actor, observe(flat, BLUE))
        expected_actions = mean + np.exp(actor.log_std) \
            * EqualNormRng().standard_normal((9, 4))
        best = set()

        def tagging_step(s, ab, ar, _k=k):
            out = env_step(s, ab, ar)
            if np.array_equal(ab, expected_actions[_k]):
                best.add(id(out[1]))
            return out

        monkeypatch.setattr(mcts, "env_step", tagging_step)
        expand, _, build = mcts._callbacks(actor, critic, opponent, 9,
                                           EqualNormRng())
        visits, _, _ = mcts._walk(flat, False, *root_obs(flat, BLUE), 9,
                                  cfg.num_simulations, cfg.c_puct,
                                  cfg.max_depth, expand,
                                  lambda own: 1.0 if id(own) in best else 0.0,
                                  build)
        assert visits.index(max(visits)) == k
        assert visits == [1] * k + [20 - k] + [0] * (8 - k)


def test_single_action_degenerates_to_raw_sample():
    state = reset(33)
    actor = make_actor(7)
    cfg = SearchConfig(num_actions=1)
    res = run_search(flatten(state), BLUE, actor, make_critic(1),
                     make_actor(2), cfg, np.random.default_rng(77))
    expected, _ = mlp.sample_and_logprob(actor, observe(flatten(state), BLUE),
                                         np.random.default_rng(77))
    np.testing.assert_array_equal(res.action, expected)
    assert res.chosen_index == 0


SEARCH_SHA256 = "4de0bfb8347d42c2b64fe597ff3182c7da603dff81f22690e6954b528799ba65"


def _pinned_searches():
    """The digest of 200 searches from states along seeded random-action
    engagements, both sides, fire enabled so that many roots and children
    carry missiles in flight, and some configurations beyond the default.
    Every field of every SearchResult goes into the digest."""
    rng = np.random.default_rng(77)
    nets = [(make_actor(3 * i), make_critic(3 * i + 1), make_actor(3 * i + 2))
            for i in range(3)]
    configs = (SearchConfig(), SearchConfig(num_actions=4, c_puct=2.0),
               SearchConfig(num_simulations=30, max_depth=3))
    digest = hashlib.sha256()
    state = None
    missile_roots = 0
    for i in range(200):
        while state is None or state[9]:
            state = flatten(reset(int(rng.integers(0, 2 ** 31))))
            for _ in range(int(rng.integers(0, 60))):
                acts = rng.uniform((-1.0, -3.0, -4.0, -1.0), (9.0, 3.0, 4.0, 1.0),
                                   size=(2, 4)).tolist()
                nxt = env_step(state, acts[0], acts[1])
                if nxt[3]:
                    break
                state = nxt[0]
        missile_roots += state[2] is not None or state[3] is not None
        actor, critic, opponent = nets[i % 3]
        res = run_search(state, (BLUE, RED)[i % 2], actor, critic,
                         opponent, configs[i % 3], np.random.default_rng(i))
        digest.update(res.action.tobytes())
        digest.update(np.asarray(res.visit_counts, dtype=np.int64).tobytes())
        digest.update(res.priors.tobytes())
        digest.update(res.root_mean.tobytes())
        digest.update(repr((res.chosen_index, res.root_value,
                            res.root_critic)).encode())
        nxt = env_step(state, res.action.tolist(), res.action[::-1].tolist())
        state = None if nxt[3] else nxt[0]
    assert missile_roots > 50
    return digest.hexdigest()


def test_seeded_searches_are_pinned(monkeypatch):
    # The Python walk: a wrapped step also counts the children that end the
    # engagement.
    terminal_children = [0]

    def counting_step(s, a_blue, a_red):
        res = env_step(s, a_blue, a_red)
        terminal_children[0] += res[3] != 0
        return res

    monkeypatch.setattr(environment, "_kernel", PYTHON_WALK)
    monkeypatch.setattr(mcts, "env_step", counting_step)
    assert _pinned_searches() == SEARCH_SHA256
    assert terminal_children[0] > 100


def test_seeded_searches_are_pinned_on_the_kernel_walk(monkeypatch):
    # The same 200 searches, which the kernel walks whole, reach the same
    # digest.
    if environment._kernel is None:
        pytest.skip(f"no kernel: {environment._KERNEL_DETAIL}")
    spy = selfcheck.KernelSpy(environment._kernel)
    monkeypatch.setattr(environment, "_kernel", spy)
    assert _pinned_searches() == SEARCH_SHA256
    assert (spy.searches, spy.searches_handed_back) == (200, 0)


DEFAULT_ACTOR, DEFAULT_CRITIC = (13, 256, 256, 4), (13, 256, 256, 1)


def _default_nets(count):
    return [(mlp.init_params(3 * i, DEFAULT_ACTOR, with_log_std=True),
             mlp.init_params(3 * i + 1, DEFAULT_CRITIC),
             mlp.init_params(3 * i + 2, DEFAULT_ACTOR, with_log_std=True))
            for i in range(count)]


def _eager_expand(node, actor, critic, opponent, k, rng):
    """The reference expansion: candidates, priors and the opponent's reply
    built at once, for every expanded node.  The handle is the actor's
    mean."""
    own_obs, opp_obs = node.obs
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
    node.handle = mean
    node.reply = mlp.forward(opponent, opp_obs).tolist()
    node.value = float(mlp.forward(critic, own_obs)[0])
    return min(max(node.value, -1.0), 1.0)


def _eager_search(root_state, side, actor, critic, opponent, config, rng):
    """_walk's loop driven by the eager expansion."""
    k, red = config.num_actions, side != BLUE
    root = SearchNode(root_state, 0, root_obs(root_state, side))
    root_value = _eager_expand(root, actor, critic, opponent, k, rng)
    for _ in range(config.num_simulations):
        node, path = root, []
        while True:
            if node.terminal_value is not None:
                value = node.terminal_value
                break
            if node.depth >= config.max_depth:
                if node.value is None:
                    node.value = float(mlp.forward(critic, node.obs[0])[0])
                value = min(max(node.value, -1.0), 1.0)
                break
            if node.handle is None:
                value = _eager_expand(node, actor, critic, opponent, k, rng)
                break
            idx = puct_select(node.priors, node.visit_counts,
                              node.total_values, config.c_puct)
            if node.children[idx] is None:
                node.children[idx] = mcts._make_child(node, idx, red)
            path.append((node, idx))
            node = node.children[idx]
        backup(path, value)
    visits = root.visit_counts
    chosen = visits.index(max(visits))
    return SearchResult(np.array(root.actions[chosen]), root_value,
                        np.array(visits, dtype=np.int64), np.array(root.priors),
                        chosen, root.handle, root.value)


def test_deferred_candidates_match_eager_expansion(monkeypatch):
    # 50 searches on default-size networks, both sides, each from the end of
    # a seeded random-action prefix (about half the roots carry a missile).
    # On the Python walk, whose nodes the spies can see, the deferred build
    # must give every SearchResult field to the bit, consume
    # the search rng as one (k, 4) draw per expansion, and run the actor and
    # opponent forwards only at nodes the tree descended through.
    seed_rng = np.random.default_rng(2104)
    nets = _default_nets(2)
    configs = (SearchConfig(), SearchConfig(num_simulations=30, max_depth=3))
    expanded, forwards = [], [0]
    real_expand, real_forward = mcts.expand_node, mcts.forward

    def spy_expand(node, expand):
        expanded.append(node)
        return real_expand(node, expand)

    def spy_forward(params, x):
        forwards[0] += 1
        return real_forward(params, x)

    monkeypatch.setattr(mcts, "expand_node", spy_expand)
    monkeypatch.setattr(mcts, "forward", spy_forward)
    monkeypatch.setattr(environment, "_kernel", PYTHON_WALK)
    missile_roots = leaves = 0
    for i in range(50):
        state = selfcheck.prefix_root(seed_rng)
        missile_roots += state[2] is not None or state[3] is not None
        side = (BLUE, RED)[i % 2]
        actor, critic, opponent = nets[i % 2]
        cfg = configs[i // 2 % 2]
        expanded.clear()
        forwards[0] = 0
        rng = np.random.default_rng(i)
        got = run_search(state, side, actor, critic, opponent, cfg, rng)
        n_forwards = forwards[0]
        want = _eager_search(state, side, actor, critic, opponent, cfg,
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
        capped = [n for n in _nodes(expanded[0])
                  if n.handle is None and n.value is not None]
        assert n_forwards == len(expanded) + len(capped) + 2 * len(descended)
        for node in expanded:
            if node.actions is None:
                leaves += 1
                assert node.priors is None and node.reply is None
                assert node.visit_counts is None
    assert missile_roots > 15 and leaves > 200


def model_call_identity(monkeypatch, searches, seed):
    """Run seeded default-size searches on the Python walk, both sides, from
    `selfcheck.prefix_root` roots, with every child step checked against
    env_step's Python loop, byte for byte (selfcheck.step_bytes), and every
    state it steps checked to survive unflatten and flatten unchanged.
    Returns (child steps, steps the kernel handed back, terminal steps,
    steps with a missile in flight)."""
    seed_rng = np.random.default_rng(seed)
    nets = _default_nets(2)
    configs = (SearchConfig(), SearchConfig(num_simulations=30, max_depth=3))
    counts = [0, 0, 0, 0]
    spy = None if environment._kernel is None \
        else selfcheck.KernelSpy(environment._kernel)

    def checked(flat, a_blue, a_red):
        saved, environment._kernel = environment._kernel, spy
        try:
            out = env_step(flat, a_blue, a_red)
            environment._kernel = None
            ref = env_step(flat, a_blue, a_red)
        finally:
            environment._kernel = saved
        assert selfcheck.step_bytes(out) == selfcheck.step_bytes(ref), \
            (flat, a_blue, a_red)
        assert flatten(unflatten(flat)) == flat
        counts[0] += 1
        counts[2] += ref[3] != 0
        counts[3] += 1 in (flat[4], flat[5])
        return out

    for i in range(searches):
        actor, critic, opponent = nets[i % 2]
        root = selfcheck.prefix_root(seed_rng)
        with monkeypatch.context() as m:
            m.setattr(environment, "_kernel", PYTHON_WALK)
            m.setattr(mcts, "env_step", checked)
            run_search(root, (BLUE, RED)[i % 2], actor, critic, opponent,
                       configs[i // 2 % 2], np.random.default_rng(i))
    counts[1] = -1 if spy is None else spy.handed_back
    return tuple(counts)


def test_search_model_calls_match_env_step(monkeypatch):
    calls, handed_back, ended, in_flight = model_call_identity(monkeypatch,
                                                               50, 1896)
    assert calls > 800 and ended > 50 and in_flight > 200
    assert handed_back == (-1 if environment._kernel is None else 0)


class EqualNormGenerator(np.random.Generator):
    """A Generator, whose state run_search can save and restore, that draws
    EqualNormRng's rows: equal priors, so scores tie."""

    def standard_normal(self, shape):
        return EqualNormRng().standard_normal(shape)


def _both_walks(monkeypatch, root, side, actor, critic, opponent, config,
                seed=0, generator=np.random.Generator):
    """run_search from root on the kernel's walk and on the Python walk, each
    with a fresh generator on PCG64(seed).  Asserts the same SearchResult
    bytes, the same rng state afterwards and, where the kernel did not hand
    back, the same forwards in the same order.  Returns (the result, the spy
    that stood in for the kernel)."""
    spy = selfcheck.KernelSpy(environment._kernel)
    real_forward = mcts.forward
    results, states, forwards = [], [], []
    for kernel in (spy, PYTHON_WALK):
        rng, log = generator(np.random.PCG64(seed)), []

        def logged(params, x, log=log):
            log.append((id(params), np.asarray(x, dtype=np.float64).tobytes()))
            return real_forward(params, x)

        with monkeypatch.context() as m:
            m.setattr(environment, "_kernel", kernel)
            m.setattr(mcts, "forward", logged)
            results.append(run_search(root, side, actor, critic, opponent,
                                      config, rng))
        states.append(rng.bit_generator.state)
        forwards.append(log)
    assert selfcheck.search_bytes(results[0]) == \
        selfcheck.search_bytes(results[1])
    assert states[0] == states[1]
    assert spy.searches_handed_back or forwards[0] == forwards[1]
    return results[0], spy


needs_kernel = pytest.mark.skipif(environment._kernel is None,
                                  reason="the compiled kernel is not loaded")


@needs_kernel
def test_kernel_walk_equals_python_walk():
    # The invariant that `dogfight selfcheck` runs, on other seeds: RED and
    # BLUE roots, roots with missiles in flight, children that end the
    # engagement, and SEARCH_CONFIGS down to one action, one simulation and
    # depth 1.
    counts = selfcheck.search_identity(64, 4242)
    assert counts["searches"] == 64
    assert counts["missile_roots"] > 10 and counts["ended"] > 20


def _rigged_critic(seed, scale, bias):
    critic = make_critic(seed)
    critic.weights[-1] *= scale
    critic.biases[-1][:] = bias
    return critic


@needs_kernel
@pytest.mark.parametrize("generator", [np.random.Generator, EqualNormGenerator])
@pytest.mark.parametrize("scale, bias", [(0.0, 0.25), (0.0, -3.0),
                                         (400.0, 0.0), (400.0, 1.5)])
def test_kernel_walk_equals_python_walk_on_rigged_critics(monkeypatch, scale,
                                                          bias, generator):
    # A constant critic with equal priors ties the scores that visits have
    # not split, so the walk rests on PUCT's lowest-index rule; a scaled one
    # leaves the clamp to [-1, 1] most values.
    seed_rng = np.random.default_rng(5)
    for i, config in enumerate(selfcheck.SEARCH_CONFIGS * 2):
        res, spy = _both_walks(monkeypatch, selfcheck.prefix_root(seed_rng),
                               (BLUE, RED)[i % 2], make_actor(i),
                               _rigged_critic(i, scale, bias), make_actor(i + 1),
                               config, seed=i, generator=generator)
        assert (spy.searches, spy.searches_handed_back) == (1, 0)
        if scale == 0.0:
            assert res.root_critic == bias
        assert res.root_value == min(max(res.root_critic, -1.0), 1.0)


@needs_kernel
def test_kernel_walk_on_the_smallest_search(monkeypatch):
    config = SearchConfig(num_actions=1, num_simulations=1, max_depth=1)
    for side in (BLUE, RED):
        res, spy = _both_walks(monkeypatch, flatten(reset(33)), side,
                               make_actor(7), make_critic(1), make_actor(2),
                               config)
        assert (spy.searches, spy.searches_handed_back) == (1, 0)
        assert res.visit_counts.tolist() == [1] and res.chosen_index == 0


@needs_kernel
def test_kernel_walk_hand_back_leaves_no_trace(monkeypatch):
    # Values that are not finite stay in the kernel's walk, on either side: a
    # critic whose output is NaN, an actor of zero std, whose priors are all
    # NaN, and a critic with one +inf and one -inf last-layer weight, whose
    # output is +inf at some nodes and NaN at others.  A blue aircraft so
    # fast that its first substep overflows the position hands back at the
    # first child step, after the root's draws.  The reference raises in
    # none of these, and the Python walk, with the rng restored, gives its
    # own result: equal bytes and rng state to a search on the Python walk
    # alone.
    fast = flatten(reset(3))
    fast = ((fast[0][:3] + (1.7e308,) + fast[0][4:]),) + fast[1:]
    zero_std = make_actor(0)
    zero_std.log_std[:] = -1000.0
    infinite = make_critic(1)
    infinite.weights[-1][:] = 0.0
    infinite.weights[-1][:2] = [[math.inf], [-math.inf]]
    nan_critic = _rigged_critic(1, 1.0, math.nan)
    cases = [(flatten(reset(3)), actor, critic, side, 0)
             for actor, critic in ((make_actor(0), nan_critic),
                                   (zero_std, make_critic(1)),
                                   (make_actor(0), infinite))
             for side in (BLUE, RED)]
    cases.append((fast, make_actor(0), make_critic(1), BLUE, 1))
    for root, actor, critic, side, handed_back in cases:
        res, spy = _both_walks(monkeypatch, root, side, actor, critic,
                               make_actor(2), SearchConfig(), seed=9)
        assert (spy.searches, spy.searches_handed_back) == (1, handed_back)
        assert math.isfinite(res.root_critic) == (
            critic is not nan_critic and critic is not infinite)
        assert math.isnan(res.root_value) == math.isnan(res.root_critic)
        # Every PUCT score is NaN, so every simulation descends child 0.
        assert (res.visit_counts[0] == 20) == (actor is zero_std)
        assert np.isnan(res.priors).all() == (actor is zero_std)


@needs_kernel
@pytest.mark.parametrize("failing_call", [1, 2, 3, 17])
def test_kernel_walk_raises_as_the_python_walk(monkeypatch, failing_call):
    # A forward that raises on its nth call, whichever callback makes it:
    # the critic's at the root (1), the actor's and the opponent's at the
    # root's first descent (2, 3), and one deep in the search (17).  Both
    # walks make their forwards in the same order, so both raise the same
    # error with the search rng in the same state.
    real_forward = mcts.forward
    root = flatten(reset(8))
    states = []
    for kernel in (environment._kernel, PYTHON_WALK):
        calls = [0]

        def failing_forward(params, x):
            calls[0] += 1
            if calls[0] == failing_call:
                raise FloatingPointError(f"forward {calls[0]}")
            return real_forward(params, x)

        rng = np.random.default_rng(4)
        with monkeypatch.context() as m:
            m.setattr(environment, "_kernel", kernel)
            m.setattr(mcts, "forward", failing_forward)
            with pytest.raises(FloatingPointError, match=f"forward {failing_call}$"):
                run_search(root, RED, make_actor(0), make_critic(1),
                           make_actor(2), SearchConfig(), rng)
        states.append(rng.bit_generator.state)
    assert states[0] == states[1]
