"""Best-first search over actions sampled from the policy.

Each decision runs a small tree search: nine raw actions are drawn from the
policy's Gaussian at every expanded node, their softmaxed log-densities act
as priors, the critic values leaves, and PUCT balances prior against mean
backed-up value.  The opponent is folded into the environment model by
always playing its policy mean, which keeps the tree single-agent.  The
action returned is the root child with the most visits.

Expansion takes the node's standard-normal draws from the search rng and
evaluates the critic, nothing more.  The draws become candidate actions,
priors and the opponent's reply only when a simulation first descends
through the node (`build_candidates`), so a leaf costs one forward instead
of three.  Drawing at expansion keeps the rng consumed in expansion order,
so building later changes no value.

The tree, root included, holds flat engagements (`environment.flatten`),
not EngagementStates.  The env model takes a flat state and both raw
actions and returns (next flat state, obs_blue, obs_red, outcome code), as
`environment.env_step` does, with observations equal to `observe` of the
returned state; a child keeps that (own, opponent) pair as tuples of floats
and turns its own observation into an array once, at first use.  Candidate
actions and the opponent's reply are lists of floats, so the model reads
them without numpy.  A callable critic receives the node's flat state.  The
caller may pass the root's observation pair too; only a root without one is
observed here.

Priors, visit counts and value sums are Python lists: a node has only
`num_actions` children, and on a handful of floats a numpy call costs more
than the arithmetic.  `puct_select` and `backup` compute in the order the
array expressions did, so a search's result is the same to the bit;
`SearchResult` hands the root's counts, priors and action back as arrays.

There are two walks of the same tree.  When the model is `env_step` itself,
the critic a network and the rng a Generator, the compiled kernel's
`search` walks it: its C doubles hold the tree, PUCT and backup keep the
operation order above, and each child is stepped as the kernel's `step`
steps, with no Python call.  It calls back (`_callbacks`) only for the
numpy work, at the points and in the order where the walk below does it,
so the search rng is consumed the same way; a critic output or score that
is not finite it walks as the walk below does.  Where the kernel hands a
search back (a child step it would hand back, or a callback's array that
is not of float64 and of its shape), `run_search` restores the rng's state
and runs the walk below, the reference, which also serves any other model
or critic and a host without the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import environment
from .environment import (
    BLUE,
    REWARDS_BY_CODE,
    FlatModel,
    FlatState,
    observe,
    other_side,
)
from .mlp import MlpParams, forward, log_density

Critic = Union[MlpParams, Callable[[FlatState], float]]
Observations = tuple[Sequence[float], Sequence[float]]


@dataclass(frozen=True)
class SearchConfig:
    num_actions: int = 9
    num_simulations: int = 20
    c_puct: float = 1.25
    max_depth: int = 5

    def __post_init__(self):
        if self.num_actions < 1 or self.num_simulations < 1 or self.max_depth < 1:
            raise ValueError("num_actions, num_simulations and max_depth must be >= 1")
        if not (math.isfinite(self.c_puct) and self.c_puct > 0.0):
            raise ValueError(f"c_puct must be positive and finite, got {self.c_puct}")


class SearchNode:
    """One tree node: a state snapshot plus per-child edge statistics."""

    __slots__ = ("state", "depth", "obs", "expanded", "terminal",
                 "terminal_value", "draws", "actions", "priors", "visit_counts",
                 "total_values", "children", "mean", "opp_action", "eval_value")

    def __init__(self, state: FlatState, depth: int,
                 obs: Optional[Observations] = None):
        self.state = state
        self.depth = depth
        self.obs = obs  # (own, opponent) observations; built on first use if None
        self.expanded = False
        self.terminal = False
        self.terminal_value = 0.0
        self.draws: Optional[np.ndarray] = None  # standard normals, set on expansion
        self.actions: Optional[list[list[float]]] = None  # set on first descent
        self.priors: Optional[list[float]] = None
        self.visit_counts: Optional[list[int]] = None
        self.total_values: Optional[list[float]] = None
        self.children: Optional[list[Optional[SearchNode]]] = None
        self.mean: Optional[np.ndarray] = None  # actor mean at the node
        self.opp_action: Optional[list[float]] = None
        self.eval_value: Optional[float] = None  # critic output, unclamped

    def q_values(self) -> list[float]:
        """Mean backed-up value per child; 0 for unvisited children."""
        return [w / n if n else 0.0
                for w, n in zip(self.total_values, self.visit_counts)]


@dataclass
class SearchResult:
    """Chosen action plus the search trace for optional logging.

    root_mean is the actor's mean at the root and root_critic the critic's
    unclamped output there, so callers need no second forward of either.
    """

    action: np.ndarray
    root_value: float
    visit_counts: np.ndarray
    priors: np.ndarray
    chosen_index: int
    root_mean: np.ndarray
    root_critic: float


def _observations(node: SearchNode, side: str) -> Observations:
    """The node's (own, opponent) pair, its own observation an array.

    The own observation feeds the critic at expansion and the actor at the
    first descent, so it is converted once, here; the opponent's feeds one
    forward, which converts it.
    """
    obs = node.obs
    if obs is None:
        obs = node.obs = (observe(node.state, side),
                          observe(node.state, other_side(side)))
    elif type(obs[0]) is not np.ndarray:
        obs = node.obs = (np.asarray(obs[0], dtype=np.float64), obs[1])
    return obs


def _evaluate_state(node: SearchNode, side: str, critic: Critic) -> float:
    """Critic value of the node state, clamped to the outcome scale."""
    if node.eval_value is None:
        if isinstance(critic, MlpParams):
            node.eval_value = float(forward(critic, _observations(node, side)[0])[0])
        else:
            node.eval_value = float(critic(node.state))
    return min(max(node.eval_value, -1.0), 1.0)


def expand_node(node: SearchNode, side: str, actor: MlpParams, critic: Critic,
                config: SearchConfig, rng: np.random.Generator) -> float:
    """Draw the node's candidate noise, evaluate the node; returns its value.

    The draws become actions and priors in `build_candidates`, on the first
    descent through the node.  A terminal node is never expanded; its stored
    outcome value is returned instead.
    """
    if node.terminal:
        return node.terminal_value
    if node.expanded:
        raise ValueError("node is already expanded")
    k = config.num_actions
    node.draws = rng.standard_normal((k, actor.out_dim))
    node.visit_counts = [0] * k
    node.total_values = [0.0] * k
    node.children = [None] * k
    node.expanded = True
    return _evaluate_state(node, side, critic)


def _candidates(own_obs, draws: np.ndarray, opp_obs, actor: MlpParams,
                opponent: MlpParams):
    """(actions, priors, mean, reply) arrays from a node's draws: the
    policy's samples, their softmaxed log-densities, the actor's mean and
    the opponent's policy mean."""
    mean = forward(actor, own_obs)
    actions = mean + np.exp(actor.log_std) * draws
    logps = log_density(mean, actor.log_std, actions)
    stable = np.exp(logps - logps.max())
    return actions, stable / stable.sum(), mean, forward(opponent, opp_obs)


def build_candidates(node: SearchNode, side: str, actor: MlpParams,
                     opponent: MlpParams) -> None:
    """Turn an expanded node's draws into actions, priors and the opponent's
    reply (`_candidates`), as lists of floats."""
    own_obs, opp_obs = _observations(node, side)
    actions, priors, node.mean, reply = _candidates(own_obs, node.draws,
                                                    opp_obs, actor, opponent)
    node.priors = priors.tolist()
    node.actions = actions.tolist()
    node.opp_action = reply.tolist()


def puct_select(node: SearchNode, c_puct: float) -> int:
    """Child index maximizing Q + c_puct * P * sqrt(sum N + 1) / (1 + N).

    The +1 under the square root keeps the prior term alive before the
    first child visit; ties resolve to the lowest index.
    """
    if not node.expanded:
        raise ValueError("cannot select from an unexpanded node")
    if node.priors is None:
        raise ValueError("cannot select before the node's candidates are built")
    root_n = math.sqrt(float(sum(node.visit_counts)) + 1.0)
    scores = [q + c_puct * p * root_n / (1.0 + n)
              for q, p, n in zip(node.q_values(), node.priors, node.visit_counts)]
    return scores.index(max(scores))


def backup(path: list[tuple[SearchNode, int]], value: float) -> None:
    """Credit one simulation's value to every edge on its path."""
    for node, idx in path:
        node.visit_counts[idx] += 1
        node.total_values[idx] += value


def _make_child(node: SearchNode, idx: int, side: str,
                env_model: FlatModel) -> SearchNode:
    if node.actions is None:
        raise ValueError("cannot step a child before the node's candidates are built")
    action = node.actions[idx]
    if side == BLUE:
        state, obs_blue, obs_red, code = env_model(node.state, action,
                                                   node.opp_action)
        child = SearchNode(state, node.depth + 1, (obs_blue, obs_red))
    else:
        state, obs_blue, obs_red, code = env_model(node.state, node.opp_action,
                                                   action)
        child = SearchNode(state, node.depth + 1, (obs_red, obs_blue))
    if code:  # the engagement ended
        child.terminal = True
        child.terminal_value = REWARDS_BY_CODE[code][side != BLUE]
    return child


def _callbacks(actor: MlpParams, critic: MlpParams, opponent: MlpParams,
               k: int, rng: np.random.Generator):
    """The kernel walk's calls into numpy, each doing what the Python walk
    does at the same point: expand(own) draws the node's normals and returns
    (the critic's output, the handle build takes), evaluate(own) returns the
    critic's output at the depth cap, and build(handle, opp) returns
    `_candidates`."""
    def expand(own):
        draws = rng.standard_normal((k, actor.out_dim))
        own = np.asarray(own, dtype=np.float64)
        return float(forward(critic, own)[0]), (own, draws)

    def evaluate(own):
        return float(forward(critic, own)[0])

    def build(handle, opp):
        own, draws = handle
        return _candidates(own, draws, opp, actor, opponent)

    return expand, evaluate, build


def _result(visits: list[int], actions, priors, mean: np.ndarray,
            critic_value: float) -> SearchResult:
    """The SearchResult of a root's visit counts, candidates, actor mean and
    unclamped critic output, as either walk leaves them."""
    chosen = visits.index(max(visits))
    return SearchResult(np.array(actions[chosen]),
                        min(max(critic_value, -1.0), 1.0),
                        np.array(visits, dtype=np.int64), np.array(priors),
                        chosen, mean, critic_value)


def run_search(root_state: FlatState, side: str, actor: MlpParams,
               critic: Critic, opponent: MlpParams, env_model: FlatModel,
               config: SearchConfig, rng: np.random.Generator, *,
               root_obs: Optional[Observations] = None) -> SearchResult:
    """Search from the flat root_state; return the most-visited root action.

    env_model steps flat states, as `environment.env_step` does.  root_obs,
    when given, must be the (own, opponent) pair that `observe` returns for
    root_state.  The root is expanded up front, then each
    simulation descends by PUCT, creating child states lazily, until it
    reaches a terminal node, an unexpanded node (expanded and evaluated on
    the spot), or the depth cap (evaluated by the critic); the value is
    backed up along the path.  A node's candidates are built on the first
    descent through it; the root's always are, since every simulation
    starts there.

    With env_step itself as env_model, a network critic and a Generator,
    the compiled kernel walks the tree; where it hands the search back, the
    rng is restored and the Python walk below runs, as it does for any
    other model or critic.  Both give the same result and leave the rng in
    the same state.
    """
    if root_state[9]:  # the outcome code of a finished engagement
        raise ValueError("cannot search from a terminal state")
    if root_obs is None:
        root_obs = (observe(root_state, side),
                    observe(root_state, other_side(side)))
    kernel = environment._kernel
    if (kernel is not None and env_model is environment.env_step
            and isinstance(critic, MlpParams)
            and isinstance(rng, np.random.Generator)):
        saved = rng.bit_generator.state
        found = kernel.search(root_state, side != BLUE, *root_obs,
                              config.num_actions, config.num_simulations,
                              config.c_puct, config.max_depth,
                              *_callbacks(actor, critic, opponent,
                                          config.num_actions, rng))
        if found is not None:
            visits, critic_value, (actions, priors, mean, _) = found
            return _result(visits, actions, priors, mean, critic_value)
        rng.bit_generator.state = saved  # the walk below draws afresh
    root = SearchNode(root_state, 0, root_obs)
    expand_node(root, side, actor, critic, config, rng)

    for _ in range(config.num_simulations):
        node = root
        path: list[tuple[SearchNode, int]] = []
        while True:
            if node.terminal:
                value = node.terminal_value
                break
            if node.depth >= config.max_depth:
                value = _evaluate_state(node, side, critic)
                break
            if not node.expanded:
                value = expand_node(node, side, actor, critic, config, rng)
                break
            if node.actions is None:
                build_candidates(node, side, actor, opponent)
            idx = puct_select(node, config.c_puct)
            if node.children[idx] is None:
                node.children[idx] = _make_child(node, idx, side, env_model)
            path.append((node, idx))
            node = node.children[idx]
        backup(path, value)

    return _result(root.visit_counts, root.actions, root.priors, root.mean,
                   root.eval_value)
