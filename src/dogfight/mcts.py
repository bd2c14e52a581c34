"""Best-first search over actions sampled from the policy.

Each decision runs a small tree search: nine raw actions are drawn from the
policy's Gaussian at every expanded node, their softmaxed log-densities act
as priors, the critic values leaves, and PUCT balances prior against mean
backed-up value.  The opponent is folded into the environment model by
always playing its policy mean, which keeps the tree single-agent.  The
action returned is the root child with the most visits.

A search's numpy work has one definition, `_callbacks`.  expand(own) takes
the node's standard-normal draws from the search rng and evaluates the
critic, nothing more.  build(handle, opp) turns the draws into candidate
actions, priors and the opponent's reply only when a simulation first
descends through the node, so a leaf costs one forward instead of three.
evaluate(own) values a node at the depth cap.  Drawing at expansion keeps
the rng consumed in expansion order, so building later changes no value.

Two walks of the same tree make these calls, at the same points and in the
same order, so the search rng is consumed the same way.  Wherever the
compiled kernel is loaded, its `search` walks the tree: its C doubles hold
the tree, and each child is stepped as the kernel's `step` steps, with no
Python call.  `_walk` is that walk in Python, on the same arguments,
stepping each child with `env_step`.  It is the reference, and it runs on a
host without the kernel and for any search the kernel hands back (a child
step it would hand back, or a callback's array that is not of float64 and
of its shape), after `run_search` restores the rng's state.  So, as for a
step, `environment._kernel` alone picks the route.

The tree, root included, holds flat engagements (`environment.flatten`),
not EngagementStates.  A child is `env_step` of its parent's engagement
under both raw actions, and keeps the step's observations, equal to
`observe` of its state, seen from the searching side.  Candidate actions
and the opponent's reply are lists of floats, so the step reads them
without numpy.

Priors, visit counts and value sums are Python lists: a node has only
`num_actions` children, and on a handful of floats a numpy call costs more
than the arithmetic.  `puct_select` and `backup` compute in the order the
array expressions did, and the kernel keeps that order, so a search's
result is the same to the bit on either walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import environment
from .environment import (
    BLUE,
    REWARDS_BY_CODE,
    FlatState,
    env_step,
    observe,
    other_side,
)
from .mlp import MlpParams, forward, log_density

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
    """One tree node: a flat engagement, its (own, opponent) observations
    and, where the engagement ended, the reward to the searching side.
    Expansion sets the critic's output and expand's handle; the first
    descent sets the candidates, the opponent's reply and the edges."""

    __slots__ = ("state", "depth", "obs", "terminal_value", "value", "handle",
                 "actions", "priors", "reply", "visit_counts", "total_values",
                 "children")

    def __init__(self, state: FlatState, depth: int, obs: Observations,
                 terminal_value: Optional[float] = None):
        self.state = state
        self.depth = depth
        self.obs = obs
        self.terminal_value = terminal_value
        self.value: Optional[float] = None  # the critic's output, unclamped
        self.handle = None  # expand's handle, set on expansion
        self.actions: Optional[list[list[float]]] = None  # set on first descent
        self.priors: Optional[list[float]] = None
        self.reply: Optional[list[float]] = None
        self.visit_counts: Optional[list[int]] = None
        self.total_values: Optional[list[float]] = None
        self.children: Optional[list[Optional[SearchNode]]] = None


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


def _callbacks(actor: MlpParams, critic: MlpParams, opponent: MlpParams,
               k: int, rng: np.random.Generator):
    """A search's numpy work, as both walks call it: expand(own) draws the
    node's normals and returns (the critic's output, the handle build
    takes), evaluate(own) returns the critic's output at the depth cap, and
    build(handle, opp) returns (actions, priors, mean, reply) arrays: the
    policy's samples, their softmaxed log-densities, the actor's mean and
    the opponent's policy mean."""
    def expand(own):
        draws = rng.standard_normal((k, actor.out_dim))
        own = np.asarray(own, dtype=np.float64)
        return float(forward(critic, own)[0]), (own, draws)

    def evaluate(own):
        return float(forward(critic, own)[0])

    def build(handle, opp):
        own, draws = handle
        mean = forward(actor, own)
        actions = mean + np.exp(actor.log_std) * draws
        logps = log_density(mean, actor.log_std, actions)
        stable = np.exp(logps - logps.max())
        return actions, stable / stable.sum(), mean, forward(opponent, opp)

    return expand, evaluate, build


def expand_node(node: SearchNode, expand) -> float:
    """Expand node through expand(own) -> (critic output, handle); returns
    the output clamped to the outcome scale."""
    node.value, node.handle = expand(node.obs[0])
    return min(max(node.value, -1.0), 1.0)


def puct_select(priors: list[float], visits: list[int], values: list[float],
                c_puct: float) -> int:
    """Child index maximizing Q + c_puct * P * sqrt(sum N + 1) / (1 + N),
    where Q is the mean backed-up value, 0 for an unvisited child.

    The +1 under the square root keeps the prior term alive before the
    first child visit; ties resolve to the lowest index.
    """
    root_n = math.sqrt(float(sum(visits)) + 1.0)
    scores = [(w / n if n else 0.0) + c_puct * p * root_n / (1.0 + n)
              for p, n, w in zip(priors, visits, values)]
    return scores.index(max(scores))


def backup(path: list[tuple[SearchNode, int]], value: float) -> None:
    """Credit one simulation's value to every edge on its path."""
    for node, idx in path:
        node.visit_counts[idx] += 1
        node.total_values[idx] += value


def _make_child(node: SearchNode, idx: int, red: bool) -> SearchNode:
    """Step node's engagement under candidate idx and the opponent's reply,
    for red's side when red is true, else blue's."""
    if red:
        state, obs_blue, obs_red, code = env_step(node.state, node.reply,
                                                  node.actions[idx])
        obs = (obs_red, obs_blue)
    else:
        state, obs_blue, obs_red, code = env_step(node.state,
                                                  node.actions[idx], node.reply)
        obs = (obs_blue, obs_red)
    return SearchNode(state, node.depth + 1, obs,
                      REWARDS_BY_CODE[code][red] if code else None)


def _walk(root: FlatState, red: bool, own, opp, k: int, simulations: int,
          c_puct: float, max_depth: int, expand, evaluate, build):
    """The kernel's `search` in Python, with env_step stepping each child:
    the same arguments, the same callbacks at the same points, and the same
    (root visit counts, root critic output, root build result).

    The root is expanded up front.  Each simulation then descends until a
    terminal node (its reward), the depth cap (evaluate, once per node) or
    an unexpanded node (expand); a node's first descent builds it, PUCT
    picks the edge, and a child is stepped the first time its edge is
    taken.  The value is backed up along the path.
    """
    top = SearchNode(root, 0, (own, opp))
    expand_node(top, expand)
    root_built = None
    for _ in range(simulations):
        node = top
        path: list[tuple[SearchNode, int]] = []
        while True:
            if node.terminal_value is not None:
                value = node.terminal_value
                break
            if node.depth >= max_depth:
                if node.value is None:
                    node.value = evaluate(node.obs[0])
                value = min(max(node.value, -1.0), 1.0)
                break
            if node.handle is None:
                value = expand_node(node, expand)
                break
            if node.actions is None:
                built = build(node.handle, node.obs[1])
                if node is top:
                    root_built = built
                node.actions = built[0].tolist()
                node.priors = built[1].tolist()
                node.reply = built[3].tolist()
                node.visit_counts = [0] * k
                node.total_values = [0.0] * k
                node.children = [None] * k
            idx = puct_select(node.priors, node.visit_counts,
                              node.total_values, c_puct)
            if node.children[idx] is None:
                node.children[idx] = _make_child(node, idx, red)
            path.append((node, idx))
            node = node.children[idx]
        backup(path, value)
    return top.visit_counts, top.value, root_built


def run_search(root_state: FlatState, side: str, actor: MlpParams,
               critic: MlpParams, opponent: MlpParams, config: SearchConfig,
               rng: np.random.Generator, *,
               root_obs: Optional[Observations] = None) -> SearchResult:
    """Search from the flat root_state; return the most-visited root action.

    root_obs, when given, must be the (own, opponent) pair that `observe`
    returns for root_state.  rng draws the candidates' standard normals.

    Where the compiled kernel is loaded, it walks the tree; where it hands
    the search back, the rng is restored and `_walk` runs on the same
    arguments, as it does without the kernel.  Both give the same result
    and leave the rng in the same state.
    """
    if root_state[9]:  # the outcome code of a finished engagement
        raise ValueError("cannot search from a terminal state")
    if root_obs is None:
        root_obs = (observe(root_state, side),
                    observe(root_state, other_side(side)))
    args = (root_state, side != BLUE, *root_obs, config.num_actions,
            config.num_simulations, config.c_puct, config.max_depth,
            *_callbacks(actor, critic, opponent, config.num_actions, rng))
    found = None
    kernel = environment._kernel
    if kernel is not None:
        saved = rng.bit_generator.state
        found = kernel.search(*args)
        if found is None:
            rng.bit_generator.state = saved  # _walk draws afresh
    if found is None:
        found = _walk(*args)
    visits, critic_value, (actions, priors, mean, _) = found
    chosen = visits.index(max(visits))
    return SearchResult(np.array(actions[chosen]),
                        min(max(critic_value, -1.0), 1.0),
                        np.array(visits, dtype=np.int64), np.array(priors),
                        chosen, mean, critic_value)
