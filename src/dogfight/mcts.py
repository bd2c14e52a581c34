"""Best-first search over actions sampled from the policy.

Each decision runs a small tree search: nine raw actions are drawn from the
policy's Gaussian at every expanded node, their softmaxed log-densities act
as priors, the critic values leaves, and PUCT balances prior against mean
backed-up value.  The opponent is folded into the environment model by
always playing its policy mean, which keeps the tree single-agent.  The
action returned is the root child with the most visits.

A node keeps the (own, opponent) observation pair of its state.  A child
takes it from the StepResult of the env model call that made it, so the env
model must return obs_blue and obs_red equal to `observe` of its returned
state, as `environment.env_step` does; only the root is observed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .environment import BLUE, EngagementState, Outcome, StepResult, observe, other_side
from .mlp import MlpParams, forward, log_density

EnvModel = Callable[[EngagementState, np.ndarray, np.ndarray], StepResult]
Critic = Union[MlpParams, Callable[[EngagementState], float]]


@dataclass(frozen=True)
class SearchConfig:
    num_actions: int = 9
    num_simulations: int = 20
    c_puct: float = 1.25
    max_depth: int = 5

    def __post_init__(self):
        if self.num_actions < 1 or self.num_simulations < 1 or self.max_depth < 1:
            raise ValueError("num_actions, num_simulations and max_depth must be >= 1")
        if not self.c_puct > 0.0:
            raise ValueError(f"c_puct must be positive, got {self.c_puct}")


class SearchNode:
    """One tree node: a state snapshot plus per-child edge statistics."""

    __slots__ = ("state", "depth", "obs", "expanded", "terminal",
                 "terminal_value", "actions", "priors", "visit_counts",
                 "total_values", "children", "mean", "opp_action", "eval_value")

    def __init__(self, state: EngagementState, depth: int,
                 obs: Optional[tuple[np.ndarray, np.ndarray]] = None):
        self.state = state
        self.depth = depth
        self.obs = obs  # (own, opponent) observations; built on first use if None
        self.expanded = False
        self.terminal = False
        self.terminal_value = 0.0
        self.actions: Optional[np.ndarray] = None
        self.priors: Optional[np.ndarray] = None
        self.visit_counts: Optional[np.ndarray] = None
        self.total_values: Optional[np.ndarray] = None
        self.children: Optional[list[Optional[SearchNode]]] = None
        self.mean: Optional[np.ndarray] = None  # actor mean at the node
        self.opp_action: Optional[np.ndarray] = None
        self.eval_value: Optional[float] = None  # critic output, unclamped

    def q_values(self) -> np.ndarray:
        """Mean backed-up value per child; 0 for unvisited children."""
        n = self.visit_counts
        return np.where(n > 0, self.total_values / np.maximum(n, 1), 0.0)


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


def _observations(node: SearchNode, side: str) -> tuple[np.ndarray, np.ndarray]:
    if node.obs is None:
        node.obs = (observe(node.state, side), observe(node.state, other_side(side)))
    return node.obs


def _evaluate_state(node: SearchNode, side: str, critic: Critic) -> float:
    """Critic value of the node state, clamped to the outcome scale."""
    if node.eval_value is None:
        if isinstance(critic, MlpParams):
            node.eval_value = float(forward(critic, _observations(node, side)[0])[0])
        else:
            node.eval_value = float(critic(node.state))
    return min(max(node.eval_value, -1.0), 1.0)


def expand_node(node: SearchNode, side: str, actor: MlpParams, critic: Critic,
                opponent: MlpParams, config: SearchConfig,
                rng: np.random.Generator) -> float:
    """Sample child actions, set priors, evaluate the node; returns its value.

    A terminal node is never expanded; its stored outcome value is returned
    instead.
    """
    if node.terminal:
        return node.terminal_value
    if node.expanded:
        raise ValueError("node is already expanded")
    k = config.num_actions
    own_obs, opp_obs = _observations(node, side)
    mean = forward(actor, own_obs)
    draws = rng.standard_normal((k, actor.out_dim))
    actions = mean + np.exp(actor.log_std) * draws
    logps = log_density(mean, actor.log_std, actions)
    stable = np.exp(logps - logps.max())
    node.priors = stable / stable.sum()
    node.actions = actions
    node.visit_counts = np.zeros(k, dtype=np.int64)
    node.total_values = np.zeros(k)
    node.children = [None] * k
    node.mean = mean
    node.opp_action = forward(opponent, opp_obs)
    node.expanded = True
    return _evaluate_state(node, side, critic)


def puct_select(node: SearchNode, c_puct: float) -> int:
    """Child index maximizing Q + c_puct * P * sqrt(sum N + 1) / (1 + N).

    The +1 under the square root keeps the prior term alive before the
    first child visit; ties resolve to the lowest index.
    """
    if not node.expanded:
        raise ValueError("cannot select from an unexpanded node")
    n = node.visit_counts
    explore = c_puct * node.priors * math.sqrt(float(n.sum()) + 1.0) / (1.0 + n)
    return int(np.argmax(node.q_values() + explore))


def backup(path: list[tuple[SearchNode, int]], value: float) -> None:
    """Credit one simulation's value to every edge on its path."""
    for node, idx in path:
        node.visit_counts[idx] += 1
        node.total_values[idx] += value


def _make_child(node: SearchNode, idx: int, side: str,
                env_model: EnvModel) -> SearchNode:
    action = node.actions[idx]
    if side == BLUE:
        res = env_model(node.state, action, node.opp_action)
        obs = (res.obs_blue, res.obs_red)
    else:
        res = env_model(node.state, node.opp_action, action)
        obs = (res.obs_red, res.obs_blue)
    child = SearchNode(res.state, node.depth + 1, obs)
    if res.done:
        child.terminal = True
        child.terminal_value = res.reward_blue if side == BLUE else res.reward_red
    return child


def run_search(root_state: EngagementState, side: str, actor: MlpParams,
               critic: Critic, opponent: MlpParams, env_model: EnvModel,
               config: SearchConfig, rng: np.random.Generator) -> SearchResult:
    """Search from root_state and return the most-visited root action.

    The root is expanded up front, then each simulation descends by PUCT,
    creating child states lazily, until it reaches a terminal node, an
    unexpanded node (expanded and evaluated on the spot), or the depth cap
    (evaluated by the critic); the value is backed up along the path.
    """
    if root_state.outcome is not Outcome.ONGOING:
        raise ValueError("cannot search from a terminal state")
    root = SearchNode(root_state, 0)
    root_value = expand_node(root, side, actor, critic, opponent, config, rng)

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
                value = expand_node(node, side, actor, critic, opponent, config, rng)
                break
            idx = puct_select(node, config.c_puct)
            if node.children[idx] is None:
                node.children[idx] = _make_child(node, idx, side, env_model)
            path.append((node, idx))
            node = node.children[idx]
        backup(path, value)

    chosen = int(np.argmax(root.visit_counts))
    return SearchResult(root.actions[chosen].copy(), root_value,
                        root.visit_counts.copy(), root.priors.copy(), chosen,
                        root.mean, root.eval_value)
