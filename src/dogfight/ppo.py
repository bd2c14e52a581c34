"""Clipped-surrogate policy optimization over self-play rollouts.

Value targets are the discounted terminal engagement outcome, gamma^(T-t) * z,
rather than bootstrapped returns: the match result is the only reward, and
the critic learns to predict it directly.  Advantages use GAE over the stored
value estimates and are normalized across the buffer before training.

The actor and the critic share only the buffer and the minibatch order, so
`train_iteration` trains them as two independent tasks on the ordered
worker pool (`workers._in_order`): on two forked processes where two CPUs
are usable, one after the other in-process where one is.  Each network
sees the same numpy calls in the same order either way, so the update is
the same to the bit for any CPU count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import workers
from .mlp import (
    AdamState,
    MlpParams,
    NonFiniteError,
    adam_state_for,
    adam_step,
    backprop,
    entropy,
    log_density,
)


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2
    epochs: int = 6
    batch_size: int = 1024
    actor_lr: float = 0.002
    critic_lr: float = 0.001
    entropy_coeff: float = 0.01

    def __post_init__(self):
        for name in ("gamma", "gae_lambda", "clip_epsilon", "actor_lr", "critic_lr"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"TrainConfig.{name} must be positive, got {v}")
        if not (math.isfinite(self.entropy_coeff) and self.entropy_coeff >= 0.0):
            raise ValueError(
                f"entropy_coeff must be non-negative, got {self.entropy_coeff}")
        if not self.clip_epsilon < 1.0:
            raise ValueError(f"clip_epsilon must be < 1, got {self.clip_epsilon}")
        if self.gamma > 1.0 or self.gae_lambda > 1.0:
            raise ValueError("gamma and gae_lambda must not exceed 1")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be at least 1")


@dataclass
class Transition:
    obs: np.ndarray
    action: np.ndarray
    logp: float
    reward: float
    value: float
    done: bool
    advantage: Optional[float] = None
    value_target: Optional[float] = None


@dataclass
class TrainMetrics:
    surrogate: float
    value_loss: float
    entropy: float
    clip_fraction: float
    kl: float


class RolloutBuffer:
    """Transitions grouped by episode; an episode closes on its done flag."""

    def __init__(self):
        self.episodes: list[list[Transition]] = []
        self._open: list[Transition] = []

    def add(self, tr: Transition) -> None:
        self._open.append(tr)
        if tr.done:
            self.episodes.append(self._open)
            self._open = []

    def __len__(self) -> int:
        return sum(len(ep) for ep in self.episodes)

    @property
    def open_count(self) -> int:
        return len(self._open)

    def transitions(self) -> list[Transition]:
        return [t for ep in self.episodes for t in ep]


def compute_advantages(buffer: RolloutBuffer, config: TrainConfig,
                       normalize: bool = True) -> None:
    """Fill GAE advantages and discounted-outcome value targets in place.

    Value targets follow target(t) = gamma * target(t+1) backward from the
    terminal reward z, so the chain identity is exact.  Advantages are
    normalized to zero mean and unit variance over the whole buffer.
    """
    if buffer.open_count:
        raise ValueError(f"buffer has an open episode of {buffer.open_count} transitions")
    gamma, lam = config.gamma, config.gae_lambda
    for ep in buffer.episodes:
        gae = 0.0
        next_value = 0.0
        target = ep[-1].reward
        for i, tr in enumerate(reversed(ep)):
            nonterminal = 0.0 if tr.done else 1.0
            delta = tr.reward + gamma * next_value * nonterminal - tr.value
            gae = delta + gamma * lam * nonterminal * gae
            tr.advantage = gae
            tr.value_target = target
            next_value = tr.value
            target = gamma * target
    if normalize:
        trs = buffer.transitions()
        adv = np.array([t.advantage for t in trs])
        mean = float(adv.mean())
        std = max(float(adv.std()), 1e-8)
        for t in trs:
            t.advantage = (t.advantage - mean) / std


def clip_surrogate(ratio: np.ndarray, advantage: np.ndarray,
                   clip_epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample clipped surrogate min(rho*A, clip(rho)*A).

    Also returns which samples take the unclipped branch (ties go to it, so
    an identity policy update keeps the unclipped gradient active).
    """
    unclipped = ratio * advantage
    clipped = np.clip(ratio, 1.0 - clip_epsilon, 1.0 + clip_epsilon) * advantage
    term = np.minimum(unclipped, clipped)
    return term, unclipped <= clipped


def _actor_loss(actions, old_logp, advantages, config, stats: dict):
    """Loss closure for backprop: clipped surrogate plus entropy bonus."""

    def fn(out, log_std):
        n = out.shape[0]
        std = np.exp(log_std)
        zscore = (actions - out) / std
        new_logp = log_density(out, log_std, actions)
        with np.errstate(over="ignore"):
            ratio = np.exp(new_logp - old_logp)
        if not np.all(np.isfinite(ratio)):
            bad = int(np.argmin(np.isfinite(ratio)))
            raise NonFiniteError(
                f"non-finite policy ratio at sample {bad}: "
                f"new logp {new_logp[bad]}, old logp {old_logp[bad]}")
        term, unclipped_active = clip_surrogate(ratio, advantages, config.clip_epsilon)
        ent = entropy(log_std)
        loss = -float(np.mean(term)) - config.entropy_coeff * ent

        d_logp = np.where(unclipped_active, ratio * advantages, 0.0) / (-n)
        d_out = d_logp[:, None] * (zscore / std)
        d_log_std = ((d_logp[:, None] * (zscore * zscore - 1.0)).sum(axis=0)
                     - config.entropy_coeff * np.ones_like(log_std))

        stats["surrogate"] = float(np.mean(term))
        stats["entropy"] = ent
        stats["clip_fraction"] = float(np.mean(
            (ratio < 1.0 - config.clip_epsilon) | (ratio > 1.0 + config.clip_epsilon)))
        stats["kl"] = float(np.mean(old_logp - new_logp))
        return loss, d_out, d_log_std

    return fn


def _critic_loss(targets):
    def fn(out, log_std):
        n = out.shape[0]
        diff = out[:, 0] - targets
        loss = float(np.mean(diff * diff))
        d_out = (2.0 * diff / n)[:, None]
        return loss, d_out, None

    return fn


def _stacked(buffer: RolloutBuffer):
    trs = buffer.transitions()
    if any(t.advantage is None or t.value_target is None for t in trs):
        raise ValueError("advantages not computed; call compute_advantages first")
    obs = np.stack([t.obs for t in trs])
    actions = np.stack([t.action for t in trs])
    old_logp = np.array([t.logp for t in trs])
    advantages = np.array([t.advantage for t in trs])
    targets = np.array([t.value_target for t in trs])
    return obs, actions, old_logp, advantages, targets


def _copy_state(state: AdamState) -> AdamState:
    return AdamState([m.copy() for m in state.m], [v.copy() for v in state.v],
                     state.step)


def _write_back(params: MlpParams, state: AdamState, new_params: MlpParams,
                new_state: AdamState) -> None:
    """Copy a task's results into the caller's arrays, in place."""
    for dst, src in zip(params.tensors() + state.m + state.v,
                        new_params.tensors() + new_state.m + new_state.v):
        dst[...] = src
    state.step = new_state.step


def train_iteration(actor: MlpParams, critic: MlpParams, buffer: RolloutBuffer,
                    config: TrainConfig, rng: np.random.Generator,
                    actor_opt: Optional[AdamState] = None,
                    critic_opt: Optional[AdamState] = None) -> TrainMetrics:
    """Several clipped-surrogate epochs over the shuffled buffer, in place.

    Fresh Adam states are created unless persistent ones are passed in.
    Returns means of the per-minibatch diagnostics.

    Every epoch's permutation is drawn from rng up front, in epoch order.
    The actor's epochs and the critic's epochs then run as two tasks of the
    ordered worker pool, on min(2, usable CPUs) workers (in-process, one
    after the other, on one).  Each task trains copies of its network and
    Adam state and sums its own diagnostics in minibatch order; the loss
    arithmetic is that of one process, so the result is the same to the
    bit for any worker count.  Only when both tasks have finished are the
    caller's parameters and Adam states overwritten, so an update that
    raises (NonFiniteError, say) leaves them as they were.
    """
    n = len(buffer)
    if n < config.batch_size:
        raise ValueError(f"buffer holds {n} transitions, need at least {config.batch_size}")
    obs, actions, old_logp, advantages, targets = _stacked(buffer)
    if actor_opt is None:
        actor_opt = adam_state_for(actor)
    if critic_opt is None:
        critic_opt = adam_state_for(critic)
    batches = [perm[start:start + config.batch_size]
               for perm in [rng.permutation(n) for _ in range(config.epochs)]
               for start in range(0, n, config.batch_size)]

    def train(task: str) -> tuple[MlpParams, AdamState, dict]:
        if task == "actor":
            params, state = actor.copy(), _copy_state(actor_opt)
            sums = dict.fromkeys(("surrogate", "entropy", "clip_fraction", "kl"), 0.0)
            for idx in batches:
                stats: dict = {}
                fn = _actor_loss(actions[idx], old_logp[idx], advantages[idx],
                                 config, stats)
                _, grads = backprop(params, obs[idx], fn)
                adam_step(params, state, grads, config.actor_lr)
                for key in sums:
                    sums[key] += stats[key]
        else:
            params, state = critic.copy(), _copy_state(critic_opt)
            sums = {"value_loss": 0.0}
            for idx in batches:
                value_loss, grads = backprop(params, obs[idx],
                                             _critic_loss(targets[idx]))
                adam_step(params, state, grads, config.critic_lr)
                sums["value_loss"] += value_loss
        return params, state, sums

    (new_actor, new_actor_opt, sums), (new_critic, new_critic_opt, critic_sums) = \
        workers._in_order(train, ("actor", "critic"), min(2, workers._usable_cpus()))
    _write_back(actor, actor_opt, new_actor, new_actor_opt)
    _write_back(critic, critic_opt, new_critic, new_critic_opt)

    updates = len(batches)
    return TrainMetrics(surrogate=sums["surrogate"] / updates,
                        value_loss=critic_sums["value_loss"] / updates,
                        entropy=sums["entropy"] / updates,
                        clip_fraction=sums["clip_fraction"] / updates,
                        kl=sums["kl"] / updates)
